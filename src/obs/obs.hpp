// Deterministic run record + wall-clock span profiling (nidkit::obs).
//
// Two time domains, kept strictly apart:
//
//  * simulated time — what a run exercised, held in one RunRecord value
//    per run: counters and fixed-bucket histograms folded from every
//    scenario's ScenarioMetrics delta (hellos sent, neighbor-FSM
//    transitions, LSA floods, frames delivered/dropped/delayed by
//    chaos...), and the behavioral-coverage seen set, novelty list and
//    saturation curve folded from its cov::CoverageVector. A caller
//    attaches a record through ExperimentConfig::record; the harness folds
//    every scenario into it in canonical scenario-index order on one
//    thread — exactly like RelationSet::merge — so the record's "sim" and
//    "cov" lines are bit-identical across --jobs 1/4/8 and cache warm/cold
//    (cached entries carry their scenario's delta and vector and replay
//    them on a hit instead of re-simulating).
//
//  * wall clock — the process-wide Registry: phase spans (simulate / mine
//    / merge / cache-lookup / cache-store / queue-wait) recorded per worker
//    thread and exported as Chrome trace-event JSON (loads in
//    ui.perfetto.dev, one lane per worker), their duration histograms, and
//    live process counters bumped on the event hot path. It lands in the
//    "wall" section, which determinism comparisons strip. It stays
//    process-wide because the event loop's hot counters and the spans that
//    workers record at any call depth need a gate they can read without a
//    handle threaded down to them.
//
// Cost model: every wall recording operation is behind enabled() — one
// relaxed atomic bool load. Disabled (the default), the event hot path pays
// a single predictable branch: no stores, no locks, no allocation. Enabled,
// the hot path still allocates nothing (the AllocBudget LAN-flood tests
// check both states); hot counters land in per-thread slots (relaxed
// atomics, never shared between threads), and spans — a handful per
// scenario, never per event — take a mutex off the hot path. A run without
// a record folds nothing.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cov/cov.hpp"

namespace nidkit::obs {

namespace detail {
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

/// The wall-clock recording switch. Off by default; the CLI flips it on
/// for --metrics-out / --trace-out runs.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// Hot-path process counters (wall domain: they reflect what *this
/// process* executed, so a warm cache legitimately shows fewer events
/// than a cold one). Bumped from the simulator/network inner loops, so
/// the disabled cost must stay at one branch.
enum class Hot : std::size_t {
  kEventsExecuted = 0,  ///< simulator events run (all scenarios, live)
  kTimersScheduled,     ///< events pushed into simulator heaps
  kFramesDelivered,     ///< network deliveries executed
  kFramesDropped,       ///< frames dropped by loss or down segments
};
inline constexpr std::size_t kHotCount = 4;

namespace detail {
void count_slow(Hot which, std::uint64_t n);
}  // namespace detail

/// Adds `n` to a hot counter. Disabled: one relaxed load + branch.
/// Enabled: a relaxed add on this thread's private slot.
inline void count(Hot which, std::uint64_t n = 1) {
  if (!enabled()) return;
  detail::count_slow(which, n);
}

/// Microseconds since the process's observability epoch (first use).
/// Monotonic; shared by every span so trace lanes line up.
std::int64_t now_us();

/// Canonical per-scenario simulated-time metric delta: (name, value)
/// pairs kept sorted by name with no duplicates. Deterministic in the
/// scenario — the same scenario always produces the same delta — so it is
/// cached alongside mined relations and replayed on cache hits.
class ScenarioMetrics {
 public:
  /// Inserts or overwrites `name`. Keeps entries sorted.
  void set(std::string_view name, std::uint64_t value);

  /// Codec fast path: appends an entry known to sort strictly after every
  /// existing one (the serialized form is written in sorted order), with
  /// no search or shift. Degrades to set() when the input is not actually
  /// sorted, preserving the invariant either way.
  void append_sorted(std::string&& name, std::uint64_t value);

  /// Pre-sizes the entry table (decode knows the count up front).
  void reserve(std::size_t n) { entries_.reserve(n); }

  /// Value of `name`, or 0 when absent.
  std::uint64_t get(std::string_view name) const;

  const std::vector<std::pair<std::string, std::uint64_t>>& entries() const {
    return entries_;
  }
  bool empty() const { return entries_.empty(); }

  friend bool operator==(const ScenarioMetrics&,
                         const ScenarioMetrics&) = default;

 private:
  std::vector<std::pair<std::string, std::uint64_t>> entries_;
};

/// Histogram over fixed decade buckets 1, 10, ... 1e9 plus an overflow
/// bucket. Fixed (never derived from data) so two runs can never disagree
/// on bucket layout.
struct Histogram {
  static constexpr std::array<std::uint64_t, 10> kBounds = {
      1,       10,        100,        1'000,       10'000,
      100'000, 1'000'000, 10'000'000, 100'000'000, 1'000'000'000};
  std::array<std::uint64_t, kBounds.size() + 1> counts{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  void observe(std::uint64_t value);
};

using Counters = std::map<std::string, std::uint64_t, std::less<>>;
using Histograms = std::map<std::string, Histogram, std::less<>>;

/// Everything deterministic one run recorded. A plain value: no locks, no
/// switch. merge_scenario MUST be called in canonical scenario-index order
/// from one thread (the fan-out merge loop), never from workers, so the
/// counters, the seen set, the novelty list and the saturation curve are
/// bit-identical for any worker count and cache temperature.
class RunRecord {
 public:
  /// Folds one scenario in: its delta into the counters and histograms,
  /// its vector into the seen set, plus one novelty and one curve point.
  void merge_scenario(const ScenarioMetrics& delta,
                      const cov::CoverageVector& coverage);

  /// Adds `value` to a counter without merging a scenario, so no coverage
  /// point appears (triage's run-level probe and incident counts).
  void add(std::string_view name, std::uint64_t value);

  /// Current value of a counter (0 when never merged).
  std::uint64_t counter(std::string_view name) const;

  /// Scenarios merged so far.
  std::uint64_t scenarios() const { return curve_.size(); }
  /// Every feature seen so far, sorted.
  const std::vector<cov::FeatureId>& seen() const { return seen_; }
  std::uint64_t class_seen(cov::FeatureClass cls) const;
  /// Per-scenario novelty: features no earlier scenario had shown.
  const std::vector<std::uint64_t>& novelty() const { return novelty_; }
  /// Saturation curve: curve()[i] = features seen after scenario i.
  const std::vector<std::uint64_t>& curve() const { return curve_; }

  /// The single line `"sim":{...}`.
  std::string sim_json() const;
  /// The single line `"cov":{...}`.
  std::string cov_json() const;

 private:
  Counters counters_;
  Histograms histograms_;
  std::vector<cov::FeatureId> seen_;  ///< sorted unique
  std::vector<std::uint64_t> novelty_;
  std::vector<std::uint64_t> curve_;
};

/// One completed phase span, as exported to the trace file.
struct SpanEvent {
  std::string name;    ///< phase: simulate, mine, merge, cache-lookup...
  std::string label;   ///< e.g. "frr/mesh-5/s2"
  std::uint32_t tid = 0;  ///< dense per-thread lane id
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
};

/// The process-wide wall-clock registry: spans, their duration histograms
/// and the hot counters.
class Registry {
 public:
  static Registry& instance();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Drops all spans and histograms and rebases per-thread hot slots. The
  /// enabled flag is left untouched.
  void reset();

  /// Records a completed span [start_us, end_us) on the calling thread's
  /// lane and feeds the matching "wall.<name>_us" histogram.
  void record_span(std::string_view name, std::string label,
                   std::int64_t start_us, std::int64_t end_us);

  std::vector<SpanEvent> spans() const;
  std::size_t span_count() const;
  std::uint64_t hot_counter(Hot which) const;

  /// The single line `"wall":{...}`.
  std::string wall_json() const;

  /// Chrome trace-event JSON (Perfetto-loadable): one "X" event per span,
  /// one lane per recording thread, with thread_name metadata.
  void write_trace_json(std::ostream& os) const;

  // ---- hot-counter plumbing (used by the per-thread blocks) ----
  struct HotBlock {
    std::array<std::atomic<std::uint64_t>, kHotCount> slots{};
  };
  void attach_hot_block(HotBlock* block);
  void detach_hot_block(HotBlock* block);

 private:
  Registry() = default;

  std::uint64_t hot_total(std::size_t slot) const;  ///< caller holds mutex_

  mutable std::mutex mutex_;
  Histograms histograms_;
  std::vector<SpanEvent> spans_;
  std::vector<HotBlock*> hot_blocks_;
  std::array<std::uint64_t, kHotCount> hot_retired_{};
  std::atomic<std::uint32_t> next_tid_{0};
};

/// The --metrics-out document, one section per line:
///   {\n"version":1,\n"sim":{...},\n"cov":{...},\n"wall":{...}\n}\n
/// so determinism checks can cut the deterministic lines out with a
/// line-oriented tool (grep '"sim":').
std::string metrics_json(const RunRecord& record);

/// RAII phase span. Construction snapshots the clock when the registry is
/// enabled; destruction records the span. Cheap no-op when disabled.
class Span {
 public:
  explicit Span(const char* name, std::string label = {}) {
    if (!enabled()) return;
    active_ = true;
    name_ = name;
    label_ = std::move(label);
    start_us_ = now_us();
  }
  ~Span() { finish(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span early (idempotent).
  void finish() {
    if (!active_) return;
    active_ = false;
    Registry::instance().record_span(name_, std::move(label_), start_us_,
                                     now_us());
  }

 private:
  bool active_ = false;
  const char* name_ = nullptr;
  std::string label_;
  std::int64_t start_us_ = 0;
};

}  // namespace nidkit::obs
