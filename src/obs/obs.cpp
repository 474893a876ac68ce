#include "obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace nidkit::obs {

namespace {

/// Fixed decade buckets shared by every histogram: 1, 10, ... 1e9, plus
/// the implicit overflow bucket. Fixed (never derived from data) so two
/// runs can never disagree on bucket layout.
const std::vector<std::uint64_t>& decade_bounds() {
  static const std::vector<std::uint64_t> bounds = {
      1,         10,         100,         1'000,         10'000,
      100'000,   1'000'000,  10'000'000,  100'000'000,   1'000'000'000};
  return bounds;
}

/// Minimal JSON string escaping (labels are plain ASCII identifiers, but
/// never trust an input). Local on purpose: obs sits below detect in the
/// layer graph and cannot borrow its json helpers.
std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Dense trace lane id for the calling thread, assigned on first use.
std::uint32_t lane_id(std::atomic<std::uint32_t>& next) {
  thread_local std::uint32_t tid = ~std::uint32_t{0};
  if (tid == ~std::uint32_t{0}) tid = next.fetch_add(1);
  return tid;
}

/// Per-thread hot-counter block, registered with the registry for its
/// lifetime; on thread exit the block's totals fold into the retired
/// base so no samples are lost.
struct ThreadHot {
  Registry::HotBlock block;
  ThreadHot() { Registry::instance().attach_hot_block(&block); }
  ~ThreadHot() { Registry::instance().detach_hot_block(&block); }
};

Registry::HotBlock& hot_block() {
  thread_local ThreadHot t;
  return t.block;
}

}  // namespace

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

namespace detail {
void count_slow(Hot which, std::uint64_t n) {
  hot_block().slots[static_cast<std::size_t>(which)].fetch_add(
      n, std::memory_order_relaxed);
}
}  // namespace detail

std::int64_t now_us() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               epoch)
      .count();
}

// ---- ScenarioMetrics ----

void ScenarioMetrics::set(std::string_view name, std::uint64_t value) {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), name,
      [](const auto& entry, std::string_view key) { return entry.first < key; });
  if (it != entries_.end() && it->first == name) {
    it->second = value;
    return;
  }
  entries_.emplace(it, std::string(name), value);
}

void ScenarioMetrics::append_sorted(std::string&& name, std::uint64_t value) {
  if (entries_.empty() || entries_.back().first < name) {
    entries_.emplace_back(std::move(name), value);
    return;
  }
  set(name, value);
}

std::uint64_t ScenarioMetrics::get(std::string_view name) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), name,
      [](const auto& entry, std::string_view key) { return entry.first < key; });
  return (it != entries_.end() && it->first == name) ? it->second : 0;
}

// ---- Registry ----

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Registry::Registry() = default;

void Registry::Histogram::observe(std::uint64_t value) {
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  ++counts[static_cast<std::size_t>(it - bounds.begin())];
  ++count;
  sum += value;
}

Registry::Histogram& Registry::sim_histogram(std::string_view name) {
  auto it = sim_histograms_.find(name);
  if (it == sim_histograms_.end()) {
    Histogram h;
    h.bounds = decade_bounds();
    h.counts.assign(h.bounds.size() + 1, 0);
    it = sim_histograms_.emplace(std::string(name), std::move(h)).first;
  }
  return it->second;
}

Registry::Histogram& Registry::wall_histogram(std::string_view name) {
  auto it = wall_histograms_.find(name);
  if (it == wall_histograms_.end()) {
    Histogram h;
    h.bounds = decade_bounds();
    h.counts.assign(h.bounds.size() + 1, 0);
    it = wall_histograms_.emplace(std::string(name), std::move(h)).first;
  }
  return it->second;
}

void Registry::reset() {
  std::lock_guard lock(mutex_);
  sim_counters_.clear();
  sim_histograms_.clear();
  wall_histograms_.clear();
  spans_.clear();
  hot_retired_.fill(0);
  for (HotBlock* block : hot_blocks_)
    for (auto& slot : block->slots) slot.store(0, std::memory_order_relaxed);
}

void Registry::merge_scenario(const ScenarioMetrics& delta) {
  std::lock_guard lock(mutex_);
  for (const auto& [name, value] : delta.entries()) {
    // Per-scenario observations feed histograms; everything else is a
    // plain additive counter. Both are order-independent, but the caller
    // still merges in canonical index order so the rule never has to be
    // relitigated when a non-commutative metric appears.
    if (name == "scenario.convergence_time_us") {
      sim_histogram("sim.convergence_time_ms").observe(value / 1000);
      continue;
    }
    sim_counters_[name] += value;
    if (name == "sim.events_executed")
      sim_histogram("sim.events_per_scenario").observe(value);
    else if (name == "sim.frames_delivered")
      sim_histogram("sim.frames_per_scenario").observe(value);
  }
}

std::uint64_t Registry::sim_counter(std::string_view name) const {
  std::lock_guard lock(mutex_);
  const auto it = sim_counters_.find(name);
  return it == sim_counters_.end() ? 0 : it->second;
}

void Registry::observe_wall(std::string_view histogram, std::uint64_t value) {
  std::lock_guard lock(mutex_);
  wall_histogram(histogram).observe(value);
}

void Registry::record_span(std::string_view name, std::string label,
                           std::int64_t start_us, std::int64_t end_us) {
  const std::uint32_t tid = lane_id(next_tid_);
  const std::int64_t dur = end_us > start_us ? end_us - start_us : 0;
  std::lock_guard lock(mutex_);
  spans_.push_back(SpanEvent{std::string(name), std::move(label), tid,
                             start_us, dur});
  wall_histogram("wall." + std::string(name) + "_us")
      .observe(static_cast<std::uint64_t>(dur));
}

std::vector<SpanEvent> Registry::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::size_t Registry::span_count() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

std::uint64_t Registry::hot_counter(Hot which) const {
  const auto i = static_cast<std::size_t>(which);
  std::lock_guard lock(mutex_);
  std::uint64_t total = hot_retired_[i];
  for (const HotBlock* block : hot_blocks_)
    total += block->slots[i].load(std::memory_order_relaxed);
  return total;
}

void Registry::attach_hot_block(HotBlock* block) {
  std::lock_guard lock(mutex_);
  hot_blocks_.push_back(block);
}

void Registry::detach_hot_block(HotBlock* block) {
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < kHotCount; ++i)
    hot_retired_[i] += block->slots[i].load(std::memory_order_relaxed);
  hot_blocks_.erase(
      std::remove(hot_blocks_.begin(), hot_blocks_.end(), block),
      hot_blocks_.end());
}

namespace {

void append_counters(
    std::string& out,
    const std::map<std::string, std::uint64_t, std::less<>>& counters) {
  out += "\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(name);
    out += "\":";
    out += std::to_string(value);
  }
  out += '}';
}

}  // namespace

void Registry::append_section(std::string& out, const char* domain,
                              bool wall_clock) const {
  // Caller holds no lock; this takes it per section.
  std::lock_guard lock(mutex_);
  out += '"';
  out += domain;
  out += "\":{";
  if (!wall_clock) {
    append_counters(out, sim_counters_);
  } else {
    std::map<std::string, std::uint64_t, std::less<>> process;
    const auto sum_slot = [&](std::size_t i) {
      std::uint64_t total = hot_retired_[i];
      for (const HotBlock* b : hot_blocks_)
        total += b->slots[i].load(std::memory_order_relaxed);
      return total;
    };
    process["process.events_executed"] =
        sum_slot(static_cast<std::size_t>(Hot::kEventsExecuted));
    process["process.timers_scheduled"] =
        sum_slot(static_cast<std::size_t>(Hot::kTimersScheduled));
    process["process.frames_delivered"] =
        sum_slot(static_cast<std::size_t>(Hot::kFramesDelivered));
    process["process.frames_dropped"] =
        sum_slot(static_cast<std::size_t>(Hot::kFramesDropped));
    append_counters(out, process);
  }
  out += ",\"histograms\":{";
  const auto& histograms = wall_clock ? wall_histograms_ : sim_histograms_;
  bool first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(name);
    out += "\":{\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(h.bounds[i]);
    }
    out += "],\"counts\":[";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(h.counts[i]);
    }
    out += "],\"count\":";
    out += std::to_string(h.count);
    out += ",\"sum\":";
    out += std::to_string(h.sum);
    out += '}';
  }
  out += "}";
  if (wall_clock) {
    out += ",\"spans\":";
    out += std::to_string(spans_.size());
  }
  out += '}';
}

std::string Registry::sim_json() const {
  std::string out;
  append_section(out, "sim", /*wall_clock=*/false);
  return out;
}

std::string Registry::metrics_json() const {
  // Line-structured on purpose: "sim" occupies exactly one line so
  // byte-comparisons across --jobs / cache temperature can strip the
  // wall-clock line with grep (see tests/determinism_matrix.sh).
  std::string out = "{\n\"version\":1,\n";
  append_section(out, "sim", /*wall_clock=*/false);
  out += ",\n";
  append_section(out, "wall", /*wall_clock=*/true);
  out += "\n}\n";
  return out;
}

std::string Registry::headline_json() const {
  const std::uint64_t fsm = sim_counter("ospf.fsm_transitions") +
                            sim_counter("bgp.fsm_transitions");
  std::string out = "{\"sim_events\":";
  out += std::to_string(sim_counter("sim.events_executed"));
  out += ",\"sim_frames_delivered\":";
  out += std::to_string(sim_counter("sim.frames_delivered"));
  out += ",\"fsm_transitions\":";
  out += std::to_string(fsm);
  out += ",\"spans\":";
  out += std::to_string(span_count());
  out += '}';
  return out;
}

void Registry::write_trace_json(std::ostream& os) const {
  std::vector<SpanEvent> events = spans();
  std::sort(events.begin(), events.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.dur_us > b.dur_us;  // parents before children
            });
  std::uint32_t max_tid = 0;
  for (const auto& e : events) max_tid = std::max(max_tid, e.tid);

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"nidt\"}}";
  if (!events.empty()) {
    for (std::uint32_t tid = 0; tid <= max_tid; ++tid) {
      os << ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
         << ",\"name\":\"thread_name\",\"args\":{\"name\":\"worker-" << tid
         << "\"}}";
    }
  }
  for (const auto& e : events) {
    os << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid
       << ",\"ts\":" << e.ts_us << ",\"dur\":" << e.dur_us
       << ",\"cat\":\"phase\",\"name\":\"" << json_escape(e.name) << "\"";
    if (!e.label.empty())
      os << ",\"args\":{\"label\":\"" << json_escape(e.label) << "\"}";
    os << "}";
  }
  os << "\n]}\n";
}

}  // namespace nidkit::obs
