#include "obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

namespace nidkit::obs {

namespace {

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

/// `"<domain>":{"counters":{...},"histograms":{...}` — the caller closes
/// the object (the wall section appends its span count first).
void append_section(std::string& out, const char* domain,
                    const Counters& counters, const Histograms& histograms) {
  out += '"';
  out += domain;
  out += "\":{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":" + std::to_string(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":{\"bounds\":[";
    for (std::size_t i = 0; i < h.kBounds.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(h.kBounds[i]);
    }
    out += "],\"counts\":[";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(h.counts[i]);
    }
    out += "],\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + std::to_string(h.sum) + '}';
  }
  out += '}';
}

}  // namespace

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

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

void Histogram::observe(std::uint64_t value) {
  const auto it = std::lower_bound(kBounds.begin(), kBounds.end(), value);
  ++counts[static_cast<std::size_t>(it - kBounds.begin())];
  ++count;
  sum += value;
}

// ---- RunRecord ----

void RunRecord::merge_scenario(const ScenarioMetrics& delta,
                               const cov::CoverageVector& coverage) {
  for (const auto& [name, value] : delta.entries()) {
    // Per-scenario observations feed histograms; everything else is a
    // plain additive counter. Both are order-independent, but the caller
    // still merges in canonical index order so the rule never has to be
    // relitigated when a non-commutative metric appears.
    if (name == "scenario.convergence_time_us") {
      histograms_["sim.convergence_time_ms"].observe(value / 1000);
      continue;
    }
    counters_[name] += value;
    if (name == "sim.events_executed")
      histograms_["sim.events_per_scenario"].observe(value);
    else if (name == "sim.frames_delivered")
      histograms_["sim.frames_per_scenario"].observe(value);
  }
  std::uint64_t novel = 0;
  for (const cov::FeatureId id : coverage.ids()) {
    const auto it = std::lower_bound(seen_.begin(), seen_.end(), id);
    if (it == seen_.end() || *it != id) {
      seen_.insert(it, id);
      ++novel;
    }
  }
  novelty_.push_back(novel);
  curve_.push_back(seen_.size());
}

void RunRecord::add(std::string_view name, std::uint64_t value) {
  counters_[std::string(name)] += value;
}

std::uint64_t RunRecord::counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::uint64_t RunRecord::class_seen(cov::FeatureClass cls) const {
  return static_cast<std::uint64_t>(
      std::count_if(seen_.begin(), seen_.end(), [cls](cov::FeatureId id) {
        return cov::feature_class(id) == cls;
      }));
}

std::string RunRecord::sim_json() const {
  std::string out;
  append_section(out, "sim", counters_, histograms_);
  out += '}';
  return out;
}

std::string RunRecord::cov_json() const {
  std::ostringstream os;
  os << "\"cov\":{\"scenarios\":" << scenarios()
     << ",\"features_seen\":" << seen_.size()
     << ",\"universe\":" << cov::universe_size() << ",\"classes\":{";
  for (std::size_t i = 0; i < std::size(cov::kClasses); ++i) {
    const auto& row = cov::kClasses[i];
    if (i) os << ',';
    os << '"' << row.name << "\":{\"seen\":" << class_seen(row.cls)
       << ",\"universe\":" << cov::universe_size(row.cls) << '}';
  }
  const auto list = [&os](const auto& values) {
    for (std::size_t i = 0; i < values.size(); ++i)
      os << (i ? "," : "") << values[i];
  };
  os << "},\"novelty\":[";
  list(novelty_);
  os << "],\"curve\":[";
  list(curve_);
  os << "],\"features\":[";
  // seen_ is sorted by id; feature names are emitted in that stable order.
  for (std::size_t i = 0; i < seen_.size(); ++i)
    os << (i ? "," : "") << '"' << cov::feature_name(seen_[i]) << '"';
  os << "]}";
  return os.str();
}

// ---- Registry ----

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::reset() {
  std::lock_guard lock(mutex_);
  histograms_.clear();
  spans_.clear();
  hot_.fill(0);
}

void Registry::record_span(std::string_view name, std::string label,
                           std::int64_t start_us, std::int64_t end_us) {
  const std::uint32_t tid = lane_id(next_tid_);
  const std::int64_t dur = end_us > start_us ? end_us - start_us : 0;
  std::lock_guard lock(mutex_);
  spans_.push_back(SpanEvent{std::string(name), std::move(label), tid,
                             start_us, dur});
  histograms_["wall." + std::string(name) + "_us"].observe(
      static_cast<std::uint64_t>(dur));
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
  std::lock_guard lock(mutex_);
  return hot_[static_cast<std::size_t>(which)];
}

void Registry::add_process_counts(const HotCounts& counts) {
  if (!enabled()) return;
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < kHotCount; ++i) hot_[i] += counts[i];
}

std::string Registry::wall_json() const {
  std::lock_guard lock(mutex_);
  const auto slot = [this](Hot h) {
    return hot_[static_cast<std::size_t>(h)];
  };
  const Counters process = {
      {"process.events_executed", slot(Hot::kEventsExecuted)},
      {"process.timers_scheduled", slot(Hot::kTimersScheduled)},
      {"process.frames_delivered", slot(Hot::kFramesDelivered)},
      {"process.frames_dropped", slot(Hot::kFramesDropped)}};
  std::string out;
  append_section(out, "wall", process, histograms_);
  out += ",\"spans\":" + std::to_string(spans_.size()) + '}';
  return out;
}

std::string metrics_json(const RunRecord& record) {
  return "{\n\"version\":1,\n" + record.sim_json() + ",\n" +
         record.cov_json() + ",\n" + Registry::instance().wall_json() +
         "\n}\n";
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
