// Span store for the benchmark's traced runs.
//
// A traced run is the timed command itself with the library's own span
// recording (nidkit::obs) switched on: `record` runs a piece of work with
// the registry enabled and moves the spans the library recorded here,
// under one root span that covers the whole piece. The benchmark adds
// obs spans of its own only for what the library does not record (cache
// key hashing, compaction). Everything runs at --jobs 1 on one thread, so
// spans nest strictly: parents are derived by containment, and a span's
// self time is its duration minus its children's. Every span carries the
// id of the traced run it belongs to; the whole set is written once, at
// exit, as Chrome trace-event JSON (the format `nidt --trace-out` writes;
// open it in ui.perfetto.dev).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_us = 0;
    std::int64_t end_us = 0;
    std::int32_t parent = -1;  ///< index into spans(), -1 for a root
    std::uint32_t run = 0;
  };

  /// Self time, total time and count of the spans of one name.
  struct Layer {
    double self_ms = 0;
    double total_ms = 0;
    std::uint64_t calls = 0;
  };

  /// Starts a new traced run; later spans carry its id. Returns the index
  /// its first span will get.
  std::size_t next_run() {
    ++run_;
    return spans_.size();
  }

  /// Runs `body` with the library's span recording on and adds a root
  /// span `root` around it, with the spans recorded inside as its
  /// descendants.
  template <typename Body>
  void record(const char* root, Body&& body) {
    auto& registry = nidkit::obs::Registry::instance();
    registry.reset();
    nidkit::obs::set_enabled(true);
    const std::int64_t start = nidkit::obs::now_us();
    body();
    const std::int64_t end = nidkit::obs::now_us();
    nidkit::obs::set_enabled(false);
    add(root, start, end, registry.spans());
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Every span name among spans()[first..] with its summed self time,
  /// total time and count. Pass next_run()'s result to get one run's split.
  std::map<std::string, Layer> layers(std::size_t first) const {
    std::map<std::string, Layer> out;
    std::vector<std::int64_t> child_us(spans_.size() - first, 0);
    for (std::size_t i = first; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.parent >= static_cast<std::int32_t>(first))
        child_us[s.parent - first] += s.end_us - s.start_us;
    }
    for (std::size_t i = first; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Layer& l = out[s.name];
      l.self_ms += (s.end_us - s.start_us - child_us[i - first]) / 1e3;
      l.total_ms += (s.end_us - s.start_us) / 1e3;
      ++l.calls;
    }
    return out;
  }

  void write_chrome_json(std::ostream& os) const {
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
          "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\","
          "\"args\":{\"name\":\"perfbench\"}}";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
         << ",\"dur\":" << s.end_us - s.start_us
         << ",\"cat\":\"layer\",\"name\":\"" << s.name
         << "\",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
         << ",\"run\":" << s.run << "}}";
    }
    os << "\n]}\n";
  }

 private:
  void add(const char* root, std::int64_t start_us, std::int64_t end_us,
           std::vector<nidkit::obs::SpanEvent> events) {
    // Parents before children: by start, then longest first.
    std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
      if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
      return a.dur_us > b.dur_us;
    });
    std::vector<std::int32_t> open = {push(root, start_us, end_us, -1)};
    for (const auto& e : events) {
      while (open.size() > 1 && e.ts_us >= spans_[open.back()].end_us)
        open.pop_back();
      open.push_back(push(e.name, e.ts_us, e.ts_us + e.dur_us, open.back()));
    }
  }

  std::int32_t push(std::string name, std::int64_t start_us,
                    std::int64_t end_us, std::int32_t parent) {
    spans_.push_back(Span{std::move(name), start_us, end_us, parent, run_});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  std::vector<Span> spans_;
  std::uint32_t run_ = 0;
};

}  // namespace perfbench
