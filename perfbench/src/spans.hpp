#pragma once
// In-memory spans recorded by the benchmark around its calls into each
// layer. A span has a name, start and end (steady clock), its parent span
// and the id of the request it belongs to. Spans stay in memory and are
// written out once, in the Chrome trace-event shape the library's own
// Tracer emits, when the run ends.
//
// A disabled recorder reads no clock and stores nothing, so the same replay
// code timed with spans on and off measures the recorder's overhead.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;  // index into the recorder's spans; -1 for a root
  std::uint64_t request = 0;
};

[[nodiscard]] inline std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// RAII span: opened at construction, closed at destruction, parented to
  /// the innermost open span of the same recorder.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name) : recorder_(recorder) {
      if (recorder_.enabled_) index_ = recorder_.open(name);
    }
    ~Scope() {
      if (index_ >= 0) recorder_.close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    int index_ = -1;
  };

  void set_request(std::uint64_t request) noexcept { request_ = request; }

  /// Adds a finished span directly (the self-test builds span trees this
  /// way). Returns its index.
  int add(std::string name, std::uint64_t start_ns, std::uint64_t end_ns, int parent,
          std::uint64_t request) {
    spans_.push_back(SpanRecord{std::move(name), start_ns, end_ns, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

 private:
  int open(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    const int index = add(name, steady_ns(), 0, parent, request_);
    stack_.push_back(index);
    return index;
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = steady_ns();
    stack_.pop_back();
  }

  bool enabled_;
  std::uint64_t request_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
[[nodiscard]] inline std::vector<std::uint64_t> self_times_ns(
    const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::uint64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t begin = spans[i].start_ns;
    const std::uint64_t end = std::max(spans[i].end_ns, begin);
    std::vector<std::pair<std::uint64_t, std::uint64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t cursor = begin;
    for (const auto& [kid_start, kid_end] : kids) {
      const std::uint64_t lo = std::max(kid_start, cursor);
      const std::uint64_t hi = std::min(kid_end, end);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = (end - begin) - covered;
  }
  return self;
}

/// Self seconds summed per span name.
[[nodiscard]] inline std::map<std::string, double> self_seconds_by_name(
    const std::vector<SpanRecord>& spans) {
  const std::vector<std::uint64_t> self = self_times_ns(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

/// Writes the spans as a Chrome trace-event file ({"traceEvents": [...]}
/// with complete "X" events, one track per request), the shape of
/// telemetry::Tracer::chrome_trace_json, loadable in chrome://tracing or
/// Perfetto. Returns false when the file cannot be written.
inline bool write_chrome_trace(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  const std::uint64_t epoch = spans.empty() ? 0 : spans.front().start_ns;
  out.precision(17);
  out << "{\"traceEvents\": [";
  bool first = true;
  std::uint64_t last_request = ~std::uint64_t{0};
  for (const SpanRecord& s : spans) {
    if (s.request != last_request) {
      out << (first ? "\n" : ",\n") << "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
          << "\"tid\": " << s.request << ", \"args\": {\"name\": \"request " << s.request
          << "\"}}";
      first = false;
      last_request = s.request;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const std::uint64_t dur_ns = std::max(s.end_ns, s.start_ns) - s.start_ns;
    out << (first ? "\n" : ",\n") << "  {\"name\": \"" << s.name << "\", \"ph\": \"X\", "
        << "\"ts\": " << static_cast<double>(s.start_ns - epoch) / 1000.0
        << ", \"dur\": " << static_cast<double>(dur_ns) / 1000.0
        << ", \"pid\": 0, \"tid\": " << s.request << ", \"args\": {\"span\": " << i
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request << "}}";
    first = false;
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out.good();
}

}  // namespace perfbench
