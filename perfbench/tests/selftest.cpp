// Self-test of the benchmark's own helpers: tail-percentile selection,
// windowed tails and rates, span self time, metric-name rules, and seeded
// input generation.
//
//   cmake --build .bench_build/perfbench --target perfbench_selftest
//   .bench_build/perfbench/perfbench_selftest

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "circuit/qasm.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void expect(bool condition, const std::string& what) {
  if (!condition) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));  // unsorted
  return v;
}

void test_tail_selection() {
  using perfbench::choose_tail;
  // 10000 samples: p99.9 has exactly 10 beyond it.
  perfbench::TailChoice t = choose_tail(ramp(10000));
  expect(t.label == "p99.9" && t.beyond == 10 && t.value == 9990.0, "p99.9 at n=10000");
  // 9999 samples: p99.9 has only 9 beyond, so p99 is reported.
  t = choose_tail(ramp(9999));
  expect(t.label == "p99" && t.beyond >= 10, "p99 at n=9999");
  // 1000 samples: p99 has exactly 10 beyond.
  t = choose_tail(ramp(1000));
  expect(t.label == "p99" && t.beyond == 10 && t.value == 990.0, "p99 at n=1000");
  // 999 samples: p99 has 9 beyond, p90 has 99.
  t = choose_tail(ramp(999));
  expect(t.label == "p90" && t.beyond == 99 && t.value == 900.0, "p90 at n=999");
  // 100 samples: p90 has exactly 10 beyond.
  t = choose_tail(ramp(100));
  expect(t.label == "p90" && t.beyond == 10 && t.value == 90.0, "p90 at n=100");
  // 99 samples: no tail level qualifies; the median is reported.
  t = choose_tail(ramp(99));
  expect(t.label == "p50" && t.samples == 99, "median fallback at n=99");
  t = choose_tail({});
  expect(t.samples == 0 && t.value == 0.0, "empty sample");
  expect(perfbench::median({3.0, 1.0, 2.0, 10.0}) == 2.5, "even median");
}

void test_windowed_tail() {
  using perfbench::windowed_tail;
  // Five windows of 100: window w holds (w+1)*1 .. (w+1)*100, so its p90 is
  // (w+1)*90 and the median over windows is the third, 270. The 50 samples
  // after the last full window are dropped.
  std::vector<double> in_order;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 100; ++i) in_order.push_back(static_cast<double>((w + 1) * i));
  }
  for (int i = 0; i < 50; ++i) in_order.push_back(1e6);
  perfbench::WindowedTail t = windowed_tail(in_order, 100);
  expect(t.windows == 5 && t.per_window.label == "p90" && t.per_window.beyond == 10 &&
             t.per_window.samples == 100 && t.value == 270.0,
         "median of window p90s");
  // Five windows of one stationary latency (1..100 ms): a burst that lifts
  // one window's tail leaves the reported tail where it was.
  std::vector<double> steady;
  for (int w = 0; w < 5; ++w) {
    for (double v : ramp(100)) steady.push_back(v);
  }
  expect(windowed_tail(steady, 100).value == 90.0, "stationary window p90");
  for (std::size_t i = 200; i < 300; ++i) steady[i] = 1e6;
  expect(windowed_tail(steady, 100).value == 90.0, "one burst window does not move it");
  // Fewer samples than one window: the whole sample's tail.
  t = windowed_tail(ramp(99), 100);
  expect(t.windows == 1 && t.per_window.label == "p50" && t.value == 50.0,
         "whole-sample fallback below one window");
}

void test_windowed_rate() {
  using perfbench::windowed_rate;
  // Three windows of 10 completions: 0.1 s apart in the first and third
  // window (10/s), 1 s apart in the second (1/s); the median is 10/s. The
  // five completions after the last full window are dropped.
  std::vector<double> t;
  double now = 0.0;
  for (double gap : {0.1, 1.0, 0.1}) {
    for (int i = 0; i < 10; ++i) t.push_back(now += gap);
  }
  for (int i = 0; i < 5; ++i) t.push_back(now += 100.0);
  expect(std::abs(windowed_rate(t, 10) - 10.0) < 1e-9, "median of window rates");
  // Fewer completions than one window: the whole phase's rate.
  expect(std::abs(windowed_rate({0.5, 1.0, 2.0}, 10) - 1.5) < 1e-12,
         "whole-phase rate below one window");
  expect(windowed_rate({}, 10) == 0.0, "no completions");
}

void test_self_time() {
  perfbench::SpanRecorder rec(false);
  // root [0, 100) with children [10, 30) and [40, 90); the second child has
  // a grandchild [50, 60). A child overlapping the first ([20, 35)) counts
  // its overlap once.
  const int root = rec.add("root", 0, 100, -1, 7);
  const int a = rec.add("a", 10, 30, root, 7);
  const int b = rec.add("b", 40, 90, root, 7);
  rec.add("c", 50, 60, b, 7);
  rec.add("d", 20, 35, root, 7);
  (void)a;
  const std::vector<std::uint64_t> self = perfbench::self_times_ns(rec.spans());
  expect(self[0] == 100 - 25 - 50, "root self time excludes covered child time once");
  expect(self[1] == 20, "leaf self time is its duration");
  expect(self[2] == 40, "child self time excludes its grandchild");
  expect(self[3] == 10, "grandchild self time");
  std::uint64_t total = 0;
  for (std::uint64_t s : self) total += s;
  // Overlapping siblings a and d double-count [20, 30): self times sum to
  // the root's duration plus that overlap.
  expect(total == 110, "self times partition the root plus sibling overlap");
  const auto by_name = perfbench::self_seconds_by_name(rec.spans());
  expect(by_name.at("b") == 40e-9, "self seconds by name");

  // A disabled recorder's scopes record nothing; an enabled one nests them.
  perfbench::SpanRecorder off(false);
  { perfbench::SpanRecorder::Scope s(off, "x"); }
  expect(off.spans().empty(), "disabled recorder stores nothing");
  perfbench::SpanRecorder on(true);
  on.set_request(3);
  {
    perfbench::SpanRecorder::Scope outer(on, "outer");
    perfbench::SpanRecorder::Scope inner(on, "inner");
  }
  expect(on.spans().size() == 2 && on.spans()[1].parent == 0 && on.spans()[0].parent == -1 &&
             on.spans()[1].request == 3,
         "scopes record parent and request");
}

void test_metric_names() {
  using perfbench::valid_metric_name;
  expect(valid_metric_name("latency_p50_ms"), "plain name");
  expect(valid_metric_name("service.cache.hit_ratio"), "dotted name");
  expect(valid_metric_name("a-b_c.9"), "dash, underscore, dot, digit");
  expect(valid_metric_name("9lives"), "leading digit");
  expect(!valid_metric_name(""), "empty name");
  expect(!valid_metric_name(".hidden"), "leading dot");
  expect(!valid_metric_name("_x"), "leading underscore");
  expect(!valid_metric_name("has space"), "space");
  expect(!valid_metric_name("ns/shot"), "slash");
  expect(!valid_metric_name("tvd—mean"), "non-ASCII");
  expect(valid_metric_name(std::string(64, 'a')), "64 characters");
  expect(!valid_metric_name(std::string(65, 'a')), "65 characters");
}

std::string describe(const perfbench::BenchRequest& r) {
  const qcut::cutting::CutRunOptions& o = r.request.options;
  return qcut::circuit::to_qasm(r.request.circuit) + "|" + std::to_string(r.origin) + "|" +
         std::to_string(r.arm) + "|" + std::to_string(o.seed_stream_base) + "|" +
         std::to_string(o.shots_per_variant) + "|" +
         std::to_string(static_cast<int>(o.golden_mode));
}

void test_seeded_inputs() {
  using perfbench::Phase;
  using perfbench::RequestStream;
  using perfbench::Workload;
  for (Workload w : {Workload::Ansatz5Run, Workload::Qaoa12Stream, Workload::Chain3Online}) {
    const std::string name = perfbench::workload_name(w);
    for (Phase phase : {Phase::Main, Phase::Golden}) {
      RequestStream a(w, 42, phase), b(w, 42, phase), c(w, 43, phase);
      bool same = true, differs = false;
      // Stream b is read back to front: a request depends on its index,
      // never on the order of reads.
      std::vector<std::string> from_b(40);
      for (int i = 39; i >= 0; --i) from_b[static_cast<std::size_t>(i)] = describe(b.at(i));
      for (std::uint64_t i = 0; i < 40; ++i) {
        const std::string da = describe(a.at(i));
        same = same && da == from_b[i];
        differs = differs || da != describe(c.at(i));
      }
      expect(same, name + ": the same seed gives the same requests");
      expect(differs, name + ": another seed gives other requests");
    }
  }
  // qaoa12-stream revisits repeat an earlier request exactly.
  RequestStream q(Workload::Qaoa12Stream, 5, Phase::Main);
  int revisits = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const perfbench::BenchRequest r = q.at(i);
    if (r.origin != i) {
      ++revisits;
      const perfbench::BenchRequest origin = q.at(r.origin);
      expect(r.origin < i && describe(origin).substr(0, describe(origin).rfind('|')) ==
                                 describe(r).substr(0, describe(r).rfind('|')),
             "revisit repeats its origin");
    }
  }
  expect(revisits > 20 && revisits < 80, "about one request in four revisits");
}

}  // namespace

int main() {
  test_tail_selection();
  test_windowed_tail();
  test_windowed_rate();
  test_self_time();
  test_metric_names();
  test_seeded_inputs();
  if (g_failures > 0) {
    std::printf("%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench self-test passed\n");
  return 0;
}
