// perfbench: the end-to-end benchmark of the cut-execution stack.
//
//   perfbench --workload <ansatz5-run|qaoa12-stream|chain3-online>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//             [--epoch <k> | --setup-probe <k>]
//
// --trace 0 serves the workload's seeded request stream through the
// library's public entry points (qcut::run() or a long-lived
// service::CutService) for --seconds, with the library's telemetry off, and
// reports the end-to-end metrics. --trace 1 serves the same stream, then
// replays its requests layer by layer (replay.hpp) and reports the per-layer
// metrics. Every response is checked for correctness; the last line of
// stdout is one JSON object {"correct", "attempted", "failed", "metrics"},
// and the exit code is nonzero when any check failed. See README.md.
//
// An untraced run times its set-ups in fresh copies of this binary started
// with --setup-probe (run_setup_probe). On ansatz5-run it also serves its
// main phase as epochs of a fixed request count, each in a fresh copy
// started with --epoch (run_epoch). Such a copy writes what it measured to
// the work directory, and the first process reads it back.

#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backend/statevector_backend.hpp"
#include "cutting/pipeline.hpp"
#include "metrics/distance.hpp"
#include "replay.hpp"
#include "service/cut_service.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "telemetry/metrics.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace qcut;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- Arguments -----------------------------------------------------------

struct Args {
  Workload workload = Workload::Ansatz5Run;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir = ".";  // traces, the response spool, fresh processes' results
  std::optional<std::uint64_t> epoch;        // serve this one epoch only (run_epoch)
  std::optional<std::uint64_t> setup_probe;  // time set-ups only (run_setup_probe)
  std::vector<int> cpus;  // the CPUs of the run, as the first process found them
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      const std::optional<Workload> w = parse_workload(value);
      if (!w) return std::nullopt;
      args.workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return std::nullopt;
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0)) return std::nullopt;
      have_seconds = true;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
      have_trace = true;
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else if (key == "--cpus") {
      for (const char* p = value.c_str(); *p != '\0'; p = *end == ',' ? end + 1 : end) {
        const long cpu = std::strtol(p, &end, 10);
        if (end == p || cpu < 0 || cpu >= CPU_SETSIZE || (*end != ',' && *end != '\0')) {
          return std::nullopt;
        }
        args.cpus.push_back(static_cast<int>(cpu));
      }
      if (args.cpus.empty()) return std::nullopt;
    } else if (key == "--epoch" || key == "--setup-probe") {
      (key == "--epoch" ? args.epoch : args.setup_probe) = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return std::nullopt;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds || !have_trace) {
    return std::nullopt;
  }
  return args;
}

// ---- CPU placement -----------------------------------------------------------

/// Requests per window. Latency tails and throughput are taken per window of
/// this many consecutive completions (the tail is then p90, with 10 samples
/// beyond), and the median over windows is reported. A one_cpu workload
/// moves to the next CPU at the start of each window.
constexpr std::size_t kWindow = 100;

/// The CPUs of the run: the first process's affinity when it starts, handed
/// on to fresh processes with --cpus.
std::vector<int> g_cpus;

std::vector<int> affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("cannot read the CPU affinity");
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  if (cpus.empty()) throw std::runtime_error("no CPU to run on");
  return cpus;
}

/// Moves every thread of this process onto the CPU of window `window`:
/// consecutive windows take the run's CPUs in turn. Threads started later
/// inherit the CPU of the thread that starts them.
void move_to_window_cpu(std::uint64_t window) {
  const int cpu = g_cpus[window % g_cpus.size()];
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    const pid_t tid = static_cast<pid_t>(std::stol(entry.path().filename().string()));
    // ESRCH: the thread ended meanwhile.
    if (sched_setaffinity(tid, sizeof one, &one) != 0 && errno != ESRCH) {
      throw std::runtime_error("cannot move thread " + std::to_string(tid) + " to CPU " +
                               std::to_string(cpu));
    }
  }
}

// ---- Serving ---------------------------------------------------------------

/// One served request as its client saw it.
struct Record {
  std::uint64_t index = 0;
  int arm = 0;
  double latency_s = 0.0;
  double submit_s = 0.0;          // service only: the submit() call alone
  double completed_s = 0.0;       // completion time since the phase started
  bool ok = false;                // false: the call threw
  std::string error;
  bool normalised = false;        // the reconstruction sums to one
  double tvd = -1.0;              // to the exact distribution; < 0 until checked
  std::int64_t spooled_at = -1;   // offset of the spooled distribution, if any
  std::vector<double> raw;        // kept for the replay check (trace mode)
};

/// Reconstructed distributions written to a file while the clock runs and
/// read back for the TVD check after it: the reference simulation stays out
/// of the clients' time and the responses out of the process's memory, so
/// throughput and peak RSS are the library's.
class ResponseSpool {
 public:
  explicit ResponseSpool(std::string path)
      : path_(std::move(path)), file_(std::fopen(path_.c_str(), "w+b")) {
    if (file_ == nullptr) throw std::runtime_error("cannot open " + path_);
  }
  ~ResponseSpool() {
    std::fclose(file_);
    std::remove(path_.c_str());
  }
  ResponseSpool(const ResponseSpool&) = delete;
  ResponseSpool& operator=(const ResponseSpool&) = delete;

  std::int64_t write(const std::vector<double>& values) {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::int64_t offset = end_;
    if (std::fseek(file_, offset, SEEK_SET) != 0 ||
        std::fwrite(values.data(), sizeof(double), values.size(), file_) != values.size()) {
      throw std::runtime_error("cannot write " + path_);
    }
    end_ += static_cast<std::int64_t>(values.size() * sizeof(double));
    return offset;
  }

  std::vector<double> read(std::int64_t offset, std::size_t size) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> values(size);
    if (std::fseek(file_, offset, SEEK_SET) != 0 ||
        std::fread(values.data(), sizeof(double), size, file_) != size) {
      throw std::runtime_error("cannot read " + path_);
    }
    return values;
  }

 private:
  std::string path_;
  std::FILE* file_;
  std::mutex mutex_;  // guards file_ and end_
  std::int64_t end_ = 0;
};

/// The workload's entry point: qcut::run() per request, or one long-lived
/// CutService.
class Server {
 public:
  explicit Server(const WorkloadSpec& spec) : spec_(spec), backend_(spec.backend_seed) {
    if (!spec.one_call) {
      service::CutServiceOptions options;
      options.cache_capacity = spec.cache_capacity;
      service_ = std::make_unique<service::CutService>(backend_, options);
    }
  }

  /// Serves one request. The cheap normalisation check runs right away;
  /// the TVD check runs now when `spool` is null, else after the timed
  /// phase (check_records).
  Record serve(BenchRequest request, bool keep_raw, ResponseSpool* spool) {
    Record r;
    r.index = request.index;
    r.arm = request.arm;
    const circuit::Circuit circuit = request.request.circuit;
    cutting::CutResponse response;
    const Clock::time_point start = Clock::now();
    try {
      if (service_ == nullptr) {
        response = qcut::run(request.request, backend_);
      } else {
        std::future<cutting::CutResponse> future = service_->submit(std::move(request.request));
        r.submit_s = seconds_since(start);
        response = future.get();
      }
      r.latency_s = seconds_since(start);
      r.ok = true;
    } catch (const std::exception& e) {
      r.latency_s = seconds_since(start);
      r.error = e.what();
      return r;
    }

    const std::vector<double> probabilities = response.probabilities();
    double raw_sum = 0.0, sum = 0.0;
    bool nonnegative = true;
    for (double p : response.reconstruction.raw_probabilities) raw_sum += p;
    for (double p : probabilities) {
      sum += p;
      nonnegative = nonnegative && p >= 0.0 && std::isfinite(p);
    }
    r.normalised = nonnegative && std::abs(sum - 1.0) <= 1e-9 && std::abs(raw_sum - 1.0) <= 1e-6;
    if (spool != nullptr) {
      r.spooled_at = spool->write(probabilities);
    } else {
      r.tvd = metrics::total_variation_distance(probabilities, exact_distribution(circuit));
    }
    if (keep_raw) r.raw = std::move(response.reconstruction.raw_probabilities);
    return r;
  }

  [[nodiscard]] backend::StatevectorBackend& backend() noexcept { return backend_; }

 private:
  WorkloadSpec spec_;
  backend::StatevectorBackend backend_;
  std::unique_ptr<service::CutService> service_;
};

struct PhaseResult {
  std::vector<Record> records;  // sorted by request index
  double wall_s = 0.0;          // start to the last completion
};

/// Closed loop: each client sends its next request when the previous one
/// returns, until `seconds` have passed or `max_requests` were sent,
/// starting at request `first_index` of the stream; requests in flight at
/// the deadline complete and count. A non-finite `seconds` sets no deadline.
/// With `first_window` (one client only), the process moves to the CPU of
/// window first_window + j / kWindow before the j-th request it sends.
PhaseResult run_closed_loop(Server& server, RequestStream& stream, int clients, double seconds,
                            std::size_t keep_raw_below, ResponseSpool& spool,
                            std::optional<std::uint64_t> first_window,
                            std::uint64_t first_index = 0,
                            std::uint64_t max_requests = std::numeric_limits<std::uint64_t>::max()) {
  if (first_window && clients != 1) throw std::runtime_error("CPU windows need one client");
  PhaseResult out;
  std::mutex mutex;
  std::atomic<std::uint64_t> next{first_index};
  const std::uint64_t end_index =
      max_requests > std::numeric_limits<std::uint64_t>::max() - first_index
          ? std::numeric_limits<std::uint64_t>::max()
          : first_index + max_requests;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      std::isfinite(seconds) ? start + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(seconds))
                             : Clock::time_point::max();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      while (Clock::now() < deadline) {
        const std::uint64_t index = next.fetch_add(1);
        if (index >= end_index) break;
        if (first_window && (index - first_index) % kWindow == 0) {
          move_to_window_cpu(*first_window + (index - first_index) / kWindow);
        }
        Record r;
        try {
          r = server.serve(stream.at(index), index < keep_raw_below, &spool);
        } catch (const std::exception& e) {
          r.index = index;
          r.error = e.what();
        }
        r.completed_s = seconds_since(start);
        std::lock_guard<std::mutex> lock(mutex);
        out.records.push_back(std::move(r));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Record& r : out.records) out.wall_s = std::max(out.wall_s, r.completed_s);
  std::sort(out.records.begin(), out.records.end(),
            [](const Record& a, const Record& b) { return a.index < b.index; });
  return out;
}

/// Set-up: generate the first inputs, build the backend and the service,
/// and serve one warm-up request.
struct Setup {
  std::unique_ptr<RequestStream> main;
  std::unique_ptr<RequestStream> golden;
  std::unique_ptr<Server> server;
};

Setup make_setup(const WorkloadSpec& spec, std::uint64_t seed, std::uint64_t warmup_index) {
  Setup s;
  s.main = std::make_unique<RequestStream>(spec.kind, seed, Phase::Main);
  s.golden = std::make_unique<RequestStream>(spec.kind, seed, Phase::Golden);
  for (std::uint64_t i = 0; i < spec.tvd_requests; ++i) (void)s.main->at(i);
  s.server = std::make_unique<Server>(spec);
  RequestStream warmup(spec.kind, seed, Phase::Warmup);
  const Record r = s.server->serve(warmup.at(warmup_index), false, nullptr);
  if (!r.ok) throw std::runtime_error("warm-up request failed: " + r.error);
  return s;
}

// ---- Correctness -------------------------------------------------------------

struct CheckResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the log

  void fail(std::string why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(std::move(why));
  }
};

/// Checks (a) the call did not throw, (b) the reconstruction is normalised,
/// and (c) its TVD to the exact distribution is within kTvdBound.
/// Spooled distributions are read back and their TVD filled in; requests
/// sharing an origin share one reference simulation.
void check_records(std::vector<Record>& records, RequestStream& stream, ResponseSpool* spool,
                   const char* phase, CheckResult& out) {
  std::vector<std::pair<std::uint64_t, Record*>> by_origin;
  for (Record& r : records) {
    if (r.ok && r.spooled_at >= 0 && spool != nullptr) {
      by_origin.emplace_back(stream.at(r.index).origin, &r);
    }
  }
  std::sort(by_origin.begin(), by_origin.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first : a.second->index < b.second->index;
  });
  std::vector<double> exact;
  for (std::size_t i = 0; i < by_origin.size(); ++i) {
    Record& r = *by_origin[i].second;
    if (i == 0 || by_origin[i].first != by_origin[i - 1].first) {
      exact = exact_distribution(stream.at(r.index).request.circuit);
    }
    r.tvd = metrics::total_variation_distance(spool->read(r.spooled_at, exact.size()), exact);
  }

  for (const Record& r : records) {
    ++out.attempted;
    const std::string tag = std::string(phase) + " request " + std::to_string(r.index);
    if (!r.ok) {
      out.fail(tag + " threw: " + r.error);
    } else if (!r.normalised) {
      out.fail(tag + " is not normalised");
    } else if (!(r.tvd >= 0.0 && r.tvd <= kTvdBound)) {
      out.fail(tag + " TVD " + std::to_string(r.tvd) + " exceeds the bound " +
               std::to_string(kTvdBound));
    }
  }
}

// ---- Output ------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (!valid_metric_name(metrics[i].name)) {
      std::fprintf(stderr, "perfbench: invalid metric name '%s'\n", metrics[i].name.c_str());
      std::exit(3);
    }
    line += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// Process peak resident set (VmHWM) in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

std::vector<double> latencies_ms(const std::vector<Record>& records, int arm = -1) {
  std::vector<double> out;
  for (const Record& r : records) {
    if (r.ok && (arm < 0 || r.arm == arm)) out.push_back(r.latency_s * 1e3);
  }
  return out;
}

std::uint64_t registry_counter(const std::string& name) {
  return telemetry::MetricsRegistry::global().snapshot().counter_value(name);
}

/// Latencies of the successful requests in completion order.
std::vector<double> latencies_in_completion_order_ms(const std::vector<Record>& records) {
  std::vector<const Record*> order;
  for (const Record& r : records) {
    if (r.ok) order.push_back(&r);
  }
  std::stable_sort(order.begin(), order.end(), [](const Record* a, const Record* b) {
    return a->completed_s < b->completed_s;
  });
  std::vector<double> out;
  for (const Record* r : order) out.push_back(r->latency_s * 1e3);
  return out;
}

/// Median latency of each tenth of the successful requests, in completion
/// order: how latency drifts over the run.
std::vector<double> decile_p50_ms(const std::vector<Record>& records) {
  const std::vector<double> in_order = latencies_in_completion_order_ms(records);
  std::vector<double> out;
  for (std::size_t d = 0; d < 10; ++d) {
    out.push_back(median(std::vector<double>(
        in_order.begin() + static_cast<std::ptrdiff_t>(in_order.size() * d / 10),
        in_order.begin() + static_cast<std::ptrdiff_t>(in_order.size() * (d + 1) / 10))));
  }
  return out;
}

/// Standard-over-neglect latency ratio of each interleaved pair of requests
/// (indices 2k and 2k+1). Pairs are adjacent in time, so a latency that
/// drifts over the run cancels within each pair.
std::vector<double> paired_ratios(const std::vector<Record>& records) {
  std::map<std::uint64_t, std::pair<double, double>> pairs;  // pair -> (standard, neglect)
  for (const Record& r : records) {
    if (!r.ok) continue;
    std::pair<double, double>& p = pairs[r.index / 2];
    (r.arm == 0 ? p.first : p.second) = r.latency_s;
  }
  std::vector<double> out;
  for (const auto& [pair, latency] : pairs) {
    if (latency.first > 0.0 && latency.second > 0.0) out.push_back(latency.first / latency.second);
  }
  return out;
}

// ---- Fresh processes -----------------------------------------------------------

constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

/// Where a fresh process started for `what` ("epoch", "setup") number `k`
/// leaves its measurements.
std::string child_path(const Args& args, const char* what, std::uint64_t k, const char* suffix) {
  return args.work_dir + "/" + workload_name(args.workload) + "-seed" +
         std::to_string(args.seed) + "-" + what + std::to_string(k) + suffix;
}

/// An epoch's records as the first process needs them: the header line
/// "<peak RSS MB> <wall s>", then one line per request.
void write_epoch_records(const std::string& path, const PhaseResult& phase, double rss_mb) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) throw std::runtime_error("cannot open " + path);
  std::fprintf(file, "%.17g %.17g\n", rss_mb, phase.wall_s);
  for (const Record& r : phase.records) {
    std::fprintf(file, "%llu %d %.17g %.17g %d %d %.17g\n",
                 static_cast<unsigned long long>(r.index), r.arm, r.latency_s, r.completed_s,
                 r.ok ? 1 : 0, r.normalised ? 1 : 0, r.tvd);
  }
  if (std::fclose(file) != 0) throw std::runtime_error("cannot write " + path);
}

PhaseResult read_epoch_records(const std::string& path, double& rss_mb) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) throw std::runtime_error("cannot open " + path);
  PhaseResult phase;
  bool ok = std::fscanf(file, "%lf %lf", &rss_mb, &phase.wall_s) == 2;
  unsigned long long index = 0;
  int arm = 0, served = 0, normalised = 0;
  double latency_s = 0.0, completed_s = 0.0, tvd = 0.0;
  while (ok && std::fscanf(file, "%llu %d %lf %lf %d %d %lf", &index, &arm, &latency_s,
                           &completed_s, &served, &normalised, &tvd) == 7) {
    Record& r = phase.records.emplace_back();
    r.index = index;
    r.arm = arm;
    r.latency_s = latency_s;
    r.completed_s = completed_s;
    r.ok = served != 0;
    r.normalised = normalised != 0;
    r.tvd = tvd;
    if (!r.ok) r.error = "see the epoch's log on stderr";
  }
  ok = ok && std::feof(file) != 0;
  std::fclose(file);
  std::remove(path.c_str());
  if (!ok) throw std::runtime_error("malformed epoch records in " + path);
  return phase;
}

/// Runs this binary again with `--<what> k` added to the run's arguments
/// and waits for it to end. Its stdout goes to stderr, so the last line of
/// this process's stdout stays the result.
void run_child_process(const Args& args, const char* what, std::uint64_t k) {
  const std::string name = std::string(what) + " " + std::to_string(k);
  std::vector<std::string> words = {
      "perfbench", "--workload", workload_name(args.workload),
      "--seed",    std::to_string(args.seed),
      "--seconds", json_number(args.seconds),
      "--trace",   "0",
      "--work-dir", args.work_dir,
      std::string("--") + what, std::to_string(k)};
  std::string cpus;
  for (int cpu : g_cpus) cpus += (cpus.empty() ? "" : ",") + std::to_string(cpu);
  words.push_back("--cpus");
  words.push_back(cpus);
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, 2, 1);
  std::fflush(stdout);
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) throw std::runtime_error("cannot start " + name);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("lost " + name);
  }
  // Exit code 1: a correctness check of an epoch failed; its records say which.
  if (!WIFEXITED(status) || (WEXITSTATUS(status) != 0 && WEXITSTATUS(status) != 1)) {
    throw std::runtime_error(name + " ended abnormally");
  }
}

/// The main phase of a workload with epoch_requests: epochs 0, 1, ... back
/// to back, each in a fresh process, until `seconds` have passed; the epoch
/// running at the deadline completes and counts. wall_s sums the epochs'
/// timed phases, and completion times are shifted onto that sum: the epochs'
/// timed phases back to back, without the process starts between them.
PhaseResult run_epochs(const Args& args, double seconds, std::vector<double>& epoch_rss_mb,
                       std::size_t& epochs) {
  PhaseResult out;
  const Clock::time_point start = Clock::now();
  for (epochs = 0; epochs == 0 || seconds_since(start) < seconds; ++epochs) {
    const double offset = out.wall_s;
    run_child_process(args, "epoch", epochs);
    double rss = 0.0;
    PhaseResult phase = read_epoch_records(child_path(args, "epoch", epochs, ".records"), rss);
    epoch_rss_mb.push_back(rss);
    out.wall_s += phase.wall_s;
    for (Record& r : phase.records) {
      r.completed_s += offset;
      out.records.push_back(std::move(r));
    }
  }
  return out;
}

/// Set-up is timed in kSetupProbes fresh processes, kSetupsPerProbe times in
/// each, some before and some after the timed phases: how long a set-up
/// takes follows the host's load, which changes over seconds, so the probes
/// sample it at more than one time.
constexpr std::uint64_t kSetupProbes = 5;
constexpr std::uint64_t kSetupProbesBefore = 2;
constexpr int kSetupsPerProbe = 3;

/// Runs set-up probes first .. end-1 and appends their times to `times`.
void time_setups(const Args& args, std::uint64_t first, std::uint64_t end,
                 std::vector<double>& times) {
  for (std::uint64_t k = first; k < end; ++k) {
    run_child_process(args, "setup-probe", k);
    const std::string path = child_path(args, "setup", k, ".times");
    std::FILE* file = std::fopen(path.c_str(), "r");
    if (file == nullptr) throw std::runtime_error("cannot open " + path);
    double t = 0.0;
    while (std::fscanf(file, "%lf", &t) == 1) times.push_back(t);
    std::fclose(file);
    std::remove(path.c_str());
  }
  if (times.size() != end * kSetupsPerProbe) {
    throw std::runtime_error("set-up probes returned " + std::to_string(times.size()) +
                             " times");
  }
}

// ---- Runs --------------------------------------------------------------------

struct Served {
  Setup setup;
  PhaseResult main;
  PhaseResult golden;
  std::vector<Record> extra;  // first tvd_requests not reached in time, served untimed
  std::size_t epochs = 0;     // epoch processes of the main phase (0: served in-process)
  double peak_rss_mb = 0.0;   // at the end of the timed phases; with epochs, their median
  CheckResult check;
  double tvd_mean = 0.0;
};

/// Set-up and the timed main phase; in untraced runs also the golden phase.
/// A workload with epoch_requests serves its main phase as epoch processes
/// in untraced runs; a traced run is itself a fresh process and serves
/// epoch 0 in-process.
/// Then serves, untimed, any of the first tvd_requests the main phase did
/// not reach, and checks every response.
Served serve_workload(const WorkloadSpec& spec, const Args& args, bool golden_phase,
                      std::size_t keep_raw_below) {
  Served s;
  s.setup = make_setup(spec, args.seed, 0);

  ResponseSpool spool(args.work_dir + "/" + workload_name(spec.kind) + "-seed" +
                      std::to_string(args.seed) + ".spool");
  const double golden_s = spec.golden_phase_share * args.seconds;
  const std::optional<std::uint64_t> windows =
      spec.one_cpu ? std::optional<std::uint64_t>(0) : std::nullopt;
  std::vector<double> epoch_rss;
  if (spec.epoch_requests == 0) {
    s.main = run_closed_loop(*s.setup.server, *s.setup.main, spec.clients,
                             args.seconds - golden_s, keep_raw_below, spool, windows);
  } else if (golden_phase) {
    s.main = run_epochs(args, args.seconds - golden_s, epoch_rss, s.epochs);
  } else {
    s.main = run_closed_loop(*s.setup.server, *s.setup.main, spec.clients, kNoDeadline,
                             keep_raw_below, spool, windows, 0, spec.epoch_requests);
  }
  if (golden_phase && golden_s > 0.0) {
    s.golden = run_closed_loop(*s.setup.server, *s.setup.golden, spec.clients, golden_s, 0, spool,
                               windows);
  }
  s.peak_rss_mb = epoch_rss.empty() ? peak_rss_mb() : median(epoch_rss);

  // tvd_mean covers the first tvd_requests of the main stream whatever the
  // run reached, so it is a pure function of the seed.
  check_records(s.main.records, *s.setup.main, &spool, "main", s.check);
  check_records(s.golden.records, *s.setup.golden, &spool, "golden", s.check);
  std::vector<double> tvd(spec.tvd_requests, -1.0);
  for (const Record& r : s.main.records) {
    if (r.index < spec.tvd_requests && r.ok) tvd[r.index] = r.tvd;
  }
  for (std::uint64_t i = 0; i < spec.tvd_requests; ++i) {
    if (tvd[i] >= 0.0) continue;
    s.extra.push_back(s.setup.server->serve(s.setup.main->at(i), false, nullptr));
    tvd[i] = s.extra.back().tvd;
  }
  check_records(s.extra, *s.setup.main, nullptr, "main", s.check);
  std::erase_if(tvd, [](double v) { return v < 0.0; });  // failed requests, counted above
  s.tvd_mean = mean(tvd);
  return s;
}

void log_failures(const CheckResult& check) {
  for (const std::string& f : check.failures) std::printf("  FAILED: %s\n", f.c_str());
}

/// One epoch (--epoch k) of a workload with epoch_requests, in a fresh
/// process: set-up, requests k*n .. k*n+n-1 with no deadline, the checks,
/// and the records for the process that started it.
int run_epoch(const WorkloadSpec& spec, const Args& args) {
  if (spec.epoch_requests == 0) throw std::runtime_error("this workload has no epochs");
  const std::uint64_t epoch = *args.epoch;
  Setup setup = make_setup(spec, args.seed, 0);
  PhaseResult phase;
  double rss = 0.0;
  CheckResult check;
  {
    ResponseSpool spool(child_path(args, "epoch", epoch, ".spool"));
    // Epoch k continues the CPU turns where epoch k-1 left them.
    const std::optional<std::uint64_t> windows =
        spec.one_cpu ? std::optional<std::uint64_t>(epoch * spec.epoch_requests / kWindow)
                     : std::nullopt;
    phase = run_closed_loop(*setup.server, *setup.main, spec.clients, kNoDeadline, 0, spool,
                            windows, epoch * spec.epoch_requests, spec.epoch_requests);
    rss = peak_rss_mb();
    check_records(phase.records, *setup.main, &spool, "main", check);
  }
  write_epoch_records(child_path(args, "epoch", epoch, ".records"), phase, rss);
  std::printf("epoch %llu: %zu requests in %.3f s, peak RSS %.1f MB, %zu failed\n",
              static_cast<unsigned long long>(epoch), phase.records.size(), phase.wall_s, rss,
              check.failed);
  log_failures(check);
  return check.failed == 0 ? 0 : 1;
}

/// One set-up probe (--setup-probe k), in a fresh process: kSetupsPerProbe
/// set-ups, each torn down outside the timing, and their times for the
/// process that started it.
int run_setup_probe(const WorkloadSpec& spec, const Args& args) {
  const std::uint64_t probe = *args.setup_probe;
  if (spec.one_cpu) move_to_window_cpu(probe);
  std::vector<double> times;
  Setup setup;
  for (int i = 0; i < kSetupsPerProbe; ++i) {
    setup = Setup{};
    const Clock::time_point start = Clock::now();
    setup = make_setup(spec, args.seed, probe * kSetupsPerProbe + static_cast<std::uint64_t>(i));
    times.push_back(seconds_since(start));
  }
  const std::string path = child_path(args, "setup", probe, ".times");
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) throw std::runtime_error("cannot open " + path);
  for (double t : times) std::fprintf(file, "%.17g\n", t);
  if (std::fclose(file) != 0) throw std::runtime_error("cannot write " + path);
  return 0;
}

int run_untraced(const WorkloadSpec& spec, const Args& args) {
  std::vector<double> setup_times;
  time_setups(args, 0, kSetupProbesBefore, setup_times);
  Served s = serve_workload(spec, args, true, 0);
  time_setups(args, kSetupProbesBefore, kSetupProbes, setup_times);
  const std::vector<Record>& main = s.main.records;

  const std::vector<double> lat = latencies_ms(main);
  const WindowedTail tail = windowed_tail(latencies_in_completion_order_ms(main), kWindow);
  const std::vector<Record>& arms =
      spec.golden_phase_share > 0.0 ? s.golden.records : s.main.records;
  const double standard_ms = median(latencies_ms(arms, 0));
  const double golden_ms = median(latencies_ms(arms, 1));
  const std::vector<double> pair_ratios = paired_ratios(arms);
  std::vector<double> completed_s;
  for (const Record& r : main) {
    if (r.ok) completed_s.push_back(r.completed_s);
  }
  std::sort(completed_s.begin(), completed_s.end());
  const double throughput = windowed_rate(completed_s, kWindow);
  const double failed_share =
      s.check.attempted == 0 ? 0.0
                             : static_cast<double>(s.check.failed) /
                                   static_cast<double>(s.check.attempted);

  std::vector<Metric> metrics = {
      {"latency_p50_ms", "ms", median(lat)},
      {"latency_tail_ms", "ms", tail.value},
      {"throughput_rps", "req/s", throughput},
      {"golden_speedup", "ratio", median(pair_ratios)},
      {"tvd_mean", "prob", s.tvd_mean},
      {"peak_rss_mb", "MB", s.peak_rss_mb},
      {"setup_s", "s", median(setup_times)},
  };

  std::printf("workload %s, seed %llu: %zu requests in %.3f s, %d closed-loop client(s)\n",
              workload_name(spec.kind), static_cast<unsigned long long>(args.seed), lat.size(),
              s.main.wall_s, spec.clients);
  if (s.epochs > 0) {
    std::printf("  served as %zu epochs of %llu requests, each in a fresh process; "
                "peak_rss_mb is the epochs' median\n",
                s.epochs, static_cast<unsigned long long>(spec.epoch_requests));
  }
  std::printf("  p50 latency by tenth of the run [ms]:");
  for (double ms : decile_p50_ms(main)) std::printf(" %.3f", ms);
  std::printf("\n");
  std::printf("  latency_tail_ms is the median over %zu windows of the window's %s "
              "(n=%zu per window, %zu samples beyond it)\n",
              tail.windows, tail.per_window.label.c_str(), tail.per_window.samples,
              tail.per_window.beyond);
  std::printf("  golden_speedup: median of %zu paired ratios (arm medians: standard %.4f ms, "
              "neglect %.4f ms)\n",
              pair_ratios.size(), standard_ms, golden_ms);
  std::printf("  tvd_mean over the first %zu requests; setup_s is the median of %zu set-ups "
              "in %llu fresh processes [ms]:",
              spec.tvd_requests, setup_times.size(), static_cast<unsigned long long>(kSetupProbes));
  for (double t : setup_times) std::printf(" %.3f", t * 1e3);
  std::printf("\n");
  std::printf("  failed_share %.6g (%zu of %zu)\n", failed_share, s.check.failed,
              s.check.attempted);
  for (const Metric& m : metrics) {
    std::printf("  %-18s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  log_failures(s.check);
  const bool correct = s.check.failed == 0;
  print_result(correct, s.check.attempted, s.check.failed, metrics);
  return correct ? 0 : 1;
}

int run_traced(const WorkloadSpec& spec, const Args& args) {
  // Untraced service phase: the latencies the decomposition explains.
  const std::uint64_t joins0 = registry_counter("scheduler.dedup_joins");
  const std::uint64_t hits0 = registry_counter("cache.hits");
  const std::uint64_t misses0 = registry_counter("cache.misses");
  const std::uint64_t tasks0 = registry_counter("pool.tasks");
  // Raw reconstructions are kept for the requests the replay may reach.
  Served s = serve_workload(spec, args, false, std::numeric_limits<std::size_t>::max());
  CheckResult& check = s.check;
  const std::vector<Record>& main = s.main.records;
  const double served = static_cast<double>(std::max<std::size_t>(1, main.size()));
  const double joins = static_cast<double>(registry_counter("scheduler.dedup_joins") - joins0);
  const double hits = static_cast<double>(registry_counter("cache.hits") - hits0);
  const double misses = static_cast<double>(registry_counter("cache.misses") - misses0);
  const double tasks = static_cast<double>(registry_counter("pool.tasks") - tasks0);

  // Drift: p50 latency of the last tenth of completions over the first tenth.
  const std::vector<double> deciles = decile_p50_ms(main);
  const double drift_ratio = deciles.back() / std::max(1e-12, deciles.front());

  // The library's own telemetry, switched on for a short segment: pool busy
  // time is only recorded while it is enabled.
  double busy_s_per_request = 0.0;
  {
    const std::uint64_t busy0 = registry_counter("pool.busy_ns");
    telemetry::set_enabled(true);
    std::vector<Record> segment;
    const Clock::time_point start = Clock::now();
    std::uint64_t index = main.empty() ? 0 : main.back().index + 1;
    do {
      segment.push_back(s.setup.server->serve(s.setup.main->at(index++), false, nullptr));
    } while (seconds_since(start) < 0.05 * args.seconds);
    telemetry::set_enabled(false);
    busy_s_per_request = static_cast<double>(registry_counter("pool.busy_ns") - busy0) * 1e-9 /
                         static_cast<double>(segment.size());
    check_records(segment, *s.setup.main, nullptr, "telemetry", check);
  }
  std::vector<double> snapshot_times;
  std::size_t instruments = 0;
  for (int k = 0; k < 5; ++k) {
    const Clock::time_point start = Clock::now();
    const telemetry::MetricsSnapshot snap = telemetry::MetricsRegistry::global().snapshot();
    snapshot_times.push_back(seconds_since(start));
    instruments = snap.counters.size() + snap.gauges.size() + snap.histograms.size();
  }

  // Layer-by-layer replay of the first main-phase requests in index order:
  // as many as one pass with spans covers in a tenth of the run's seconds.
  // Four passes over that same set, two with spans and two without: the
  // first gives the decomposition and all four the tracing overhead. Every
  // pass must reproduce the service's reconstructions bit for bit.
  std::vector<const Record*> replayable;
  std::vector<BenchRequest> requests;
  for (const Record& r : main) {
    if (!r.ok || r.raw.empty()) continue;
    replayable.push_back(&r);
    requests.push_back(s.setup.main->at(r.index));
  }
  std::size_t replay_mismatches = 0;
  const auto replay_pass = [&](SpanRecorder& recorder, std::size_t limit, double budget_s,
                               std::unique_ptr<Replayer>& replayer) {
    replayer = std::make_unique<Replayer>(s.setup.server->backend(), spec.backend_seed,
                                          spec.cache_capacity, recorder);
    std::size_t count = 0;
    const Clock::time_point start = Clock::now();
    while (count < limit && (count < 2 || seconds_since(start) < budget_s)) {
      const Record& r = *replayable[count];
      const cutting::ReconstructionResult result =
          replayer->replay(requests[count].request, r.index);
      ++check.attempted;
      if (result.raw_probabilities != r.raw) {
        ++replay_mismatches;
        check.fail("replay of request " + std::to_string(r.index) +
                   " differs from the service's reconstruction");
      }
      ++count;
    }
    return std::make_pair(count, seconds_since(start));
  };
  SpanRecorder spans(true);
  std::unique_ptr<Replayer> traced;
  const auto [replayed, replay_on_s] =
      replay_pass(spans, replayable.size(), 0.1 * args.seconds, traced);
  // Spans on, off, off, on: the symmetric order cancels a linear trend
  // across passes.
  double on_s = replay_on_s, off_s = 0.0;
  for (bool spans_on : {false, false, true}) {
    std::unique_ptr<Replayer> other;
    SpanRecorder recorder(spans_on);
    (spans_on ? on_s : off_s) += replay_pass(recorder, replayed, 1e300, other).second;
  }
  const double replay_off_s = off_s / 2.0;
  on_s /= 2.0;

  // Device compile per executed variant, off the replay path.
  double compile_s = 0.0;
  for (const circuit::Circuit& c : traced->executed_circuits()) {
    const Clock::time_point start = Clock::now();
    const std::unique_ptr<sim::CompiledProgram> program =
        s.setup.server->backend().device().compile(c);
    compile_s += seconds_since(start);
  }

  // CutService construction and destruction with qcut::run()'s options; on
  // the one-call workload also the submit() call those services receive.
  std::vector<double> lifecycle, submit_one_call;
  {
    RequestStream warmup(spec.kind, args.seed, Phase::Warmup);
    for (int k = 0; k < 20; ++k) {
      service::CutServiceOptions options;
      options.cache_capacity = 0;
      const Clock::time_point t0 = Clock::now();
      auto service =
          std::make_unique<service::CutService>(s.setup.server->backend(), options);
      double seconds = seconds_since(t0);
      if (spec.one_call) {
        BenchRequest request = warmup.at(static_cast<std::uint64_t>(k));
        const Clock::time_point t1 = Clock::now();
        std::future<cutting::CutResponse> future = service->submit(std::move(request.request));
        submit_one_call.push_back(seconds_since(t1));
        (void)future.get();
      }
      const Clock::time_point t2 = Clock::now();
      service.reset();
      seconds += seconds_since(t2);
      lifecycle.push_back(seconds);
    }
  }
  std::vector<double> submit_times = submit_one_call;
  if (!spec.one_call) {
    for (const Record& r : main) submit_times.push_back(r.submit_s);
  }

  // Per-layer self times, per replayed request.
  const std::map<std::string, double> self = self_seconds_by_name(spans.spans());
  const auto per_request = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / static_cast<double>(replayed);
  };
  double replay_total_s = 0.0;  // the root "request" spans
  for (const SpanRecord& span : spans.spans()) {
    if (span.parent < 0) replay_total_s += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  std::vector<double> replayed_latency;
  for (std::size_t i = 0; i < replayed; ++i) replayed_latency.push_back(replayable[i]->latency_s);
  const double mean_latency = mean(replayed_latency);
  const double residual_s = mean_latency - replay_total_s / static_cast<double>(replayed);

  const ReplayCounts& n = traced->counts();
  const double reqs = static_cast<double>(std::max<std::uint64_t>(1, n.requests));
  const double sample_s = per_request("sim.sample");

  const std::vector<Metric> metrics = {
      {"service.lifecycle_s", "s", median(lifecycle)},
      {"service.submit_s", "s", mean(submit_times)},
      {"service.residual_s", "s", residual_s},
      {"service.residual_share", "ratio", residual_s / std::max(1e-12, mean_latency)},
      {"service.hash_s", "s", per_request("service.hash")},
      {"service.hash.calls", "count", static_cast<double>(n.hash_calls) / reqs},
      {"service.cache.lookup_s", "s", per_request("service.cache")},
      {"service.cache.hit_ratio", "ratio", hits + misses > 0.0 ? hits / (hits + misses) : 0.0},
      {"scheduler.dedup_joins", "count", joins / served},
      {"cutting.plan_s", "s", per_request("cutting.resolve")},
      {"cutting.variants_s", "s", per_request("cutting.variants")},
      {"cutting.variants.executed", "count", static_cast<double>(n.variants_executed) / reqs},
      {"cutting.variants.kept_ratio", "ratio",
       static_cast<double>(n.variants_required) /
           static_cast<double>(std::max<std::uint64_t>(1, n.variants_no_neglect))},
      {"cutting.detect_s", "s", per_request("cutting.detect")},
      {"cutting.reconstruct_s", "s", per_request("cutting.reconstruct")},
      {"cutting.reconstruct.terms", "count", static_cast<double>(n.terms) / reqs},
      {"sim.simulate_s", "s", per_request("sim.simulate")},
      {"sim.compile_s", "s", compile_s / reqs},
      {"sim.ops", "count", static_cast<double>(n.ops) / reqs},
      {"backend.prefix_ops_saved", "count", static_cast<double>(n.prefix_ops_saved) / reqs},
      {"sim.sample_s", "s", sample_s},
      {"sim.sample.shots", "count", static_cast<double>(n.shots) / reqs},
      {"sim.sample.ns_per_shot", "ns/shot",
       n.shots > 0 ? sample_s * reqs * 1e9 / static_cast<double>(n.shots) : 0.0},
      {"telemetry.instruments", "count", static_cast<double>(instruments)},
      {"telemetry.snapshot_s", "s", median(snapshot_times)},
      {"telemetry.drift_ratio", "ratio", drift_ratio},
      {"parallel.pool.tasks", "count", tasks / served},
      {"parallel.pool.busy_s", "s", busy_s_per_request},
      {"trace.overhead_share", "ratio", (on_s - replay_off_s) / std::max(1e-12, replay_off_s)},
      {"trace.replayed_requests", "count", static_cast<double>(replayed)},
  };

  const std::string trace_path = args.work_dir + "/" + workload_name(spec.kind) + "-seed" +
                                 std::to_string(args.seed) + ".json";
  const bool wrote = write_chrome_trace(trace_path, spans.spans());

  std::printf("workload %s, seed %llu (traced): %zu requests served untraced in %.3f s; "
              "%zu replayed layer by layer, %zu bit-for-bit mismatches\n",
              workload_name(spec.kind), static_cast<unsigned long long>(args.seed), main.size(),
              s.main.wall_s, replayed, replay_mismatches);
  std::printf("  replay pass %.4f s with spans, %.4f s without (means of two passes); "
              "%zu spans %s %s\n",
              on_s, replay_off_s, spans.spans().size(), wrote ? "written to" : "NOT written to",
              trace_path.c_str());
  std::printf("  failed %zu of %zu checks\n", check.failed, check.attempted);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  log_failures(check);
  const bool correct = check.failed == 0 && replayed > 0;
  print_result(correct, check.attempted, check.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <ansatz5-run|qaoa12-stream|chain3-online> "
                 "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n");
    return 2;
  }
  const WorkloadSpec spec = workload_spec(args->workload);
  try {
    g_cpus = args->cpus.empty() ? affinity_cpus() : args->cpus;
    if (args->epoch) return run_epoch(spec, *args);
    if (args->setup_probe) return run_setup_probe(spec, *args);
    return args->trace ? run_traced(spec, *args) : run_untraced(spec, *args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
