#pragma once
// The benchmark's three workloads and their seeded request streams.
//
// Every request is a pure function of (workload, seed, phase, index): the
// library only ever sees the generated circuits and options. Streams are
// safe to read from several client threads at once.

#include <cstdint>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "circuit/random.hpp"
#include "cutting/request.hpp"

namespace perfbench {

enum class Workload { Ansatz5Run, Qaoa12Stream, Chain3Online };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload workload);

/// Fixed shape of a workload: how it is driven and what counts as correct.
struct WorkloadSpec {
  Workload kind = Workload::Ansatz5Run;
  int clients = 1;                // closed-loop client threads
  bool one_call = false;          // qcut::run() per request instead of a long-lived service
  std::size_t cache_capacity = 0; // fragment-cache entries of the long-lived service
  std::uint64_t backend_seed = 0;
  /// tvd_mean is taken over the first this-many requests of the stream, so
  /// it is a pure function of the seed.
  std::size_t tvd_requests = 0;
  /// Share of the measured seconds spent on the interleaved standard-vs-
  /// neglect phase that gives golden_speedup (0: the main phase already
  /// interleaves the two arms).
  double golden_phase_share = 0.0;
  /// one_call workloads: requests per epoch. An untraced run serves its
  /// main phase as back-to-back epochs, each in a fresh process, so every
  /// epoch covers the same stretch of the library's per-process growth
  /// whatever the host's speed (0: one in-process phase).
  std::uint64_t epoch_requests = 0;
  /// Run every thread of the process, the library's included, on one CPU
  /// at a time, taking the run's CPUs in turn window by window. For a single
  /// client on a shared virtual machine, waking a thread on another virtual
  /// CPU costs more than the fan-out gains, and how much it costs swings
  /// with the host's load; on one CPU the latency is the request's work
  /// plus context switches. Taking turns spreads the run over the cores,
  /// whose speeds the host's other tenants move independently.
  bool one_cpu = false;
};

[[nodiscard]] WorkloadSpec workload_spec(Workload workload);

/// Per-response correctness bound on the TVD between the reconstructed
/// (clipped, normalised) and the exact distribution. Sampling error is about
/// 0.02-0.05 on every workload; a wrong reconstruction lands far above.
inline constexpr double kTvdBound = 0.25;

/// Which stream of a workload: the main request mix, the interleaved
/// standard-vs-neglect comparison behind golden_speedup, or the warm-up
/// requests of set-up. The three never share a seed stream.
enum class Phase { Main, Golden, Warmup };

/// One generated request and what the benchmark knows about it.
struct BenchRequest {
  std::uint64_t index = 0;
  std::uint64_t origin = 0;  // index of the request whose inputs this one repeats
  int arm = 0;               // 0: standard cutting; 1: the workload's neglect mode
  qcut::cutting::CutRequest request{qcut::circuit::Circuit(1)};
};

class RequestStream {
 public:
  RequestStream(Workload workload, std::uint64_t seed, Phase phase);

  /// The request at `index`; the same (workload, seed, phase, index) always
  /// gives the same request.
  [[nodiscard]] BenchRequest at(std::uint64_t index);

 private:
  struct QaoaPoint {
    double gamma = 0.0;
    double beta = 0.0;
    std::uint64_t seed_base = 0;
    std::uint64_t origin = 0;
    int arm = 0;
  };
  [[nodiscard]] QaoaPoint qaoa_point(std::uint64_t index);
  [[nodiscard]] std::uint64_t seed_base(std::uint64_t index) const noexcept;

  const Workload workload_;
  const std::uint64_t seed_;
  const Phase phase_;
  std::optional<qcut::circuit::GoldenAnsatz> ansatz_;  // ansatz5-run only

  std::mutex qaoa_mutex_;  // guards the sequentially generated QAOA points
  qcut::Rng qaoa_rng_;
  std::vector<QaoaPoint> qaoa_points_;
};

/// 12-qubit depth-3 QAOA MaxCut ansatz on the path graph, and the middle-wire
/// cut after its last cost-layer interaction.
[[nodiscard]] qcut::circuit::Circuit qaoa_path(double gamma, double beta);
[[nodiscard]] qcut::circuit::WirePoint qaoa_middle_cut(const qcut::circuit::Circuit& circuit);

/// 10-qubit chain of three width-4 RY+CX real-amplitude blocks on qubits
/// 0-3, 3-6 and 6-9.
[[nodiscard]] qcut::circuit::Circuit chain_circuit(qcut::Rng& rng);

/// Exact outcome distribution of the uncut circuit.
[[nodiscard]] std::vector<double> exact_distribution(const qcut::circuit::Circuit& circuit);

}  // namespace perfbench
