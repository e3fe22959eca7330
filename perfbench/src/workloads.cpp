#include "workloads.hpp"

#include "common/error.hpp"
#include "sim/statevector.hpp"

namespace perfbench {

using namespace qcut;

namespace {

constexpr int kQaoaQubits = 12;
constexpr int kQaoaDepth = 3;
constexpr int kChainQubits = 10;
constexpr int kChainBlockWidth = 4;
constexpr int kChainBlockReps = 2;

constexpr std::size_t kAnsatzShots = 1000;
constexpr std::size_t kQaoaShots = 200000;
constexpr std::size_t kChainShots = 10000;

/// Share of qaoa12-stream requests that repeat an earlier point.
constexpr double kQaoaRevisitShare = 0.25;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t state = a ^ (b * 0x9e3779b97f4a7c15ULL);
  return splitmix64_next(state);
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "ansatz5-run") return Workload::Ansatz5Run;
  if (name == "qaoa12-stream") return Workload::Qaoa12Stream;
  if (name == "chain3-online") return Workload::Chain3Online;
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::Ansatz5Run: return "ansatz5-run";
    case Workload::Qaoa12Stream: return "qaoa12-stream";
    case Workload::Chain3Online: return "chain3-online";
  }
  return "?";
}

WorkloadSpec workload_spec(Workload workload) {
  WorkloadSpec spec;
  spec.kind = workload;
  switch (workload) {
    case Workload::Ansatz5Run:
      spec.clients = 1;
      spec.one_call = true;
      spec.backend_seed = 777;
      spec.tvd_requests = 1024;
      spec.epoch_requests = 600;  // 6 tail windows of 100
      spec.one_cpu = true;
      break;
    case Workload::Qaoa12Stream:
      spec.clients = 4;
      spec.cache_capacity = 4096;
      spec.backend_seed = 2023;
      spec.tvd_requests = 256;
      spec.golden_phase_share = 0.25;
      break;
    case Workload::Chain3Online:
      spec.clients = 1;
      spec.cache_capacity = 4096;
      spec.backend_seed = 7;
      spec.tvd_requests = 512;
      spec.golden_phase_share = 0.25;
      spec.one_cpu = true;
      break;
  }
  return spec;
}

circuit::Circuit qaoa_path(double gamma, double beta) {
  circuit::Circuit c(kQaoaQubits);
  for (int q = 0; q < kQaoaQubits; ++q) c.h(q);
  for (int layer = 0; layer < kQaoaDepth; ++layer) {
    for (int q = 0; q + 1 < kQaoaQubits; ++q) {
      c.append(circuit::GateKind::RZZ, {q, q + 1}, {gamma * (1.0 + 0.1 * layer)});
    }
    for (int q = 0; q < kQaoaQubits; ++q) c.rx(2.0 * beta, q);
  }
  return c;
}

circuit::WirePoint qaoa_middle_cut(const circuit::Circuit& c) {
  const int wire = kQaoaQubits / 2;
  std::size_t cut_after = 0;
  for (std::size_t i = 0; i < c.num_ops(); ++i) {
    const auto& op = c.op(i);
    if (op.kind == circuit::GateKind::RZZ && op.acts_on(wire)) cut_after = i;
  }
  return circuit::WirePoint{wire, cut_after};
}

circuit::Circuit chain_circuit(Rng& rng) {
  circuit::Circuit c(kChainQubits);
  for (int first = 0; first + kChainBlockWidth <= kChainQubits; first += kChainBlockWidth - 1) {
    for (int rep = 0; rep < kChainBlockReps; ++rep) {
      for (int q = first; q < first + kChainBlockWidth; ++q) c.ry(rng.uniform(0.0, 6.28), q);
      for (int q = first; q + 1 < first + kChainBlockWidth; ++q) c.cx(q, q + 1);
    }
  }
  return c;
}

std::vector<double> exact_distribution(const circuit::Circuit& circuit) {
  sim::StateVector sv(circuit.num_qubits());
  sv.apply_circuit(circuit);
  return sv.probabilities();
}

RequestStream::RequestStream(Workload workload, std::uint64_t seed, Phase phase)
    : workload_(workload),
      seed_(seed),
      phase_(phase),
      qaoa_rng_(mix(seed, 0x50 + static_cast<std::uint64_t>(phase))) {
  if (workload == Workload::Ansatz5Run) {
    // The fig4_runtime_sim circuit: one fixed 5-qubit golden ansatz whose
    // golden cut and basis are known by construction.
    Rng rng(404);
    circuit::GoldenAnsatzOptions options;
    options.num_qubits = 5;
    ansatz_ = circuit::make_golden_ansatz(options, rng);
  }
}

std::uint64_t RequestStream::seed_base(std::uint64_t index) const noexcept {
  // Seed streams are laid out as base + fragment * 2^20 + variant, so bases
  // 2^24 apart never overlap.
  const std::uint64_t stream = mix(seed_, 1 + static_cast<std::uint64_t>(phase_));
  return (stream + index) << 24;
}

RequestStream::QaoaPoint RequestStream::qaoa_point(std::uint64_t index) {
  std::lock_guard<std::mutex> lock(qaoa_mutex_);
  while (qaoa_points_.size() <= index) {
    const std::uint64_t i = qaoa_points_.size();
    // Revisits repeat an earlier request exactly (same parameters and seed
    // streams), as a line search re-evaluating a point does; the golden
    // phase never revisits.
    if (phase_ == Phase::Main && i > 0 && qaoa_rng_.uniform() < kQaoaRevisitShare) {
      QaoaPoint repeat = qaoa_points_[qaoa_rng_.uniform_int(0, i - 1)];
      qaoa_points_.push_back(repeat);
      continue;
    }
    QaoaPoint point;
    point.gamma = qaoa_rng_.uniform(0.2, 1.0);
    point.beta = qaoa_rng_.uniform(0.1, 0.7);
    point.seed_base = seed_base(i);
    point.origin = i;
    point.arm = phase_ == Phase::Golden ? static_cast<int>(i % 2) : 0;
    qaoa_points_.push_back(point);
  }
  return qaoa_points_[index];
}

BenchRequest RequestStream::at(std::uint64_t index) {
  BenchRequest out;
  out.index = index;
  out.origin = index;
  switch (workload_) {
    case Workload::Ansatz5Run: {
      // Trials alternate standard cutting (9 variants, 4 terms) and the
      // provided golden cut (6 variants, 3 terms).
      out.arm = static_cast<int>(index % 2);
      out.request = cutting::CutRequest(ansatz_->circuit);
      out.request.with_cut(ansatz_->cut).with_shots(kAnsatzShots).with_seed(seed_base(index));
      if (out.arm == 1) {
        cutting::NeglectSpec spec(1);
        spec.neglect(0, ansatz_->golden_basis);
        out.request.with_provided_spec(spec);
      }
      break;
    }
    case Workload::Qaoa12Stream: {
      const QaoaPoint point = qaoa_point(index);
      out.origin = point.origin;
      out.arm = point.arm;
      out.request = cutting::CutRequest(qaoa_path(point.gamma, point.beta));
      out.request.with_cut(qaoa_middle_cut(out.request.circuit))
          .with_shots(kQaoaShots)
          .with_seed(point.seed_base);
      // QAOA has no golden point: the neglect arm measures what exact
      // golden detection costs when it finds nothing to neglect.
      if (out.arm == 1) out.request.with_golden(cutting::GoldenMode::DetectExact);
      break;
    }
    case Workload::Chain3Online: {
      Rng rng = Rng(mix(seed_, 0x30 + static_cast<std::uint64_t>(phase_))).child(index);
      cutting::ChainPlannerOptions planner;
      planner.max_fragment_width = kChainBlockWidth;
      out.arm = phase_ == Phase::Golden ? static_cast<int>(index % 2) : 1;
      out.request = cutting::CutRequest(chain_circuit(rng));
      out.request.with_chain_plan(planner)
          .with_shots(kChainShots)
          .with_seed(seed_base(index))
          .with_golden(out.arm == 1 ? cutting::GoldenMode::DetectOnline
                                    : cutting::GoldenMode::None);
      break;
    }
  }
  return out;
}

}  // namespace perfbench
