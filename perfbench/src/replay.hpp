#pragma once
// Layer-by-layer replay of one CutService request.
//
// The replay performs the service's computation for a request in the
// service's order, calling each layer's public functions directly and
// wrapping every call in a benchmark span:
//
//   cutting.resolve      cutting::resolve
//   cutting.variants     make_fragment_chain / required_fragment_variants /
//                        make_fragment_variant / group_by_shared_prefix
//   cutting.detect       the neglect decision: ChainNeglectSpec::none, the
//                        provided specs, detect_golden_exact, or
//                        detect_golden_from_counts_core after each wave
//   service.hash         service::hash_variant_execution
//   service.cache        FragmentResultCache::lookup / insert
//   sim.simulate         Backend::run_batch in exact mode with the
//                        service's shared-prefix plan
//   sim.sample           sim::sample_histogram with Rng(seed).child(stream)
//   cutting.reconstruct  reconstruct_distribution
//
// By the library's determinism contract (results are a pure function of
// circuit, shots, seed streams and backend identity) the replayed
// reconstruction equals the service's response bit for bit, so the
// decomposition measures the same computation the service performed.

#include <cstdint>
#include <string>
#include <vector>

#include "backend/statevector_backend.hpp"
#include "cutting/request.hpp"
#include "service/fragment_cache.hpp"
#include "spans.hpp"

namespace perfbench {

/// Work the replay did, summed over every replayed request.
struct ReplayCounts {
  std::uint64_t requests = 0;
  std::uint64_t hash_calls = 0;
  std::uint64_t variants_required = 0;    // after neglect, before the cache
  std::uint64_t variants_no_neglect = 0;  // standard cutting's count
  std::uint64_t variants_executed = 0;    // cache misses actually simulated
  std::uint64_t terms = 0;
  std::uint64_t shots = 0;
  std::uint64_t ops = 0;                  // gate applications after prefix sharing
  std::uint64_t prefix_ops_saved = 0;
};

class Replayer {
 public:
  /// `backend` must be a StatevectorBackend built with `backend_seed`, as
  /// the service's was; `cache_capacity` is the service's cache capacity.
  Replayer(qcut::backend::StatevectorBackend& backend, std::uint64_t backend_seed,
           std::size_t cache_capacity, SpanRecorder& spans);

  /// Replays one request (tagged `request_id` in the spans) and returns its
  /// reconstruction. Distribution targets only.
  [[nodiscard]] qcut::cutting::ReconstructionResult replay(
      const qcut::cutting::CutRequest& request, std::uint64_t request_id);

  [[nodiscard]] const ReplayCounts& counts() const noexcept { return counts_; }

  /// The circuit of every executed variant, for timing the device's compile
  /// step off the replay path.
  [[nodiscard]] const std::vector<qcut::circuit::Circuit>& executed_circuits() const noexcept {
    return executed_circuits_;
  }

 private:
  struct WaveContext;
  void execute_wave(WaveContext& wave);

  qcut::backend::StatevectorBackend& backend_;
  const std::uint64_t backend_seed_;
  const std::string backend_identity_;
  qcut::service::FragmentResultCache cache_;
  SpanRecorder& spans_;
  ReplayCounts counts_;
  std::vector<qcut::circuit::Circuit> executed_circuits_;
};

}  // namespace perfbench
