#include "replay.hpp"

#include <memory>
#include <optional>
#include <utility>

#include "backend/counts.hpp"
#include "common/error.hpp"
#include "cutting/bipartition.hpp"
#include "cutting/fragment_executor.hpp"
#include "cutting/golden.hpp"
#include "cutting/reconstructor.hpp"
#include "cutting/variants.hpp"
#include "parallel/thread_pool.hpp"
#include "service/circuit_hash.hpp"
#include "sim/sampling.hpp"

namespace perfbench {

using namespace qcut;
using Scope = SpanRecorder::Scope;

namespace {

/// The replay's own registry: its cache must not move the global counters
/// the benchmark reads as deltas of the service's work.
telemetry::MetricsRegistry& replay_registry() {
  static telemetry::MetricsRegistry registry;
  return registry;
}

}  // namespace

/// One wave of a job: the variants the service would issue together.
struct Replayer::WaveContext {
  const cutting::CutRequest& request;
  const cutting::FragmentGraph& graph;
  cutting::ChainFragmentData& data;
  std::vector<std::pair<int, cutting::FragmentVariantKey>> variants;
  bool first_wave = true;
  std::size_t smallest_share = 0;  // out: the wave's per-variant shot floor
};

Replayer::Replayer(backend::StatevectorBackend& backend, std::uint64_t backend_seed,
                   std::size_t cache_capacity, SpanRecorder& spans)
    : backend_(backend),
      backend_seed_(backend_seed),
      backend_identity_(backend.identity()),
      cache_(cache_capacity, &replay_registry()),
      spans_(spans) {}

void Replayer::execute_wave(WaveContext& wave) {
  const cutting::CutRunOptions& opt = wave.request.options;
  const std::size_t n = wave.variants.size();

  struct Prepared {
    int fragment = 0;
    cutting::FragmentVariantKey key;
    circuit::Circuit circuit{1};
    std::size_t shots = 0;
    std::uint64_t seed_stream = 0;
    service::Hash128 hash;
    service::CachedDistribution result;
  };
  std::vector<Prepared> prepared(n);
  {
    Scope span(spans_, "cutting.variants");
    const std::vector<std::size_t> shots_for =
        cutting::plan_variant_shots(opt.shots_per_variant, opt.total_shot_budget, opt.exact, n);
    if (!opt.exact) {
      wave.smallest_share = shots_for.empty() ? 0 : shots_for.back();
      if (wave.first_wave) wave.data.shots_per_variant = wave.smallest_share;
      for (std::size_t s : shots_for) wave.data.total_shots += s;
    }
    wave.data.total_jobs += n;
    for (std::size_t i = 0; i < n; ++i) {
      Prepared& p = prepared[i];
      p.fragment = wave.variants[i].first;
      p.key = wave.variants[i].second;
      p.circuit = cutting::make_fragment_variant(wave.graph, p.fragment, p.key).circuit;
      p.shots = opt.exact ? 0 : shots_for[i];
      p.seed_stream = opt.seed_stream_base + cutting::fragment_seed_offset(p.fragment) +
                      cutting::variant_seed_index(wave.graph, p.fragment, p.key);
    }
  }
  {
    Scope span(spans_, "service.hash");
    for (Prepared& p : prepared) {
      p.hash = service::hash_variant_execution(p.circuit, p.shots, opt.exact, p.seed_stream,
                                               backend_identity_);
    }
  }
  counts_.hash_calls += n;

  std::vector<std::size_t> misses;
  {
    Scope span(spans_, "service.cache");
    for (std::size_t i = 0; i < n; ++i) {
      if (std::optional<service::CachedDistribution> hit = cache_.lookup(prepared[i].hash)) {
        prepared[i].result = std::move(*hit);
      } else {
        misses.push_back(i);
      }
    }
  }
  counts_.variants_executed += misses.size();

  std::vector<cutting::PrefixGroup> groups;
  {
    Scope span(spans_, "cutting.variants");
    std::vector<const circuit::Circuit*> circuits;
    circuits.reserve(misses.size());
    for (std::size_t idx : misses) circuits.push_back(&prepared[idx].circuit);
    groups = cutting::group_by_shared_prefix(circuits);
  }

  for (const cutting::PrefixGroup& group : groups) {
    // One exact-mode batch per group, shaped as the service shapes it.
    backend::BatchRequest batch;
    batch.exact = true;
    batch.pool = nullptr;
    batch.jobs.reserve(group.members.size());
    for (std::size_t member : group.members) {
      const Prepared& p = prepared[misses[member]];
      batch.jobs.push_back(backend::BatchJob{p.circuit, p.shots, p.seed_stream});
      counts_.ops += p.circuit.num_ops();
      executed_circuits_.push_back(p.circuit);
    }
    if (group.members.size() > 1) {
      batch.groups.push_back(backend::BatchPrefixGroup{group.prefix_ops, {}});
      std::vector<std::size_t>& all = batch.groups.back().jobs;
      all.resize(batch.jobs.size());
      for (std::size_t m = 0; m < all.size(); ++m) all[m] = m;
      const std::uint64_t saved = (group.members.size() - 1) * group.prefix_ops;
      counts_.prefix_ops_saved += saved;
      counts_.ops -= saved;
    }

    backend::BatchResult result;
    {
      Scope span(spans_, "sim.simulate");
      result = backend_.run_batch(batch);
    }
    Scope span(spans_, "sim.sample");
    for (std::size_t m = 0; m < group.members.size(); ++m) {
      Prepared& p = prepared[misses[group.members[m]]];
      std::vector<double> probs = std::move(result.probabilities[m]);
      if (!opt.exact) {
        // The sampled-mode step StatevectorBackend::run_batch performs on
        // the same probabilities.
        Rng rng = Rng(backend_seed_).child(p.seed_stream);
        probs = backend::Counts::from_histogram(sim::sample_histogram(probs, p.shots, rng),
                                                p.circuit.num_qubits())
                    .to_probabilities();
        counts_.shots += p.shots;
      }
      p.result = std::make_shared<const std::vector<double>>(std::move(probs));
    }
  }

  {
    Scope span(spans_, "service.cache");
    for (std::size_t idx : misses) cache_.insert(prepared[idx].hash, prepared[idx].result);
  }
  for (const Prepared& p : prepared) {
    wave.data.fragments[static_cast<std::size_t>(p.fragment)].variants.emplace(
        cutting::pack_variant_key(p.key), *p.result);
  }
}

cutting::ReconstructionResult Replayer::replay(const cutting::CutRequest& request,
                                               std::uint64_t request_id) {
  QCUT_CHECK(request.wants_distribution(), "perfbench replay: distribution targets only");
  spans_.set_request(request_id);
  Scope root(spans_, "request");
  ++counts_.requests;

  cutting::ResolvedRequest resolved;
  {
    Scope span(spans_, "cutting.resolve");
    resolved = cutting::resolve(request);
  }

  cutting::FragmentGraph graph;
  cutting::ChainFragmentData data;
  {
    Scope span(spans_, "cutting.variants");
    graph = cutting::make_fragment_chain(resolved.circuit, resolved.boundaries);
    data = cutting::make_chain_data(graph);
  }
  const cutting::CutRunOptions& opt = request.options;
  const int num_fragments = graph.num_fragments();

  cutting::ChainNeglectSpec specs;
  {
    Scope span(spans_, "cutting.detect");
    switch (opt.golden_mode) {
      case cutting::GoldenMode::None:
      case cutting::GoldenMode::DetectOnline:
        specs = cutting::ChainNeglectSpec::none(graph);
        break;
      case cutting::GoldenMode::Provided:
        specs = cutting::ChainNeglectSpec(
            opt.provided_spec.has_value() ? std::vector<cutting::NeglectSpec>{*opt.provided_spec}
                                          : opt.provided_boundary_specs);
        break;
      case cutting::GoldenMode::DetectExact: {
        std::vector<cutting::NeglectSpec> boundary_specs;
        for (const std::vector<circuit::WirePoint>& boundary : resolved.boundaries) {
          const cutting::Bipartition bp = cutting::make_bipartition(resolved.circuit, boundary);
          boundary_specs.push_back(cutting::detect_golden_exact(bp, opt.golden_tol).to_spec());
        }
        specs = cutting::ChainNeglectSpec(std::move(boundary_specs));
        break;
      }
    }
  }
  counts_.variants_no_neglect +=
      cutting::count_chain_variants(graph, cutting::ChainNeglectSpec::none(graph)).total();

  const auto fragment_variants = [&](int fragment) {
    std::vector<std::pair<int, cutting::FragmentVariantKey>> out;
    Scope span(spans_, "cutting.variants");
    for (const cutting::FragmentVariantKey& key :
         cutting::required_fragment_variants(graph, fragment, specs)) {
      out.emplace_back(fragment, key);
    }
    return out;
  };

  if (opt.golden_mode == cutting::GoldenMode::DetectOnline) {
    QCUT_CHECK(opt.total_shot_budget == 0 || num_fragments == 2,
               "perfbench replay: amortized online budgets are not replayed");
    // One wave per fragment; boundary f is detected from fragment f's data
    // before fragment f+1 is issued.
    for (int f = 0; f < num_fragments; ++f) {
      WaveContext wave{request, graph, data, fragment_variants(f), f == 0, 0};
      counts_.variants_required += wave.variants.size();
      execute_wave(wave);
      if (f + 1 == num_fragments) break;

      Scope span(spans_, "cutting.detect");
      const cutting::ChainFragment& fragment = graph.fragments[static_cast<std::size_t>(f)];
      const std::vector<std::uint32_t> contexts =
          f > 0 ? cutting::required_prep_indices(specs.boundary(f - 1))
                : std::vector<std::uint32_t>{0};
      cutting::FragmentLayout layout;
      layout.num_cuts = graph.boundaries[static_cast<std::size_t>(f)].num_cuts();
      layout.width = fragment.width();
      layout.cut_qubits = fragment.out_cut_qubits;
      layout.out_qubits = fragment.output_qubits;
      const cutting::GoldenDetectionReport detection = cutting::detect_golden_from_counts_core(
          layout, contexts.size(),
          [&](std::size_t context, std::uint32_t setting) -> const std::vector<double>& {
            return data.distribution(f, cutting::FragmentVariantKey{contexts[context], setting});
          },
          wave.smallest_share, opt.online);
      specs.boundary(f) = detection.to_spec();
    }
  } else {
    std::vector<std::pair<int, cutting::FragmentVariantKey>> all;
    for (int f = 0; f < num_fragments; ++f) {
      const auto fragment = fragment_variants(f);
      all.insert(all.end(), fragment.begin(), fragment.end());
    }
    WaveContext wave{request, graph, data, std::move(all), true, 0};
    counts_.variants_required += wave.variants.size();
    execute_wave(wave);
  }

  Scope span(spans_, "cutting.reconstruct");
  cutting::ReconstructionOptions recon;
  recon.pool = opt.pool != nullptr ? opt.pool : &parallel::ThreadPool::global();
  cutting::ReconstructionResult result =
      cutting::reconstruct_distribution(graph, data, specs, recon);
  counts_.terms += result.terms;
  return result;
}

}  // namespace perfbench
