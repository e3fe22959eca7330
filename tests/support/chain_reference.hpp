#pragma once
// Reference implementations the chain execution paths are checked against:
// execute_chain run one variant at a time, and the service's DetectOnline
// wave sequence replayed from the public building blocks.

#include <utility>
#include <vector>

#include "cutting/fragment_executor.hpp"
#include "cutting/golden.hpp"
#include "cutting/request.hpp"

namespace qcut::cutting {

/// execute_chain without batching: the same work order, shot plan and seed
/// streams, but every variant runs alone through Backend::run (or
/// exact_probabilities). By the run_batch determinism contract
/// execute_chain must match it bit for bit.
inline ChainFragmentData execute_chain_per_variant(const FragmentGraph& graph,
                                                   const ChainNeglectSpec& spec,
                                                   backend::Backend& backend,
                                                   const ExecutionOptions& options = {}) {
  std::vector<std::pair<int, FragmentVariantKey>> work;
  for (int f = 0; f < graph.num_fragments(); ++f) {
    for (const FragmentVariantKey& key : required_fragment_variants(graph, f, spec)) {
      work.emplace_back(f, key);
    }
  }
  const std::vector<std::size_t> shots_for = plan_variant_shots(
      options.shots_per_variant, options.total_shot_budget, options.exact, work.size());

  ChainFragmentData data = make_chain_data(graph);
  if (!options.exact && !shots_for.empty()) data.shots_per_variant = shots_for.back();
  for (std::size_t v = 0; v < work.size(); ++v) {
    const auto& [f, key] = work[v];
    const Circuit circuit = make_fragment_variant(graph, f, key).circuit;
    std::vector<double> probs;
    if (options.exact) {
      probs = backend.exact_probabilities(circuit);
    } else {
      const std::uint64_t stream = options.seed_stream_base + fragment_seed_offset(f) +
                                   variant_seed_index(graph, f, key);
      probs = backend.run(circuit, shots_for[v], stream).to_probabilities();
      data.total_shots += shots_for[v];
    }
    data.fragments[static_cast<std::size_t>(f)].variants.emplace(pack_variant_key(key),
                                                                 std::move(probs));
  }
  data.total_jobs = work.size();
  return data;
}

/// The service's GoldenMode::DetectOnline sequence over `graph`, replayed
/// directly: one wave per fragment, each wave's shots planned with
/// plan_variant_shots over remaining / waves_left of `opt.total_shot_budget`
/// (or a fixed shots_per_variant), executed through one run_batch call, and
/// boundary f detected from fragment f's data before fragment f+1 is issued.
/// Returns the final specs; `data` receives every wave's distributions.
inline ChainNeglectSpec replay_online_waves(const FragmentGraph& graph, const CutRunOptions& opt,
                                            backend::Backend& backend,
                                            ChainFragmentData& data) {
  ChainNeglectSpec specs = ChainNeglectSpec::none(graph);
  data = make_chain_data(graph);
  std::size_t budget_remaining = opt.total_shot_budget;
  for (int f = 0; f < graph.num_fragments(); ++f) {
    const std::vector<FragmentVariantKey> keys = required_fragment_variants(graph, f, specs);
    const std::size_t waves_left = static_cast<std::size_t>(graph.num_fragments() - f);
    const std::size_t wave_budget =
        opt.total_shot_budget > 0 ? budget_remaining / waves_left : 0;
    const std::vector<std::size_t> shots_for =
        plan_variant_shots(opt.shots_per_variant, wave_budget, opt.exact, keys.size());

    backend::BatchRequest batch;
    for (std::size_t v = 0; v < keys.size(); ++v) {
      batch.jobs.push_back(backend::BatchJob{
          make_fragment_variant(graph, f, keys[v]).circuit, shots_for[v],
          opt.seed_stream_base + fragment_seed_offset(f) + variant_seed_index(graph, f, keys[v])});
      budget_remaining -= std::min(budget_remaining, shots_for[v]);
      data.total_shots += shots_for[v];
    }
    const backend::BatchResult result = backend.run_batch(batch);
    for (std::size_t v = 0; v < keys.size(); ++v) {
      data.fragments[static_cast<std::size_t>(f)].variants.emplace(
          pack_variant_key(keys[v]), result.counts[v].to_probabilities());
    }
    data.total_jobs += keys.size();
    if (f == 0) data.shots_per_variant = shots_for.back();
    if (f + 1 == graph.num_fragments()) break;

    const ChainFragment& fragment = graph.fragments[static_cast<std::size_t>(f)];
    const std::vector<std::uint32_t> contexts =
        f > 0 ? required_prep_indices(specs.boundary(f - 1)) : std::vector<std::uint32_t>{0};
    FragmentLayout layout;
    layout.num_cuts = graph.boundaries[static_cast<std::size_t>(f)].num_cuts();
    layout.width = fragment.width();
    layout.cut_qubits = fragment.out_cut_qubits;
    layout.out_qubits = fragment.output_qubits;
    specs.boundary(f) =
        detect_golden_from_counts_core(
            layout, contexts.size(),
            [&](std::size_t context, std::uint32_t setting) -> const std::vector<double>& {
              return data.distribution(f, FragmentVariantKey{contexts[context], setting});
            },
            shots_for.back(), opt.online)
            .to_spec();
  }
  return specs;
}

}  // namespace qcut::cutting
