// Chain cutting end to end: exact 3-fragment reconstruction against the
// statevector ground truth, per-boundary golden neglection, agreement of the
// single-outcome and diagonal-expectation paths with the full distribution.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "backend/statevector_backend.hpp"
#include "circuit/random.hpp"
#include "cutting/fragment_executor.hpp"
#include "cutting/golden.hpp"
#include "cutting/reconstructor.hpp"
#include "cutting/variants.hpp"
#include "sim/statevector.hpp"

namespace qcut::cutting {
namespace {

using circuit::WirePoint;

/// 5 qubits, all-real gates, 3 fragments: {0,1} -q1-> {1,2,3} -q3-> {3,4}.
/// Real amplitudes make Pauli-Y (and only Y: the ry on each cut wire keeps
/// X and Z entangled with the fragment outputs) golden at both boundaries.
Circuit chain5() {
  Circuit c(5);
  c.h(0).cx(0, 1).ry(0.3, 1);                 // ops 0-2, fragment 0
  c.cx(1, 2).ry(0.5, 2).cx(2, 3).ry(0.4, 3);  // ops 3-6, fragment 1
  c.cx(3, 4).ry(0.2, 4);                      // ops 7-8, fragment 2
  return c;
}

std::vector<std::vector<WirePoint>> chain5_boundaries() {
  return {{WirePoint{1, 2}}, {WirePoint{3, 6}}};
}

std::vector<double> truth_of(const Circuit& c) {
  sim::StateVector sv(c.num_qubits());
  sv.apply_circuit(c);
  return sv.probabilities();
}

TEST(ChainCutting, ThreeFragmentExactReconstructionMatchesTruth) {
  const Circuit c = chain5();
  const FragmentGraph graph = make_fragment_chain(c, chain5_boundaries());
  const ChainNeglectSpec spec = ChainNeglectSpec::none(graph);

  backend::StatevectorBackend backend(1);
  ExecutionOptions exec;
  exec.exact = true;
  const ChainFragmentData data = execute_chain(graph, spec, backend, exec);

  // Full variant set: 3 settings, 6x3 interior, 6 preps.
  EXPECT_EQ(data.total_jobs, 3u + 18u + 6u);

  const ReconstructionResult result = reconstruct_distribution(graph, data, spec);
  EXPECT_EQ(result.terms, 16u);
  const std::vector<double> truth = truth_of(c);
  ASSERT_EQ(result.raw_probabilities.size(), truth.size());
  for (std::size_t x = 0; x < truth.size(); ++x) {
    ASSERT_NEAR(result.raw_probabilities[x], truth[x], 1e-8) << x;
  }
}

TEST(ChainCutting, PerBoundaryGoldenNeglectionStaysExactAndShrinksVariants) {
  const Circuit c = chain5();
  const auto boundaries = chain5_boundaries();
  const FragmentGraph graph = make_fragment_chain(c, boundaries);

  // Exact detection finds Y golden at both boundaries (real amplitudes).
  const std::vector<NeglectSpec> specs = detect_chain_golden_specs(c, boundaries);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_TRUE(specs[0].is_neglected(0, Pauli::Y));
  EXPECT_TRUE(specs[1].is_neglected(0, Pauli::Y));
  const ChainNeglectSpec golden{specs};

  // Fewer variants at every fragment than the no-neglect chain.
  const ChainVariantCounts golden_counts = count_chain_variants(graph, golden);
  const ChainVariantCounts full_counts =
      count_chain_variants(graph, ChainNeglectSpec::none(graph));
  ASSERT_EQ(golden_counts.per_fragment.size(), 3u);
  EXPECT_EQ(full_counts.per_fragment, (std::vector<std::size_t>{3, 18, 6}));
  EXPECT_EQ(golden_counts.per_fragment, (std::vector<std::size_t>{2, 8, 4}));

  backend::StatevectorBackend backend(1);
  ExecutionOptions exec;
  exec.exact = true;
  const ChainFragmentData data = execute_chain(graph, golden, backend, exec);
  EXPECT_EQ(data.total_jobs, golden_counts.total());

  const ReconstructionResult result = reconstruct_distribution(graph, data, golden);
  EXPECT_EQ(result.terms, 9u);  // 3 x 3 instead of 4 x 4
  const std::vector<double> truth = truth_of(c);
  for (std::size_t x = 0; x < truth.size(); ++x) {
    ASSERT_NEAR(result.raw_probabilities[x], truth[x], 1e-8) << x;
  }
}

TEST(ChainCutting, ProbabilityOfAndDiagonalExpectationAgreeWithDistribution) {
  const Circuit c = chain5();
  const FragmentGraph graph = make_fragment_chain(c, chain5_boundaries());
  const ChainNeglectSpec spec{detect_chain_golden_specs(c, chain5_boundaries())};

  backend::StatevectorBackend backend(2);
  ExecutionOptions exec;
  exec.shots_per_variant = 2000;
  const ChainFragmentData data = execute_chain(graph, spec, backend, exec);

  const ReconstructionResult full = reconstruct_distribution(graph, data, spec);
  for (index_t outcome : {index_t{0}, index_t{7}, index_t{19}, index_t{31}}) {
    EXPECT_NEAR(reconstruct_probability_of(graph, data, spec, outcome),
                full.raw_probabilities[outcome], 1e-12)
        << outcome;
  }

  std::vector<double> diagonal(full.raw_probabilities.size());
  for (std::size_t x = 0; x < diagonal.size(); ++x) {
    diagonal[x] = parity(x) == 0 ? 1.0 : -1.0;
  }
  double folded = 0.0;
  for (std::size_t x = 0; x < diagonal.size(); ++x) {
    folded += diagonal[x] * full.raw_probabilities[x];
  }
  EXPECT_NEAR(reconstruct_diagonal_expectation(graph, data, spec, diagonal), folded, 1e-12);
}

}  // namespace
}  // namespace qcut::cutting
