#include "cutting/uncertainty.hpp"

#include <gtest/gtest.h>

#include "backend/statevector_backend.hpp"
#include "circuit/random.hpp"
#include "common/error.hpp"
#include "cutting/pipeline.hpp"
#include "sim/statevector.hpp"

namespace qcut::cutting {
namespace {

struct Fixture {
  circuit::GoldenAnsatz ansatz;
  FragmentGraph graph;
  ChainFragmentData data;
  std::vector<double> truth;

  [[nodiscard]] ChainNeglectSpec none() const { return ChainNeglectSpec::none(graph); }

  static Fixture make(std::size_t shots, std::uint64_t seed) {
    Rng rng(seed);
    circuit::GoldenAnsatzOptions options;
    options.num_qubits = 5;
    circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
    const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
    FragmentGraph graph = make_fragment_graph(ansatz.circuit, cuts);

    backend::StatevectorBackend backend(seed * 7 + 1);
    ExecutionOptions exec;
    exec.shots_per_variant = shots;
    ChainFragmentData data = execute_chain(graph, ChainNeglectSpec::none(graph), backend, exec);

    sim::StateVector sv(5);
    sv.apply_circuit(ansatz.circuit);
    return Fixture{std::move(ansatz), std::move(graph), std::move(data), sv.probabilities()};
  }
};

TEST(Bootstrap, DistributionBandsCoverTruth) {
  const Fixture fx = Fixture::make(4000, 1);
  BootstrapOptions options;
  options.replicas = 150;
  const DistributionUncertainty u =
      bootstrap_distribution(fx.graph, fx.data, fx.none(), options);

  ASSERT_EQ(u.mean.size(), 32u);
  int covered = 0;
  for (index_t x = 0; x < 32; ++x) {
    EXPECT_GE(u.ci_upper[x], u.ci_lower[x]);
    // Widen the bootstrap band slightly: it is centered on the observed
    // data, whose own deviation from truth is one extra sigma.
    const double slack = 2.0 * u.standard_error[x] + 1e-6;
    if (fx.truth[x] >= u.ci_lower[x] - slack && fx.truth[x] <= u.ci_upper[x] + slack) {
      ++covered;
    }
  }
  // Expect the overwhelming majority of outcomes covered.
  EXPECT_GE(covered, 29);
}

TEST(Bootstrap, StandardErrorShrinksWithShots) {
  const Fixture coarse = Fixture::make(500, 2);
  const Fixture fine = Fixture::make(50000, 2);
  BootstrapOptions options;
  options.replicas = 100;

  const DistributionUncertainty u_coarse =
      bootstrap_distribution(coarse.graph, coarse.data, coarse.none(), options);
  const DistributionUncertainty u_fine =
      bootstrap_distribution(fine.graph, fine.data, fine.none(), options);

  double coarse_total = 0.0, fine_total = 0.0;
  for (index_t x = 0; x < 32; ++x) {
    coarse_total += u_coarse.standard_error[x];
    fine_total += u_fine.standard_error[x];
  }
  // Shots grew by 100x, SE should drop by about 10x; require at least 5x.
  EXPECT_LT(fine_total * 5.0, coarse_total);
}

TEST(Bootstrap, ExpectationCoversStatevectorValue) {
  const Fixture fx = Fixture::make(8000, 3);
  circuit::PauliString z_all(5);
  for (int q = 0; q < 5; ++q) z_all.set_label(q, linalg::Pauli::Z);
  const DiagonalObservable obs = DiagonalObservable::from_pauli(z_all);

  sim::StateVector sv(5);
  sv.apply_circuit(fx.ansatz.circuit);
  const double exact = sv.expectation_pauli(z_all);

  BootstrapOptions options;
  options.replicas = 150;
  const ExpectationUncertainty u =
      bootstrap_expectation(fx.graph, fx.data, fx.none(), obs, options);

  EXPECT_NEAR(u.estimate, exact, 5.0 * u.standard_error + 0.05);
  EXPECT_LT(u.ci_lower, u.ci_upper);
  EXPECT_GT(u.standard_error, 0.0);
  // The true value should sit within a slightly widened CI.
  EXPECT_GE(exact, u.ci_lower - 2.0 * u.standard_error);
  EXPECT_LE(exact, u.ci_upper + 2.0 * u.standard_error);
}

TEST(Bootstrap, GoldenSpecGivesComparableErrorWithFewerVariants) {
  // Same per-variant shots: the golden pipeline estimates the same quantity
  // from 6 variants instead of 9 with comparable (not worse) uncertainty.
  Rng rng(4);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  const FragmentGraph graph = make_fragment_graph(ansatz.circuit, cuts);

  NeglectSpec golden_boundary(1);
  golden_boundary.neglect(0, ansatz.golden_basis);
  const ChainNeglectSpec none = ChainNeglectSpec::none(graph);
  const ChainNeglectSpec golden({golden_boundary});

  backend::StatevectorBackend backend(11);
  ExecutionOptions exec;
  exec.shots_per_variant = 4000;
  const ChainFragmentData full_data = execute_chain(graph, none, backend, exec);
  const ChainFragmentData golden_data = execute_chain(graph, golden, backend, exec);

  const DiagonalObservable obs = DiagonalObservable::parity(5);
  BootstrapOptions boot;
  boot.replicas = 100;
  const ExpectationUncertainty u_full = bootstrap_expectation(graph, full_data, none, obs, boot);
  const ExpectationUncertainty u_golden =
      bootstrap_expectation(graph, golden_data, golden, obs, boot);

  EXPECT_LT(u_golden.standard_error, 2.0 * u_full.standard_error + 1e-3);
}

TEST(Bootstrap, RejectsExactData) {
  Rng rng(5);
  circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5;
  const circuit::GoldenAnsatz ansatz = circuit::make_golden_ansatz(options, rng);
  const std::array<circuit::WirePoint, 1> cuts = {ansatz.cut};
  const FragmentGraph graph = make_fragment_graph(ansatz.circuit, cuts);
  const ChainNeglectSpec none = ChainNeglectSpec::none(graph);
  backend::StatevectorBackend backend(2);
  ExecutionOptions exec;
  exec.exact = true;
  const ChainFragmentData data = execute_chain(graph, none, backend, exec);
  EXPECT_THROW((void)bootstrap_distribution(graph, data, none), Error);
}

TEST(Bootstrap, OptionValidation) {
  const Fixture fx = Fixture::make(100, 6);
  BootstrapOptions bad;
  bad.replicas = 1;
  EXPECT_THROW((void)bootstrap_distribution(fx.graph, fx.data, fx.none(), bad), Error);
  bad.replicas = 10;
  bad.confidence = 1.5;
  EXPECT_THROW((void)bootstrap_distribution(fx.graph, fx.data, fx.none(), bad), Error);
}

TEST(Bootstrap, DeterministicForSeed) {
  const Fixture fx = Fixture::make(1000, 7);
  BootstrapOptions options;
  options.replicas = 20;
  options.seed = 99;
  const DistributionUncertainty a =
      bootstrap_distribution(fx.graph, fx.data, fx.none(), options);
  const DistributionUncertainty b =
      bootstrap_distribution(fx.graph, fx.data, fx.none(), options);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.ci_lower, b.ci_lower);
}

}  // namespace
}  // namespace qcut::cutting
