#include "nn/sparse_coding.hpp"

#include <gtest/gtest.h>

#include "obs/dataset.hpp"

namespace cim::nn {
namespace {

CrossbarLinearConfig quiet_cfg() {
  CrossbarLinearConfig cfg;
  cfg.array.seed = 5;
  cfg.array.model_ir_drop = false;
  cfg.program_verify = true;
  return cfg;
}

TEST(SparseCoding, ProblemGeneratorShapes) {
  util::Rng rng(3);
  const auto prob = generate_sparse_problem(16, 32, 10, 3, 0.01, rng);
  EXPECT_EQ(prob.dictionary.rows(), 16u);
  EXPECT_EQ(prob.dictionary.cols(), 32u);
  EXPECT_EQ(prob.signals.rows(), 10u);
  EXPECT_EQ(prob.true_codes.size(), 10u);
  for (const auto& code : prob.true_codes) {
    std::size_t nnz = 0;
    for (const double v : code)
      if (v != 0.0) ++nnz;
    EXPECT_EQ(nnz, 3u);
  }
}

TEST(SparseCoding, DictionaryColumnsUnitNorm) {
  util::Rng rng(5);
  const auto prob = generate_sparse_problem(16, 24, 1, 2, 0.0, rng);
  for (std::size_t a = 0; a < 24; ++a) {
    double norm = 0.0;
    for (std::size_t d = 0; d < 16; ++d)
      norm += prob.dictionary(d, a) * prob.dictionary(d, a);
    EXPECT_NEAR(norm, 1.0, 1e-9);
  }
}

TEST(SparseCoding, SparsityValidation) {
  util::Rng rng(7);
  EXPECT_THROW((void)generate_sparse_problem(8, 4, 1, 5, 0.0, rng),
               std::invalid_argument);
}

TEST(SparseCoding, ReferenceIstaRecoversCleanSignals) {
  util::Rng rng(9);
  const auto prob = generate_sparse_problem(24, 16, 6, 2, 0.0, rng);
  CrossbarSparseCoder coder(prob.dictionary, quiet_cfg());
  IstaConfig ista;
  ista.iterations = 80;
  ista.lambda = 0.02;
  for (std::size_t i = 0; i < prob.signals.rows(); ++i) {
    const auto code = coder.encode_reference(prob.signals.row(i), ista);
    EXPECT_LT(code.reconstruction_error, 0.12) << i;
    EXPECT_GT(support_recovery(code.code, prob.true_codes[i], 2), 0.49) << i;
  }
}

TEST(SparseCoding, CrossbarIstaTracksReference) {
  util::Rng rng(11);
  const auto prob = generate_sparse_problem(24, 16, 4, 2, 0.01, rng);
  CrossbarSparseCoder coder(prob.dictionary, quiet_cfg());
  IstaConfig ista;
  ista.iterations = 60;
  ista.lambda = 0.02;
  obs::StreamStat analog_err, ref_err;
  for (std::size_t i = 0; i < prob.signals.rows(); ++i) {
    analog_err.add(coder.encode(prob.signals.row(i), ista).reconstruction_error);
    ref_err.add(
        coder.encode_reference(prob.signals.row(i), ista).reconstruction_error);
  }
  // The analog loop is noisier but must stay in the same regime.
  EXPECT_LT(analog_err.mean, ref_err.mean + 0.25);
}

TEST(SparseCoding, CodesAreSparse) {
  util::Rng rng(13);
  const auto prob = generate_sparse_problem(24, 20, 3, 2, 0.01, rng);
  CrossbarSparseCoder coder(prob.dictionary, quiet_cfg());
  IstaConfig ista;
  ista.iterations = 60;
  ista.lambda = 0.05;
  for (std::size_t i = 0; i < prob.signals.rows(); ++i) {
    const auto code = coder.encode_reference(prob.signals.row(i), ista);
    EXPECT_LT(code.nonzeros, 20u / 2);  // l1 keeps the code sparse
  }
}

TEST(SparseCoding, EnergyAccumulates) {
  util::Rng rng(15);
  const auto prob = generate_sparse_problem(16, 12, 1, 2, 0.0, rng);
  CrossbarSparseCoder coder(prob.dictionary, quiet_cfg());
  const double e0 = coder.energy_pj();
  (void)coder.encode(prob.signals.row(0), {.iterations = 5});
  EXPECT_GT(coder.energy_pj(), e0);
}

TEST(SparseCoding, DimValidation) {
  util::Rng rng(17);
  const auto prob = generate_sparse_problem(16, 12, 1, 2, 0.0, rng);
  CrossbarSparseCoder coder(prob.dictionary, quiet_cfg());
  std::vector<double> bad(7, 0.0);
  EXPECT_THROW((void)coder.encode(bad), std::invalid_argument);
}

TEST(SupportRecovery, ExactAndDegenerate) {
  const std::vector<double> truth = {0.0, 1.0, 0.0, -1.0};
  const std::vector<double> est = {0.01, 0.9, 0.02, -0.8};
  EXPECT_DOUBLE_EQ(support_recovery(est, truth, 2), 1.0);
  const std::vector<double> zero(4, 0.0);
  EXPECT_DOUBLE_EQ(support_recovery(est, zero, 2), 1.0);  // empty support
}

}  // namespace
}  // namespace cim::nn
