/// Cross-representation property tests: for random functions, every
/// intermediate representation of the Fig. 8 flow (AIG, MIG, BDD, ESOP) and
/// every mapping path must agree with the source truth table.
#include <gtest/gtest.h>

#include "eda/aig.hpp"
#include "eda/bdd.hpp"
#include "eda/esop.hpp"
#include "eda/esop_mapper.hpp"
#include "eda/imply_mapper.hpp"
#include "eda/magic_mapper.hpp"
#include "eda/majority_mapper.hpp"
#include "eda/mig.hpp"
#include "eda/revamp_isa.hpp"
#include "util/rng.hpp"

namespace cim::eda {
namespace {

class CrossRepresentation : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  TruthTable random_tt(int vars) {
    util::Rng rng(GetParam() * 77 + 13);
    TruthTable tt(vars);
    for (std::uint64_t m = 0; m < tt.size(); ++m)
      if (rng.bernoulli(0.5)) tt.set(m, true);
    return tt;
  }
};

TEST_P(CrossRepresentation, AllRepresentationsAgree) {
  const auto tt = random_tt(5);

  const auto aig = Aig::from_truth_table(tt);
  EXPECT_TRUE(aig.truth_tables()[0] == tt);

  const auto mig = Mig::from_aig(aig);
  EXPECT_TRUE(mig.truth_tables()[0] == tt);

  BddManager bdd(tt.vars());
  EXPECT_TRUE(bdd.to_truth_table(bdd.from_truth_table(tt)) == tt);

  const auto esop = Esop::from_truth_table(tt);
  EXPECT_TRUE(esop.to_truth_table() == tt);
}

TEST_P(CrossRepresentation, AllMappingPathsAgree) {
  const auto tt = random_tt(4);
  const auto aig = Aig::from_truth_table(tt);
  const auto mig = Mig::from_aig(aig);

  // IMPLY path.
  EXPECT_TRUE(verify_imply(compile_imply(aig, true), aig));
  // Majority path: the assembled ReVAMP program, verified and then run on a
  // crossbar for every assignment.
  const auto prog = assemble_revamp(mig, schedule_revamp(mig));
  EXPECT_TRUE(verify_revamp(prog, mig));
  crossbar::CrossbarConfig cfg;
  cfg.rows = prog.wordlines;
  cfg.cols = prog.bitlines;
  cfg.tech = device::Technology::kSttMram;
  cfg.levels = 2;
  cfg.model_ir_drop = false;
  for (std::uint64_t a = 0; a < tt.size(); ++a) {
    crossbar::Crossbar xbar(cfg);
    EXPECT_EQ(execute_revamp_program(xbar, prog, a).at(0), tt.get(a)) << a;
  }
  // MAGIC path.
  const auto nor = aig.to_netlist().to_nor_only();
  EXPECT_TRUE(verify_magic(compile_magic(nor, true), nor));
  // ESOP path.
  EXPECT_TRUE(verify_esop(compile_esop(Esop::from_truth_table(tt))));
}

TEST_P(CrossRepresentation, BddSatCountMatchesTruthTable) {
  const auto tt = random_tt(6);
  BddManager bdd(tt.vars());
  EXPECT_EQ(bdd.sat_count(bdd.from_truth_table(tt)), tt.count_ones());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossRepresentation,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace cim::eda
