/// Functional verification of stateful-logic programs (`ctest -L logic`).
///
/// `verify_imply`, `verify_magic` and `verify_revamp` decide correctness by
/// one symbolic walk (`verify::evaluate`) instead of one crossbar run per
/// input assignment. Two contracts keep that walk honest:
///
///  - the device path agrees with it: every suite circuit x family, run by
///    the crossbar executor on every assignment (<= 6 inputs) or a fixed
///    seeded sample, yields the walk's truth-table bits;
///  - verification can fail: seeded mutants of compiled suite programs
///    (swapped operand, dropped instruction, flipped output tap,
///    out-of-footprint cell, unlatched DMR row, operand-less NOR) are judged
///    exactly as the exhaustive per-assignment device loop judges them, and
///    every mutant kind is rejected at least once — without throwing.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <set>
#include <string>
#include <vector>

#include "crossbar/crossbar.hpp"
#include "eda/aig.hpp"
#include "eda/bench_circuits.hpp"
#include "eda/imply_mapper.hpp"
#include "eda/magic_mapper.hpp"
#include "eda/mig.hpp"
#include "eda/revamp_isa.hpp"
#include "eda/verify/wear_cost.hpp"
#include "util/rng.hpp"

namespace cim::eda {
namespace {

/// The binary, low-noise array the per-assignment device checks run on.
crossbar::CrossbarConfig array_config(std::size_t rows, std::size_t cols,
                                      std::uint64_t seed) {
  crossbar::CrossbarConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.tech = device::Technology::kSttMram;
  cfg.levels = 2;
  cfg.model_ir_drop = false;
  cfg.seed = seed;
  return cfg;
}

/// Every assignment up to 6 inputs, otherwise 64 seeded draws.
std::vector<std::uint64_t> assignments(std::size_t num_inputs,
                                       std::uint64_t seed) {
  const std::uint64_t n = std::uint64_t{1} << num_inputs;
  std::vector<std::uint64_t> out;
  if (num_inputs <= 6) {
    for (std::uint64_t a = 0; a < n; ++a) out.push_back(a);
    return out;
  }
  util::Rng rng(seed);
  for (int k = 0; k < 64; ++k) out.push_back(rng.uniform_int(n));
  return out;
}

// --- the device path agrees with the walk ------------------------------------

template <typename Exec>
void expect_device_matches(const std::string& what,
                           const std::vector<TruthTable>& walk,
                           std::size_t rows, std::size_t cols,
                           std::size_t num_inputs, std::uint64_t seed,
                           Exec&& exec) {
  for (const auto a : assignments(num_inputs, seed)) {
    crossbar::Crossbar xbar(array_config(rows, cols, seed + a));
    const std::vector<bool> out = exec(xbar, a);
    ASSERT_EQ(out.size(), walk.size()) << what;
    for (std::size_t o = 0; o < out.size(); ++o)
      ASSERT_EQ(out[o], walk[o].get(a)) << what << " a=" << a << " o=" << o;
  }
}

class DeviceAgreesWithWalk : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DeviceAgreesWithWalk, EveryFamily) {
  const auto suite = standard_suite();
  const auto& bc = suite[GetParam()];
  const std::uint64_t seed = 100 * GetParam();
  const auto aig = Aig::from_netlist(bc.netlist);
  {
    const auto prog = compile_imply(aig, true);
    const auto walk = verify::evaluate(prog);
    ASSERT_TRUE(walk.has_value()) << bc.name;
    EXPECT_EQ(*walk, aig.truth_tables()) << bc.name;
    expect_device_matches(bc.name + "/IMPLY", *walk, 1, prog.num_cells,
                          prog.num_inputs, seed,
                          [&](crossbar::Crossbar& x, std::uint64_t a) {
                            return execute_imply(x, prog, a);
                          });
  }
  {
    const auto nor = aig.to_netlist().to_nor_only();
    const auto prog = compile_magic(nor, true);
    const auto walk = verify::evaluate(prog);
    ASSERT_TRUE(walk.has_value()) << bc.name;
    EXPECT_EQ(*walk, nor.truth_tables()) << bc.name;
    expect_device_matches(bc.name + "/MAGIC", *walk, 1, prog.num_cells,
                          prog.num_inputs, seed + 1,
                          [&](crossbar::Crossbar& x, std::uint64_t a) {
                            return execute_magic(x, prog, a);
                          });
  }
  {
    const auto mig = Mig::from_aig(aig);
    const auto prog = assemble_revamp(mig, schedule_revamp(mig));
    const auto walk = verify::evaluate(prog);
    ASSERT_TRUE(walk.has_value()) << bc.name;
    EXPECT_EQ(*walk, mig.truth_tables()) << bc.name;
    expect_device_matches(bc.name + "/ReVAMP", *walk, prog.wordlines,
                          prog.bitlines, prog.num_inputs, seed + 2,
                          [&](crossbar::Crossbar& x, std::uint64_t a) {
                            return execute_revamp_program(x, prog, a);
                          });
  }
}

// The whole standard_suite(): 15 circuits, at most 11 inputs (mux8).
INSTANTIATE_TEST_SUITE_P(Circuits, DeviceAgreesWithWalk,
                         ::testing::Range<std::size_t>(0, 15));

// --- verification can fail ---------------------------------------------------

/// The per-assignment device loop the walk replaced: true when the program
/// runs to the end on an array sized to its footprint and matches `spec`
/// on every assignment.
template <typename Exec>
bool device_accepts(const std::vector<TruthTable>& spec, std::size_t rows,
                    std::size_t cols, Exec&& exec) {
  try {
    for (std::uint64_t a = 0; a < spec.front().size(); ++a) {
      crossbar::Crossbar xbar(array_config(rows, cols, 7 + a));
      const std::vector<bool> out = exec(xbar, a);
      if (out.size() != spec.size()) return false;
      for (std::size_t o = 0; o < out.size(); ++o)
        if (out[o] != spec[o].get(a)) return false;
    }
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

/// Small suite circuits (<= 6 inputs) the device oracle runs exhaustively.
std::vector<BenchmarkCircuit> mutant_bases() {
  return {{"rca2", ripple_carry_adder(2)}, {"mult2", array_multiplier(2)}};
}

constexpr int kSeedsPerKind = 6;

/// Tallies one mutant kind: verify must match the device oracle on every
/// mutant, and reject at least one of them.
struct KindTally {
  std::string kind;
  int rejected = 0;
};

template <typename Prog, typename Verify, typename Oracle>
void judge(const std::string& what, const Prog& mutant, Verify&& verify,
           Oracle&& oracle, KindTally& tally) {
  bool ok = true;
  EXPECT_NO_THROW(ok = verify(mutant)) << what;
  EXPECT_EQ(ok, oracle(mutant)) << what;
  if (!ok) ++tally.rejected;
}

std::size_t other_than(util::Rng& rng, std::size_t n, std::size_t current) {
  if (n < 2) return current + 1;
  const std::size_t r = rng.uniform_int(n - 1);
  return r < current ? r : r + 1;
}

enum class Mutation { kSwapOperand, kDropInstr, kFlipOutput, kOutOfFootprint };

constexpr Mutation kCommonMutations[] = {
    Mutation::kSwapOperand, Mutation::kDropInstr, Mutation::kFlipOutput,
    Mutation::kOutOfFootprint};

std::string name_of(Mutation m) {
  switch (m) {
    case Mutation::kSwapOperand: return "swapped-operand";
    case Mutation::kDropInstr: return "dropped-instruction";
    case Mutation::kFlipOutput: return "flipped-output";
    case Mutation::kOutOfFootprint: return "out-of-footprint";
  }
  return "?";
}

ImplyProgram mutate(ImplyProgram p, Mutation m, util::Rng& rng) {
  const std::size_t k = rng.uniform_int(p.instrs.size());
  switch (m) {
    case Mutation::kSwapOperand: {
      std::vector<std::size_t> implies;
      for (std::size_t i = 0; i < p.instrs.size(); ++i)
        if (p.instrs[i].kind == ImplyInstr::Kind::kImply) implies.push_back(i);
      auto& ins = p.instrs[implies[rng.uniform_int(implies.size())]];
      ins.src = other_than(rng, p.num_cells, ins.src);
      break;
    }
    case Mutation::kDropInstr:
      p.instrs.erase(p.instrs.begin() + static_cast<std::ptrdiff_t>(k));
      break;
    case Mutation::kFlipOutput: {
      auto& c = p.output_cells[rng.uniform_int(p.output_cells.size())];
      c = other_than(rng, p.num_cells, c);
      break;
    }
    case Mutation::kOutOfFootprint:
      p.instrs[k].dest = p.num_cells + rng.uniform_int(4);
      break;
  }
  return p;
}

MagicProgram mutate(MagicProgram p, Mutation m, util::Rng& rng) {
  std::vector<std::size_t> nors;
  for (std::size_t i = 0; i < p.instrs.size(); ++i)
    if (p.instrs[i].kind == MagicInstr::Kind::kNor) nors.push_back(i);
  auto& nor = p.instrs[nors[rng.uniform_int(nors.size())]];
  switch (m) {
    case Mutation::kSwapOperand: {
      auto& c = nor.in_cells[rng.uniform_int(nor.in_cells.size())];
      c = other_than(rng, p.num_cells, c);
      break;
    }
    case Mutation::kDropInstr:
      p.instrs.erase(p.instrs.begin() + static_cast<std::ptrdiff_t>(
                                            rng.uniform_int(p.instrs.size())));
      break;
    case Mutation::kFlipOutput: {
      const std::size_t o = rng.uniform_int(p.output_cells.size());
      if (p.output_is_const[o])
        p.const_values[o] = !p.const_values[o];
      else
        p.output_cells[o] = other_than(rng, p.num_cells, p.output_cells[o]);
      break;
    }
    case Mutation::kOutOfFootprint:
      nor.in_cells[rng.uniform_int(nor.in_cells.size())] =
          p.num_cells + rng.uniform_int(4);
      break;
  }
  return p;
}

/// Index of a random Apply instruction with at least one active column.
std::size_t random_apply(const RevampProgram& p, util::Rng& rng) {
  std::vector<std::size_t> applies;
  for (std::size_t i = 0; i < p.instrs.size(); ++i)
    if (p.instrs[i].kind == RevampInstruction::Kind::kApply)
      applies.push_back(i);
  return applies[rng.uniform_int(applies.size())];
}

RevampOperand& random_column(RevampInstruction& ins, util::Rng& rng) {
  std::vector<std::size_t> active;
  for (std::size_t c = 0; c < ins.columns.size(); ++c)
    if (ins.columns[c]) active.push_back(c);
  return *ins.columns[active[rng.uniform_int(active.size())]];
}

RevampProgram mutate(RevampProgram p, Mutation m, util::Rng& rng) {
  switch (m) {
    case Mutation::kSwapOperand: {
      auto& op = random_column(p.instrs[random_apply(p, rng)], rng);
      switch (op.src) {
        case RevampOperand::Src::kConst0:
          op.src = RevampOperand::Src::kConst1;
          break;
        case RevampOperand::Src::kConst1:
          op.src = RevampOperand::Src::kConst0;
          break;
        case RevampOperand::Src::kInput:
          op.input_index = other_than(rng, p.num_inputs, op.input_index);
          break;
        case RevampOperand::Src::kDmr:
          op.dmr_col = other_than(rng, p.bitlines, op.dmr_col) % p.bitlines;
          break;
      }
      break;
    }
    case Mutation::kDropInstr:
      p.instrs.erase(p.instrs.begin() + static_cast<std::ptrdiff_t>(
                                            rng.uniform_int(p.instrs.size())));
      break;
    case Mutation::kFlipOutput: {
      auto& o = p.outputs[rng.uniform_int(p.outputs.size())];
      o.complemented = !o.complemented;
      break;
    }
    case Mutation::kOutOfFootprint:
      p.instrs[rng.uniform_int(p.instrs.size())].wordline =
          p.wordlines + rng.uniform_int(4);
      break;
  }
  return p;
}

/// Points one DMR operand at a row no READ has latched by then (the row the
/// instruction itself is computing is always such a row).
RevampProgram unlatch_dmr(RevampProgram p, util::Rng& rng) {
  struct Site {
    std::size_t instr;
    std::size_t col;
    std::vector<std::size_t> unlatched;
  };
  std::vector<Site> sites;
  std::set<std::size_t> latched;
  for (std::size_t i = 0; i < p.instrs.size(); ++i) {
    const auto& ins = p.instrs[i];
    if (ins.kind == RevampInstruction::Kind::kRead) {
      latched.insert(ins.wordline);
      continue;
    }
    std::vector<std::size_t> rows;
    for (std::size_t r = 0; r < p.wordlines; ++r)
      if (latched.count(r) == 0) rows.push_back(r);
    for (std::size_t c = 0; c < ins.columns.size(); ++c)
      if (ins.columns[c] && ins.columns[c]->src == RevampOperand::Src::kDmr)
        sites.push_back({i, c, rows});
  }
  const auto& s = sites.at(rng.uniform_int(sites.size()));
  p.instrs[s.instr].columns[s.col]->dmr_row =
      s.unlatched.at(rng.uniform_int(s.unlatched.size()));
  return p;
}

TEST(VerifyRejectsMutants, Imply) {
  for (const auto& bc : mutant_bases()) {
    const auto aig = Aig::from_netlist(bc.netlist);
    const auto base = compile_imply(aig, true);
    const auto spec = aig.truth_tables();
    ASSERT_TRUE(verify_imply(base, aig)) << bc.name;
    const auto verify = [&](const ImplyProgram& p) {
      return verify_imply(p, aig);
    };
    const auto oracle = [&](const ImplyProgram& p) {
      return device_accepts(spec, 1, p.num_cells,
                            [&](crossbar::Crossbar& x, std::uint64_t a) {
                              return execute_imply(x, p, a);
                            });
    };
    for (const auto m : kCommonMutations) {
      KindTally tally{name_of(m)};
      util::Rng rng(11 + static_cast<std::uint64_t>(m));
      for (int s = 0; s < kSeedsPerKind; ++s)
        judge(bc.name + "/" + tally.kind + "#" + std::to_string(s),
              mutate(base, m, rng), verify, oracle, tally);
      EXPECT_GT(tally.rejected, 0) << bc.name << " " << tally.kind;
    }
  }
}

TEST(VerifyRejectsMutants, Magic) {
  for (const auto& bc : mutant_bases()) {
    const auto nor = Aig::from_netlist(bc.netlist).to_netlist().to_nor_only();
    const auto base = compile_magic(nor, true);
    const auto spec = nor.truth_tables();
    ASSERT_TRUE(verify_magic(base, nor)) << bc.name;
    const auto verify = [&](const MagicProgram& p) {
      return verify_magic(p, nor);
    };
    const auto oracle = [&](const MagicProgram& p) {
      return device_accepts(spec, 1, p.num_cells,
                            [&](crossbar::Crossbar& x, std::uint64_t a) {
                              return execute_magic(x, p, a);
                            });
    };
    for (const auto m : kCommonMutations) {
      KindTally tally{name_of(m)};
      util::Rng rng(23 + static_cast<std::uint64_t>(m));
      for (int s = 0; s < kSeedsPerKind; ++s)
        judge(bc.name + "/" + tally.kind + "#" + std::to_string(s),
              mutate(base, m, rng), verify, oracle, tally);
      EXPECT_GT(tally.rejected, 0) << bc.name << " " << tally.kind;
    }
    // A NOR with no inputs: the device refuses it, so must verify.
    KindTally tally{"operand-less-nor"};
    auto p = base;
    for (auto& ins : p.instrs)
      if (ins.kind == MagicInstr::Kind::kNor) {
        ins.in_cells.clear();
        break;
      }
    judge(bc.name + "/" + tally.kind, p, verify, oracle, tally);
    EXPECT_EQ(tally.rejected, 1) << bc.name;
  }
}

TEST(VerifyRejectsMutants, Revamp) {
  for (const auto& bc : mutant_bases()) {
    const auto mig = Mig::from_aig(Aig::from_netlist(bc.netlist));
    const auto base = assemble_revamp(mig, schedule_revamp(mig));
    const auto spec = mig.truth_tables();
    ASSERT_TRUE(verify_revamp(base, mig)) << bc.name;
    const auto verify = [&](const RevampProgram& p) {
      return verify_revamp(p, mig);
    };
    const auto oracle = [&](const RevampProgram& p) {
      return device_accepts(spec, p.wordlines, p.bitlines,
                            [&](crossbar::Crossbar& x, std::uint64_t a) {
                              return execute_revamp_program(x, p, a);
                            });
    };
    for (const auto m : kCommonMutations) {
      KindTally tally{name_of(m)};
      util::Rng rng(37 + static_cast<std::uint64_t>(m));
      for (int s = 0; s < kSeedsPerKind; ++s)
        judge(bc.name + "/" + tally.kind + "#" + std::to_string(s),
              mutate(base, m, rng), verify, oracle, tally);
      EXPECT_GT(tally.rejected, 0) << bc.name << " " << tally.kind;
    }
    KindTally tally{"unlatched-dmr"};
    util::Rng rng(41);
    for (int s = 0; s < kSeedsPerKind; ++s)
      judge(bc.name + "/" + tally.kind + "#" + std::to_string(s),
            unlatch_dmr(base, rng), verify, oracle, tally);
    EXPECT_EQ(tally.rejected, kSeedsPerKind) << bc.name;
  }
}

}  // namespace
}  // namespace cim::eda
