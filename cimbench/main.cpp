/// \file main.cpp
/// \brief cimbench: the repo benchmark. Drives cimlib through its public
///        API on one of three workloads and prints host-speed end-to-end
///        metrics (untraced run) or per-layer metrics (traced run).
///
/// Usage (normally through run.py, which builds this binary, pins
/// CIM_THREADS and stamps provenance):
///
///   cimbench --workload serve_steady|campaign_program|eda_suite
///            --seed N --seconds S --trace 0|1 [--smoke]
///
/// Every run repeats one unit of work (a rep) until `--seconds` of wall time
/// have passed, checking every rep's outputs outside the timed interval.
/// It sets its inputs up `kSetups` times, spread evenly over the run;
/// setup_s is the median.
///
///  - `--trace 0`: the library's telemetry is off; the last stdout line
///    carries setup_s (median setup CPU seconds), work_per_cpu_s (median
///    over reps of items per process CPU second) and peak_rss_mb. CPU time
///    rather than wall time is gated because on a shared host co-tenants
///    steal whole seconds of wall time from a run; the wall rates
///    (req_per_s, ...) are still reported.
///  - `--trace 1`: reps alternate in traced/untraced pairs (the order
///    flips every pair). Traced reps turn on CIM_OBS=metrics aggregates and
///    the benchmark's own `bench.*` spans around every public call; the
///    per-layer metrics come from obs snapshot deltas over the traced
///    reps, and the paired walls give the tracing overhead.
///
/// Simulated results and work counts are taken from the first rep (or the
/// first traced rep), so they repeat exactly for a given seed whatever the
/// host speed. The penultimate line is a `{"report": ...}` object holding
/// the workload's named metrics (req_per_s, sim_p99_us, map_devices, ...),
/// the output-check tallies and this binary's half of the provenance
/// block.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include <time.h>
#include <vector>

#include "crossbar/crossbar.hpp"
#include "device/technology.hpp"
#include "eda/bench_circuits.hpp"
#include "eda/flow.hpp"
#include "exp/campaign.hpp"
#include "fault/fault_map.hpp"
#include "obs/obs.hpp"
#include "serve/controller.hpp"
#include "serve/tile_pool.hpp"
#include "serve/traffic.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace cim;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time of the whole process (all threads), seconds.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

constexpr int kSetups = 5;    ///< setup repetitions; setup_s is their median
constexpr int kMinReps = 2;   ///< untraced reps (traced pairs) at least run

// --- small statistics helpers ------------------------------------------------

/// Quantile by linear interpolation between order statistics (q in [0,1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// --- JSON output -------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Ordered JSON object writer for the report lines.
class Json {
 public:
  Json& put(const std::string& key, const std::string& raw_json) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + raw_json;
    return *this;
  }
  Json& num(const std::string& key, double v) { return put(key, ::num(v)); }
  Json& str(const std::string& key, const std::string& v) {
    return put(key, "\"" + v + "\"");
  }
  Json& flag(const std::string& key, bool v) {
    return put(key, v ? "true" : "false");
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  Json j;
  for (const Metric& m : ms)
    j.put(m.name, Json().num("value", m.value).str("unit", m.unit).text());
  return j.text();
}

// --- obs snapshot deltas -----------------------------------------------------

/// Span wall time and counter increments accumulated over traced intervals
/// (differences of two registry snapshots).
struct Tally {
  std::map<std::string, double> span_ns;
  std::map<std::string, double> counters;

  void add(const obs::Snapshot& before, const obs::Snapshot& after) {
    std::map<std::string, double> b_spans, b_counters;
    for (const auto& s : before.spans) b_spans[s.name] = s.wall_ns;
    for (const auto& [n, v] : before.counters)
      b_counters[n] = static_cast<double>(v);
    for (const auto& s : after.spans) span_ns[s.name] += s.wall_ns - b_spans[s.name];
    for (const auto& [n, v] : after.counters)
      counters[n] += static_cast<double>(v) - b_counters[n];
  }
  double ms(std::initializer_list<const char*> names) const {
    double ns = 0.0;
    for (const char* n : names)
      if (auto it = span_ns.find(n); it != span_ns.end()) ns += it->second;
    return ns * 1e-6;
  }
  double count(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  }
};

const std::initializer_list<const char*> kVmmSpans = {
    "crossbar.vmm",       "crossbar.vmm.fast",       "crossbar.vmm.ideal",
    "crossbar.vmm_batch", "crossbar.vmm_batch.fast", "crossbar.vmm_batch.ideal"};

// --- the workload interface --------------------------------------------------

/// Output-check tally: operations attempted and failed across all reps.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  ///< first few failure descriptions

  void fail(std::uint64_t n, const std::string& what) {
    failed += n;
    if (notes.size() < 8) notes.push_back(what);
  }
};

/// One workload: inputs built by setup(), one unit of timed work per
/// rep(), untimed output checks per check().
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds (or rebuilds) every input the timed phase needs.
  virtual void setup() = 0;
  /// One unit of timed work; returns the items completed (requests,
  /// trials, flows).
  virtual std::size_t rep() = 0;
  /// Checks the outputs of the rep that just ran. `first` marks the first
  /// rep of the run, whose simulated results the report keeps.
  virtual void check(bool first, Checks& checks) = 0;
  /// The workload's named end-to-end metrics beyond the common ones.
  virtual std::vector<Metric> sim_metrics() const = 0;
  /// Name and unit of the throughput metric (req_per_s, ...).
  virtual Metric throughput_name() const = 0;
  /// Fixed parameters recorded in the report (tolerances, sizes).
  virtual Json params() const = 0;
  /// Per-layer metrics from the traced reps. `first` holds the first
  /// traced rep only (exact counts), `all` every traced rep; times are per
  /// rep (divided by `reps`). `wall_ms` is the mean traced rep wall.
  virtual std::vector<Metric> layer_metrics(const Tally& first, const Tally& all,
                                            double reps, double wall_ms,
                                            std::size_t lanes) const = 0;
  /// Per-item host times (per trial / per flow) the workload records while
  /// `record_items` is set, i.e. during traced reps.
  std::vector<double> item_ms;
  bool record_items = false;
  /// Setup-only metrics (serve.gen_ms).
  double setup_gen_ms = 0.0;
};

// Lane-time attribution shared by the three workloads: worker lanes
// 1..L-1 are idle whenever they are not running a pool body.
struct Lanes {
  double busy_total_ms = 0.0;   ///< all lanes
  double busy_workers_ms = 0.0; ///< lanes 1..L-1
  double busy_max_ms = 0.0;
  double idle_workers_ms = 0.0; ///< (L-1) * wall - busy_workers
};
Lanes lane_busy(const Tally& all, double reps, double wall_ms,
                std::size_t lanes) {
  Lanes l;
  for (std::size_t k = 0; k < lanes; ++k) {
    const double ms = all.count("threadpool.lane" + std::to_string(k) +
                                ".busy_ns") * 1e-6 / reps;
    l.busy_total_ms += ms;
    if (k > 0) l.busy_workers_ms += ms;
    l.busy_max_ms = std::max(l.busy_max_ms, ms);
  }
  l.idle_workers_ms =
      static_cast<double>(lanes - 1) * wall_ms - l.busy_workers_ms;
  return l;
}

/// The layer/self-time rows every workload prints, zero where the layer
/// does no work on that workload.
struct SelfTimes {
  double serve = 0, core = 0, crossbar = 0, fault = 0, exp = 0, eda = 0,
         util = 0, bench = 0;
  void append(std::vector<Metric>& out) const {
    out.push_back({"self.serve_ms", serve, "ms"});
    out.push_back({"self.core_ms", core, "ms"});
    out.push_back({"self.crossbar_ms", crossbar, "ms"});
    out.push_back({"self.fault_ms", fault, "ms"});
    out.push_back({"self.exp_ms", exp, "ms"});
    out.push_back({"self.eda_ms", eda, "ms"});
    out.push_back({"self.util_ms", util, "ms"});
    out.push_back({"self.bench_ms", bench, "ms"});
    out.push_back({"self.sum_ms",
                   serve + core + crossbar + fault + exp + eda + util + bench,
                   "ms"});
  }
};

/// Every per-layer metric name, in BENCHMARK.json order, with its unit. A
/// workload fills the ones its layers touch; the rest print as 0.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"serve.run_ms", "ms"},
    {"serve.gen_ms", "ms"},
    {"serve.dispatches", "count"},
    {"serve.mean_batch", "req"},
    {"serve.sim_queue_wait_us", "us"},
    {"system.vmm_int_busy_ms", "ms"},
    {"system.vmm_ops", "count"},
    {"tile.vmm_int_self_ms", "ms"},
    {"crossbar.vmm_ms", "ms"},
    {"crossbar.vmm_ops", "count"},
    {"crossbar.vmm_us_per_op", "us"},
    {"crossbar.cache_ms", "ms"},
    {"crossbar.cache_full_rebuilds", "count"},
    {"crossbar.cache_delta_updates", "count"},
    {"crossbar.program_ms", "ms"},
    {"crossbar.setup_program_ms", "ms"},
    {"crossbar.analog_writes", "count"},
    {"crossbar.cells_per_s", "cells/s"},
    {"crossbar.bit_writes", "count"},
    {"crossbar.logic_ops", "count"},
    {"fault.inject_ms", "ms"},
    {"pool.busy_frac", "fraction"},
    {"pool.lane_imbalance", "ratio"},
    {"exp.campaign_ms", "ms"},
    {"exp.rounds", "count"},
    {"exp.trial_ms_p50", "ms"},
    {"exp.trial_ms_p99", "ms"},
    {"exp.sched_overhead_frac", "fraction"},
    {"eda.flow_ms_p50", "ms"},
    {"eda.flow_ms_p90", "ms"},
    {"eda.synth_ms", "ms"},
    {"eda.map_ms", "ms"},
    {"eda.exec_ms", "ms"},
    {"eda.flow_self_ms", "ms"},
    {"self.serve_ms", "ms"},
    {"self.core_ms", "ms"},
    {"self.crossbar_ms", "ms"},
    {"self.fault_ms", "ms"},
    {"self.exp_ms", "ms"},
    {"self.eda_ms", "ms"},
    {"self.util_ms", "ms"},
    {"self.bench_ms", "ms"},
    {"self.sum_ms", "ms"},
    {"phase.wall_ms", "ms"},
    {"phase.traced_wall_ms", "ms"},
    {"phase.lane_ms", "ms"},
    {"obs.trace_overhead_frac", "fraction"},
    {"obs.trace_overhead_q1", "fraction"},
    {"obs.trace_overhead_q3", "fraction"},
    {"obs.trace_pairs", "count"},
    {"obs.trace_dropped", "count"},
};

// --- serve_steady ------------------------------------------------------------

/// Poisson open-loop stream at 80% of the pool's analytic coalesced
/// capacity into a 4-replica pool of a 128-out x 256-in layer (2 tiles per
/// replica, so the digital reduction runs). Arrivals are simulated
/// timestamps: the open loop lives in simulated time and the host executes
/// each Controller::run as one batch over the whole stream.
class ServeSteady final : public Workload {
 public:
  /// Simulated latency limit for sim_slo_frac (us).
  static constexpr double kSloLimitUs = 8.0;
  /// Largest |result - ideal| accepted, as a fraction of the layer's
  /// full-scale output (in_dim * 7 * (2^bits - 1)).
  static constexpr double kResultTol = 0.03;
  static constexpr std::size_t kOut = 128, kIn = 256, kReplicas = 4;
  static constexpr int kInputBits = 4;
  static constexpr double kLoad = 0.8;

  ServeSteady(std::uint64_t seed, bool smoke)
      : seed_(seed), requests_(smoke ? 400 : 8000) {}

  void setup() override {
    ctl_.reset();
    pool_.reset();
    stream_.clear();
    util::Rng wr(util::Rng::stream_seed(seed_, 1));
    util::Matrix w(kOut, kIn);
    for (double& v : w.flat())
      v = static_cast<double>(static_cast<long>(wr.uniform_int(15)) - 7);
    serve::TilePoolConfig pc;
    pc.replicas = kReplicas;
    pc.seed = util::Rng::stream_seed(seed_, 2);
    {
      CIM_OBS_SPAN("bench.serve.pool");
      pool_ = std::make_unique<serve::TilePool>(w, pc);
    }
    const serve::ControllerConfig cc;  // the controller's defaults
    const double s = pool_->request_latency_ns(kInputBits);
    const double b = static_cast<double>(cc.max_batch);
    capacity_rps_ = static_cast<double>(kReplicas) * 1e9 * b /
                    (cc.issue_overhead_ns + b * s);
    serve::TrafficConfig tc;
    tc.requests = requests_;
    tc.rate_rps = kLoad * capacity_rps_;
    tc.process = serve::ArrivalProcess::kPoisson;
    tc.in_dim = kIn;
    tc.input_bits = kInputBits;
    tc.inference_frac = 0.5;
    tc.seed = util::Rng::stream_seed(seed_, 3);
    const auto g0 = Clock::now();
    {
      CIM_OBS_SPAN("bench.serve.generate");
      stream_ = serve::generate(tc);
    }
    setup_gen_ms = seconds_since(g0) * 1e3;
    ctl_ = std::make_unique<serve::Controller>(*pool_, cc);
  }

  std::size_t rep() override {
    energy_before_ = pool_energy_pj();
    vmm_before_ = pool_vmm_ops();
    CIM_OBS_SPAN("bench.serve.run");
    last_ = ctl_->run(stream_, &util::ThreadPool::global());
    return last_.stats.completed;
  }

  void check(bool first, Checks& c) override {
    const auto& st = last_.stats;
    c.attempted += stream_.size();
    if (st.rejected > 0)
      c.fail(st.rejected, std::to_string(st.rejected) + " requests rejected");
    if (st.completed + st.rejected != stream_.size())
      c.fail(stream_.size() - st.completed - st.rejected,
             "requests neither completed nor rejected");
    if (ideal_.empty()) {
      ideal_.reserve(stream_.size());
      for (const auto& r : stream_)
        ideal_.push_back(pool_->replica(0).ideal_vmm_int(r.input));
    }
    const double full_scale =
        static_cast<double>(kIn) * 7.0 * ((1 << kInputBits) - 1);
    std::uint64_t bad = 0;
    std::size_t within_slo = 0;
    for (const auto& comp : last_.completions) {
      bool ok = comp.arrival_ns + comp.decomposition_sum() == comp.done_ns;
      const auto& want = ideal_.at(comp.id);
      double err = 0.0;
      if (comp.result.size() != want.size()) {
        ok = false;
      } else {
        for (std::size_t j = 0; j < want.size(); ++j)
          err = std::max(err, std::fabs(static_cast<double>(comp.result[j] -
                                                            want[j])));
        err /= full_scale;
        ok = ok && err <= kResultTol;
      }
      max_err_ = std::max(max_err_, err);
      if (comp.kind == serve::RequestKind::kInference && !comp.result.empty()) {
        const auto arg = static_cast<int>(
            std::max_element(comp.result.begin(), comp.result.end()) -
            comp.result.begin());
        ok = ok && comp.label == arg;
      }
      if (!ok) ++bad;
      if (comp.latency_ns() <= kSloLimitUs * 1e3) ++within_slo;
    }
    if (bad > 0)
      c.fail(bad, std::to_string(bad) +
                      " completions failed the decomposition/result check");
    if (!first) {
      // Simulated timing is data-independent: every rep must replay rep 0.
      if (st.p99_ns != sim_.p99_ns || st.dispatches != sim_.dispatches)
        c.fail(1, "simulated schedule differs between reps");
      return;
    }
    sim_ = st;
    slo_frac_ = ratio(static_cast<double>(within_slo),
                      static_cast<double>(st.offered));
    energy_nj_per_req_ = ratio((pool_energy_pj() - energy_before_) * 1e-3,
                               static_cast<double>(st.completed));
    system_vmm_ops_ = static_cast<double>(pool_vmm_ops() - vmm_before_);
  }

  Metric throughput_name() const override { return {"req_per_s", 0, "req/s"}; }

  std::vector<Metric> sim_metrics() const override {
    return {{"sim_p50_us", sim_.p50_ns * 1e-3, "us"},
            {"sim_p99_us", sim_.p99_ns * 1e-3, "us"},
            {"sim_p99_samples", static_cast<double>(sim_.completed), "count"},
            {"sim_slo_frac", slo_frac_, "fraction"},
            {"sim_energy_nj_per_req", energy_nj_per_req_, "nJ/req"}};
  }

  Json params() const override {
    return Json()
        .num("requests", static_cast<double>(requests_))
        .num("replicas", kReplicas)
        .num("out_dim", kOut)
        .num("in_dim", kIn)
        .num("input_bits", kInputBits)
        .num("load_frac", kLoad)
        .num("capacity_rps", capacity_rps_)
        .num("slo_limit_us", kSloLimitUs)
        .num("result_tol_frac", kResultTol)
        .num("max_result_err_frac", max_err_);
  }

  std::vector<Metric> layer_metrics(const Tally& first, const Tally& all,
                                    double reps, double wall_ms,
                                    std::size_t lanes) const override {
    const double run = all.ms({"bench.serve.run"}) / reps;
    const double sys = all.ms({"system.vmm_int"}) / reps;
    const double tile = all.ms({"tile.vmm_int"}) / reps;
    const double xb = all.ms(kVmmSpans) / reps;
    const double vmm_ops = first.count("crossbar.vmm_ops");
    const Lanes l = lane_busy(all, reps, wall_ms, lanes);
    SelfTimes s;
    s.crossbar = xb;
    s.core = sys - xb;
    // Controller::run's lane-time minus what its pool bodies spent in the
    // system layer and what worker lanes sat idle: the serve layer's own
    // scheduling plus lane 0's wait for the slowest replica.
    s.serve = run + l.busy_workers_ms - sys;
    s.util = l.idle_workers_ms;
    s.bench = wall_ms - run;
    std::vector<Metric> m = {
        {"serve.run_ms", run, "ms"},
        {"serve.dispatches", static_cast<double>(sim_.dispatches), "count"},
        {"serve.mean_batch", sim_.mean_batch, "req"},
        {"serve.sim_queue_wait_us", sim_.mean_queue_wait_ns * 1e-3, "us"},
        {"system.vmm_int_busy_ms", sys, "ms"},
        {"system.vmm_ops", system_vmm_ops_, "count"},
        {"tile.vmm_int_self_ms", tile - xb, "ms"},
        {"crossbar.vmm_ms", xb, "ms"},
        {"crossbar.vmm_ops", vmm_ops, "count"},
        {"crossbar.vmm_us_per_op",
         ratio(all.ms(kVmmSpans) * 1e3, all.count("crossbar.vmm_ops")), "us"},
        {"crossbar.cache_ms",
         all.ms({"crossbar.cache.rebuild", "crossbar.cache.delta"}) / reps, "ms"},
        {"crossbar.cache_full_rebuilds", first.count("cache.full_rebuilds"),
         "count"},
        {"crossbar.cache_delta_updates", first.count("cache.delta_updates"),
         "count"},
        {"pool.busy_frac", ratio(l.busy_total_ms, lanes * wall_ms), "fraction"},
        {"pool.lane_imbalance",
         ratio(l.busy_max_ms, l.busy_total_ms / lanes), "ratio"},
    };
    s.append(m);
    return m;
  }

 private:
  double pool_energy_pj() const {
    double e = 0.0;
    for (std::size_t r = 0; r < pool_->size(); ++r)
      e += pool_->replica(r).stats().energy_pj;
    return e;
  }
  std::uint64_t pool_vmm_ops() const {
    std::uint64_t n = 0;
    for (std::size_t r = 0; r < pool_->size(); ++r)
      n += pool_->replica(r).stats().vmm_ops;
    return n;
  }

  std::uint64_t seed_;
  std::size_t requests_;
  std::unique_ptr<serve::TilePool> pool_;
  std::unique_ptr<serve::Controller> ctl_;
  std::vector<serve::Request> stream_;
  /// Oracle results by request id, filled on the first check. Every setup
  /// rebuilds the same weights and stream from the seed, so they stay valid.
  std::vector<std::vector<long>> ideal_;
  serve::ServeReport last_;
  serve::ServeStats sim_;
  double capacity_rps_ = 0.0;
  double energy_before_ = 0.0;
  std::uint64_t vmm_before_ = 0;
  double slo_frac_ = 0.0;
  double energy_nj_per_req_ = 0.0;
  double system_vmm_ops_ = 0.0;
  double max_err_ = 0.0;
};

// --- campaign_program --------------------------------------------------------

/// Fixed-count Monte-Carlo campaign over {ReRAM-HfOx, PCM} x yield {1.0,
/// 0.95, 0.9, 0.8}. Each trial programs a fresh 128x128 array with random
/// levels (write-disturb on), injects stuck-at faults from the yield, runs
/// 8 VMMs and returns their mean relative error against ideal_vmm.
class CampaignProgram final : public Workload {
 public:
  static constexpr std::size_t kDim = 128;
  static constexpr int kVmms = 8;
  static constexpr std::array<device::Technology, 2> kTechs = {
      device::Technology::kReRamHfOx, device::Technology::kPcm};
  static constexpr std::array<double, 4> kYields = {1.0, 0.95, 0.9, 0.8};

  CampaignProgram(std::uint64_t seed, bool smoke)
      : seed_(seed), trials_(smoke ? 2 : 8) {}

  void setup() override {
    cfg_ = exp::CampaignConfig{};
    cfg_.name = "cimbench_program";
    cfg_.seed = seed_;
    cfg_.cells = kTechs.size() * kYields.size();
    for (const auto t : kTechs)
      for (const double y : kYields) {
        char label[48];
        std::snprintf(label, sizeof label, "%s_y%.2f",
                      std::string(device::technology_name(t)).c_str(), y);
        cfg_.cell_names.emplace_back(label);
      }
    cfg_.adaptive = false;
    cfg_.fixed_trials = trials_;
    cfg_.block = 2;
    cfg_.pool = &util::ThreadPool::global();
    slots_.assign(cfg_.cells * trials_, 0.0);
    // Pilot: one trial per cell, so thread start-up, allocator growth and
    // first-touch page faults land in setup rather than in the first rep.
    auto pilot = cfg_;
    pilot.fixed_trials = 1;
    pilot.block = 1;
    CIM_OBS_SPAN("bench.exp.pilot");
    (void)exp::run_campaign(pilot, [this](std::size_t cell, std::uint64_t,
                                          util::Rng& rng) {
      return trial(cell, rng);
    });
  }

  std::size_t rep() override {
    CIM_OBS_SPAN("bench.exp.run_campaign");
    last_ = exp::run_campaign(
        cfg_, [this](std::size_t cell, std::uint64_t r, util::Rng& rng) {
          const auto t0 = Clock::now();
          const double err = trial(cell, rng);
          if (record_items && r < trials_)
            slots_[cell * trials_ + r] = seconds_since(t0) * 1e3;
          return err;
        });
    if (record_items) item_ms.insert(item_ms.end(), slots_.begin(), slots_.end());
    return last_.total_trials;
  }

  void check(bool first, Checks& c) override {
    c.attempted += cfg_.cells * trials_;
    for (const auto& cell : last_.cells)
      if (cell.stat.n != trials_)
        c.fail(trials_ > cell.stat.n ? trials_ - cell.stat.n : 1,
               cell.name + " ran " + std::to_string(cell.stat.n) + " trials");
    // The paper's accuracy-vs-yield trend: error must not fall as yield
    // drops, per technology.
    for (std::size_t t = 0; t < kTechs.size(); ++t)
      for (std::size_t y = 1; y < kYields.size(); ++y) {
        const auto& hi = last_.cells.at(t * kYields.size() + y - 1);
        const auto& lo = last_.cells.at(t * kYields.size() + y);
        if (lo.stat.mean < hi.stat.mean)
          c.fail(1, lo.name + " error below " + hi.name);
      }
    std::vector<double> means;
    for (const auto& cell : last_.cells) means.push_back(cell.stat.mean);
    if (first) {
      means_ = means;
      rounds_ = last_.rounds;
    } else if (means != means_) {
      c.fail(1, "cell means differ between reps of the same campaign");
    }
  }

  Metric throughput_name() const override {
    return {"trials_per_s", 0, "trials/s"};
  }
  std::vector<Metric> sim_metrics() const override { return {}; }

  Json params() const override {
    Json cells;
    for (std::size_t i = 0; i < means_.size(); ++i)
      cells.num(cfg_.cell_names.at(i), means_[i]);
    return Json()
        .num("trials_per_cell", static_cast<double>(trials_))
        .num("cells", static_cast<double>(cfg_.cells))
        .num("array_dim", kDim)
        .num("vmms_per_trial", kVmms)
        .put("mean_rel_err", cells.text());
  }

  std::vector<Metric> layer_metrics(const Tally& first, const Tally& all,
                                    double reps, double wall_ms,
                                    std::size_t lanes) const override {
    const double run = all.ms({"bench.exp.run_campaign"}) / reps;
    const double trials = all.ms({"bench.exp.trial"}) / reps;
    const double xb = all.ms({"bench.crossbar.build", "bench.crossbar.vmm"}) / reps;
    const double fault = all.ms({"bench.fault.inject"}) / reps;
    const double prog = all.ms({"crossbar.program"}) / reps;
    const Lanes l = lane_busy(all, reps, wall_ms, lanes);
    SelfTimes s;
    s.crossbar = xb;
    s.fault = fault;
    // run_campaign's lane-time outside the trial bodies: task scheduling,
    // Welford merges, and lane 0's wait for the slowest block.
    s.exp = run + l.busy_workers_ms - trials;
    s.util = l.idle_workers_ms;
    s.bench = (wall_ms - run) + (trials - xb - fault);
    std::vector<Metric> m = {
        {"crossbar.vmm_ms", all.ms(kVmmSpans) / reps, "ms"},
        {"crossbar.vmm_ops", first.count("crossbar.vmm_ops"), "count"},
        {"crossbar.vmm_us_per_op",
         ratio(all.ms(kVmmSpans) * 1e3, all.count("crossbar.vmm_ops")), "us"},
        {"crossbar.cache_ms",
         all.ms({"crossbar.cache.rebuild", "crossbar.cache.delta"}) / reps, "ms"},
        {"crossbar.cache_full_rebuilds", first.count("cache.full_rebuilds"),
         "count"},
        {"crossbar.cache_delta_updates", first.count("cache.delta_updates"),
         "count"},
        {"crossbar.program_ms", prog, "ms"},
        {"crossbar.analog_writes", first.count("crossbar.analog_writes"),
         "count"},
        {"crossbar.cells_per_s",
         ratio(all.count("crossbar.analog_writes"),
               all.ms({"crossbar.program"}) * 1e-3),
         "cells/s"},
        {"fault.inject_ms", fault, "ms"},
        {"pool.busy_frac", ratio(l.busy_total_ms, lanes * wall_ms), "fraction"},
        {"pool.lane_imbalance",
         ratio(l.busy_max_ms, l.busy_total_ms / lanes), "ratio"},
        {"exp.campaign_ms", run, "ms"},
        {"exp.rounds", static_cast<double>(rounds_), "count"},
        {"exp.trial_ms_p50", quantile(item_ms, 0.5), "ms"},
        {"exp.trial_ms_p99", quantile(item_ms, 0.99), "ms"},
        {"exp.sched_overhead_frac", 1.0 - ratio(trials, lanes * run),
         "fraction"},
    };
    s.append(m);
    return m;
  }

 private:
  double trial(std::size_t cell, util::Rng& rng) const {
    CIM_OBS_SPAN("bench.exp.trial");
    const auto tech = kTechs.at(cell / kYields.size());
    const double yield = kYields.at(cell % kYields.size());
    crossbar::CrossbarConfig xc;
    xc.rows = kDim;
    xc.cols = kDim;
    xc.tech = tech;
    xc.levels = std::min(16, device::technology_params(tech).max_levels);
    xc.seed = rng();
    util::Matrix levels(kDim, kDim);
    for (double& v : levels.flat())
      v = static_cast<double>(rng.uniform_int(static_cast<std::uint64_t>(xc.levels)));
    std::unique_ptr<crossbar::Crossbar> xb;
    {
      CIM_OBS_SPAN("bench.crossbar.build");
      xb = std::make_unique<crossbar::Crossbar>(xc);
      xb->program_levels(levels);
    }
    if (yield < 1.0) {
      CIM_OBS_SPAN("bench.fault.inject");
      const auto map = fault::FaultMap::from_yield(
          kDim, kDim, yield, fault::FaultMix::stuck_at_only(), rng);
      xb->apply_faults(map);
    }
    double err_sum = 0.0;
    std::vector<double> v(kDim);
    for (int k = 0; k < kVmms; ++k) {
      for (double& x : v) x = rng.uniform(0.0, 0.3);
      std::vector<double> y, ideal;
      {
        CIM_OBS_SPAN("bench.crossbar.vmm");
        y = xb->vmm(v);
        ideal = xb->ideal_vmm(v);
      }
      double num = 0.0, den = 0.0;
      for (std::size_t j = 0; j < y.size(); ++j) {
        num += (y[j] - ideal[j]) * (y[j] - ideal[j]);
        den += ideal[j] * ideal[j];
      }
      err_sum += std::sqrt(ratio(num, den));
    }
    return err_sum / kVmms;
  }

  std::uint64_t seed_;
  std::uint64_t trials_;
  exp::CampaignConfig cfg_;
  exp::CampaignResult last_;
  std::vector<double> slots_;  ///< per (cell, rep) trial wall of the last rep
  std::vector<double> means_;
  std::uint64_t rounds_ = 0;
};

// --- eda_suite ---------------------------------------------------------------

/// eda::run_flow over standard_suite(seed) x {IMPLY, Majority, MAGIC} with
/// verify and lint on, the flows fanned out over the pool. No analog
/// programming and no VMM: the digital (stateful-logic) use of the crossbar.
class EdaSuite final : public Workload {
 public:
  EdaSuite(std::uint64_t seed, bool smoke) : seed_(seed), smoke_(smoke) {}

  void setup() override {
    const auto g0 = Clock::now();
    {
      CIM_OBS_SPAN("bench.eda.standard_suite");
      suite_ = eda::standard_suite(seed_);
    }
    if (smoke_) suite_.erase(suite_.begin() + 3, suite_.end());
    setup_gen_ms = seconds_since(g0) * 1e3;
    jobs_.clear();
    for (std::size_t c = 0; c < suite_.size(); ++c)
      for (const auto f : eda::all_logic_families()) jobs_.push_back({c, f});
    // The cross-tile hazard analysis is a suite-level pass: run_suite
    // schedules every compiled program on a shared tile pool and sets
    // FlowReport::hazard_clean, which run_flow alone leaves at its default.
    CIM_OBS_SPAN("bench.eda.run_suite");
    hazard_ref_ = eda::run_suite(suite_, opts_);
  }

  std::size_t rep() override {
    reports_.assign(jobs_.size(), eda::FlowReport{});
    std::vector<double> ms(jobs_.size(), 0.0);
    {
      CIM_OBS_SPAN("bench.eda.suite");
      util::ThreadPool::global().parallel_for(0, jobs_.size(), [&](std::size_t i) {
        CIM_OBS_SPAN("bench.eda.run_flow");
        const auto t0 = Clock::now();
        const auto& bc = suite_[jobs_[i].circuit];
        reports_[i] = eda::run_flow(bc.name, bc.netlist, jobs_[i].family, opts_);
        ms[i] = seconds_since(t0) * 1e3;
      });
    }
    if (record_items) item_ms.insert(item_ms.end(), ms.begin(), ms.end());
    return jobs_.size();
  }

  void check(bool first, Checks& c) override {
    c.attempted += reports_.size();
    double devices = 0.0, delay = 0.0;
    for (std::size_t i = 0; i < reports_.size(); ++i) {
      const auto& r = reports_[i];
      const auto& ref = hazard_ref_.at(i);
      const bool ok = r.verified && r.lint_clean && ref.hazard_clean &&
                      ref.circuit == r.circuit && ref.family == r.family &&
                      ref.devices == r.devices && ref.delay == r.delay;
      if (!ok)
        c.fail(1, r.circuit + "/" +
                      std::string(eda::logic_family_name(r.family)) +
                      " failed verify/lint/hazard");
      devices += static_cast<double>(r.devices);
      delay += static_cast<double>(r.delay);
    }
    if (first) {
      devices_ = devices;
      delay_ = delay;
    } else if (devices != devices_ || delay != delay_) {
      c.fail(1, "mapped area/delay differ between reps");
    }
  }

  Metric throughput_name() const override {
    return {"flows_per_s", 0, "flows/s"};
  }
  std::vector<Metric> sim_metrics() const override {
    return {{"map_devices", devices_, "cells"},
            {"map_delay_steps", delay_, "steps"}};
  }
  Json params() const override {
    return Json()
        .num("circuits", static_cast<double>(suite_.size()))
        .num("flows_per_rep", static_cast<double>(jobs_.size()))
        .flag("verify", opts_.verify)
        .flag("lint", opts_.lint);
  }

  std::vector<Metric> layer_metrics(const Tally& first, const Tally& all,
                                    double reps, double wall_ms,
                                    std::size_t lanes) const override {
    const double suite = all.ms({"bench.eda.suite"}) / reps;
    const double flows = all.ms({"bench.eda.run_flow"}) / reps;
    const double run = all.ms({"eda.flow.run"}) / reps;
    const double synth = all.ms({"eda.flow.synth"}) / reps;
    const double map = all.ms({"eda.flow.map"}) / reps;
    const double exec =
        all.ms({"eda.exec.imply", "eda.exec.magic", "eda.exec.revamp"}) / reps;
    const Lanes l = lane_busy(all, reps, wall_ms, lanes);
    SelfTimes s;
    s.eda = run;
    // The benchmark's own parallel_for: lane-time in it not spent in a flow
    // body is pool dispatch, lane 0's wait for the slowest flow, and idle
    // workers.
    s.util = static_cast<double>(lanes) * suite - flows +
             static_cast<double>(lanes - 1) * (wall_ms - suite);
    s.bench = (wall_ms - suite) + (flows - run);
    std::vector<Metric> m = {
        {"crossbar.bit_writes", first.count("crossbar.bit_writes"), "count"},
        {"crossbar.logic_ops", first.count("crossbar.logic_ops"), "count"},
        {"pool.busy_frac", ratio(l.busy_total_ms, lanes * wall_ms), "fraction"},
        {"pool.lane_imbalance",
         ratio(l.busy_max_ms, l.busy_total_ms / lanes), "ratio"},
        {"eda.flow_ms_p50", quantile(item_ms, 0.5), "ms"},
        {"eda.flow_ms_p90", quantile(item_ms, 0.9), "ms"},
        {"eda.synth_ms", synth, "ms"},
        {"eda.map_ms", map, "ms"},
        {"eda.exec_ms", exec, "ms"},
        {"eda.flow_self_ms", run - synth - map, "ms"},
    };
    s.append(m);
    return m;
  }

 private:
  struct Job {
    std::size_t circuit;
    eda::LogicFamily family;
  };
  std::uint64_t seed_;
  bool smoke_;
  eda::FlowOptions opts_{};  // verify and lint on (the defaults)
  std::vector<eda::BenchmarkCircuit> suite_;
  std::vector<Job> jobs_;  ///< (circuit, family) in run_suite's order
  std::vector<eda::FlowReport> hazard_ref_;
  std::vector<eda::FlowReport> reports_;
  double devices_ = 0.0;
  double delay_ = 0.0;
};

// --- main --------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "cimbench: %s\nusage: cimbench --workload "
               "serve_steady|campaign_program|eda_suite --seed N "
               "--seconds S --trace 0|1 [--smoke]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("bad --seed " + v);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0.0) || o.seconds > 600.0)
        usage("bad --seconds " + v);
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace " + v);
      o.trace = v == "1";
    } else {
      usage("unknown argument " + a);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "serve_steady")
    return std::make_unique<ServeSteady>(o.seed, o.smoke);
  if (o.workload == "campaign_program")
    return std::make_unique<CampaignProgram>(o.seed, o.smoke);
  if (o.workload == "eda_suite")
    return std::make_unique<EdaSuite>(o.seed, o.smoke);
  usage("unknown workload " + o.workload);
}

volatile std::int64_t g_clock_sink = 0;

/// Cost of one steady_clock read (ns), the unit every span pays twice.
double clock_read_ns() {
  constexpr int kReads = 200000;
  std::int64_t sink = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < kReads; ++i) sink += Clock::now().time_since_epoch().count();
  g_clock_sink = sink;
  return seconds_since(t0) * 1e9 / kReads;
}

obs::Snapshot snap() { return obs::snapshot(); }

/// Peak resident set of this process image (MB). VmHWM restarts at exec,
/// unlike getrusage's ru_maxrss, which keeps the launcher's pre-exec peak.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kb = -1.0;
    while (std::fgets(line, sizeof line, f) != nullptr)
      if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
    std::fclose(f);
    if (kb > 0.0) return kb / 1024.0;
  }
  return obs::peak_rss_mb();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  // Refuse anything but an optimized, pinned-thread run: numbers from other
  // configurations are not comparable with the recorded ones.
  const obs::BuildInfo build = obs::build_info();
#ifndef NDEBUG
  const bool ndebug = false;
#else
  const bool ndebug = true;
#endif
  if (std::string(CIMBENCH_BUILD_TYPE) != "Release" ||
      build.build_type != "Release" || !ndebug) {
    std::fprintf(stderr, "cimbench: refusing to run a %s build (need Release)\n",
                 CIMBENCH_BUILD_TYPE);
    return 2;
  }
  const char* env_threads = std::getenv("CIM_THREADS");
  const std::size_t threads = util::ThreadPool::parse_threads(env_threads);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  if (threads == 0 || threads > nproc) {
    std::fprintf(stderr,
                 "cimbench: CIM_THREADS must be set to 1..%u (got '%s')\n",
                 nproc, env_threads != nullptr ? env_threads : "");
    return 2;
  }
  util::ThreadPool& tp = util::ThreadPool::global();
  const std::size_t lanes = tp.thread_count();

  obs::set_mode(obs::Mode::kOff);
  auto wl = make_workload(opt);
  const double clock_ns = clock_read_ns();

  // --- setup, repeated; the traced run traces it for the setup-side layers.
  std::vector<double> setup_wall_s, setup_cpu_s, gen_ms;
  Tally setup_tally;
  auto run_setup = [&] {
    if (opt.trace) obs::set_mode(obs::Mode::kMetrics);
    const auto before = opt.trace ? snap() : obs::Snapshot{};
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    wl->setup();
    setup_wall_s.push_back(seconds_since(t0));
    setup_cpu_s.push_back(cpu_seconds() - c0);
    if (opt.trace) {
      setup_tally.add(before, snap());
      obs::set_mode(obs::Mode::kOff);
    }
    gen_ms.push_back(wl->setup_gen_ms);
  };
  run_setup();

  // --- timed phase.
  Checks checks;
  // Per rep: items per wall second and per process CPU second. CPU time
  // excludes what co-tenants steal from a shared host, so the CPU rate is
  // the steady one; the wall rate is what a user waits for.
  std::vector<double> wall_rate, cpu_rate;
  std::vector<double> plain_ms, traced_ms;
  std::vector<double> overhead_cpu, overhead_wall;
  Tally first, all;
  std::size_t reps = 0;
  const auto phase0 = Clock::now();
  auto run_rep = [&](bool traced) {
    const bool first_traced = traced && traced_ms.empty();
    obs::Snapshot before;
    if (traced) {
      wl->record_items = true;
      obs::set_mode(obs::Mode::kMetrics);
      before = snap();
    }
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    const auto items = static_cast<double>(wl->rep());
    const double ms = seconds_since(t0) * 1e3;
    const double cpu_s = cpu_seconds() - c0;
    if (traced) {
      const auto after = snap();
      obs::set_mode(obs::Mode::kOff);
      wl->record_items = false;
      all.add(before, after);
      if (first_traced) first.add(before, after);
      traced_ms.push_back(ms);
    } else {
      plain_ms.push_back(ms);
    }
    wall_rate.push_back(items / (ms * 1e-3));
    cpu_rate.push_back(items / cpu_s);
    wl->check(reps == 0, checks);
    ++reps;
    return std::pair{ms, cpu_s};
  };
  // The remaining setups are spread evenly over the run (each rebuilds the
  // same inputs from the seed), so setup_s samples the host's speed across
  // the whole run rather than during its first seconds.
  auto setup_due = [&] {
    const auto done = static_cast<double>(setup_cpu_s.size());
    if (done < kSetups && seconds_since(phase0) >= done * opt.seconds / kSetups)
      run_setup();
  };
  if (!opt.trace) {
    while (reps < static_cast<std::size_t>(kMinReps) ||
           seconds_since(phase0) < opt.seconds) {
      setup_due();
      run_rep(false);
    }
  } else {
    for (std::size_t p = 0; p < static_cast<std::size_t>(kMinReps) ||
                            seconds_since(phase0) < opt.seconds;
         ++p) {
      setup_due();
      // Interleaved A/B pairs, order flipped every pair, so drift in host
      // speed cancels instead of landing on one side.
      std::pair<double, double> t, u;
      if (p % 2 == 0) {
        t = run_rep(true);
        u = run_rep(false);
      } else {
        u = run_rep(false);
        t = run_rep(true);
      }
      overhead_wall.push_back(t.first / u.first - 1.0);
      overhead_cpu.push_back(t.second / u.second - 1.0);
    }
  }
  while (setup_cpu_s.size() < static_cast<std::size_t>(kSetups)) run_setup();

  // --- report.
  const double peak_rss = peak_rss_mb();
  const double setup_s = median(setup_cpu_s);
  const double work_per_cpu_s = median(cpu_rate);
  const double error_frac = ratio(static_cast<double>(checks.failed),
                                  static_cast<double>(checks.attempted));
  // Wall rates of a traced run mix traced and untraced reps; report the
  // untraced run's only.
  Metric tput = wl->throughput_name();
  tput.value = opt.trace ? 0.0 : median(wall_rate);
  Metric tput_cpu = tput;
  tput_cpu.name.replace(tput_cpu.name.find("_per_s"), 6, "_per_cpu_s");
  tput_cpu.unit.replace(tput_cpu.unit.find("/s"), 2, "/cpu-s");
  tput_cpu.value = opt.trace ? 0.0 : work_per_cpu_s;

  std::vector<Metric> named = {{"setup_s", setup_s, "s"},
                               {"setup_wall_s", median(setup_wall_s), "s"},
                               tput,
                               tput_cpu,
                               {"peak_rss_mb", peak_rss, "MB"},
                               {"error_frac", error_frac, "fraction"}};
  for (const Metric& m : wl->sim_metrics()) named.push_back(m);

  std::vector<Metric> final_metrics;
  bool trace_valid = true;
  Json overhead_json;
  if (!opt.trace) {
    final_metrics = {{"setup_s", setup_s, "s"},
                     {"work_per_cpu_s", work_per_cpu_s, "1/cpu-s"},
                     {"peak_rss_mb", peak_rss, "MB"}};
  } else {
    const double n = static_cast<double>(traced_ms.size());
    double traced_mean = 0.0, plain_mean = 0.0;
    for (double v : traced_ms) traced_mean += v / n;
    for (double v : plain_ms) plain_mean += v / static_cast<double>(plain_ms.size());
    std::map<std::string, double> got;
    for (const Metric& m :
         wl->layer_metrics(first, all, n, traced_mean, lanes))
      got[m.name] = m.value;
    got["serve.gen_ms"] = opt.workload == "serve_steady" ? median(gen_ms) : 0.0;
    got["crossbar.setup_program_ms"] =
        setup_tally.ms({"crossbar.program"}) / kSetups;
    got["phase.wall_ms"] = plain_mean;
    got["phase.traced_wall_ms"] = traced_mean;
    got["phase.lane_ms"] = static_cast<double>(lanes) * plain_mean;
    // Wall basis, like the lane-time self times it must reconcile with.
    const double q1 = quantile(overhead_wall, 0.25);
    const double q3 = quantile(overhead_wall, 0.75);
    got["obs.trace_overhead_frac"] = median(overhead_wall);
    got["obs.trace_overhead_q1"] = q1;
    got["obs.trace_overhead_q3"] = q3;
    got["obs.trace_pairs"] = static_cast<double>(overhead_wall.size());
    const double dropped = [] {
      for (const auto& [name, v] : obs::snapshot().counters)
        if (name == "obs.trace.dropped") return static_cast<double>(v);
      return 0.0;
    }();
    got["obs.trace_dropped"] = dropped;
    trace_valid = dropped == 0.0;
    for (const auto& [name, unit] : kLayerMetrics)
      final_metrics.push_back({name, got.count(name) ? got[name] : 0.0, unit});
    overhead_json.num("median", median(overhead_wall))
        .num("q1", q1)
        .num("q3", q3)
        .num("pairs", static_cast<double>(overhead_wall.size()))
        .str("verdict", q1 <= 0.0 && q3 >= 0.0 ? "inconclusive"
                        : q1 > 0.0             ? "positive"
                                               : "negative")
        .num("cpu_median", median(overhead_cpu))
        .num("cpu_q1", quantile(overhead_cpu, 0.25))
        .num("cpu_q3", quantile(overhead_cpu, 0.75));
  }

  std::string notes = "[";
  for (std::size_t i = 0; i < checks.notes.size(); ++i)
    notes += (i ? ",\"" : "\"") + checks.notes[i] + "\"";
  notes += "]";
  Json report;
  report.str("workload", opt.workload)
      .num("seed", static_cast<double>(opt.seed))
      .num("trace", opt.trace ? 1 : 0)
      .flag("smoke", opt.smoke)
      .num("reps", static_cast<double>(reps))
      .num("timed_s", seconds_since(phase0))
      .num("wall_rate_q1", quantile(wall_rate, 0.25))
      .num("wall_rate_q3", quantile(wall_rate, 0.75))
      .put("params", wl->params().text())
      .put("metrics", metrics_json(named))
      .put("checks", Json()
                         .num("attempted", static_cast<double>(checks.attempted))
                         .num("failed", static_cast<double>(checks.failed))
                         .put("notes", notes)
                         .text());
  if (opt.trace) report.put("trace_overhead", overhead_json.text());
  report.put("provenance", Json()
                               .str("build_type", build.build_type)
                               .str("compiler", CIMBENCH_CXX)
                               .str("simd_isa", build.simd_isa)
                               .num("threads", static_cast<double>(lanes))
                               .num("nproc", nproc)
                               .num("clock_read_ns", clock_ns)
                               .num("seed", static_cast<double>(opt.seed))
                               .text());
  std::printf("%s\n", Json().put("report", report.text()).text().c_str());

  const bool correct = checks.failed == 0 && trace_valid;
  std::printf("%s\n", Json()
                          .flag("correct", correct)
                          .num("attempted", static_cast<double>(checks.attempted))
                          .num("failed", static_cast<double>(checks.failed))
                          .put("metrics", metrics_json(final_metrics))
                          .text()
                          .c_str());
  return 0;
}
