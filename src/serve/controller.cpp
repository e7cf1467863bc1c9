#include "serve/controller.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/flight.hpp"
#include "obs/obs.hpp"
#include "obs/prom.hpp"
#include "obs/trace_events.hpp"
#include "serve/reqlog.hpp"
#include "util/record_io.hpp"

namespace cim::serve {

namespace {

/// Latency histogram bounds (ns): geometric 2x ladder from 250 ns to ~4 ms,
/// wide enough for sub-us tile service times and deep overload queues.
std::vector<double> latency_bounds() {
  std::vector<double> b;
  for (double v = 250.0; v <= 4.0e6; v *= 2.0) b.push_back(v);
  return b;
}

/// Exact q-quantile of a sorted sample (nearest-rank; the per-request
/// records are all in hand, unlike the scrape-side histogram estimate).
double exact_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size());
  std::size_t idx = static_cast<std::size_t>(std::ceil(rank));
  if (idx > 0) --idx;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

int argmax_label(const std::vector<long>& logits) {
  if (logits.empty()) return -1;
  return static_cast<int>(
      std::max_element(logits.begin(), logits.end()) - logits.begin());
}

/// One flushed batch: everything phase 2 needs to execute it and the
/// request indices whose completions it fills.
struct PlannedBatch {
  std::size_t replica = 0;
  int input_bits = 4;
  crossbar::FidelityTier tier = crossbar::FidelityTier::kFull;
  std::vector<std::size_t> members;  ///< indices into the request span
};

/// Batch-coalescing queue for one (input_bits, requested tier) class.
struct PendingClass {
  std::vector<std::size_t> members;
  double oldest_arrival_ns = 0.0;
};

/// One sealed batch's controller decision, kept for the flight recorder
/// (the "what did the controller do right before the breach" half of the
/// post-mortem ring).
struct BatchDecision {
  double seal_ns = 0.0;   ///< flush time (size or deadline trigger)
  double start_ns = 0.0;  ///< dispatch start on the chosen replica
  std::size_t replica = 0;
  std::size_t size = 0;
  int input_bits = 4;
  crossbar::FidelityTier tier = crossbar::FidelityTier::kFull;
  bool escalated = false;
};

std::string flight_completion_line(const Completion& c) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"event\":\"done\",\"id\":%llu,\"replica\":%zu,"
                "\"batch\":%zu,\"tier\":\"%s\",\"arrival_ns\":%.17g,"
                "\"done_ns\":%.17g,\"latency_ns\":%.17g,\"queue_wait_ns\":"
                "%.17g}",
                static_cast<unsigned long long>(c.id), c.replica, c.batch_size,
                crossbar::tier_name(c.tier), c.arrival_ns, c.done_ns,
                c.latency_ns(), c.queue_wait_ns);
  return buf;
}

std::string flight_rejection_line(const Rejection& r) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "{\"event\":\"rejected\",\"id\":%llu,\"arrival_ns\":%.17g}",
                static_cast<unsigned long long>(r.id), r.arrival_ns);
  return buf;
}

std::string flight_batch_line(const BatchDecision& b) {
  char buf[224];
  std::snprintf(buf, sizeof buf,
                "{\"event\":\"batch\",\"seal_ns\":%.17g,\"start_ns\":%.17g,"
                "\"replica\":%zu,\"size\":%zu,\"bits\":%d,\"tier\":\"%s\","
                "\"escalated\":%s}",
                b.seal_ns, b.start_ns, b.replica, b.size, b.input_bits,
                crossbar::tier_name(b.tier), b.escalated ? "true" : "false");
  return buf;
}

}  // namespace

Controller::Controller(TilePool& pool, ControllerConfig cfg)
    : pool_(pool), cfg_(cfg) {
  if (cfg_.max_batch == 0)
    throw std::invalid_argument("Controller: max_batch must be >= 1");
  if (cfg_.queue_capacity == 0)
    throw std::invalid_argument("Controller: queue_capacity must be >= 1");
  obs::maybe_start_prometheus_from_env();
}

ServeReport Controller::run(std::span<const Request> requests,
                            util::ThreadPool* tp) {
  auto& reg = obs::Registry::global();
  auto& m_requests = reg.counter("serve.requests");
  auto& m_rejected = reg.counter("serve.rejected");
  auto& m_dispatches = reg.counter("serve.dispatches");
  auto& m_escalated = reg.counter("serve.escalated");
  static const std::vector<double> kLatencyBounds = latency_bounds();
  auto& m_latency = reg.histogram("serve.latency_ns", kLatencyBounds);
  auto& m_batch_wait = reg.histogram("serve.batch_wait_ns", kLatencyBounds);
  auto& m_queue_wait = reg.histogram("serve.queue_wait_ns", kLatencyBounds);
  auto& g_queue = reg.gauge("serve.queue_depth");
  auto& g_inflight = reg.gauge("serve.inflight");

  const std::size_t n = requests.size();
  const std::size_t replicas = pool_.size();

  ServeReport report;
  report.stats.offered = n;
  report.stats.per_replica_requests.assign(replicas, 0);
  report.stats.per_replica_utilization.assign(replicas, 0.0);
  if (n == 0) return report;

  // ---- Phase 1: serial event-driven schedule (simulated time) -------------
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (requests[a].arrival_ns != requests[b].arrival_ns)
      return requests[a].arrival_ns < requests[b].arrival_ns;
    return requests[a].id < requests[b].id;
  });

  // Health scores are read once per run: routing reacts to the wear the
  // previous traffic epochs produced, not to in-flight execution.
  std::vector<double> health(replicas, 0.0);
  if (cfg_.routing == RoutingPolicy::kWearAware) health = pool_.health_scores();

  std::vector<Completion> completions(n);
  std::vector<char> completed(n, 0);
  std::vector<PlannedBatch> plan;
  std::vector<double> busy_until(replicas, 0.0);
  std::vector<double> busy_ns(replicas, 0.0);

  // Coalescing state: one queue per compatibility class, deterministic
  // iteration via std::map ordering.
  std::map<std::pair<int, int>, PendingClass> pending;
  std::size_t pending_total = 0;

  // Occupancy tracking. A dispatched request still *queues* until its
  // batch's start time (it sits in the chosen replica's backlog), then is
  // *in flight* until its done time. Queue depth — the quantity admission
  // control and tier escalation react to — is therefore
  // pending (coalescing) + dispatched-but-unstarted.
  using MinHeap =
      std::priority_queue<double, std::vector<double>, std::greater<>>;
  MinHeap start_heap;  ///< batch start times of dispatched requests
  MinHeap done_heap;   ///< completion times of dispatched requests
  auto queue_depth_now = [&]() { return pending_total + start_heap.size(); };
  // Executing = started but not done (done implies started, so the heap
  // sizes difference counts exactly the in-service requests).
  auto inflight_now = [&]() { return done_heap.size() - start_heap.size(); };

  std::size_t rejected = 0;
  std::size_t escalated = 0;
  std::size_t dispatches = 0;
  double queue_depth_sum = 0.0;
  double inflight_sum = 0.0;
  std::size_t samples = 0;
  std::size_t max_queue_depth = 0;

  auto sample_occupancy = [&]() {
    const std::size_t depth = queue_depth_now();
    queue_depth_sum += static_cast<double>(depth);
    inflight_sum += static_cast<double>(inflight_now());
    max_queue_depth = std::max(max_queue_depth, depth);
    ++samples;
  };
  // Advances the occupancy clock to `now`, taking a sample at every
  // completion event on the way: arrival-only sampling never observes the
  // drain intervals between bursts and biases MMPP occupancy low.
  auto advance_to = [&](double now) {
    while (!done_heap.empty() && done_heap.top() <= now) {
      const double t = done_heap.top();
      while (!start_heap.empty() && start_heap.top() <= t) start_heap.pop();
      done_heap.pop();
      sample_occupancy();
    }
    while (!start_heap.empty() && start_heap.top() <= now) start_heap.pop();
  };

  struct ServiceParts {
    bool set = false;
    core::CimSystem::RequestLatencyParts parts;
    double total_ns = 0.0;
  };
  std::vector<ServiceParts> service_by_bits(17);
  auto service_parts = [&](int bits) -> const ServiceParts& {
    ServiceParts& s = service_by_bits.at(static_cast<std::size_t>(bits));
    if (!s.set) {
      s.parts = pool_.request_latency_parts(bits);
      s.total_ns = s.parts.bitserial_ns + s.parts.reduce_ns;
      s.set = true;
    }
    return s;
  };

  auto route = [&](double now) -> std::size_t {
    switch (cfg_.routing) {
      case RoutingPolicy::kRoundRobin: {
        const std::size_t r = rr_next_ % replicas;
        ++rr_next_;
        return r;
      }
      case RoutingPolicy::kLeastLoaded:
      case RoutingPolicy::kWearAware: {
        std::size_t best = 0;
        double best_cost = 0.0;
        for (std::size_t r = 0; r < replicas; ++r) {
          double cost = std::max(busy_until[r] - now, 0.0);
          if (cfg_.routing == RoutingPolicy::kWearAware)
            cost += cfg_.wear_penalty_ns * health[r];
          if (r == 0 || cost < best_cost) {
            best = r;
            best_cost = cost;
          }
        }
        return best;
      }
    }
    return 0;
  };

  // Request-lifecycle observability state (all cheap no-ops when off).
  const bool windows_on = cfg_.window_ns > 0.0;
  const bool slo_on = windows_on && cfg_.slo_target_ns > 0.0;
  const bool flight_on = !cfg_.flight_dump_path.empty();
  const bool trace_on = obs::trace_enabled();
  std::vector<BatchDecision> batch_log;
  std::vector<Rejection> rejections;

  auto flush = [&](std::map<std::pair<int, int>, PendingClass>::iterator it,
                   double now) {
    PendingClass& cls = it->second;
    const int bits = it->first.first;
    auto tier = static_cast<crossbar::FidelityTier>(it->first.second);
    bool batch_escalated = false;

    // Load shedding: under a deep queue, downgrade full-fidelity batches to
    // the calibrated tier (PR 7's cheaper read path).
    if (cfg_.tier_escalation && tier == crossbar::FidelityTier::kFull &&
        queue_depth_now() >= cfg_.escalation_queue_depth) {
      tier = crossbar::FidelityTier::kCalibrated;
      escalated += cls.members.size();
      batch_escalated = true;
    }

    const std::size_t replica = route(now);
    const double start = std::max(now, busy_until[replica]);
    const ServiceParts& sp = service_parts(bits);
    const double s = sp.total_ns;
    const std::size_t b = cls.members.size();

    for (std::size_t j = 0; j < b; ++j) {
      const std::size_t idx = cls.members[j];
      Completion& c = completions[idx];
      c.id = requests[idx].id;
      c.kind = requests[idx].kind;
      c.arrival_ns = requests[idx].arrival_ns;
      c.dispatch_ns = start;
      c.replica = replica;
      c.batch_size = b;
      c.tier = tier;
      c.escalated = batch_escalated;
      // Exact lifecycle decomposition. Requests in a coalesced batch still
      // execute bit-serially one after another; the win is paying the
      // issue overhead once. done_ns is *constructed* as arrival +
      // decomposition_sum() (same left-to-right order), so the components
      // sum to the end-to-end latency bitwise.
      c.batch_wait_ns = now - c.arrival_ns;
      c.queue_wait_ns = (start - now) + static_cast<double>(j) * s;
      c.issue_wait_ns = cfg_.issue_overhead_ns;
      c.bitserial_ns = sp.parts.bitserial_ns;
      c.reduce_ns = sp.parts.reduce_ns;
      c.done_ns = c.arrival_ns + c.decomposition_sum();
      completed[idx] = 1;
      start_heap.push(start);
      done_heap.push(c.done_ns);

      if (trace_on) {
        // Simulated-time lanes (pid 2): the coalesce/backlog wait on lane 0,
        // the request's own service slice on its replica's lane, joined by
        // a flow arrow keyed on the request id (the trace id).
        obs::detail::TraceEvent wait;
        wait.name = "req.wait";
        wait.ph = 'X';
        wait.pid = 2;
        wait.tid = 0;
        wait.ts_ns = static_cast<std::uint64_t>(c.arrival_ns);
        wait.dur_ns = static_cast<std::uint64_t>(
            (start + cfg_.issue_overhead_ns + static_cast<double>(j) * s) -
            c.arrival_ns);
        obs::detail::record_trace_event(wait, /*keep_tid=*/true);

        obs::detail::TraceEvent exec;
        exec.name = "req.exec";
        exec.ph = 'X';
        exec.pid = 2;
        exec.tid = 1 + static_cast<std::uint32_t>(replica);
        exec.ts_ns = static_cast<std::uint64_t>(
            start + cfg_.issue_overhead_ns + static_cast<double>(j) * s);
        exec.dur_ns = static_cast<std::uint64_t>(s);
        obs::detail::record_trace_event(exec, /*keep_tid=*/true);

        obs::detail::TraceEvent fs = wait;
        fs.name = "req.flow";
        fs.ph = 's';
        fs.flow_id = c.id;
        fs.dur_ns = 0;
        obs::detail::record_trace_event(fs, /*keep_tid=*/true);
        obs::detail::TraceEvent ff = exec;
        ff.name = "req.flow";
        ff.ph = 'f';
        ff.flow_id = c.id;
        ff.dur_ns = 0;
        obs::detail::record_trace_event(ff, /*keep_tid=*/true);
      }
    }
    if (flight_on || trace_on) {
      BatchDecision bd;
      bd.seal_ns = now;
      bd.start_ns = start;
      bd.replica = replica;
      bd.size = b;
      bd.input_bits = bits;
      bd.tier = tier;
      bd.escalated = batch_escalated;
      if (flight_on) batch_log.push_back(bd);
      if (trace_on) {
        obs::detail::TraceEvent batch_ev;
        batch_ev.name = "serve.batch";
        batch_ev.ph = 'X';
        batch_ev.pid = 2;
        batch_ev.tid = 1 + static_cast<std::uint32_t>(replica);
        batch_ev.ts_ns = static_cast<std::uint64_t>(start);
        batch_ev.dur_ns = static_cast<std::uint64_t>(
            cfg_.issue_overhead_ns + static_cast<double>(b) * s);
        obs::detail::record_trace_event(batch_ev, /*keep_tid=*/true);
      }
    }

    const double busy = cfg_.issue_overhead_ns + static_cast<double>(b) * s;
    busy_until[replica] = start + busy;
    busy_ns[replica] += busy;
    report.stats.per_replica_requests[replica] += b;

    PlannedBatch pb;
    pb.replica = replica;
    pb.input_bits = bits;
    pb.tier = tier;
    pb.members = std::move(cls.members);
    plan.push_back(std::move(pb));

    pending_total -= b;
    ++dispatches;
    pending.erase(it);
  };

  // Earliest deadline across the pending classes (map scan: the class count
  // is tiny — distinct (bits, tier) pairs in flight).
  auto next_deadline = [&]() {
    auto best = pending.end();
    for (auto it = pending.begin(); it != pending.end(); ++it)
      if (best == pending.end() ||
          it->second.oldest_arrival_ns < best->second.oldest_arrival_ns)
        best = it;
    return best;
  };

  for (const std::size_t idx : order) {
    const Request& req = requests[idx];
    const double now = req.arrival_ns;

    // Deadline flushes that fire before this arrival.
    for (auto it = next_deadline(); it != pending.end(); it = next_deadline()) {
      const double deadline = it->second.oldest_arrival_ns +
                              cfg_.batch_deadline_ns;
      if (deadline > now) break;
      advance_to(deadline);
      flush(it, deadline);
    }
    advance_to(now);

    if (queue_depth_now() >= cfg_.queue_capacity) {
      ++rejected;
      rejections.push_back({req.id, req.kind, now});
    } else {
      const auto key = std::make_pair(req.input_bits,
                                      static_cast<int>(req.tier));
      auto [it, inserted] = pending.try_emplace(key);
      if (inserted) it->second.oldest_arrival_ns = now;
      it->second.members.push_back(idx);
      ++pending_total;
      if (it->second.members.size() >= cfg_.max_batch) flush(it, now);
    }

    sample_occupancy();
    g_queue.set(static_cast<double>(queue_depth_now()));
    g_inflight.set(static_cast<double>(inflight_now()));
  }

  // Drain: remaining classes flush at their deadlines (the controller never
  // learns the stream ended — open loop), then the occupancy clock runs to
  // the last completion so the tail drain is sampled too.
  for (auto it = next_deadline(); it != pending.end(); it = next_deadline()) {
    const double deadline =
        it->second.oldest_arrival_ns + cfg_.batch_deadline_ns;
    advance_to(deadline);
    flush(it, deadline);
  }
  advance_to(std::numeric_limits<double>::infinity());
  g_queue.set(0.0);
  g_inflight.set(0.0);

  // ---- Phase 2: execute the plan, one lane per replica --------------------
  // Per-replica batch lists preserve flush order, so each replica's device
  // state (noise streams, disturb, caches) evolves exactly as the schedule
  // says — independent of how many lanes actually run.
  std::vector<std::vector<std::size_t>> by_replica(replicas);
  for (std::size_t p = 0; p < plan.size(); ++p)
    by_replica[plan[p].replica].push_back(p);

  auto execute_replica = [&](std::size_t r) {
    core::CimSystem& sys = pool_.replica(r);
    for (const std::size_t p : by_replica[r]) {
      const PlannedBatch& pb = plan[p];
      std::vector<std::vector<std::uint32_t>> inputs;
      inputs.reserve(pb.members.size());
      for (const std::size_t idx : pb.members)
        inputs.push_back(requests[idx].input);
      auto results = sys.vmm_int_batch(inputs, pb.input_bits, nullptr, pb.tier);
      for (std::size_t j = 0; j < pb.members.size(); ++j) {
        Completion& c = completions[pb.members[j]];
        c.result = std::move(results[j]);
        if (c.kind == RequestKind::kInference) c.label = argmax_label(c.result);
      }
    }
  };
  if (tp != nullptr) {
    tp->parallel_for(0, replicas, execute_replica);
  } else {
    for (std::size_t r = 0; r < replicas; ++r) execute_replica(r);
  }

  // ---- Aggregate SLO metrics ----------------------------------------------
  ServeStats& st = report.stats;
  st.rejected = rejected;
  st.dispatches = dispatches;
  st.escalated = escalated;

  report.completions.reserve(n - rejected);
  for (std::size_t i = 0; i < n; ++i)
    if (completed[i] != 0) report.completions.push_back(std::move(completions[i]));
  std::sort(report.completions.begin(), report.completions.end(),
            [](const Completion& a, const Completion& b) { return a.id < b.id; });
  st.completed = report.completions.size();
  report.rejections = std::move(rejections);
  std::sort(report.rejections.begin(), report.rejections.end(),
            [](const Rejection& a, const Rejection& b) { return a.id < b.id; });

  if (st.completed > 0) {
    double first_arrival = report.completions.front().arrival_ns;
    double last_done = 0.0;
    std::vector<double> lat;
    lat.reserve(st.completed);
    double lat_sum = 0.0;
    double batch_wait_sum = 0.0;
    double queue_wait_sum = 0.0;
    double issue_share_sum = 0.0;
    double bitserial_sum = 0.0;
    double reduce_sum = 0.0;
    for (const Completion& c : report.completions) {
      first_arrival = std::min(first_arrival, c.arrival_ns);
      last_done = std::max(last_done, c.done_ns);
      const double l = c.latency_ns();
      lat.push_back(l);
      lat_sum += l;
      m_latency.observe(l);
      m_batch_wait.observe(c.batch_wait_ns);
      m_queue_wait.observe(c.queue_wait_ns);
      batch_wait_sum += c.batch_wait_ns;
      queue_wait_sum += c.queue_wait_ns;
      issue_share_sum +=
          c.issue_wait_ns / static_cast<double>(c.batch_size);
      bitserial_sum += c.bitserial_ns;
      reduce_sum += c.reduce_ns;
    }
    std::sort(lat.begin(), lat.end());
    st.makespan_ns = last_done - first_arrival;
    // A <= 1-request run has no meaningful makespan: one completion makes
    // throughput 1/latency and utilization busy/latency — nonsense rates
    // a downstream gate would trip over. Report 0 instead.
    const bool rate_defined = st.completed > 1 && st.makespan_ns > 0.0;
    st.throughput_rps = rate_defined ? static_cast<double>(st.completed) /
                                           (st.makespan_ns * 1e-9)
                                     : 0.0;
    st.mean_batch = dispatches > 0
                        ? static_cast<double>(st.completed) /
                              static_cast<double>(dispatches)
                        : 0.0;
    const double inv = 1.0 / static_cast<double>(st.completed);
    st.mean_ns = lat_sum * inv;
    st.mean_batch_wait_ns = batch_wait_sum * inv;
    st.mean_queue_wait_ns = queue_wait_sum * inv;
    st.mean_issue_share_ns = issue_share_sum * inv;
    st.mean_bitserial_ns = bitserial_sum * inv;
    st.mean_reduce_ns = reduce_sum * inv;
    st.p50_ns = exact_quantile(lat, 0.50);
    st.p99_ns = exact_quantile(lat, 0.99);
    st.p999_ns = exact_quantile(lat, 0.999);
    st.max_ns = lat.back();
    for (std::size_t r = 0; r < replicas; ++r)
      st.per_replica_utilization[r] =
          rate_defined ? busy_ns[r] / st.makespan_ns : 0.0;
  }
  if (samples > 0) {
    st.mean_queue_depth = queue_depth_sum / static_cast<double>(samples);
    st.mean_inflight = inflight_sum / static_cast<double>(samples);
  }
  st.max_queue_depth = max_queue_depth;
  st.occupancy_samples = samples;

  // ---- Windowed series, SLO accounting, flight recorder -------------------
  if (windows_on || flight_on) {
    // Replay the run's lifecycle events in simulated-time order: batch
    // decisions at seal time, rejections at arrival time, completions at
    // done time. A pure post-pass over the serial schedule, so the series
    // (and any flight dump) is bit-identical at any CIM_THREADS.
    struct Event {
      double t_ns;
      int type;  ///< 0 batch, 1 rejection, 2 completion (tie order)
      std::size_t idx;
    };
    std::vector<Event> events;
    events.reserve(batch_log.size() + report.rejections.size() +
                   report.completions.size());
    for (std::size_t i = 0; i < batch_log.size(); ++i)
      events.push_back({batch_log[i].seal_ns, 0, i});
    for (std::size_t i = 0; i < report.rejections.size(); ++i)
      events.push_back({report.rejections[i].arrival_ns, 1, i});
    for (std::size_t i = 0; i < report.completions.size(); ++i)
      events.push_back({report.completions[i].done_ns, 2, i});
    std::sort(events.begin(), events.end(), [&](const Event& a,
                                                const Event& b) {
      if (a.t_ns != b.t_ns) return a.t_ns < b.t_ns;
      if (a.type != b.type) return a.type < b.type;
      return a.idx < b.idx;
    });

    const double W = windows_on ? cfg_.window_ns : 0.0;
    std::map<std::uint64_t, WindowStat> wmap;
    auto window_row = [&](std::uint64_t index) -> WindowStat& {
      WindowStat& row = wmap[index];
      row.index = index;
      row.start_ns = static_cast<double>(index) * W;
      return row;
    };

    obs::WindowedHistogram lat_w(windows_on ? W : 1.0, kLatencyBounds);
    obs::WindowedCounter rej_w(windows_on ? W : 1.0);
    obs::WindowedCounter viol_w(windows_on ? W : 1.0);
    const auto lat_close = [&](const obs::WindowHistogramSnap& w) {
      WindowStat& row = window_row(w.index);
      row.completed = w.hist.count;
      row.rate_rps = static_cast<double>(w.hist.count) / (W * 1e-9);
      row.p50_ns = w.hist.p50();
      row.p99_ns = w.hist.p99();
      row.p999_ns = w.hist.p999();
    };
    const auto rej_close = [&](const obs::WindowCount& w) {
      window_row(w.index).rejected = w.count;
    };
    const auto viol_close = [&](const obs::WindowCount& w) {
      window_row(w.index).slo_violations = w.count;
    };

    obs::SloConfig slo_cfg;
    slo_cfg.target_ns = slo_on ? cfg_.slo_target_ns : 1.0;
    slo_cfg.objective = cfg_.slo_objective;
    slo_cfg.window_ns = windows_on ? W : 1.0;
    slo_cfg.fast_windows = cfg_.slo_fast_windows;
    slo_cfg.slow_windows = cfg_.slo_slow_windows;
    slo_cfg.fast_burn_threshold = cfg_.slo_fast_burn;
    slo_cfg.slow_burn_threshold = cfg_.slo_slow_burn;
    obs::SloTracker tracker(slo_cfg);

    obs::FlightRecorder flight(cfg_.flight_capacity);
    bool flight_dumped = false;
    std::size_t slo_rows_seen = 0;
    std::uint64_t cur_rej_window = 0;
    std::uint64_t cur_rej_count = 0;
    auto dump_flight = [&](const char* reason, double t_ns) {
      if (!flight_on || flight_dumped) return;
      if (flight.dump(cfg_.flight_dump_path, reason,
                      {{"t_ns", util::record_io::g17(t_ns)}}))
        ++st.flight_dumps;
      flight_dumped = true;  // first trigger wins; one post-mortem per run
    };
    // New SLO rows appear as the tracker closes windows; a fast-burn onset
    // is the breach moment — the flight ring holds what led up to it.
    auto check_slo_rows = [&]() {
      const auto& rows = tracker.windows();
      for (; slo_rows_seen < rows.size(); ++slo_rows_seen)
        if (rows[slo_rows_seen].fast_alert)
          dump_flight("slo-fast-burn", rows[slo_rows_seen].start_ns);
    };

    for (const Event& e : events) {
      switch (e.type) {
        case 0:
          if (flight_on)
            flight.record(flight_batch_line(batch_log[e.idx]));
          break;
        case 1: {
          const Rejection& r = report.rejections[e.idx];
          if (flight_on) flight.record(flight_rejection_line(r));
          if (windows_on) {
            rej_w.add(r.arrival_ns, 1, rej_close);
            viol_w.add(r.arrival_ns, 1, viol_close);
            // Shed-spike trigger: N rejections inside one window.
            const std::uint64_t wi = rej_w.window_index(r.arrival_ns);
            if (wi != cur_rej_window) {
              cur_rej_window = wi;
              cur_rej_count = 0;
            }
            if (++cur_rej_count == cfg_.flight_shed_spike)
              dump_flight("shed-spike", r.arrival_ns);
          }
          if (slo_on) {
            tracker.record_rejected(r.arrival_ns);
            check_slo_rows();
          }
          break;
        }
        case 2: {
          const Completion& c = report.completions[e.idx];
          if (flight_on) flight.record(flight_completion_line(c));
          if (windows_on) {
            lat_w.observe(c.done_ns, c.latency_ns(), lat_close);
            if (slo_on && c.latency_ns() > cfg_.slo_target_ns)
              viol_w.add(c.done_ns, 1, viol_close);
          }
          if (slo_on) {
            tracker.observe(c.done_ns, c.latency_ns());
            check_slo_rows();
          }
          break;
        }
      }
    }

    if (windows_on) {
      lat_w.finalize(lat_close);
      rej_w.finalize(rej_close);
      viol_w.finalize(viol_close);
    }
    if (slo_on) {
      st.slo = tracker.finalize();
      check_slo_rows();
      if (st.slo.breached) dump_flight("slo-breach", st.slo.first_breach_ns);
      for (const obs::SloWindow& row : tracker.windows())
        if (auto it = wmap.find(row.index); it != wmap.end())
          it->second.burn_rate = row.burn_rate;
    }
    st.windows.reserve(wmap.size());
    for (auto& [index, row] : wmap) st.windows.push_back(row);

    // Surface the run's windowed/SLO state through the registry so the
    // Prometheus/snapshot exporters carry it without serve-specific wiring.
    if (windows_on && !st.windows.empty()) {
      const WindowStat& lastw = st.windows.back();
      reg.gauge("serve.window.p50_ns").set(lastw.p50_ns);
      reg.gauge("serve.window.p99_ns").set(lastw.p99_ns);
      reg.gauge("serve.window.p999_ns").set(lastw.p999_ns);
      reg.gauge("serve.window.rate_rps").set(lastw.rate_rps);
    }
    if (slo_on) {
      reg.counter("serve.slo.good").add(st.slo.good);
      reg.counter("serve.slo.bad").add(st.slo.bad);
      reg.counter("serve.slo.fast_alerts").add(st.slo.fast_alerts);
      reg.counter("serve.slo.slow_alerts").add(st.slo.slow_alerts);
      reg.gauge("serve.slo.budget_consumed").set(st.slo.budget_consumed);
    }
    reg.counter("serve.flight.dumps").add(st.flight_dumps);
  }

  m_requests.add(n);
  m_rejected.add(rejected);
  m_dispatches.add(dispatches);
  m_escalated.add(escalated);
  export_reqlog_if_requested(report);
  return report;
}

namespace {

bool env_double(const char* name, double& out) {
  const char* v = std::getenv(name);
  const auto d = v != nullptr ? util::record_io::parse_f64(v) : std::nullopt;
  if (d) out = *d;
  return d.has_value();
}

/// Size knobs go through the double parser so `1e3` means 1000; values
/// outside [0, 2^64) (including NaN) are ignored.
bool env_size(const char* name, std::size_t& out) {
  double d = 0.0;
  if (!env_double(name, d) || !(d >= 0.0 && d < 0x1p64)) return false;
  out = static_cast<std::size_t>(d);
  return true;
}

}  // namespace

void apply_env_overrides(TrafficConfig& traffic, ControllerConfig& ctl) {
  env_size("CIM_SERVE_REQUESTS", traffic.requests);
  env_double("CIM_SERVE_RATE_RPS", traffic.rate_rps);
  if (const char* v = std::getenv("CIM_SERVE_PROCESS"); v != nullptr) {
    const std::string s = v;
    if (s == "poisson") traffic.process = ArrivalProcess::kPoisson;
    if (s == "mmpp") traffic.process = ArrivalProcess::kMmpp;
  }
  env_size("CIM_SERVE_BATCH", ctl.max_batch);
  env_double("CIM_SERVE_DEADLINE_NS", ctl.batch_deadline_ns);
  if (const char* v = std::getenv("CIM_SERVE_POLICY"); v != nullptr) {
    const std::string s = v;
    if (s == "rr") ctl.routing = RoutingPolicy::kRoundRobin;
    if (s == "least") ctl.routing = RoutingPolicy::kLeastLoaded;
    if (s == "wear") ctl.routing = RoutingPolicy::kWearAware;
  }
  if (const char* v = std::getenv("CIM_SERVE_ESCALATE"); v != nullptr) {
    const std::string s = v;
    ctl.tier_escalation = (s == "1" || s == "on" || s == "true");
  }
  env_double("CIM_SERVE_WINDOW_NS", ctl.window_ns);
  env_double("CIM_SERVE_SLO_TARGET_NS", ctl.slo_target_ns);
  if (double obj = 0.0;
      env_double("CIM_SERVE_SLO_OBJECTIVE", obj) && obj > 0.0 && obj < 1.0)
    ctl.slo_objective = obj;
  if (const char* v = std::getenv("CIM_SERVE_FLIGHT_FILE");
      v != nullptr && *v != '\0')
    ctl.flight_dump_path = v;
}

}  // namespace cim::serve
