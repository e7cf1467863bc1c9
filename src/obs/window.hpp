/// \file window.hpp
/// \brief Sliding simulated-time window aggregation and SLO tracking.
///
/// End-of-run aggregates (one cumulative histogram per run) can say *that*
/// p99 exploded but not *when*: a 120%-capacity overload run folds the
/// healthy warm-up and the collapsing tail into one number. The windowed
/// primitives here bucket observations by simulated-time window so the
/// serving layer can report live per-window tail latencies and rates, and
/// an `SloTracker` can do error-budget accounting with multi-window
/// burn-rate alerts — the instrumentation CIMFlow/NeuroSim-style
/// evaluation frameworks treat as part of the model, applied to the
/// repo's open-loop serving clock.
///
/// Design constraints, matching the repo-wide determinism contract:
///
///  - **Simulated time only.** Windows are indexed by
///    `floor(t_ns / window_ns)` of the *simulated* timestamp the caller
///    passes in; nothing here reads a wall clock, so any host and any
///    `CIM_THREADS` produce bit-identical window series.
///  - **Bounded memory.** Live windows sit in a ring of `ring_windows`
///    per-window buckets; advancing past the ring evicts the oldest
///    window through a close callback (the flight-recorder/stats
///    consumers harvest exactly-once window summaries). Observations
///    older than the ring are counted (`late_dropped`) rather than
///    silently folded into the wrong window.
///  - **Deterministic merge.** Two instances with identical shape
///    (window size, bounds, ring) merge window-by-window, bucket-by-
///    bucket — the same closed-form the sharded registry counters use.
///
/// These are plain (non-atomic) classes: the serving controller feeds them
/// from its serial schedule phase. Concurrent writers need external
/// ordering (and would forfeit the bit-identical-series contract anyway).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace cim::obs {

namespace detail {

/// Window number of simulated time `t_ns`: floor(t_ns / window_ns), with
/// negatives and NaN clamped to window 0.
inline std::uint64_t window_index(double t_ns, double window_ns) {
  if (!(t_ns > 0.0)) return 0;
  return static_cast<std::uint64_t>(std::floor(t_ns / window_ns));
}

/// The bounded ring of simulated-time windows behind WindowedCounter and
/// WindowedHistogram; `Payload` is what one window accumulates. The ring
/// owns the window bookkeeping both share: shape validation, admitting an
/// observation to its window (evicting windows that fall off the ring,
/// oldest first), late-drop accounting, finalize, and the merge walk.
/// Close callbacks receive `(index, payload)`; a closed slot is reset to
/// the `blank` payload given at construction.
template <class Payload>
class WindowRing {
 public:
  WindowRing(const char* owner, double window_ns, std::size_t ring_windows,
             Payload blank = {})
      : owner_(owner), window_ns_(window_ns), blank_(std::move(blank)) {
    if (!(window_ns > 0.0))
      throw std::invalid_argument(std::string(owner_) +
                                  ": window_ns must be > 0");
    if (ring_windows == 0)
      throw std::invalid_argument(std::string(owner_) +
                                  ": ring_windows must be >= 1");
    ring_.assign(ring_windows, Slot{false, 0, blank_});
  }

  double window_ns() const { return window_ns_; }
  std::size_t size() const { return ring_.size(); }
  std::uint64_t total() const { return total_; }
  std::uint64_t late_dropped() const { return late_dropped_; }
  std::uint64_t window_index(double t_ns) const {
    return detail::window_index(t_ns, window_ns_);
  }

  /// Books `weight` events at window `idx` and returns that window's
  /// payload, opening the window if needed. Moving past the newest window
  /// first closes every window that falls off the ring, in increasing
  /// index order. Returns nullptr for a window already evicted: its events
  /// count as late_dropped() and never resurrect it.
  template <class Close>
  Payload* admit(std::uint64_t idx, std::uint64_t weight,
                 const Close& close) {
    const std::size_t R = ring_.size();
    total_ += weight;
    if (!any_) {
      any_ = true;
      newest_ = idx;
    } else if (idx > newest_) {
      close_live_before(idx >= R - 1 ? idx - (R - 1) : 0, close);
      newest_ = idx;
    } else if (newest_ >= R && idx < newest_ - (R - 1)) {
      late_dropped_ += weight;
      return nullptr;
    }
    Slot& s = ring_[idx % R];
    if (!s.live) {
      s.live = true;
      s.index = idx;
    }
    return &s.data;
  }

  /// Closes every open window in increasing index order and resets to the
  /// empty state. Total/late counters persist.
  template <class Close>
  void finalize(const Close& close) {
    close_live_before(kAll, close);
    any_ = false;
    newest_ = 0;
  }

  /// Replays every open window of `other` at its own index, oldest first:
  /// each admits `weight(payload)` events and `fold(dst, src)` adds the
  /// source payload into the admitted window. Windows outside this ring
  /// count as late. Same window size and ring length required.
  template <class Weight, class Fold, class Close>
  void merge(const WindowRing& other, const Weight& weight, const Fold& fold,
             const Close& close) {
    if (other.window_ns_ != window_ns_ || other.ring_.size() != ring_.size())
      throw std::invalid_argument(std::string(owner_) +
                                  "::merge: shape mismatch");
    for (const std::size_t i : other.live_before(kAll)) {
      const Slot& src = other.ring_[i];
      if (Payload* dst = admit(src.index, weight(src.data), close))
        fold(*dst, src.data);
    }
    late_dropped_ += other.late_dropped_;
    total_ += other.late_dropped_;
  }

 private:
  struct Slot {
    bool live = false;
    std::uint64_t index = 0;
    Payload data;
  };
  static constexpr std::uint64_t kAll =
      std::numeric_limits<std::uint64_t>::max();

  /// Ring positions of the live windows with index < `end`, oldest first.
  std::vector<std::size_t> live_before(std::uint64_t end) const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < ring_.size(); ++i)
      if (ring_[i].live && ring_[i].index < end) out.push_back(i);
    std::sort(out.begin(), out.end(), [&](std::size_t a, std::size_t b) {
      return ring_[a].index < ring_[b].index;
    });
    return out;
  }

  template <class Close>
  void close_live_before(std::uint64_t end, const Close& close) {
    for (const std::size_t i : live_before(end)) {
      Slot& s = ring_[i];
      close(s.index, s.data);
      s.live = false;
      s.data = blank_;
    }
  }

  const char* owner_;
  double window_ns_;
  Payload blank_;
  std::vector<Slot> ring_;
  std::uint64_t newest_ = 0;
  bool any_ = false;
  std::uint64_t total_ = 0;
  std::uint64_t late_dropped_ = 0;
};

}  // namespace detail

/// One closed window of a WindowedCounter.
struct WindowCount {
  std::uint64_t index = 0;  ///< window number: t in [index*W, (index+1)*W)
  double start_ns = 0.0;    ///< index * window_ns
  std::uint64_t count = 0;
};

/// Per-simulated-time-window event counter over a bounded ring.
class WindowedCounter {
 public:
  using CloseFn = std::function<void(const WindowCount&)>;

  /// `window_ns` > 0 is the window width; `ring_windows` >= 1 bounds how
  /// many trailing windows stay open (late observations within the ring
  /// still land in their own window).
  WindowedCounter(double window_ns, std::size_t ring_windows = 64);

  /// Counts `v` events at simulated time `t_ns` (< 0 clamps to window 0).
  /// Advancing to a new window evicts windows that fall off the ring via
  /// `on_close` (in increasing index order). Observations older than the
  /// ring bump `late_dropped()` instead of resurrecting a closed window.
  void add(double t_ns, std::uint64_t v = 1, const CloseFn& on_close = {});

  /// Closes every still-open window (increasing index order) and resets
  /// to the empty state. Total/late counters persist.
  void finalize(const CloseFn& on_close);

  /// Adds every open window of `other` into this instance (same shape
  /// required: window_ns and ring size). Windows of `other` outside this
  /// ring count as late. `other` is left untouched.
  void merge(const WindowedCounter& other, const CloseFn& on_close = {});

  double window_ns() const { return ring_.window_ns(); }
  std::size_t ring_windows() const { return ring_.size(); }
  std::uint64_t total() const { return ring_.total(); }
  std::uint64_t late_dropped() const { return ring_.late_dropped(); }
  std::uint64_t window_index(double t_ns) const {
    return ring_.window_index(t_ns);
  }

 private:
  detail::WindowRing<std::uint64_t> ring_;
};

/// One closed window of a WindowedHistogram: the same fixed-bucket
/// histogram snapshot the cumulative exporter path uses (quantile() and
/// friends included), stamped with its window coordinates.
struct WindowHistogramSnap {
  std::uint64_t index = 0;
  double start_ns = 0.0;
  Histogram::Snapshot hist;
};

/// Per-simulated-time-window fixed-bucket histogram over a bounded ring:
/// live per-window p50/p99/p999 and rates for the serving layer, filed by
/// the same bucket_index() rule as obs::Histogram.
class WindowedHistogram {
 public:
  using CloseFn = std::function<void(const WindowHistogramSnap&)>;

  WindowedHistogram(double window_ns, std::span<const double> bounds,
                    std::size_t ring_windows = 64);

  /// Observes `value` at simulated time `t_ns`; ring/eviction semantics
  /// identical to WindowedCounter::add.
  void observe(double t_ns, double value, const CloseFn& on_close = {});

  /// Closes every open window in increasing index order and resets.
  void finalize(const CloseFn& on_close);

  /// Deterministic merge (same window size, bounds, and ring required).
  void merge(const WindowedHistogram& other, const CloseFn& on_close = {});

  double window_ns() const { return ring_.window_ns(); }
  std::size_t ring_windows() const { return ring_.size(); }
  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t total() const { return ring_.total(); }
  std::uint64_t late_dropped() const { return ring_.late_dropped(); }
  std::uint64_t window_index(double t_ns) const {
    return ring_.window_index(t_ns);
  }

 private:
  struct Buckets {
    std::vector<std::uint64_t> counts;  ///< bounds.size() + 1, overflow last
    std::uint64_t count = 0;
    double sum = 0.0;
  };

  std::vector<double> bounds_;
  detail::WindowRing<Buckets> ring_;
};

// --- SLO tracking ------------------------------------------------------------

/// Service-level objective: `objective` of events must have latency
/// <= `target_ns`, evaluated over simulated-time windows with Google-SRE
/// style multi-window burn-rate alerting (a fast alert over a short span
/// catches cliffs, a slow alert over a long span catches smoulder).
struct SloConfig {
  double target_ns = 0.0;    ///< latency threshold (must be > 0 to track)
  double objective = 0.999;  ///< required fraction of good events, (0, 1)
  double window_ns = 1.0e6;  ///< burn-rate evaluation window
  std::size_t fast_windows = 1;   ///< trailing windows of the fast alert
  std::size_t slow_windows = 12;  ///< trailing windows of the slow alert
  /// Burn rate = violation fraction / (1 - objective); 1.0 consumes the
  /// budget exactly at the objective boundary. The classic 1h/5% and
  /// 6h/10% SRE policy alerts at 14.4x and 6x.
  double fast_burn_threshold = 14.4;
  double slow_burn_threshold = 6.0;
};

/// Per-closed-window SLO accounting row.
struct SloWindow {
  std::uint64_t index = 0;
  double start_ns = 0.0;
  std::uint64_t good = 0;
  std::uint64_t bad = 0;  ///< latency > target, plus rejected events
  double burn_rate = 0.0;  ///< this window alone
  bool fast_alert = false;  ///< fast-burn condition fired at this close
  bool slow_alert = false;  ///< slow-burn condition fired at this close
};

/// Whole-run SLO summary (error-budget accounting).
struct SloSummary {
  bool enabled = false;
  double target_ns = 0.0;
  double objective = 0.0;
  double window_ns = 0.0;
  std::uint64_t good = 0;
  std::uint64_t bad = 0;
  /// bad / ((good + bad) * (1 - objective)): 1.0 = budget exactly spent,
  /// > 1 = SLO missed over the run. 0 when no events.
  double budget_consumed = 0.0;
  std::size_t fast_alerts = 0;  ///< fast-burn condition onsets
  std::size_t slow_alerts = 0;  ///< slow-burn condition onsets
  bool breached = false;  ///< any fast alert, or budget_consumed >= 1
  double first_breach_ns = -1.0;  ///< window start of the first breach
};

/// Streaming SLO tracker. Feed events in non-decreasing simulated time
/// (the serving controller replays its schedule in completion order);
/// windows close as time advances and the burn-rate alerts are evaluated
/// once per window close over the trailing closed windows. Everything is
/// a pure function of the event stream — bit-identical at any thread
/// count by construction.
class SloTracker {
 public:
  explicit SloTracker(SloConfig cfg);

  /// An event that completed at `t_ns` with the given latency.
  void observe(double t_ns, double latency_ns);
  /// A shed/rejected event at `t_ns`: always a violation (an open-loop
  /// requester got no answer at all).
  void record_rejected(double t_ns);

  /// Closes trailing windows and returns the run summary. Idempotent.
  SloSummary finalize();

  /// Closed windows so far, increasing index (fully populated after
  /// finalize()). One row per window that saw traffic.
  const std::vector<SloWindow>& windows() const { return closed_; }
  const SloConfig& config() const { return cfg_; }

 private:
  void event(double t_ns, bool good);
  void close_current();

  SloConfig cfg_;
  bool any_ = false;
  bool finalized_ = false;
  std::uint64_t cur_index_ = 0;
  std::uint64_t cur_good_ = 0;
  std::uint64_t cur_bad_ = 0;
  std::uint64_t total_good_ = 0;
  std::uint64_t total_bad_ = 0;
  bool fast_active_ = false;  ///< alert condition level (for onset counting)
  bool slow_active_ = false;
  std::vector<SloWindow> closed_;
  SloSummary summary_;
};

}  // namespace cim::obs
