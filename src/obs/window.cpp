#include "obs/window.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cim::obs {

// --- WindowedCounter ---------------------------------------------------------

WindowedCounter::WindowedCounter(double window_ns, std::size_t ring_windows)
    : ring_("WindowedCounter", window_ns, ring_windows) {}

namespace {

/// Adapts a WindowCount callback to the ring's (index, payload) close.
auto count_closer(const WindowedCounter::CloseFn& on_close, double window_ns) {
  return [&on_close, window_ns](std::uint64_t index, std::uint64_t count) {
    if (on_close)
      on_close({index, static_cast<double>(index) * window_ns, count});
  };
}

}  // namespace

void WindowedCounter::add(double t_ns, std::uint64_t v,
                          const CloseFn& on_close) {
  if (std::uint64_t* count = ring_.admit(
          window_index(t_ns), v, count_closer(on_close, window_ns())))
    *count += v;
}

void WindowedCounter::finalize(const CloseFn& on_close) {
  ring_.finalize(count_closer(on_close, window_ns()));
}

void WindowedCounter::merge(const WindowedCounter& other,
                            const CloseFn& on_close) {
  ring_.merge(
      other.ring_, [](std::uint64_t count) { return count; },
      [](std::uint64_t& dst, std::uint64_t src) { dst += src; },
      count_closer(on_close, window_ns()));
}

// --- WindowedHistogram -------------------------------------------------------

WindowedHistogram::WindowedHistogram(double window_ns,
                                     std::span<const double> bounds,
                                     std::size_t ring_windows)
    : bounds_(bounds.begin(), bounds.end()),
      ring_("WindowedHistogram", window_ns, ring_windows,
            Buckets{std::vector<std::uint64_t>(bounds.size() + 1, 0), 0, 0.0}) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end()))
    throw std::invalid_argument("WindowedHistogram: bounds must be sorted");
}

namespace {

/// Adapts a WindowHistogramSnap callback to the ring's close.
template <class Buckets>
auto hist_closer(const WindowedHistogram::CloseFn& on_close,
                 const WindowedHistogram& h) {
  return [&on_close, &h](std::uint64_t index, const Buckets& b) {
    if (!on_close) return;
    WindowHistogramSnap w;
    w.index = index;
    w.start_ns = static_cast<double>(index) * h.window_ns();
    w.hist.bounds = h.bounds();
    w.hist.counts = b.counts;
    w.hist.count = b.count;
    w.hist.sum = b.sum;
    on_close(w);
  };
}

}  // namespace

void WindowedHistogram::observe(double t_ns, double value,
                                const CloseFn& on_close) {
  Buckets* b = ring_.admit(window_index(t_ns), 1,
                           hist_closer<Buckets>(on_close, *this));
  if (b == nullptr) return;
  b->counts[bucket_index(bounds_, value)] += 1;
  b->count += 1;
  b->sum += value;
}

void WindowedHistogram::finalize(const CloseFn& on_close) {
  ring_.finalize(hist_closer<Buckets>(on_close, *this));
}

void WindowedHistogram::merge(const WindowedHistogram& other,
                              const CloseFn& on_close) {
  if (other.bounds_ != bounds_)
    throw std::invalid_argument("WindowedHistogram::merge: shape mismatch");
  ring_.merge(
      other.ring_, [](const Buckets& b) { return b.count; },
      [](Buckets& dst, const Buckets& src) {
        for (std::size_t i = 0; i < src.counts.size(); ++i)
          dst.counts[i] += src.counts[i];
        dst.count += src.count;
        dst.sum += src.sum;
      },
      hist_closer<Buckets>(on_close, *this));
}

// --- SloTracker --------------------------------------------------------------

SloTracker::SloTracker(SloConfig cfg) : cfg_(cfg) {
  if (!(cfg_.target_ns > 0.0))
    throw std::invalid_argument("SloTracker: target_ns must be > 0");
  if (!(cfg_.objective > 0.0) || !(cfg_.objective < 1.0))
    throw std::invalid_argument("SloTracker: objective must be in (0, 1)");
  if (!(cfg_.window_ns > 0.0))
    throw std::invalid_argument("SloTracker: window_ns must be > 0");
  if (cfg_.fast_windows == 0 || cfg_.slow_windows == 0)
    throw std::invalid_argument("SloTracker: alert spans must be >= 1 window");
  summary_.enabled = true;
  summary_.target_ns = cfg_.target_ns;
  summary_.objective = cfg_.objective;
  summary_.window_ns = cfg_.window_ns;
}

void SloTracker::observe(double t_ns, double latency_ns) {
  // NaN compares false, so a NaN latency counts as a violation — the same
  // pessimistic default the histogram overflow bucket applies.
  event(t_ns, latency_ns <= cfg_.target_ns);
}

void SloTracker::record_rejected(double t_ns) { event(t_ns, false); }

void SloTracker::event(double t_ns, bool good) {
  const std::uint64_t idx = detail::window_index(t_ns, cfg_.window_ns);
  if (!any_) {
    any_ = true;
    cur_index_ = idx;
  } else if (idx > cur_index_) {
    close_current();
    cur_index_ = idx;
  }
  // Events are fed in non-decreasing simulated time; anything that still
  // lands behind the current window folds into it (never reopens a
  // closed one).
  if (good) {
    ++cur_good_;
    ++total_good_;
  } else {
    ++cur_bad_;
    ++total_bad_;
  }
}

void SloTracker::close_current() {
  SloWindow row;
  row.index = cur_index_;
  row.start_ns = static_cast<double>(cur_index_) * cfg_.window_ns;
  row.good = cur_good_;
  row.bad = cur_bad_;
  const double budget = 1.0 - cfg_.objective;
  const std::uint64_t n = cur_good_ + cur_bad_;
  row.burn_rate =
      n > 0 ? (static_cast<double>(cur_bad_) / static_cast<double>(n)) / budget
            : 0.0;

  // Trailing burn over the last K *window indices* (quiet windows count as
  // zero-traffic, diluting nothing — they simply contribute no events).
  auto trailing_burn = [&](std::size_t k) {
    const std::uint64_t from =
        cur_index_ >= k - 1 ? cur_index_ - (k - 1) : 0;
    std::uint64_t good = cur_good_;
    std::uint64_t bad = cur_bad_;
    for (auto it = closed_.rbegin(); it != closed_.rend(); ++it) {
      if (it->index < from) break;
      good += it->good;
      bad += it->bad;
    }
    const std::uint64_t total = good + bad;
    if (total == 0) return 0.0;
    return (static_cast<double>(bad) / static_cast<double>(total)) / budget;
  };

  const double fast = trailing_burn(cfg_.fast_windows);
  const double slow = trailing_burn(cfg_.slow_windows);
  const bool fast_now = fast >= cfg_.fast_burn_threshold;
  const bool slow_now = slow >= cfg_.slow_burn_threshold;
  row.fast_alert = fast_now && !fast_active_;  // onset, not level
  row.slow_alert = slow_now && !slow_active_;
  fast_active_ = fast_now;
  slow_active_ = slow_now;
  if (row.fast_alert) {
    ++summary_.fast_alerts;
    if (summary_.first_breach_ns < 0.0) summary_.first_breach_ns = row.start_ns;
  }
  if (row.slow_alert) ++summary_.slow_alerts;

  closed_.push_back(row);
  cur_good_ = 0;
  cur_bad_ = 0;
}

SloSummary SloTracker::finalize() {
  if (finalized_) return summary_;
  finalized_ = true;
  if (any_ && (cur_good_ + cur_bad_) > 0) close_current();
  summary_.good = total_good_;
  summary_.bad = total_bad_;
  const std::uint64_t total = total_good_ + total_bad_;
  summary_.budget_consumed =
      total > 0 ? static_cast<double>(total_bad_) /
                      (static_cast<double>(total) * (1.0 - cfg_.objective))
                : 0.0;
  summary_.breached =
      summary_.fast_alerts > 0 || summary_.budget_consumed >= 1.0;
  if (summary_.breached && summary_.first_breach_ns < 0.0 && !closed_.empty())
    summary_.first_breach_ns = closed_.front().start_ns;
  return summary_;
}

}  // namespace cim::obs
