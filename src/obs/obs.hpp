/// \file obs.hpp
/// \brief Unified telemetry: process-wide metrics registry, scoped span
///        tracing, and per-component energy/latency attribution.
///
/// The paper's headline numbers are *attributions* — Fig. 5 attributes tile
/// power to the ADC, Table I attributes architecture cost to data movement.
/// This module is the runtime backbone that lets the simulator produce such
/// attributions from measurement instead of hard-wired constants:
///
///  - **Metrics registry** (`Registry::global()`): named counters, gauges
///    and fixed-bucket histograms. The hot path is lock-free — counters are
///    sharded into cache-line-padded relaxed atomics indexed by a per-thread
///    slot, and registration (the only locking operation) happens once per
///    name. Snapshots merge shards in fixed index order and walk the name
///    maps in sorted order, so two snapshots of the same quiesced state are
///    identical — consistent with the repo's deterministic-parallelism
///    contract.
///  - **Scoped spans** (`CIM_OBS_SPAN("crossbar.vmm")`): RAII regions that
///    record wall-ns (host time), optional simulated time/energy, and a
///    component tag. Aggregates land in the registry; with `CIM_OBS=trace`
///    each span additionally records a Chrome `trace_event` for
///    chrome://tracing / Perfetto (see export.cpp).
///  - **Component attribution** (`attribute()` / `breakdown()`): simulated
///    time and energy accounted per design block (array, ADC, DAC, digital,
///    interconnect) at simulation time — the measured counterpart of the
///    analytic Fig. 5 model in periphery/tile_cost.hpp.
///
/// Enablement: the `CIM_OBS` environment variable — `off` (default),
/// `on`/`metrics`, `trace`, `health` (spatial device-health accumulators,
/// see obs/health.hpp), a comma list of those, or `all` — or `set_mode()`
/// programmatically. When
/// disabled every instrumentation site costs one relaxed atomic load and a
/// predictable branch (gated <2% by bench_obs_overhead). Registry metric
/// handles keep counting regardless of the mode: they are storage, and
/// always-on consumers (util/perf_counters.hpp) are thin views over them.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cim::obs {

// --- enablement --------------------------------------------------------------

/// Telemetry level, encoded as a bitmask over one atomic so every gate stays
/// a single relaxed load: bit 0 = aggregate metrics, bit 1 = per-span trace
/// events (Chrome exporter), bit 2 = spatial device-health accumulators.
/// Trace and health both imply metrics. CIM_OBS accepts a comma-separated
/// list ("trace,health"); "all" enables everything.
enum class Mode : int {
  kOff = 0,
  kMetrics = 1,
  kTrace = 3,        ///< metrics + individual span events
  kHealth = 5,       ///< metrics + per-cell wear/drift/disturb accumulators
  kTraceHealth = 7,  ///< everything
};

namespace detail {
/// -1 = not yet initialised from the CIM_OBS environment variable.
inline std::atomic<int> g_mode{-1};
int init_mode_from_env();  // reads CIM_OBS, stores and returns the mode

inline int mode_int() {
  const int m = g_mode.load(std::memory_order_relaxed);
  return m >= 0 ? m : init_mode_from_env();
}

/// Dense per-thread slot used to pick counter shards.
inline std::atomic<std::size_t> g_slot_counter{0};
inline std::size_t this_thread_slot() {
  thread_local const std::size_t slot =
      g_slot_counter.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

/// Monotonic ns since process start (first call anchors the epoch).
std::uint64_t now_ns();
}  // namespace detail

/// True when telemetry is collected. The disabled path is exactly one
/// relaxed atomic load and one branch.
inline bool enabled() { return (detail::mode_int() & 1) != 0; }
/// True when individual span events are recorded for the Chrome exporter.
inline bool trace_enabled() { return (detail::mode_int() & 2) != 0; }
/// True when spatial device-health accumulators (obs/health.hpp) record.
inline bool health_enabled() { return (detail::mode_int() & 4) != 0; }

Mode mode();
void set_mode(Mode m);

// --- metric primitives -------------------------------------------------------

/// Monotonic counter, sharded across cache-line-padded relaxed atomics so
/// concurrent increments never contend. value() merges shards in index
/// order.
class Counter {
 public:
  void add(std::uint64_t v = 1) noexcept {
    shards_[detail::this_thread_slot() % kShards].v.fetch_add(
        v, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }
  void reset() noexcept {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kShards = 16;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kShards> shards_{};
};

/// Relaxed-atomic double accumulator (CAS add; reads are monotone once the
/// writers quiesce).
class AtomicF64 {
 public:
  void add(double v) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// The bucket rule every fixed-bucket histogram shares (obs::Histogram and
/// obs::WindowedHistogram): `bounds`, sorted ascending, are inclusive upper
/// bounds, so bucket i covers (bounds[i-1], bounds[i]] — a value exactly
/// equal to an upper bound lands in the bucket that bound closes, never in
/// the next one. Values above bounds.back() and NaN (which compares false
/// against every bound) land in the overflow bucket, index bounds.size().
/// These are the closed-upper-bound semantics the Prometheus exporter's
/// cumulative `le` buckets assume (tested by
/// tests/obs/test_histogram_bounds.cpp).
std::size_t bucket_index(std::span<const double> bounds, double v) noexcept;

/// Fixed-bucket histogram: `bounds` are inclusive upper bounds of the first
/// N buckets; one implicit overflow bucket catches the rest. Observations
/// are filed by bucket_index(), so every observation lands in exactly one
/// bucket and the bucket counts always sum to `count`.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept;

  struct Snapshot {
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 (overflow last)
    std::uint64_t count = 0;
    double sum = 0.0;

    /// Estimated q-quantile (q in [0, 1]) by linear interpolation inside
    /// the bucket holding rank q*count — the same estimator Prometheus'
    /// histogram_quantile() applies to the cumulative `le` buckets. The
    /// first bucket interpolates from lower edge min(bounds[0], 0); a rank
    /// landing in the overflow bucket clamps to bounds.back() (the largest
    /// value the bucket layout can resolve). Returns NaN when count == 0
    /// or there are no finite bounds. Exact per-observation quantiles need
    /// the raw samples; this is the scrape-side estimate tail-latency
    /// consumers (serving bench, Prometheus export) read off a histogram.
    double quantile(double q) const;
    double p50() const { return quantile(0.50); }
    double p99() const { return quantile(0.99); }
    double p999() const { return quantile(0.999); }
  };
  Snapshot snapshot() const;
  void reset() noexcept;

  /// Bucket-wise add of a compatible snapshot (identical bounds): bucket
  /// counts, total count and sum accumulate exactly. Returns false and
  /// leaves the histogram untouched when the bucket layout differs. This
  /// is the live-registry half of the snapshot merge (worker-process
  /// telemetry absorption).
  bool absorb(const Snapshot& s) noexcept;

 private:
  std::vector<double> bounds_;
  std::vector<Counter> counts_;  ///< bounds_.size() + 1
  Counter count_;
  AtomicF64 sum_;
};

// --- components --------------------------------------------------------------

/// Design blocks energy/latency is attributed to (the Fig. 5 vocabulary).
enum class Component : int {
  kArray = 0,        ///< crossbar cells (analog MAC / storage)
  kAdc,              ///< column ADC conversions
  kDac,              ///< row drivers / DACs
  kDigital,          ///< shift&add, control, digital post-processing
  kInterconnect,     ///< inter-tile partial-sum movement
  kOther,
};
inline constexpr std::size_t kComponentCount = 6;
std::string_view component_name(Component c);

/// Aggregate per component. wall_ns comes from spans; sim_time_ns/energy_pj
/// come from attribute() calls at simulation-accounting sites.
struct ComponentAgg {
  Counter events;
  AtomicF64 wall_ns;
  AtomicF64 sim_time_ns;
  AtomicF64 energy_pj;
};

/// Attributes simulated time/energy to a component. No-op when disabled —
/// call sites on hot paths should still guard with `if (obs::enabled())`
/// to keep the disabled cost to the inline branch.
void attribute(Component c, double sim_time_ns, double energy_pj);

// --- spans -------------------------------------------------------------------

/// Per-span-name aggregate.
struct SpanStat {
  Counter count;
  AtomicF64 wall_ns;
  AtomicF64 sim_time_ns;
  AtomicF64 energy_pj;
};

class SpanHandle;

/// RAII scoped span. Construction samples the clock only when enabled;
/// destruction records into the handle's SpanStat, adds wall time to the
/// component aggregate, and (in trace mode) appends a Chrome trace event.
class Span {
 public:
  explicit Span(SpanHandle& handle) {
    if ((detail::mode_int() & 1) != 0) {
      handle_ = &handle;
      start_ns_ = detail::now_ns();
    }
  }
  ~Span() {
    if (handle_ != nullptr) finish();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach simulated cost to this span's aggregate (not to the component
  /// aggregates — use attribute() for those). Cheap no-ops when disabled.
  void add_energy_pj(double pj) noexcept { energy_pj_ += pj; }
  void add_sim_time_ns(double ns) noexcept { sim_ns_ += ns; }

 private:
  void finish() noexcept;

  SpanHandle* handle_ = nullptr;
  std::uint64_t start_ns_ = 0;
  double energy_pj_ = 0.0;
  double sim_ns_ = 0.0;
};

/// Per-call-site identity of a span: name + component + lazily resolved
/// registry slot. Declare as a function-local `static` (the CIM_OBS_SPAN
/// macro does) so resolution happens once per site, not per span.
class SpanHandle {
 public:
  constexpr explicit SpanHandle(const char* name,
                                Component comp = Component::kOther)
      : name_(name), comp_(comp) {}

  const char* name() const { return name_; }
  Component comp() const { return comp_; }
  SpanStat& stat();  ///< resolves against the registry on first use

 private:
  const char* name_;
  Component comp_;
  std::atomic<SpanStat*> stat_{nullptr};
};

#define CIM_OBS_CONCAT2(a, b) a##b
#define CIM_OBS_CONCAT(a, b) CIM_OBS_CONCAT2(a, b)

/// Named scoped span bound to a local variable, for sites that attach
/// energy: CIM_OBS_SPAN_NAMED(span, "crossbar.vmm", Component::kArray);
#define CIM_OBS_SPAN_NAMED(var, ...)                              \
  static ::cim::obs::SpanHandle CIM_OBS_CONCAT(var, _handle){__VA_ARGS__}; \
  ::cim::obs::Span var { CIM_OBS_CONCAT(var, _handle) }

/// Anonymous scoped span covering the rest of the enclosing block:
/// CIM_OBS_SPAN("eda.flow.map");
#define CIM_OBS_SPAN(...) \
  CIM_OBS_SPAN_NAMED(CIM_OBS_CONCAT(_cim_obs_span_, __LINE__), __VA_ARGS__)

// --- registry ----------------------------------------------------------------

/// Snapshot of every metric, merged deterministically (shards in index
/// order, names in sorted order).
struct Snapshot {
  struct Meta {
    std::string git_sha;
    std::string build_type;
    std::size_t threads = 1;
    std::string mode;
    std::string simd_isa;
    /// Wall-clock capture time (unix epoch microseconds,
    /// std::chrono::system_clock). Monotone process-relative clocks cannot
    /// order snapshots taken by *different processes*, and the snapshot
    /// merge uses this to resolve gauge conflicts (last writer wins) when
    /// worker-process telemetry aggregates into a parent campaign runner.
    /// Microseconds, not ns: the value round-trips exactly through the
    /// JSON exporter's double numbers (2^53 > 10^15).
    std::uint64_t unix_us = 0;
  } meta;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  struct Hist {
    std::string name;
    Histogram::Snapshot data;
  };
  std::vector<Hist> histograms;
  struct SpanRow {
    std::string name;
    Component comp = Component::kOther;
    std::uint64_t count = 0;
    double wall_ns = 0.0;
    double sim_time_ns = 0.0;
    double energy_pj = 0.0;
  };
  std::vector<SpanRow> spans;
  struct ComponentRow {
    Component comp = Component::kOther;
    std::uint64_t events = 0;
    double wall_ns = 0.0;
    double sim_time_ns = 0.0;
    double energy_pj = 0.0;
  };
  std::vector<ComponentRow> components;
};

class Registry {
 public:
  static Registry& global();

  /// Returns the named metric, creating it on first use. References stay
  /// valid for the registry's lifetime; only creation takes the lock.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::span<const double> bounds);
  SpanStat& span_stat(std::string_view name,
                      Component comp = Component::kOther);
  ComponentAgg& component(Component c) {
    return components_[static_cast<std::size_t>(c)];
  }

  Snapshot snapshot() const;

  /// Zeroes every metric and drops recorded trace events (keeps
  /// registrations). Test/bench isolation helper — not thread-safe against
  /// concurrent writers.
  void reset();

 private:
  Registry() = default;

  struct SpanEntry {
    SpanStat stat;
    Component comp = Component::kOther;
  };

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<SpanEntry>, std::less<>> spans_;
  std::array<ComponentAgg, kComponentCount> components_{};
};

/// Convenience: snapshot of the global registry.
Snapshot snapshot();
/// Zero the global registry and recorded trace events.
void reset();

// --- snapshot merge (merge.cpp) ----------------------------------------------

/// What a merge_snapshot() call did — returned so callers (and tests) can
/// assert the merge semantics instead of trusting them.
struct MergeStats {
  std::size_t counters_added = 0;     ///< counter names summed or adopted
  std::size_t gauges_taken = 0;       ///< gauges where `from` won (newer)
  std::size_t histograms_merged = 0;  ///< bucket-wise added histograms
  std::size_t bound_conflicts = 0;    ///< histograms skipped: bounds differ
  std::size_t spans_merged = 0;
};

/// Deterministic merge of `from` into `into`:
///  - counters: values add (missing names are adopted);
///  - histograms: bucket-wise count add + sum add, *only* when the bucket
///    bounds match exactly — mismatched layouts measure different things,
///    so the `into` histogram is kept untouched and the conflict counted;
///  - gauges: last writer wins by snapshot capture time (`meta.unix_us`,
///    ties keep `into` — the deterministic choice), since a gauge is an
///    instantaneous value that cannot meaningfully add;
///  - spans/components: counts, wall, simulated time and energy add.
/// `into.meta` keeps its identity fields but takes the later unix_us, so
/// folding N worker snapshots into a parent is associative-in-effect and
/// independent of fold order for everything except gauge ties.
MergeStats merge_snapshot(Snapshot& into, const Snapshot& from);

/// Parses the flat-JSON snapshot format produced by write_snapshot_json()
/// back into a Snapshot. Returns false (and fills `error` when non-null)
/// on malformed input. parse(write(s)) == s up to histogram-bound float
/// formatting (%.17g is used on export for exactly this reason).
bool parse_snapshot_json(std::string_view text, Snapshot& out,
                         std::string* error = nullptr);

/// Folds a parsed snapshot into the *live* global registry: counters add
/// their deltas, histogram buckets re-observe... structurally (bucket
/// counts are added to a histogram registered with the same bounds),
/// span stats accumulate, and gauges are set when the snapshot is newer
/// than `newer_than_unix_us`. This is how a campaign parent absorbs the
/// telemetry a worker process shipped over its result pipe. Histograms
/// whose registered bounds differ are skipped (counted in the result).
MergeStats absorb_snapshot(const Snapshot& from,
                           std::uint64_t newer_than_unix_us = 0);

// --- attribution report ------------------------------------------------------

/// Per-component attribution with shares over the attributed totals — the
/// measured counterpart of Fig. 5's analytic breakdown.
struct BreakdownRow {
  Component comp = Component::kOther;
  std::uint64_t events = 0;
  double sim_time_ns = 0.0;
  double energy_pj = 0.0;
  double energy_share = 0.0;  ///< of total attributed energy
  double time_share = 0.0;    ///< of total attributed simulated time
};
std::vector<BreakdownRow> breakdown();

// --- build metadata ----------------------------------------------------------

/// Stamp carried in every exported snapshot header so BENCH_PR<N>.json
/// files are self-describing across the perf trajectory.
struct BuildInfo {
  std::string git_sha;     ///< configure-time git SHA (or "unknown")
  std::string build_type;  ///< CMAKE_BUILD_TYPE
  std::size_t threads;     ///< CIM_THREADS or hardware concurrency
  std::string simd_isa;    ///< active kernel ISA (util::simd dispatch)
};
BuildInfo build_info();

/// The one CIM_THREADS parser: a strict decimal count, capped at 1024;
/// 0 (meaning "use the hardware default") for null, empty, zero, signed,
/// padded or otherwise malformed values.
std::size_t parse_threads(const char* value);

// --- exporters (export.cpp) --------------------------------------------------

/// Crash-safe file export: `writer` streams into `<path>.tmp` which is then
/// atomically renamed onto `path`, so an interrupted process can never
/// leave a truncated export behind — readers see either the old file or
/// the complete new one. Returns false (and removes the temp file) when
/// the temp file cannot be created or the stream errors.
bool write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& writer);

/// Flat JSON snapshot of the registry (meta header + every metric).
void write_snapshot_json(std::ostream& os);
/// Same format for an already-captured Snapshot (numbers at %.17g, so the
/// file re-parses bit-identically — see parse_snapshot_json).
void write_snapshot_json(std::ostream& os, const Snapshot& s);

/// Chrome trace_event JSON (chrome://tracing, Perfetto) of the span events
/// recorded under CIM_OBS=trace.
void write_chrome_trace(std::ostream& os);

/// Peak resident set of this process in MiB.
double peak_rss_mb();

/// The BENCH_JSON line (without trailing newline): the registry-emitted
/// bench schema — bench/wall_ms/ops/ops_per_s/threads/peak_rss_mb/cache
/// counters/git_sha/build_type plus numeric extras.
std::string bench_json_line(
    const std::string& bench, double wall_ms, double ops,
    std::initializer_list<std::pair<const char*, double>> extras = {});

/// Overload for dynamically built extras (per-ISA sweeps and other
/// run-time-shaped key sets).
std::string bench_json_line(
    const std::string& bench, double wall_ms, double ops,
    const std::vector<std::pair<std::string, double>>& extras);

/// Prints the BENCH_JSON line and honours the exporter env hooks:
/// CIM_OBS_TRACE_FILE / CIM_OBS_SNAPSHOT_FILE receive the Chrome trace /
/// JSON snapshot when set (and telemetry is enabled);
/// CIM_OBS_HEATMAP_FILE receives the device-health heatmap dump (CSV when
/// the path ends in .csv, flat JSON otherwise) when health telemetry is
/// enabled. All file exports are crash-safe (write_file_atomic). When
/// CIM_OBS_PROM_PORT is set the Prometheus endpoint is started on first
/// use (obs/prom.hpp).
void emit_bench_json(
    const std::string& bench, double wall_ms, double ops,
    std::initializer_list<std::pair<const char*, double>> extras = {});

/// Overload for dynamically built extras.
void emit_bench_json(
    const std::string& bench, double wall_ms, double ops,
    const std::vector<std::pair<std::string, double>>& extras);

}  // namespace cim::obs
