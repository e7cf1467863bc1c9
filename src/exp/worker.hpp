/// \file worker.hpp
/// \brief Process-level campaign sharding: fork/exec worker pool + protocol.
///
/// The campaign engine shards trial blocks across OS processes as well as
/// threads. A worker is this same executable re-exec'd (`/proc/self/exe`)
/// with `CIM_EXP_WORKER_FDS=<read_fd>,<write_fd>` in its environment and a
/// cosmetic `--cim-exp-worker` argv tag: the child re-runs its own `main`
/// until it reaches `run_campaign`, which detects the environment variable
/// and turns into a protocol server (`serve_worker`) that never returns.
/// Re-exec'ing the host binary is what lets the child rebuild the exact
/// `TrialFn` closure — there is no serialization of work, only of results.
///
/// The wire protocol is line-based over a dedicated pipe pair (stdin/stdout
/// are NOT used — the child's stdout is redirected to /dev/null so a bench
/// parent still prints exactly one BENCH_JSON line):
///
///   parent -> child    begin <fingerprint-hex>     child -> ack | nack
///   parent -> child    task <cell> <rep_begin> <rep_count>   (repeated)
///   parent -> child    run
///   child  -> parent   stat <n> <mean> <m2> <min> <max>  (one per task,
///                      in task order, exact doubles), then:  done
///   parent -> child    snapshot
///   child  -> parent   snapshot <len>\n<len JSON bytes>\n
///   parent -> child    end        (campaign over; child awaits next begin)
///   parent -> child    quit       (or EOF: child _exits 0)
///
/// A `nack` (the child's own campaign config has a different fingerprint —
/// possible when the host main builds a different campaign first) or any
/// spawn/handshake failure makes the parent fall back to in-process
/// execution; results are bit-identical either way because block summaries
/// are pure functions of (seed, cell, rep range) and the pipe carries
/// doubles exactly (util/record_io.hpp). Every line follows the shared
/// text rules: trailing CR/space/tab is ignored and numbers are strict.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <sys/types.h>
#include <vector>

#include "obs/dataset.hpp"

namespace cim::exp {

/// One unit of sharded work: a contiguous replication block of one cell.
struct WorkerTask {
  std::size_t cell = 0;
  std::uint64_t rep_begin = 0;
  std::uint64_t rep_count = 0;
};

/// Parses a child's `stat <n> <mean> <m2> <min> <max>` reply with the
/// strict record_io numbers; false (leaving `st` untouched) on any
/// malformed line.
bool parse_stat_line(std::string_view line, obs::StreamStat& st);

/// Name of the fd-pair environment variable that marks a worker process.
extern const char* const kWorkerFdsEnv;

/// True when this process was spawned as a campaign worker.
bool in_worker_mode();

/// Parent-side handle on a set of spawned worker processes.
class WorkerPool {
 public:
  WorkerPool() = default;
  ~WorkerPool() { shutdown(); }
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Spawns `children` workers and runs the `begin` handshake against
  /// `fingerprint`. On any spawn or handshake failure every child is
  /// reaped and false is returned (caller falls back to in-process).
  bool start(std::size_t children, std::uint64_t fingerprint);

  std::size_t children() const { return procs_.size(); }

  /// Ships one round's task list for `child`, terminated by `run`.
  bool send_tasks(std::size_t child, const std::vector<WorkerTask>& tasks);

  /// Reads back exactly `expect` block summaries (in task order) + `done`.
  bool read_stats(std::size_t child, std::size_t expect,
                  std::vector<obs::StreamStat>& out);

  /// Requests the child's telemetry snapshot (flat JSON text).
  bool collect_snapshot(std::size_t child, std::string& json_out);

  /// Signals end-of-campaign to every child (they await a new `begin`).
  void end_campaign();

  /// Sends `quit`, closes pipes and reaps every child. Idempotent.
  void shutdown();

 private:
  struct Proc {
    pid_t pid = -1;
    int to_child = -1;    ///< parent writes protocol lines here
    int from_child = -1;  ///< parent reads replies here
    std::string rdbuf;    ///< partial-line buffer for from_child
  };

  bool write_line(Proc& p, const std::string& line);
  bool read_line(Proc& p, std::string& out);
  bool read_exact(Proc& p, std::string& out, std::size_t n);

  std::vector<Proc> procs_;
};

/// Child-side protocol server. `run_block` computes one task's summary
/// (it must be a pure function of the task — it is called from a thread
/// pool). Resets the telemetry registry on entry so the snapshot shipped
/// back covers exactly the work done here. Never returns.
[[noreturn]] void serve_worker(
    std::uint64_t fingerprint,
    const std::function<obs::StreamStat(const WorkerTask&)>& run_block);

}  // namespace cim::exp
