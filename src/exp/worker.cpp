#include "exp/worker.hpp"

#include <cerrno>
#include <cinttypes>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <string_view>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/obs.hpp"
#include "util/record_io.hpp"
#include "util/thread_pool.hpp"

extern char** environ;

namespace cim::exp {

const char* const kWorkerFdsEnv = "CIM_EXP_WORKER_FDS";

bool in_worker_mode() { return std::getenv(kWorkerFdsEnv) != nullptr; }

namespace {

namespace rio = util::record_io;

/// Full write with EINTR retry; SIGPIPE is ignored so a dead peer surfaces
/// as EPIPE instead of killing the process.
bool write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool write_all(int fd, const std::string& s) {
  return write_all(fd, s.data(), s.size());
}

/// Appends one read() chunk from `fd` to `buf`, retrying EINTR; false on
/// EOF or error.
bool read_chunk(int fd, std::string& buf) {
  char chunk[4096];
  ssize_t r;
  while ((r = ::read(fd, chunk, sizeof(chunk))) < 0 && errno == EINTR) {
  }
  if (r <= 0) return false;
  buf.append(chunk, static_cast<std::size_t>(r));
  return true;
}

/// Buffered line reader over a raw fd, applying the shared trailing-
/// whitespace rule. Returns false on EOF/error with no complete line
/// pending.
bool read_line_fd(int fd, std::string& buf, std::string& out) {
  std::size_t nl;
  while ((nl = buf.find('\n')) == std::string::npos)
    if (!read_chunk(fd, buf)) return false;
  out.assign(rio::rstrip(std::string_view(buf).substr(0, nl)));
  buf.erase(0, nl + 1);
  return true;
}

bool read_exact_fd(int fd, std::string& buf, std::string& out,
                   std::size_t n) {
  while (buf.size() < n)
    if (!read_chunk(fd, buf)) return false;
  out.assign(buf, 0, n);
  buf.erase(0, n);
  return true;
}

void ignore_sigpipe() { std::signal(SIGPIPE, SIG_IGN); }

}  // namespace

bool parse_stat_line(std::string_view line, obs::StreamStat& st) {
  // "stat <n> <mean> <m2> <min> <max>"
  const std::vector<std::string_view> t = rio::split(line);
  if (t.size() != 6 || t[0] != "stat") return false;
  const auto n = rio::parse_u64(t[1]);
  const auto mean = rio::parse_f64(t[2]);
  const auto m2 = rio::parse_f64(t[3]);
  const auto min = rio::parse_f64(t[4]);
  const auto max = rio::parse_f64(t[5]);
  if (!n || !mean || !m2 || !min || !max) return false;
  st = {*n, *mean, *m2, *min, *max};
  return true;
}

// --- parent side -------------------------------------------------------------

bool WorkerPool::write_line(Proc& p, const std::string& line) {
  return write_all(p.to_child, line + "\n");
}

bool WorkerPool::read_line(Proc& p, std::string& out) {
  return read_line_fd(p.from_child, p.rdbuf, out);
}

bool WorkerPool::read_exact(Proc& p, std::string& out, std::size_t n) {
  return read_exact_fd(p.from_child, p.rdbuf, out, n);
}

bool WorkerPool::start(std::size_t children, std::uint64_t fingerprint) {
  if (!procs_.empty() || children == 0) return false;
  ignore_sigpipe();

  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) return false;
  exe[n] = '\0';

  char fp_hex[20];
  std::snprintf(fp_hex, sizeof(fp_hex), "%016" PRIx64, fingerprint);
  const std::string begin_line = std::string("begin ") + fp_hex;

  for (std::size_t i = 0; i < children; ++i) {
    int down[2];  // parent -> child
    int up[2];    // child -> parent
    if (::pipe(down) != 0) {
      shutdown();
      return false;
    }
    if (::pipe(up) != 0) {
      ::close(down[0]);
      ::close(down[1]);
      shutdown();
      return false;
    }

    // The environment block must be assembled BEFORE fork: the parent may
    // have live thread-pool threads, so the child can only use
    // async-signal-safe calls between fork and exec.
    std::string fds_kv = std::string(kWorkerFdsEnv) + "=" +
                         std::to_string(down[0]) + "," +
                         std::to_string(up[1]);
    std::vector<char*> envp;
    const std::size_t kv_len = std::strlen(kWorkerFdsEnv);
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, kWorkerFdsEnv, kv_len) == 0 && (*e)[kv_len] == '=')
        continue;
      envp.push_back(*e);
    }
    envp.push_back(fds_kv.data());
    envp.push_back(nullptr);
    char arg_tag[] = "--cim-exp-worker";
    char* argv[] = {exe, arg_tag, nullptr};

    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(down[0]);
      ::close(down[1]);
      ::close(up[0]);
      ::close(up[1]);
      shutdown();
      return false;
    }
    if (pid == 0) {
      // Child: silence stdout (the parent owns the single BENCH_JSON line),
      // drop parent-side pipe ends, exec ourselves.
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) {
        ::dup2(devnull, STDOUT_FILENO);
        ::close(devnull);
      }
      ::close(down[1]);
      ::close(up[0]);
      ::execve(exe, argv, envp.data());
      ::_exit(127);
    }

    // Parent: keep only its ends, and mark them close-on-exec so later
    // children don't inherit handles on this child's pipes.
    ::close(down[0]);
    ::close(up[1]);
    ::fcntl(down[1], F_SETFD, FD_CLOEXEC);
    ::fcntl(up[0], F_SETFD, FD_CLOEXEC);
    Proc p;
    p.pid = pid;
    p.to_child = down[1];
    p.from_child = up[0];
    procs_.push_back(std::move(p));
  }

  // Handshake every child; any nack/EOF aborts the whole pool — mixed
  // in-process/worker execution would still be correct, but all-or-nothing
  // keeps the failure mode easy to reason about.
  for (Proc& p : procs_) {
    std::string reply;
    if (!write_line(p, begin_line) || !read_line(p, reply) ||
        reply != "ack") {
      shutdown();
      return false;
    }
  }
  return true;
}

bool WorkerPool::send_tasks(std::size_t child,
                            const std::vector<WorkerTask>& tasks) {
  if (child >= procs_.size()) return false;
  std::string msg;
  msg.reserve(tasks.size() * 32 + 8);
  for (const WorkerTask& t : tasks) {
    msg += "task ";
    msg += std::to_string(t.cell);
    msg += ' ';
    msg += std::to_string(t.rep_begin);
    msg += ' ';
    msg += std::to_string(t.rep_count);
    msg += '\n';
  }
  msg += "run\n";
  return write_all(procs_[child].to_child, msg);
}

bool WorkerPool::read_stats(std::size_t child, std::size_t expect,
                            std::vector<obs::StreamStat>& out) {
  if (child >= procs_.size()) return false;
  Proc& p = procs_[child];
  out.clear();
  out.reserve(expect);
  std::string line;
  for (std::size_t i = 0; i < expect; ++i) {
    obs::StreamStat st;
    if (!read_line(p, line) || !parse_stat_line(line, st)) return false;
    out.push_back(st);
  }
  return read_line(p, line) && line == "done";
}

bool WorkerPool::collect_snapshot(std::size_t child, std::string& json_out) {
  if (child >= procs_.size()) return false;
  Proc& p = procs_[child];
  if (!write_line(p, "snapshot")) return false;
  std::string line;
  if (!read_line(p, line)) return false;
  const std::vector<std::string_view> t = rio::split(line);
  if (t.size() != 2 || t[0] != "snapshot") return false;
  const auto len = rio::parse_u64(t[1]);
  if (!len || !read_exact(p, json_out, *len)) return false;
  return read_line(p, line) && line.empty();
}

void WorkerPool::end_campaign() {
  for (Proc& p : procs_)
    if (p.to_child >= 0) write_all(p.to_child, std::string("end\n"));
}

void WorkerPool::shutdown() {
  for (Proc& p : procs_) {
    if (p.to_child >= 0) {
      write_all(p.to_child, std::string("quit\n"));
      ::close(p.to_child);  // EOF backs up the quit if the pipe already broke
      p.to_child = -1;
    }
    if (p.from_child >= 0) {
      ::close(p.from_child);
      p.from_child = -1;
    }
    if (p.pid > 0) {
      int status = 0;
      while (::waitpid(p.pid, &status, 0) < 0 && errno == EINTR) {
      }
      p.pid = -1;
    }
  }
  procs_.clear();
}

// --- child side --------------------------------------------------------------

[[noreturn]] void serve_worker(
    std::uint64_t fingerprint,
    const std::function<obs::StreamStat(const WorkerTask&)>& run_block) {
  ignore_sigpipe();
  // CIM_EXP_WORKER_FDS = "<read fd>,<write fd>".
  const char* env = std::getenv(kWorkerFdsEnv);
  const std::string_view fds = env != nullptr ? env : "";
  const std::size_t comma = fds.find(',');
  const auto rfd = rio::parse_u64(fds.substr(0, comma));
  const auto wfd = comma == std::string_view::npos
                       ? std::nullopt
                       : rio::parse_u64(fds.substr(comma + 1));
  if (!rfd || !wfd || *rfd > INT_MAX || *wfd > INT_MAX) std::_Exit(125);

  // Telemetry from the host main's setup phase is the parent's business;
  // the snapshot shipped back should cover exactly the trials run here.
  obs::Registry::global().reset();

  std::string rdbuf;
  std::string line;
  std::vector<WorkerTask> tasks;
  bool accepted = false;

  const int in_fd = static_cast<int>(*rfd);
  const int out_fd = static_cast<int>(*wfd);
  while (read_line_fd(in_fd, rdbuf, line)) {
    const std::vector<std::string_view> t = rio::split(line);
    const std::string_view head = t.empty() ? "" : t[0];
    if (head == "begin") {
      accepted = t.size() == 2 && rio::parse_u64(t[1], 16) == fingerprint;
      tasks.clear();
      if (!write_all(out_fd, std::string(accepted ? "ack\n" : "nack\n")))
        break;
    } else if (head == "task") {
      if (!accepted || t.size() != 4) continue;
      const auto cell = rio::parse_u64(t[1]);
      const auto begin = rio::parse_u64(t[2]);
      const auto count = rio::parse_u64(t[3]);
      if (cell && begin && count) tasks.push_back({*cell, *begin, *count});
    } else if (line == "run") {
      if (!accepted) continue;
      std::vector<obs::StreamStat> results(tasks.size());
      util::ThreadPool::global().parallel_for(
          0, tasks.size(),
          [&](std::size_t i) { results[i] = run_block(tasks[i]); });
      std::string msg;
      msg.reserve(results.size() * 96 + 8);
      for (const obs::StreamStat& st : results) {
        msg += "stat " + std::to_string(st.n) + ' ' + rio::g17(st.mean) + ' ' +
               rio::g17(st.m2) + ' ' + rio::g17(st.min) + ' ' +
               rio::g17(st.max) + '\n';
      }
      msg += "done\n";
      tasks.clear();
      if (!write_all(out_fd, msg)) break;
    } else if (line == "snapshot") {
      std::ostringstream os;
      obs::write_snapshot_json(os, obs::Registry::global().snapshot());
      const std::string json = os.str();
      std::string msg = "snapshot " + std::to_string(json.size()) + "\n";
      msg += json;
      msg += '\n';
      if (!write_all(out_fd, msg)) break;
    } else if (line == "end") {
      accepted = false;
      tasks.clear();
    } else if (line == "quit") {
      break;
    }
    // Unknown lines are skipped: forward compatibility for later protocol
    // revisions driving an older worker.
  }
  std::_Exit(0);
}

}  // namespace cim::exp
