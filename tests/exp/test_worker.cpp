/// \file test_worker.cpp
/// \brief Process-level sharding: a campaign sharded across fork/exec'd
///        worker processes must be bit-identical to the serial run, and
///        the workers' telemetry snapshots must fold back into the parent
///        registry.
///
/// The worker re-exec trick under gtest: a spawned child re-runs this test
/// binary, and GTEST_FILTER (set in the environment before the campaign
/// starts, inherited through exec) steers the child into THIS test, whose
/// first run_campaign call detects worker mode and becomes the protocol
/// server for the parent. Parent and child therefore build the exact same
/// campaign closure from the same code path.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>

#include "exp/campaign.hpp"
#include "exp/worker.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace {

using cim::exp::CampaignConfig;
using cim::exp::CampaignResult;
using cim::exp::run_campaign;
using cim::exp::TrialFn;

CampaignConfig worker_config() {
  CampaignConfig cfg;
  cfg.name = "tw_shards";
  cfg.seed = 19;
  cfg.cells = 6;
  cfg.block = 4;
  cfg.min_trials = 8;
  cfg.max_trials = 128;
  cfg.ci_target = 0.08;
  return cfg;
}

TrialFn counted_trial() {
  return [](std::size_t cell, std::uint64_t /*rep*/, cim::util::Rng& rng) {
    // The counter rides along so the test can prove worker telemetry makes
    // it back: children ship it in their snapshot, the parent absorbs it.
    cim::obs::Registry::global().counter("test.worker_trials").add(1);
    return rng.normal(static_cast<double>(cell),
                      0.05 + 0.1 * static_cast<double>(cell));
  };
}

TEST(CampaignWorker, ShardsMatchSerialBitwise) {
  // Children exec'd during the sharded run re-enter this very test; their
  // first run_campaign call below (the serial one — same fingerprint)
  // turns them into protocol servers.
  setenv("GTEST_FILTER", "CampaignWorker.ShardsMatchSerialBitwise", 1);

  cim::obs::Registry::global().reset();
  CampaignConfig serial = worker_config();
  const CampaignResult a = run_campaign(serial, counted_trial());
  const cim::obs::Snapshot serial_snap = cim::obs::Registry::global().snapshot();

  cim::obs::Registry::global().reset();
  CampaignConfig sharded = worker_config();
  sharded.workers = 3;  // parent + 2 children
  sharded.pool = &cim::util::ThreadPool::global();
  const CampaignResult b = run_campaign(sharded, counted_trial());
  const cim::obs::Snapshot shard_snap = cim::obs::Registry::global().snapshot();
  unsetenv("GTEST_FILTER");

  // Spawning can legitimately fail only in exotic sandboxes; if it did,
  // the fallback already proved itself by matching, but the test's point
  // is the sharded path, so require it.
  ASSERT_EQ(b.worker_shards, 3u);

  ASSERT_EQ(a.cells.size(), b.cells.size());
  EXPECT_EQ(a.total_trials, b.total_trials);
  EXPECT_EQ(a.rounds, b.rounds);
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    EXPECT_EQ(a.cells[c].stat.n, b.cells[c].stat.n) << "cell " << c;
    EXPECT_EQ(a.cells[c].stat.mean, b.cells[c].stat.mean) << "cell " << c;
    EXPECT_EQ(a.cells[c].stat.m2, b.cells[c].stat.m2) << "cell " << c;
    EXPECT_EQ(a.cells[c].stat.min, b.cells[c].stat.min) << "cell " << c;
    EXPECT_EQ(a.cells[c].stat.max, b.cells[c].stat.max) << "cell " << c;
    EXPECT_EQ(a.cells[c].frozen, b.cells[c].frozen) << "cell " << c;
  }

  // Telemetry absorption: every shard counted its own trials; after the
  // parent absorbs the worker snapshots the counter totals the campaign,
  // exactly like the serial run's.
  const auto counter_of = [](const cim::obs::Snapshot& s, const char* name) {
    std::uint64_t v = 0;
    for (const auto& [n, c] : s.counters)
      if (n == name) v = c;
    return v;
  };
  EXPECT_EQ(counter_of(serial_snap, "test.worker_trials"), a.total_trials);
  EXPECT_EQ(counter_of(shard_snap, "test.worker_trials"), b.total_trials);
  EXPECT_GT(b.worker_telemetry.counters_added, 0u);
}

TEST(CampaignWorker, StatLinesUseStrictNumbers) {
  using cim::exp::parse_stat_line;
  cim::obs::StreamStat st;
  ASSERT_TRUE(parse_stat_line("stat 3 0.5 -1e-300 -inf 2", st));
  EXPECT_EQ(st.n, 3u);
  EXPECT_EQ(st.mean, 0.5);
  EXPECT_EQ(st.m2, -1e-300);
  EXPECT_EQ(st.min, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(st.max, 2.0);
  // Blank runs separate fields (read_line_fd already strips a trailing CR).
  EXPECT_TRUE(parse_stat_line("stat 3  0.5\t0 0 2 \t", st));

  const cim::obs::StreamStat before = st;
  for (const char* bad : {
           "stat -1 0.5 0 0 2",      // signed count
           "stat +3 0.5 0 0 2",      // '+' count
           "stat 3 +0.5 0 0 2",      // '+' double
           "stat 3 0.5x 0 0 2",      // trailing junk
           "stat 3 1e999 0 0 2",     // overflow
           "stat 99999999999999999999 0.5 0 0 2",
           "stat 3 0.5 0 0",         // missing field
           "stat 3 0.5 0 0 2 7",     // extra field
           "stats 3 0.5 0 0 2",      // wrong head
       }) {
    EXPECT_FALSE(parse_stat_line(bad, st)) << bad;
    EXPECT_EQ(st.n, before.n) << bad;
  }
}

TEST(CampaignWorker, NotInWorkerModeByDefault) {
  EXPECT_FALSE(cim::exp::in_worker_mode());
}

TEST(CampaignWorker, FingerprintMismatchFallsBackInProcess) {
  // Children are steered into a test that serves a DIFFERENT campaign
  // fingerprint, so the begin handshake nacks and the parent must fall
  // back to in-process execution with identical results.
  setenv("GTEST_FILTER", "CampaignWorker.ServesOtherCampaign", 1);

  CampaignConfig serial = worker_config();
  serial.name = "tw_fallback";
  const CampaignResult a = run_campaign(serial, counted_trial());

  CampaignConfig sharded = serial;
  sharded.workers = 3;
  const CampaignResult b = run_campaign(sharded, counted_trial());
  unsetenv("GTEST_FILTER");

  EXPECT_EQ(b.worker_shards, 1u);  // handshake refused -> no sharding
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    EXPECT_EQ(a.cells[c].stat.mean, b.cells[c].stat.mean);
    EXPECT_EQ(a.cells[c].stat.n, b.cells[c].stat.n);
  }
}

TEST(CampaignWorker, ServesOtherCampaign) {
  // Helper for FingerprintMismatchFallsBackInProcess: only ever *runs a
  // campaign* inside a worker child (where run_campaign never returns).
  // In a normal test process it is a no-op.
  if (!cim::exp::in_worker_mode()) GTEST_SKIP() << "worker-child helper";
  CampaignConfig other = worker_config();
  other.name = "tw_other_campaign";  // different fingerprint -> nack
  (void)run_campaign(other, counted_trial());
}

}  // namespace
