/// \file test_snapshot_merge.cpp
/// \brief Snapshot merge semantics (obs/merge.cpp): counters add, gauges
///        resolve last-writer-wins by capture time, histograms add
///        bucket-wise only on identical bounds, spans accumulate — plus
///        the JSON round-trip and live-registry absorption used when a
///        campaign parent folds in worker-process telemetry.
#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace {

using cim::obs::absorb_snapshot;
using cim::obs::merge_snapshot;
using cim::obs::MergeStats;
using cim::obs::parse_snapshot_json;
using cim::obs::Registry;
using cim::obs::Snapshot;

Snapshot make_snapshot(std::uint64_t unix_us) {
  Snapshot s;
  s.meta.git_sha = "test";
  s.meta.build_type = "Release";
  s.meta.unix_us = unix_us;
  s.counters = {{"exp.trials_done", 100}, {"worker.only", 7}};
  s.gauges = {{"exp.eta_s", 12.5}};
  Snapshot::Hist h;
  h.name = "trial.latency";
  h.data.bounds = {1.0, 10.0, 100.0};
  h.data.counts = {5, 3, 1, 0};
  h.data.count = 9;
  h.data.sum = 42.0;
  s.histograms.push_back(h);
  return s;
}

TEST(SnapshotMerge, CountersAddAndNewNamesAreAdopted) {
  Snapshot into = make_snapshot(1000);
  into.counters = {{"exp.trials_done", 50}};
  const Snapshot from = make_snapshot(2000);

  const MergeStats ms = merge_snapshot(into, from);
  EXPECT_EQ(ms.counters_added, 2u);

  std::uint64_t trials = 0, adopted = 0;
  for (const auto& [name, v] : into.counters) {
    if (name == "exp.trials_done") trials = v;
    if (name == "worker.only") adopted = v;
  }
  EXPECT_EQ(trials, 150u);
  EXPECT_EQ(adopted, 7u);
}

TEST(SnapshotMerge, GaugesAreLastWriterWinsByCaptureTime) {
  Snapshot older = make_snapshot(1000);
  older.gauges = {{"exp.eta_s", 99.0}};
  Snapshot newer = make_snapshot(2000);
  newer.gauges = {{"exp.eta_s", 12.5}};

  // Newer `from` wins...
  Snapshot into = older;
  merge_snapshot(into, newer);
  EXPECT_DOUBLE_EQ(into.gauges[0].second, 12.5);
  EXPECT_EQ(into.meta.unix_us, 2000u);

  // ...older `from` does not (and ties keep `into`).
  Snapshot into2 = newer;
  const MergeStats ms = merge_snapshot(into2, older);
  EXPECT_DOUBLE_EQ(into2.gauges[0].second, 12.5);
  EXPECT_EQ(ms.gauges_taken, 0u);
  Snapshot tie = newer;
  Snapshot tie_from = newer;
  tie_from.gauges = {{"exp.eta_s", -1.0}};
  merge_snapshot(tie, tie_from);
  EXPECT_DOUBLE_EQ(tie.gauges[0].second, 12.5);
}

TEST(SnapshotMerge, HistogramsMergeBucketWiseOnIdenticalBounds) {
  Snapshot into = make_snapshot(1000);
  Snapshot from = make_snapshot(2000);
  from.histograms[0].data.counts = {1, 1, 1, 2};
  from.histograms[0].data.count = 5;
  from.histograms[0].data.sum = 500.0;

  const MergeStats ms = merge_snapshot(into, from);
  EXPECT_EQ(ms.histograms_merged, 1u);
  EXPECT_EQ(ms.bound_conflicts, 0u);
  const auto& h = into.histograms[0].data;
  EXPECT_EQ(h.counts, (std::vector<std::uint64_t>{6, 4, 2, 2}));
  EXPECT_EQ(h.count, 14u);
  EXPECT_DOUBLE_EQ(h.sum, 542.0);
}

TEST(SnapshotMerge, ConflictingBoundsAreSkippedAndCounted) {
  Snapshot into = make_snapshot(1000);
  Snapshot from = make_snapshot(2000);
  from.histograms[0].data.bounds = {2.0, 20.0, 200.0};

  const Snapshot before = into;
  const MergeStats ms = merge_snapshot(into, from);
  EXPECT_EQ(ms.bound_conflicts, 1u);
  EXPECT_EQ(ms.histograms_merged, 0u);
  EXPECT_EQ(into.histograms[0].data.counts, before.histograms[0].data.counts);
  EXPECT_EQ(into.histograms[0].data.count, before.histograms[0].data.count);
}

TEST(SnapshotMerge, JsonRoundTripsThenMergesIdentically) {
  const Snapshot s = make_snapshot(123456789012345);

  std::ostringstream os;
  cim::obs::write_snapshot_json(os, s);
  Snapshot parsed;
  std::string err;
  ASSERT_TRUE(parse_snapshot_json(os.str(), parsed, &err)) << err;

  EXPECT_EQ(parsed.meta.unix_us, s.meta.unix_us);
  ASSERT_EQ(parsed.counters.size(), s.counters.size());
  ASSERT_EQ(parsed.histograms.size(), s.histograms.size());
  EXPECT_EQ(parsed.histograms[0].data.counts, s.histograms[0].data.counts);
  EXPECT_DOUBLE_EQ(parsed.histograms[0].data.sum, s.histograms[0].data.sum);

  // Merging the parsed copy behaves exactly like merging the original.
  Snapshot a = make_snapshot(1000), b = make_snapshot(1000);
  merge_snapshot(a, s);
  merge_snapshot(b, parsed);
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (std::size_t i = 0; i < a.counters.size(); ++i)
    EXPECT_EQ(a.counters[i], b.counters[i]);
}

TEST(SnapshotMerge, ParseRejectsGarbage) {
  Snapshot out;
  std::string err;
  EXPECT_FALSE(parse_snapshot_json("not json", out, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(parse_snapshot_json("{\"counters\": [", out, nullptr));
}

TEST(SnapshotMerge, ParseRejectsInvalidHistogramLayout) {
  // A histogram whose bounds are not strictly increasing, or whose bucket
  // counts disagree with its count, is rejected with an error naming it.
  const auto parse_hist = [](Snapshot::Hist h, std::string* err) {
    Snapshot s = make_snapshot(1);
    s.histograms = {std::move(h)};
    std::ostringstream os;
    cim::obs::write_snapshot_json(os, s);
    Snapshot out;
    return parse_snapshot_json(os.str(), out, err);
  };
  const Snapshot::Hist good = make_snapshot(1).histograms[0];
  std::string err;
  ASSERT_TRUE(parse_hist(good, &err)) << err;

  for (const std::vector<double>& bounds :
       {std::vector<double>{5.0, 1.0, 3.0}, std::vector<double>{1.0, 1.0, 3.0}}) {
    Snapshot::Hist h = good;
    h.data.bounds = bounds;
    err.clear();
    EXPECT_FALSE(parse_hist(h, &err));
    EXPECT_NE(err.find("trial.latency"), std::string::npos) << err;
    EXPECT_NE(err.find("strictly increasing"), std::string::npos) << err;
  }

  Snapshot::Hist h = good;
  h.data.count += 1;
  err.clear();
  EXPECT_FALSE(parse_hist(h, &err));
  EXPECT_NE(err.find("trial.latency"), std::string::npos) << err;
  EXPECT_NE(err.find("sum to count"), std::string::npos) << err;
}

TEST(SnapshotMerge, ParseRejectsNonIntegerCountsNamingTheField) {
  // Integer fields must hold an exact integer in range: negative,
  // fractional, huge and 2^64 values are errors naming the field, never an
  // undefined double-to-integer cast.
  const auto doc = [](const std::string& threads, const std::string& counter,
                      const std::string& bucket, const std::string& span) {
    return "{\"meta\":{\"git_sha\":\"t\",\"build_type\":\"Release\","
           "\"threads\":" + threads +
           ",\"simd_isa\":\"scalar\",\"cim_obs\":\"metrics\"},"
           "\"counters\":{\"c\":" + counter + "},\"gauges\":{},"
           "\"histograms\":{\"h\":{\"bounds\":[1],\"counts\":[" + bucket +
           ",0],\"count\":1,\"sum\":0}},"
           "\"spans\":{\"s\":{\"component\":\"array\",\"count\":" + span +
           ",\"wall_ns\":0,\"sim_time_ns\":0,\"energy_pj\":0}},"
           "\"components\":{}}";
  };
  Snapshot out;
  std::string err;
  ASSERT_TRUE(parse_snapshot_json(doc("4", "1", "1", "1"), out, &err)) << err;
  EXPECT_EQ(out.meta.threads, 4u);
  // The largest exact uint64 double below 2^64 still fits.
  ASSERT_TRUE(parse_snapshot_json(
      doc("4", "18446744073709549568", "1", "1"), out, &err))
      << err;
  EXPECT_EQ(out.counters.at(0).second, 18446744073709549568ULL);

  for (const std::string bad : {"-1", "1.5", "1e30", "18446744073709551616"}) {
    const std::pair<std::string, std::string> cases[] = {
        {doc(bad, "1", "1", "1"), "meta.threads"},
        {doc("4", bad, "1", "1"), "counters.c"},
        {doc("4", "1", bad, "1"), "histograms.h.counts"},
        {doc("4", "1", "1", bad), "spans.s.count"},
    };
    for (const auto& [text, field] : cases) {
      err.clear();
      EXPECT_FALSE(parse_snapshot_json(text, out, &err)) << field << "=" << bad;
      EXPECT_NE(err.find("bad '" + field + "'"), std::string::npos)
          << field << "=" << bad << ": " << err;
    }
  }
}

TEST(SnapshotMerge, AbsorbIntoLiveRegistry) {
  Registry& reg = Registry::global();
  reg.reset();
  reg.counter("exp.trials_done").add(10);
  const std::array<double, 3> bounds{1.0, 10.0, 100.0};
  auto& hist = reg.histogram("trial.latency", bounds);
  hist.observe(5.0);  // bucket 1 (1 < 5 <= 10)

  const Snapshot from = make_snapshot(5000);
  const MergeStats ms = absorb_snapshot(from, 0);
  EXPECT_GE(ms.counters_added, 2u);
  EXPECT_EQ(ms.histograms_merged, 1u);

  const Snapshot now = reg.snapshot();
  std::uint64_t trials = 0, adopted = 0;
  for (const auto& [name, v] : now.counters) {
    if (name == "exp.trials_done") trials = v;
    if (name == "worker.only") adopted = v;
  }
  EXPECT_EQ(trials, 110u);
  EXPECT_EQ(adopted, 7u);
  for (const auto& h : now.histograms)
    if (h.name == "trial.latency") {
      EXPECT_EQ(h.data.count, 10u);
      EXPECT_DOUBLE_EQ(h.data.sum, 47.0);
    }

  // A stale snapshot cannot overwrite gauges past the cutoff.
  reg.gauge("exp.eta_s").set(77.0);
  const MergeStats stale = absorb_snapshot(from, /*newer_than_unix_us=*/9000);
  EXPECT_EQ(stale.gauges_taken, 0u);
  const Snapshot after = reg.snapshot();
  for (const auto& [name, v] : after.gauges)
    if (name == "exp.eta_s") {
      EXPECT_DOUBLE_EQ(v, 77.0);
    }
  reg.reset();
}

}  // namespace
