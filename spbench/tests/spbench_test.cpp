// Tests for the benchmark's own logic: the percentile rule, error-rate
// accounting, merging the servers' counters, the steal-based slice choice,
// the oracle, workload determinism and span self times.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "layers.h"
#include "oracle.h"
#include "stats.h"
#include "workload.h"

namespace spbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileRule, ReportsP99OnlyWithTenSamplesBeyondIt) {
  const LatencySummary s = Summarize(Ramp(1000), 0, 0.99);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_DOUBLE_EQ(s.tail_q, 0.99);
  EXPECT_DOUBLE_EQ(s.tail, 990.0);  // exactly 10 samples lie beyond it
  EXPECT_DOUBLE_EQ(s.p50, 500.0);
}

TEST(PercentileRule, FallsBackToTheHighestPercentileWithTenBeyond) {
  const LatencySummary s = Summarize(Ramp(500), 0, 0.99);
  EXPECT_DOUBLE_EQ(s.tail_q, 0.98);
  EXPECT_DOUBLE_EQ(s.tail, 490.0);
  EXPECT_EQ(TailQuantile(200, 0.99), 0.95);
  // Too few samples for any tail: the rule reports the minimum, and the
  // sample count says why.
  EXPECT_EQ(TailQuantile(10, 0.99), 0.0);
  EXPECT_EQ(Summarize(Ramp(10), 0, 0.99).n, 10u);
}

TEST(PercentileRule, MissedOperationsRankAboveEveryCompletedOne) {
  // 20 missed of 1020: more than 1% missed, so p99 misses every limit.
  const LatencySummary s = Summarize(Ramp(1000), 20, 0.99);
  EXPECT_EQ(s.n, 1020u);
  EXPECT_TRUE(std::isinf(s.tail));
  EXPECT_FALSE(std::isinf(s.p50));
}

TEST(Steal, ParsesTheAggregateCpuLine) {
  const auto t = ParseCpuTimes(
      "cpu  100 5 20 800 10 0 15 50 7 0");  // guest (7) is inside user
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->total, 1000u);
  EXPECT_EQ(t->steal, 50u);
  EXPECT_FALSE(ParseCpuTimes("cpu0 1 2 3 4 5 6 7 8").has_value());
  EXPECT_FALSE(ParseCpuTimes("cpu 1 2 3").has_value());
  EXPECT_DOUBLE_EQ(StealShare({1000, 50}, {1200, 100}), 0.25);
  EXPECT_DOUBLE_EQ(StealShare({1000, 50}, {1000, 50}), 0.0);
}

TEST(Steal, KeepsTheCalmestSlicesInWindowOrder) {
  const std::vector<double> steal = {0.3, 0.0, 0.1, 0.0, 0.5, 0.1};
  EXPECT_EQ(CalmestSlices(steal, 3), (std::vector<size_t>{1, 2, 3}));
  // Ties go to the earlier slice.
  EXPECT_EQ(CalmestSlices(steal, 4), (std::vector<size_t>{1, 2, 3, 5}));
  EXPECT_EQ(CalmestSlices(steal, 9).size(), steal.size());
}

// Two servers in one host process: each reply carries its own atomics and
// a copy of the registry they share.
TEST(ServerStats, SumsPerServerCountersAndTakesSharedRegistryOnce) {
  const StatsReply a = {{"server.queries", 5},
                        {"engine.index_candidates", 40},
                        {"server.query_latency_s.count", 12},
                        {"server.query_latency_s.mean_s", 0.002},
                        {"cache.hits", 3}};
  const StatsReply b = {{"server.queries", 7},
                        {"engine.index_candidates", 60},
                        {"server.query_latency_s.count", 12},
                        {"server.query_latency_s.mean_s", 0.002},
                        {"cache.hits", 3}};
  const Scrape merged = MergeServerStats({a, b});
  EXPECT_DOUBLE_EQ(merged.at("server.queries"), 12);
  EXPECT_DOUBLE_EQ(merged.at("engine.index_candidates"), 100);
  EXPECT_DOUBLE_EQ(merged.at("server.query_latency_s.count"), 12);
  EXPECT_DOUBLE_EQ(merged.at("server.query_latency_s.mean_s"), 0.002);
  EXPECT_DOUBLE_EQ(merged.at("cache.hits"), 3);
}

TEST(ErrorRate, RefusedAndFailedCountAsMissed) {
  OpAccounting a;
  a.ok = 90;
  a.failed = 5;
  a.refused = 3;
  a.mismatched = 2;
  EXPECT_EQ(a.attempted(), 100u);
  EXPECT_EQ(a.missed(), 10u);
  EXPECT_DOUBLE_EQ(a.ErrorRate(), 0.1);
  OpAccounting b;
  b.refused = 100;
  a += b;
  EXPECT_EQ(a.missed(), 110u);
  EXPECT_DOUBLE_EQ(OpAccounting{}.ErrorRate(), 0.0);
}

class OracleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new tigergen::TigerDataset(
        tigergen::GenerateTiger(DatasetOptions(0.05)));
  }
  static void TearDownTestSuite() { delete dataset_; }
  static tigergen::TigerDataset* dataset_;
};
tigergen::TigerDataset* OracleTest::dataset_ = nullptr;

TEST_F(OracleTest, RejectsACorruptedChecksum) {
  auto oracle = Oracle::Create(*dataset_);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  const std::string sql = "SELECT fips, name FROM county";
  auto good = (*oracle)->Checksum(sql);
  ASSERT_TRUE(good.ok());

  Verdict verdict;
  EXPECT_TRUE((*oracle)->Matches(sql, *good, &verdict));
  EXPECT_FALSE((*oracle)->Matches(sql, *good ^ 1, &verdict));
  EXPECT_EQ(verdict.checked, 2u);
  EXPECT_EQ(verdict.mismatched, 1u);
  EXPECT_NE(verdict.first_mismatch.find(sql), std::string::npos);

  OpLog log;
  log.Add(sql, OpKind::kRead, *good);
  log.Add(sql, OpKind::kRead, *good + 7);
  const Verdict bulk = (*oracle)->VerifyReadOnly({&log}, 2);
  EXPECT_EQ(bulk.checked, 2u);
  EXPECT_EQ(bulk.mismatched, 1u);
}

TEST_F(OracleTest, ReplayAppliesWritesBeforeLaterReads) {
  auto oracle = Oracle::Create(*dataset_);
  ASSERT_TRUE(oracle.ok());
  const std::string count = "SELECT COUNT(*) FROM pointlm";
  auto before = (*oracle)->Checksum(count);
  ASSERT_TRUE(before.ok());
  WorkloadInputs inputs(Workload::kBrowse, *dataset_);
  OpStream stream(&inputs, 1, 0, 70'000'000);
  Op write = stream.NextWrite();
  while (write.table != "pointlm") write = stream.NextWrite();

  // A read that saw the pre-insert count after the insert was acked is
  // wrong, and the replay must say so.
  OpLog log;
  log.Add(write.sql, OpKind::kWrite, 0);
  log.Add(count, OpKind::kRead, *before);
  auto verdict = (*oracle)->Replay(log);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_EQ(verdict->mismatched, 1u);
  EXPECT_EQ(log.writes(), 1u);
  EXPECT_EQ(log.write_bytes(), write.sql.size());
}

std::vector<std::string> FirstOps(const WorkloadInputs& inputs, uint64_t seed,
                                  int stream_id, size_t n) {
  OpStream stream(&inputs, seed, stream_id, 1000);
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) out.push_back(stream.Next().sql);
  return out;
}

TEST_F(OracleTest, WorkloadsAreAFunctionOfTheSeed) {
  for (Workload w : {Workload::kBrowse, Workload::kAnalyze, Workload::kScatter}) {
    SCOPED_TRACE(WorkloadName(w));
    const WorkloadInputs a(w, *dataset_);
    const WorkloadInputs b(w, *dataset_);
    EXPECT_EQ(FirstOps(a, 11, 0, 200), FirstOps(b, 11, 0, 200));
    EXPECT_NE(FirstOps(a, 11, 0, 200), FirstOps(b, 12, 0, 200));
    // Sessions of one run draw different streams.
    EXPECT_NE(FirstOps(a, 11, 0, 200), FirstOps(a, 11, 1, 200));
  }
}

TEST(SelfTimes, SubtractTheUnionOfChildIntervals) {
  auto span = [](uint64_t id, uint64_t parent, double a, double b,
                 const char* name) {
    jackpine::obs::SpanRecord r;
    r.trace_id = 1;
    r.span_id = id;
    r.parent_id = parent;
    r.start_s = a;
    r.end_s = b;
    r.name = name;
    return r;
  };
  // Two overlapping children (a parallel scatter) cover [1, 6] of [0, 10].
  const auto totals = SelfTimes({span(1, 0, 0, 10, "root"),
                                 span(2, 1, 1, 5, "child"),
                                 span(3, 1, 2, 6, "child")});
  EXPECT_DOUBLE_EQ(totals.at("root").self_s, 5.0);
  EXPECT_DOUBLE_EQ(totals.at("root").total_s, 10.0);
  EXPECT_EQ(totals.at("child").count, 2u);
  EXPECT_DOUBLE_EQ(totals.at("child").self_s, 8.0);
}

}  // namespace
}  // namespace spbench
