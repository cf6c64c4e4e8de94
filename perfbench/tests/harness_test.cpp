// Unit tests for the benchmark's measurement maths and stream generators.
#include <gtest/gtest.h>

#include "stats.hpp"
#include "streams.hpp"

namespace perfbench {
namespace {

std::vector<double> iota_ms(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  // p99 of 1000 samples: rank 990, exactly 10 beyond -> reportable.
  const Percentile p = percentile(iota_ms(1000), 0.99);
  EXPECT_DOUBLE_EQ(p.value, 990.0);
  EXPECT_EQ(p.beyond, 10u);
  EXPECT_TRUE(p.reportable);
  // 999 samples leave 9 beyond the p99 -> not reportable.
  const Percentile q = percentile(iota_ms(999), 0.99);
  EXPECT_EQ(q.beyond, 9u);
  EXPECT_FALSE(q.reportable);
}

TEST(PercentileRule, NearestRankAndMedian) {
  EXPECT_EQ(nearest_rank(10, 0.5), 5u);
  EXPECT_EQ(nearest_rank(10, 0.9), 9u);
  EXPECT_EQ(nearest_rank(1, 0.99), 1u);
  EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3.0);
  EXPECT_EQ(percentile({}, 0.5).n, 0u);
  EXPECT_FALSE(percentile({}, 0.5).reportable);
}

TEST(PercentileRule, TailFallsBackToHighestReportable) {
  // 200 samples: p99 has 2 beyond, p95 has 10 -> p95 is the tail.
  const Percentile t = tail_percentile(iota_ms(200), {0.99, 0.95, 0.9});
  EXPECT_DOUBLE_EQ(t.q, 0.95);
  EXPECT_DOUBLE_EQ(t.value, 190.0);
  EXPECT_TRUE(t.reportable);
  // 15 samples: nothing qualifies; the last candidate comes back flagged.
  const Percentile u = tail_percentile(iota_ms(15), {0.99, 0.9});
  EXPECT_DOUBLE_EQ(u.q, 0.9);
  EXPECT_FALSE(u.reportable);
}

TEST(SelfTime, SubtractsUnionOfChildren) {
  std::vector<Span> s;
  s.push_back({"root", -1, 1, 0.0, 10.0});
  s.push_back({"a", 0, 1, 1.0, 4.0});
  s.push_back({"b", 0, 1, 3.0, 6.0});    // overlaps a: union 1..6
  s.push_back({"c", 0, 1, 8.0, 12.0});   // clipped to 8..10
  s.push_back({"a.x", 1, 1, 2.0, 3.0});  // grandchild: only a's self time
  const auto self = self_times(s);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 2.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(SelfTime, DisabledTraceRecordsNothing) {
  Trace off(false);
  EXPECT_EQ(off.add({"x", -1, 1, 0, 1}), -1);
  EXPECT_TRUE(off.spans().empty());
  Trace on(true);
  EXPECT_EQ(on.add({"x", -1, 1, 0, 1}), 0);
  EXPECT_EQ(on.add({"y", 0, 1, 0, 1}), 1);
}

TEST(OpenLoop, FixedScheduleSpacesRequestsEvenly) {
  const auto due = fixed_schedule(1000.0, 2.0);
  ASSERT_EQ(due.size(), 2000u);
  EXPECT_DOUBLE_EQ(due[0], 0.0);
  EXPECT_DOUBLE_EQ(due[3], 0.003);
  EXPECT_LT(due.back(), 2.0);
}

TEST(OpenLoop, LatencyCountsFromDueTime) {
  std::vector<OpenLoopSample> s(4);
  // Request 0 on time; request 1 sent 5 ms late (a stall) and answered
  // 1 ms after sending: it is charged 6 ms, not 1.
  s[0] = {0.000, 0.000, 0.001, true};
  s[1] = {0.001, 0.006, 0.007, true};
  s[2] = {0.002, 0.006, 0.020, true};   // 18 ms: over a 10 ms limit
  s[3] = {0.003, 0.006, -1.0, false};   // never answered
  const OpenLoopSummary sum = summarize_open_loop(s, 10.0);
  EXPECT_EQ(sum.attempted, 4u);
  EXPECT_EQ(sum.failed, 1u);
  EXPECT_EQ(sum.within_limit, 2u);
  ASSERT_EQ(sum.latency_ms.size(), 3u);
  EXPECT_NEAR(sum.latency_ms[1], 6.0, 1e-9);
  EXPECT_NEAR(sum.latency_ms[2], 18.0, 1e-9);
  EXPECT_NEAR(sum.lateness_ms[1], 5.0, 1e-9);
  EXPECT_NEAR(sum.lateness_ms[3], 3.0, 1e-9);
}

TEST(Streams, SeedDeterminesEveryLine) {
  std::int64_t id_a = 1, id_b = 1, id_c = 1;
  EXPECT_EQ(cold_block(7, 0, 3, id_a), cold_block(7, 0, 3, id_b));
  EXPECT_NE(cold_block(7, 0, 3, id_a), cold_block(8, 0, 3, id_c));
  EXPECT_EQ(hot_setup(7), hot_setup(7));
  EXPECT_NE(hot_setup(7), hot_setup(8));
  for (std::size_t i = 0; i < 200; ++i)
    EXPECT_EQ(hot_request(7, i), hot_request(7, i));
  int differ = 0;
  for (std::size_t i = 0; i < 200; ++i)
    differ += hot_request(7, i) != hot_request(8, i);
  EXPECT_GT(differ, 100);
  EXPECT_EQ(mutate_setup(7), mutate_setup(7));
  MutatePlan a(7), b(7), c(8);
  bool any_diff = false;
  for (int k = 0; k < 6; ++k) {
    const auto la = a.next_cycle();
    EXPECT_EQ(la, b.next_cycle());
    any_diff = any_diff || la != c.next_cycle();
  }
  EXPECT_TRUE(any_diff);
}

TEST(Streams, SizesDoNotDependOnSeed) {
  // The seed picks content; the amount of work is fixed.
  for (int block = 0; block < 8; ++block) {
    std::int64_t i1 = 1, i2 = 1;
    const auto a = cold_block(1, 1, block, i1);
    const auto b = cold_block(99, 1, block, i2);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k)
      EXPECT_EQ(a[k].substr(0, a[k].find("args")), b[k].substr(0, b[k].find("args")));
  }
}

TEST(Streams, MutateHealsBackToBaseEveryThirdCycle) {
  MutatePlan plan(3);
  std::size_t cut = 0;
  for (int k = 0; k < 9; ++k) {
    plan.next_cycle();
    for (const auto& [add, e] : plan.last_edits()) {
      (void)e;
      if (add) {
        --cut;
      } else {
        ++cut;
      }
    }
    if (k % 3 == 2) {
      EXPECT_EQ(cut, 0u);
    }
    EXPECT_LE(plan.last_edits().size(), 4u);
  }
}

TEST(Streams, HotFanoutsAreRare) {
  int fanouts = 0;
  for (std::size_t i = 0; i < 10000; ++i) fanouts += is_fanout_line(hot_request(5, i));
  EXPECT_GT(fanouts, 50);
  EXPECT_LT(fanouts, 200);
}

}  // namespace
}  // namespace perfbench
