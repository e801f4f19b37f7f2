// Unit tests for the cost-based join planning layer: ColumnIndex bucket
// statistics and the RelationIndex stats lookup, the per-(rule, delta
// position) plan cache's steady-state behavior (plans_rebuilt stays flat
// once relation sizes settle while plans_cached grows with the rounds),
// and the EvalStats counter plumbing for the planner.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "src/engine/database.h"
#include "src/engine/eval.h"
#include "src/engine/index.h"
#include "src/util/strings.h"
#include "tests/naive_oracle.h"
#include "tests/test_util.h"

namespace datalog {
namespace {

TEST(ColumnIndexStatsTest, StatsTrackBucketsIncrementally) {
  Database db;
  // 3 distinct first columns with bucket sizes 1, 2, 4.
  PredicateId e = db.InternPredicate("e", 2);
  int sizes[] = {1, 2, 4};
  for (int k = 0; k < 3; ++k) {
    for (int i = 0; i < sizes[k]; ++i) {
      db.AddFact("e", {StrCat("k", k), StrCat("v", k, "_", i)});
    }
  }
  RelationIndex index;
  IndexCounters counters;
  const ColumnIndex& built =
      index.Get(db.RelationOf(e), /*key_mask=*/1u, /*distinct_mask=*/2u,
                &counters);
  ColumnIndexStats stats = built.stats();
  EXPECT_EQ(stats.num_buckets, 3u);
  EXPECT_EQ(stats.rows_bucketed, 7u);
  EXPECT_EQ(stats.rows_consumed, 7u);
  EXPECT_EQ(stats.max_bucket, 4u);
  EXPECT_EQ(stats.AvgBucket(), 7u / 3u);

  // Appending rows updates the same index incrementally: the stats keep
  // up without a rebuild.
  db.AddFact("e", {"k2", "v2_extra"});
  const ColumnIndex& updated =
      index.Get(db.RelationOf(e), 1u, 2u, &counters);
  EXPECT_EQ(&updated, &built);  // same index object, caught up
  stats = updated.stats();
  EXPECT_EQ(stats.num_buckets, 3u);
  EXPECT_EQ(stats.rows_bucketed, 8u);
  EXPECT_EQ(stats.rows_consumed, 8u);
  EXPECT_EQ(stats.max_bucket, 5u);
  EXPECT_EQ(counters.index_builds, 1u);
}

TEST(ColumnIndexStatsTest, EmptyIndexReportsZeroAvgBucket) {
  ColumnIndexStats stats;
  EXPECT_EQ(stats.AvgBucket(), 0u);
}

TEST(RelationIndexTest, FindForKeyMaskReturnsWarmIndexOrNull) {
  Database db;
  PredicateId e = db.InternPredicate("e", 2);
  db.AddFact("e", {"x", "y"});
  db.AddFact("e", {"x", "z"});
  RelationIndex index;
  IndexCounters counters;
  // Cold: nothing built for any mask yet.
  EXPECT_EQ(index.FindForKeyMask(1u), nullptr);
  index.Get(db.RelationOf(e), 1u, 2u, &counters);
  const ColumnIndex* warm = index.FindForKeyMask(1u);
  ASSERT_NE(warm, nullptr);
  EXPECT_EQ(warm->key_mask(), 1u);
  EXPECT_EQ(warm->stats().num_buckets, 1u);  // one distinct first column
  EXPECT_EQ(warm->stats().rows_bucketed, 2u);
  // A different mask is still cold.
  EXPECT_EQ(index.FindForKeyMask(2u), nullptr);
  // Lookups never build: counters unchanged past the one explicit Get.
  EXPECT_EQ(counters.index_builds, 1u);

  // With two indexes on the same key mask, the pick is the one with the
  // most rows bucketed, ties broken toward the smaller distinct mask —
  // never unordered_map iteration order.
  index.Get(db.RelationOf(e), 1u, 0u, &counters);  // semi-join (thinned)
  const ColumnIndex* best = index.FindForKeyMask(1u);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->distinct_mask(), 2u);  // 2 rows bucketed beats 1
}

TEST(RelationGrowthWatermarkTest, WatermarkIsTheRowCount) {
  Relation relation(2);
  EXPECT_EQ(relation.GrowthWatermark(), 0u);
  relation.Insert({1, 2});
  relation.Insert({1, 3});
  relation.Insert({1, 2});  // duplicate: no growth
  EXPECT_EQ(relation.GrowthWatermark(), 2u);
  EXPECT_EQ(relation.GrowthWatermark(), relation.size());
}

// Steady state: on a long chain transitive closure under staged rounds
// (num_threads = 2 freezes the database per round, so rounds track the
// chain length), rounds outnumber plan rebuilds by a wide margin — the
// 2x watermark rule rebuilds a plan only logarithmically often while
// every other rule evaluation stamps the cached plan. The serial engine
// is checked too, but it is deliberately chaotic: delta scans re-check
// the relation size each step, so in-round derivations chain and the
// fixpoint lands in O(log n) rounds — too few for a steady state.
TEST(PlanCacheTest, SteadyStateStampsCachedPlans) {
  Program tc = MustParseProgram(R"(
    p(X, Y) :- e(X, Y).
    p(X, Z) :- e(X, Y), p(Y, Z).
  )");
  Database db;
  for (int i = 0; i < 64; ++i) {
    db.AddFact("e", {StrCat("n", i), StrCat("n", i + 1)});
  }
  EvalOptions options;
  options.num_threads = 2;
  EvalStats stats;
  ASSERT_TRUE(EvaluateGoal(tc, "p", db, options, &stats).ok());
  EXPECT_GT(stats.iterations, 32);
  EXPECT_GT(stats.plans_cached, 0u);
  EXPECT_GT(stats.plans_rebuilt, 0u);
  // Rebuilds are logarithmic in the relation growth; stamps scale with
  // rounds. The gap is the cache's whole point.
  EXPECT_GE(stats.plans_cached, 4 * stats.plans_rebuilt);
  // The cost model recorded its estimates for the plans it built.
  EXPECT_GT(stats.est_cost_total, 0u);
  EXPECT_EQ(stats.facts_derived, 64u * 65u / 2u);
  // Serial chaotic rounds collapse the round count; the plan cache
  // still answers every request, it just has fewer rounds to serve.
  EvalOptions serial = options;
  serial.num_threads = 1;
  EvalStats serial_stats;
  ASSERT_TRUE(EvaluateGoal(tc, "p", db, serial, &serial_stats).ok());
  EXPECT_EQ(serial_stats.facts_derived, stats.facts_derived);
  EXPECT_LT(serial_stats.iterations, 16);
}

// The plan cache is per (rule, delta position) and survives across
// rounds in parallel mode too, where planning happens in the serial
// pre-fan-out phase; serial and parallel runs must both compute the
// naive oracle's fixpoint.
TEST(PlanCacheTest, ParallelRoundsShareTheCache) {
  Program tc = MustParseProgram(R"(
    p(X, Y) :- e(X, Y).
    p(X, Z) :- e(X, Y), p(Y, Z).
  )");
  Database db;
  for (int i = 0; i < 48; ++i) {
    db.AddFact("e", {StrCat("n", i), StrCat("n", i + 1)});
  }
  const std::set<Atom> want = NaiveOracleFixpoint(tc, db);
  for (int num_threads : {1, 2}) {
    EvalOptions options;
    options.num_threads = num_threads;
    EvalStats stats;
    StatusOr<Database> result = EvaluateProgram(tc, db, options, &stats);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(SameFactSet(*result, want)) << "num_threads=" << num_threads;
    EXPECT_EQ(stats.facts_derived, 48u * 49u / 2u);
    if (num_threads > 1) {
      EXPECT_GT(stats.plans_cached, 0u);
      EXPECT_GE(stats.plans_cached, 4 * stats.plans_rebuilt);
    }
  }
}

TEST(EvalStatsTest, AccumulateCoversPlannerCounters) {
  EvalStats a;
  a.plans_cached = 3;
  a.plans_rebuilt = 2;
  a.est_cost_total = 40;
  EvalStats b;
  b.plans_cached = 5;
  b.plans_rebuilt = 1;
  b.est_cost_total = 7;
  a.Accumulate(b);
  EXPECT_EQ(a.plans_cached, 8u);
  EXPECT_EQ(a.plans_rebuilt, 3u);
  EXPECT_EQ(a.est_cost_total, 47u);
}

}  // namespace
}  // namespace datalog
