#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <string>
#include <vector>

#include "src/util/flat_table.h"
#include "src/util/iteration.h"
#include "src/util/scc.h"
#include "src/util/status.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"
#include "src/util/union_find.h"

namespace datalog {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgumentError("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad thing");
}

TEST(StatusTest, AllConstructorsSetDistinctCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = NotFoundError("missing");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

// Counts the copies made of it; moves are free.
struct CopyCounter {
  static int copies;
  CopyCounter() = default;
  CopyCounter(const CopyCounter&) { ++copies; }
  CopyCounter(CopyCounter&&) noexcept = default;
  CopyCounter& operator=(const CopyCounter&) {
    ++copies;
    return *this;
  }
  CopyCounter& operator=(CopyCounter&&) noexcept = default;
};
int CopyCounter::copies = 0;

TEST(StatusOrTest, DereferencingAnRvalueMovesTheValue) {
  StatusOr<CopyCounter> s = CopyCounter();
  CopyCounter::copies = 0;
  std::vector<CopyCounter> sink;
  sink.reserve(3);
  sink.push_back(*std::move(s));
  StatusOr<CopyCounter> t = CopyCounter();
  sink.emplace_back(*std::move(t));
  EXPECT_EQ(CopyCounter::copies, 0);
  // An lvalue still copies.
  StatusOr<CopyCounter> u = CopyCounter();
  sink.push_back(*u);
  EXPECT_EQ(CopyCounter::copies, 1);
}

TEST(StringsTest, StrJoinBasic) {
  std::vector<std::string> parts = {"a", "b", "c"};
  EXPECT_EQ(StrJoin(parts, ", "), "a, b, c");
  EXPECT_EQ(StrJoin(std::vector<std::string>{}, ", "), "");
  EXPECT_EQ(StrJoin(std::vector<std::string>{"solo"}, ", "), "solo");
}

TEST(StringsTest, StrJoinWithFormatter) {
  std::vector<int> parts = {1, 2, 3};
  std::string joined = StrJoin(
      parts, "-", [](std::ostream& os, int x) { os << (x * 10); });
  EXPECT_EQ(joined, "10-20-30");
}

TEST(StringsTest, StrSplitKeepsEmptyPieces) {
  EXPECT_EQ(StrSplit("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StringsTest, StrCatMixesTypes) {
  EXPECT_EQ(StrCat("x", 1, "-", 2.5), "x1-2.5");
}

TEST(UnionFindTest, BasicUnions) {
  UnionFind uf(5);
  EXPECT_FALSE(uf.Connected(0, 1));
  uf.Union(0, 1);
  EXPECT_TRUE(uf.Connected(0, 1));
  uf.Union(1, 2);
  EXPECT_TRUE(uf.Connected(0, 2));
  EXPECT_FALSE(uf.Connected(0, 3));
}

TEST(UnionFindTest, AddGrowsStructure) {
  UnionFind uf(1);
  std::size_t a = uf.Add();
  std::size_t b = uf.Add();
  EXPECT_EQ(uf.size(), 3u);
  uf.Union(a, b);
  EXPECT_TRUE(uf.Connected(a, b));
  EXPECT_FALSE(uf.Connected(0, a));
}

TEST(SccTest, SingleCycle) {
  // 0 -> 1 -> 2 -> 0
  SccResult r = StronglyConnectedComponents(3, {{1}, {2}, {0}});
  EXPECT_EQ(r.num_components, 1);
  EXPECT_EQ(r.component[0], r.component[1]);
  EXPECT_EQ(r.component[1], r.component[2]);
}

TEST(SccTest, Dag) {
  // 0 -> 1 -> 2, 0 -> 2
  SccResult r = StronglyConnectedComponents(3, {{1, 2}, {2}, {}});
  EXPECT_EQ(r.num_components, 3);
  // Reverse topological numbering: edge u->v implies comp[u] >= comp[v].
  EXPECT_GE(r.component[0], r.component[1]);
  EXPECT_GE(r.component[1], r.component[2]);
}

TEST(SccTest, TwoComponentsWithBridge) {
  // {0,1} cycle -> {2,3} cycle
  SccResult r =
      StronglyConnectedComponents(4, {{1}, {0, 2}, {3}, {2}});
  EXPECT_EQ(r.num_components, 2);
  EXPECT_EQ(r.component[0], r.component[1]);
  EXPECT_EQ(r.component[2], r.component[3]);
  EXPECT_NE(r.component[0], r.component[2]);
  EXPECT_GE(r.component[0], r.component[2]);
}

TEST(SccTest, SelfLoopIsItsOwnComponent) {
  SccResult r = StronglyConnectedComponents(2, {{0}, {}});
  EXPECT_EQ(r.num_components, 2);
}

TEST(SccTest, EmptyGraph) {
  SccResult r = StronglyConnectedComponents(0, {});
  EXPECT_EQ(r.num_components, 0);
}

TEST(VarKeyTableTest, InternsSpansOfDifferentLengths) {
  VarKeyTable table;
  int a[] = {1, 2, 3};
  int b[] = {1, 2};
  int c[] = {1, 2, 3, 4};
  EXPECT_EQ(table.Intern(a, 3), (std::pair<std::uint32_t, bool>(0, true)));
  EXPECT_EQ(table.Intern(b, 2), (std::pair<std::uint32_t, bool>(1, true)));
  EXPECT_EQ(table.Intern(c, 4), (std::pair<std::uint32_t, bool>(2, true)));
  // Re-interning returns the existing dense index.
  EXPECT_EQ(table.Intern(a, 3), (std::pair<std::uint32_t, bool>(0, false)));
  EXPECT_EQ(table.Intern(b, 2), (std::pair<std::uint32_t, bool>(1, false)));
  EXPECT_EQ(table.size(), 3u);
  // A prefix of an interned key is a distinct key.
  EXPECT_EQ(table.Find(c, 3), 0u);
  EXPECT_EQ(table.Find(c, 4), 2u);
  EXPECT_EQ(table.KeyLength(2), 4u);
  EXPECT_EQ(table.KeyData(1)[1], 2);
}

TEST(VarKeyTableTest, FindOnEmptyAndMissing) {
  VarKeyTable table;
  int key[] = {7};
  EXPECT_EQ(table.Find(key, 1), VarKeyTable::kNotFound);
  table.Intern(key, 1);
  int other[] = {8};
  EXPECT_EQ(table.Find(other, 1), VarKeyTable::kNotFound);
  EXPECT_EQ(table.Find(key, 1), 0u);
}

TEST(VarKeyTableTest, SurvivesGrowth) {
  VarKeyTable table;
  std::vector<int> key(3);
  for (int i = 0; i < 1000; ++i) {
    key = {i, i * 31, i % 7};
    auto [index, fresh] = table.Intern(key.data(), key.size());
    EXPECT_TRUE(fresh);
    EXPECT_EQ(index, static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(table.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    key = {i, i * 31, i % 7};
    EXPECT_EQ(table.Find(key.data(), key.size()),
              static_cast<std::uint32_t>(i));
  }
}

// Robin-hood probing invariants shared by both flat tables: dense ids
// stay append-order (the probing scheme only decides slot placement,
// never id assignment), Find and Intern agree on membership after heavy
// displacement and growth, and max_probe bounds every successful
// lookup's displacement.
TEST(FlatKeyTableTest, RobinHoodPreservesDenseIdOrderUnderChurn) {
  FlatKeyTable table(2);
  // Adversarial-ish keys: many share low hash bits early on, forcing
  // displacement chains and swap-on-richer inserts across several
  // growth doublings.
  std::vector<std::array<int, 2>> keys;
  for (int i = 0; i < 2000; ++i) {
    keys.push_back({i * 16, (i * 7) % 13});
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    auto [index, fresh] = table.Intern(keys[i].data());
    ASSERT_TRUE(fresh);
    ASSERT_EQ(index, static_cast<std::uint32_t>(i));  // append order
  }
  EXPECT_EQ(table.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(table.Find(keys[i].data()), static_cast<std::uint32_t>(i));
    EXPECT_EQ(table.KeyData(i)[0], keys[i][0]);
    EXPECT_EQ(table.KeyData(i)[1], keys[i][1]);
    auto [index, fresh] = table.Intern(keys[i].data());
    EXPECT_FALSE(fresh);
    EXPECT_EQ(index, static_cast<std::uint32_t>(i));
  }
  // Misses exit early (never scan to the next empty slot) and report
  // kNotFound.
  for (int i = 0; i < 100; ++i) {
    int missing[] = {i * 16 + 1, -i - 1};
    EXPECT_EQ(table.Find(missing), FlatKeyTable::kNotFound);
  }
  // The displacement bound is maintained and small relative to the
  // table (load <= 1/2 keeps robin-hood probe chains short).
  EXPECT_LT(table.max_probe(), 64u);
}

TEST(VarKeyTableTest, RobinHoodMaxProbeBoundsLookups) {
  VarKeyTable table;
  std::vector<int> key;
  for (int i = 0; i < 1500; ++i) {
    key = {i, i ^ 0x55, i % 3};
    table.Intern(key.data(), key.size());
  }
  EXPECT_LT(table.max_probe(), 64u);
  for (int i = 0; i < 1500; ++i) {
    key = {i, i ^ 0x55, i % 3};
    EXPECT_EQ(table.Find(key.data(), key.size()),
              static_cast<std::uint32_t>(i));
  }
  key = {-1, -2, -3};
  EXPECT_EQ(table.Find(key.data(), key.size()), VarKeyTable::kNotFound);
}

TEST(IterationTest, ProductEnumeratesAll) {
  std::vector<std::vector<std::size_t>> seen;
  ForEachProduct({2, 3}, [&](const std::vector<std::size_t>& c) {
    seen.push_back(c);
    return true;
  });
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(seen.front(), (std::vector<std::size_t>{0, 0}));
}

TEST(IterationTest, ProductEmptyDimensions) {
  int count = 0;
  ForEachProduct({}, [&](const std::vector<std::size_t>&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1);  // one empty choice
  count = 0;
  ForEachProduct({3, 0, 2}, [&](const std::vector<std::size_t>&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 0);  // a zero dimension kills the product
}

TEST(IterationTest, ProductEarlyStop) {
  int count = 0;
  bool completed = ForEachProduct({10, 10}, [&](const std::vector<std::size_t>&) {
    return ++count < 5;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 5);
}

TEST(IterationTest, SubsetMasks) {
  int count = 0;
  ForEachSubsetMask(4, [&](std::uint64_t) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 16);
}

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ReusableAcrossManyBatches) {
  // The fixpoint-round usage pattern: one pool, many small batches.
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.ParallelFor(7, [&](std::size_t i) { total.fetch_add(i + 1); });
  }
  EXPECT_EQ(total.load(), 200u * (7u * 8u / 2u));
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::size_t sum = 0;  // no atomics needed: everything runs on the caller
  pool.ParallelFor(100, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 4950u);
  pool.ParallelFor(0, [&](std::size_t) { ADD_FAILURE() << "n=0 ran"; });
}

TEST(ThreadPoolTest, HardwareConcurrencyIsAtLeastOne) {
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1u);
}

}  // namespace
}  // namespace datalog
