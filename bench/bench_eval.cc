// Experiment E13 (paper §1 motivation): recursion elimination pays off at
// evaluation time. Evaluates Example 1.1's recursive buys1 against its
// equivalent nonrecursive rewriting on synthetic data, and measures the
// engine (indexed, cost-planned, stratified semi-naive fixpoint) on
// transitive closure, join-order, plan-cache and stratification
// workloads, plus the containment decider and automata constructions.
// Per-iteration join_probes and other work counters are exported as
// benchmark counters; tests/eval_index_test.cc pins the engine's probe
// counts against those of the retired scan engine and greedy planner.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <random>

#include "src/ast/parser.h"
#include "src/automata/nfa.h"
#include "src/containment/decider.h"
#include "src/containment/linear.h"
#include "src/containment/ptrees_automaton.h"
#include "src/engine/eval.h"
#include "src/engine/random_db.h"
#include "src/generators/examples.h"
#include "src/tm/tm_encoding.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace datalog {
namespace {

Database BuysDatabase(int people, int items) {
  Database db;
  for (int p = 0; p < people; ++p) {
    if (p % 3 == 0) db.AddFact("trendy", {StrCat("p", p)});
    for (int i = 0; i < items; ++i) {
      if ((p + i) % 7 == 0) {
        db.AddFact("likes", {StrCat("p", p), StrCat("i", i)});
      }
    }
  }
  return db;
}

void BM_RecursiveBuys(benchmark::State& state) {
  Program program = Buys1Program();
  Database db = BuysDatabase(static_cast<int>(state.range(0)), 40);
  EvalStats stats;
  for (auto _ : state) {
    StatusOr<Relation> result =
        EvaluateGoal(program, "buys", db, EvalOptions(), &stats);
    DATALOG_CHECK(result.ok());
    benchmark::DoNotOptimize(result);
  }
  state.counters["join_probes"] = benchmark::Counter(
      static_cast<double>(stats.join_probes) /
          static_cast<double>(state.iterations()),
      benchmark::Counter::kAvgThreads);
}

BENCHMARK(BM_RecursiveBuys)->Arg(30)->Arg(60)->Arg(120);

void BM_NonrecursiveBuys(benchmark::State& state) {
  Program program = Buys1NonrecursiveProgram();
  Database db = BuysDatabase(static_cast<int>(state.range(0)), 40);
  for (auto _ : state) {
    StatusOr<Relation> result = EvaluateGoal(program, "buys", db);
    DATALOG_CHECK(result.ok());
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_NonrecursiveBuys)->Arg(30)->Arg(60)->Arg(120);

Database LineGraph(int length) {
  Database db;
  for (int i = 0; i < length; ++i) {
    db.AddFact("e", {StrCat("n", i), StrCat("n", i + 1)});
  }
  return db;
}

void BM_TransitiveClosureSemiNaive(benchmark::State& state) {
  Program tc = TransitiveClosureProgram("e", "e");
  Database db = LineGraph(static_cast<int>(state.range(0)));
  EvalStats stats;
  for (auto _ : state) {
    StatusOr<Relation> result =
        EvaluateGoal(tc, "p", db, EvalOptions(), &stats);
    DATALOG_CHECK(result.ok());
    benchmark::DoNotOptimize(result);
  }
  state.counters["join_probes"] = benchmark::Counter(
      static_cast<double>(stats.join_probes) /
          static_cast<double>(state.iterations()),
      benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_TransitiveClosureSemiNaive)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256);

// --- parallel evaluation: the thread sweep ----------------------------
//
// Arg(1) is EvalOptions::num_threads: 1 = the serial engine (the exact
// pre-parallel code path), 2/4 = staged parallel rounds over a worker
// pool with sharded merges (docs/engine.md, "Parallel evaluation").
// Single-core hosts still run the full staged machinery — the sweep
// then measures the staging/merge overhead rather than a speedup, and
// per-iteration rounds/staged counters are exported either way.

void RunTransitiveClosureThreads(benchmark::State& state, Program program,
                                 Database db) {
  EvalOptions options;
  options.num_threads = static_cast<int>(state.range(1));
  EvalStats stats;
  for (auto _ : state) {
    StatusOr<Relation> result =
        EvaluateGoal(program, "p", db, options, &stats);
    DATALOG_CHECK(result.ok());
    benchmark::DoNotOptimize(result);
  }
  const double iterations = static_cast<double>(state.iterations());
  state.counters["rounds_parallel"] = benchmark::Counter(
      static_cast<double>(stats.rounds_parallel) / iterations,
      benchmark::Counter::kAvgThreads);
  state.counters["tuples_staged"] = benchmark::Counter(
      static_cast<double>(stats.tuples_staged) / iterations,
      benchmark::Counter::kAvgThreads);
}

void BM_TransitiveClosureSemiNaiveThreads(benchmark::State& state) {
  RunTransitiveClosureThreads(
      state, TransitiveClosureProgram("e", "e"),
      LineGraph(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_TransitiveClosureSemiNaiveThreads)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4});

void BM_TransitiveClosureRandomGraphThreads(benchmark::State& state) {
  Program tc = NonlinearTransitiveClosureProgram();
  RandomDbOptions db_options;
  db_options.domain_size = static_cast<int>(state.range(0));
  db_options.tuples_per_relation = static_cast<int>(state.range(0)) * 2;
  db_options.seed = 42;
  RunTransitiveClosureThreads(state, tc, RandomDatabaseFor(tc, db_options));
}
BENCHMARK(BM_TransitiveClosureRandomGraphThreads)
    ->Args({48, 1})
    ->Args({48, 2})
    ->Args({48, 4});

// --- hub-bucket delta seeks (the BucketArena chunk directory) ---------
//
// A chain of 64 `e` edges whose last node owns Arg(0) `leaf` edges:
//   p(X, Y) :- leaf(X, Y).
//   p(X, Y) :- e(X, Z), p(Z, Y).
// Every round derives one more chain node's Arg(0) paths, so p's
// first-column buckets grow into hubs of hundreds of chunks. The delta
// window stays Arg(0) rows wide while the selector `e` has 64 rows, so
// the cost-based plan scans `e` first and delta-probes p with Z bound:
// each probe seeks the watermark inside a fat bucket — the regression
// case for SkipBelow's chunk-id directory (log-time binary search vs the
// linear chunk-header walk).
void BM_TransitiveClosureHubDeltaSeek(benchmark::State& state) {
  constexpr int kChain = 64;
  StatusOr<Program> parsed = ParseProgram(R"(
    p(X, Y) :- leaf(X, Y).
    p(X, Y) :- e(X, Z), p(Z, Y).
  )");
  DATALOG_CHECK(parsed.ok());
  Program& tc = *parsed;
  Database db;
  for (int i = 0; i < kChain; ++i) {
    db.AddFact("e", {StrCat("c", i), StrCat("c", i + 1)});
  }
  for (int j = 0; j < static_cast<int>(state.range(0)); ++j) {
    db.AddFact("leaf", {StrCat("c", kChain), StrCat("m", j)});
  }
  EvalStats stats;
  for (auto _ : state) {
    StatusOr<Relation> result =
        EvaluateGoal(tc, "p", db, EvalOptions(), &stats);
    DATALOG_CHECK(result.ok());
    benchmark::DoNotOptimize(result);
  }
  state.counters["index_probes"] = benchmark::Counter(
      static_cast<double>(stats.index_probes) /
          static_cast<double>(state.iterations()),
      benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_TransitiveClosureHubDeltaSeek)->Arg(512)->Arg(2048);

// Dense random graphs stress the join planner harder than line graphs:
// bucket sizes are larger and the delta stays fat for several rounds.
void BM_TransitiveClosureRandomGraph(benchmark::State& state) {
  Program tc = NonlinearTransitiveClosureProgram();
  RandomDbOptions db_options;
  db_options.domain_size = static_cast<int>(state.range(0));
  db_options.tuples_per_relation = static_cast<int>(state.range(0)) * 2;
  db_options.seed = 42;
  Database db = RandomDatabaseFor(tc, db_options);
  for (auto _ : state) {
    StatusOr<Relation> result = EvaluateGoal(tc, "p", db);
    DATALOG_CHECK(result.ok());
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TransitiveClosureRandomGraph)->Arg(24)->Arg(48);

// --- cost-based join planning (src/engine/eval.cc planner) ------------
//
// A hub join where greedy most-bound-args ordering is a bad plan:
// reach(W) :- reach(X), hub(X, Y), mid(Y, Z), sel(Z, W) with hub
// fan-out Arg(0) per chain node, a sparse mid (in-degree 16 per Z
// value), and |sel| tiny. A greedy planner walks the rule forward from
// the delta: the fat hub bucket (fan-out candidates) times mid's per-Y
// out-degree, each combination spawning a sel probe — fan_out *
// (1 + 2 * 16) probes per delta row. The cost model starts from the
// cheap end instead: scan sel, probe mid with Z bound (in-degree-sized
// buckets), and finish on hub with both columns bound — chain-sized work
// per delta row plus a one-time two-column hub index. join_probes
// tracks the ordering.
void BM_CostBasedJoinOrder(benchmark::State& state) {
  constexpr int kChain = 24;
  constexpr int kMidInDegree = 16;
  StatusOr<Program> parsed = ParseProgram(R"(
    reach(X) :- start(X).
    reach(W) :- reach(X), hub(X, Y), mid(Y, Z), sel(Z, W).
  )");
  DATALOG_CHECK(parsed.ok());
  Program& prog = *parsed;
  const int fan_out = static_cast<int>(state.range(0));
  Database db;
  db.AddFact("start", {"a0"});
  for (int i = 0; i <= kChain; ++i) {
    for (int j = 0; j < fan_out; ++j) {
      db.AddFact("hub", {StrCat("a", i), StrCat("b", j)});
    }
  }
  for (int l = 0; l < fan_out; ++l) {
    for (int j = 0; j < kMidInDegree; ++j) {
      db.AddFact("mid",
                 {StrCat("b", (l * 7 + j * 11) % fan_out), StrCat("c", l)});
    }
  }
  for (int i = 0; i < kChain; ++i) {
    db.AddFact("sel", {StrCat("c", i), StrCat("a", i + 1)});
  }
  EvalStats stats;
  for (auto _ : state) {
    StatusOr<Relation> result =
        EvaluateGoal(prog, "reach", db, EvalOptions(), &stats);
    DATALOG_CHECK(result.ok());
    benchmark::DoNotOptimize(result);
  }
  const double iterations = static_cast<double>(state.iterations());
  state.counters["join_probes"] = benchmark::Counter(
      static_cast<double>(stats.join_probes) / iterations,
      benchmark::Counter::kAvgThreads);
  state.counters["plans_rebuilt"] = benchmark::Counter(
      static_cast<double>(stats.plans_rebuilt) / iterations,
      benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_CostBasedJoinOrder)->Arg(192)->Arg(256);

// Plan-cache steady state: deep chain transitive closure under staged
// parallel rounds (the database is frozen per round, so rounds track
// the chain length and relation growth settles after the early rounds).
// Once sizes settle, the 2x watermark rule stops rebuilding: plans_cached
// grows with the rounds while plans_rebuilt stays flat — the exported
// counters make the steady state visible in the recorded JSON. Arg(0)
// is the chain length.
void BM_PlanCacheSteadyState(benchmark::State& state) {
  Program tc = TransitiveClosureProgram("e", "e");
  Database db = LineGraph(static_cast<int>(state.range(0)));
  EvalOptions options;
  options.num_threads = 2;
  EvalStats stats;
  for (auto _ : state) {
    StatusOr<Relation> result = EvaluateGoal(tc, "p", db, options, &stats);
    DATALOG_CHECK(result.ok());
    benchmark::DoNotOptimize(result);
  }
  const double iterations = static_cast<double>(state.iterations());
  state.counters["plans_cached"] = benchmark::Counter(
      static_cast<double>(stats.plans_cached) / iterations,
      benchmark::Counter::kAvgThreads);
  state.counters["plans_rebuilt"] = benchmark::Counter(
      static_cast<double>(stats.plans_rebuilt) / iterations,
      benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_PlanCacheSteadyState)->Arg(96)->Arg(192);

// --- containment decider ----------------------------------------------
//
// The decider's perf anchor: a deep recursion × multi-disjunct Θ
// workload where the fixpoint runs many rounds and the combination memo
// is hammered. Arg(0) is the number of path disjuncts in Θ (a universal
// disjunct is added so the instance is contained and the fixpoint runs
// to completion).
ContainmentOptions DeciderBenchOptions() {
  ContainmentOptions options;
  options.track_witness = false;
  return options;
}

void BM_DeciderNonlinearDeepRecursion(benchmark::State& state) {
  Program nl = NonlinearTransitiveClosureProgram();
  UnionOfCqs theta = PathQueries(static_cast<int>(state.range(0)));
  theta.Add(ConjunctiveQuery(
      {Term::Variable("X"), Term::Variable("Y")}, {}));  // universal CQ
  ContainmentOptions options = DeciderBenchOptions();
  ContainmentStats stats;
  for (auto _ : state) {
    StatusOr<ContainmentDecision> decision =
        DecideDatalogInUcq(nl, "p", theta, options);
    DATALOG_CHECK(decision.ok());
    DATALOG_CHECK(decision->contained);
    stats = decision->stats;
    benchmark::DoNotOptimize(decision);
  }
  state.counters["states"] = static_cast<double>(stats.states_discovered);
  state.counters["memo_hits"] = static_cast<double>(stats.memo_hits);
  state.counters["rename_hits"] =
      static_cast<double>(stats.rename_memo_hits);
}
BENCHMARK(BM_DeciderNonlinearDeepRecursion)->Arg(2)->Arg(3);

// Linear variant with a wider recursive rule: the canonical-instance
// space is larger (more rule variables), so the cross-round instance
// cache carries more of the win.
void BM_DeciderDeepChainMultiDisjunct(benchmark::State& state) {
  Program chain = ChainProgram(2);
  UnionOfCqs theta = PathQueries(static_cast<int>(state.range(0)));
  theta.Add(ConjunctiveQuery(
      {Term::Variable("X"), Term::Variable("Y")}, {}));  // universal CQ
  ContainmentOptions options = DeciderBenchOptions();
  ContainmentStats stats;
  for (auto _ : state) {
    StatusOr<ContainmentDecision> decision =
        DecideDatalogInUcq(chain, "p", theta, options);
    DATALOG_CHECK(decision.ok());
    DATALOG_CHECK(decision->contained);
    stats = decision->stats;
    benchmark::DoNotOptimize(decision);
  }
  state.counters["states"] = static_cast<double>(stats.states_discovered);
  state.counters["memo_hits"] = static_cast<double>(stats.memo_hits);
  state.counters["rename_hits"] =
      static_cast<double>(stats.rename_memo_hits);
}
BENCHMARK(BM_DeciderDeepChainMultiDisjunct)->Arg(3)->Arg(4);

// Non-contained variant: transitive closure against bounded path unions,
// where the decider must discover the escaping proof tree. Checker reuse
// across Decide calls (boundedness-style drivers) is part of the
// workload, so each iteration decides the same Θ through one reused
// checker three times.
void BM_DeciderTcPathsCheckerReuse(benchmark::State& state) {
  Program tc = TransitiveClosureProgram("e", "e");
  UnionOfCqs paths = PathQueries(static_cast<int>(state.range(0)));
  ContainmentOptions options = DeciderBenchOptions();
  ContainmentStats stats;
  for (auto _ : state) {
    ContainmentChecker checker(tc, "p");
    for (int repeat = 0; repeat < 3; ++repeat) {
      StatusOr<ContainmentDecision> decision =
          checker.Decide(paths, options);
      DATALOG_CHECK(decision.ok());
      DATALOG_CHECK(!decision->contained);
      stats = decision->stats;
      benchmark::DoNotOptimize(decision);
    }
  }
  state.counters["states"] = static_cast<double>(stats.states_discovered);
  state.counters["memo_hits"] = static_cast<double>(stats.memo_hits);
  state.counters["rename_hits"] =
      static_cast<double>(stats.rename_memo_hits);
}
BENCHMARK(BM_DeciderTcPathsCheckerReuse)->Arg(5)->Arg(7);

// --- word-parallel bitset kernels --------------------------------------
//
// The decider's achieved sets and the automata containment frontiers
// run on Bitset/AntichainStore kernels.

// Deep nonlinear recursion drives many achieved sets per goal, so the
// antichain's subset testing dominates; the word-parallel kernels and
// the popcount-bucket/fold-signature candidate filter carry the win.
// Arg(0) is the PathQueries depth; 4 is the wide-achieved-set stress
// case (hundreds of interned pairs per set).
void BM_DeciderAchievedAntichain(benchmark::State& state) {
  Program nl = NonlinearTransitiveClosureProgram();
  UnionOfCqs theta = PathQueries(static_cast<int>(state.range(0)));
  theta.Add(ConjunctiveQuery(
      {Term::Variable("X"), Term::Variable("Y")}, {}));  // universal CQ
  ContainmentOptions options = DeciderBenchOptions();
  ContainmentStats stats;
  for (auto _ : state) {
    StatusOr<ContainmentDecision> decision =
        DecideDatalogInUcq(nl, "p", theta, options);
    DATALOG_CHECK(decision.ok());
    DATALOG_CHECK(decision->contained);
    stats = decision->stats;
    benchmark::DoNotOptimize(decision);
  }
  state.counters["states"] = static_cast<double>(stats.states_discovered);
  state.counters["subset_checks"] =
      static_cast<double>(stats.subset_checks);
  state.counters["prunes"] = static_cast<double>(stats.antichain_prunes);
  state.counters["word_ops"] = static_cast<double>(stats.subset_word_ops);
}
BENCHMARK(BM_DeciderAchievedAntichain)->Arg(2)->Arg(3)->Arg(4);

// Self-containment of a dense random NFA: subset frontiers span a large
// fraction of the state space, so successor-set construction (unions)
// and the per-dequeue visited-store subset tests dominate — the
// workload the word-parallel kernels target. Arg(0) = number of states;
// Arg(1) = antichain pruning (0 = exact visited store).
void BM_NfaContainmentBitset(benchmark::State& state) {
  const int states = static_cast<int>(state.range(0));
  std::mt19937_64 rng(7);
  Nfa nfa(states, 2);
  nfa.SetInitial(0);
  for (int s = 0; s < states; ++s) {
    if (s % 5 == 0) nfa.SetAccepting(s);
    for (int symbol = 0; symbol < 2; ++symbol) {
      for (int d = 0; d < 3; ++d) {
        nfa.AddTransition(s, symbol, static_cast<int>(rng() % states));
      }
    }
  }
  Nfa::ContainmentOptions options;
  options.antichain = state.range(1) != 0;
  std::size_t explored = 0;
  for (auto _ : state) {
    StatusOr<Nfa::ContainmentResult> result =
        Nfa::Contains(nfa, nfa, options);
    DATALOG_CHECK(result.ok());
    DATALOG_CHECK(result->contained);
    explored = result->explored;
    benchmark::DoNotOptimize(result);
  }
  state.counters["explored"] = static_cast<double>(explored);
}
BENCHMARK(BM_NfaContainmentBitset)
    ->Args({64, 1})
    ->Args({128, 1})
    ->Args({64, 0})
    ->Unit(benchmark::kMicrosecond);

// The shape the linear arm of the corpus pipeline hands to Nfa::Contains:
// a ptrees-like automaton over a wide rule-instance alphabet (every
// symbol is one edge, head atom -> child atom or the accept state),
// checked against the union of several sparse theta-like copies of it.
// Each state leaves on a few dozen of the Arg(0) symbols, so the cost
// must follow the edges, not states × symbols. The last copy keeps
// every edge, so the pair is contained and the BFS runs to exhaustion.
void BM_NfaContainsWideAlphabet(benchmark::State& state) {
  const int symbols = static_cast<int>(state.range(0));
  constexpr int kAtoms = 96;
  constexpr int kDisjuncts = 8;
  std::mt19937_64 rng(11);
  std::vector<int> head(symbols);
  std::vector<int> child(symbols);  // 0 = the accept state
  for (int sym = 0; sym < symbols; ++sym) {
    head[sym] = 1 + static_cast<int>(rng() % kAtoms);
    child[sym] = sym % 16 == 0 ? 0 : 1 + static_cast<int>(rng() % kAtoms);
  }
  auto copy = [&](bool keep_all) {
    Nfa nfa(kAtoms + 1, symbols);
    nfa.SetAccepting(0);
    nfa.SetInitial(1);
    for (int sym = 0; sym < symbols; ++sym) {
      if (keep_all || rng() % 4 != 0) {
        nfa.AddTransition(head[sym], sym, child[sym]);
      }
    }
    return nfa;
  };
  const Nfa ptrees = copy(true);
  Nfa theta = copy(false);
  for (int d = 1; d < kDisjuncts; ++d) {
    theta = Nfa::Union(theta, copy(d == kDisjuncts - 1));
  }
  std::size_t explored = 0;
  for (auto _ : state) {
    StatusOr<Nfa::ContainmentResult> result = Nfa::Contains(ptrees, theta);
    DATALOG_CHECK(result.ok());
    DATALOG_CHECK(result->contained);
    explored = result->explored;
    benchmark::DoNotOptimize(result);
  }
  state.counters["explored"] = static_cast<double>(explored);
  state.counters["theta_states"] = static_cast<double>(theta.num_states());
}
BENCHMARK(BM_NfaContainsWideAlphabet)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

// --- explicit automata constructions ----------------------------------
//
// The ptrees automaton and the linear word-automaton decider stamp their
// labels and states from rule-template int rows through a VarKeyTable.

void BM_PtreesAutomaton(benchmark::State& state) {
  // ChainProgram(2): 8 proof variables over a 4-variable recursive rule
  // (8^4 instances) plus the base rule — a mid-size alphabet.
  Program program = ChainProgram(2);
  std::size_t labels = 0;
  std::size_t states = 0;
  for (auto _ : state) {
    StatusOr<PtreesAutomaton> automaton =
        BuildPtreesAutomaton(program, "p",
                             ExecutionLimits().WithMaxLabels(50'000'000));
    DATALOG_CHECK(automaton.ok());
    labels = automaton->alphabet.num_labels();
    states = automaton->nfta.num_states();
    benchmark::DoNotOptimize(automaton);
  }
  state.counters["alphabet"] = static_cast<double>(labels);
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(BM_PtreesAutomaton);

// The linear word-automaton decider end to end (theta_states counts the
// theta states the search materialised). The Arg is the name the recorded
// baseline carries: 1 was the interned construction, now the only one.
void BM_LinearWordAutomaton(benchmark::State& state) {
  Program tc = TransitiveClosureProgram("e", "e");
  UnionOfCqs paths = PathQueries(3);
  std::size_t theta_states = 0;
  for (auto _ : state) {
    StatusOr<LinearContainmentResult> result =
        DecideLinearDatalogInUcq(tc, "p", paths);
    DATALOG_CHECK(result.ok());
    DATALOG_CHECK(!result->contained);
    theta_states = result->theta_states;
    benchmark::DoNotOptimize(result);
  }
  state.counters["theta_states"] = static_cast<double>(theta_states);
}
BENCHMARK(BM_LinearWordAutomaton)->Arg(1);

// The heaviest tc instance the corpus runs through the linear arm: the
// step-2 chain stepper (4,160 labels) against the union of the paths of
// length 1 to 4, refuted after 499 explored pairs with 5,208 theta states
// materialised (the figures LinearDeciderTest pins). Most of its time is
// the on-demand theta expansion and the antichain subset search.
void BM_LinearHeaviestCorpusTc(benchmark::State& state) {
  Program stepper = ChainProgram(2);
  UnionOfCqs paths = PathQueries(4);
  std::size_t theta_states = 0;
  std::size_t pairs_explored = 0;
  for (auto _ : state) {
    StatusOr<LinearContainmentResult> result =
        DecideLinearDatalogInUcq(stepper, "p", paths);
    DATALOG_CHECK(result.ok());
    DATALOG_CHECK(!result->contained);
    theta_states = result->theta_states;
    pairs_explored = result->pairs_explored;
    benchmark::DoNotOptimize(result);
  }
  DATALOG_CHECK_EQ(theta_states, 5208u);
  DATALOG_CHECK_EQ(pairs_explored, 499u);
  state.counters["theta_states"] = static_cast<double>(theta_states);
  state.counters["pairs_explored"] = static_cast<double>(pairs_explored);
}
BENCHMARK(BM_LinearHeaviestCorpusTc)->Unit(benchmark::kMillisecond);

// The linear decider on a program whose alphabet cannot fit the corpus
// pipeline's 50,000-label cap: the step-5 chain stepper has |var(Π)| = 10
// and a 7-variable recursive rule, whose 10^7 instances overflow the cap
// on their own. The call must fail before enumerating any of them, so a
// slide back to enumerating toward the cap shows up here.
void BM_LinearAlphabetOverCap(benchmark::State& state) {
  Program stepper = ChainProgram(5);
  UnionOfCqs paths = PathQueries(3);
  LinearContainmentOptions options;
  options.limits.max_labels = 50'000;
  for (auto _ : state) {
    StatusOr<LinearContainmentResult> result =
        DecideLinearDatalogInUcq(stepper, "p", paths, options);
    DATALOG_CHECK(!result.ok() &&
                  result.status().code() == StatusCode::kResourceExhausted);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_LinearAlphabetOverCap);

// --- the §5.3 TM-reduction workload ------------------------------------
//
// A heavyweight end-to-end decider instance (the lower-bound reduction on
// a micro machine), the hardest workload in the suite.

void BM_TmReduction(benchmark::State& state) {
  StatusOr<TmEncoding> encoding =
      EncodeLinearTmContainment(ImmediatelyAcceptingMachine(), 1);
  DATALOG_CHECK(encoding.ok());
  ContainmentOptions options = DeciderBenchOptions();
  options.limits.max_states = 5'000'000;
  std::size_t states = 0;
  for (auto _ : state) {
    StatusOr<ContainmentDecision> decision = DecideDatalogInUcq(
        encoding->program, encoding->goal, encoding->queries, options);
    DATALOG_CHECK(decision.ok()) << decision.status();
    DATALOG_CHECK(!decision->contained);
    states = decision->stats.states_discovered;
    benchmark::DoNotOptimize(decision);
  }
  state.counters["decider_states"] = static_cast<double>(states);
}
BENCHMARK(BM_TmReduction)->Unit(benchmark::kMillisecond);

// --- SCC-stratified evaluation (src/analysis/stratify.h) ---------------
//
// DistProgram(Arg(0)) is a tower of strata (dist0 .. distN, each its own
// SCC); a flat fixpoint would re-evaluate every layer's rules in every
// round, while strata-ordered evaluation saturates each layer once.
// tests/prune_strata_test.cc pins the fixpoint against the naive oracle;
// this case tracks the work (join_probes, rounds_saved).

void BM_StratifiedEval(benchmark::State& state) {
  Program dist = DistProgram(static_cast<int>(state.range(0)));
  RandomDbOptions db_options;
  db_options.domain_size = 24;
  db_options.tuples_per_relation = 48;
  db_options.seed = 7;
  Database edb = RandomDatabaseFor(dist, db_options);
  EvalStats stats;
  for (auto _ : state) {
    EvalStats round_stats;
    StatusOr<Database> result =
        EvaluateProgram(dist, edb, EvalOptions(), &round_stats);
    DATALOG_CHECK(result.ok()) << result.status();
    stats = round_stats;
    benchmark::DoNotOptimize(result);
  }
  state.counters["strata"] = static_cast<double>(stats.strata);
  state.counters["rounds_saved"] = static_cast<double>(stats.rounds_saved);
  state.counters["join_probes"] = static_cast<double>(stats.join_probes);
}
BENCHMARK(BM_StratifiedEval)->Arg(3)->Arg(4);

// --- goal-directed rule pruning in the decider -------------------------
//
// Transitive closure carrying Arg(0) unreachable junk rules (a recursive
// island per index). The decider's rounds skip the junk rules outright;
// tests/prune_strata_test.cc pins verdict and witness to those of the
// hand-pruned program, and rules_pruned is exported to keep the workload
// honest.

void BM_DeciderGoalPruning(benchmark::State& state) {
  Program program = TransitiveClosureProgram("e", "e");
  const int junk_rules = static_cast<int>(state.range(0));
  for (int i = 0; i < junk_rules; ++i) {
    std::string junk = StrCat("junk", i);
    program.AddRule(Rule(
        Atom(junk, {Term::Variable("X")}),
        {Atom("e", {Term::Variable("X"), Term::Variable("Y")}),
         Atom(junk, {Term::Variable("Y")})}));
  }
  UnionOfCqs theta = PathQueries(3);
  ContainmentStats stats;
  for (auto _ : state) {
    StatusOr<ContainmentDecision> decision =
        DecideDatalogInUcq(program, "p", theta);
    DATALOG_CHECK(decision.ok()) << decision.status();
    DATALOG_CHECK(!decision->contained);
    stats = decision->stats;
    benchmark::DoNotOptimize(decision);
  }
  state.counters["rules_pruned"] = static_cast<double>(stats.rules_pruned);
  state.counters["states"] = static_cast<double>(stats.states_discovered);
  state.counters["combine_calls"] =
      static_cast<double>(stats.combine_calls);
}
BENCHMARK(BM_DeciderGoalPruning)->Arg(6)->Arg(12);

}  // namespace
}  // namespace datalog
