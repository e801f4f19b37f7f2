#include "src/engine/eval.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/analysis/stratify.h"
#include "src/engine/index.h"
#include "src/util/hash.h"
#include "src/util/logging.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace datalog {
namespace {

// The worker count EvalOptions::num_threads resolves to: 0 means the
// hardware concurrency, anything below 1 clamps to 1.
std::size_t ResolvedEvalThreads(const EvalOptions& options) {
  if (options.num_threads == 0) return ThreadPool::HardwareConcurrency();
  return static_cast<std::size_t>(std::max(1, options.num_threads));
}

// The fact cap counts head-tuple emissions, duplicates included, not
// distinct facts; the message says so.
Status FactCapExceeded(std::size_t max_facts) {
  return ResourceExhaustedError(
      StrCat("evaluation exceeded ", max_facts,
             " head-tuple emissions (max_facts counts duplicates too)"));
}

// A body atom compiled against the dictionaries: the predicate is a dense
// id, and each argument is either a constant id (>= 0 in `constant`) or a
// variable slot (index into the binding array, in `variable`).
struct CompiledAtom {
  PredicateId predicate;
  std::size_t arity;
  std::vector<int> constant;  // -1 when the position holds a variable
  std::vector<int> variable;  // -1 when the position holds a constant
};

// One position of a join plan: which body atom runs at this step, and the
// column patterns its index probe uses. `key_mask` marks columns holding
// constants or variables bound by earlier steps (static per plan: the
// set of bound variables at each step depends only on the order).
// `distinct_mask` marks columns binding new variables that stay relevant
// downstream (used later in the plan, emitted by the head, or repeated
// within the atom); columns outside both masks bind dead variables, and
// `project` says some exist — rows then collapse to one representative
// per (key, distinct) projection inside the index (a projection pushed
// into the join). `index` is resolved when the plan is built and caught
// up on every use (cached plans refresh it before each stamp).
struct JoinStep {
  std::size_t atom = 0;
  std::uint32_t key_mask = 0;
  std::uint32_t distinct_mask = 0;
  bool project = false;
  const ColumnIndex* index = nullptr;
};

// A compiled join plan cached for one (rule, delta position), plus the
// size watermark of every participating relation at build time. The
// plan stays valid while no participating relation has more than
// doubled past its watermark — cardinality estimates from before such
// growth are still within 2x, and the 2x threshold makes rebuilds
// logarithmic in a relation's final size (plans_rebuilt stays flat
// while plans_cached grows round over round).
struct CachedPlan {
  bool valid = false;
  std::vector<JoinStep> steps;
  std::vector<std::pair<PredicateId, std::size_t>> watermarks;
};

struct CompiledRule {
  PredicateId head_predicate;
  std::vector<int> head_constant;  // parallel to head args, -1 for variables
  std::vector<int> head_variable;
  std::vector<CompiledAtom> body;
  std::size_t num_variables = 0;
  // Variable slots appearing in the head but in no body atom (unsafe).
  std::vector<int> unbound_head_variables;
  // Slots appearing anywhere in the head (constants excluded).
  std::vector<char> in_head;
  // Plan cache, one slot per delta position: plans[0] is the full
  // (no-delta) plan, plans[i + 1] the plan with body atom i as the
  // delta (see PlanFor).
  std::vector<CachedPlan> plans;
};

constexpr int kUnbound = -1;

// Staging shards per parallel round. Fixed (not derived from the thread
// count) so the merged row order — and therefore the whole result
// database — is identical for every parallel thread count; see
// "Parallel evaluation" in docs/engine.md.
constexpr std::size_t kNumShards = 64;

class RuleCompiler {
 public:
  explicit RuleCompiler(Database* db) : db_(db) {}

  CompiledRule Compile(const Rule& rule) {
    CompiledRule compiled;
    slots_.clear();
    compiled.head_predicate =
        db_->InternPredicate(rule.head().predicate(), rule.head().arity());
    for (const Atom& atom : rule.body()) {
      compiled.body.push_back(CompileAtom(atom));
    }
    std::size_t body_variables = slots_.size();
    CompileHead(rule.head(), &compiled);
    compiled.num_variables = slots_.size();
    for (int v : compiled.head_variable) {
      if (v >= 0 && static_cast<std::size_t>(v) >= body_variables) {
        compiled.unbound_head_variables.push_back(v);
      }
    }
    compiled.in_head.assign(compiled.num_variables, 0);
    for (int v : compiled.head_variable) {
      if (v >= 0) compiled.in_head[v] = 1;
    }
    compiled.plans.resize(compiled.body.size() + 1);
    return compiled;
  }

 private:
  int SlotFor(const std::string& variable) {
    auto [it, inserted] =
        slots_.emplace(variable, static_cast<int>(slots_.size()));
    return it->second;
  }

  CompiledAtom CompileAtom(const Atom& atom) {
    CompiledAtom compiled;
    compiled.predicate = db_->InternPredicate(atom.predicate(), atom.arity());
    compiled.arity = atom.arity();
    for (const Term& t : atom.args()) {
      if (t.is_constant()) {
        compiled.constant.push_back(db_->dictionary().Intern(t.name()));
        compiled.variable.push_back(-1);
      } else {
        compiled.constant.push_back(-1);
        compiled.variable.push_back(SlotFor(t.name()));
      }
    }
    return compiled;
  }

  void CompileHead(const Atom& head, CompiledRule* compiled) {
    for (const Term& t : head.args()) {
      if (t.is_constant()) {
        compiled->head_constant.push_back(db_->dictionary().Intern(t.name()));
        compiled->head_variable.push_back(-1);
      } else {
        compiled->head_constant.push_back(-1);
        compiled->head_variable.push_back(SlotFor(t.name()));
      }
    }
  }

  Database* db_;
  std::unordered_map<std::string, int> slots_;
};

// The semi-naive delta, represented as a watermark per relation: the
// database's relations are append-only, so "the facts derived in the
// previous round" are exactly the rows with index >= lo. Deltas share
// storage and column indexes with the full relations — a delta probe is
// a full-index probe restricted to the bucket suffix at or past the
// watermark.
struct DeltaWindow {
  explicit DeltaWindow(std::size_t num_predicates) : lo(num_predicates, 0) {}
  std::vector<std::size_t> lo;
};

// Per-task matching state plus the emit sink. The serial engine owns one
// (facts go straight into the database — chaotic iteration); a parallel
// round owns one per task, with derived tuples staged into per-shard
// buffers instead of inserted. Everything a match touches and writes
// lives here, so concurrent tasks share only the frozen database and
// its indexes, read-only.
struct MatchContext {
  // Reusable per-plan-depth probe keys and binding-undo logs, the head
  // construction buffer, and the variable binding — keeps the hot path
  // allocation-free.
  std::vector<Tuple> key;
  std::vector<std::vector<int>> undo;
  Tuple head;
  std::vector<int> binding;
  // Parallel staging: flat [predicate, args...] rows per shard; unused
  // (and empty) in serial mode.
  bool staging = false;
  std::vector<std::vector<int>> shard_rows;
  // Head tuples emitted (duplicates included); matching aborts once it
  // exceeds the budget. The serial context accumulates across the whole
  // run (the pre-parallel behavior); a task context is reset per round
  // with the remaining global budget.
  std::size_t emitted = 0;
  std::size_t emit_budget = 0;
  // Set by a failed governor poll (cancellation, deadline, injected
  // fault) mid-match; a false MatchBody return with this non-OK means
  // "interrupted", not "budget hit". Checked by the serial EvaluateRule
  // and the parallel round's post-fan-out fold, both in deterministic
  // order.
  Status abort_status;
  // Local stats mirrors, folded into EvalStats in a deterministic order
  // (task order) after the work completes.
  std::size_t join_probes = 0;
  std::size_t index_probes = 0;
  std::size_t tuples_staged = 0;
};

// Evaluates rule bodies against a database, with one body atom optionally
// restricted to the delta window (semi-naive evaluation). Joins probe
// per-relation hash column indexes in a cost-based runtime join order;
// only unindexable atoms (arity 0 or >= 32) and steps with nothing bound
// and nothing to project fall back to scanning.
//
// With num_threads == 1 (the default), derived facts are inserted into
// the database immediately (chaotic iteration reaches the same least
// fixpoint as stratified rounds, and saves a staging copy of every
// fact); rows gained mid-round simply fall into the next round's window.
// With more threads, rounds are staged: rules fan out across a worker
// pool against the frozen pre-round database, and a sharded merge phase
// dedups and appends the staged tuples (RunParallel below).
class Evaluator {
 public:
  Evaluator(const Program& program, const Database& edb,
            const EvalOptions& options, EvalStats* stats)
      : options_(options),
        stats_(stats),
        db_(edb),
        governor_(options_.limits, "engine fixpoint") {
    max_facts_ = options_.limits.FactsOr(50'000'000);
    RuleCompiler compiler(&db_);
    for (const Rule& rule : program.rules()) {
      rules_.push_back(compiler.Compile(rule));
    }
    // Rule groups, in evaluation order: the SCC strata of the dependence
    // graph, dependencies first.
    rule_groups_ = StratifyProgram(program).strata;
    active_domain_ = db_.ActiveDomain();
    domain_set_.insert(active_domain_.begin(), active_domain_.end());
    // Constants mentioned only in the program are part of the domain too.
    for (const CompiledRule& rule : rules_) {
      for (int c : rule.head_constant) {
        if (c >= 0) InsertDomain(c);
      }
      for (const CompiledAtom& atom : rule.body) {
        for (int c : atom.constant) {
          if (c >= 0) InsertDomain(c);
        }
      }
    }
    // All predicates are interned by now; id space is frozen.
    indexes_.resize(db_.predicates().size());
    for (const CompiledRule& rule : rules_) {
      max_body_ = std::max(max_body_, rule.body.size());
    }
    serial_ctx_.key.resize(max_body_);
    serial_ctx_.undo.resize(max_body_);
    serial_ctx_.emit_budget = max_facts_;
  }

  StatusOr<Database> Run() {
    std::size_t threads = ResolvedEvalThreads(options_);
    // One pool for the whole run; each stratum fans its rounds out on it.
    std::optional<ThreadPool> pool;
    if (threads > 1 && !rule_groups_.empty()) pool.emplace(threads);
    Status s = OkStatus();
    for (const std::vector<std::size_t>& group : rule_groups_) {
      if (stats_ != nullptr) ++stats_->strata;
      if (pool.has_value()) {
        s = RunParallel(*pool, group);
      } else {
        s = RunSemiNaive(group);
      }
      if (!s.ok()) break;
    }
    if (stats_ != nullptr) {
      stats_->join_probes += serial_ctx_.join_probes;
      stats_->index_probes += serial_ctx_.index_probes;
      stats_->index_builds += counters_.index_builds;
      stats_->tuples_indexed += counters_.tuples_indexed;
    }
    if (!s.ok()) return s;
    return std::move(db_);
  }

 private:
  void InsertDomain(int id) {
    if (domain_set_.insert(id).second) active_domain_.push_back(id);
  }

  // Estimated candidate rows if `atom` runs next with the columns in
  // `key_mask` bound: the per-key selectivity of a warm index with that
  // key pattern — current rows over the index's distinct-key estimate —
  // restricted to the delta window for the delta atom. Falls back to
  // the relation size (window size for the delta atom) when nothing is
  // bound, the atom is unindexable, or every matching index is cold.
  // Purely a read: consulting stats never builds or catches up an
  // index.
  std::size_t EstimateCost(const CompiledAtom& atom, std::uint32_t key_mask,
                           bool is_delta, const DeltaWindow* delta) const {
    const Relation& relation = db_.RelationOf(atom.predicate);
    const std::size_t size = relation.GrowthWatermark();
    std::size_t rows = size;
    if (is_delta) {
      rows = size - std::min(size, delta->lo[atom.predicate]);
    }
    if (key_mask == 0 || atom.arity == 0 || atom.arity >= 32) {
      return rows;
    }
    const ColumnIndex* index =
        indexes_[atom.predicate].FindForKeyMask(key_mask);
    if (index == nullptr) return rows;
    ColumnIndexStats stats = index->stats();
    if (stats.num_buckets == 0) return rows;
    // num_buckets is the distinct-key estimate; dividing the *current*
    // row count (not rows_bucketed) extrapolates a stale index's
    // selectivity to rows it has not absorbed yet.
    return std::max<std::size_t>(1, rows / stats.num_buckets);
  }

  // Orders each rule body at runtime (sizes and bucket statistics are
  // only known then): repeatedly pick the unplaced atom with the smallest
  // EstimateCost given the variables bound so far, breaking ties toward
  // more bound argument positions, then toward the delta atom (its
  // window only shrinks), then toward textual order — all deterministic.
  // Each step's column patterns are derived afterwards and its index is
  // resolved (and caught up) up front.
  void PlanJoin(const CompiledRule& rule, int delta_atom,
                const DeltaWindow* delta, std::vector<JoinStep>* out) {
    const std::size_t n = rule.body.size();
    std::vector<JoinStep>& plan = *out;
    plan.assign(n, JoinStep());
    std::vector<char>& bound = bound_scratch_;
    bound.assign(rule.num_variables, 0);
    std::vector<char>& placed = placed_scratch_;
    placed.assign(n, 0);
    for (std::size_t step = 0; step < n; ++step) {
      std::size_t best = n;
      std::size_t best_est = 0;
      std::size_t best_bound = 0;
      bool best_is_delta = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (placed[i]) continue;
        const CompiledAtom& atom = rule.body[i];
        std::uint32_t key_mask = 0;
        std::size_t bound_args = 0;
        for (std::size_t pos = 0; pos < atom.arity; ++pos) {
          if (atom.constant[pos] >= 0 || bound[atom.variable[pos]]) {
            if (pos < 32) key_mask |= 1u << pos;
            ++bound_args;
          }
        }
        const bool is_delta = static_cast<int>(i) == delta_atom;
        std::size_t est = EstimateCost(atom, key_mask, is_delta, delta);
        if (best == n || est < best_est ||
            (est == best_est &&
             (bound_args > best_bound ||
              (bound_args == best_bound && is_delta && !best_is_delta)))) {
          best = i;
          best_est = est;
          best_bound = bound_args;
          best_is_delta = is_delta;
        }
      }
      placed[best] = 1;
      plan[step].atom = best;
      if (stats_ != nullptr) stats_->est_cost_total += best_est;
      for (int v : rule.body[best].variable) {
        if (v >= 0) bound[v] = 1;
      }
    }
    bound.assign(rule.num_variables, 0);

    // Column patterns per step. A new variable is live (distinct-mask)
    // if a later step, the head, or another column of the same atom
    // still needs it; otherwise its column is dead and candidate rows
    // can collapse to representatives.
    std::vector<char>& needed_later = needed_later_scratch_;
    std::vector<char>& occurrences = occurrences_scratch_;
    for (std::size_t step = 0; step < n; ++step) {
      JoinStep& js = plan[step];
      const CompiledAtom& atom = rule.body[js.atom];
      if (atom.arity == 0 || atom.arity >= 32) {
        // Unindexable atom: it still binds its variables, which later
        // steps must treat as live/key (else projection would collapse
        // rows that are not interchangeable).
        for (int v : atom.variable) {
          if (v >= 0) bound[v] = 1;
        }
        continue;
      }
      needed_later.assign(rule.num_variables, 0);
      for (std::size_t later = step + 1; later < n; ++later) {
        for (int v : rule.body[plan[later].atom].variable) {
          if (v >= 0) needed_later[v] = 1;
        }
      }
      occurrences.assign(rule.num_variables, 0);
      for (int v : atom.variable) {
        if (v >= 0 && occurrences[v] < 2) ++occurrences[v];
      }
      for (std::size_t pos = 0; pos < atom.arity; ++pos) {
        int v = atom.variable[pos];
        if (atom.constant[pos] >= 0 || bound[v]) {
          js.key_mask |= 1u << pos;
        } else if (rule.in_head[v] || needed_later[v] ||
                   occurrences[v] > 1) {
          js.distinct_mask |= 1u << pos;
        } else {
          js.project = true;
        }
      }
      if (js.key_mask != 0 || js.project) {
        js.index = &indexes_[atom.predicate].Get(
            db_.RelationOf(atom.predicate), js.key_mask, js.distinct_mask,
            &counters_);
      }
      for (int v : atom.variable) {
        if (v >= 0) bound[v] = 1;
      }
    }
  }

  // Unifies `atom` with a row's column values under the current binding;
  // returns false on mismatch (with any partial bindings recorded on
  // `undo`).
  bool UnifyTuple(const CompiledAtom& atom, const int* tuple,
                  std::vector<int>* binding, std::vector<int>* undo,
                  MatchContext* ctx) {
    ++ctx->join_probes;
    for (std::size_t i = 0; i < atom.arity; ++i) {
      if (atom.constant[i] >= 0) {
        if (atom.constant[i] != tuple[i]) return false;
        continue;
      }
      int slot = atom.variable[i];
      if ((*binding)[slot] == kUnbound) {
        (*binding)[slot] = tuple[i];
        undo->push_back(slot);
      } else if ((*binding)[slot] != tuple[i]) {
        return false;
      }
    }
    return true;
  }

  // Matches plan steps [pos..] given the current binding; on a complete
  // match, emits head tuples (enumerating the active domain for unsafe
  // head variables). `delta_atom` designates the body position that must
  // match the delta window, or -1 for none. Returns false when the
  // emit budget is hit.
  bool MatchBody(const CompiledRule& rule, const std::vector<JoinStep>& plan,
                 std::size_t pos, int delta_atom, const DeltaWindow* delta,
                 MatchContext* ctx) {
    if (pos == plan.size()) {
      return EmitHead(rule, 0, ctx);
    }
    const JoinStep& step = plan[pos];
    const CompiledAtom& atom = rule.body[step.atom];
    const bool is_delta = static_cast<int>(step.atom) == delta_atom;
    const Relation& relation = db_.RelationOf(atom.predicate);
    const std::size_t first_row = is_delta ? delta->lo[atom.predicate] : 0;

    std::vector<int>& binding = ctx->binding;
    std::vector<int>& undo = ctx->undo[pos];
    if (step.index != nullptr) {
      Tuple& key = ctx->key[pos];
      key.clear();
      for (std::size_t i = 0; i < atom.arity; ++i) {
        if ((step.key_mask & (1u << i)) == 0) continue;
        key.push_back(atom.constant[i] >= 0 ? atom.constant[i]
                                            : binding[atom.variable[i]]);
      }
      ++ctx->index_probes;
      ColumnIndex::BucketView bucket = step.index->Probe(key);
      if (bucket.empty()) return true;  // no candidate rows
      // Bucket row indexes ascend, so a delta probe skips ahead to the
      // watermark (chunks below it are stepped over unread; hub buckets
      // binary-search their chunk directory).
      ColumnIndex::BucketView::Iterator it = bucket.begin();
      if (first_row != 0) {
        it.SkipBelow(static_cast<std::uint32_t>(first_row));
      }
      for (; !it.done(); it.Next()) {
        undo.clear();
        if (UnifyTuple(atom, relation.RowData(it.row()), &binding, &undo,
                       ctx)) {
          if (!MatchBody(rule, plan, pos + 1, delta_atom, delta, ctx)) {
            return false;
          }
        }
        for (int slot : undo) binding[slot] = kUnbound;
      }
      return true;
    }
    // Index-free scan: in serial mode relations may gain rows mid-round
    // (facts are inserted as they are derived, and the arena may
    // reallocate), so the row pointer is re-read each iteration and the
    // size re-checked. In parallel rounds the database is frozen, which
    // only makes this loop's bound constant.
    for (std::size_t row = first_row; row < relation.size(); ++row) {
      undo.clear();
      if (UnifyTuple(atom, relation.RowData(row), &binding, &undo, ctx)) {
        if (!MatchBody(rule, plan, pos + 1, delta_atom, delta, ctx)) {
          return false;
        }
      }
      for (int slot : undo) binding[slot] = kUnbound;
    }
    return true;
  }

  // Emits head tuples — straight into the database in serial mode
  // (duplicates suppressed by the relation's hash set), or staged into
  // the context's shard buffer in parallel rounds — enumerating
  // active-domain values for unbound head variables starting at position
  // `unbound_index` in rule.unbound_head_variables. Returns false when
  // the emit budget is hit.
  bool EmitHead(const CompiledRule& rule, std::size_t unbound_index,
                MatchContext* ctx) {
    if (unbound_index < rule.unbound_head_variables.size()) {
      int slot = rule.unbound_head_variables[unbound_index];
      if (ctx->binding[slot] != kUnbound) {
        return EmitHead(rule, unbound_index + 1, ctx);
      }
      for (int value : active_domain_) {
        ctx->binding[slot] = value;
        if (!EmitHead(rule, unbound_index + 1, ctx)) {
          ctx->binding[slot] = kUnbound;
          return false;
        }
      }
      ctx->binding[slot] = kUnbound;
      return true;
    }
    Tuple& head = ctx->head;
    head.resize(rule.head_constant.size());
    for (std::size_t i = 0; i < head.size(); ++i) {
      if (rule.head_constant[i] >= 0) {
        head[i] = rule.head_constant[i];
      } else {
        int value = ctx->binding[rule.head_variable[i]];
        DATALOG_CHECK_NE(value, kUnbound);
        head[i] = value;
      }
    }
    ++ctx->emitted;
    if (ctx->staging) {
      // The shard is a function of the tuple alone, so every staged
      // copy of one fact lands in the same shard and the merge phase
      // needs no cross-shard coordination.
      std::size_t h = HashIntSpan(head.data(), head.size());
      HashCombine(&h, rule.head_predicate);
      std::vector<int>& buf = ctx->shard_rows[h % kNumShards];
      buf.push_back(rule.head_predicate);
      buf.insert(buf.end(), head.begin(), head.end());
      ++ctx->tuples_staged;
    } else if (db_.MutableRelationOf(rule.head_predicate)->Insert(head)) {
      ++derived_total_;  // copy happened only for this new fact
      if (stats_ != nullptr) ++stats_->facts_derived;
    }
    // Governed poll every 1024 emissions — after the emission is fully
    // recorded, so an interrupted run's counters are consistent. The
    // poll sequence is deterministic (emission counts are a function of
    // the frozen inputs), frequent enough that cancellation lands
    // mid-rule, and cheap enough to not show on profiles.
    if ((ctx->emitted & 1023u) == 0) {
      Status s = governor_.ChargeSteps(1024);
      if (!s.ok()) {
        ctx->abort_status = std::move(s);
        return false;
      }
    }
    return ctx->emitted <= ctx->emit_budget;
  }

  // True when any of the plan's participating relations has more than
  // doubled past the watermark recorded at build time (or went from
  // empty to nonempty) — the point at which the plan's cardinality
  // estimates stop being credible.
  bool PlanStale(const CachedPlan& cached) const {
    for (const auto& [predicate, rows] : cached.watermarks) {
      std::size_t now = db_.RelationOf(predicate).GrowthWatermark();
      if (rows == 0 ? now != 0 : now > 2 * rows) return true;
    }
    return false;
  }

  // Re-resolves a cached plan's index pointers, catching each index up
  // with the rows appended since the last stamp. The ColumnIndex
  // references themselves are stable (node-based map), but their
  // buckets must absorb the new rows before the plan probes them.
  void RefreshIndexes(const CompiledRule& rule,
                      std::vector<JoinStep>* steps) {
    for (JoinStep& step : *steps) {
      if (step.index == nullptr) continue;
      const CompiledAtom& atom = rule.body[step.atom];
      step.index = &indexes_[atom.predicate].Get(
          db_.RelationOf(atom.predicate), step.key_mask, step.distinct_mask,
          &counters_);
    }
  }

  // The join plan for (rule, delta_atom): the cached plan while it is
  // fresh (indexes caught up, plans_cached counted), else a rebuild into
  // the cache slot with the participating relations' watermarks
  // re-recorded. Only called from the serial planning phase (the serial
  // engine, or pre-fan-out in RunParallel), so cache mutation and stats
  // updates are single-threaded, and parallel runs see plans identical
  // to a serial planner's.
  const std::vector<JoinStep>& PlanFor(CompiledRule& rule, int delta_atom,
                                       const DeltaWindow* delta) {
    CachedPlan& cached = rule.plans[static_cast<std::size_t>(delta_atom + 1)];
    if (cached.valid && !PlanStale(cached)) {
      RefreshIndexes(rule, &cached.steps);
      if (stats_ != nullptr) ++stats_->plans_cached;
      return cached.steps;
    }
    PlanJoin(rule, delta_atom, delta, &cached.steps);
    cached.watermarks.clear();
    for (const CompiledAtom& atom : rule.body) {
      cached.watermarks.emplace_back(
          atom.predicate, db_.RelationOf(atom.predicate).GrowthWatermark());
    }
    cached.valid = true;
    if (stats_ != nullptr) ++stats_->plans_rebuilt;
    return cached.steps;
  }

  // Evaluates `rule`, considering only matches that use the delta window
  // at `delta_atom` (or all matches when delta_atom == -1). Derived
  // facts land in the database immediately. Serial mode only.
  Status EvaluateRule(CompiledRule& rule, int delta_atom,
                      const DeltaWindow* delta) {
    // Serial poll point: once per rule evaluation, so cancellation and
    // deadline are observed even when rules emit fewer than 1024 facts
    // (the in-match poll in EmitHead covers the long tails).
    Status s = governor_.Poll();
    if (!s.ok()) return s;
    const std::vector<JoinStep>& plan = PlanFor(rule, delta_atom, delta);
    serial_ctx_.binding.assign(rule.num_variables, kUnbound);
    if (!MatchBody(rule, plan, 0, delta_atom, delta, &serial_ctx_)) {
      if (!serial_ctx_.abort_status.ok()) return serial_ctx_.abort_status;
      return FactCapExceeded(max_facts_);
    }
    return OkStatus();
  }

  // Per-round bookkeeping shared by both run modes: a round over `group`
  // also records the rules outside it that an unstratified round would
  // have considered (EvalStats::rounds_saved).
  void CountRound(const std::vector<std::size_t>& group) {
    if (stats_ == nullptr) return;
    ++stats_->iterations;
    stats_->rounds_saved += rules_.size() - group.size();
  }

  Status RunSemiNaive(const std::vector<std::size_t>& group) {
    const std::size_t num_predicates = db_.predicates().size();
    DeltaWindow delta(num_predicates);
    // Round 0: full naive pass over the group (facts of earlier strata
    // are already in the relations); the watermarks start at the
    // pre-group sizes, so round 1's windows are exactly the facts
    // derived here.
    Snapshot(&delta);
    CountRound(group);
    std::size_t before = derived_total_;
    for (std::size_t r : group) {
      Status s = EvaluateRule(rules_[r], -1, nullptr);
      if (!s.ok()) return s;
    }

    while (derived_total_ != before) {
      before = derived_total_;
      CountRound(group);
      DeltaWindow next(num_predicates);
      Snapshot(&next);
      for (std::size_t r : group) {
        CompiledRule& rule = rules_[r];
        for (std::size_t i = 0; i < rule.body.size(); ++i) {
          PredicateId id = rule.body[i].predicate;
          if (delta.lo[id] >= db_.RelationOf(id).size()) continue;
          Status s = EvaluateRule(rule, static_cast<int>(i), &delta);
          if (!s.ok()) return s;
        }
      }
      delta = std::move(next);
    }
    return OkStatus();
  }

  // The staged parallel fixpoint. Each round: (1) build the task list —
  // one task per rule (round 0) or per (rule, delta position) (every
  // later, semi-naive round); (2) plan every task serially, which resolves
  // and catches up every column index the round will probe; (3) fan the
  // tasks out across the pool — the database is frozen, workers only
  // read, and each task stages derived tuples into its own per-shard
  // buffers; (4) merge — shards dedup in parallel (each against its own
  // open-addressing table plus read-only probes of the frozen
  // relations), then survivors append serially in (shard, task) order.
  //
  // Determinism: task lists, plans, and each task's staged output are
  // functions of the frozen pre-round database only; outputs are
  // indexed by task id (never thread id); the merge folds them in a
  // fixed order. So the result — including row order — is identical
  // run-to-run for any thread count, and the fixpoint equals the serial
  // engine's as a set of tuples (stratified and chaotic semi-naive
  // iteration reach the same least fixpoint).
  Status RunParallel(ThreadPool& pool,
                     const std::vector<std::size_t>& group) {
    const std::size_t num_predicates = db_.predicates().size();

    struct RoundTask {
      std::size_t rule;
      int delta_atom;
    };
    std::vector<RoundTask> tasks;
    // Per-task plan pointers into the (rule, delta position) cache
    // slots — distinct per task, since a round's tasks are distinct
    // (rule, delta) pairs, and stable while the workers run (no planning
    // happens after fan-out).
    std::vector<const std::vector<JoinStep>*> plans;
    std::vector<MatchContext> contexts;
    std::vector<std::vector<int>> shard_out(kNumShards);
    std::vector<std::size_t> shard_collisions(kNumShards, 0);

    DeltaWindow delta(num_predicates);
    bool full_round = true;  // round 0 only
    while (true) {
      tasks.clear();
      if (full_round) {
        for (std::size_t r : group) {
          tasks.push_back({r, -1});
        }
      } else {
        for (std::size_t r : group) {
          const CompiledRule& rule = rules_[r];
          for (std::size_t i = 0; i < rule.body.size(); ++i) {
            PredicateId id = rule.body[i].predicate;
            if (delta.lo[id] >= db_.RelationOf(id).size()) continue;
            tasks.push_back({r, static_cast<int>(i)});
          }
        }
      }
      if (tasks.empty()) return OkStatus();
      // Round-boundary poll (serial, pre-fan-out): a staged round never
      // starts past the deadline or after cancellation.
      Status round_status = governor_.Poll();
      if (!round_status.ok()) return round_status;
      CountRound(group);
      if (stats_ != nullptr) ++stats_->rounds_parallel;
      const DeltaWindow* window = full_round ? nullptr : &delta;

      plans.resize(tasks.size());
      for (std::size_t t = 0; t < tasks.size(); ++t) {
        plans[t] = &PlanFor(rules_[tasks[t].rule], tasks[t].delta_atom,
                            window);
      }

      // Next round's watermarks are this round's pre-merge sizes: the
      // merged survivors below become exactly the next delta windows.
      DeltaWindow next(num_predicates);
      Snapshot(&next);

      if (contexts.size() < tasks.size()) contexts.resize(tasks.size());
      const std::size_t budget =
          max_facts_ - std::min(max_facts_, emitted_total_);
      for (std::size_t t = 0; t < tasks.size(); ++t) {
        PrepareTaskContext(&contexts[t], budget);
      }

      pool.ParallelFor(tasks.size(), [&](std::size_t t) {
        const RoundTask& task = tasks[t];
        const CompiledRule& rule = rules_[task.rule];
        MatchContext& ctx = contexts[t];
        // Task-boundary poll: every worker observes cancellation (or an
        // injected fault) no later than its next task, and an already
        // cancelled round skips its remaining tasks cheaply. The result
        // lands in the per-task context, folded in task order below —
        // never a data race, never thread-order-dependent stats.
        ctx.abort_status = governor_.Poll();
        if (!ctx.abort_status.ok()) return;
        ctx.binding.assign(rule.num_variables, kUnbound);
        // A false return means the task exceeded the whole remaining
        // emit budget on its own (or a mid-match poll failed — see
        // ctx.abort_status); the deterministic check below turns that
        // into the right error.
        MatchBody(rule, *plans[t], 0, task.delta_atom, window, &ctx);
      });

      // Fold per-task counters in task order (scheduling-independent) —
      // unconditionally, so an interrupted round still reports every
      // task's accumulated work before the error returns.
      for (std::size_t t = 0; t < tasks.size(); ++t) {
        const MatchContext& ctx = contexts[t];
        emitted_total_ += ctx.emitted;
        if (stats_ != nullptr) {
          stats_->join_probes += ctx.join_probes;
          stats_->index_probes += ctx.index_probes;
          stats_->tuples_staged += ctx.tuples_staged;
        }
      }
      // Interruption check in task order, after the stat fold: the
      // round's staged tuples are dropped (the result database is
      // discarded on error), stats stay consistent.
      for (std::size_t t = 0; t < tasks.size(); ++t) {
        if (!contexts[t].abort_status.ok()) {
          return contexts[t].abort_status;
        }
      }
      if (emitted_total_ > max_facts_) {
        return FactCapExceeded(max_facts_);
      }

      // Merge phase 1 (parallel): per-shard dedup. A tuple's shard is a
      // function of the tuple, so no two shards see the same fact and
      // no locks are needed; the frozen relations are probed read-only.
      pool.ParallelFor(kNumShards, [&](std::size_t s) {
        MergeShard(contexts, tasks.size(), s, &shard_out[s],
                   &shard_collisions[s]);
      });

      // Merge phase 2 (serial): append survivors in (shard, task,
      // derivation) order — deterministic for any thread count.
      std::size_t new_facts = 0;
      for (std::size_t s = 0; s < kNumShards; ++s) {
        if (stats_ != nullptr) {
          stats_->merge_collisions += shard_collisions[s];
        }
        const std::vector<int>& rows = shard_out[s];
        for (std::size_t i = 0; i < rows.size();) {
          Relation* relation = db_.MutableRelationOf(rows[i]);
          if (relation->InsertRow(rows.data() + i + 1)) ++new_facts;
          i += 1 + relation->arity();
        }
      }
      derived_total_ += new_facts;
      if (stats_ != nullptr) stats_->facts_derived += new_facts;
      if (new_facts == 0) return OkStatus();
      delta = std::move(next);
      full_round = false;
    }
  }

  void PrepareTaskContext(MatchContext* ctx, std::size_t budget) {
    if (ctx->key.size() < max_body_) {
      ctx->key.resize(max_body_);
      ctx->undo.resize(max_body_);
    }
    ctx->staging = true;
    ctx->shard_rows.resize(kNumShards);
    for (std::vector<int>& rows : ctx->shard_rows) rows.clear();
    ctx->emitted = 0;
    ctx->emit_budget = budget;
    ctx->abort_status = OkStatus();
    ctx->join_probes = 0;
    ctx->index_probes = 0;
    ctx->tuples_staged = 0;
  }

  // Dedups one shard's staged rows: against the frozen relations
  // (tuples already present before the round) and against a per-shard
  // table (tuples staged more than once within the round, including by
  // different tasks). Tasks fold in task order, so the survivor order
  // is deterministic.
  void MergeShard(const std::vector<MatchContext>& contexts,
                  std::size_t num_tasks, std::size_t shard,
                  std::vector<int>* out, std::size_t* collisions) const {
    out->clear();
    *collisions = 0;
    VarKeyTable seen;  // keys are whole [predicate, args...] rows
    for (std::size_t t = 0; t < num_tasks; ++t) {
      const std::vector<int>& rows = contexts[t].shard_rows[shard];
      for (std::size_t i = 0; i < rows.size();) {
        const Relation& relation = db_.RelationOf(rows[i]);
        const std::size_t width = 1 + relation.arity();
        if (relation.ContainsRow(rows.data() + i + 1) ||
            !seen.Intern(rows.data() + i, width).second) {
          ++*collisions;
        } else {
          out->insert(out->end(), rows.begin() + i, rows.begin() + i + width);
        }
        i += width;
      }
    }
  }

  // Records current relation sizes as the next round's delta watermarks.
  void Snapshot(DeltaWindow* delta) const {
    for (std::size_t id = 0; id < delta->lo.size(); ++id) {
      delta->lo[id] = db_.RelationOf(static_cast<PredicateId>(id)).size();
    }
  }

  const EvalOptions& options_;
  EvalStats* stats_;
  Database db_;
  std::vector<CompiledRule> rules_;
  // Evaluation-ordered rule groups: the SCC strata. Empty only for an
  // empty program.
  std::vector<std::vector<std::size_t>> rule_groups_;
  std::vector<int> active_domain_;
  std::unordered_set<int> domain_set_;
  // Lazily-built column indexes over db_'s relations, parallel to
  // predicate ids. Delta probes share these (bucket suffix filtering).
  // In parallel mode all builds and catch-ups happen in the serial
  // planning step, before fan-out.
  std::vector<RelationIndex> indexes_;
  IndexCounters counters_;
  std::size_t max_body_ = 0;
  // The serial engine's match state; parallel rounds use per-task
  // contexts instead (RunParallel).
  MatchContext serial_ctx_;
  // Per-rule planning scratch (serial planning only, both modes).
  std::vector<char> bound_scratch_;
  std::vector<char> placed_scratch_;
  std::vector<char> needed_later_scratch_;
  std::vector<char> occurrences_scratch_;
  // Total emissions across parallel rounds (the serial path tracks this
  // in serial_ctx_.emitted).
  std::size_t emitted_total_ = 0;
  std::size_t derived_total_ = 0;
  // The governed bounds: polls at rule/task/round boundaries and every
  // 1024 emissions (see EvalOptions::limits).
  Governor governor_;
  // options_.limits.max_facts with 0 resolved to the engine default.
  std::size_t max_facts_ = 0;
};

}  // namespace

StatusOr<Database> EvaluateProgram(const Program& program, const Database& edb,
                                   const EvalOptions& options,
                                   EvalStats* stats) {
  Evaluator evaluator(program, edb, options, stats);
  return evaluator.Run();
}

StatusOr<Relation> EvaluateGoal(const Program& program,
                                const std::string& goal_predicate,
                                const Database& edb,
                                const EvalOptions& options, EvalStats* stats) {
  StatusOr<Database> result = EvaluateProgram(program, edb, options, stats);
  if (!result.ok()) return result.status();
  std::size_t arity = program.PredicateArity(goal_predicate);
  PredicateId id = result->predicates().Lookup(goal_predicate);
  if (id == kNoPredicate) return Relation(arity);
  // The goal relation is moved out, not copied: the rest of the result
  // database is discarded anyway.
  return std::move(*result->MutableRelationOf(id));
}

StatusOr<Relation> EvaluateUcq(const UnionOfCqs& ucq, const Database& edb) {
  DATALOG_CHECK(!ucq.empty()) << "cannot evaluate an empty union";
  const std::string goal = "__ucq_goal";
  Program program;
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    program.AddRule(RuleFromCq(goal, cq));
  }
  return EvaluateGoal(program, goal, edb);
}

}  // namespace datalog
