#include "src/containment/decider.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/analysis/reachability.h"
#include "src/ast/analysis.h"
#include "src/containment/absorb.h"
#include "src/containment/instances.h"
#include "src/containment/query_analysis.h"
#include "src/ir/ir.h"
#include "src/util/bitset.h"
#include "src/util/flat_table.h"
#include "src/util/iteration.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace datalog {
namespace {

// One discovered (goal, achievable set) state. The set and witness are
// immutable once registered and held by shared_ptr: combination snapshots
// states by value (a self-recursive rule may grow or prune the very entry
// being iterated), and sharing makes a snapshot O(states), not
// O(states × set size × subtree size).
struct StateEntry {
  std::shared_ptr<const IrAchievedSet> set;
  std::shared_ptr<const ExpansionTree> witness;
  std::uint64_t serial = 0;  // stable identity for combination memoization
};

struct GoalEntry {
  std::vector<StateEntry> states;
  // The same achieved sets as exact bitsets over interned achieved-pair
  // ids; payloads are state serials so prunes can be mirrored back into
  // the ordered vector. kKeepMinimal under antichain maintenance, kExact
  // (pure dedup) otherwise.
  AntichainStore antichain;
  bool touched = false;  // Register reached this goal in the current run
};

}  // namespace

// θ-independent state shared across Decide calls on one (program, goal):
// the ordered rules plus the interned dense-id substrate — the shared
// program IR (predicate/constant dictionaries; src/ir/ir.h), a goal-atom
// dictionary, and the materialized canonical instances. Mirrors the
// engine's PredicateDictionary scheme: structures are interned once and
// the decider hot path moves integer ids, not strings.
struct ContainmentChecker::Context {
  // The program being checked: borrowed for one-shot decisions
  // (DecideDatalogInUcq), owned when the checker is reused across Θs.
  const Program* program = nullptr;
  std::optional<Program> owned_program;
  std::string goal;
  std::unordered_set<std::string> idb;  // hashed; no ordering needed here
  std::vector<std::string> proof_vars;
  // EDB-only rules first (they seed the fixpoint), then rules heading the
  // goal predicate (failing root states surface early), then the rest.
  std::vector<const Rule*> ordered_rules;
  // Parallel to ordered_rules: 1 when the rule's head predicate is
  // backward-reachable from the goal. An unreachable rule can head no
  // subtree of a goal-rooted proof tree, so every run skips it entirely.
  std::vector<char> rule_reachable;

  // --- interned substrate ----------------------------------------------
  // The shared program IR, seeded from the program's *carried* IR
  // (ir::CarriedIr) — so a Program that was already interned by an
  // earlier Decide, a previous checker, or any other IR consumer is
  // never re-interned. The carried object is shared immutable state
  // with copy-on-fold semantics, and this context folds each Θ's
  // predicates and constants into the dictionaries per run, so Init
  // takes a private copy to fold into (append-only, so cached instance
  // encodings stay valid across Decide calls and existing ids never
  // move).
  std::shared_ptr<ir::ProgramIr> program_ir;
  // Interning passes Init paid (1 when the carried IR was missing, else
  // 0); consumed into ContainmentStats::program_ir_builds by the first
  // Decide on this context.
  std::size_t ir_builds_paid = 0;
  std::int32_t goal_pred_id = -1;
  // Canonical goal atoms -> dense goal ids; row = [pred_id, enc(args)...]
  // with proof variables $k encoded as -(k+1) and constants as their
  // non-negative dictionary ids (the namespaces cannot collide).
  VarKeyTable goal_keys;

  // One rule encoded once onto the IR id spaces: atoms carry the
  // predicate dictionary id and int arguments (rule-variable slot in
  // VariableNames() order, or ~constant_id). Canonical instances are then
  // stamped out of the template at integer cost — no substitution maps,
  // no Term construction.
  struct RuleTemplate {
    struct AtomTpl {
      std::int32_t predicate = 0;
      bool idb = false;
      // args >= 0: rule-variable slot; args < 0: constant ~id.
      std::vector<std::int32_t> args;
    };
    AtomTpl head;
    std::vector<AtomTpl> body;
    std::vector<std::size_t> idb_positions;  // body positions of IDB atoms
  };

  // A materialized canonical instance: the interned goal ids and the IR
  // encodings the combination step runs on (built for every instance, at
  // integer cost), and the Term-level rendering — the Rule and the child
  // canonicalization bookkeeping — built lazily only when a run tracks
  // witnesses.
  struct CachedInstance {
    // The class assignment that materialized this instance (classes[i] is
    // the proof-variable index of rule variable slot i); kept so the
    // Term-level rendering can be reproduced on demand.
    std::vector<std::size_t> classes;
    std::vector<std::size_t> idb_positions;
    std::vector<std::uint32_t> child_goal_ids;
    std::uint32_t head_goal_id = 0;
    // --- IR encodings (instance frame: variables are proof-var indexes,
    // --- constants dictionary ids) -----------------------------------
    std::vector<IrInstanceAtom> ir_edb;
    std::int32_t ir_head_pred = 0;
    std::vector<ir::TermId> ir_head_args;
    // Indexed by proof-variable index: does the variable occur in the
    // head (i.e. is its image visible at the parent goal)?
    Bitset ir_head_visible;
    // The variable of the instance frame each canonical child variable
    // replaced: canonical $k of child j is ir_child_originals[j][k].
    std::vector<std::vector<ir::TermId>> ir_child_originals;
    // --- lazy Term-level rendering (witness construction) ------------
    bool has_terms = false;
    Rule rule;
    std::vector<CanonicalAtomInfo> child_canonical;
  };
  // Per rule (in ordered_rules order): the encoded template plus the
  // dense ids of its cached instances, in canonical-enumeration order.
  // `complete` marks that the enumeration ran to the end; until then a
  // round resumes it, skipping the cached prefix at integer cost
  // (ForEachCanonicalAssignment).
  struct RuleCache {
    std::vector<std::string> rule_vars;
    RuleTemplate tpl;
    std::vector<std::uint32_t> instance_ids;
    bool complete = false;
  };
  std::vector<CachedInstance> instances;
  std::vector<RuleCache> rule_caches;  // parallel to ordered_rules

  // Populates the Θ-independent fields. `program_ref` must outlive this
  // context's use; the ordered rule pointers point into it.
  void Init(const Program& program_ref, std::string goal_name) {
    program = &program_ref;
    goal = std::move(goal_name);
    for (const std::string& predicate : program_ref.IdbPredicates()) {
      idb.insert(predicate);
    }
    proof_vars = ProofVariables(program_ref);
    const std::size_t builds_before = ir::ProgramIrBuildCount();
    // Copy-on-fold: the carried IR is shared and immutable; this
    // context interns Θ names into the dictionaries, so it folds into a
    // private copy (an id-for-id clone — no re-interning, not a build).
    program_ir = std::make_shared<ir::ProgramIr>(*ir::CarriedIr(program_ref));
    ir_builds_paid = ir::ProgramIrBuildCount() - builds_before;
    goal_pred_id =
        static_cast<std::int32_t>(program_ir->predicates().Intern(goal));
    auto rule_class = [this](const Rule& rule) {
      bool leaf = true;
      for (const Atom& atom : rule.body()) {
        if (idb.count(atom.predicate()) > 0) leaf = false;
      }
      if (leaf) return 0;
      return rule.head().predicate() == goal ? 1 : 2;
    };
    for (int cls = 0; cls <= 2; ++cls) {
      for (const Rule& rule : program_ref.rules()) {
        if (rule_class(rule) == cls) {
          ordered_rules.push_back(&rule);
        }
      }
    }
    std::unordered_set<std::string> reachable =
        GoalReachablePredicates(program_ref, goal);
    rule_reachable.reserve(ordered_rules.size());
    for (const Rule* rule : ordered_rules) {
      rule_reachable.push_back(
          reachable.count(rule->head().predicate()) > 0 ? 1 : 0);
    }
  }

  // Encodes `rule` once onto the IR id spaces; pays the string lookups a
  // single time per (program, goal) context.
  RuleTemplate BuildRuleTemplate(const Rule& rule,
                                 const std::vector<std::string>& rule_vars) {
    RuleTemplate tpl;
    std::unordered_map<std::string, std::int32_t> slots;
    for (std::size_t i = 0; i < rule_vars.size(); ++i) {
      slots.emplace(rule_vars[i], static_cast<std::int32_t>(i));
    }
    auto encode_atom = [&](const Atom& atom) {
      RuleTemplate::AtomTpl enc;
      enc.predicate = static_cast<std::int32_t>(
          program_ir->predicates().Intern(atom.predicate()));
      enc.idb = idb.count(atom.predicate()) > 0;
      enc.args.reserve(atom.arity());
      for (const Term& t : atom.args()) {
        if (t.is_variable()) {
          enc.args.push_back(slots.at(t.name()));
        } else {
          enc.args.push_back(~static_cast<std::int32_t>(
              program_ir->constants().Intern(t.name())));
        }
      }
      return enc;
    };
    tpl.head = encode_atom(rule.head());
    tpl.body.reserve(rule.body().size());
    for (std::size_t i = 0; i < rule.body().size(); ++i) {
      tpl.body.push_back(encode_atom(rule.body()[i]));
      if (tpl.body.back().idb) tpl.idb_positions.push_back(i);
    }
    return tpl;
  }

  // Stamps the canonical instance for one class assignment out of the
  // rule template: goal rows, IR atoms, and the child canonicalization
  // all on integers. The Term-level rendering is deferred to
  // EnsureInstanceTerms.
  CachedInstance BuildCachedInstance(const RuleTemplate& tpl,
                                     const std::vector<std::size_t>& classes) {
    CachedInstance cached;
    cached.classes = classes;
    cached.idb_positions = tpl.idb_positions;
    auto encode_ir = [&](std::int32_t arg) {
      return arg >= 0
                 ? ir::TermId::Variable(
                       static_cast<std::uint32_t>(classes[arg]))
                 : ir::TermId::Constant(static_cast<std::uint32_t>(~arg));
    };
    // Head: instance heads are already canonical — rule variables are
    // numbered in head-first first-occurrence order, so head classes
    // carry canonical indexes exactly as CanonicalizeAtom would assign
    // them. Goal rows encode variables $k as -(k+1) and constants as
    // their non-negative dictionary ids.
    cached.ir_head_pred = tpl.head.predicate;
    cached.ir_head_visible = Bitset(proof_vars.size());
    row_scratch.clear();
    row_scratch.push_back(tpl.head.predicate);
    for (std::int32_t arg : tpl.head.args) {
      ir::TermId id = encode_ir(arg);
      cached.ir_head_args.push_back(id);
      if (id.is_variable()) {
        cached.ir_head_visible.Set(id.index());
        row_scratch.push_back(-(static_cast<int>(id.index()) + 1));
      } else {
        row_scratch.push_back(static_cast<int>(id.index()));
      }
    }
    cached.head_goal_id =
        goal_keys.Intern(row_scratch.data(), row_scratch.size()).first;
    // Body: EDB atoms become IR atoms in the instance frame; IDB atoms
    // are canonicalized on integers (first-occurrence renumbering of the
    // proof-variable indexes) into goal rows plus the canonical->frame
    // variable mapping the combination step renames through.
    canon_scratch.assign(proof_vars.size(), -1);
    for (const RuleTemplate::AtomTpl& atom : tpl.body) {
      if (!atom.idb) {
        IrInstanceAtom enc;
        enc.predicate = atom.predicate;
        enc.args.reserve(atom.args.size());
        for (std::int32_t arg : atom.args) enc.args.push_back(encode_ir(arg));
        cached.ir_edb.push_back(std::move(enc));
        continue;
      }
      std::vector<ir::TermId> originals;
      row_scratch.clear();
      row_scratch.push_back(atom.predicate);
      for (std::int32_t arg : atom.args) {
        ir::TermId id = encode_ir(arg);
        if (!id.is_variable()) {
          row_scratch.push_back(static_cast<int>(id.index()));
          continue;
        }
        int& canonical = canon_scratch[id.index()];
        if (canonical < 0) {
          canonical = static_cast<int>(originals.size());
          originals.push_back(id);
        }
        row_scratch.push_back(-(canonical + 1));
      }
      cached.child_goal_ids.push_back(
          goal_keys.Intern(row_scratch.data(), row_scratch.size()).first);
      // Reset only the entries this child touched.
      for (ir::TermId original : originals) {
        canon_scratch[original.index()] = -1;
      }
      cached.ir_child_originals.push_back(std::move(originals));
    }
    return cached;
  }

  // Materializes the Term-level rendering of a cached instance: the Rule
  // itself and the child canonicalization bookkeeping, which witness
  // construction needs. A run with witness tracking off never calls this.
  void EnsureInstanceTerms(CachedInstance* cached, const Rule& rule,
                           const std::vector<std::string>& rule_vars) {
    if (cached->has_terms) return;
    cached->rule = InstantiateAssignment(rule, rule_vars, cached->classes);
    for (const std::size_t i : cached->idb_positions) {
      cached->child_canonical.push_back(
          CanonicalizeAtom(cached->rule.body()[i]));
    }
    cached->has_terms = true;
  }

  // Scratch buffers for BuildCachedInstance (goal rows and the per-child
  // canonical renumbering, indexed by proof-variable index).
  std::vector<int> row_scratch;
  std::vector<int> canon_scratch;
};

// One Decide call: the per-Θ fixpoint over (goal, achievable set) states,
// on the interned substrate — dense goal/instance ids, integer pinned
// images, a renamed-set memo, and exact-bitset antichain maintenance.
class DeciderRun {
 public:
  DeciderRun(ContainmentChecker::Context* context, const UnionOfCqs& theta,
             const ContainmentOptions& options)
      : ctx_(*context),
        options_(options),
        governor_(options.limits, "containment decider"),
        max_states_(options.limits.StatesOr(1'000'000)) {
    StatusOr<std::vector<QueryAnalysis>> analyses = AnalyzeUnion(theta);
    if (!analyses.ok()) {
      init_error_ = analyses.status();
      return;
    }
    queries_ = std::move(analyses).value();
  }

  StatusOr<ContainmentDecision> Run() {
    if (!init_error_.ok()) return init_error_;
    if (ctx_.idb.count(ctx_.goal) == 0) {
      return Status(InvalidArgumentError(
          StrCat("goal predicate ", ctx_.goal, " is not an IDB predicate")));
    }
    ContainmentDecision decision;
    // The interning pass (if Init had to pay one) is charged to the first
    // Decide on this context; later Decides report 0, pinning the
    // carried-IR reuse in the stats.
    decision.stats.program_ir_builds = ctx_.ir_builds_paid;
    ctx_.ir_builds_paid = 0;
    for (char reachable : ctx_.rule_reachable) {
      if (!reachable) ++decision.stats.rules_pruned;
    }
    if (ctx_.rule_caches.empty()) {
      ctx_.rule_caches.resize(ctx_.ordered_rules.size());
      for (std::size_t r = 0; r < ctx_.ordered_rules.size(); ++r) {
        ctx_.rule_caches[r].rule_vars = ctx_.ordered_rules[r]->VariableNames();
        ctx_.rule_caches[r].tpl = ctx_.BuildRuleTemplate(
            *ctx_.ordered_rules[r], ctx_.rule_caches[r].rule_vars);
      }
    }
    store_.resize(ctx_.goal_keys.size());
    ir_queries_.reserve(queries_.size());
    for (const QueryAnalysis& query : queries_) {
      ir_queries_.push_back(BuildIrQueryAnalysis(
          query, &ctx_.program_ir->predicates(),
          &ctx_.program_ir->constants()));
    }
    bool changed = true;
    bool ok = true;
    while (ok && changed) {
      changed = false;
      ++decision.stats.rounds;
      // Round-boundary poll: a new absorption round never starts after
      // cancellation or past the deadline.
      ok = PollGovernor() && RunRound(&decision, &changed);
    }
    decision.stats.instances_cached = ctx_.instances.size();
    HarvestAntichainStats(&decision);
    if (!ok) {
      // Stopped early: a counterexample, a resource limit, or a
      // governor interruption. Either way the stats harvested so far
      // are a consistent partial result — published through
      // options_.partial_stats even when the return is a bare Status.
      ReportStats(decision.stats);
      if (!decision.contained) return decision;
      if (!interrupt_status_.ok()) return interrupt_status_;
      return Status(ResourceExhaustedError(StrCat(
          "containment decider exceeded ", max_states_, " states")));
    }
    decision.stats.goals_discovered = touched_goals_;
    ReportStats(decision.stats);
    if (options_.export_trace) ExportTrace(&decision);
    return decision;
  }

 private:
  using CachedInstance = ContainmentChecker::Context::CachedInstance;

  // --- governed polling -------------------------------------------------

  // Publishes the run's stats through options_.partial_stats (when set):
  // called on every exit path, so interrupted runs surface consistent
  // partial progress even though the StatusOr return is a bare error.
  void ReportStats(const ContainmentStats& stats) const {
    if (options_.partial_stats != nullptr) *options_.partial_stats = stats;
  }

  // Polls the governor, latching the first failure into
  // interrupt_status_ — the Run() error exit then distinguishes an
  // interruption (returns that Status) from the state-cap abort
  // (synthesizes the ResourceExhausted message). Returns false to stop
  // the fixpoint machinery.
  bool PollGovernor() {
    if (!interrupt_status_.ok()) return false;
    Status s = governor_.Poll();
    if (!s.ok()) {
      interrupt_status_ = std::move(s);
      return false;
    }
    return true;
  }

  // The per-instance poll point, charging one decider step (the step
  // budget's unit is a processed rule instance).
  bool ChargeInstance() {
    if (!interrupt_status_.ok()) return false;
    Status s = governor_.ChargeSteps(1);
    if (!s.ok()) {
      interrupt_status_ = std::move(s);
      return false;
    }
    return true;
  }

  // The in-product poll point: one instance's combination product over
  // child states can dwarf the per-instance granularity, so poll every
  // 1024 iterations (deterministic — the product order is a function of
  // the discovered states).
  bool PollCombineTick() {
    if ((++combine_ticks_ & 1023u) != 0) return true;
    return PollGovernor();
  }

  // --- trace export -----------------------------------------------------

  // Decodes a dense goal id back to its Atom over var(Π): goal rows are
  // [pred_id, enc(args)...] with variables $k stored as -(k+1) and
  // constants as their non-negative dictionary ids.
  Atom DecodeGoalAtom(std::size_t goal_id) const {
    const int* row = ctx_.goal_keys.KeyData(goal_id);
    const std::size_t length = ctx_.goal_keys.KeyLength(goal_id);
    std::string predicate = ctx_.program_ir->predicates().name(
        static_cast<std::uint32_t>(row[0]));
    std::vector<Term> args;
    args.reserve(length - 1);
    for (std::size_t i = 1; i < length; ++i) {
      if (row[i] < 0) {
        args.push_back(Term::Variable(
            ProofVariableName(static_cast<std::size_t>(-row[i] - 1))));
      } else {
        args.push_back(Term::Constant(ctx_.program_ir->constants().name(
            static_cast<std::uint32_t>(row[i]))));
      }
    }
    return Atom(std::move(predicate), std::move(args));
  }

  // Decodes an achieved set back to Terms. The IR sort order (dense ids)
  // need not match the Term sort order, so the result is re-sorted to
  // restore the AchievedSet invariant.
  AchievedSet DecodeSet(const IrAchievedSet& set) const {
    AchievedSet out;
    out.reserve(set.size());
    for (const IrAchievedPair& pair : set) {
      AchievedPair decoded;
      decoded.query = static_cast<int>(pair.query);
      decoded.mask = pair.mask;
      decoded.pinned.reserve(pair.pinned.size());
      for (const auto& [var, term] : pair.pinned) {
        decoded.pinned.emplace_back(
            static_cast<int>(var),
            term.is_variable()
                ? Term::Variable(ProofVariableName(term.index()))
                : Term::Constant(
                      ctx_.program_ir->constants().name(term.index())));
      }
      out.push_back(std::move(decoded));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  // Exports the converged fixpoint table (see ContainmentOptions::
  // export_trace), one entry per goal with retained states.
  void ExportTrace(ContainmentDecision* decision) const {
    const std::size_t num_goals = ctx_.goal_keys.size();
    for (std::size_t g = 0; g < num_goals; ++g) {
      if (g >= store_.size() || store_[g].states.empty()) continue;
      AbsorptionTraceEntry entry;
      for (const StateEntry& state : store_[g].states) {
        entry.sets.push_back(DecodeSet(*state.set));
      }
      entry.goal = DecodeGoalAtom(g);
      decision->trace.push_back(std::move(entry));
    }
  }

  // --- rounds: materialized instances + flat integer memo ---------------

  bool RunRound(ContainmentDecision* decision, bool* changed) {
    // The Term-level instance rendering is only materialized for witness
    // construction; with witness tracking off the fixpoint runs on
    // integers end to end.
    const bool need_terms = options_.track_witness;
    for (std::size_t r = 0; r < ctx_.ordered_rules.size(); ++r) {
      // Goal-directed pruning: a rule whose head predicate cannot reach
      // the goal contributes states only to unreachable goal entries,
      // which no root acceptance ever consults — skip its enumeration.
      if (!ctx_.rule_reachable[r]) continue;
      ContainmentChecker::Context::RuleCache& cache = ctx_.rule_caches[r];
      for (std::uint32_t id : cache.instance_ids) {
        if (need_terms) {
          ctx_.EnsureInstanceTerms(&ctx_.instances[id],
                                   *ctx_.ordered_rules[r], cache.rule_vars);
        }
        if (!ProcessInstance(ctx_.instances[id], id, decision, changed)) {
          return false;
        }
      }
      if (cache.complete) continue;
      // Resume the canonical enumeration past the cached prefix. The
      // prefix is skipped at assignment level — no substitution strings.
      std::size_t seen = 0;
      bool finished = ForEachCanonicalAssignment(
          *ctx_.ordered_rules[r], ctx_.proof_vars.size(),
          [&](const std::vector<std::size_t>& classes) {
            if (seen++ < cache.instance_ids.size()) return true;
            std::uint32_t id =
                static_cast<std::uint32_t>(ctx_.instances.size());
            ctx_.instances.push_back(
                ctx_.BuildCachedInstance(cache.tpl, classes));
            if (need_terms) {
              ctx_.EnsureInstanceTerms(&ctx_.instances[id],
                                       *ctx_.ordered_rules[r],
                                       cache.rule_vars);
            }
            store_.resize(ctx_.goal_keys.size());
            cache.instance_ids.push_back(id);
            return ProcessInstance(ctx_.instances[id], id, decision,
                                   changed);
          });
      if (!finished) return false;
      cache.complete = true;
    }
    return true;
  }

  bool ProcessInstance(const CachedInstance& inst, std::uint32_t instance_id,
                       ContainmentDecision* decision, bool* changed) {
    if (!ChargeInstance()) return false;
    ++decision->stats.combine_calls;
    // Snapshot the states of each child goal by value: Register below may
    // grow or prune the very same GoalEntry when the rule is
    // self-recursive (child canonical goal == parent goal).
    std::vector<std::vector<StateEntry>> child_states;
    child_states.reserve(inst.child_goal_ids.size());
    for (std::uint32_t goal_id : inst.child_goal_ids) {
      const GoalEntry& entry = store_[goal_id];
      if (entry.states.empty()) return true;  // no subtree for this child yet
      child_states.push_back(entry.states);
    }
    // Iterate over every choice of one discovered state per child.
    std::vector<std::size_t> sizes;
    sizes.reserve(child_states.size());
    for (const std::vector<StateEntry>& states : child_states) {
      sizes.push_back(states.size());
    }
    return ForEachProduct(sizes, [&](const std::vector<std::size_t>& choice) {
      if (!PollCombineTick()) return false;
      // Skip combinations already combined in an earlier round: the memo
      // row is (instance id, child serial...) with each 64-bit serial
      // packed into two ints, deduplicated open-addressing style.
      memo_row_.clear();
      memo_row_.push_back(static_cast<int>(instance_id));
      for (std::size_t j = 0; j < child_states.size(); ++j) {
        std::uint64_t serial = child_states[j][choice[j]].serial;
        memo_row_.push_back(static_cast<int>(
            static_cast<std::uint32_t>(serial)));
        memo_row_.push_back(static_cast<int>(
            static_cast<std::uint32_t>(serial >> 32)));
      }
      if (!combined_.Intern(memo_row_.data(), memo_row_.size()).second) {
        ++decision->stats.memo_hits;
        return true;
      }
      // Renamed child sets come from the per-(instance, child, serial)
      // memo, and the combination step runs on integer ids.
      std::vector<const IrAchievedSet*> set_ptrs(child_states.size());
      for (std::size_t j = 0; j < child_states.size(); ++j) {
        set_ptrs[j] =
            RenamedChildSet(instance_id, j, inst.ir_child_originals[j],
                            child_states[j][choice[j]], decision);
      }
      IrAchievedSet parent_set;
      CombineAtNode(ir_queries_, inst.ir_edb, inst.ir_head_visible, set_ptrs,
                    &parent_set, &decision->stats.pinned_compares);
      GoalEntry& entry = store_[inst.head_goal_id];
      if (!entry.touched) {
        entry.touched = true;
        ++touched_goals_;
      }
      return Register(entry, inst, child_states, choice,
                      std::move(parent_set), decision, changed);
    });
  }

  // The renamed-set memo: a child state's achieved set renamed from its
  // canonical frame into the frame of instance `instance_id` at child
  // position `j` depends only on (instance_id, j, serial), but the
  // combination product visits the same (j, serial) once per choice of
  // the *other* children. Memoizing the renamed set turns that repeated
  // O(set size) rename+sort into a pointer lookup.
  const IrAchievedSet* RenamedChildSet(
      std::uint32_t instance_id, std::size_t j,
      const std::vector<ir::TermId>& originals, const StateEntry& state,
      ContainmentDecision* decision) {
    int row[4] = {static_cast<int>(instance_id), static_cast<int>(j),
                  static_cast<int>(static_cast<std::uint32_t>(state.serial)),
                  static_cast<int>(
                      static_cast<std::uint32_t>(state.serial >> 32))};
    auto [index, inserted] = rename_keys_.Intern(row, 4);
    if (!inserted) {
      ++decision->stats.rename_memo_hits;
      return renamed_cache_[index].get();
    }
    auto renamed = std::make_shared<IrAchievedSet>();
    renamed->reserve(state.set->size());
    for (const IrAchievedPair& pair : *state.set) {
      IrAchievedPair copy = pair;
      for (auto& [v, term] : copy.pinned) {
        if (term.is_variable()) {
          // Canonical variable $k corresponds to originals[k].
          DATALOG_CHECK_LT(term.index(), originals.size());
          term = originals[term.index()];
        }
      }
      renamed->push_back(std::move(copy));
    }
    std::sort(renamed->begin(), renamed->end());
    DATALOG_CHECK_EQ(static_cast<std::size_t>(index), renamed_cache_.size());
    renamed_cache_.push_back(std::move(renamed));
    return renamed_cache_[index].get();
  }

  // --- achieved-pair interning ------------------------------------------

  // Maps an IrAchievedPair to its dense bit index: the row is
  // [query, mask_lo, mask_hi, (var, enc(term))...] — variable-width, like
  // the goal rows — so identical pairs intern to identical ids and an
  // achieved set becomes an exact Bitset over those ids. Ids are global
  // to the run, which is sound because sets are only ever compared within
  // one goal entry and equal pairs get equal ids everywhere.
  std::uint32_t InternAchievedPair(const IrAchievedPair& pair) {
    pair_row_.clear();
    pair_row_.push_back(static_cast<int>(pair.query));
    pair_row_.push_back(
        static_cast<int>(static_cast<std::uint32_t>(pair.mask)));
    pair_row_.push_back(
        static_cast<int>(static_cast<std::uint32_t>(pair.mask >> 32)));
    for (const auto& [v, term] : pair.pinned) {
      pair_row_.push_back(static_cast<int>(v));
      pair_row_.push_back(ir::EncodeRowTerm(term));
    }
    return pair_keys_.Intern(pair_row_.data(), pair_row_.size()).first;
  }

  // Folds the per-goal AntichainStore counters into the decision stats;
  // called once per Run exit path (the stores are per-run, so the sums
  // are exactly this Decide's work).
  void HarvestAntichainStats(ContainmentDecision* decision) const {
    for (const GoalEntry& entry : store_) {
      const AntichainStore::Stats& s = entry.antichain.stats();
      decision->stats.subset_checks += s.subset_checks;
      decision->stats.subset_word_ops += s.word_ops;
      decision->stats.antichain_prunes += s.prunes;
    }
  }

  // --- registration -----------------------------------------------------

  // Registers the (head goal of `inst`, set) state produced by one choice
  // of child states; returns false to stop everything (a counterexample
  // or the state cap).
  bool Register(GoalEntry& entry, const CachedInstance& inst,
                const std::vector<std::vector<StateEntry>>& child_states,
                const std::vector<std::size_t>& choice, IrAchievedSet set,
                ContainmentDecision* decision, bool* changed) {
    Bitset bits;
    for (const IrAchievedPair& pair : set) {
      bits.Set(InternAchievedPair(pair));
    }
    if (entry.states.empty() && entry.antichain.empty() &&
        !options_.antichain) {
      entry.antichain = AntichainStore(AntichainStore::Mode::kExact);
    }
    // One Insert is the whole maintenance step: it rejects a candidate
    // some retained subset dominates (kKeepMinimal) or duplicates
    // (kExact) and prunes retained supersets, handing back their serials.
    pruned_serials_.clear();
    if (!entry.antichain.Insert(std::move(bits), next_serial_,
                                &pruned_serials_)) {
      return true;  // dominated (antichain) or already known (dedup)
    }
    if (!pruned_serials_.empty()) {
      // Mirror the store's prunes into the ordered state vector; stable
      // remove_if keeps the survivors in discovery order.
      entry.states.erase(
          std::remove_if(entry.states.begin(), entry.states.end(),
                         [&](const StateEntry& existing) {
                           return std::find(pruned_serials_.begin(),
                                            pruned_serials_.end(),
                                            existing.serial) !=
                                  pruned_serials_.end();
                         }),
          entry.states.end());
    }
    StateEntry state;
    state.serial = next_serial_++;
    state.set = std::make_shared<const IrAchievedSet>(std::move(set));
    if (options_.track_witness) {
      ExpansionNode node;
      node.goal = inst.rule.head();
      node.rule = inst.rule;
      node.idb_positions = inst.idb_positions;
      for (std::size_t j = 0; j < child_states.size(); ++j) {
        const StateEntry& child_state = child_states[j][choice[j]];
        // The child witness's root goal is the canonical child goal; embed
        // it into the instance frame by a var(Π) permutation extending
        // canonical-var -> original-var.
        const std::vector<std::string>& originals =
            inst.child_canonical[j].original_vars;
        std::vector<std::string> from;
        for (std::size_t k = 0; k < originals.size(); ++k) {
          from.push_back(ProofVariableName(k));
        }
        Substitution permutation =
            ExtendToPermutation(from, originals, ctx_.proof_vars);
        node.children.push_back(
            RenameTree(*child_state.witness, permutation).root());
      }
      state.witness =
          std::make_shared<const ExpansionTree>(std::move(node));
    }
    // A new root-goal state must accept, or we have a counterexample.
    if (inst.ir_head_pred == ctx_.goal_pred_id &&
        !RootAccepts(ir_queries_, inst.ir_head_args, *state.set,
                     &decision->stats.pinned_compares)) {
      decision->contained = false;
      if (options_.track_witness) {
        decision->counterexample = *state.witness;
      }
      return false;
    }
    entry.states.push_back(std::move(state));
    *changed = true;
    if (++decision->stats.states_discovered > max_states_) {
      return false;
    }
    return true;
  }

  ContainmentChecker::Context& ctx_;
  const ContainmentOptions& options_;
  // The governed bounds: polled at round starts, per instance, and every
  // 1024 combination iterations (see ContainmentOptions::limits).
  Governor governor_;
  // options_.limits.max_states with 0 resolved to the decider default.
  std::size_t max_states_;
  // First governor failure, latched by the poll helpers and returned by
  // Run()'s error exit (distinguishing interruption from the state cap).
  Status interrupt_status_;
  std::uint64_t combine_ticks_ = 0;
  Status init_error_;
  std::vector<QueryAnalysis> queries_;
  std::vector<IrQueryAnalysis> ir_queries_;  // parallel to queries_
  std::uint64_t next_serial_ = 1;

  // Per-run state: the goal store indexed by dense goal id and the flat
  // combination memo.
  std::vector<GoalEntry> store_;
  std::size_t touched_goals_ = 0;
  VarKeyTable combined_;
  std::vector<int> memo_row_;
  // Renamed-set memo: (instance, child position, serial) rows mapping to
  // the renamed achieved set, alive for the whole run.
  VarKeyTable rename_keys_;
  std::vector<std::shared_ptr<const IrAchievedSet>> renamed_cache_;
  // Achieved-pair id dictionary and scratch buffers.
  VarKeyTable pair_keys_;
  std::vector<int> pair_row_;
  std::vector<std::uint64_t> pruned_serials_;
};

ContainmentChecker::ContainmentChecker(Program program, std::string goal)
    : context_(new Context) {
  context_->owned_program.emplace(std::move(program));
  context_->Init(*context_->owned_program, std::move(goal));
}

ContainmentChecker::~ContainmentChecker() = default;
ContainmentChecker::ContainmentChecker(ContainmentChecker&&) noexcept =
    default;
ContainmentChecker& ContainmentChecker::operator=(
    ContainmentChecker&&) noexcept = default;

const Program& ContainmentChecker::program() const {
  return *context_->program;
}

const std::string& ContainmentChecker::goal() const { return context_->goal; }

StatusOr<ContainmentDecision> ContainmentChecker::Decide(
    const UnionOfCqs& theta, const ContainmentOptions& options) {
  DeciderRun run(context_.get(), theta, options);
  return run.Run();
}

StatusOr<ContainmentDecision> DecideDatalogInUcq(
    const Program& program, const std::string& goal, const UnionOfCqs& theta,
    const ContainmentOptions& options) {
  // One-shot path: borrow the caller's program for the duration of the
  // call rather than copying it into an owning checker.
  ContainmentChecker::Context context;
  context.Init(program, goal);
  DeciderRun run(&context, theta, options);
  return run.Run();
}

StatusOr<ContainmentDecision> DecideDatalogInCq(
    const Program& program, const std::string& goal,
    const ConjunctiveQuery& theta, const ContainmentOptions& options) {
  UnionOfCqs union_of_one;
  union_of_one.Add(theta);
  return DecideDatalogInUcq(program, goal, union_of_one, options);
}

}  // namespace datalog
