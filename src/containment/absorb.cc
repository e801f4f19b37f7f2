#include "src/containment/absorb.h"

#include <algorithm>
#include <functional>
#include <unordered_set>

#include "src/util/hash.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace datalog {
namespace {

// Working assignment of query variables to image terms during a combine.
struct Assignment {
  std::vector<std::optional<Term>> image;

  explicit Assignment(std::size_t num_vars) : image(num_vars) {}

  bool Bind(int var, const Term& term, std::vector<int>* trail) {
    if (image[var].has_value()) return *image[var] == term;
    image[var] = term;
    trail->push_back(var);
    return true;
  }
  void Undo(std::vector<int>* trail, std::size_t mark) {
    while (trail->size() > mark) {
      image[trail->back()].reset();
      trail->pop_back();
    }
  }
};

// Enumerates (β', h'): subsets of the candidate atoms of `query` mapped
// homomorphically into `edb_atoms`, consistent with the current
// assignment. Calls `emit(beta_prime_mask)` for each choice (including the
// empty one) with the assignment reflecting h'.
void EnumerateAbsorptions(const QueryAnalysis& query,
                          std::uint64_t candidate_mask,
                          const std::vector<const Atom*>& edb_atoms,
                          Assignment* assignment, std::vector<int>* trail,
                          int atom_index, std::uint64_t chosen,
                          const std::function<void(std::uint64_t)>& emit) {
  // Find the next candidate atom at or after atom_index.
  int n = static_cast<int>(query.cq->body().size());
  while (atom_index < n &&
         (candidate_mask & (std::uint64_t{1} << atom_index)) == 0) {
    ++atom_index;
  }
  if (atom_index >= n) {
    emit(chosen);
    return;
  }
  const Atom& from = query.cq->body()[atom_index];
  // Option 1: skip this atom.
  EnumerateAbsorptions(query, candidate_mask, edb_atoms, assignment, trail,
                       atom_index + 1, chosen, emit);
  // Option 2: map it to some EDB atom of the rule body.
  for (const Atom* to : edb_atoms) {
    if (to->predicate() != from.predicate() || to->arity() != from.arity()) {
      continue;
    }
    std::size_t mark = trail->size();
    bool ok = true;
    for (std::size_t i = 0; i < from.arity(); ++i) {
      const Term& f = from.args()[i];
      const Term& t = to->args()[i];
      if (f.is_constant()) {
        if (!(t.is_constant() && t.name() == f.name())) {
          ok = false;
          break;
        }
        continue;
      }
      int v = query.var_ids.at(f.name());
      if (!assignment->Bind(v, t, trail)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      EnumerateAbsorptions(query, candidate_mask, edb_atoms, assignment,
                           trail, atom_index + 1,
                           chosen | (std::uint64_t{1} << atom_index), emit);
    }
    assignment->Undo(trail, mark);
  }
}

}  // namespace

std::string AchievedPair::ToString() const {
  std::string out = StrCat("q", query, " mask=", mask, " {");
  for (const auto& [v, t] : pinned) {
    out += StrCat(v, "->", t.ToString(), " ");
  }
  out += "}";
  return out;
}

void InsertPair(AchievedSet* set, AchievedPair pair) {
  auto it = std::lower_bound(set->begin(), set->end(), pair);
  if (it != set->end() && *it == pair) return;
  set->insert(it, std::move(pair));
}

bool IsAchievedSubset(const AchievedSet& a, const AchievedSet& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

void CombineAtNode(const std::vector<QueryAnalysis>& queries,
                   const Rule& instance,
                   const std::vector<const Atom*>& edb_atoms,
                   const std::vector<Atom>& child_goals,
                   const std::vector<const AchievedSet*>& child_sets,
                   AchievedSet* out) {
  DATALOG_CHECK_EQ(child_goals.size(), child_sets.size());
  const Atom& parent_goal = instance.head();
  std::unordered_set<std::string> parent_goal_vars;
  for (const Term& t : parent_goal.args()) {
    if (t.is_variable()) parent_goal_vars.insert(t.name());
  }

  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const QueryAnalysis& query = queries[qi];
    // Options per child: that child's pairs for this query, plus the
    // implicit empty pair (index == count).
    std::vector<std::vector<const AchievedPair*>> options(child_sets.size());
    for (std::size_t j = 0; j < child_sets.size(); ++j) {
      for (const AchievedPair& pair : *child_sets[j]) {
        if (pair.query == static_cast<int>(qi)) {
          options[j].push_back(&pair);
        }
      }
    }
    // Iterate all choices (empty included) via counters.
    std::vector<std::size_t> choice(child_sets.size(), 0);
    while (true) {
      // Gather chosen pairs; index == options[j].size() means empty.
      bool consistent = true;
      std::uint64_t union_mask = 0;
      Assignment assignment(query.vars.size());
      std::vector<int> trail;
      for (std::size_t j = 0; j < child_sets.size() && consistent; ++j) {
        if (choice[j] == options[j].size()) continue;  // empty pair
        const AchievedPair& pair = *options[j][choice[j]];
        if ((union_mask & pair.mask) != 0) {
          consistent = false;  // β must partition across children
          break;
        }
        union_mask |= pair.mask;
        for (const auto& [v, term] : pair.pinned) {
          if (!assignment.Bind(v, term, &trail)) {
            consistent = false;
            break;
          }
        }
      }
      if (consistent) {
        std::uint64_t candidates = query.full_mask & ~union_mask;
        EnumerateAbsorptions(
            query, candidates, edb_atoms, &assignment, &trail, 0, 0,
            [&](std::uint64_t beta_prime) {
              std::uint64_t total = union_mask | beta_prime;
              if (total == 0) return;  // the empty pair stays implicit
              // Visibility: exposed variables must have images that are
              // visible at the parent goal (goal variables or constants).
              AchievedPair result;
              result.query = static_cast<int>(qi);
              result.mask = total;
              for (std::size_t v = 0; v < query.vars.size(); ++v) {
                if (!query.IsExposed(static_cast<int>(v), total)) continue;
                const std::optional<Term>& image = assignment.image[v];
                DATALOG_CHECK(image.has_value())
                    << "exposed variable must be assigned";
                if (image->is_variable() &&
                    parent_goal_vars.count(image->name()) == 0) {
                  return;  // image not visible at the parent goal
                }
                result.pinned.emplace_back(static_cast<int>(v), *image);
              }
              InsertPair(out, std::move(result));
            });
      }
      // Advance the choice counters.
      std::size_t j = 0;
      for (; j < choice.size(); ++j) {
        if (++choice[j] <= options[j].size()) break;
        choice[j] = 0;
      }
      if (j == choice.size()) break;
      if (choice.empty()) break;
    }
    // Leaf case with no children: the while loop above runs exactly once
    // with the empty choice vector... except choice.empty() breaks after
    // one iteration, which is what we want.
    if (child_sets.empty()) {
      // Already handled by the single iteration above.
    }
  }
}

void InsertPair(IrAchievedSet* set, IrAchievedPair pair) {
  auto it = std::lower_bound(set->begin(), set->end(), pair);
  if (it != set->end() && *it == pair) return;
  set->insert(it, std::move(pair));
}

void CombineAtNode(const std::vector<IrQueryAnalysis>& queries,
                   const std::vector<IrInstanceAtom>& edb_atoms,
                   const Bitset& parent_visible,
                   const std::vector<const IrAchievedSet*>& child_sets,
                   IrAchievedSet* out, std::size_t* pinned_compares) {
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const IrQueryAnalysis& query = queries[qi];
    const QueryAnalysis& base = *query.base;
    // Options per child: that child's pairs for this query, plus the
    // implicit empty pair (index == count).
    std::vector<std::vector<const IrAchievedPair*>> options(
        child_sets.size());
    for (std::size_t j = 0; j < child_sets.size(); ++j) {
      for (const IrAchievedPair& pair : *child_sets[j]) {
        if (pair.query == static_cast<std::int32_t>(qi)) {
          options[j].push_back(&pair);
        }
      }
    }
    std::vector<std::size_t> choice(child_sets.size(), 0);
    // One binding + trail reused across the whole choice odometer: each
    // iteration unwinds its own binds (EnumerateAbsorptions already
    // restores to its entry point; the pinned-image seeds are undone at
    // the bottom of the loop), so no per-iteration allocation.
    ir::DenseBinding assignment(base.vars.size());
    std::vector<std::int32_t> trail;
    while (true) {
      bool consistent = true;
      std::uint64_t union_mask = 0;
      for (std::size_t j = 0; j < child_sets.size() && consistent; ++j) {
        if (choice[j] == options[j].size()) continue;  // empty pair
        const IrAchievedPair& pair = *options[j][choice[j]];
        if ((union_mask & pair.mask) != 0) {
          consistent = false;  // β must partition across children
          break;
        }
        union_mask |= pair.mask;
        for (const auto& [v, term] : pair.pinned) {
          if (!assignment.Bind(v, term, &trail, pinned_compares)) {
            consistent = false;
            break;
          }
        }
      }
      if (consistent) {
        std::uint64_t candidates = base.full_mask & ~union_mask;
        IrEnumerateAbsorptions(
            query, candidates, edb_atoms, &assignment, &trail, 0, 0,
            pinned_compares, [&](std::uint64_t beta_prime) {
              std::uint64_t total = union_mask | beta_prime;
              if (total == 0) return;  // the empty pair stays implicit
              // Visibility: exposed variables must have images that are
              // visible at the parent goal (goal variables or constants).
              IrAchievedPair result;
              result.query = static_cast<std::int32_t>(qi);
              result.mask = total;
              for (std::size_t v = 0; v < base.vars.size(); ++v) {
                if (!base.IsExposed(static_cast<int>(v), total)) continue;
                ir::TermId image = assignment.image[v];
                DATALOG_CHECK(image.valid())
                    << "exposed variable must be assigned";
                if (image.is_variable() &&
                    !parent_visible.Test(image.index())) {
                  return;  // image not visible at the parent goal
                }
                result.pinned.emplace_back(static_cast<std::int32_t>(v),
                                           image);
              }
              InsertPair(out, std::move(result));
            });
      }
      // Unwind this iteration's seed binds (also the partial trail of an
      // inconsistent choice) and advance the choice counters. A node
      // with no children runs exactly one iteration: the empty choice
      // vector advances straight to j == choice.size().
      assignment.Undo(&trail, 0);
      std::size_t j = 0;
      for (; j < choice.size(); ++j) {
        if (++choice[j] <= options[j].size()) break;
        choice[j] = 0;
      }
      if (j == choice.size()) break;
    }
  }
}

bool RootAccepts(const std::vector<IrQueryAnalysis>& queries,
                 const std::vector<ir::TermId>& root_goal_args,
                 const IrAchievedSet& set, std::size_t* pinned_compares) {
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const IrQueryAnalysis& query = queries[qi];
    const QueryAnalysis& base = *query.base;
    if (query.head_args.size() != root_goal_args.size()) continue;
    // Unify the disjunct's head argument vector with the root goal's.
    std::vector<ir::TermId> head_image(base.vars.size());
    bool unified = true;
    for (std::size_t i = 0; i < query.head_args.size() && unified; ++i) {
      std::int32_t from = query.head_args[i];
      ir::TermId to = root_goal_args[i];
      if (from < 0) {  // constant
        unified =
            to == ir::TermId::Constant(static_cast<std::uint32_t>(~from));
        continue;
      }
      if (head_image[from].valid()) {
        if (pinned_compares != nullptr) ++*pinned_compares;
        unified = head_image[from] == to;
      } else {
        head_image[from] = to;
      }
    }
    if (!unified) continue;
    if (base.full_mask == 0) return true;  // empty body: head match suffices
    for (const IrAchievedPair& pair : set) {
      if (pair.query != static_cast<std::int32_t>(qi) ||
          pair.mask != base.full_mask) {
        continue;
      }
      bool ok = true;
      for (const auto& [v, term] : pair.pinned) {
        // Exposed variables of the full mask are exactly the
        // distinguished variables occurring in the body; their pinned
        // images must agree with the head unification.
        if (head_image[v].valid()) {
          if (pinned_compares != nullptr) ++*pinned_compares;
          if (head_image[v] != term) {
            ok = false;
            break;
          }
        }
      }
      if (ok) return true;
    }
  }
  return false;
}

bool RootAcceptsQuery(const QueryAnalysis& query, const Atom& root_goal,
                      const AchievedSet& set) {
  const ConjunctiveQuery& cq = *query.cq;
  if (cq.head_args().size() != root_goal.args().size()) return false;
  // Unify the disjunct's head argument vector with the root goal's.
  std::vector<std::optional<Term>> head_image(query.vars.size());
  for (std::size_t i = 0; i < cq.head_args().size(); ++i) {
    const Term& from = cq.head_args()[i];
    const Term& to = root_goal.args()[i];
    if (from.is_constant()) {
      if (!(to.is_constant() && to.name() == from.name())) return false;
      continue;
    }
    int v = query.var_ids.at(from.name());
    if (head_image[v].has_value()) {
      if (*head_image[v] != to) return false;
    } else {
      head_image[v] = to;
    }
  }
  if (query.full_mask == 0) return true;  // empty body: head match suffices
  for (const AchievedPair& pair : set) {
    if (pair.mask != query.full_mask) continue;
    bool ok = true;
    for (const auto& [v, term] : pair.pinned) {
      // Exposed variables of the full mask are exactly the distinguished
      // variables occurring in the body; their pinned images must agree
      // with the head unification.
      if (head_image[v].has_value() && *head_image[v] != term) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

bool RootAccepts(const std::vector<QueryAnalysis>& queries,
                 const Atom& root_goal, const AchievedSet& set) {
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    // Restrict the set to this query's pairs.
    AchievedSet filtered;
    for (const AchievedPair& pair : set) {
      if (pair.query == static_cast<int>(qi)) filtered.push_back(pair);
    }
    if (RootAcceptsQuery(queries[qi], root_goal, filtered)) return true;
  }
  return false;
}

}  // namespace datalog
