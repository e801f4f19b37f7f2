#include "src/containment/unfold.h"

#include <limits>
#include <map>
#include <set>

#include "src/ast/analysis.h"
#include "src/util/strings.h"

namespace datalog {
namespace {

// Composes sigma with {var -> term}: applies the new binding to existing
// right-hand sides, then records it.
void ComposeBinding(Substitution* sigma, const std::string& var,
                    const Term& term) {
  Substitution single;
  single.emplace(var, term);
  for (auto& [from, to] : *sigma) {
    to = ApplySubstitution(single, to);
  }
  sigma->emplace(var, term);
}

// Unifies two term vectors (no function symbols, so plain union suffices);
// extends `sigma`. Returns false on clash.
bool UnifyTermVectors(const std::vector<Term>& a, const std::vector<Term>& b,
                      Substitution* sigma) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    Term lhs = ApplySubstitution(*sigma, a[i]);
    Term rhs = ApplySubstitution(*sigma, b[i]);
    if (lhs == rhs) continue;
    if (lhs.is_variable()) {
      ComposeBinding(sigma, lhs.name(), rhs);
    } else if (rhs.is_variable()) {
      ComposeBinding(sigma, rhs.name(), lhs);
    } else {
      return false;  // distinct constants
    }
  }
  return true;
}

class Unfolder {
 public:
  Unfolder(const Program& program, const UnfoldOptions& options)
      : program_(program), options_(options), idb_(program.IdbPredicates()) {}

  StatusOr<UnionOfCqs> Run(const std::string& goal) {
    if (IsRecursive(program_)) {
      return Status(
          InvalidArgumentError("cannot unfold a recursive program"));
    }
    for (const std::string& predicate :
         TopologicalPredicateOrder(program_)) {
      if (idb_.count(predicate) == 0) continue;
      UnionOfCqs ucq;
      for (std::size_t rule_index : program_.RulesFor(predicate)) {
        const Rule& rule = program_.rules()[rule_index];
        std::vector<Atom> done;
        Status s = Expand(rule.head().args(), done, rule.body(), 0, &ucq);
        if (!s.ok()) return s;
      }
      ucqs_[predicate] = std::move(ucq);
    }
    auto it = ucqs_.find(goal);
    if (it == ucqs_.end()) {
      return Status(InvalidArgumentError(
          StrCat("goal predicate ", goal, " is not an IDB predicate")));
    }
    return it->second;
  }

 private:
  // Expands `pending[index..]`, with `done` holding the EDB atoms
  // assembled so far; emits completed disjuncts into `out`.
  Status Expand(std::vector<Term> head_args, std::vector<Atom> done,
                std::vector<Atom> pending, std::size_t index,
                UnionOfCqs* out) {
    while (index < pending.size() &&
           idb_.count(pending[index].predicate()) == 0) {
      done.push_back(pending[index]);
      ++index;
    }
    if (index == pending.size()) {
      total_atoms_ += done.size();
      out->Add(ConjunctiveQuery(std::move(head_args), std::move(done)));
      if (out->size() > options_.max_disjuncts ||
          total_atoms_ > options_.max_total_atoms) {
        return ResourceExhaustedError(
            StrCat("unfolding exceeded limits (disjuncts=", out->size(),
                   ", atoms=", total_atoms_, ")"));
      }
      return OkStatus();
    }
    const Atom idb_atom = pending[index];
    const UnionOfCqs& sub = ucqs_.at(idb_atom.predicate());
    for (const ConjunctiveQuery& disjunct : sub.disjuncts()) {
      // Freshly rename the disjunct.
      Substitution fresh;
      for (const std::string& v : disjunct.VariableNames()) {
        fresh.emplace(v, Term::Variable(StrCat("_f", fresh_counter_, "_", v)));
      }
      ++fresh_counter_;
      ConjunctiveQuery renamed = ApplySubstitution(fresh, disjunct);
      // Unify the disjunct's head vector with the atom's arguments.
      Substitution sigma;
      if (!UnifyTermVectors(renamed.head_args(), idb_atom.args(), &sigma)) {
        continue;  // incompatible constants: this combination is empty
      }
      // Apply sigma everywhere and splice in the disjunct's body.
      std::vector<Term> new_head;
      new_head.reserve(head_args.size());
      for (const Term& t : head_args) {
        new_head.push_back(ApplySubstitution(sigma, t));
      }
      std::vector<Atom> new_done;
      new_done.reserve(done.size() + renamed.body().size());
      for (const Atom& a : done) {
        new_done.push_back(ApplySubstitution(sigma, a));
      }
      for (const Atom& a : renamed.body()) {
        new_done.push_back(ApplySubstitution(sigma, a));
      }
      std::vector<Atom> new_pending;
      new_pending.reserve(pending.size() - index - 1);
      for (std::size_t i = index + 1; i < pending.size(); ++i) {
        new_pending.push_back(ApplySubstitution(sigma, pending[i]));
      }
      Status s = Expand(std::move(new_head), std::move(new_done),
                        std::move(new_pending), 0, out);
      if (!s.ok()) return s;
    }
    return OkStatus();
  }

  const Program& program_;
  const UnfoldOptions& options_;
  std::set<std::string> idb_;
  std::map<std::string, UnionOfCqs> ucqs_;
  std::size_t fresh_counter_ = 0;
  std::size_t total_atoms_ = 0;
};

std::uint64_t SaturatingAdd(std::uint64_t a, std::uint64_t b) {
  std::uint64_t r = a + b;
  return r < a ? std::numeric_limits<std::uint64_t>::max() : r;
}

std::uint64_t SaturatingMul(std::uint64_t a, std::uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > std::numeric_limits<std::uint64_t>::max() / b) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return a * b;
}

}  // namespace

StatusOr<UnionOfCqs> UnfoldNonrecursive(const Program& program,
                                        const std::string& goal,
                                        const UnfoldOptions& options) {
  Unfolder unfolder(program, options);
  return unfolder.Run(goal);
}

StatusOr<UnfoldSizeEstimate> EstimateUnfoldSize(const Program& program,
                                                const std::string& goal) {
  if (IsRecursive(program)) {
    return Status(
        InvalidArgumentError("cannot estimate unfolding of a recursive "
                             "program"));
  }
  std::set<std::string> idb = program.IdbPredicates();
  std::map<std::string, UnfoldSizeEstimate> estimates;
  for (const std::string& predicate : TopologicalPredicateOrder(program)) {
    if (idb.count(predicate) == 0) continue;
    UnfoldSizeEstimate estimate;
    for (std::size_t rule_index : program.RulesFor(predicate)) {
      const Rule& rule = program.rules()[rule_index];
      std::uint64_t rule_disjuncts = 1;
      std::uint64_t rule_atoms = 0;
      for (const Atom& atom : rule.body()) {
        if (idb.count(atom.predicate()) > 0) {
          const UnfoldSizeEstimate& sub = estimates.at(atom.predicate());
          rule_disjuncts = SaturatingMul(rule_disjuncts, sub.disjuncts);
          rule_atoms = SaturatingAdd(rule_atoms, sub.max_disjunct_atoms);
        } else {
          rule_atoms = SaturatingAdd(rule_atoms, 1);
        }
      }
      estimate.disjuncts = SaturatingAdd(estimate.disjuncts, rule_disjuncts);
      estimate.max_disjunct_atoms =
          std::max(estimate.max_disjunct_atoms, rule_atoms);
    }
    estimates[predicate] = estimate;
  }
  auto it = estimates.find(goal);
  if (it == estimates.end()) {
    return Status(InvalidArgumentError(
        StrCat("goal predicate ", goal, " is not an IDB predicate")));
  }
  return it->second;
}

}  // namespace datalog
