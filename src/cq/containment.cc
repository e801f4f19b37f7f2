#include "src/cq/containment.h"

#include <cstdint>
#include <string>
#include <vector>

#include "src/ir/ir.h"
#include "src/util/logging.h"

namespace datalog {
namespace {

// Backtracking search state for a containment mapping from psi to theta.
// Both queries are interned onto shared predicate/constant dictionaries in
// one pass (psi variables and theta variables each get a frame-local dense
// numbering), the working binding is a dense IrSubstitution, and every
// unification is a branch plus an integer compare.
class IrMappingSearch {
 public:
  IrMappingSearch(const ConjunctiveQuery& psi, const ConjunctiveQuery& theta)
      : psi_(psi), theta_(theta) {}

  std::optional<Substitution> Run() {
    if (psi_.arity() != theta_.arity()) return std::nullopt;
    Build();
    for (std::size_t i = 0; i < psi_head_.size(); ++i) {
      if (!UnifyTerm(psi_head_[i], theta_head_[i])) return std::nullopt;
    }
    mapped_.assign(psi_body_.size(), false);
    candidates_.assign(psi_body_.size(), 0);
    for (std::size_t i = 0; i < psi_body_.size(); ++i) {
      for (const ir::TermAtom& to : theta_body_) {
        if (psi_body_[i].predicate == to.predicate &&
            psi_body_[i].args.size() == to.args.size()) {
          ++candidates_[i];
        }
      }
    }
    if (!Search(psi_body_.size())) return std::nullopt;
    // Decode the dense binding back into the AST substitution.
    Substitution result;
    for (std::uint32_t v = 0; v < binding_.image.size(); ++v) {
      ir::TermId image = binding_.image[v];
      if (!image.valid()) continue;
      result.emplace(psi_vars_.name(v),
                     image.is_variable()
                         ? Term::Variable(theta_vars_.name(image.index()))
                         : Term::Constant(constants_.name(image.index())));
    }
    return result;
  }

 private:
  void Build() {
    auto encode_source = [&](const Term& t) -> std::int32_t {
      if (t.is_variable()) {
        return static_cast<std::int32_t>(psi_vars_.Intern(t.name()));
      }
      return ~static_cast<std::int32_t>(constants_.Intern(t.name()));
    };
    auto encode_target = [&](const Term& t) -> ir::TermId {
      if (t.is_variable()) {
        return ir::TermId::Variable(theta_vars_.Intern(t.name()));
      }
      return ir::TermId::Constant(constants_.Intern(t.name()));
    };
    for (const Term& t : psi_.head_args()) {
      psi_head_.push_back(encode_source(t));
    }
    for (const Atom& atom : psi_.body()) {
      ir::PatternAtom enc;
      enc.predicate =
          static_cast<std::int32_t>(predicates_.Intern(atom.predicate()));
      for (const Term& t : atom.args()) enc.args.push_back(encode_source(t));
      psi_body_.push_back(std::move(enc));
    }
    for (const Term& t : theta_.head_args()) {
      theta_head_.push_back(encode_target(t));
    }
    for (const Atom& atom : theta_.body()) {
      ir::TermAtom enc;
      enc.predicate =
          static_cast<std::int32_t>(predicates_.Intern(atom.predicate()));
      for (const Term& t : atom.args()) enc.args.push_back(encode_target(t));
      theta_body_.push_back(std::move(enc));
    }
    binding_ = ir::DenseBinding(psi_vars_.size());
  }

  bool UnifyTerm(std::int32_t from, ir::TermId to) {
    if (from < 0) {
      // Constants map to themselves (Remark 5.14).
      return to == ir::TermId::Constant(static_cast<std::uint32_t>(~from));
    }
    return binding_.Bind(from, to, &trail_, nullptr);
  }

  std::size_t TrailMark() const { return trail_.size(); }

  void UndoTo(std::size_t mark) { binding_.Undo(&trail_, mark); }

  bool UnifyAtom(const ir::PatternAtom& from, const ir::TermAtom& to) {
    if (from.predicate != to.predicate ||
        from.args.size() != to.args.size()) {
      return false;
    }
    std::size_t mark = TrailMark();
    for (std::size_t i = 0; i < from.args.size(); ++i) {
      if (!UnifyTerm(from.args[i], to.args[i])) {
        UndoTo(mark);
        return false;
      }
    }
    return true;
  }

  // Picks the unmapped psi atom with the most already-bound variables
  // (most-constrained-first), breaking ties toward fewer candidate
  // targets (theta atoms with matching predicate and arity).
  std::size_t PickNextAtom() const {
    std::size_t best = psi_body_.size();
    int best_bound = -1;
    int best_candidates = 0;
    for (std::size_t i = 0; i < psi_body_.size(); ++i) {
      if (mapped_[i]) continue;
      int bound = 0;
      for (std::int32_t arg : psi_body_[i].args) {
        if (arg < 0 || binding_.image[arg].valid()) ++bound;
      }
      if (bound > best_bound ||
          (bound == best_bound && candidates_[i] < best_candidates)) {
        best_bound = bound;
        best_candidates = candidates_[i];
        best = i;
      }
    }
    return best;
  }

  bool Search(std::size_t remaining) {
    if (remaining == 0) return true;
    std::size_t index = PickNextAtom();
    DATALOG_CHECK_LT(index, psi_body_.size());
    mapped_[index] = true;
    const ir::PatternAtom& from = psi_body_[index];
    for (const ir::TermAtom& to : theta_body_) {
      std::size_t mark = TrailMark();
      if (UnifyAtom(from, to)) {
        if (Search(remaining - 1)) return true;
        UndoTo(mark);
      }
    }
    mapped_[index] = false;
    return false;
  }

  const ConjunctiveQuery& psi_;
  const ConjunctiveQuery& theta_;
  ir::NameDictionary predicates_;
  ir::NameDictionary constants_;
  ir::NameDictionary psi_vars_;
  ir::NameDictionary theta_vars_;
  std::vector<std::int32_t> psi_head_;
  std::vector<ir::PatternAtom> psi_body_;
  std::vector<ir::TermId> theta_head_;
  std::vector<ir::TermAtom> theta_body_;
  ir::DenseBinding binding_{0};
  std::vector<std::int32_t> trail_;
  std::vector<bool> mapped_;
  std::vector<int> candidates_;
};

}  // namespace

std::optional<Substitution> FindContainmentMapping(
    const ConjunctiveQuery& psi, const ConjunctiveQuery& theta) {
  IrMappingSearch search(psi, theta);
  return search.Run();
}

bool IsCqContained(const ConjunctiveQuery& theta,
                   const ConjunctiveQuery& psi) {
  return FindContainmentMapping(psi, theta).has_value();
}

bool IsUcqContained(const UnionOfCqs& phi, const UnionOfCqs& psi) {
  for (const ConjunctiveQuery& disjunct : phi.disjuncts()) {
    bool contained = false;
    for (const ConjunctiveQuery& target : psi.disjuncts()) {
      if (IsCqContained(disjunct, target)) {
        contained = true;
        break;
      }
    }
    if (!contained) return false;
  }
  return true;
}

bool IsUcqEquivalent(const UnionOfCqs& phi, const UnionOfCqs& psi) {
  return IsUcqContained(phi, psi) && IsUcqContained(psi, phi);
}

UnionOfCqs RemoveRedundantDisjuncts(const UnionOfCqs& ucq) {
  std::vector<ConjunctiveQuery> kept;
  for (const ConjunctiveQuery& candidate : ucq.disjuncts()) {
    bool redundant = false;
    for (const ConjunctiveQuery& existing : kept) {
      if (IsCqContained(candidate, existing)) {
        redundant = true;
        break;
      }
    }
    if (redundant) continue;
    // Drop previously kept disjuncts subsumed by the new one.
    std::vector<ConjunctiveQuery> next;
    for (ConjunctiveQuery& existing : kept) {
      if (!IsCqContained(existing, candidate)) {
        next.push_back(std::move(existing));
      }
    }
    next.push_back(candidate);
    kept = std::move(next);
  }
  return UnionOfCqs(std::move(kept));
}

}  // namespace datalog
