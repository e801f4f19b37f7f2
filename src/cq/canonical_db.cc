#include "src/cq/canonical_db.h"

#include "src/util/strings.h"

namespace datalog {

std::string FrozenConstantName(const std::string& name) {
  return StrCat("@", name);
}

Tuple FreezeDisjunctIntoDatabase(const ir::ProgramIr& ir, std::size_t index,
                                 Database* db) {
  const ir::DisjunctSpan& disjunct = ir.disjunct(index);
  // IR id -> engine id memos, filled on first occurrence so every name
  // is hashed into the engine dictionaries exactly once, in
  // first-occurrence order.
  std::vector<PredicateId> predicate_ids(ir.predicates().size(),
                                         kNoPredicate);
  std::vector<int> constant_ids(ir.constants().size(), -1);
  std::vector<int> variable_ids(ir.variables().size(), -1);
  auto engine_id = [&](ir::TermId term) {
    if (term.is_variable()) {
      int& id = variable_ids[term.index()];
      if (id < 0) {
        id = db->dictionary().Intern(
            FrozenConstantName(ir.variables().name(term.index())));
      }
      return id;
    }
    int& id = constant_ids[term.index()];
    if (id < 0) id = db->dictionary().Intern(ir.constants().name(term.index()));
    return id;
  };
  Tuple tuple;
  for (std::uint32_t a = disjunct.body_begin; a < disjunct.body_end; ++a) {
    const ir::AtomSpan& atom = ir.atom(a);
    PredicateId& predicate = predicate_ids[atom.predicate];
    if (predicate == kNoPredicate) {
      predicate = db->InternPredicate(ir.predicates().name(atom.predicate),
                                      atom.arity());
    }
    const ir::TermId* args = ir.args(atom);
    tuple.clear();
    tuple.reserve(atom.arity());
    for (std::uint32_t i = 0; i < atom.arity(); ++i) {
      tuple.push_back(engine_id(args[i]));
    }
    db->AddTupleById(predicate, tuple);
  }
  Tuple goal;
  goal.reserve(disjunct.head_args_end - disjunct.head_args_begin);
  const ir::TermId* head = ir.term_range(disjunct.head_args_begin);
  for (std::uint32_t i = 0;
       i < disjunct.head_args_end - disjunct.head_args_begin; ++i) {
    goal.push_back(engine_id(head[i]));
  }
  return goal;
}

}  // namespace datalog
