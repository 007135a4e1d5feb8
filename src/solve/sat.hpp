// The SAT side of the per-vertex feasibility question (DESIGN.md §15): a
// small propositional core, Dpll, and SatFeasibility, which encodes one
// vertex's box question for it.
//
// Dpll is a chronological DPLL over clauses and native cardinality
// constraints. No external dependencies by design — the container rule is
// "no new packages", and the problems are tiny (<= 64 children x 64
// states). What it does:
//   clause      OR of literals (var or negation);
//   cardinality lo <= (number of true vars among a set) <= hi, propagated by
//               counters (true/unassigned per constraint): hi reached =>
//               remaining vars forced false, lo only reachable by taking
//               every unassigned var => remaining forced true;
//   search      branch on the lowest-indexed unassigned variable, true first;
//               a conflict backtracks chronologically to the deepest decision
//               with an untried polarity.
// What it does not do: no clause learning, no non-chronological
// backjumping, no restarts, no activity heuristics, no watched literals. For
// a fixed problem the trail, the model and the answer are always the same (a
// determinism-contract requirement, not just a simplification).
//
// SatFeasibility is not the production path (that is FeasibilitySolver,
// solver.hpp). Its two consumers are the audit's sat-run forgery search,
// which takes its models as run witnesses, and the solver-divergence fuzz
// oracle, which needs a second, independent decision procedure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/automata/box_index.hpp"
#include "src/automata/presburger.hpp"
#include "src/solve/pruner.hpp"
#include "src/solve/solver.hpp"

namespace lcert::solve {

class Dpll {
 public:
  /// Clears every variable and constraint; keeps buffer capacity.
  void reset();

  /// Adds a variable (initially unassigned); returns its index.
  std::size_t new_var();

  /// Literal encoding for clauses: 2*var for the positive literal,
  /// 2*var + 1 for the negation.
  static std::size_t pos(std::size_t var) { return 2 * var; }
  static std::size_t neg(std::size_t var) { return 2 * var + 1; }

  /// Adds a disjunction of literals. An empty clause makes the instance
  /// trivially unsatisfiable.
  void add_clause(std::vector<std::size_t> lits);

  /// Adds lo <= #{v in vars : v true} <= hi over distinct variables.
  /// hi >= vars.size() means "no upper bound".
  void add_cardinality(std::vector<std::size_t> vars, std::size_t lo, std::size_t hi);

  /// Decides satisfiability; deterministic. May be called once per
  /// reset()+encode cycle.
  bool solve();

  /// Model access after solve() returned true.
  bool value(std::size_t var) const { return assign_[var] == 1; }

  /// Branch decisions made by the last solve() (the forgery search's budget
  /// currency — propagation is linear, decisions are where time goes).
  std::size_t decisions() const noexcept { return decisions_; }

 private:
  struct Clause {
    std::vector<std::size_t> lits;
    std::size_t n_false = 0;
  };
  struct Card {
    std::vector<std::size_t> vars;
    std::size_t lo = 0, hi = 0;
    std::size_t n_true = 0, n_unassigned = 0;
  };

  bool enqueue(std::size_t var, bool value);
  bool propagate();  ///< advances qhead_ through the trail; false on conflict
  void unassign_from(std::size_t trail_pos);

  /// A decision point: where on the trail it sits, which variable, and
  /// whether the false branch has been tried (chronological backtracking
  /// pops the deepest entry with an untried polarity).
  struct Decision {
    std::size_t trail_pos;
    std::size_t var;
    bool flipped;
  };

  // assign_[v]: -1 unassigned, 0 false, 1 true.
  std::vector<std::int8_t> assign_;
  std::vector<Clause> clauses_;
  std::vector<Card> cards_;
  // Per variable: constraints watching it (indices into clauses_/cards_).
  std::vector<std::vector<std::size_t>> var_clauses_;
  std::vector<std::vector<std::size_t>> var_cards_;
  std::vector<std::size_t> trail_;  ///< assigned vars, assignment order
  std::size_t qhead_ = 0;           ///< propagation frontier into trail_
  std::vector<Decision> dstack_;
  bool trivially_unsat_ = false;
  std::size_t decisions_ = 0;
};

/// The shared pruner, then Dpll on the cardinality encoding for the residue.
/// The combinatorial stage is skipped on purpose, so the DPLL core, not the
/// greedy heuristics, decides everything the pruner cannot. Same exactness
/// contract and per-vertex protocol as FeasibilitySolver.
///
/// Encoding: one variable per (child, usable state in the child's effective
/// mask); exactly-one cardinality per child; per state q a cardinality
/// lo_q <= #true <= cap_q over the child variables that can take q.
/// Variables are allocated most-constrained child first, so Dpll's
/// lowest-index branching rule turns into a real ordering heuristic.
class SatFeasibility {
 public:
  void begin(std::span<const std::uint64_t> child_masks, std::size_t state_count);

  /// Exact: same boolean as uop_assign_children_masked(child_masks, box, ...).
  bool decide(const IntervalBox& box);

  /// First feasible box of an indexed DNF at the current vertex, or
  /// BoxIndex::npos (ChildMasks::first_feasible over decide()).
  std::size_t decide_first(const BoxIndex& index) {
    return vertex_.first_feasible(index, [this](const IntervalBox& b) { return decide(b); });
  }

  /// decide() plus a witness (one valid state per child) when feasible: the
  /// DPLL model, or the pristine extraction when the pruner settled the box.
  /// Any valid assignment, NOT necessarily the pristine flow's choice.
  bool decide_witness(const IntervalBox& box, std::vector<std::size_t>& witness);

  /// Per-state raw supply of the current vertex (ChildMasks::supply).
  std::span<const std::size_t> supply() const noexcept { return vertex_.supply(); }

  /// `pruned` and `sat` only.
  const DecisionCounts& counts() const noexcept { return counts_; }

 private:
  bool sat_decide(const IntervalBox& box);

  ChildMasks vertex_;
  BoxPruner pruner_;
  Dpll sat_;
  DecisionCounts counts_;
  bool model_valid_ = false;
  // Variable index -> (child, state), plus encode scratch reused per query.
  std::vector<std::size_t> var_child_;
  std::vector<std::size_t> var_state_;
  std::vector<std::vector<std::size_t>> state_vars_;
  std::vector<std::size_t> child_vars_;
  std::vector<std::size_t> child_order_;
};

}  // namespace lcert::solve
