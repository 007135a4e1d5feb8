#include "src/solve/sat.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

#include "src/automata/uop_automaton.hpp"

namespace lcert::solve {

namespace {

constexpr std::int8_t kUnassigned = -1;

}  // namespace

void Dpll::reset() {
  assign_.clear();
  clauses_.clear();
  cards_.clear();
  var_clauses_.clear();
  var_cards_.clear();
  trail_.clear();
  qhead_ = 0;
  dstack_.clear();
  trivially_unsat_ = false;
  decisions_ = 0;
}

std::size_t Dpll::new_var() {
  assign_.push_back(kUnassigned);
  var_clauses_.emplace_back();
  var_cards_.emplace_back();
  return assign_.size() - 1;
}

void Dpll::add_clause(std::vector<std::size_t> lits) {
  if (lits.empty()) {
    trivially_unsat_ = true;
    return;
  }
  const std::size_t index = clauses_.size();
  for (std::size_t lit : lits) var_clauses_[lit / 2].push_back(index);
  clauses_.push_back({std::move(lits), 0});
}

void Dpll::add_cardinality(std::vector<std::size_t> vars, std::size_t lo,
                               std::size_t hi) {
  if (lo > vars.size()) {
    trivially_unsat_ = true;
    return;
  }
  if (lo == 0 && hi >= vars.size()) return;  // vacuous
  const std::size_t index = cards_.size();
  for (std::size_t v : vars) var_cards_[v].push_back(index);
  const std::size_t n = vars.size();
  cards_.push_back({std::move(vars), lo, hi > n ? n : hi, 0, n});
}

bool Dpll::enqueue(std::size_t var, bool value) {
  if (assign_[var] != kUnassigned) return assign_[var] == (value ? 1 : 0);
  assign_[var] = value ? 1 : 0;
  trail_.push_back(var);
  return true;
}

bool Dpll::propagate() {
  while (qhead_ < trail_.size()) {
    const std::size_t var = trail_[qhead_++];
    const bool value = assign_[var] == 1;

    // Counter pass first, unconditionally: unassign_from() undoes every
    // counter of a var below the frontier, so a conflict must never abort
    // with this var's constraints half-counted.
    for (std::size_t ci : var_clauses_[var]) {
      Clause& c = clauses_[ci];
      // A clause may mention the variable with both polarities.
      for (std::size_t lit : c.lits)
        if (lit / 2 == var && (lit % 2 == 0) != value) ++c.n_false;
    }
    for (std::size_t gi : var_cards_[var]) {
      Card& c = cards_[gi];
      --c.n_unassigned;
      if (value) ++c.n_true;
    }

    // Check/propagate pass. enqueue() touches no counters, so an early
    // return here leaves everything consistent.
    for (std::size_t ci : var_clauses_[var]) {
      const Clause& c = clauses_[ci];
      if (c.n_false == c.lits.size()) return false;
      if (c.n_false + 1 == c.lits.size()) {
        // Unit or already satisfied: find the one non-false literal.
        for (std::size_t lit : c.lits) {
          const std::int8_t a = assign_[lit / 2];
          const bool is_pos = lit % 2 == 0;
          const bool falsified = a != kUnassigned && (a == 1) != is_pos;
          if (falsified) continue;
          if (a == kUnassigned && !enqueue(lit / 2, is_pos)) return false;
          break;
        }
      }
    }
    for (std::size_t gi : var_cards_[var]) {
      const Card& c = cards_[gi];
      if (c.n_true > c.hi) return false;
      if (c.n_true + c.n_unassigned < c.lo) return false;
      if (c.n_unassigned > 0 && c.n_true == c.hi) {
        for (std::size_t v : c.vars)
          if (assign_[v] == kUnassigned && !enqueue(v, false)) return false;
      } else if (c.n_unassigned > 0 && c.n_true + c.n_unassigned == c.lo) {
        for (std::size_t v : c.vars)
          if (assign_[v] == kUnassigned && !enqueue(v, true)) return false;
      }
    }
  }
  return true;
}

void Dpll::unassign_from(std::size_t trail_pos) {
  // Everything below trail_pos was fully propagated before the decision at
  // trail_pos was made, so the frontier rewinds exactly there. Constraint
  // counters are undone symmetrically to propagate(); entries past the old
  // qhead_ never touched them.
  for (std::size_t p = trail_.size(); p > trail_pos; --p) {
    const std::size_t var = trail_[p - 1];
    if (p - 1 < qhead_) {
      const bool value = assign_[var] == 1;
      for (std::size_t ci : var_clauses_[var]) {
        Clause& c = clauses_[ci];
        for (std::size_t lit : c.lits)
          if (lit / 2 == var && (lit % 2 == 0) != value) --c.n_false;
      }
      for (std::size_t gi : var_cards_[var]) {
        Card& c = cards_[gi];
        ++c.n_unassigned;
        if (value) --c.n_true;
      }
    }
    assign_[var] = kUnassigned;
  }
  trail_.resize(trail_pos);
  qhead_ = trail_pos;
}

bool Dpll::solve() {
  if (trivially_unsat_) return false;
  decisions_ = 0;

  // Root-level forcings from the constraint structure itself: unit clauses,
  // lo == size / hi == 0 cardinalities.
  for (const Clause& c : clauses_)
    if (c.lits.size() == 1 && !enqueue(c.lits[0] / 2, c.lits[0] % 2 == 0))
      return false;
  for (const Card& c : cards_) {
    if (c.lo == c.vars.size())
      for (std::size_t v : c.vars)
        if (!enqueue(v, true)) return false;
    if (c.hi == 0)
      for (std::size_t v : c.vars)
        if (!enqueue(v, false)) return false;
  }
  if (!propagate()) return false;

  while (true) {
    // Deterministic branching: lowest-indexed unassigned variable, true
    // first. Encoders order variables most-constrained-first so this is a
    // real heuristic, not just a tie-break.
    std::size_t var = SIZE_MAX;
    for (std::size_t v = 0; v < assign_.size(); ++v)
      if (assign_[v] == kUnassigned) {
        var = v;
        break;
      }
    if (var == SIZE_MAX) return true;  // full model

    ++decisions_;
    dstack_.push_back({trail_.size(), var, false});
    enqueue(var, true);

    while (!propagate()) {
      // Chronological backtracking: pop to the deepest untried polarity.
      bool recovered = false;
      while (!dstack_.empty()) {
        const Decision d = dstack_.back();
        dstack_.pop_back();
        unassign_from(d.trail_pos);
        if (d.flipped) continue;  // both polarities failed, keep popping
        dstack_.push_back({trail_.size(), d.var, true});
        enqueue(d.var, false);
        recovered = true;
        break;
      }
      if (!recovered) return false;  // search space exhausted
    }
  }
}

void SatFeasibility::begin(std::span<const std::uint64_t> child_masks,
                           std::size_t state_count) {
  vertex_.begin(child_masks, state_count);
  pruner_.begin(vertex_.masks(), state_count, vertex_.supply());
}

bool SatFeasibility::decide(const IntervalBox& box) {
  model_valid_ = false;
  switch (pruner_.prune(box)) {
    case Verdict::kFeasible: ++counts_.pruned; return true;
    case Verdict::kInfeasible: ++counts_.pruned; return false;
    case Verdict::kInconclusive: break;
  }
  return sat_decide(box);
}

bool SatFeasibility::decide_witness(const IntervalBox& box,
                                    std::vector<std::size_t>& witness) {
  if (!decide(box)) return false;
  if (model_valid_) {
    // Read the model: exactly-one per child guarantees full coverage.
    witness.assign(vertex_.masks().size(), SIZE_MAX);
    for (std::size_t v = 0; v < var_child_.size(); ++v)
      if (sat_.value(v)) witness[var_child_[v]] = var_state_[v];
    for (std::size_t state : witness)
      if (state == SIZE_MAX)
        throw std::logic_error("SatFeasibility: model left a child unassigned");
    return true;
  }
  // The pruner settled it without a model; extract via the pristine flow.
  if (!uop_assign_children_masked(vertex_.masks(), box, vertex_.state_count(), witness))
    throw std::logic_error("SatFeasibility: pruner disagrees with the pristine flow");
  return true;
}

bool SatFeasibility::sat_decide(const IntervalBox& box) {
  ++counts_.sat;
  const auto eff = pruner_.effective_masks();
  const auto caps = pruner_.caps();
  const std::size_t m = pruner_.child_count();
  const std::size_t k = pruner_.state_count();

  sat_.reset();
  var_child_.clear();
  var_state_.clear();
  state_vars_.assign(k, {});
  child_order_.resize(m);
  std::iota(child_order_.begin(), child_order_.end(), std::size_t{0});
  std::sort(child_order_.begin(), child_order_.end(),
            [&eff](std::size_t x, std::size_t y) {
              const int px = std::popcount(eff[x]);
              const int py = std::popcount(eff[y]);
              return px != py ? px < py : x < y;
            });

  for (std::size_t i : child_order_) {
    child_vars_.clear();
    for (std::uint64_t rest = eff[i]; rest != 0; rest &= rest - 1) {
      const std::size_t q = static_cast<std::size_t>(std::countr_zero(rest));
      const std::size_t var = sat_.new_var();
      var_child_.push_back(i);
      var_state_.push_back(q);
      child_vars_.push_back(var);
      state_vars_[q].push_back(var);
    }
    sat_.add_cardinality(child_vars_, 1, 1);
  }
  for (std::size_t q = 0; q < k; ++q) {
    if (state_vars_[q].empty()) continue;  // lo_q == 0 here (supply check)
    sat_.add_cardinality(state_vars_[q], box.lo[q], static_cast<std::size_t>(caps[q]));
  }

  model_valid_ = sat_.solve();
  return model_valid_;
}

}  // namespace lcert::solve
