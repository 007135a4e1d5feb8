// The production feasibility solver (DESIGN.md §15).
//
// Every MSO scheme reduces to one per-vertex question — can the children
// pick states from their feasibility masks so the per-state counts land in
// an interval box? — and FeasibilitySolver is the one production answer to
// it. The prover, find_accepting_run and the incremental repair path all
// hold one. It decides in three stages, cheapest first: the shared
// BoxPruner's pre-checks, its combinatorial stage, and for whatever both
// leave inconclusive a warm Dinic circulation whose structure is built once
// per vertex and only re-bounded per box.
//
// Exactness contract (the load-bearing invariant): decide(box) returns the
// exact boolean of uop_assign_children_masked for the masks passed to
// begin(). Decisions only choose the box; *assignments* in the prover always
// come from the pristine flow build, so certificates equal assign()'s for
// every thread count and memo setting. The contract is pinned by the
// brute-force cross-check tests and by the solver-divergence fuzz oracle,
// which compares this solver's first feasible box against SatFeasibility
// (sat.hpp) and a full uop_assign_children_masked sweep at every vertex and
// state of every MSO trial tree.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/automata/box_index.hpp"
#include "src/automata/presburger.hpp"
#include "src/solve/pruner.hpp"
#include "src/util/flow.hpp"

namespace lcert::solve {

/// How the queries resolved, by deciding stage: `pruned` counts the shared
/// pruner's conclusive answers, `greedy` the combinatorial stage's,
/// `warm`/`flow` the warm-vs-rebuilt Dinic split, `sat` the DPLL decisions
/// (SatFeasibility only; the production solver never reaches it).
/// Classification depends only on the per-vertex query sequence, so totals
/// are thread-count invariant when that sequence is.
struct DecisionCounts {
  std::uint64_t pruned = 0;
  std::uint64_t greedy = 0;
  std::uint64_t warm = 0;
  std::uint64_t flow = 0;
  std::uint64_t sat = 0;

  std::uint64_t total() const noexcept { return pruned + greedy + warm + flow + sat; }

  DecisionCounts& operator+=(const DecisionCounts& o) {
    pruned += o.pruned;
    greedy += o.greedy;
    warm += o.warm;
    flow += o.flow;
    sat += o.sat;
    return *this;
  }
};

/// One vertex's child feasibility masks, as both deciders (this header's
/// FeasibilitySolver and sat.hpp's SatFeasibility) judge boxes against them.
class ChildMasks {
 public:
  /// Copies the masks, truncated to state_count bits (which must be <= 64),
  /// and counts the per-state supply.
  void begin(std::span<const std::uint64_t> child_masks, std::size_t state_count);

  std::span<const std::uint64_t> masks() const noexcept { return masks_; }
  std::size_t state_count() const noexcept { return state_count_; }
  /// supply()[q] = number of children whose (truncated) mask allows state q.
  std::span<const std::size_t> supply() const noexcept { return supply_; }

  /// First box of `index` that `decide` accepts, or BoxIndex::npos. Iterates
  /// the index's feasibility candidates (boxes the necessary conditions
  /// lo[q] <= supply[q], sum(lo) <= child count cannot reject) in DNF order,
  /// so the answer equals a full decide() sweep — skipped boxes are provably
  /// infeasible.
  template <typename Decide>
  std::size_t first_feasible(const BoxIndex& index, Decide&& decide) const {
    if (index.size() == 0) return BoxIndex::npos;
    if (index.arity() != state_count_)
      throw std::invalid_argument("ChildMasks::first_feasible: wrong arity");
    BoxIndex::Cursor cur = index.feasibility_candidates(supply_.data(), masks_.size());
    for (std::size_t i = cur.next(); i != BoxIndex::npos; i = cur.next())
      if (decide(index.box(i))) return i;
    return BoxIndex::npos;
  }

 private:
  std::vector<std::uint64_t> masks_;  ///< truncated to state_count bits
  std::vector<std::size_t> supply_;   ///< per state: children able to take it
  std::size_t state_count_ = 0;
};

/// One instance is per-worker scratch: warm across vertices within a run,
/// zero steady-state allocations once warm, not thread-safe, and not to be
/// moved between begin() and the decisions it starts.
class FeasibilitySolver {
 public:
  /// Starts a new vertex: the child feasibility masks every following
  /// decide() call is judged against.
  void begin(std::span<const std::uint64_t> child_masks, std::size_t state_count);

  /// Decision for one interval box at the current vertex. Exact: same
  /// boolean as uop_assign_children_masked(child_masks, box, ...).
  bool decide(const IntervalBox& box);

  /// First feasible box of an indexed DNF at the current vertex, or
  /// BoxIndex::npos (ChildMasks::first_feasible over decide()).
  std::size_t decide_first(const BoxIndex& index) {
    return vertex_.first_feasible(index, [this](const IntervalBox& b) { return decide(b); });
  }

  const DecisionCounts& counts() const noexcept { return counts_; }

 private:
  /// Exact decision for the residue both pruner stages left inconclusive.
  bool flow_decide(const IntervalBox& box);
  void build_network();

  ChildMasks vertex_;
  BoxPruner pruner_;
  DecisionCounts counts_;
  DinicScratch net_;
  bool net_built_ = false;
  std::vector<std::size_t> state_sink_edge_;   ///< per state: state->sink slot
  std::vector<std::size_t> state_super_edge_;  ///< per state: state->super-sink slot
  std::size_t super_child_sink_edge_ = 0;      ///< super-source->sink slot
};

}  // namespace lcert::solve
