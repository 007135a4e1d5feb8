#include "src/solve/solver.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace lcert::solve {

void ChildMasks::begin(std::span<const std::uint64_t> child_masks,
                       std::size_t state_count) {
  if (state_count > 64)
    throw std::invalid_argument("ChildMasks::begin: state_count > 64");
  state_count_ = state_count;
  // Only bits q < state_count are meaningful; truncating here keeps every
  // popcount / union in the pruner and the deciders exact.
  const std::uint64_t keep =
      state_count == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << state_count) - 1);
  masks_.assign(child_masks.begin(), child_masks.end());
  for (std::uint64_t& mask : masks_) mask &= keep;
  supply_.assign(state_count, 0);
  for (const std::uint64_t mask : masks_)
    for (std::uint64_t rest = mask; rest != 0; rest &= rest - 1)
      ++supply_[static_cast<std::size_t>(std::countr_zero(rest))];
}

void FeasibilitySolver::begin(std::span<const std::uint64_t> child_masks,
                              std::size_t state_count) {
  vertex_.begin(child_masks, state_count);
  pruner_.begin(vertex_.masks(), state_count, vertex_.supply());
  net_built_ = false;
}

bool FeasibilitySolver::decide(const IntervalBox& box) {
  switch (pruner_.prune(box)) {
    case Verdict::kFeasible: ++counts_.pruned; return true;
    case Verdict::kInfeasible: ++counts_.pruned; return false;
    case Verdict::kInconclusive: break;
  }
  switch (pruner_.combinatorial(box)) {
    case Verdict::kFeasible: ++counts_.greedy; return true;
    case Verdict::kInfeasible: ++counts_.greedy; return false;
    case Verdict::kInconclusive: break;
  }
  return flow_decide(box);
}

bool FeasibilitySolver::flow_decide(const IntervalBox& box) {
  // Reached only when prune() was inconclusive, so the pristine pre-checks
  // already passed: m > 0, lo <= hi, lo_sum <= m, cap >= lo.
  const bool rebuilt = !net_built_;
  if (!net_built_) build_network();
  const std::size_t m = vertex_.masks().size();
  const std::size_t k = vertex_.state_count();
  std::int64_t lo_sum = 0;
  for (std::size_t q = 0; q < k; ++q) {
    const auto lo = static_cast<std::int64_t>(box.lo[q]);
    const std::int64_t cap =
        box.hi[q] == IntervalBox::kUnbounded
            ? static_cast<std::int64_t>(m)
            : static_cast<std::int64_t>(std::min(box.hi[q], m));
    net_.set_capacity(state_sink_edge_[q], cap - lo);
    net_.set_capacity(state_super_edge_[q], lo);
    lo_sum += lo;
  }
  net_.set_capacity(super_child_sink_edge_, lo_sum);
  net_.reset_flows();
  const std::int64_t achieved = net_.run(m + k + 2, m + k + 3);
  if (rebuilt)
    ++counts_.flow;
  else
    ++counts_.warm;
  return achieved == static_cast<std::int64_t>(m) + lo_sum;
}

void FeasibilitySolver::build_network() {
  // Circulation-with-lower-bounds over the bipartite assignment network,
  // pre-reduced so only capacities change between boxes. Original problem:
  // S -> child [1,1], child -> state [0,1], state_q -> T [lo_q, cap_q], plus
  // the T -> S return edge. The standard reduction moves every lower bound
  // onto super-source/super-sink edges:
  //   SS -> child (1)        from the child's saturated S -> child edge
  //   S  -> TT (m)           the m units S owes its children
  //   state_q -> T (cap-lo)  the residual choice above the lower bound
  //   state_q -> TT (lo_q)   the lower bound itself
  //   SS -> T (lo_sum)       T's matching surplus
  // Feasible iff maxflow(SS, TT) == m + lo_sum. Only the last three
  // capacities move per query; adjacency is built once per vertex.
  const auto masks = vertex_.masks();
  const std::size_t m = masks.size();
  const std::size_t k = vertex_.state_count();
  const std::size_t s_node = m + k;
  const std::size_t t_node = m + k + 1;
  const std::size_t super_source = m + k + 2;
  const std::size_t super_sink = m + k + 3;
  net_.reset(m + k + 4);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::uint64_t rest = masks[i]; rest != 0; rest &= rest - 1)
      net_.add_edge(i, m + static_cast<std::size_t>(std::countr_zero(rest)), 1);
    net_.add_edge(super_source, i, 1);
  }
  state_sink_edge_.assign(k, 0);
  state_super_edge_.assign(k, 0);
  for (std::size_t q = 0; q < k; ++q) {
    state_sink_edge_[q] = net_.add_edge(m + q, t_node, 0);
    state_super_edge_[q] = net_.add_edge(m + q, super_sink, 0);
  }
  net_.add_edge(t_node, s_node, std::numeric_limits<std::int64_t>::max() / 4);
  net_.add_edge(s_node, super_sink, static_cast<std::int64_t>(m));
  super_child_sink_edge_ = net_.add_edge(super_source, t_node, 0);
  net_built_ = true;
}

}  // namespace lcert::solve
