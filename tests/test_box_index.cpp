// BoxIndex determinism contract (DESIGN.md §16): the index must answer
// first_containing with the identical first-match index a linear sweep
// produces, and its feasibility candidate cursor must preserve the first
// feasible box under both feasibility deciders. These tests pin the contract on
// random box sets, on every library automaton, and on the degenerate cases
// (empty index, empty cursor, arity mismatch).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/automata/box_index.hpp"
#include "src/automata/library.hpp"
#include "src/automata/presburger.hpp"
#include "src/automata/uop_automaton.hpp"
#include "src/solve/sat.hpp"
#include "src/solve/solver.hpp"
#include "src/util/rng.hpp"

namespace lcert {
namespace {

std::vector<IntervalBox> random_boxes(Rng& rng, std::size_t n, std::size_t k) {
  std::vector<IntervalBox> boxes;
  boxes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    IntervalBox b(k);
    for (std::size_t q = 0; q < k; ++q) {
      b.lo[q] = rng.index(6);
      b.hi[q] = rng.coin(0.3) ? IntervalBox::kUnbounded
                              : b.lo[q] + rng.index(6);
    }
    boxes.push_back(std::move(b));
  }
  return boxes;
}

TEST(BoxIndex, EmptyIndexAnswersNpos) {
  const BoxIndex idx{std::vector<IntervalBox>{}};
  EXPECT_EQ(idx.size(), 0u);
  const std::size_t counts[1] = {0};
  const auto hit = idx.first_containing(counts, 0);
  EXPECT_EQ(hit.index, BoxIndex::npos);
  EXPECT_EQ(hit.probes, 0u);
  BoxIndex::Cursor cur;  // default-constructed cursor is exhausted
  EXPECT_EQ(cur.next(), BoxIndex::npos);
}

TEST(BoxIndex, ArityMismatchThrows) {
  const BoxIndex idx(std::vector<IntervalBox>{IntervalBox(3)});
  const std::size_t counts[2] = {0, 0};
  EXPECT_THROW(idx.first_containing(counts, 2), std::invalid_argument);
  EXPECT_THROW(idx.containment_candidates(counts, 2), std::invalid_argument);
  std::vector<IntervalBox> mixed{IntervalBox(2), IntervalBox(3)};
  EXPECT_THROW(BoxIndex{std::move(mixed)}, std::invalid_argument);
}

TEST(BoxIndex, FirstContainingMatchesLinearOnRandomSets) {
  Rng rng(913);
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t k = 1 + rng.index(6);
    const std::size_t n = 1 + rng.index(80);
    const BoxIndex idx(random_boxes(rng, n, k));
    std::vector<std::size_t> counts(k);
    for (int probe = 0; probe < 30; ++probe) {
      for (std::size_t q = 0; q < k; ++q) counts[q] = rng.index(14);
      const auto lin = idx.first_containing_linear(counts.data(), k);
      const auto fast = idx.first_containing(counts.data(), k);
      EXPECT_EQ(fast.index, lin.index) << "trial " << trial;
      // The filter may only shrink the probe count, never change the answer.
      EXPECT_LE(fast.probes, lin.probes);
    }
  }
}

TEST(BoxIndex, ContainmentCandidatesAreASuperset) {
  Rng rng(417);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t k = 1 + rng.index(4);
    const std::size_t n = 1 + rng.index(40);
    const BoxIndex idx(random_boxes(rng, n, k));
    std::vector<std::size_t> counts(k);
    for (std::size_t q = 0; q < k; ++q) counts[q] = rng.index(12);
    std::vector<bool> candidate(idx.size(), false);
    auto cur = idx.containment_candidates(counts.data(), k);
    std::size_t prev = 0;
    bool first = true;
    for (std::size_t i = cur.next(); i != BoxIndex::npos; i = cur.next()) {
      if (!first) EXPECT_GT(i, prev) << "cursor must ascend";
      prev = i;
      first = false;
      ASSERT_LT(i, idx.size());
      candidate[i] = true;
    }
    for (std::size_t i = 0; i < idx.size(); ++i)
      if (idx.box(i).contains(counts))
        EXPECT_TRUE(candidate[i]) << "containing box " << i << " filtered out";
  }
}

TEST(BoxIndex, DecideFirstMatchesFullSweepOnEveryBackend) {
  Rng rng(2024);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t k = 1 + rng.index(5);
    const std::size_t n = 1 + rng.index(20);
    const BoxIndex idx(random_boxes(rng, n, k));
    const std::size_t m = rng.index(5);
    const std::uint64_t keep = (std::uint64_t{1} << k) - 1;
    std::vector<std::uint64_t> masks(m);
    for (auto& mask : masks) mask = rng.uniform(0, keep);

    const auto check = [&](auto& feas, const char* name) {
      feas.begin(masks, k);
      std::size_t sweep_first = BoxIndex::npos;
      for (std::size_t i = 0; i < idx.size(); ++i)
        if (feas.decide(idx.box(i))) {
          sweep_first = i;
          break;
        }
      EXPECT_EQ(feas.decide_first(idx), sweep_first) << name << " trial " << trial;
    };
    solve::FeasibilitySolver production;
    solve::SatFeasibility sat;
    check(production, "production");
    check(sat, "sat");
  }
}

TEST(BoxIndex, SupplyCountsChildrenPerState) {
  solve::ChildMasks vertex;
  const std::vector<std::uint64_t> masks = {0b101, 0b011, 0b100};
  vertex.begin(masks, 3);
  const auto supply = vertex.supply();
  ASSERT_EQ(supply.size(), 3u);
  EXPECT_EQ(supply[0], 2u);
  EXPECT_EQ(supply[1], 1u);
  EXPECT_EQ(supply[2], 2u);
}

TEST(BoxIndex, FeasibilityCandidatesKeepEveryFeasibleBox) {
  Rng rng(5150);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t k = 1 + rng.index(4);
    const std::size_t n = 1 + rng.index(30);
    const BoxIndex idx(random_boxes(rng, n, k));
    const std::size_t m = rng.index(5);
    const std::uint64_t keep = (std::uint64_t{1} << k) - 1;
    std::vector<std::uint64_t> masks(m);
    for (auto& mask : masks) mask = rng.uniform(0, keep);

    solve::ChildMasks vertex;
    vertex.begin(masks, k);
    std::vector<bool> candidate(idx.size(), false);
    auto cur = idx.feasibility_candidates(vertex.supply().data(), m);
    for (std::size_t i = cur.next(); i != BoxIndex::npos; i = cur.next()) {
      ASSERT_LT(i, idx.size());
      candidate[i] = true;
    }
    std::vector<std::size_t> assignment;
    for (std::size_t i = 0; i < idx.size(); ++i)
      if (uop_assign_children_masked(masks, idx.box(i), k, assignment))
        EXPECT_TRUE(candidate[i]) << "feasible box " << i << " filtered out";
  }
}

// Every library automaton, every state: indexed answers equal the linear
// sweep on an exhaustive small-count grid — the exact probe pattern the
// verifier feeds the index.
TEST(BoxIndex, LibraryAutomataExhaustiveFirstMatchIdentity) {
  for (const auto& entry : standard_tree_automata()) {
    const std::size_t k = entry.automaton.state_count;
    for (std::size_t q = 0; q < k; ++q) {
      const BoxIndex idx(entry.automaton.transition(q).to_boxes(k));
      std::vector<std::size_t> counts(k, 0);
      std::size_t probes_checked = 0;
      while (true) {
        const auto lin = idx.first_containing_linear(counts.data(), k);
        const auto fast = idx.first_containing(counts.data(), k);
        ASSERT_EQ(fast.index, lin.index)
            << entry.name << " state " << q << " probe " << probes_checked;
        ++probes_checked;
        std::size_t d = 0;  // odometer over [0,5]^k, capped to bound runtime
        while (d < k && counts[d] == 5) counts[d++] = 0;
        if (d == k || probes_checked > 50000) break;
        ++counts[d];
      }
    }
  }
}

}  // namespace
}  // namespace lcert
