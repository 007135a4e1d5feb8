// The UOP per-vertex feasibility core (DESIGN.md §12/§15): edge cases of the
// pristine uop_assign_children_masked solver, and the exactness contract of
// both deciders, the production FeasibilitySolver and SatFeasibility — each
// must produce the same boolean as brute-force enumeration, and the first box
// it accepts must be the first box the pristine scan accepts.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/automata/presburger.hpp"
#include "src/automata/uop_automaton.hpp"
#include "src/solve/sat.hpp"
#include "src/solve/solver.hpp"
#include "src/util/rng.hpp"

namespace lcert {
namespace {

// Brute force over all assignments: each child picks a state from its mask,
// counts must land in the box. The ground truth every path is judged against.
bool brute_force_feasible(const std::vector<std::uint64_t>& masks,
                          const IntervalBox& box, std::size_t k) {
  const std::size_t m = masks.size();
  std::vector<std::size_t> pick(m, 0);
  std::vector<std::size_t> counts(k, 0);
  const auto valid = [&]() {
    for (std::size_t q = 0; q < k; ++q) counts[q] = 0;
    for (std::size_t i = 0; i < m; ++i) ++counts[pick[i]];
    for (std::size_t q = 0; q < k; ++q) {
      if (counts[q] < box.lo[q]) return false;
      if (box.hi[q] != IntervalBox::kUnbounded && counts[q] > box.hi[q]) return false;
    }
    return true;
  };
  // Odometer over the k^m grid, skipping states outside each child's mask.
  while (true) {
    bool in_masks = true;
    for (std::size_t i = 0; i < m; ++i)
      if ((masks[i] >> pick[i] & 1u) == 0) in_masks = false;
    if (in_masks && valid()) return true;
    std::size_t i = 0;
    while (i < m && ++pick[i] == k) pick[i++] = 0;
    if (i == m) return false;
  }
}

// Both deciders, so a test can run one body on each.
struct Deciders {
  solve::FeasibilitySolver production;
  solve::SatFeasibility sat;

  template <typename Fn>
  void each(Fn&& fn) {
    fn(production, "production");
    fn(sat, "sat");
  }
};

TEST(UopAssignMasked, EmptyChildSpan) {
  std::vector<std::uint64_t> no_children;
  std::vector<std::size_t> assignment{99};  // must be cleared on success
  IntervalBox relaxed(3);
  EXPECT_TRUE(uop_assign_children_masked(no_children, relaxed, 3, assignment));
  EXPECT_TRUE(assignment.empty());

  IntervalBox demanding(3);
  demanding.lo[1] = 1;  // one child required, none exist
  EXPECT_FALSE(uop_assign_children_masked(no_children, demanding, 3, assignment));
}

TEST(UopAssignMasked, StateCount64Boundary) {
  // Bit 63 is a real state at k == 64; the mask-truncation shift must not
  // overflow. Two children forced onto the two top states by lower bounds.
  const std::size_t k = 64;
  std::vector<std::uint64_t> masks{std::uint64_t{1} << 63,
                                   (std::uint64_t{1} << 63) | (std::uint64_t{1} << 62)};
  IntervalBox box(k);
  box.lo[62] = 1;
  std::vector<std::size_t> assignment;
  ASSERT_TRUE(uop_assign_children_masked(masks, box, k, assignment));
  EXPECT_EQ(assignment[0], 63u);
  EXPECT_EQ(assignment[1], 62u);

  Deciders deciders;
  deciders.each([&](auto& feas, const char* name) {
    feas.begin(masks, k);
    EXPECT_TRUE(feas.decide(box)) << name;
  });
  box.lo[61] = 1;  // no child can supply state 61
  deciders.each([&](auto& feas, const char* name) {
    feas.begin(masks, k);
    EXPECT_FALSE(feas.decide(box)) << name;
  });
  EXPECT_FALSE(uop_assign_children_masked(masks, box, k, assignment));
}

TEST(UopAssignMasked, JustInfeasibleBox) {
  // Three children confined to state 0: hi[0] == 3 fits exactly, 2 is one
  // short; lo_sum == 4 over three children overshoots by one.
  std::vector<std::uint64_t> masks{1, 1, 1};
  std::vector<std::size_t> assignment;
  IntervalBox fits(2);
  fits.hi[0] = 3;
  EXPECT_TRUE(uop_assign_children_masked(masks, fits, 2, assignment));
  IntervalBox tight(2);
  tight.hi[0] = 2;
  EXPECT_FALSE(uop_assign_children_masked(masks, tight, 2, assignment));
  IntervalBox over(2);
  over.lo[0] = 3;
  over.lo[1] = 1;
  EXPECT_FALSE(uop_assign_children_masked(masks, over, 2, assignment));
}

// The exactness contract: for both deciders, decide() equals brute force
// equals the pristine solver — and when feasible, the pristine solver's
// assignment is valid.
TEST(FeasibilitySolverBackends, RandomizedCrossCheckAgainstBruteForce) {
  Rng rng(20260809);
  Deciders deciders;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t k = rng.uniform(1, 4);
    const std::size_t m = rng.uniform(0, 6);
    std::vector<std::uint64_t> masks(m);
    for (auto& mask : masks)
      mask = rng.uniform(0, (std::uint64_t{1} << k) - 1);  // empty masks included
    // A batch of boxes against one begin(): exercises the warm-network reuse
    // and the SAT encoding's per-vertex variable layout.
    std::vector<IntervalBox> boxes;
    const std::size_t box_count = rng.uniform(1, 4);
    for (std::size_t b = 0; b < box_count; ++b) {
      IntervalBox box(k);
      for (std::size_t q = 0; q < k; ++q) {
        box.lo[q] = rng.uniform(0, 3);
        box.hi[q] = rng.coin(0.4) ? IntervalBox::kUnbounded : rng.uniform(0, 4);
      }
      boxes.push_back(box);
    }
    deciders.each([&](auto& feas, const char*) { feas.begin(masks, k); });
    for (const IntervalBox& box : boxes) {
      const bool truth = brute_force_feasible(masks, box, k);
      std::vector<std::size_t> assignment;
      ASSERT_EQ(uop_assign_children_masked(masks, box, k, assignment), truth)
          << "pristine solver diverged at trial " << trial;
      deciders.each([&](auto& feas, const char* name) {
        ASSERT_EQ(feas.decide(box), truth) << name << " diverged at trial " << trial;
      });
      if (truth) {
        std::vector<std::size_t> counts(k, 0);
        ASSERT_EQ(assignment.size(), m);
        for (std::size_t i = 0; i < m; ++i) {
          ASSERT_TRUE(masks[i] >> assignment[i] & 1u);
          ++counts[assignment[i]];
        }
        for (std::size_t q = 0; q < k; ++q) {
          EXPECT_GE(counts[q], box.lo[q]);
          if (box.hi[q] != IntervalBox::kUnbounded) EXPECT_LE(counts[q], box.hi[q]);
        }
      }
    }
  }
  // Every query must have resolved in some stage, and each decider's counts
  // must respect its stage topology: the production solver never reaches a
  // SAT core; SatFeasibility never runs the combinatorial stage or any flow.
  const solve::DecisionCounts& prod = deciders.production.counts();
  EXPECT_GT(prod.total(), 0u);
  EXPECT_EQ(prod.sat, 0u);
  const solve::DecisionCounts& sat = deciders.sat.counts();
  EXPECT_GT(sat.total(), 0u);
  EXPECT_GT(sat.sat, 0u);
  EXPECT_EQ(sat.greedy + sat.warm + sat.flow, 0u);
}

// Box selection is part of the bit-identity contract: the first box either
// decider accepts must be the first box the pristine scan accepts.
TEST(FeasibilitySolverBackends, BackendFilteredExtractionPicksTheSameBox) {
  Rng rng(77);
  Deciders deciders;
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t k = rng.uniform(1, 4);
    const std::size_t m = rng.uniform(1, 6);
    std::vector<std::uint64_t> masks(m);
    for (auto& mask : masks) mask = rng.uniform(1, (std::uint64_t{1} << k) - 1);
    std::vector<IntervalBox> boxes;
    for (std::size_t b = 0; b < 5; ++b) {
      IntervalBox box(k);
      for (std::size_t q = 0; q < k; ++q) {
        box.lo[q] = rng.uniform(0, 2);
        box.hi[q] = rng.coin(0.4) ? IntervalBox::kUnbounded : rng.uniform(0, 3);
      }
      boxes.push_back(box);
    }
    std::size_t pristine_first = SIZE_MAX;
    std::vector<std::size_t> assignment;
    for (std::size_t b = 0; b < boxes.size(); ++b)
      if (uop_assign_children_masked(masks, boxes[b], k, assignment)) {
        pristine_first = b;
        break;
      }
    deciders.each([&](auto& feas, const char* name) {
      feas.begin(masks, k);
      std::size_t decider_first = SIZE_MAX;
      for (std::size_t b = 0; b < boxes.size(); ++b)
        if (feas.decide(boxes[b])) {
          decider_first = b;
          break;
        }
      ASSERT_EQ(decider_first, pristine_first) << name << " trial " << trial;
    });
  }
}

}  // namespace
}  // namespace lcert
