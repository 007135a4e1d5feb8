// The solve/ layer above the per-box exactness tests (test_uop_feasibility):
// the Dpll core itself, SatFeasibility's witness contract, and the
// AttackStrategy plan — in particular the sat-run forgery search, which must
// find nothing on sound schemes and report *why* (every rooting exhausted).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/cert/audit.hpp"
#include "src/schemes/registry.hpp"
#include "src/solve/sat.hpp"
#include "src/util/rng.hpp"

namespace lcert {
namespace {

// --- Dpll -------------------------------------------------------------------

TEST(Dpll, UnitPropagationAndConflicts) {
  solve::Dpll sat;
  const std::size_t a = sat.new_var();
  const std::size_t b = sat.new_var();
  sat.add_clause({solve::Dpll::pos(a)});                           // a
  sat.add_clause({solve::Dpll::neg(a), solve::Dpll::pos(b)});  // a -> b
  ASSERT_TRUE(sat.solve());
  EXPECT_TRUE(sat.value(a));
  EXPECT_TRUE(sat.value(b));

  sat.reset();
  const std::size_t c = sat.new_var();
  sat.add_clause({solve::Dpll::pos(c)});
  sat.add_clause({solve::Dpll::neg(c)});
  EXPECT_FALSE(sat.solve());

  sat.reset();
  sat.add_clause({});  // empty clause: trivially unsat
  EXPECT_FALSE(sat.solve());
}

TEST(Dpll, CardinalityBounds) {
  // Exactly 2 of 4 true, with var 0 forced false: model must pick 2 of the
  // remaining 3.
  solve::Dpll sat;
  std::vector<std::size_t> vars;
  for (int i = 0; i < 4; ++i) vars.push_back(sat.new_var());
  sat.add_cardinality(vars, 2, 2);
  sat.add_clause({solve::Dpll::neg(vars[0])});
  ASSERT_TRUE(sat.solve());
  int trues = 0;
  for (const std::size_t v : vars) trues += sat.value(v) ? 1 : 0;
  EXPECT_EQ(trues, 2);
  EXPECT_FALSE(sat.value(vars[0]));

  // lo > population is unsat outright.
  sat.reset();
  vars.clear();
  for (int i = 0; i < 3; ++i) vars.push_back(sat.new_var());
  sat.add_cardinality(vars, 4, 10);
  EXPECT_FALSE(sat.solve());

  // Interacting cardinalities: >=2 of {a,b,c} but <=1 of {a,b} forces c.
  sat.reset();
  const std::size_t a = sat.new_var();
  const std::size_t b = sat.new_var();
  const std::size_t c = sat.new_var();
  sat.add_cardinality({a, b, c}, 2, 3);
  sat.add_cardinality({a, b}, 0, 1);
  ASSERT_TRUE(sat.solve());
  EXPECT_TRUE(sat.value(c));
}

TEST(Dpll, DeterministicModel) {
  // Same encode -> same trail -> same model, a determinism-contract pin.
  std::vector<bool> first;
  for (int round = 0; round < 2; ++round) {
    solve::Dpll sat;
    std::vector<std::size_t> vars;
    for (int i = 0; i < 6; ++i) vars.push_back(sat.new_var());
    sat.add_cardinality(vars, 2, 4);
    sat.add_clause({solve::Dpll::neg(vars[1]), solve::Dpll::pos(vars[4])});
    sat.add_cardinality({vars[0], vars[2], vars[5]}, 1, 1);
    ASSERT_TRUE(sat.solve());
    std::vector<bool> model;
    for (const std::size_t v : vars) model.push_back(sat.value(v));
    if (round == 0)
      first = model;
    else
      EXPECT_EQ(first, model);
  }
}

// --- witness contract -------------------------------------------------------

// SatFeasibility::decide_witness must agree with decide and hand back a
// *valid* witness — in-mask states whose counts land in the box — on both
// its paths: the DPLL model (which may differ from the pristine assignment
// but must still satisfy the box) and the pristine extraction after a
// pruner verdict.
TEST(SolverWitness, EveryBackendProducesValidWitnesses) {
  Rng rng(424242);
  solve::SatFeasibility feas;
  for (int trial = 0; trial < 800; ++trial) {
    const std::size_t k = rng.uniform(1, 4);
    const std::size_t m = rng.uniform(0, 6);
    std::vector<std::uint64_t> masks(m);
    for (auto& mask : masks) mask = rng.uniform(0, (std::uint64_t{1} << k) - 1);
    IntervalBox box(k);
    for (std::size_t q = 0; q < k; ++q) {
      box.lo[q] = rng.uniform(0, 2);
      box.hi[q] = rng.coin(0.4) ? IntervalBox::kUnbounded : rng.uniform(0, 4);
    }
    feas.begin(masks, k);
    const bool decided = feas.decide(box);
    std::vector<std::size_t> witness;
    ASSERT_EQ(feas.decide_witness(box, witness), decided) << "trial " << trial;
    if (!decided) continue;
    ASSERT_EQ(witness.size(), m) << "trial " << trial;
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < m; ++i) {
      ASSERT_LT(witness[i], k);
      ASSERT_TRUE(masks[i] >> witness[i] & 1u) << "trial " << trial << " child " << i;
      ++counts[witness[i]];
    }
    for (std::size_t q = 0; q < k; ++q) {
      EXPECT_GE(counts[q], box.lo[q]) << "trial " << trial;
      if (box.hi[q] != IntervalBox::kUnbounded)
        EXPECT_LE(counts[q], box.hi[q]) << "trial " << trial;
    }
  }
  EXPECT_GT(feas.counts().sat, 0u);     // the model path ran
  EXPECT_GT(feas.counts().pruned, 0u);  // and so did the pruner path
}

// --- the attack-strategy plan ----------------------------------------------

TEST(AttackPlan, StandardPlanDeclaresBudgetsFromOptions) {
  RunOptions options;
  options.random_trials = 17;
  options.mutation_trials = 5;
  const auto plan = standard_attack_plan(options);
  ASSERT_GE(plan.size(), 6u);
  std::vector<std::string> names;
  for (const auto& s : plan) names.push_back(s.name);
  EXPECT_EQ(names.front(), "random");
  EXPECT_EQ(names.back(), "sat-run");  // draws no rng, must run last
  EXPECT_EQ(plan.front().budget, 17u);
  for (const auto& s : plan)
    if (s.name == "bit-flip") EXPECT_EQ(s.budget, 5u);
}

// Every scheme in the registry must survive the full plan on its own
// no-instance — and the per-strategy outcomes must account for the whole
// plan, with the sat-run row explaining itself either way (exhausted
// rootings, inapplicable surface, or a budget cap), never silently absent.
TEST(AttackPlan, AuditReportNamesEveryStrategyAndFindsNoForgery) {
  for (const auto& entry : scheme_registry()) {
    const auto scheme = entry.make();
    Rng rng(97);
    const Graph yes = entry.family.yes_instance(14, rng);
    const auto tmpl = scheme->assign(yes);
    const Graph no = entry.family.no_instance(14, rng);
    RunOptions options;
    options.random_trials = 8;
    options.mutation_trials = 8;
    const SoundnessAuditReport report =
        run_soundness_audit(*scheme, no, tmpl ? &*tmpl : nullptr, rng, options);
    EXPECT_FALSE(report.forgery.has_value()) << entry.key;
    ASSERT_EQ(report.outcomes.size(), standard_attack_plan(options).size()) << entry.key;
    bool saw_sat_run = false;
    for (const AttackOutcome& out : report.outcomes) {
      EXPECT_FALSE(out.forged) << entry.key << " " << out.strategy;
      EXPECT_LE(out.trials, out.budget) << entry.key << " " << out.strategy;
      if (out.strategy == "sat-run") {
        saw_sat_run = true;
        EXPECT_FALSE(out.detail.empty()) << entry.key;
      }
    }
    EXPECT_TRUE(saw_sat_run) << entry.key;
  }
}

// The compatibility wrapper still answers the one-shot question.
TEST(AttackPlan, AttackSoundnessWrapperAgrees) {
  const auto entry = scheme_registry().front();  // registry returns by value
  const auto scheme = entry.make();
  Rng rng(7);
  const Graph no = entry.family.no_instance(16, rng);
  EXPECT_FALSE(attack_soundness(*scheme, no, nullptr, rng).has_value());
}

}  // namespace
}  // namespace lcert
