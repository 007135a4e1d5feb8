// Adversarial auditing of schemes.
//
// Completeness is checked by running the prover; soundness cannot be proved
// by testing, but it can be *attacked*: the auditor plays a malicious prover
// running a fixed plan of attack strategies (standard_attack_plan) — random
// certificates, the empty assignment, replays of certificates harvested from
// yes-instances (verbatim and shuffled), single bit-flips of the template,
// and the SAT-guided run search, which asks the SAT decider
// (solve::SatFeasibility) for an accepting automaton run on the no-instance
// directly instead of mutating bits. A sound scheme must reject every attempt; any accepted forgery is a
// bug and is returned for the test to display, tagged with the strategy that
// found it. On tiny instances exhaustive_soundness_attack enumerates all
// short certificate assignments outright.
//
// Performance: every probe is one early-exit verify_assignment on the
// instance graph (the engine assembles views per block, so there is no
// per-audit topology to share), and the independent random/mutation trials
// run on a worker pool. Each trial draws its randomness from its own seed
// (pre-drawn serially from the caller's Rng), and a forgery is reported from the lowest-numbered successful trial — so
// for a fixed Rng seed the result is identical for every num_threads value.
// The plan order is part of the replay contract: strategies that consume the
// shared Rng keep their historical draw order, and the sat-run strategy
// (which draws nothing) runs last.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/cert/engine.hpp"
#include "src/cert/options.hpp"
#include "src/cert/scheme.hpp"
#include "src/util/rng.hpp"

namespace lcert {

struct ForgedAssignment {
  std::vector<Certificate> certificates;
  std::string attack;  ///< which attack strategy produced it
};

/// Everything a strategy sees about the instance under attack.
struct AttackContext {
  const Scheme& scheme;
  const Graph& no_instance;
  const std::vector<Certificate>* yes_template;  ///< may be null
  const RunOptions& options;
};

/// What one strategy did: executed trial count (<= its declared budget),
/// whether it applied at all (replay families need a template, sat-run needs
/// a RunForgerySurface and a tree instance), and a human-readable note — in
/// particular the sat-run strategy reports either which rooting forged or
/// that it exhausted every rooting, which upgrades "found nothing" to a
/// completeness statement for that attack family.
struct AttackOutcome {
  std::string strategy;
  std::size_t budget = 0;  ///< declared trial ceiling
  std::size_t trials = 0;  ///< trials actually executed
  bool applicable = true;
  bool forged = false;
  std::string detail;
};

/// One attack family: a name, the trial budget it declared for this run, and
/// the attack body. `run` fills `outcome` (trials, applicability, detail) and
/// returns the forged certificates on success.
struct AttackStrategy {
  std::string name;
  std::size_t budget = 1;
  std::function<std::optional<std::vector<Certificate>>(
      const AttackContext&, Rng&, AttackOutcome&)>
      run;
};

/// The default plan, budgets resolved from `options`:
///   random          options.random_trials uniformly random assignments;
///   empty           one probe of the all-empty assignment;
///   replay          one probe of the yes-template verbatim;
///   replay-shuffled one probe of the yes-template permuted across vertices;
///   bit-flip        options.mutation_trials single bit-flips of the template;
///   sat-run         SAT search for an accepting automaton run, trying up to
///                   options.random_trials rootings (complete over this
///                   family when every rooting is exhausted).
std::vector<AttackStrategy> standard_attack_plan(const RunOptions& options);

/// Full per-strategy audit record. `forgery` is set iff some outcome forged.
struct SoundnessAuditReport {
  std::optional<ForgedAssignment> forgery;
  std::vector<AttackOutcome> outcomes;  ///< one per strategy, plan order
};

/// Runs the attack plan (default: standard_attack_plan(options)) against the
/// scheme's soundness on `no_instance` (must violate holds()). Stops at the
/// first forgery; strategies after it are reported as unexecuted outcomes.
SoundnessAuditReport run_soundness_audit(const Scheme& scheme, const Graph& no_instance,
                                         const std::vector<Certificate>* yes_template,
                                         Rng& rng, const RunOptions& options = {},
                                         const std::vector<AttackStrategy>* plan = nullptr);

/// Compatibility wrapper over run_soundness_audit: returns just the forgery.
/// `yes_template`: optional honest certificates from a similar yes-instance,
/// used for mutation/replay attacks. Consumes the RunOptions budget fields
/// (random_trials, mutation_trials, max_random_bits, try_replay) and
/// num_threads.
std::optional<ForgedAssignment> attack_soundness(
    const Scheme& scheme, const Graph& no_instance,
    const std::vector<Certificate>* yes_template, Rng& rng,
    const RunOptions& options = {});

/// Exhaustively enumerates *all* assignments with certificates of at most
/// `max_bits` bits per vertex (count = (2^{max_bits+1}-1)^n, so keep both
/// tiny). Returns a forgery if any assignment is accepted everywhere.
std::optional<ForgedAssignment> exhaustive_soundness_attack(const Scheme& scheme,
                                                            const Graph& no_instance,
                                                            std::size_t max_bits);

/// Convenience: checks completeness on a yes-instance (prover succeeds and
/// every vertex accepts); throws std::logic_error with diagnostics otherwise.
void require_complete(const Scheme& scheme, const Graph& yes_instance);

}  // namespace lcert
