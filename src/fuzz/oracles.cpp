#include "src/fuzz/oracles.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

#include "src/automata/box_index.hpp"
#include "src/automata/uop_automaton.hpp"
#include "src/cert/audit.hpp"
#include "src/cert/engine.hpp"
#include "src/cert/prove.hpp"
#include "src/fuzz/mutators.hpp"
#include "src/graph/rooted_tree.hpp"
#include "src/incr/incremental.hpp"
#include "src/obs/metrics.hpp"
#include "src/solve/sat.hpp"
#include "src/solve/solver.hpp"

namespace lcert::fuzz {

namespace {

// One hit counter per oracle, resolved once.
struct OracleMetrics {
  obs::Counter reference = obs::registry().counter("fuzz/oracle/reference-disagreement");
  obs::Counter prover_refused = obs::registry().counter("fuzz/oracle/prover-refused-yes");
  obs::Counter verifier_rejected =
      obs::registry().counter("fuzz/oracle/verifier-rejected-honest");
  obs::Counter prover_certified = obs::registry().counter("fuzz/oracle/prover-certified-no");
  obs::Counter batch = obs::registry().counter("fuzz/oracle/batch-divergence");
  obs::Counter round_trip = obs::registry().counter("fuzz/oracle/round-trip-mismatch");
  obs::Counter forgery = obs::registry().counter("fuzz/oracle/soundness-forgery");
  obs::Counter solver = obs::registry().counter("fuzz/oracle/solver-divergence");
  obs::Counter incremental =
      obs::registry().counter("fuzz/oracle/incremental-divergence");
  obs::Counter box_index =
      obs::registry().counter("fuzz/oracle/box-index-divergence");
};

const OracleMetrics& oracle_metrics() {
  static const OracleMetrics metrics;
  return metrics;
}

void count_hit(Oracle oracle) {
  const OracleMetrics& m = oracle_metrics();
  switch (oracle) {
    case Oracle::kReferenceDisagreement: m.reference.add(); break;
    case Oracle::kProverRefusedYesInstance: m.prover_refused.add(); break;
    case Oracle::kVerifierRejectedHonest: m.verifier_rejected.add(); break;
    case Oracle::kProverCertifiedNoInstance: m.prover_certified.add(); break;
    case Oracle::kBatchDivergence: m.batch.add(); break;
    case Oracle::kRoundTripMismatch: m.round_trip.add(); break;
    case Oracle::kSoundnessForgery: m.forgery.add(); break;
    case Oracle::kSolverDivergence: m.solver.add(); break;
    case Oracle::kIncrementalDivergence: m.incremental.add(); break;
    case Oracle::kBoxIndexDivergence: m.box_index.add(); break;
  }
}

CheckOutcome violation(Oracle oracle, std::string detail) {
  count_hit(oracle);
  CheckOutcome out;
  out.violation = Violation{oracle, std::move(detail)};
  return out;
}

/// Bit-exact round trip: read every bit back and re-encode. Any divergence
/// means BitReader and BitWriter disagree about the stream layout.
bool round_trips(const Certificate& c) {
  BitReader r = c.reader();
  BitWriter w;
  for (std::size_t i = 0; i < c.bit_size; ++i) w.write_bit(r.read(1) != 0);
  const Certificate back = Certificate::from_writer(std::move(w));
  return back == c;
}

/// Per-vertex verify with the engine's exception policy (CertificateTruncated
/// rejects), for comparison against the batched path.
bool verify_single(const Scheme& scheme, const ViewRef& view) {
  try {
    return scheme.verify(view);
  } catch (const CertificateTruncated&) {
    return false;
  }
}

bool same_assignment(const std::optional<std::vector<Certificate>>& a,
                     const std::optional<std::vector<Certificate>>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a.has_value() || *a == *b;
}

/// Oracle 9: the incremental recertification path is a pure speedup. Drives
/// a CertifiedInstance through a short random walk of family edits and
/// demands, after init and after every edit, bit-identical certificates to a
/// cold full re-prove of the accumulated graph — plus a clean radius-1
/// re-verification of the changed slice. Runs after the older oracles so its
/// rng draws never shift their streams (replay coordinates of recorded repro
/// files stay valid); box-index-divergence runs after it for the same
/// reason.
std::optional<CheckOutcome> incremental_divergence(const Scheme& scheme,
                                                   const InstanceFamily& family,
                                                   const Graph& g, Rng& rng) {
  RunOptions opts;
  opts.num_threads = 1;
  incr::CertifiedInstance live(scheme, opts);
  if (!live.incremental()) return std::nullopt;

  Graph cur = g;
  live.init(cur);
  if (!same_assignment(live.certificates(),
                       prove_assignment(scheme, cur, opts).certificates))
    return violation(Oracle::kIncrementalDivergence,
                     "init diverged from a cold prove_assignment");

  if (family.mutators.empty()) return std::nullopt;
  constexpr std::size_t kWalkLength = 4;
  for (std::size_t step = 0; step < kWalkLength; ++step) {
    const MutatorKind kind = family.mutators[rng.index(family.mutators.size())];
    const auto edit = draw_edit(cur, kind, rng);
    if (!edit.has_value()) continue;
    const IncrementalStats st = live.apply(*edit);
    cur = apply_edit(cur, *edit);
    if (!same_assignment(live.certificates(),
                         prove_assignment(scheme, cur, opts).certificates)) {
      std::ostringstream os;
      os << "edit " << step << " (" << to_string(*edit)
         << ") diverged from a cold prove_assignment"
         << (st.full_reprove ? " [full-reprove path]" : " [incremental path]");
      return violation(Oracle::kIncrementalDivergence, os.str());
    }
    if (!st.reverify_clean) {
      std::ostringstream os;
      os << "edit " << step << " (" << to_string(*edit)
         << "): re-verification of the changed slice rejected";
      return violation(Oracle::kIncrementalDivergence, os.str());
    }
  }
  return std::nullopt;
}

/// Oracle 8, decision half: the production FeasibilitySolver must decide
/// like two independent procedures. Under every rooting of the trial tree it
/// runs the bottom-up feasibility pass of the scheme's automaton and, at
/// every vertex and state, compares the first feasible box of three
/// deciders: the production solver, SatFeasibility, and a full
/// uop_assign_children_masked sweep in DNF order. Feasibility is a function
/// of the child-mask multiset, so a multiset seen under an earlier vertex or
/// rooting is not checked again. Draws no rng, so it may run anywhere in the
/// battery without shifting replay coordinates.
std::optional<CheckOutcome> solver_divergence(const Scheme& scheme, const Graph& g) {
  const auto surface = scheme.run_forgery_surface();
  if (!surface.has_value() || surface->automaton == nullptr || surface->boxes == nullptr)
    return std::nullopt;
  const UOPAutomaton& a = *surface->automaton;
  if (a.label_count != 1 || a.state_count > 64) return std::nullopt;
  const std::size_t n = g.vertex_count();
  if (n == 0 || g.edge_count() != n - 1 || !g.is_connected()) return std::nullopt;

  const std::size_t k = a.state_count;
  const BoxIndex* boxes = surface->boxes;

  solve::FeasibilitySolver production;
  solve::SatFeasibility sat;
  std::map<std::vector<std::uint64_t>, std::uint64_t> mask_of;  // sorted child masks
  std::vector<std::uint64_t> feasible(n, 0);
  std::vector<std::uint64_t> child_masks;
  std::vector<std::uint64_t> key;
  std::vector<std::size_t> assignment;
  for (Vertex root = 0; root < n; ++root) {
    const RootedTree t = RootedTree::from_graph(g, root);
    const auto order = t.preorder();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const std::size_t v = *it;
      child_masks.clear();
      for (std::size_t c : t.children(v)) child_masks.push_back(feasible[c]);
      key = child_masks;
      std::sort(key.begin(), key.end());
      const auto [slot, fresh] = mask_of.try_emplace(key, 0);
      if (fresh) {
        production.begin(child_masks, k);
        sat.begin(child_masks, k);
        for (std::size_t q = 0; q < k; ++q) {
          const BoxIndex& idx = boxes[q];
          const std::size_t first = production.decide_first(idx);
          const std::size_t sat_first = sat.decide_first(idx);
          std::size_t sweep_first = BoxIndex::npos;
          for (std::size_t i = 0; i < idx.size() && sweep_first == BoxIndex::npos; ++i)
            if (uop_assign_children_masked(child_masks, idx.box(i), k, assignment))
              sweep_first = i;
          if (first != sat_first || first != sweep_first) {
            std::ostringstream os;
            os << "root " << root << ", vertex " << v << " (m=" << child_masks.size()
               << "), state " << q << ": first feasible box " << first
               << " (production) vs " << sat_first << " (sat) vs " << sweep_first
               << " (pristine sweep)";
            return violation(Oracle::kSolverDivergence, os.str());
          }
          if (first != BoxIndex::npos) slot->second |= std::uint64_t{1} << q;
        }
      }
      feasible[v] = slot->second;
    }
  }
  return std::nullopt;
}

/// Oracle 10: the BoxIndex must be invisible. For every state of the
/// scheme's automaton it rebuilds the canonical index and demands, on random
/// probes, (a) indexed first_containing == the reference linear sweep's
/// first match, (b) canonical-DNF membership == the constraint AST's eval()
/// (exactness of canonicalize_boxes end to end), and (c) decide_first
/// through the feasibility-candidate cursor == a full per-box decide sweep
/// of the production solver. Runs last in the battery so its rng
/// draws never shift the streams of the older oracles.
std::optional<CheckOutcome> box_index_divergence(const Scheme& scheme, Rng& rng) {
  const auto surface = scheme.run_forgery_surface();
  if (!surface.has_value() || surface->automaton == nullptr) return std::nullopt;
  const UOPAutomaton& a = *surface->automaton;
  if (a.label_count != 1) return std::nullopt;
  const std::size_t k = a.state_count;

  std::vector<std::size_t> counts(k);
  std::vector<std::uint64_t> child_masks;
  for (std::size_t q = 0; q < k; ++q) {
    const UnaryConstraint& delta = a.transition(q, 0);
    const BoxIndex idx(delta.to_boxes(k));

    // Probe bound: beyond every finite endpoint the membership landscape is
    // constant, so counts in [0, bound + 2] reach every cell of the DNF.
    std::size_t bound = 2;
    for (const IntervalBox& b : idx.boxes())
      for (std::size_t c = 0; c < k; ++c) {
        bound = std::max(bound, b.lo[c]);
        if (b.hi[c] != IntervalBox::kUnbounded) bound = std::max(bound, b.hi[c]);
      }

    for (int trial = 0; trial < 8; ++trial) {
      for (std::size_t c = 0; c < k; ++c) counts[c] = rng.index(bound + 3);
      const BoxIndex::Hit lin = idx.first_containing_linear(counts.data(), k);
      const BoxIndex::Hit fast = idx.first_containing(counts.data(), k);
      if (lin.index != fast.index) {
        std::ostringstream os;
        os << "state " << q << ": indexed first_containing=" << fast.index
           << " but the linear sweep says " << lin.index;
        return violation(Oracle::kBoxIndexDivergence, os.str());
      }
      if ((fast.index != BoxIndex::npos) != delta.eval(counts)) {
        std::ostringstream os;
        os << "state " << q << ": canonical DNF membership "
           << (fast.index != BoxIndex::npos) << " disagrees with eval()";
        return violation(Oracle::kBoxIndexDivergence, os.str());
      }
    }

    if (k > 64) continue;
    // Candidate path: decide_first's feasibility cursor against a full
    // decide sweep of the same solver.
    const std::uint64_t keep =
        k == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << k) - 1);
    for (int trial = 0; trial < 4; ++trial) {
      child_masks.resize(rng.index(5));
      for (std::uint64_t& mask : child_masks) mask = rng.uniform(0, keep);
      solve::FeasibilitySolver feas;
      feas.begin(child_masks, k);
      std::size_t sweep_first = BoxIndex::npos;
      for (std::size_t i = 0; i < idx.size(); ++i)
        if (feas.decide(idx.box(i))) {
          sweep_first = i;
          break;
        }
      const std::size_t fast_first = feas.decide_first(idx);
      if (sweep_first != fast_first) {
        std::ostringstream os;
        os << "state " << q << " (m=" << child_masks.size()
           << "): decide_first=" << fast_first << " but the decide sweep says "
           << sweep_first;
        return violation(Oracle::kBoxIndexDivergence, os.str());
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::string oracle_name(Oracle oracle) {
  switch (oracle) {
    case Oracle::kReferenceDisagreement: return "reference-disagreement";
    case Oracle::kProverRefusedYesInstance: return "prover-refused-yes";
    case Oracle::kVerifierRejectedHonest: return "verifier-rejected-honest";
    case Oracle::kProverCertifiedNoInstance: return "prover-certified-no";
    case Oracle::kBatchDivergence: return "batch-divergence";
    case Oracle::kRoundTripMismatch: return "round-trip-mismatch";
    case Oracle::kSoundnessForgery: return "soundness-forgery";
    case Oracle::kSolverDivergence: return "solver-divergence";
    case Oracle::kIncrementalDivergence: return "incremental-divergence";
    case Oracle::kBoxIndexDivergence: return "box-index-divergence";
  }
  throw std::invalid_argument("oracle_name: unknown oracle");
}

CheckOutcome check_instance(const Scheme& scheme, const InstanceFamily& family,
                            const Graph& g, Rng& rng,
                            const RunOptions& attack_budget) {
  CheckOutcome out;

  // Oracle 8, decision half, first of all: it draws no rng, and a wrong
  // solver decision must be reported before holds() or assign() trip over it
  // (the prover throws when a decision and the pristine extraction disagree).
  if (const auto hit = solver_divergence(scheme, g)) return *hit;

  // Ground truth. A promise violation (or a feasibility limit like the exact
  // treedepth solver's n cap) skips the trial; any other exception from
  // holds() is a bug in the scheme and propagates to the campaign.
  bool truth = false;
  try {
    truth = scheme.holds(g);
  } catch (const std::invalid_argument&) {
    out.skipped = true;
    return out;
  }
  out.ground_truth = truth;

  // Oracle 1: holds() against the family's independent implementation.
  if (family.has_reference_oracle && g.vertex_count() <= family.reference_oracle_max_n &&
      family.reference_oracle(g) != truth) {
    std::ostringstream os;
    os << "holds()=" << truth << " but the reference oracle says " << !truth << " (n="
       << g.vertex_count() << ")";
    return violation(Oracle::kReferenceDisagreement, os.str());
  }

  const auto certificates = scheme.assign(g);

  if (!truth) {
    if (certificates.has_value())
      return violation(Oracle::kProverCertifiedNoInstance,
                       "assign() returned certificates although holds() is false");
    // Oracle 7: adversarial soundness. The attack gets a yes-template of the
    // same size when the family can produce one (replay/bit-flip attacks need
    // honest material to mutate).
    std::optional<std::vector<Certificate>> yes_template;
    try {
      const Graph yes = family.yes_instance(g.vertex_count(), rng);
      yes_template = scheme.assign(yes);
    } catch (const std::exception&) {
      // Template generation is best-effort; the random/empty attacks run
      // regardless.
    }
    const auto forged = attack_soundness(
        scheme, g, yes_template.has_value() ? &*yes_template : nullptr, rng, attack_budget);
    if (forged.has_value())
      return violation(Oracle::kSoundnessForgery,
                       "attack '" + forged->attack + "' forged an accepting assignment");
    if (const auto hit = incremental_divergence(scheme, family, g, rng)) return *hit;
    // Oracle 10, after incremental-divergence for the same stream-stability
    // reason: recorded repro coordinates predate this oracle.
    if (const auto hit = box_index_divergence(scheme, rng)) return *hit;
    return out;
  }

  // Yes-instance: completeness plus the mechanical cross-checks on honest
  // certificates.
  if (!certificates.has_value())
    return violation(Oracle::kProverRefusedYesInstance,
                     "assign() returned nullopt although holds() is true");

  // Oracle 6: every honest certificate must survive a bit round trip.
  for (std::size_t v = 0; v < certificates->size(); ++v)
    if (!round_trips((*certificates)[v])) {
      std::ostringstream os;
      os << "certificate of vertex " << v << " changed under a bit-exact round trip";
      return violation(Oracle::kRoundTripMismatch, os.str());
    }

  // Oracle 8, certificate half: the serial batch prover must reproduce
  // assign()'s certificates bit-for-bit.
  {
    RunOptions opts;
    opts.num_threads = 1;
    const ProveResult r = prove_assignment(scheme, g, opts);
    if (!r.certificates.has_value())
      return violation(Oracle::kSolverDivergence,
                       "prove_assignment refused the yes-instance");
    for (std::size_t v = 0; v < certificates->size(); ++v)
      if (!((*r.certificates)[v] == (*certificates)[v]))
        return violation(Oracle::kSolverDivergence,
                         "vertex " + std::to_string(v) + " diverged from assign()");
  }

  // Oracle 3 + 5: honest verification, and the batched path must agree with
  // the per-vertex path on every vertex.
  const ViewCache cache(g);
  const auto binding = cache.bind(*certificates);
  const std::size_t n = cache.vertex_count();
  std::vector<ViewRef> views(n);
  for (Vertex v = 0; v < n; ++v) views[v] = binding.view(v);
  std::vector<std::uint8_t> batch(n, 0);
  scheme.verify_batch(views, batch);
  for (Vertex v = 0; v < n; ++v) {
    const bool single = verify_single(scheme, views[v]);
    if (single != (batch[v] != 0)) {
      std::ostringstream os;
      os << "vertex " << v << ": verify()=" << single << " but verify_batch()="
         << (batch[v] != 0);
      return violation(Oracle::kBatchDivergence, os.str());
    }
    if (!single) {
      std::ostringstream os;
      os << "vertex " << v << " rejected the prover's own certificates";
      return violation(Oracle::kVerifierRejectedHonest, os.str());
    }
  }

  // Oracles 9 and 10, last (and in enum order) so their rng draws don't
  // shift the older oracles' streams.
  if (const auto hit = incremental_divergence(scheme, family, g, rng)) return *hit;
  if (const auto hit = box_index_divergence(scheme, rng)) return *hit;

  return out;
}

}  // namespace lcert::fuzz
