// Benchmark inputs: every instance, reference result and edit stream the
// timed loops use, generated from the workload seed before any timing starts.
//
// The three pools are shared by all workloads (workloads differ only in how
// the run's time is split between them, see phases.hpp):
//   certify  prove_assignment + verify_assignment over seven instances that
//            span the prover's memo spectrum, plus one no-instance;
//   verify   honest and forged assignments on four graphs, one of them a
//            complete binary tree of 131071 vertices (certificates past L2);
//   edits    two seeded streams of legal edits for incr::CertifiedInstance,
//            drawn with the edit mix of `lcert_cli watch`.
// Every expected result (serial-prove certificates, per-vertex reference
// verdicts, edit legality) is computed here, so the timed loops only compare.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cert/engine.hpp"
#include "src/cert/scheme.hpp"
#include "src/graph/edit.hpp"
#include "src/graph/graph.hpp"
#include "src/incr/incremental.hpp"

namespace perfbench {

using lcert::Certificate;
using Assignment = std::vector<Certificate>;

/// One certify-pool member: prove_assignment, then verify_assignment of the
/// result. `reference` is the serial (num_threads = 1) prove; nullopt marks
/// the no-instance, which the prover must refuse.
struct CertifyItem {
  std::string scheme_key;  ///< registry key ("treedepth-5" for the witness scheme)
  const lcert::Scheme* scheme = nullptr;
  const lcert::Graph* graph = nullptr;
  bool random_tree = false;  ///< instance is a uniform random tree
  bool tree = false;         ///< instance is a tree (RootedTree::from_graph applies)
  std::optional<Assignment> reference;
};

/// One verify-pool operation. Honest assignments go through the verb path
/// (verify_assignment on the graph, full mode); forged ones through the
/// audit path (prebuilt ViewCache, stop_at_first_reject).
struct VerifyItem {
  std::string family;  ///< "honest", "random", "truncated", "bit-flip", "replay-shuffled"
  const lcert::Scheme* scheme = nullptr;
  const lcert::Graph* graph = nullptr;
  const lcert::ViewCache* cache = nullptr;
  const Assignment* certificates = nullptr;
  /// Reference verdict from make_view + Scheme::verify at every vertex.
  bool accept = false;
  std::vector<lcert::Vertex> rejecting;  ///< exact reference rejecting set
  bool honest() const { return family == "honest"; }
};

/// A seeded edit stream. `edits` apply in order to `base`, on which `live`
/// was initialised, and end on `end`. An id shuffle is stored without its
/// ids (n of them per shuffle would not fit many edits in memory): the loop
/// expands it with shuffle_ids from `shuffle_seeds` and the current `ids`,
/// outside the timed region. When the stream runs out, the loop checks
/// `live` against `end` and a cold prove, then re-initialises it on `base`
/// and starts over (all outside the timed region).
struct EditStream {
  std::string scheme_key;
  const lcert::Scheme* scheme = nullptr;
  const lcert::Graph* base = nullptr;
  std::vector<lcert::GraphEdit> edits;
  std::vector<std::uint64_t> shuffle_seeds;  ///< per edit; used by id shuffles
  lcert::Graph end;
  std::unique_ptr<lcert::incr::CertifiedInstance> live;
  std::size_t next = 0;                 ///< position in `edits` of the next edit
  std::vector<lcert::VertexId> ids;     ///< ids of live's current graph
  lcert::GraphEdit shuffle;             ///< the expanded id shuffle
};

/// Shuffles `ids` by a permutation drawn from `seed` (deterministic).
void shuffle_ids(std::vector<lcert::VertexId>& ids, std::uint64_t seed);

struct Inputs {
  std::vector<std::unique_ptr<lcert::Graph>> graphs;
  std::vector<std::unique_ptr<lcert::Scheme>> schemes;
  std::vector<std::unique_ptr<lcert::ViewCache>> caches;
  std::vector<std::unique_ptr<Assignment>> assignments;

  std::vector<CertifyItem> certify;
  std::vector<VerifyItem> verify;
  std::vector<EditStream> edits;

  double generate_s = 0;         ///< time inside the graph generators
  std::uint64_t fingerprint = 0;  ///< hash of every generated input
};

/// Builds every pool from `seed`. `divisor` shrinks every instance size
/// (1 for measured runs; the smoke test uses a large divisor). Throws when a
/// generated input breaks its own contract (a yes-instance the serial prover
/// refuses, an honest assignment the reference verifier rejects, ...).
std::unique_ptr<Inputs> build_inputs(std::uint64_t seed, std::size_t divisor);

}  // namespace perfbench
