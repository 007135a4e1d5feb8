// Evaluation engine: runs a scheme's verifier at every vertex and accounts
// certificate sizes in bits (the paper's performance measure).
//
// The hot path is zero-copy and parallel. verify_assignment fans 128-vertex
// blocks out over a worker pool, and each block assembles its own views inside
// the fan-out: the block's neighbor {id, certificate*} pairs go into the
// worker's reusable scratch, and each per-vertex ViewRef points into it
// without copying a byte of certificate data. The only serial per-call work is
// the O(n) bit accounting. Results are deterministic (the rejecting set is
// produced in vertex order regardless of thread count).
#pragma once

#include <cstddef>
#include <vector>

#include "src/cert/options.hpp"
#include "src/cert/scheme.hpp"

namespace lcert {

/// Builds vertex v's radius-1 view under a certificate assignment, deep
/// copying the certificates. Adapter for tests and one-off inspection; the
/// engine itself hands out zero-copy ViewRefs.
View make_view(const Graph& g, const std::vector<Certificate>& certificates, Vertex v);

/// Materialized zero-copy views of one graph, for callers that index views
/// directly (the fuzz oracle's verify_batch-vs-verify cross-check, tests,
/// benchmarks). Construction walks the adjacency once into CSR arrays; each
/// Binding then fills one {id, certificate*} pair per edge endpoint. The
/// engine does not go through it: verify_assignment assembles views per block.
class ViewCache {
 public:
  explicit ViewCache(const Graph& g);

  const Graph& graph() const noexcept { return *g_; }
  std::size_t vertex_count() const noexcept { return ids_.size(); }

  /// One certificate assignment bound to the cached topology. Cheap to
  /// create (one O(m) pointer fill, no certificate copies) and immutable
  /// afterwards, so a Binding may be shared by concurrent verifier calls.
  /// Borrows both the cache and the certificate vector: both must outlive
  /// the binding, and the vector must not be resized while bound.
  class Binding {
   public:
    ViewRef view(Vertex v) const noexcept {
      return ViewRef{cache_->ids_[v], &(*certificates_)[v],
                     entries_.data() + cache_->offsets_[v],
                     cache_->offsets_[v + 1] - cache_->offsets_[v]};
    }
    std::size_t vertex_count() const noexcept { return cache_->vertex_count(); }

   private:
    friend class ViewCache;
    Binding(const ViewCache& cache, const std::vector<Certificate>& certificates);

    const ViewCache* cache_;
    const std::vector<Certificate>* certificates_;
    std::vector<NeighborRef> entries_;  ///< CSR-parallel {id, cert*} pairs
  };

  /// Binds an assignment (size must equal vertex_count()).
  Binding bind(const std::vector<Certificate>& certificates) const;

 private:
  const Graph* g_;
  std::vector<VertexId> ids_;            ///< self ID per vertex
  std::vector<std::size_t> offsets_;     ///< CSR offsets, size n+1
  std::vector<Vertex> neighbor_index_;   ///< CSR neighbor vertex indices
  std::vector<VertexId> neighbor_id_;    ///< CSR neighbor IDs
};

struct VerificationOutcome {
  bool all_accept = false;
  std::vector<Vertex> rejecting;        ///< vertices whose verifier said no
  std::size_t max_certificate_bits = 0;
  std::size_t total_certificate_bits = 0;
};

/// Runs the verifier everywhere under a given assignment. In full mode the
/// outcome is bit-for-bit identical for every num_threads value.
VerificationOutcome verify_assignment(const Scheme& scheme, const Graph& g,
                                      const std::vector<Certificate>& certificates,
                                      const RunOptions& options = {});

/// Same, for callers that hold a ViewCache: reads cache.graph() at call time
/// and runs the same per-block drain (the cached topology is not used).
VerificationOutcome verify_assignment(const Scheme& scheme, const ViewCache& cache,
                                      const std::vector<Certificate>& certificates,
                                      const RunOptions& options = {});

struct SchemeOutcome {
  bool prover_succeeded = false;
  VerificationOutcome verification;
};

/// Prover + verifier end to end.
SchemeOutcome run_scheme(const Scheme& scheme, const Graph& g,
                         const RunOptions& options = {});

/// Certificate size (max bits) the prover uses on this yes-instance; throws
/// if the prover fails or a verifier rejects — those are library bugs.
std::size_t certified_size_bits(const Scheme& scheme, const Graph& g);

}  // namespace lcert
