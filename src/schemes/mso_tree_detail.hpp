// Shared solver core of the MSO-on-trees prover (DESIGN.md §12–§13).
//
// prove_batch (cold, per-root) and the incremental recertification prover
// (streaming edits against a live instance) are the same computation — a
// bottom-up feasibility-mask pass and a top-down run extraction over a
// RootedTree, with a memo on child-mask profiles — differing only in *which
// vertices* they touch. This header factors that computation out of
// MsoTreeScheme so both paths call literally the same code: bit-identity
// between them is then a statement about vertex selection, not about two
// implementations staying in sync.
//
// MsoMemo is the memo store. prove_batch keeps one per call; the incremental
// prover keeps one alive across edits (values are pure functions of their
// keys — a sorted child-mask multiset for feasibility, an ordered child-mask
// tuple plus parent state for extraction — so persistence can never change a
// result, only hit rates). maybe_trim() bounds growth under unbounded edit
// streams.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/automata/box_index.hpp"
#include "src/automata/uop_automaton.hpp"
#include "src/cert/prove.hpp"
#include "src/graph/rooted_tree.hpp"
#include "src/graph/tree_iso.hpp"

namespace lcert::mso_detail {

/// Memo store of the MSO tree prover. Keys are child-mask profiles, not
/// subtree iso codes (DESIGN.md §12): feasibility is order-invariant
/// (sorted multiset), extraction follows edge insertion order (ordered
/// tuple × parent state). feas_key and extract_slot are the only places
/// either key is built.
struct MsoMemo {
  SubtreeCodeInterner mask_multisets;  ///< sorted child-mask multisets
  SubtreeCodeInterner mask_tuples;     ///< ordered child-mask tuples
  std::vector<std::uint64_t> feas_memo;   ///< multiset id -> mask
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> extract_memo;

  /// Feasibility lookup of v: interns its sorted child-mask multiset and
  /// returns the id. `fresh` is set on the id's first lookup — the caller
  /// must then store the mask in feas_memo[id].
  std::size_t feas_key(const RootedTree& t, const std::vector<std::uint64_t>& mask,
                       std::size_t v, bool& fresh);

  /// Extraction lookup of v at run state q (ordered child-mask tuple × 64 +
  /// q): the value slot, empty and with `fresh` set on the key's first
  /// lookup (the caller fills it). Stable across later lookups: node-based
  /// map.
  std::vector<std::size_t>& extract_slot(const RootedTree& t,
                                         const std::vector<std::uint64_t>& mask,
                                         std::size_t v, std::size_t q, bool& fresh);

  void clear() {
    mask_multisets = SubtreeCodeInterner();
    mask_tuples = SubtreeCodeInterner();
    feas_memo.clear();
    extract_memo.clear();
  }

  /// Entry count across both memo families (the trim heuristic's measure).
  std::size_t entry_count() const {
    return mask_multisets.size() + extract_memo.size();
  }

  /// Clears everything when the store has grown past `limit` entries.
  /// All-or-nothing: the two interners and the value tables reference each
  /// other's ids, so partial eviction would dangle. Returns true if cleared.
  bool maybe_trim(std::size_t limit = std::size_t{1} << 20) {
    if (entry_count() <= limit) return false;
    clear();
    return true;
  }

 private:
  /// v's ordered child-mask tuple, in key_.
  const std::vector<std::size_t>& child_key(const RootedTree& t,
                                            const std::vector<std::uint64_t>& mask,
                                            std::size_t v);

  std::vector<std::size_t> key_;  ///< key scratch, reused across lookups
};

/// The outcome of SolveCore::solve over a list of candidate roots.
struct Solved {
  RootedTree tree;                   ///< rooted at the chosen root
  std::vector<std::uint64_t> mask;   ///< bottom-up feasibility masks
  std::vector<std::size_t> run;      ///< accepting run; empty if none accepted
  bool accepted() const noexcept { return !run.empty(); }
};

/// The solver: automaton parameters hoisted once, methods for each pass.
/// Pointers borrow from the owning MsoTreeScheme and must outlive the core.
struct SolveCore {
  const UOPAutomaton* automaton = nullptr;
  const BoxIndex* boxes = nullptr;  ///< per-state canonical DNF, indexed
  std::size_t k = 0;                                ///< state count (<= 64)
  unsigned width = 1;                               ///< state field bit width
  std::string scheme_name;                          ///< for error messages

  /// Feasibility mask of a vertex from its children's masks: bit q set iff
  /// some box of delta(q) admits a child assignment — exactly the predicate
  /// find_accepting_run evaluates, resolved through the worker's tiered
  /// engine (exact booleans, no assignment materialized).
  std::uint64_t mask_from_children(const std::vector<std::uint64_t>& child_masks,
                                   ProverContext& ctx, std::size_t worker) const;

  /// States for a vertex's children given run state q: first feasible box
  /// wins, same box order and same flow construction as find_accepting_run.
  std::vector<std::size_t> extract_from_children(
      const std::vector<std::uint64_t>& child_masks, std::size_t q,
      ProverContext& ctx, std::size_t worker) const;

  /// Bottom-up feasibility over every vertex, deepest level first; fills
  /// `mask` (must be sized t.size()).
  void bottom_up(const RootedTree& t,
                 const std::vector<std::vector<std::size_t>>& levels,
                 ProverContext& ctx, MsoMemo& memo,
                 std::vector<std::uint64_t>& mask) const;

  /// Smallest accepting state set in `root_mask` — find_accepting_run's
  /// choice; SIZE_MAX when none.
  std::size_t accepting_state(std::uint64_t root_mask) const;

  /// Top-down run extraction over every vertex, root level first, from run
  /// state `root_state` at the root; returns the run.
  std::vector<std::size_t> top_down(const RootedTree& t,
                                    const std::vector<std::vector<std::size_t>>& levels,
                                    ProverContext& ctx, MsoMemo& memo,
                                    const std::vector<std::uint64_t>& mask,
                                    std::size_t root_state) const;

  /// The root loop shared by the cold and the incremental prover: the first
  /// root of `roots` whose root mask accepts, with its masks and its run —
  /// find_accepting_run's choice over assign()'s root order. When none
  /// accepts, the first root's tree and masks with an empty run (vertex 0,
  /// never accepted, stands in for an empty `roots`).
  Solved solve(const Graph& g, std::span<const Vertex> roots, ProverContext& ctx,
               MsoMemo& memo) const;

  /// The 3*k certificate payload table: the run state is shape-determined,
  /// the mod-3 depth counter is the one position-dependent field — patching
  /// a certificate is selecting one of three precomputed variants per state.
  std::vector<Certificate> payload_table(ProverContext& ctx) const;

  /// The certificate of every vertex of a run: its (depth mod 3, state)
  /// entry of `table`, filled across the context's workers.
  std::vector<Certificate> certificates(const RootedTree& t,
                                        const std::vector<std::size_t>& run,
                                        const std::vector<Certificate>& table,
                                        ProverContext& ctx) const;

  // --- Single-vertex accessors through the memo (incremental repair) ------

  /// mask_from_children for one vertex through the memo (counts one hit or
  /// miss in ctx).
  std::uint64_t memo_mask(const RootedTree& t,
                          const std::vector<std::uint64_t>& mask, std::size_t v,
                          ProverContext& ctx, MsoMemo& memo) const;

  /// extract_from_children for one vertex through the memo. The returned
  /// reference points into the memo (stable: node-based map).
  const std::vector<std::size_t>& memo_extract(
      const RootedTree& t, const std::vector<std::uint64_t>& mask,
      std::size_t v, std::size_t q, ProverContext& ctx, MsoMemo& memo) const;
};

}  // namespace lcert::mso_detail
