// Incremental recertification layer (DESIGN.md §13).
//
// Two contracts are pinned here, both over randomized edit sequences:
//   1. RootedTree's patch API (graft_leaf / prune_leaf / reattach) leaves the
//      tree bit-identical to a cold RootedTree::from_graph over the mutated
//      graph — parent array, depths, and sorted children lists.
//   2. A live incr::CertifiedInstance stays bit-identical to a cold
//      prove_assignment over the accumulated graph after every edit, across
//      tree schemes — the incremental path is a pure speedup.
// The fuzz battery runs the same oracle (kIncrementalDivergence) inside
// random campaigns; these tests make the contract a deterministic tier-1
// gate with named edge cases (fallback scheme, raw edge edits, pure ID
// permutations, stats sanity).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include "src/cert/prove.hpp"
#include "src/fuzz/mutators.hpp"
#include "src/graph/edit.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/rooted_tree.hpp"
#include "src/incr/incremental.hpp"
#include "src/schemes/mso_tree.hpp"
#include "src/schemes/registry.hpp"
#include "src/util/rng.hpp"

namespace lcert {
namespace {

// standard_tree_automata(): 2 = caterpillar, 4 = perfect-matching,
// 6 = radius<=3, 7 = leaves>=4 — one cheap run-state automaton, one
// parity-flavored one, the one RootPolicy::kGeneric automaton (its good roots
// are the centers, so edits move the root), and the widest counting one
// (k = 6).
constexpr std::size_t kCaterpillar = 2;
constexpr std::size_t kPerfectMatching = 4;
constexpr std::size_t kRadius3 = 6;
constexpr std::size_t kLeaves4 = 7;

void expect_same_tree(const RootedTree& got, const RootedTree& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.root(), want.root());
  for (std::size_t v = 0; v < want.size(); ++v) {
    EXPECT_EQ(got.parent(v), want.parent(v)) << "vertex " << v;
    EXPECT_EQ(got.depth(v), want.depth(v)) << "vertex " << v;
    const auto gc = got.children(v);
    const auto wc = want.children(v);
    ASSERT_EQ(gc.size(), wc.size()) << "vertex " << v;
    for (std::size_t i = 0; i < wc.size(); ++i) EXPECT_EQ(gc[i], wc[i]) << "vertex " << v;
  }
}

/// Mirrors a tree-preserving GraphEdit onto a RootedTree rooted at 0. The
/// subtree-swap descriptor is drawn under its own rooting, so under root 0
/// the deleted edge {a, c} is parent->child in either orientation; the
/// replacement edge {a, b} then re-roots the detached piece accordingly.
void apply_edit_to_tree(RootedTree& t, const GraphEdit& edit) {
  switch (edit.kind) {
    case EditKind::kLeafGraft: t.graft_leaf(edit.a); break;
    case EditKind::kLeafPrune: t.prune_leaf(edit.a); break;
    case EditKind::kSubtreeSwap:
      if (t.parent(edit.a) == edit.c) {
        t.reattach(edit.a, edit.a, edit.b);
      } else {
        ASSERT_EQ(t.parent(edit.c), edit.a) << "swap edge is not tree-adjacent";
        t.reattach(edit.c, edit.b, edit.a);
      }
      break;
    default: FAIL() << "edit kind has no tree image";
  }
}

GraphEdit make_edit(EditKind kind, Vertex a, Vertex b = 0, Vertex c = 0) {
  GraphEdit e;
  e.kind = kind;
  e.a = a;
  e.b = b;
  e.c = c;
  return e;
}

TEST(IncrementalTree, PatchMatchesColdRebuildOnRandomEditSequences) {
  // 1000 independent sequences of 3 structural edits each; after every edit
  // the patched tree must equal a cold from_graph of the mutated graph.
  const std::vector<fuzz::MutatorKind> kinds = {
      EditKind::kLeafGraft, EditKind::kLeafPrune, EditKind::kSubtreeSwap};
  for (std::uint64_t seq = 0; seq < 1000; ++seq) {
    Rng rng(seq + 1);
    Graph cur = make_random_tree(12, rng);
    assign_random_ids(cur, rng);
    RootedTree t = RootedTree::from_graph(cur, 0);
    for (int step = 0; step < 3; ++step) {
      const auto edit = fuzz::draw_edit(cur, kinds[rng.index(kinds.size())], rng);
      if (!edit.has_value()) continue;
      // The bare patch API keeps the rooting: pruning the root itself is the
      // incr layer's re-root concern, not RootedTree's.
      if (edit->kind == EditKind::kLeafPrune && edit->a == t.root()) continue;
      ASSERT_NO_FATAL_FAILURE(apply_edit_to_tree(t, *edit))
          << "seq " << seq << " step " << step << ": " << to_string(*edit);
      cur = apply_edit(cur, *edit);
      ASSERT_NO_FATAL_FAILURE(expect_same_tree(t, RootedTree::from_graph(cur, 0)))
          << "seq " << seq << " step " << step << ": " << to_string(*edit);
    }
  }
}

TEST(IncrementalTree, GraftReturnsNewIndexAndReattachReturnsPath) {
  // path 0-1-2-3
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  RootedTree t = RootedTree::from_graph(g, 0);
  EXPECT_EQ(t.graft_leaf(3), 4u);
  EXPECT_EQ(t.parent(4), 3u);
  EXPECT_EQ(t.depth(4), 4u);
  // Move the subtree rooted at 2, re-rooted at the grafted leaf 4, under 0:
  // the returned path runs from the new local root to the old one.
  const std::vector<std::size_t> path = t.reattach(2, 4, 0);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path.front(), 4u);
  EXPECT_EQ(path.back(), 2u);
  EXPECT_EQ(t.parent(4), 0u);
  EXPECT_EQ(t.parent(3), 4u);
  EXPECT_EQ(t.parent(2), 3u);
}

void expect_matches_cold(const Scheme& scheme, const incr::CertifiedInstance& live,
                         const Graph& expected, const RunOptions& options,
                         const std::string& where) {
  const auto cold = prove_assignment(scheme, expected, options).certificates;
  const auto& ours = live.certificates();
  ASSERT_EQ(ours.has_value(), cold.has_value()) << where;
  if (ours.has_value()) {
    EXPECT_TRUE(*ours == *cold) << where << ": certificates diverged";
  }
}

TEST(IncrementalCertify, BitIdenticalToColdProveAcrossTreeSchemes) {
  // 1110 randomized trials (170 per scheme, 600 for radius<=3), each a
  // 4-edit walk at n in [20, 40); certificates must match a cold
  // prove_assignment of the accumulated graph bit for bit after init and
  // after every edit — on both sides of the property boundary (uncertified
  // states must agree too). radius<=3 starts from trees of height <= 3 so
  // that edits cross the boundary both ways; its root follows the centers,
  // which drives the root-stability gate and the full re-prove fallback. A
  // walk whose old root still accepts but is no longer the first center is
  // rare (the first one is trial 466), hence the longer run.
  const auto kinds = fuzz::tree_preserving_mutators();
  RunOptions options;
  options.num_threads = 1;
  std::size_t radius_certified = 0, radius_uncertified = 0, radius_reproves = 0;
  for (const std::size_t automaton : {kCaterpillar, kPerfectMatching, kRadius3, kLeaves4}) {
    const MsoTreeScheme scheme(standard_tree_automata()[automaton]);
    const std::uint64_t trials = automaton == kRadius3 ? 600 : 170;
    for (std::uint64_t trial = 0; trial < trials; ++trial) {
      Rng rng(automaton * 1000 + trial);
      const std::size_t n = 20 + rng.index(20);
      Graph cur = automaton == kRadius3 ? make_random_rooted_tree(n, 3, rng).to_graph()
                                        : make_random_tree(n, rng);
      assign_random_ids(cur, rng);
      incr::CertifiedInstance live(scheme, options);
      ASSERT_TRUE(live.incremental());
      live.init(cur);
      ASSERT_NO_FATAL_FAILURE(
          expect_matches_cold(scheme, live, cur, options,
                              scheme.name() + " trial " + std::to_string(trial) + " init"));
      for (int step = 0; step < 4; ++step) {
        const auto edit = fuzz::draw_edit(cur, kinds[rng.index(kinds.size())], rng);
        if (!edit.has_value()) continue;
        const IncrementalStats st = live.apply(*edit);
        cur = apply_edit(cur, *edit);
        EXPECT_TRUE(st.reverify_clean);
        ASSERT_NO_FATAL_FAILURE(expect_matches_cold(
            scheme, live, cur, options,
            scheme.name() + " trial " + std::to_string(trial) + " step " +
                std::to_string(step) + " (" + to_string(*edit) + ")"));
        if (automaton == kRadius3) {
          ++(st.certified ? radius_certified : radius_uncertified);
          radius_reproves += st.full_reprove ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(radius_certified, 0u);
  EXPECT_GT(radius_uncertified, 0u);
  EXPECT_GT(radius_reproves, 0u);
}

TEST(IncrementalCertify, FallbackSchemeReprovesColdEveryEdit) {
  // vertex-parity ships no incremental prover: the layer must fall back to a
  // cold re-prove per edit with identical results — including the certified
  // flip when a graft makes |V| odd.
  const RegisteredScheme& entry = find_scheme("vertex-parity");
  const auto scheme = entry.make();
  RunOptions options;
  options.num_threads = 1;
  Rng rng(7);
  Graph cur = entry.family.yes_instance(8, rng);
  ASSERT_EQ(cur.vertex_count() % 2, 0u);

  incr::CertifiedInstance live(*scheme, options);
  EXPECT_FALSE(live.incremental());
  ASSERT_TRUE(live.init(cur).has_value());

  VertexId max_id = 0;
  for (Vertex v = 0; v < cur.vertex_count(); ++v) max_id = std::max(max_id, cur.id(v));
  GraphEdit graft = make_edit(EditKind::kLeafGraft, 0);
  graft.fresh_id = max_id + 1;
  const IncrementalStats st = live.apply(graft);
  cur = apply_edit(cur, graft);
  EXPECT_TRUE(st.full_reprove);
  EXPECT_FALSE(st.certified);
  ASSERT_NO_FATAL_FAILURE(expect_matches_cold(*scheme, live, cur, options, "odd |V|"));

  GraphEdit graft2 = make_edit(EditKind::kLeafGraft, 1);
  graft2.fresh_id = max_id + 2;
  const IncrementalStats st2 = live.apply(graft2);
  cur = apply_edit(cur, graft2);
  EXPECT_TRUE(st2.certified);
  ASSERT_NO_FATAL_FAILURE(expect_matches_cold(*scheme, live, cur, options, "even |V|"));
}

TEST(IncrementalCertify, RawEdgeEditsThrowAndLeaveInstanceUntouched) {
  const MsoTreeScheme scheme(standard_tree_automata()[kPerfectMatching]);
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  Rng rng(3);
  assign_random_ids(g, rng);
  RunOptions options;
  options.num_threads = 1;
  incr::CertifiedInstance live(scheme, options);
  ASSERT_TRUE(live.init(g).has_value());

  EXPECT_THROW(live.apply(make_edit(EditKind::kEdgeAdd, 0, 2)), std::invalid_argument);
  EXPECT_THROW(live.apply(make_edit(EditKind::kEdgeDelete, 1, 2)), std::invalid_argument);
  // The rejected edits must not have perturbed the live state.
  ASSERT_NO_FATAL_FAILURE(expect_matches_cold(scheme, live, g, options, "after throw"));
}

TEST(IncrementalCertify, IdPermutationChangesNoCertificates) {
  // MSO-on-trees certificates encode (depth mod 3, run state) only — a pure
  // relabeling is a zero-dirty edit: nothing re-proved, everything reused.
  const MsoTreeScheme scheme(standard_tree_automata()[kCaterpillar]);
  Rng rng(13);
  Graph g = make_caterpillar(6, 2);
  assign_random_ids(g, rng);
  RunOptions options;
  options.num_threads = 1;
  incr::CertifiedInstance live(scheme, options);
  ASSERT_TRUE(live.init(g).has_value());

  GraphEdit permute;
  permute.kind = EditKind::kIdPermute;
  for (Vertex v = 0; v < g.vertex_count(); ++v)
    permute.ids.push_back(g.id(g.vertex_count() - 1 - v));
  const IncrementalStats st = live.apply(permute);
  const Graph relabeled = apply_edit(g, permute);

  EXPECT_TRUE(st.certified);
  EXPECT_FALSE(st.full_reprove);
  EXPECT_EQ(st.changed_certificates, 0u);
  EXPECT_EQ(st.reproved_vertices, 0u);
  EXPECT_DOUBLE_EQ(st.reuse_ratio, 1.0);
  ASSERT_NO_FATAL_FAILURE(expect_matches_cold(scheme, live, relabeled, options, "permute"));
}

TEST(IncrementalCertify, StatsStayWithinTheDirtySlice) {
  // A deep graft on a leaves>=4 instance: the repair must stay incremental
  // and its counters must describe a slice, not the whole instance.
  const MsoTreeScheme scheme(standard_tree_automata()[kLeaves4]);
  Rng rng(5);
  Graph g = make_random_tree(64, rng);
  assign_random_ids(g, rng);
  const RootedTree t = RootedTree::from_graph(g, 0);
  std::size_t anchor = 0;
  for (std::size_t v = 0; v < t.size(); ++v)
    if (t.depth(v) > t.depth(anchor)) anchor = v;

  RunOptions options;
  options.num_threads = 1;
  incr::CertifiedInstance live(scheme, options);
  ASSERT_TRUE(live.init(g).has_value());

  VertexId max_id = 0;
  for (Vertex v = 0; v < g.vertex_count(); ++v) max_id = std::max(max_id, g.id(v));
  GraphEdit graft = make_edit(EditKind::kLeafGraft, static_cast<Vertex>(anchor));
  graft.fresh_id = max_id + 1;
  const IncrementalStats st = live.apply(graft);
  EXPECT_TRUE(st.certified);
  EXPECT_FALSE(st.full_reprove);
  EXPECT_TRUE(st.reverify_clean);
  EXPECT_GE(st.dirty_path_len, 1u);
  EXPECT_LE(st.dirty_path_len, t.height() + 2);
  EXPECT_GE(st.reproved_vertices, 1u);
  EXPECT_LE(st.reproved_vertices, g.vertex_count());
  EXPECT_GE(st.reuse_ratio, 0.0);
  EXPECT_LE(st.reuse_ratio, 1.0);
  // The grafted leaf's certificate is necessarily new.
  EXPECT_GE(st.changed_certificates, 1u);
}

}  // namespace
}  // namespace lcert
