// Incremental recertification throughput: amortized cost per streaming edit
// through a live incr::CertifiedInstance versus a cold full re-prove of the
// same instance. Backs BENCH_incremental.json (bench/run_bench.py incremental).
//
// The workloads are periodic so the steady state needs no per-iteration
// setup: the triple graft/swap/prune returns the instance to its original
// shape after every round, and the subtree rehang alternates between two
// positions (period 2). Every edit runs through exactly the code path the
// kIncrementalDivergence fuzz oracle pins bit-identical to a cold
// prove_assignment — the speedup here is pure work saved, not work changed.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/cert/prove.hpp"
#include "src/graph/edit.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/io.hpp"
#include "src/graph/rooted_tree.hpp"
#include "src/incr/incremental.hpp"
#include "src/obs/report.hpp"
#include "src/schemes/mso_tree.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace lcert;

struct Family {
  const char* name;
  Graph (*make)(std::size_t n, Rng& rng);
};

Graph make_complete_binary_family(std::size_t n, Rng&) {
  std::size_t levels = 1;
  while (((std::size_t{1} << (levels + 1)) - 1) <= n) ++levels;
  return make_complete_binary_tree(levels);  // largest 2^L - 1 <= n
}
Graph make_random_tree_family(std::size_t n, Rng& rng) { return make_random_tree(n, rng); }

constexpr Family kCompleteBinary{"complete-binary", &make_complete_binary_family};
constexpr Family kRandomTree{"random-tree", &make_random_tree_family};

// standard_tree_automata(): 4 = perfect-matching, 7 = leaves>=4.
constexpr std::size_t kPerfectMatching = 4;
constexpr std::size_t kLeaves4 = 7;

Graph prepare_instance(const Family& fam, std::size_t n) {
  Rng rng(11);
  Graph g = fam.make(n, rng);
  assign_random_ids(g, rng);
  return g;
}

/// Deepest vertex under the certification rooting (root 0) — grafting there
/// makes the dirty path the full tree height, the honest worst case for the
/// O(depth) repair claim.
std::size_t deepest_vertex(const Graph& g) {
  const RootedTree t = RootedTree::from_graph(g, 0);
  std::size_t best = 0;
  for (std::size_t v = 0; v < t.size(); ++v)
    if (t.depth(v) > t.depth(best)) best = v;
  return best;
}

GraphEdit graft_edit(Vertex anchor, VertexId fresh_id) {
  GraphEdit e;
  e.kind = EditKind::kLeafGraft;
  e.a = anchor;
  e.fresh_id = fresh_id;
  return e;
}
GraphEdit prune_edit(Vertex leaf) {
  GraphEdit e;
  e.kind = EditKind::kLeafPrune;
  e.a = leaf;
  return e;
}
GraphEdit swap_edit(Vertex moved, Vertex old_parent, Vertex new_parent) {
  GraphEdit e;
  e.kind = EditKind::kSubtreeSwap;
  e.a = moved;
  e.c = old_parent;
  e.b = new_parent;
  return e;
}

/// Edits applied per second (the incremental rows) or full re-proves per
/// second (the cold row); speedup = ratio of the two, computed by
/// bench/run_bench.py from the JSON.
void set_items(benchmark::State& state, std::size_t per_iteration) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(per_iteration));
}

// Graft a leaf under the deepest vertex, rehang it to the root, prune it:
// three edits that leave the instance exactly where it started (the pruned
// vertex is the last index, so the renumbering is the identity). Runs on the
// leaves>=4 automaton, whose property no single leaf edit can break on
// instances this size.
void BM_IncrEditTriple(benchmark::State& state, Family fam) {
  const MsoTreeScheme scheme(standard_tree_automata()[kLeaves4]);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Graph g = prepare_instance(fam, n);
  const Vertex anchor = deepest_vertex(g);
  VertexId max_id = 0;
  for (Vertex v = 0; v < g.vertex_count(); ++v) max_id = std::max(max_id, g.id(v));

  RunOptions options;
  options.num_threads = 1;
  incr::CertifiedInstance live(scheme, options);
  if (!live.init(g).has_value()) throw std::logic_error("bench: init refused");

  const Vertex leaf = g.vertex_count();  // index of the grafted vertex
  for (auto _ : state) {
    IncrementalStats st = live.apply(graft_edit(anchor, max_id + 1));
    st = live.apply(swap_edit(leaf, anchor, 0));
    st = live.apply(prune_edit(leaf));
    benchmark::DoNotOptimize(st);
    if (!st.certified) throw std::logic_error("bench: edit left the property");
  }
  set_items(state, 3);
}

/// A period-2 subtree rehang that stays inside the property: a deep leaf
/// `moved` alternating between two deep parents. Keeping both attachment
/// points deep matters twice over — the dirty path is the honest full-height
/// repair, and the re-verified slice stays away from the root, whose
/// accepting state can carry a combinatorially large transition DNF (the
/// leaves>=4 automaton has ~29k interval boxes there; that cost belongs to
/// the verifier benchmarks, not this one).
struct SwapPlan {
  Vertex moved;
  Vertex parent_a;  ///< original parent
  Vertex parent_b;  ///< alternative parent
};

std::optional<SwapPlan> find_period2_swap(const MsoTreeScheme& scheme, const Graph& g) {
  const RootedTree t = RootedTree::from_graph(g, 0);
  std::vector<std::size_t> order(t.size());
  for (std::size_t v = 0; v < t.size(); ++v) order[v] = v;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return t.depth(a) > t.depth(b); });
  // Deepest-first pairs of leaves with distinct parents, bounded scan: the
  // properties benchmarked here accept the first few candidates.
  for (std::size_t i = 0; i < order.size() && i < 64; ++i) {
    const std::size_t moved = order[i];
    if (moved == 0 || !t.children(moved).empty()) continue;
    const std::size_t pa = t.parent(moved);
    for (std::size_t j = 0; j < order.size() && j < 64; ++j) {
      const std::size_t other = order[j];
      if (other == 0 || !t.children(other).empty()) continue;
      const std::size_t pb = t.parent(other);
      if (pb == pa || pb == moved) continue;
      const Graph swapped = apply_edit(g, swap_edit(moved, pa, pb));
      if (scheme.holds(swapped)) return SwapPlan{static_cast<Vertex>(moved),
                                                 static_cast<Vertex>(pa),
                                                 static_cast<Vertex>(pb)};
    }
  }
  return std::nullopt;
}

// The 1-edit workload behind the headline speedup: rehang one deep subtree
// back and forth. Two edits per iteration (there and back), each a single
// O(depth)-dirty repair.
void BM_IncrSubtreeSwap(benchmark::State& state, const MsoTreeScheme& scheme,
                        const Graph& g, const SwapPlan& plan) {
  RunOptions options;
  options.num_threads = 1;
  incr::CertifiedInstance live(scheme, options);
  if (!live.init(g).has_value()) throw std::logic_error("bench: init refused");

  for (auto _ : state) {
    IncrementalStats st = live.apply(swap_edit(plan.moved, plan.parent_a, plan.parent_b));
    st = live.apply(swap_edit(plan.moved, plan.parent_b, plan.parent_a));
    benchmark::DoNotOptimize(st);
    if (!st.certified) throw std::logic_error("bench: swap left the property");
  }
  set_items(state, 2);
}

void BM_IncrSubtreeSwapFound(benchmark::State& state, Family fam, std::size_t automaton) {
  const MsoTreeScheme scheme(standard_tree_automata()[automaton]);
  const Graph g = prepare_instance(fam, static_cast<std::size_t>(state.range(0)));
  const auto plan = find_period2_swap(scheme, g);
  if (!plan.has_value()) {
    state.SkipWithError("no property-preserving period-2 swap found");
    return;
  }
  BM_IncrSubtreeSwap(state, scheme, g, *plan);
}

// ---------------------------------------------------------------------------
// Perfect matching needs its own instance family: a random spine tree with
// one pendant leaf per spine vertex. The pendant edges ARE the perfect
// matching, and rehanging any spine subtree under another spine vertex only
// replaces a non-matching tree edge — the matching survives by construction,
// so the period-2 plan needs no search.
// ---------------------------------------------------------------------------

struct MatchedInstance {
  Graph graph;
  SwapPlan plan;
};

MatchedInstance prepare_matched_instance(std::size_t n) {
  Rng rng(11);
  const std::size_t m = std::max<std::size_t>(n / 2, 4);
  const Graph spine = make_random_tree(m, rng);
  std::vector<std::pair<Vertex, Vertex>> edges = spine.edges();
  for (Vertex v = 0; v < m; ++v)
    edges.emplace_back(v, static_cast<Vertex>(m + v));  // pendant partner of v
  Graph g(2 * m, edges);
  {
    Rng id_rng(17);
    assign_random_ids(g, id_rng);
  }
  // Deepest spine vertex under the certification rooting (root 0); its
  // parent is a spine vertex too, and depth >= 2 keeps the root distinct.
  const RootedTree t = RootedTree::from_graph(g, 0);
  std::size_t moved = 0;
  for (std::size_t v = 1; v < m; ++v)
    if (t.depth(v) > t.depth(moved)) moved = v;
  if (t.depth(moved) < 2) throw std::logic_error("bench: spine tree degenerated");
  const SwapPlan plan{static_cast<Vertex>(moved),
                      static_cast<Vertex>(t.parent(moved)), 0};
  return {std::move(g), plan};
}

void BM_IncrSubtreeSwapMatched(benchmark::State& state) {
  const MsoTreeScheme scheme(standard_tree_automata()[kPerfectMatching]);
  const MatchedInstance inst =
      prepare_matched_instance(static_cast<std::size_t>(state.range(0)));
  if (!scheme.holds(inst.graph) ||
      !scheme.holds(apply_edit(inst.graph,
                               swap_edit(inst.plan.moved, inst.plan.parent_a,
                                         inst.plan.parent_b))))
    throw std::logic_error("bench: matched instance lost its matching");
  BM_IncrSubtreeSwap(state, scheme, inst.graph, inst.plan);
}

// The baseline the speedup is measured against: what one edit would cost
// without the incremental layer — a cold full prove_assignment of the same
// instance (fresh memo every round, exactly the fallback path's work).
void BM_ColdReprove(benchmark::State& state, Family fam, std::size_t automaton) {
  const MsoTreeScheme scheme(standard_tree_automata()[automaton]);
  const Graph g = prepare_instance(fam, static_cast<std::size_t>(state.range(0)));
  RunOptions options;
  options.num_threads = 1;
  for (auto _ : state) {
    auto result = prove_assignment(scheme, g, options);
    benchmark::DoNotOptimize(result.certificates);
  }
  set_items(state, 1);
}

void BM_ColdReproveMatched(benchmark::State& state) {
  const MsoTreeScheme scheme(standard_tree_automata()[kPerfectMatching]);
  const MatchedInstance inst =
      prepare_matched_instance(static_cast<std::size_t>(state.range(0)));
  RunOptions options;
  options.num_threads = 1;
  for (auto _ : state) {
    auto result = prove_assignment(scheme, inst.graph, options);
    benchmark::DoNotOptimize(result.certificates);
  }
  set_items(state, 1);
}

void BM_IncrSubtreeSwapLeaves(benchmark::State& state, Family fam) {
  BM_IncrSubtreeSwapFound(state, fam, kLeaves4);
}
void BM_ColdReproveLeaves(benchmark::State& state, Family fam) {
  BM_ColdReprove(state, fam, kLeaves4);
}

#define LCERT_INCR_FAMILY(family, ...)                                       \
  BENCHMARK_CAPTURE(BM_IncrEditTriple, family, k##family)__VA_ARGS__;        \
  BENCHMARK_CAPTURE(BM_IncrSubtreeSwapLeaves, family, k##family)__VA_ARGS__; \
  BENCHMARK_CAPTURE(BM_ColdReproveLeaves, family, k##family)__VA_ARGS__

LCERT_INCR_FAMILY(CompleteBinary, ->Arg(1024)->Arg(4096)->Arg(16384));
LCERT_INCR_FAMILY(RandomTree, ->Arg(1024)->Arg(4096)->Arg(16384));
// Perfect matching runs on the matched family only (random/complete-binary
// trees are almost never yes-instances; complete binary trees have odd n and
// never are).
BENCHMARK(BM_IncrSubtreeSwapMatched)->Arg(1024)->Arg(4096)->Arg(16384);
BENCHMARK(BM_ColdReproveMatched)->Arg(1024)->Arg(4096)->Arg(16384);

// One instrumented run per configuration for the structured record: the
// google-benchmark numbers above stay authoritative for throughput, these
// rows carry the per-edit counters (dirty path, reuse ratio, re-proved /
// re-verified vertices) that the benchmark JSON cannot.
void record_period2(obs::Report& report, const MsoTreeScheme& scheme,
                    const char* family_name, const Graph& g, const SwapPlan& plan_in) {
  const SwapPlan* plan = &plan_in;
  RunOptions options;
  options.num_threads = 1;
  incr::CertifiedInstance live(scheme, options);

  const obs::StopwatchMs init_timer;
  if (!live.init(g).has_value()) throw std::logic_error("bench: init refused");
  const double init_ms = init_timer.elapsed();

  const std::size_t rounds = 64;
  std::size_t sum_dirty = 0, sum_reproved = 0, sum_reverified = 0;
  double sum_reuse = 0;
  const obs::StopwatchMs timer;
  for (std::size_t i = 0; i < rounds; ++i) {
    const bool forward = i % 2 == 0;
    const IncrementalStats st = live.apply(
        forward ? swap_edit(plan->moved, plan->parent_a, plan->parent_b)
                : swap_edit(plan->moved, plan->parent_b, plan->parent_a));
    if (!st.certified) throw std::logic_error("bench: swap left the property");
    sum_dirty += st.dirty_path_len;
    sum_reproved += st.reproved_vertices;
    sum_reverified += st.reverified_vertices;
    sum_reuse += st.reuse_ratio;
  }
  const double edit_ms = timer.elapsed() / rounds;
  report.add()
      .set("scheme", scheme.name())
      .set("family", family_name)
      .set("n", g.vertex_count())
      .set("edits", rounds)
      .set("cold_prove_ms", init_ms)
      .set("edit_ms", edit_ms)
      .set("speedup", edit_ms > 0 ? init_ms / edit_ms : 0.0)
      .set("mean_dirty_path", static_cast<double>(sum_dirty) / rounds)
      .set("mean_reproved", static_cast<double>(sum_reproved) / rounds)
      .set("mean_reverified", static_cast<double>(sum_reverified) / rounds)
      .set("mean_reuse", sum_reuse / rounds);
}

void add_incr_record(obs::Report& report, const Family& fam, std::size_t automaton,
                     std::size_t n) {
  const MsoTreeScheme scheme(standard_tree_automata()[automaton]);
  const Graph g = prepare_instance(fam, n);
  const auto plan = find_period2_swap(scheme, g);
  if (!plan.has_value()) return;
  record_period2(report, scheme, fam.name, g, *plan);
}

void add_matched_record(obs::Report& report, std::size_t n) {
  const MsoTreeScheme scheme(standard_tree_automata()[kPerfectMatching]);
  const MatchedInstance inst = prepare_matched_instance(n);
  record_period2(report, scheme, "matched-random-tree", inst.graph, inst.plan);
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --metrics-out / LCERT_METRICS before google-benchmark sees argv.
  auto report = obs::Report::from_cli("E16-incremental", argc, argv);

  // Our own flag, stripped before google-benchmark parses argv:
  //   --record-n <n>    instance size of the structured record rows; a
  //                     malformed value exits 2, matching lcert_cli
  std::size_t record_n = 16384;
  {
    int out = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--record-n" && i + 1 < argc) {
        try {
          record_n = parse_count(flag, argv[++i], kMaxVertexCount, 1);
        } catch (const std::invalid_argument& e) {
          std::fprintf(stderr, "error: %s\n", e.what());
          return 2;
        }
      } else {
        argv[out++] = argv[i];
      }
    }
    argc = out;
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  for (const Family& fam : {kCompleteBinary, kRandomTree})
    add_incr_record(report, fam, kLeaves4, record_n);
  add_matched_record(report, record_n);
  report.note("");
  report.note("micro numbers above are google-benchmark's; the table rows re-measure a");
  report.note("64-edit period-2 rehang with per-edit dirty-path and reuse counters for");
  report.note("the structured artifact.");
  return report.finish();
}
