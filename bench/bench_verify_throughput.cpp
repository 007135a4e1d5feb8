// E10 (supporting): the verifier is genuinely local — per-vertex verification
// time is independent of n (it depends on the degree and certificate size
// only). google-benchmark micro-measurements of Scheme::verify.
//
// The BM_Engine* family measures whole-round verify_assignment throughput and
// backs BENCH_verify.json (bench/run_bench.py verify): the seed engine built
// an owning View per vertex per round (certificate deep copies); the current
// engine binds a precomputed ViewCache (pointer fills only) and optionally
// fans out across a worker pool.
#include <benchmark/benchmark.h>

#include "src/automata/box_index.hpp"
#include "src/cert/audit.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/report.hpp"
#include "src/cert/engine.hpp"
#include "src/graph/generators.hpp"
#include "src/logic/formulas.hpp"
#include "src/schemes/kernel_scheme.hpp"
#include "src/schemes/mso_tree.hpp"
#include "src/schemes/spanning_tree.hpp"
#include "src/schemes/treedepth_scheme.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace lcert;

struct Prepared {
  Graph graph;
  std::vector<Certificate> certs;
  std::vector<View> views;
};

Prepared prepare(const Scheme& scheme, Graph g, Rng& rng) {
  assign_random_ids(g, rng);
  auto certs = scheme.assign(g);
  if (!certs.has_value()) throw std::logic_error("bench: prover failed");
  Prepared p{std::move(g), std::move(*certs), {}};
  for (Vertex v = 0; v < p.graph.vertex_count(); ++v)
    p.views.push_back(make_view(p.graph, p.certs, v));
  return p;
}

void run_all_views(benchmark::State& state, const Scheme& scheme, Prepared& p) {
  for (auto _ : state) {
    bool all = true;
    for (View& view : p.views) all = all && scheme.verify(view.as_ref());
    benchmark::DoNotOptimize(all);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p.views.size()));
}

void BM_VerifyParity(benchmark::State& state) {
  Rng rng(1);
  VertexParityScheme scheme;
  auto p = prepare(scheme, make_random_tree(static_cast<std::size_t>(state.range(0)), rng),
                         rng);
  run_all_views(state, scheme, p);
}
BENCHMARK(BM_VerifyParity)->Arg(256)->Arg(1024)->Arg(4096);

void BM_VerifyMsoTree(benchmark::State& state) {
  Rng rng(2);
  MsoTreeScheme scheme(standard_tree_automata()[0]);  // "path"
  auto p = prepare(scheme, make_path(static_cast<std::size_t>(state.range(0))), rng);
  run_all_views(state, scheme, p);
}
BENCHMARK(BM_VerifyMsoTree)->Arg(256)->Arg(1024)->Arg(4096);

void BM_VerifyTreedepth(benchmark::State& state) {
  Rng rng(3);
  auto inst = make_bounded_treedepth_graph(static_cast<std::size_t>(state.range(0)), 5, 0.3, rng);
  RootedTree witness = inst.elimination_tree;
  TreedepthScheme scheme(5, [witness](const Graph&) { return witness; });
  auto p = prepare(scheme, inst.graph, rng);
  run_all_views(state, scheme, p);
}
BENCHMARK(BM_VerifyTreedepth)->Arg(256)->Arg(1024)->Arg(4096);

void BM_VerifyKernelMso(benchmark::State& state) {
  Rng rng(4);
  auto inst = make_bounded_treedepth_graph(static_cast<std::size_t>(state.range(0)), 3, 0.0, rng);
  RootedTree witness = inst.elimination_tree;
  KernelMsoScheme scheme(f_triangle_free(), 3, 3, [witness](const Graph&) { return witness; });
  auto p = prepare(scheme, inst.graph, rng);
  run_all_views(state, scheme, p);
}
BENCHMARK(BM_VerifyKernelMso)->Arg(256)->Arg(1024);

// ---------------------------------------------------------------------------
// Engine throughput: copy-vs-zero-copy and serial-vs-parallel, one full
// verification round (all n vertices) per item batch.
// ---------------------------------------------------------------------------

Prepared prepare_mso(std::size_t n) {
  Rng rng(2);
  MsoTreeScheme scheme(standard_tree_automata()[0]);  // "path"
  return prepare(scheme, make_path(n), rng);
}

// Seed-engine behavior: a fresh owning View (certificate deep copies) per
// vertex per round, serial sweep.
void BM_EngineSeedCopies(benchmark::State& state) {
  MsoTreeScheme scheme(standard_tree_automata()[0]);
  const auto p = prepare_mso(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    bool all = true;
    for (Vertex v = 0; v < p.graph.vertex_count(); ++v) {
      View view = make_view(p.graph, p.certs, v);
      all = all && scheme.verify(view.as_ref());
    }
    benchmark::DoNotOptimize(all);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p.graph.vertex_count()));
}
BENCHMARK(BM_EngineSeedCopies)->Arg(1024)->Arg(4096);

void run_engine_rounds(benchmark::State& state, std::size_t n, std::size_t threads) {
  MsoTreeScheme scheme(standard_tree_automata()[0]);
  const auto p = prepare_mso(n);
  const ViewCache cache(p.graph);  // amortized across rounds, as in the audit
  const RunOptions options{threads, /*stop_at_first_reject=*/false};
  for (auto _ : state) {
    const auto outcome = verify_assignment(scheme, cache, p.certs, options);
    benchmark::DoNotOptimize(outcome.all_accept);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_EngineZeroCopySerial(benchmark::State& state) {
  run_engine_rounds(state, static_cast<std::size_t>(state.range(0)), 1);
}
BENCHMARK(BM_EngineZeroCopySerial)->Arg(1024)->Arg(4096);

// Same rounds with the metrics registry forced off: the spread between this
// and BM_EngineZeroCopySerial is the instrumentation overhead (budget: <5%
// at n=4096), measured in-process so machine drift between runs cancels.
void BM_EngineZeroCopySerialNoMetrics(benchmark::State& state) {
  const bool was_enabled = obs::registry().enabled();
  obs::registry().set_enabled(false);
  run_engine_rounds(state, static_cast<std::size_t>(state.range(0)), 1);
  obs::registry().set_enabled(was_enabled);
}
BENCHMARK(BM_EngineZeroCopySerialNoMetrics)->Arg(1024)->Arg(4096);

void BM_EngineZeroCopyParallel(benchmark::State& state) {
  run_engine_rounds(state, static_cast<std::size_t>(state.range(0)), 0);  // 0 = auto
}
BENCHMARK(BM_EngineZeroCopyParallel)->Arg(1024)->Arg(4096);

// Audit throughput: one full attack_soundness sweep (shared ViewCache,
// trial-level fan-out); items = attack trials executed.
void run_audit(benchmark::State& state, std::size_t threads) {
  MsoTreeScheme scheme(standard_tree_automata()[0]);
  Rng rng(5);
  Graph no = make_star(static_cast<std::size_t>(state.range(0)));  // not a path
  assign_random_ids(no, rng);
  Rng yes_rng(6);
  Graph yes = make_path(no.vertex_count());
  assign_random_ids(yes, yes_rng);
  const auto tmpl = scheme.assign(yes);
  RunOptions options;
  options.random_trials = 64;
  options.mutation_trials = 64;
  options.num_threads = threads;
  std::uint64_t seed = 7;
  for (auto _ : state) {
    Rng attack_rng(seed++);  // fresh randomness, same cost profile
    const auto forged =
        attack_soundness(scheme, no, tmpl ? &*tmpl : nullptr, attack_rng, options);
    if (forged.has_value()) state.SkipWithError("unexpected forgery");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(options.random_trials +
                                                    options.mutation_trials));
}

void BM_AuditSerial(benchmark::State& state) { run_audit(state, 1); }
BENCHMARK(BM_AuditSerial)->Arg(512);

void BM_AuditParallel(benchmark::State& state) { run_audit(state, 0); }
BENCHMARK(BM_AuditParallel)->Arg(512);

// ---------------------------------------------------------------------------
// The leaves>=4 cliff (E19): one automaton state expands to ~29k raw DNF
// boxes, so the seed verifier's linear sweep cost ~140µs per vertex in that
// state. The rows below isolate the fix: canonicalization (raw -> a handful
// of boxes) plus the per-state BoxIndex.
// ---------------------------------------------------------------------------

constexpr std::size_t kLeaves4 = 7;  // standard_tree_automata() index

// levels such that 2^levels - 1 is the largest complete binary tree <= n.
std::size_t levels_for(std::size_t n) {
  std::size_t levels = 1;
  while (((std::size_t{1} << (levels + 1)) - 1) <= n) ++levels;
  return levels;
}

Prepared prepare_leaves4(std::size_t n) {
  Rng rng(8);
  MsoTreeScheme scheme(standard_tree_automata()[kLeaves4]);
  return prepare(scheme, make_complete_binary_tree(levels_for(n)), rng);
}

// Whole-round engine throughput on the scheme that used to fall off the
// cliff (n=1023 / n=4095 complete binary trees).
void BM_EngineLeaves4(benchmark::State& state) {
  MsoTreeScheme scheme(standard_tree_automata()[kLeaves4]);
  const auto p = prepare_leaves4(static_cast<std::size_t>(state.range(0)));
  const ViewCache cache(p.graph);
  const RunOptions options{1, /*stop_at_first_reject=*/false};
  for (auto _ : state) {
    const auto outcome = verify_assignment(scheme, cache, p.certs, options);
    benchmark::DoNotOptimize(outcome.all_accept);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p.graph.vertex_count()));
}
BENCHMARK(BM_EngineLeaves4)->Arg(1024)->Arg(4096);

// The worst state of the leaves>=4 automaton, as the verifier probes it:
// child-state count vectors with total <= 2 (binary-tree child multisets).
struct Leaves4WorstState {
  std::size_t k = 0;
  std::size_t worst = 0;
  std::vector<IntervalBox> raw;                    // seed representation
  std::vector<std::vector<std::size_t>> probes;    // realistic counts vectors
};

Leaves4WorstState leaves4_worst_state() {
  Leaves4WorstState w;
  const auto entry = standard_tree_automata()[kLeaves4];
  w.k = entry.automaton.state_count;
  for (std::size_t q = 0; q < w.k; ++q) {
    auto boxes = entry.automaton.transition(q).to_boxes_raw(w.k);
    if (boxes.size() > w.raw.size()) {
      w.worst = q;
      w.raw = std::move(boxes);
    }
  }
  // Every multiset of <= 2 children over k states, the exact vectors
  // verify_view feeds first_containing on a binary tree.
  w.probes.push_back(std::vector<std::size_t>(w.k, 0));
  for (std::size_t a = 0; a < w.k; ++a) {
    std::vector<std::size_t> one(w.k, 0);
    one[a] = 1;
    w.probes.push_back(one);
    for (std::size_t b = a; b < w.k; ++b) {
      std::vector<std::size_t> two(w.k, 0);
      ++two[a];
      ++two[b];
      w.probes.push_back(two);
    }
  }
  return w;
}

// Seed path: linear sweep over the raw DNF of the worst state.
void BM_Leaves4WorstStateRawLinear(benchmark::State& state) {
  const auto w = leaves4_worst_state();
  for (auto _ : state) {
    std::size_t hits = 0;
    for (const auto& counts : w.probes) {
      for (std::size_t i = 0; i < w.raw.size(); ++i)
        if (w.raw[i].contains(counts)) {
          ++hits;
          break;
        }
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.probes.size()));
  state.counters["boxes"] = static_cast<double>(w.raw.size());
}
BENCHMARK(BM_Leaves4WorstStateRawLinear);

// Fixed path: canonical DNF behind the per-state BoxIndex.
void BM_Leaves4WorstStateIndexed(benchmark::State& state) {
  const auto w = leaves4_worst_state();
  const auto entry = standard_tree_automata()[kLeaves4];
  const BoxIndex index(entry.automaton.transition(w.worst).to_boxes(w.k));
  for (auto _ : state) {
    std::size_t hits = 0;
    for (const auto& counts : w.probes)
      if (index.first_containing(counts.data(), w.k).index != BoxIndex::npos)
        ++hits;
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.probes.size()));
  state.counters["boxes"] = static_cast<double>(index.size());
}
BENCHMARK(BM_Leaves4WorstStateIndexed);

// One timed verify_assignment round for the structured record: the
// google-benchmark reporters above stay authoritative for the micro numbers;
// this row feeds the shared obs::Report artifact ({scheme, n, max_bits,
// wall_ms} plus engine counters) that every bench emits.
void add_engine_record(obs::Report& report, std::size_t n, std::size_t threads,
                       const char* mode) {
  MsoTreeScheme scheme(standard_tree_automata()[0]);
  const auto p = prepare_mso(n);
  const ViewCache cache(p.graph);
  const RunOptions options{threads, /*stop_at_first_reject=*/false};
  std::size_t max_bits = 0;
  const std::size_t rounds = 50;
  const obs::StopwatchMs timer;
  for (std::size_t i = 0; i < rounds; ++i) {
    const auto outcome = verify_assignment(scheme, cache, p.certs, options);
    if (!outcome.all_accept) throw std::logic_error("bench: honest round rejected");
    max_bits = outcome.max_certificate_bits;
  }
  const double wall_ms = timer.elapsed();
  report.add()
      .set("scheme", scheme.name())
      .set("mode", mode)
      .set("n", n)
      .set("max_bits", max_bits)
      .set("wall_ms", wall_ms)
      .set("Mvertices/s",
           static_cast<double>(n) * static_cast<double>(rounds) / (wall_ms * 1e3));
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --metrics-out / LCERT_METRICS before google-benchmark sees argv.
  auto report = obs::Report::from_cli("E10-verify-throughput", argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  add_engine_record(report, 4096, 1, "serial");
  add_engine_record(report, 4096, 0, "parallel");
  report.note("");
  report.note("micro numbers above are google-benchmark's; the table rows re-measure one");
  report.note("verify_assignment round (50x) for the structured artifact.");
  return report.finish();
}
