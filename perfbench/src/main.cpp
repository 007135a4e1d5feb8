// lcert_perfbench: the end-to-end benchmark of the lcert library.
//
//   lcert_perfbench --workload <certify-cold|verify-mixed|edit-stream>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-out <file>] [--smoke] [--plant <cert|verdict>]
//                   [--git-sha <sha>] [--git-dirty <0|1>]
//
// Builds every input from the seed, runs the workload's closed loop for
// --seconds (building the inputs twice more along the way, to time set-up),
// checks every output, and prints as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics of a traced run
// instead (README.md lists both).
// --smoke shrinks every instance for the self-test, and --plant corrupts one
// expected result so the self-test can see the failure being counted.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "inputs.hpp"
#include "phases.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/parallel.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

// setup_s is the median of these: one before the run, the rest spread over
// it, so set-up samples the same host conditions as the timings.
constexpr int kSetupRepeats = 3;
constexpr double kPrimaryShare = 0.7;  // the two other kinds split the rest
// The kinds take turns in rounds of this length, so each kind samples the
// whole run; a shared host's slow seconds then hit every kind alike.
constexpr double kRoundSeconds = 1.5;
constexpr std::size_t kSmokeDivisor = 64;
// Traced run: untraced primary loop, traced loops, side measurements.
constexpr double kUntracedShare = 0.2, kTracedShare = 0.6, kProbeShare = 0.2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::size_t divisor = 1;
  std::string plant;
  std::string git_sha = "unknown";
  std::string git_dirty = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "lcert_perfbench: " << why
            << "\nusage: lcert_perfbench --workload <certify-cold|verify-mixed|edit-stream> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>] [--smoke] "
               "[--plant <cert|verdict>] [--git-sha <sha>] [--git-dirty <0|1>]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.divisor = kSmokeDivisor;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") a.workload = value;
      else if (flag == "--seed") a.seed = std::stoull(value);
      else if (flag == "--seconds") a.seconds = std::stod(value);
      else if (flag == "--trace") a.trace = std::stoi(value) != 0;
      else if (flag == "--trace-out") a.trace_out = value;
      else if (flag == "--plant") a.plant = value;
      else if (flag == "--git-sha") a.git_sha = value;
      else if (flag == "--git-dirty") a.git_dirty = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  if (!a.plant.empty() && a.plant != "cert" && a.plant != "verdict")
    usage("--plant takes cert or verdict");
  return a;
}

Phase primary_phase(const std::string& workload) {
  if (workload == "certify-cold") return Phase::kCertify;
  if (workload == "verify-mixed") return Phase::kVerify;
  if (workload == "edit-stream") return Phase::kEdit;
  usage("unknown workload " + workload);
}

std::vector<Phase> phase_order(Phase primary) {
  std::vector<Phase> order{primary};
  for (Phase p : {Phase::kCertify, Phase::kVerify, Phase::kEdit})
    if (p != primary) order.push_back(p);
  return order;
}

double share_of(Phase p, Phase primary) {
  return p == primary ? kPrimaryShare : (1 - kPrimaryShare) / 2;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t k = v.size();
  return k % 2 == 1 ? v[k / 2] : (v[k / 2 - 1] + v[k / 2]) / 2;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

int rounds_in(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds / kRoundSeconds)));
}

/// Samples a block needs for percentile q to have ten samples beyond it.
std::size_t block_samples(double q) {
  return static_cast<std::size_t>(std::ceil(10 / (1 - q)));
}

/// A timing statistic made robust to slow stretches of a shared host:
/// consecutive rounds are merged into blocks of at least `min_samples`
/// samples of one kind, `value` is taken per block, and the median of the
/// block values is reported (the whole run is one block if it is shorter).
template <typename Value>
double block_median(const std::vector<Stats>& rounds, std::vector<double> Stats::*samples,
                    std::size_t min_samples, Value value) {
  std::vector<double> values;
  Stats block;
  for (const auto& r : rounds) {
    block += r;
    if ((block.*samples).size() >= min_samples) {
      values.push_back(value(block));
      block = Stats{};
    }
  }
  if (values.empty()) values.push_back(value(block));
  return median(values);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      nonfinite_.push_back(name);
      value = 0;
    }
    entries_.push_back({name, value, unit});
  }
  const std::vector<std::string>& nonfinite() const { return nonfinite_; }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const auto& e = entries_[i];
      out += (i ? ", " : "") + quoted(e.name) + ": {\"value\": " + number(e.value) +
             ", \"unit\": " + quoted(e.unit) + "}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> nonfinite_;
};

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

/// A "Vm...:" line of /proc/self/status, in MiB (0 if absent).
double status_mib(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind(key + ":", 0) == 0)
      return std::strtod(line.c_str() + key.size() + 1, nullptr) / 1024;  // kB

  return 0;
}

/// Peak resident set while operations run. The kernel's high-water mark is
/// reset (clear_refs) after each set-up, once the heap has returned what the
/// set-up freed, so neither a set-up's transient peak nor the extra copies
/// of the inputs the later set-ups build count. (Where the kernel refuses
/// the reset, the figure is the whole process's peak.)
class PeakRss {
 public:
  /// Starts a window.
  void reset() {
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
  }
  /// Ends a window.
  void close() { peak_ = std::max(peak_, status_mib("VmHWM")); }
  double mib() const { return peak_; }

 private:
  double peak_ = 0;
};

void merge_counts(Stats& into, const Stats& from) {
  into.attempted += from.attempted;
  into.failed += from.failed;
  for (const auto& f : from.failures)
    if (into.failures.size() < 8) into.failures.push_back(f);
}

/// Counters of the obs registry that the traced run attributes to the verify
/// phase (summed over its turns).
struct VerifyCounters {
  std::uint64_t box_probes = 0, vertices_verified = 0, truncated_rejects = 0, ops = 0;
};

void end_to_end_metrics(Metrics& m, const std::vector<Stats>& rounds, const Stats& all) {
  const auto throughput = [&](const char* name, Phase p, std::vector<double> Stats::*samples,
                              const char* unit) {
    m.add(name, block_median(rounds, samples, block_samples(0.5),
                             [p](const Stats& b) { return b.throughput(p); }),
          unit);
  };
  const auto pct = [&](const char* name, std::vector<double> Stats::*samples, double q,
                       const char* unit) {
    m.add(name, block_median(rounds, samples, block_samples(q),
                             [=](const Stats& b) { return percentile(b.*samples, q); }),
          unit);
  };
  throughput("certify_vertices_per_s", Phase::kCertify, &Stats::certify_ms, "vertices/s");
  m.add("certify_ms_p50", all.member_median(Phase::kCertify), "ms");
  pct("certify_ms_p90", &Stats::certify_ms, 0.9, "ms");
  m.add("cert_bits_per_vertex", ratio(static_cast<double>(all.cert_bits),
                                      static_cast<double>(all.cert_bit_vertices)),
        "bits");
  throughput("verify_vertices_per_s", Phase::kVerify, &Stats::verify_ms, "vertices/s");
  m.add("verify_ms_p50", all.member_median(Phase::kVerify), "ms");
  throughput("edits_per_s", Phase::kEdit, &Stats::edit_us, "edits/s");
  m.add("edit_us_p50", all.member_median(Phase::kEdit), "us");
}

/// The library module a span belongs to: its name's prefix, with the
/// library's own prover/ and engine/ spans filed under cert, except the
/// spans obs::InstrumentedScheme opens around a registry scheme's own prover.
std::string module_of(const std::string& span) {
  if (span == "prover/prove_batch" || span == "prover/assign") return "schemes";
  const std::string prefix = span.substr(0, span.find('/'));
  return prefix == "prover" || prefix == "engine" ? "cert" : prefix;
}

void per_layer_metrics(Metrics& m, const Stats& s, const LayerProbe& probe,
                       const VerifyCounters& vc, double generate_s, double setup_rss_mib,
                       double overhead, const TraceLog& log, std::size_t workers) {
  // Tails too unsteady from run to run to be end-to-end metrics (README.md),
  // over the traced run's samples.
  m.add("verify_ms_p99", percentile(s.verify_ms, 0.99), "ms");
  m.add("edit_us_p99", percentile(s.edit_us, 0.99), "us");
  m.add("graph.generate_s", generate_s, "s");
  m.add("mem.setup_rss_mib", setup_rss_mib, "MiB");
  m.add("graph.rooted_tree_build_ms", probe.rooted_tree_build_ms, "ms");
  m.add("graph.levels_per_instance", probe.levels_per_instance, "count");
  m.add("cert.view_cache_build_us_per_kvertex", probe.view_cache_build_us_per_kvertex,
        "us/kvertex");
  m.add("cert.bind_us_per_kvertex", probe.bind_us_per_kvertex, "us/kvertex");
  m.add("cert.verify_batch_ns_per_vertex", probe.verify_batch_ns_per_vertex, "ns/vertex");
  m.add("cert.verify_fanout_overhead_frac", probe.verify_fanout_overhead_frac, "ratio");
  m.add("cert.prove_share_of_certify", ratio(s.prove_s, s.certify_s), "ratio");

  const double hits = static_cast<double>(s.memo_hits), misses = static_cast<double>(s.memo_misses);
  m.add("schemes.memo_hit_ratio", ratio(hits, hits + misses), "ratio");
  m.add("schemes.memo_misses_per_kvertex",
        ratio(misses * 1000, static_cast<double>(s.proved_vertices)), "count/kvertex");
  for (const char* key : {"mso-leaves4", "mso-caterpillar", "mso-perfect-matching",
                          "vertex-parity", "treedepth-5"}) {
    const auto it = s.cert_bits_max.find(key);
    m.add(std::string("schemes.cert_bits_max.") + key,
          it == s.cert_bits_max.end() ? 0.0 : static_cast<double>(it->second), "bits");
  }
  m.add("schemes.truncated_rejects_per_op",
        ratio(static_cast<double>(vc.truncated_rejects), static_cast<double>(vc.ops)),
        "count/op");

  const double proves = static_cast<double>(s.random_tree_proves);
  const auto& f = s.random_tree_feas;
  m.add("solve.decisions_per_prove.pruned", ratio(static_cast<double>(f.pruned), proves), "count");
  m.add("solve.decisions_per_prove.greedy", ratio(static_cast<double>(f.greedy), proves), "count");
  m.add("solve.decisions_per_prove.warm", ratio(static_cast<double>(f.warm), proves), "count");
  m.add("solve.decisions_per_prove.flow", ratio(static_cast<double>(f.flow), proves), "count");
  m.add("solve.decisions_per_prove.sat", ratio(static_cast<double>(f.sat), proves), "count");
  m.add("solve.decisions_per_memo_miss",
        ratio(static_cast<double>(f.total()), static_cast<double>(s.random_tree_misses)), "count");

  m.add("automata.box_probes_per_vertex",
        ratio(static_cast<double>(vc.box_probes), static_cast<double>(vc.vertices_verified)),
        "count/vertex");

  const double edits = static_cast<double>(s.edit_us.size());
  m.add("incr.dirty_path_len_mean", ratio(s.dirty_path_len, edits), "vertices");
  m.add("incr.reproved_vertices_per_edit", ratio(s.reproved, edits), "vertices");
  m.add("incr.reverified_vertices_per_edit", ratio(s.reverified, edits), "vertices");
  m.add("incr.changed_certs_per_edit", ratio(s.changed, edits), "count");
  m.add("incr.memo_misses_per_edit", ratio(s.edit_memo_misses, edits), "count");
  m.add("incr.reuse_ratio_mean", ratio(s.reuse_ratio, edits), "ratio");
  m.add("incr.full_reprove_frac", ratio(static_cast<double>(s.full_reproves), edits), "ratio");

  m.add("util.prove_parallel_speedup", probe.prove_parallel_speedup, "ratio");
  m.add("util.verify_parallel_speedup", probe.verify_parallel_speedup, "ratio");
  m.add("util.workers_resolved", static_cast<double>(workers), "count");
  m.add("obs.traced_overhead_frac", overhead, "ratio");

  for (const auto& [kind, ops, modules] :
       {std::tuple{"certify", s.certify_ms.size(),
                   std::vector<std::string>{"bench", "cert", "schemes"}},
        std::tuple{"verify", s.verify_ms.size(), std::vector<std::string>{"bench", "cert"}},
        std::tuple{"edit", s.edit_us.size(), std::vector<std::string>{"bench", "incr"}}}) {
    std::map<std::string, double> self_ms;
    if (const auto it = log.self_ms.find(kind); it != log.self_ms.end())
      for (const auto& [name, ms] : it->second) self_ms[module_of(name)] += ms;
    for (const auto& module : modules)
      m.add(std::string("trace.self_us.") + kind + "." + module,
            ratio(self_ms[module] * 1e3, static_cast<double>(ops)), "us/op");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Phase primary = primary_phase(args.workload);

  // Provenance, and the refusal to oversubscribe: the library's default
  // thread count (RunOptions::num_threads = 0 on a large input) must not
  // exceed the CPUs this process may run on.
  const std::size_t cpus = nproc();
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t default_workers = lcert::resolve_thread_count(0, std::size_t{1} << 40);
  std::ostringstream prov;
  prov << "{\"provenance\": {\"nproc\": " << cpus << ", \"hardware_concurrency\": " << hw
       << ", \"default_workers\": " << default_workers
       << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
       << ", \"flags\": " << quoted(PERFBENCH_FLAGS)
       << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
       << ", \"git_sha\": " << quoted(args.git_sha) << ", \"git_dirty\": " << quoted(args.git_dirty)
       << ", \"workload\": " << quoted(args.workload) << ", \"seed\": " << args.seed
       << ", \"seconds\": " << number(args.seconds) << ", \"trace\": " << args.trace << "}}";
  std::cout << prov.str() << std::endl;
  if (default_workers > cpus) {
    std::cerr << "lcert_perfbench: the library would start " << default_workers
              << " workers on " << cpus << " CPUs; refusing to run\n";
    return 3;
  }

  // Set-up: the inputs the run uses, then kSetupRepeats - 1 more builds
  // spread over the run, each checked to produce the same inputs and dropped.
  std::vector<double> setup_s, generate_s;
  std::uint64_t fingerprint = 0;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    auto built = build_inputs(args.seed, args.divisor);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    generate_s.push_back(built->generate_s);
    if (setup_s.size() > 1 && built->fingerprint != fingerprint)
      throw std::runtime_error("set-up is not deterministic for this seed");
    fingerprint = built->fingerprint;
    return built;
  };
  PeakRss peak;
  const auto extra_set_up = [&] {
    peak.close();
    set_up();
    peak.reset();
  };
  // Before round r of `rounds`, the set-ups due by then.
  const auto set_up_due = [&](int r, int rounds) {
    while (static_cast<int>(setup_s.size()) < kSetupRepeats &&
           r * kSetupRepeats >= static_cast<int>(setup_s.size()) * rounds)
      extra_set_up();
  };

  std::unique_ptr<Inputs> in;
  double setup_rss_mib = 0;
  Stats stats;
  Metrics metrics;
  try {
    in = set_up();
    peak.reset();
    setup_rss_mib = status_mib("VmRSS");
    if (args.plant == "cert") {
      auto& cert = in->certify.front().reference->front();
      cert.bytes.front() ^= 0x80;
    } else if (args.plant == "verdict") {
      in->verify[1].accept = !in->verify[1].accept;
    }

    {
      // One untimed cycle of every kind first, so caches and lazy set-up are
      // warm; its operations are checked and counted like the rest.
      Stats warm;
      Runner runner(*in, warm);
      for (Phase p : phase_order(primary)) runner.run(p, 0);
      merge_counts(stats, warm);
    }

    const auto order = phase_order(primary);
    if (!args.trace) {
      const int rounds = rounds_in(args.seconds);
      std::vector<Stats> per_round(static_cast<std::size_t>(rounds));
      Runner runner(*in, stats);
      for (int r = 0; r < rounds; ++r) {
        set_up_due(r, rounds);
        runner.record_into(per_round[static_cast<std::size_t>(r)]);
        for (Phase p : order) runner.run(p, share_of(p, primary) * args.seconds / rounds);
      }
      runner.record_into(stats);
      runner.checkpoint_all();
      peak.close();
      set_up_due(rounds, rounds);
      for (const auto& round : per_round) stats += round;
      metrics.add("setup_s", median(setup_s), "s");
      metrics.add("peak_rss_mib", peak.mib(), "MiB");
      end_to_end_metrics(metrics, per_round, stats);
    } else {
      // Untraced turns of the workload's own kind alternate with the traced
      // rounds, so the overhead estimate sees the same host conditions. The
      // obs registry and the trace sink are on only in the traced turns.
      Stats untraced;
      Runner plain(*in, untraced);
      TraceLog log;
      Runner runner(*in, stats);
      runner.trace_into(&log);
      auto& registry = lcert::obs::registry();
      auto& sink = lcert::obs::trace_sink();
      VerifyCounters vc;
      const auto counters = [&] {
        return VerifyCounters{registry.counter_value("verify/box_probes"),
                              registry.counter_value("engine/vertices_verified"),
                              registry.counter_value("engine/truncated_rejects"),
                              stats.verify_ms.size()};
      };
      const int rounds = rounds_in((kUntracedShare + kTracedShare) * args.seconds);
      for (int r = 0; r < rounds; ++r) {
        set_up_due(r, rounds);
        plain.run(primary, kUntracedShare * args.seconds / rounds);
        registry.set_enabled(true);
        sink.set_enabled(true);
        for (Phase p : order) {
          const VerifyCounters before = counters();
          runner.run(p, share_of(p, primary) * kTracedShare * args.seconds / rounds);
          if (p != Phase::kVerify) continue;
          const VerifyCounters after = counters();
          vc.box_probes += after.box_probes - before.box_probes;
          vc.vertices_verified += after.vertices_verified - before.vertices_verified;
          vc.truncated_rejects += after.truncated_rejects - before.truncated_rejects;
          vc.ops += after.ops - before.ops;
        }
        registry.set_enabled(false);
        sink.set_enabled(false);
      }
      runner.checkpoint_all();
      set_up_due(rounds, rounds);
      merge_counts(stats, untraced);

      sink.set_enabled(true);
      const LayerProbe probe = probe_layers(*in, kProbeShare * args.seconds);
      sink.set_enabled(false);
      log.drain("probe");

      std::size_t largest = 0;
      for (const auto& item : in->certify)
        largest = std::max(largest, item.graph->vertex_count());
      const double overhead = untraced.throughput(primary) / stats.throughput(primary) - 1;
      per_layer_metrics(metrics, stats, probe, vc, median(generate_s), setup_rss_mib, overhead,
                        log, lcert::resolve_thread_count(0, largest));
      if (!args.trace_out.empty()) {
        std::ofstream out(args.trace_out);
        out << lcert::obs::chrome_trace_json(log.kept);
        if (!out.flush())
          std::cerr << "lcert_perfbench: could not write " << args.trace_out << "\n";
      }
      std::cerr << "trace events: " << log.events << " (" << log.kept.events.size()
                << " written, " << log.dropped << " dropped by the sink)\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "lcert_perfbench: " << e.what() << "\n";
    return 1;
  }

  for (const auto& f : stats.failures) std::cerr << "FAILED: " << f << "\n";
  for (const auto& name : metrics.nonfinite()) std::cerr << "non-finite metric: " << name << "\n";
  const bool correct = stats.failed == 0 && (args.trace || metrics.nonfinite().empty());
  std::cout << "{\"samples\": {\"certify\": " << stats.certify_ms.size()
            << ", \"verify\": " << stats.verify_ms.size() << ", \"edit\": " << stats.edit_us.size()
            << ", \"setup\": " << setup_s.size() << "}}\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << stats.attempted << ", \"failed\": " << stats.failed
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  return 0;
}
