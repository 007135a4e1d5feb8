// The timed loops. Each workload is a closed loop with one client that
// issues three kinds of operation, each against its own pool (inputs.hpp):
//   certify  prove_assignment, then verify_assignment of the result;
//   verify   verify_assignment of an honest or forged assignment;
//   edit     CertifiedInstance::apply of the next edit in a stream.
// A workload decides only how the run's time is split between the kinds, so
// every end-to-end metric is defined on every workload and each is computed
// from the operations of its own kind.
//
// Output checks run after each timed call returns, outside the timed region;
// a mismatch or an exception counts the operation as failed.
//
// Every operation, and every library call in it, is wrapped in a span of the
// library's trace sink (src/obs/trace.hpp), named "<module>/<call>" and
// carrying the operation id as its logical value; the spans cost one relaxed
// load unless the traced run enables the sink.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "src/obs/trace.hpp"
#include "src/solve/solver.hpp"

namespace perfbench {

enum class Phase { kCertify, kVerify, kEdit };

/// Everything the loops measure; plain sums so runs can be merged.
struct Stats {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few failure messages

  // certify
  std::vector<double> certify_ms;
  double certify_s = 0, prove_s = 0, certify_vertices = 0;
  std::uint64_t cert_bits = 0, cert_bit_vertices = 0;  ///< over certified yes-instances
  std::uint64_t memo_hits = 0, memo_misses = 0, proved_vertices = 0;
  lcert::solve::DecisionCounts random_tree_feas;  ///< random-tree members only
  std::uint64_t random_tree_proves = 0, random_tree_misses = 0;
  std::map<std::string, std::size_t> cert_bits_max;  ///< per scheme key

  // verify
  std::vector<double> verify_ms;
  double verify_s = 0, verify_vertices = 0;

  // edit
  std::vector<double> edit_us;
  double edit_s = 0;
  double dirty_path_len = 0, reproved = 0, reverified = 0, changed = 0, edit_memo_misses = 0,
         reuse_ratio = 0;
  std::uint64_t full_reproves = 0;

  /// The latency samples again, split by pool member (certify item, verify
  /// item, edit stream), indexed by Phase.
  std::array<std::vector<std::vector<double>>, 3> member_samples;

  void fail(std::string why);
  /// Adds `other`'s counts and sums and appends its samples.
  Stats& operator+=(const Stats& other);
  /// Work per second of operation time for one kind: vertices for certify and
  /// verify, edits for edit.
  double throughput(Phase p) const;
  void add_member_sample(Phase p, std::size_t member, double latency);
  /// Geometric mean over the pool members of a kind of each member's median
  /// latency. A pool mixes members of very different cost, so the median of
  /// the pooled samples sits in a gap between cost clusters and jumps when
  /// host noise or the seed shifts a cluster's share; this does not.
  double member_median(Phase p) const;
};

/// What the traced run keeps of the trace sink, drained after every cycle of
/// operations: self time per bucket (an operation kind, or the side
/// measurements) and span name, and the events of the written trace.
struct TraceLog {
  std::map<std::string, std::map<std::string, double>> self_ms;
  lcert::obs::TraceSnapshot kept;  ///< the first kMaxKept events
  std::uint64_t events = 0, dropped = 0;

  /// Takes every event from the sink and files its spans under `bucket`.
  void drain(const std::string& bucket);

  static constexpr std::size_t kMaxKept = std::size_t{1} << 16;
};

const char* bucket_name(Phase p);

class Runner {
 public:
  Runner(Inputs& in, Stats& stats);

  /// Directs later operations' results to `stats`.
  void record_into(Stats& stats) { stats_ = &stats; }
  /// Drains the trace sink into `log` after every cycle (nullptr: never).
  void trace_into(TraceLog* log) { log_ = log; }

  /// Runs whole cycles of the phase's pool until `seconds` of wall time have
  /// passed (at least one cycle).
  void run(Phase p, double seconds);

  /// Checks every edit stream against a cold prove of its current graph.
  void checkpoint_all();

 private:
  void cycle(Phase p);
  void certify_op(const CertifyItem& item);
  void verify_op(const VerifyItem& item);
  void edit_op(EditStream& stream);
  void checkpoint(EditStream& stream);
  void restart(EditStream& stream);

  Inputs& in_;
  Stats* stats_;
  TraceLog* log_ = nullptr;
  std::uint64_t op_ = 0;
};

/// Per-layer side measurements of the traced run, taken outside the loops.
struct LayerProbe {
  double rooted_tree_build_ms = 0;  ///< RootedTree::from_graph, per tree instance
  double levels_per_instance = 0;   ///< height + 1, per tree instance
  double view_cache_build_us_per_kvertex = 0;
  double bind_us_per_kvertex = 0;
  double verify_batch_ns_per_vertex = 0;  ///< serial Scheme::verify_batch, batches of 128
  /// Share of default-thread verify_assignment wall time that ViewCache
  /// build, bind and the serial batch time divided over the resolved workers
  /// leave unexplained.
  double verify_fanout_overhead_frac = 0;
  double prove_parallel_speedup = 0;   ///< serial / default-thread prove_assignment
  double verify_parallel_speedup = 0;  ///< serial / default-thread verify_assignment
};

/// Spends about `seconds` on the side measurements (each at least once).
LayerProbe probe_layers(Inputs& in, double seconds);

}  // namespace perfbench
