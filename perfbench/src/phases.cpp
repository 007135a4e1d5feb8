#include "phases.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <set>
#include <span>
#include <utility>

#include "src/cert/prove.hpp"
#include "src/graph/rooted_tree.hpp"
#include "src/util/parallel.hpp"

namespace perfbench {
namespace {

using namespace lcert;
using Clock = std::chrono::steady_clock;

/// Edits per stream per cycle of the edit phase.
constexpr std::size_t kEditsPerCycle = 64;
/// Edits between two cold-prove checkpoints of a stream. A checkpoint costs
/// about as much as a hundred edits.
constexpr std::size_t kCheckpointEvery = 4096;
constexpr std::size_t kMaxFailureMessages = 8;
/// Batch size of the serial verify_batch probe (the engine's own batch size).
constexpr std::size_t kBatch = 128;

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

RunOptions serial_options() {
  RunOptions o;
  o.num_threads = 1;
  return o;
}

bool same_graph(const Graph& a, const Graph& b) {
  if (a.vertex_count() != b.vertex_count()) return false;
  for (Vertex v = 0; v < a.vertex_count(); ++v) {
    const auto x = a.neighbors(v), y = b.neighbors(v);
    if (a.id(v) != b.id(v) || !std::equal(x.begin(), x.end(), y.begin(), y.end())) return false;
  }
  return true;
}

/// Span name ids in the trace sink, registered once.
struct SpanNames {
  static std::uint32_t id(const char* name) { return obs::trace_sink().name_id(name); }
  std::uint32_t certify = id("bench/certify"), verify = id("bench/verify"),
                edit = id("bench/edit");
  std::uint32_t prove = id("cert/prove_assignment"), prove_serial = id("cert/prove_serial"),
                verify_call = id("cert/verify_assignment"),
                verify_cached = id("cert/verify_assignment_cached"),
                verify_serial = id("cert/verify_serial"), view_cache = id("cert/ViewCache"),
                bind = id("cert/ViewCache::bind");
  std::uint32_t verify_batch = id("schemes/Scheme::verify_batch");
  std::uint32_t apply = id("incr/CertifiedInstance::apply");
  std::uint32_t from_graph = id("graph/RootedTree::from_graph");
};

const SpanNames& spans() {
  static const SpanNames names;
  return names;
}

}  // namespace

const char* bucket_name(Phase p) {
  switch (p) {
    case Phase::kCertify: return "certify";
    case Phase::kVerify: return "verify";
    case Phase::kEdit: return "edit";
  }
  return "?";
}

void TraceLog::drain(const std::string& bucket) {
  obs::TraceSnapshot snap = obs::trace_sink().take();
  events += snap.events.size();
  dropped += snap.dropped;
  auto& self = self_ms[bucket];
  for (const auto& row : obs::trace_rollup(snap)) self[row.name] += row.self_ms;
  if (kept.events.size() + snap.events.size() <= kMaxKept)
    kept.events.insert(kept.events.end(), snap.events.begin(), snap.events.end());
  kept.names = std::move(snap.names);
}

void Stats::fail(std::string why) {
  ++failed;
  if (failures.size() < kMaxFailureMessages) failures.push_back(std::move(why));
}

Stats& Stats::operator+=(const Stats& o) {
  attempted += o.attempted;
  failed += o.failed;
  for (const auto& f : o.failures)
    if (failures.size() < kMaxFailureMessages) failures.push_back(f);
  certify_ms.insert(certify_ms.end(), o.certify_ms.begin(), o.certify_ms.end());
  certify_s += o.certify_s;
  prove_s += o.prove_s;
  certify_vertices += o.certify_vertices;
  cert_bits += o.cert_bits;
  cert_bit_vertices += o.cert_bit_vertices;
  memo_hits += o.memo_hits;
  memo_misses += o.memo_misses;
  proved_vertices += o.proved_vertices;
  random_tree_feas += o.random_tree_feas;
  random_tree_proves += o.random_tree_proves;
  random_tree_misses += o.random_tree_misses;
  for (const auto& [key, bits] : o.cert_bits_max)
    cert_bits_max[key] = std::max(cert_bits_max[key], bits);
  verify_ms.insert(verify_ms.end(), o.verify_ms.begin(), o.verify_ms.end());
  verify_s += o.verify_s;
  verify_vertices += o.verify_vertices;
  edit_us.insert(edit_us.end(), o.edit_us.begin(), o.edit_us.end());
  edit_s += o.edit_s;
  dirty_path_len += o.dirty_path_len;
  reproved += o.reproved;
  reverified += o.reverified;
  changed += o.changed;
  edit_memo_misses += o.edit_memo_misses;
  reuse_ratio += o.reuse_ratio;
  full_reproves += o.full_reproves;
  for (std::size_t p = 0; p < member_samples.size(); ++p)
    for (std::size_t m = 0; m < o.member_samples[p].size(); ++m)
      for (double latency : o.member_samples[p][m])
        add_member_sample(static_cast<Phase>(p), m, latency);
  return *this;
}

double Stats::throughput(Phase p) const {
  switch (p) {
    case Phase::kCertify: return certify_vertices / certify_s;
    case Phase::kVerify: return verify_vertices / verify_s;
    case Phase::kEdit: return static_cast<double>(edit_us.size()) / edit_s;
  }
  return 0;
}

void Stats::add_member_sample(Phase p, std::size_t member, double latency) {
  auto& members = member_samples[static_cast<std::size_t>(p)];
  if (members.size() <= member) members.resize(member + 1);
  members[member].push_back(latency);
}

double Stats::member_median(Phase p) const {
  double log_sum = 0;
  std::size_t members = 0;
  for (auto samples : member_samples[static_cast<std::size_t>(p)]) {
    if (samples.empty()) continue;
    const auto mid = samples.begin() + static_cast<long>(samples.size() / 2);
    std::nth_element(samples.begin(), mid, samples.end());
    log_sum += std::log(*mid);
    ++members;
  }
  return members == 0 ? NAN : std::exp(log_sum / static_cast<double>(members));
}

Runner::Runner(Inputs& in, Stats& stats) : in_(in), stats_(&stats) {}

void Runner::run(Phase p, double budget_s) {
  const auto t0 = Clock::now();
  do {
    cycle(p);
    if (log_ != nullptr) log_->drain(bucket_name(p));
  } while (seconds(t0, Clock::now()) < budget_s);
}

void Runner::cycle(Phase p) {
  switch (p) {
    case Phase::kCertify:
      for (const auto& item : in_.certify) certify_op(item);
      break;
    case Phase::kVerify:
      for (const auto& item : in_.verify) verify_op(item);
      break;
    case Phase::kEdit:
      for (auto& stream : in_.edits)
        for (std::size_t i = 0; i < kEditsPerCycle; ++i) edit_op(stream);
      break;
  }
}

void Runner::certify_op(const CertifyItem& item) {
  const std::uint64_t op = ++op_;
  ++stats_->attempted;
  const std::size_t n = item.graph->vertex_count();
  try {
    ProveResult proved;
    std::optional<VerificationOutcome> outcome;
    Clock::time_point t0, t1, t2;
    {
      obs::TraceSpan root(spans().certify, op);
      t0 = Clock::now();
      {
        obs::TraceSpan s(spans().prove, op);
        proved = prove_assignment(*item.scheme, *item.graph);
      }
      t1 = Clock::now();
      if (proved.certificates) {
        obs::TraceSpan s(spans().verify_call, op);
        outcome = verify_assignment(*item.scheme, *item.graph, *proved.certificates);
      }
      t2 = Clock::now();
    }
    stats_->certify_ms.push_back(seconds(t0, t2) * 1e3);
    stats_->add_member_sample(Phase::kCertify,
                              static_cast<std::size_t>(&item - in_.certify.data()),
                              seconds(t0, t2) * 1e3);
    stats_->certify_s += seconds(t0, t2);
    stats_->prove_s += seconds(t0, t1);
    stats_->certify_vertices += static_cast<double>(n);
    stats_->memo_hits += proved.memo_hits;
    stats_->memo_misses += proved.memo_misses;
    stats_->proved_vertices += n;
    if (item.random_tree) {
      stats_->random_tree_feas += proved.feas;
      ++stats_->random_tree_proves;
      stats_->random_tree_misses += proved.memo_misses;
    }

    const std::string what = item.scheme_key + " n=" + std::to_string(n);
    if (!item.reference) {
      if (proved.certificates) stats_->fail(what + ": prover certified a no-instance");
      return;
    }
    if (!proved.certificates) return stats_->fail(what + ": prover refused a yes-instance");
    if (*proved.certificates != *item.reference)
      return stats_->fail(what + ": certificates differ from the serial prove");
    if (!outcome->all_accept || !outcome->rejecting.empty())
      return stats_->fail(what + ": verifier rejected honest certificates");
    stats_->cert_bits += outcome->total_certificate_bits;
    stats_->cert_bit_vertices += n;
    auto& max_bits = stats_->cert_bits_max[item.scheme_key];
    max_bits = std::max(max_bits, outcome->max_certificate_bits);
  } catch (const std::exception& e) {
    stats_->fail(item.scheme_key + ": exception: " + e.what());
  }
}

void Runner::verify_op(const VerifyItem& item) {
  const std::uint64_t op = ++op_;
  ++stats_->attempted;
  try {
    VerificationOutcome outcome;
    Clock::time_point t0, t1;
    {
      obs::TraceSpan root(spans().verify, op);
      t0 = Clock::now();
      if (item.honest()) {
        obs::TraceSpan s(spans().verify_call, op);
        outcome = verify_assignment(*item.scheme, *item.graph, *item.certificates);
      } else {
        RunOptions audit;
        audit.stop_at_first_reject = true;
        obs::TraceSpan s(spans().verify_cached, op);
        outcome = verify_assignment(*item.scheme, *item.cache, *item.certificates, audit);
      }
      t1 = Clock::now();
    }
    stats_->verify_ms.push_back(seconds(t0, t1) * 1e3);
    stats_->add_member_sample(Phase::kVerify, static_cast<std::size_t>(&item - in_.verify.data()),
                              seconds(t0, t1) * 1e3);
    stats_->verify_s += seconds(t0, t1);
    stats_->verify_vertices += static_cast<double>(item.graph->vertex_count());

    const bool verdict_ok = outcome.all_accept == item.accept &&
                            (!item.honest() || outcome.rejecting == item.rejecting);
    if (!verdict_ok)
      stats_->fail(item.scheme->name() + " " + item.family + ": verdict differs from reference");
  } catch (const std::exception& e) {
    stats_->fail(item.scheme->name() + " " + item.family + ": exception: " + e.what());
  }
}

void Runner::edit_op(EditStream& stream) {
  if (stream.next == stream.edits.size()) restart(stream);
  const std::size_t i = stream.next++;
  const GraphEdit* edit = &stream.edits[i];
  if (edit->kind == EditKind::kIdPermute) {
    stream.shuffle.kind = EditKind::kIdPermute;
    stream.shuffle.ids = stream.ids;
    shuffle_ids(stream.shuffle.ids, stream.shuffle_seeds[i]);
    edit = &stream.shuffle;
  }
  const std::uint64_t op = ++op_;
  ++stats_->attempted;
  try {
    IncrementalStats st;
    Clock::time_point t0, t1;
    {
      obs::TraceSpan root(spans().edit, op);
      t0 = Clock::now();
      {
        obs::TraceSpan s(spans().apply, op);
        st = stream.live->apply(*edit);
      }
      t1 = Clock::now();
    }
    stats_->edit_us.push_back(seconds(t0, t1) * 1e6);
    stats_->add_member_sample(Phase::kEdit, static_cast<std::size_t>(&stream - in_.edits.data()),
                              seconds(t0, t1) * 1e6);
    stats_->edit_s += seconds(t0, t1);
    stats_->dirty_path_len += static_cast<double>(st.dirty_path_len);
    stats_->reproved += static_cast<double>(st.reproved_vertices);
    stats_->reverified += static_cast<double>(st.reverified_vertices);
    stats_->changed += static_cast<double>(st.changed_certificates);
    stats_->edit_memo_misses += static_cast<double>(st.memo_misses);
    stats_->reuse_ratio += st.reuse_ratio;
    stats_->full_reproves += st.full_reprove ? 1 : 0;
    if (!st.certified || !st.reverify_clean)
      stats_->fail(stream.scheme_key + " " + to_string(*edit) + ": edit left the instance " +
                  (st.certified ? "with a failed re-verification" : "uncertified"));
  } catch (const std::exception& e) {
    stats_->fail(stream.scheme_key + " " + to_string(*edit) + ": exception: " + e.what());
  }
  switch (edit->kind) {
    case EditKind::kLeafGraft: stream.ids.push_back(edit->fresh_id); break;
    case EditKind::kLeafPrune:
      stream.ids.erase(stream.ids.begin() + static_cast<long>(edit->a));
      break;
    case EditKind::kIdPermute: stream.ids.swap(stream.shuffle.ids); break;
    default: break;
  }
  if (stream.next % kCheckpointEvery == 0) checkpoint(stream);
}

void Runner::checkpoint(EditStream& stream) {
  try {
    const Graph g = stream.live->graph();
    if (stream.next == stream.edits.size() && !same_graph(g, stream.end))
      stats_->fail(stream.scheme_key + ": the stream did not end on the graph drawn in set-up");
    const auto cold = prove_assignment(*stream.scheme, g);
    const auto& live = stream.live->certificates();
    if (!cold.certificates || !live || *cold.certificates != *live)
      stats_->fail(stream.scheme_key + ": incremental certificates differ from a cold prove");
  } catch (const std::exception& e) {
    stats_->fail(stream.scheme_key + ": checkpoint exception: " + e.what());
  }
}

void Runner::restart(EditStream& stream) {
  if (stream.next % kCheckpointEvery != 0) checkpoint(stream);
  stream.next = 0;
  stream.ids.clear();
  for (Vertex v = 0; v < stream.base->vertex_count(); ++v) stream.ids.push_back(stream.base->id(v));
  try {
    if (!stream.live->init(*stream.base))
      stats_->fail(stream.scheme_key + ": incremental init refused the base graph");
  } catch (const std::exception& e) {
    stats_->fail(stream.scheme_key + ": init exception: " + e.what());
  }
}

void Runner::checkpoint_all() {
  for (auto& stream : in_.edits) checkpoint(stream);
}

LayerProbe probe_layers(Inputs& in, double budget_s) {
  LayerProbe out;
  const double share = budget_s / 4;
  std::uint64_t op = 0;

  // graph: standalone RootedTree builds and level counts of the certify pool.
  {
    std::set<const Graph*> trees;
    for (const auto& item : in.certify)
      if (item.tree) trees.insert(item.graph);
    double build_s = 0, levels = 0;
    std::size_t builds = 0;
    const auto t0 = Clock::now();
    do {
      for (const Graph* g : trees) {
        obs::TraceSpan s(spans().from_graph, ++op);
        const auto a = Clock::now();
        const RootedTree t = RootedTree::from_graph(*g, 0);
        build_s += seconds(a, Clock::now());
        levels += static_cast<double>(t.height() + 1);
        ++builds;
      }
    } while (seconds(t0, Clock::now()) < share);
    out.rooted_tree_build_ms = build_s * 1e3 / static_cast<double>(builds);
    out.levels_per_instance = levels / static_cast<double>(builds);
  }

  // cert: the pieces of verify_assignment on the honest verify pool, against
  // the default-thread call they make up.
  std::vector<const VerifyItem*> honest;
  for (const auto& item : in.verify)
    if (item.honest() &&
        std::none_of(honest.begin(), honest.end(), [&](const VerifyItem* h) {
          return h->certificates == item.certificates;
        }))
      honest.push_back(&item);
  {
    double build_s = 0, bind_s = 0, batch_s = 0, wall_s = 0, vertices = 0;
    // The batch work spreads over the workers verify_assignment resolves;
    // what the pieces leave unexplained is fan-out cost and imbalance.
    double batch_share_s = 0;
    std::vector<ViewRef> views;
    std::vector<std::uint8_t> accept;
    const auto t0 = Clock::now();
    do {
      for (const VerifyItem* item : honest) {
        const std::size_t n = item->graph->vertex_count();
        const std::uint64_t id = ++op;
        auto a = Clock::now();
        std::optional<ViewCache> cache;
        {
          obs::TraceSpan s(spans().view_cache, id);
          cache.emplace(*item->graph);
        }
        auto b = Clock::now();
        build_s += seconds(a, b);
        a = b;
        std::optional<ViewCache::Binding> binding;
        {
          obs::TraceSpan s(spans().bind, id);
          binding.emplace(cache->bind(*item->certificates));
        }
        b = Clock::now();
        bind_s += seconds(a, b);
        a = b;
        {
          obs::TraceSpan s(spans().verify_batch, id);
          for (std::size_t begin = 0; begin < n; begin += kBatch) {
            const std::size_t end = std::min(n, begin + kBatch);
            views.clear();
            for (Vertex v = begin; v < end; ++v) views.push_back(binding->view(v));
            accept.assign(end - begin, 0);
            item->scheme->verify_batch(views, accept);
          }
        }
        b = Clock::now();
        batch_s += seconds(a, b);
        batch_share_s += seconds(a, b) / static_cast<double>(resolve_thread_count(0, n));
        a = b;
        {
          obs::TraceSpan s(spans().verify_call, id);
          verify_assignment(*item->scheme, *item->graph, *item->certificates);
        }
        wall_s += seconds(a, Clock::now());
        vertices += static_cast<double>(n);
      }
    } while (seconds(t0, Clock::now()) < share);
    out.view_cache_build_us_per_kvertex = build_s * 1e9 / vertices;
    out.bind_us_per_kvertex = bind_s * 1e9 / vertices;
    out.verify_batch_ns_per_vertex = batch_s * 1e9 / vertices;
    out.verify_fanout_overhead_frac = 1.0 - (build_s + bind_s + batch_share_s) / wall_s;
  }

  // util: serial against default-thread calls on the same inputs, alternating.
  const RunOptions serial = serial_options();
  {
    double serial_s = 0, parallel_s = 0;
    const auto t0 = Clock::now();
    do {
      for (const auto& item : in.certify) {
        auto a = Clock::now();
        {
          obs::TraceSpan s(spans().prove_serial, ++op);
          prove_assignment(*item.scheme, *item.graph, serial);
        }
        auto b = Clock::now();
        serial_s += seconds(a, b);
        {
          obs::TraceSpan s(spans().prove, op);
          prove_assignment(*item.scheme, *item.graph);
        }
        parallel_s += seconds(b, Clock::now());
      }
    } while (seconds(t0, Clock::now()) < share);
    out.prove_parallel_speedup = serial_s / parallel_s;
  }
  {
    double serial_s = 0, parallel_s = 0;
    const auto t0 = Clock::now();
    do {
      for (const VerifyItem* item : honest) {
        auto a = Clock::now();
        {
          obs::TraceSpan s(spans().verify_serial, ++op);
          verify_assignment(*item->scheme, *item->graph, *item->certificates, serial);
        }
        auto b = Clock::now();
        serial_s += seconds(a, b);
        {
          obs::TraceSpan s(spans().verify_call, op);
          verify_assignment(*item->scheme, *item->graph, *item->certificates);
        }
        parallel_s += seconds(b, Clock::now());
      }
    } while (seconds(t0, Clock::now()) < share);
    out.verify_parallel_speedup = serial_s / parallel_s;
  }
  return out;
}

}  // namespace perfbench
