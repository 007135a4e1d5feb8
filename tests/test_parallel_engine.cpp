// Determinism and correctness of the zero-copy parallel verification engine:
// serial and parallel verify_assignment must be bit-for-bit identical across
// the whole scheme registry, ViewCache views must agree element-for-element
// with make_view, the audit's trial fan-out must not change its verdicts, and
// the worker pool itself must visit every index exactly once. These tests are
// the ones the ThreadSanitizer preset (-DLCERT_SANITIZE=thread) replays.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>

#include "src/cert/audit.hpp"
#include "src/cert/engine.hpp"
#include "src/graph/generators.hpp"
#include "src/schemes/registry.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"

namespace lcert {
namespace {

constexpr std::size_t kForcedThreads = 4;  ///< explicit, so small graphs still fan out

void expect_identical(const VerificationOutcome& a, const VerificationOutcome& b,
                      const std::string& label) {
  EXPECT_EQ(a.all_accept, b.all_accept) << label;
  EXPECT_EQ(a.rejecting, b.rejecting) << label;
  EXPECT_EQ(a.max_certificate_bits, b.max_certificate_bits) << label;
  EXPECT_EQ(a.total_certificate_bits, b.total_certificate_bits) << label;
}

class ParallelEngineSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelEngineSweep, SerialAndParallelAgreeOnYesAndCorrupted) {
  const auto entry = scheme_registry().at(GetParam());
  const auto scheme = entry.make();
  Rng rng(7000 + GetParam());
  const Graph g = entry.family.yes_instance(16, rng);
  const auto certs = scheme->assign(g);
  ASSERT_TRUE(certs.has_value()) << entry.key;

  const RunOptions serial{1, false};
  const RunOptions parallel{kForcedThreads, false};

  // Honest assignment.
  expect_identical(verify_assignment(*scheme, g, *certs, serial),
                   verify_assignment(*scheme, g, *certs, parallel), entry.key + " honest");

  // One flipped bit in the first non-empty certificate.
  auto corrupted = *certs;
  for (auto& c : corrupted) {
    if (c.bit_size == 0) continue;
    c.bytes[0] ^= 0x80u;
    break;
  }
  expect_identical(verify_assignment(*scheme, g, corrupted, serial),
                   verify_assignment(*scheme, g, corrupted, parallel),
                   entry.key + " corrupted");

  // Truncated-to-empty certificates everywhere.
  const std::vector<Certificate> empty(g.vertex_count());
  expect_identical(verify_assignment(*scheme, g, empty, serial),
                   verify_assignment(*scheme, g, empty, parallel), entry.key + " empty");
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ParallelEngineSweep,
                         ::testing::Range<std::size_t>(0, scheme_registry().size()));

TEST(ParallelEngine, StopAtFirstRejectMatchesFullVerdict) {
  const auto entry = find_scheme("vertex-parity");
  const auto scheme = entry.make();
  Rng rng(7100);
  const Graph g = entry.family.yes_instance(32, rng);
  const auto certs = scheme->assign(g);
  ASSERT_TRUE(certs.has_value());

  for (std::size_t threads : {std::size_t{1}, kForcedThreads}) {
    const RunOptions early{threads, true};
    EXPECT_TRUE(verify_assignment(*scheme, g, *certs, early).all_accept);
    const std::vector<Certificate> empty(g.vertex_count());
    const auto outcome = verify_assignment(*scheme, g, empty, early);
    EXPECT_FALSE(outcome.all_accept);
    EXPECT_FALSE(outcome.rejecting.empty());  // at least one witness
  }
}

// ---------------------------------------------------------------------------
// ViewCache vs make_view.
// ---------------------------------------------------------------------------

std::vector<Certificate> random_assignment(std::size_t n, Rng& rng) {
  std::vector<Certificate> certs(n);
  for (auto& c : certs) {
    BitWriter w;
    const std::size_t bits = rng.index(24);
    for (std::size_t i = 0; i < bits; ++i) w.write_bit(rng.coin());
    c = Certificate::from_writer(w);
  }
  return certs;
}

void expect_cache_matches_make_view(const Graph& g, Rng& rng, const std::string& label) {
  const auto certs = random_assignment(g.vertex_count(), rng);
  const ViewCache cache(g);
  ASSERT_EQ(cache.vertex_count(), g.vertex_count()) << label;
  const auto binding = cache.bind(certs);
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    const View owned = make_view(g, certs, v);
    const ViewRef ref = binding.view(v);
    ASSERT_EQ(ref.id, owned.id) << label;
    ASSERT_EQ(*ref.certificate, owned.certificate) << label;
    ASSERT_EQ(ref.degree(), owned.degree()) << label;
    for (std::size_t i = 0; i < owned.neighbors.size(); ++i) {
      EXPECT_EQ(ref.neighbors()[i].id, owned.neighbors[i].id) << label << " v=" << v;
      EXPECT_EQ(*ref.neighbors()[i].certificate, owned.neighbors[i].certificate)
          << label << " v=" << v;
    }
    // The accessor helpers agree too.
    for (const auto& nb : owned.neighbors) {
      EXPECT_TRUE(ref.has_neighbor_id(nb.id)) << label;
      ASSERT_NE(ref.neighbor_certificate(nb.id), nullptr) << label;
    }
    EXPECT_FALSE(ref.has_neighbor_id(987654321u)) << label;
    EXPECT_EQ(ref.neighbor_certificate(987654321u), nullptr) << label;
  }
}

Graph cliques_of_paths(std::size_t cliques, std::size_t clique_size, std::size_t path_len) {
  // Cliques strung together by paths: mixes dense and sparse neighborhoods.
  std::vector<std::pair<Vertex, Vertex>> edges;
  Vertex next = 0;
  Vertex prev_exit = 0;
  for (std::size_t c = 0; c < cliques; ++c) {
    const Vertex base = next;
    for (std::size_t i = 0; i < clique_size; ++i)
      for (std::size_t j = i + 1; j < clique_size; ++j)
        edges.emplace_back(base + i, base + j);
    next += clique_size;
    if (c > 0) {
      Vertex hook = prev_exit;
      for (std::size_t p = 0; p < path_len; ++p) {
        edges.emplace_back(hook, next);
        hook = next++;
      }
      edges.emplace_back(hook, base);
    }
    prev_exit = base + clique_size - 1;
  }
  return Graph(next, edges);
}

TEST(ViewCache, MatchesMakeViewOnRandomTrees) {
  Rng rng(7200);
  for (int trial = 0; trial < 8; ++trial) {
    Graph g = make_random_tree(2 + rng.index(60), rng);
    assign_random_ids(g, rng);
    expect_cache_matches_make_view(g, rng, "random-tree");
  }
}

TEST(ViewCache, MatchesMakeViewOnCliquesOfPaths) {
  Rng rng(7300);
  Graph g = cliques_of_paths(4, 5, 3);
  assign_random_ids(g, rng);
  expect_cache_matches_make_view(g, rng, "cliques-of-paths");
}

TEST(ViewCache, MatchesMakeViewOnGeneratorZoo) {
  Rng rng(7400);
  std::vector<std::pair<std::string, Graph>> zoo;
  zoo.emplace_back("path", make_path(17));
  zoo.emplace_back("cycle", make_cycle(12));
  zoo.emplace_back("star", make_star(15));
  zoo.emplace_back("complete", make_complete(9));
  zoo.emplace_back("complete-bipartite", make_complete_bipartite(4, 7));
  zoo.emplace_back("caterpillar", make_caterpillar(6, 2));
  zoo.emplace_back("spider", make_spider(4, 3));
  zoo.emplace_back("binary-tree", make_complete_binary_tree(4));
  zoo.emplace_back("random-connected", make_random_connected(25, 0.2, rng));
  for (auto& [name, g] : zoo) {
    assign_random_ids(g, rng);
    expect_cache_matches_make_view(g, rng, name);
  }
}

TEST(ViewCache, RebindSwitchesAssignmentsWithoutRebuilding) {
  Rng rng(7500);
  Graph g = make_random_tree(30, rng);
  assign_random_ids(g, rng);
  const ViewCache cache(g);
  const auto a = random_assignment(30, rng);
  const auto b = random_assignment(30, rng);
  const auto bind_a = cache.bind(a);
  const auto bind_b = cache.bind(b);  // bindings are independent snapshots
  for (Vertex v = 0; v < 30; ++v) {
    EXPECT_EQ(*bind_a.view(v).certificate, a[v]);
    EXPECT_EQ(*bind_b.view(v).certificate, b[v]);
  }
  EXPECT_THROW(cache.bind(std::vector<Certificate>(7)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Both verify_assignment overloads vs a make_view + Scheme::verify reference.
// The engine assembles each block's views in per-worker scratch; these pin
// that every thread count, on both overloads, decides exactly as the
// one-view-at-a-time reference does.
// ---------------------------------------------------------------------------

VerificationOutcome reference_outcome(const Scheme& scheme, const Graph& g,
                                      const std::vector<Certificate>& certs) {
  VerificationOutcome out;
  for (const Certificate& c : certs) {
    out.max_certificate_bits = std::max(out.max_certificate_bits, c.bit_size);
    out.total_certificate_bits += c.bit_size;
  }
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    View view = make_view(g, certs, v);
    bool ok = false;
    try {
      ok = scheme.verify(view.as_ref());
    } catch (const CertificateTruncated&) {
    }
    if (!ok) out.rejecting.push_back(v);
  }
  out.all_accept = out.rejecting.empty();
  return out;
}

std::vector<Certificate> truncated_to_half(std::vector<Certificate> certs) {
  for (Certificate& c : certs) {
    c.bit_size /= 2;
    c.bytes.resize((c.bit_size + 7) / 8);
    if (c.bit_size % 8 != 0)
      c.bytes.back() &= static_cast<std::uint8_t>(0xFF00u >> (c.bit_size % 8));
  }
  return certs;
}

void expect_engine_matches_reference(const std::string& key, const Graph& g, Rng& rng,
                                     bool expect_honest) {
  const auto scheme = find_scheme(key).make();
  std::vector<std::pair<std::string, std::vector<Certificate>>> assignments;
  if (const auto honest = scheme->assign(g)) {
    assignments.emplace_back("honest", *honest);
    assignments.emplace_back("truncated", truncated_to_half(*honest));
  } else {
    ASSERT_FALSE(expect_honest) << key << ": prover failed";
  }
  assignments.emplace_back("random", random_assignment(g.vertex_count(), rng));
  const ViewCache cache(g);
  for (const auto& [kind, certs] : assignments) {
    const VerificationOutcome want = reference_outcome(*scheme, g, certs);
    if (kind == "honest") EXPECT_TRUE(want.all_accept) << key;
    for (std::size_t threads : {0, 1, 2, 4}) {
      const RunOptions full{threads, false};
      const std::string label =
          key + " " + kind + " n=" + std::to_string(g.vertex_count()) +
          " threads=" + std::to_string(threads);
      expect_identical(verify_assignment(*scheme, g, certs, full), want, label + " graph");
      expect_identical(verify_assignment(*scheme, cache, certs, full), want, label + " cache");
    }
  }
}

TEST(ParallelEngine, BothOverloadsMatchReferenceOnAStar) {
  // The centre's degree (4095) is far past a 128-vertex block, so its block
  // grows the worker scratch well beyond every other block's.
  Rng rng(7800);
  Graph g = make_star(4096);
  assign_random_ids(g, rng);
  for (const char* key : {"vertex-parity", "mso-leaves4"})
    expect_engine_matches_reference(key, g, rng, true);
}

TEST(ParallelEngine, BothOverloadsMatchReferenceOnCliquesOfPaths) {
  Rng rng(7900);
  Graph g = cliques_of_paths(40, 5, 3);  // n = 317: dense blocks, ragged tail
  assign_random_ids(g, rng);
  for (const char* key : {"vertex-parity", "c4-minor-free", "universal-triangle-free"})
    expect_engine_matches_reference(key, g, rng, false);
}

TEST(ParallelEngine, BothOverloadsMatchReferenceOnARaggedTree) {
  Rng rng(8000);
  Graph g = make_random_tree(1000, rng);  // 1000 = 7 * 128 + 104
  assign_random_ids(g, rng);
  for (const char* key : {"vertex-parity", "mso-leaves4", "mso-caterpillar"})
    expect_engine_matches_reference(key, g, rng, false);
}

TEST(ParallelEngine, WrongSizeAssignmentThrowsFromBothOverloads) {
  const auto scheme = find_scheme("vertex-parity").make();
  const Graph g = make_path(10);
  const ViewCache cache(g);
  for (std::size_t size : {std::size_t{0}, std::size_t{9}, std::size_t{11}}) {
    const std::vector<Certificate> certs(size);
    EXPECT_THROW(verify_assignment(*scheme, g, certs), std::invalid_argument);
    EXPECT_THROW(verify_assignment(*scheme, cache, certs), std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// Audit determinism under trial parallelism.
// ---------------------------------------------------------------------------

TEST(AuditDeterminism, SoundSchemeVerdictIndependentOfThreads) {
  const auto entry = find_scheme("mso-caterpillar");
  const auto scheme = entry.make();
  Rng rng_template(7600);
  const Graph no = entry.family.no_instance(12, rng_template);
  const Graph yes = entry.family.yes_instance(no.vertex_count(), rng_template);
  const auto tmpl = scheme->assign(yes);

  RunOptions serial;
  serial.random_trials = 50;
  serial.mutation_trials = 50;
  serial.num_threads = 1;
  RunOptions parallel = serial;
  parallel.num_threads = kForcedThreads;

  Rng rng_a(42), rng_b(42);
  const auto r_serial =
      attack_soundness(*scheme, no, tmpl.has_value() ? &*tmpl : nullptr, rng_a, serial);
  const auto r_parallel =
      attack_soundness(*scheme, no, tmpl.has_value() ? &*tmpl : nullptr, rng_b, parallel);
  EXPECT_FALSE(r_serial.has_value());
  EXPECT_FALSE(r_parallel.has_value());
}

TEST(AuditDeterminism, ForgeryAgainstUnsoundSchemeIsReproducible) {
  // Accepts iff the local certificate is non-empty: random trials forge this
  // instantly, and the lowest-numbered successful trial must win regardless
  // of the thread count.
  class AcceptNonEmpty final : public Scheme {
   public:
    std::string name() const override { return "accept-nonempty"; }
    bool holds(const Graph&) const override { return false; }
    std::optional<std::vector<Certificate>> assign(const Graph&) const override {
      return std::nullopt;
    }
    bool verify(const ViewRef& view) const override {
      return view.certificate->bit_size > 0;
    }
  };
  AcceptNonEmpty scheme;
  Rng rng_g(7700);
  Graph g = make_path(6);
  assign_random_ids(g, rng_g);

  RunOptions serial;
  serial.num_threads = 1;
  RunOptions parallel;
  parallel.num_threads = kForcedThreads;

  Rng rng_a(99), rng_b(99);
  const auto r_serial = attack_soundness(scheme, g, nullptr, rng_a, serial);
  const auto r_parallel = attack_soundness(scheme, g, nullptr, rng_b, parallel);
  ASSERT_TRUE(r_serial.has_value());
  ASSERT_TRUE(r_parallel.has_value());
  EXPECT_EQ(r_serial->attack, r_parallel->attack);
  EXPECT_EQ(r_serial->certificates, r_parallel->certificates);
}

// ---------------------------------------------------------------------------
// The worker pool itself.
// ---------------------------------------------------------------------------

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    const std::size_t n = 10007;
    std::vector<std::atomic<int>> hits(n);
    parallel_for(n, threads, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelFor, PropagatesTheFirstException) {
  EXPECT_THROW(parallel_for(5000, 4,
                            [](std::size_t i) {
                              if (i == 1234) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ParallelFor, ResolveThreadCountHonorsExplicitRequests) {
  EXPECT_EQ(resolve_thread_count(4, 10), 4u);   // explicit wins below the cutoff
  EXPECT_EQ(resolve_thread_count(4, 2), 2u);    // but never more workers than items
  EXPECT_EQ(resolve_thread_count(0, 10), 1u);   // auto stays serial on tiny inputs
  EXPECT_EQ(resolve_thread_count(0, 1), 1u);
}

TEST(BitIo, TruncationErrorTypeIsDedicated) {
  BitWriter w;
  w.write(5, 3);
  BitReader r(w);
  r.read(3);
  EXPECT_THROW(r.read(1), CertificateTruncated);
  // Back-compat: it still is-a std::out_of_range for older catch sites.
  BitReader r2(w);
  r2.read(3);
  EXPECT_THROW(r2.read(1), std::out_of_range);
}

}  // namespace
}  // namespace lcert
