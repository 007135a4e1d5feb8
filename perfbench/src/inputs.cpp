#include "inputs.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "src/cert/prove.hpp"
#include "src/fuzz/mutators.hpp"
#include "src/graph/generators.hpp"
#include "src/schemes/registry.hpp"
#include "src/schemes/treedepth_scheme.hpp"
#include "src/util/rng.hpp"

namespace perfbench {
namespace {

using namespace lcert;
using Clock = std::chrono::steady_clock;

// Instance sizes of the measured runs (the smoke test divides them).
constexpr std::size_t kTreeN = 16384;          // random, caterpillar, matched trees
constexpr std::size_t kSmallBinaryLevels = 14;  // 16383 vertices
constexpr std::size_t kLargeBinaryLevels = 17;  // 131071 vertices
constexpr std::size_t kTreedepthN = 4096;
constexpr std::size_t kStarN = 4096;
constexpr std::size_t kStreamEdits = 16384;  // per stream
constexpr std::size_t kMaxRandomBits = 64;  // the audit's default random length

void fail(const std::string& what) { throw std::runtime_error("perfbench setup: " + what); }

/// Complete binary tree levels after shrinking the size by `divisor`.
std::size_t scaled_levels(std::size_t levels, std::size_t divisor) {
  for (std::size_t d = divisor; d > 1 && levels > 3; d /= 2) --levels;
  return levels;
}

/// A random spine tree on m vertices with one pendant partner per spine
/// vertex: the pendant edges are a perfect matching, and re-hanging a spine
/// subtree under another spine vertex keeps it one.
Graph make_matched_tree(std::size_t m, Rng& rng) {
  const Graph spine = make_random_tree(m, rng);
  auto edges = spine.edges();
  for (Vertex v = 0; v < m; ++v) edges.emplace_back(v, m + v);
  return Graph(2 * m, edges);
}

/// Vertices rejecting `certs`, decided one view at a time through make_view
/// and Scheme::verify — deliberately not through ViewCache or verify_batch,
/// the paths the timed loop exercises.
std::vector<Vertex> reference_rejecting(const Scheme& scheme, const Graph& g,
                                        const Assignment& certs) {
  std::vector<Vertex> out;
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    View view = make_view(g, certs, v);
    bool ok = false;
    try {
      ok = scheme.verify(view.as_ref());
    } catch (const CertificateTruncated&) {
      ok = false;
    }
    if (!ok) out.push_back(v);
  }
  return out;
}

/// Keeps the first `bits` bits of `c`, zeroing the padding of the last byte.
Certificate truncate_to(const Certificate& c, std::size_t bits) {
  Certificate out;
  out.bit_size = bits;
  out.bytes.assign(c.bytes.begin(), c.bytes.begin() + static_cast<long>((bits + 7) / 8));
  if (bits % 8 != 0) out.bytes.back() &= static_cast<std::uint8_t>(0xFF00u >> (bits % 8));
  return out;
}

Certificate random_certificate(Rng& rng) {
  Certificate c;
  c.bit_size = rng.index(kMaxRandomBits + 1);
  c.bytes.resize((c.bit_size + 7) / 8);
  for (auto& b : c.bytes) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
  return truncate_to(c, c.bit_size);
}

/// The verifier's input families of the audit (src/cert/audit.hpp), drawn
/// once: random strings, truncations, single bit-flips, a shuffled replay.
std::vector<std::pair<std::string, Assignment>> forge(const Assignment& honest, Rng& rng) {
  const std::size_t n = honest.size();
  std::vector<std::pair<std::string, Assignment>> out;

  Assignment random(n);
  for (auto& c : random) c = random_certificate(rng);
  out.emplace_back("random", std::move(random));

  Assignment truncated(n);
  for (std::size_t v = 0; v < n; ++v) truncated[v] = truncate_to(honest[v], honest[v].bit_size / 2);
  out.emplace_back("truncated", std::move(truncated));

  Assignment flipped = honest;
  std::size_t v = rng.index(n);
  while (flipped[v].bit_size == 0) v = rng.index(n);
  const std::size_t bit = rng.index(flipped[v].bit_size);
  flipped[v].bytes[bit / 8] ^= static_cast<std::uint8_t>(0x80u >> (bit % 8));
  out.emplace_back("bit-flip", std::move(flipped));

  Assignment shuffled(n);
  const auto perm = rng.permutation(n);
  for (std::size_t u = 0; u < n; ++u) shuffled[u] = honest[perm[u]];
  out.emplace_back("replay-shuffled", std::move(shuffled));
  return out;
}

// ---------------------------------------------------------------------------
// Edit streams. The mix is that of `lcert_cli watch`: each step draws one of
// fuzz::tree_preserving_mutators() uniformly, with the parameter rules of
// fuzz::draw_edit (any anchor, any leaf, any non-root subtree under a new
// parent outside it, a shuffle of every id), and redraws up to
// kWatchAttempts times while the edit would break the scheme's property.
//
// Draws run against a shadow of the tree kept as parent pointers from a
// root of its own, so that a draw and its property check cost O(depth)
// rather than the O(n) of fuzz::draw_edit on an lcert::Graph: the watch mix
// moves heavy-tailed subtree sizes, and only tens of thousands of edits per
// stream make a stream's mean edit cost the same from seed to seed. Uniform
// choices over a subset (a leaf, a new parent outside the moved subtree) are
// made by rejection, which keeps them uniform.
// ---------------------------------------------------------------------------

constexpr std::size_t kWatchAttempts = 16;  // as in lcert_cli watch
constexpr std::size_t kRejectionTries = 64;  // then enumerate the subset
constexpr Vertex kNone = SIZE_MAX;

enum class Property {
  kLeaves4,          ///< at least four leaves
  kPerfectMatching,  ///< has a perfect matching
};

class Shadow {
 public:
  Shadow(const Graph& g, Property property)
      : property_(property), parent_(g.vertex_count(), kNone), degree_(g.vertex_count()),
        ids_(g.vertex_count()) {
    const std::size_t n = g.vertex_count();
    std::vector<Vertex> order{0};
    std::vector<char> seen(n, 0);
    seen[0] = 1;
    for (std::size_t head = 0; head < order.size(); ++head)
      for (Vertex w : g.neighbors(order[head]))
        if (!seen[w]) {
          seen[w] = 1;
          parent_[w] = order[head];
          order.push_back(w);
        }
    for (Vertex v = 0; v < n; ++v) {
      degree_[v] = g.degree(v);
      leaves_ += degree_[v] == 1;
      ids_[v] = g.id(v);
      used_.insert(ids_[v]);
    }
    if (property_ == Property::kPerfectMatching) {
      // Greedy leaves-up matching: a tree has a perfect matching iff it
      // succeeds, and the matching is then unique.
      mate_.assign(n, kNone);
      for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const Vertex v = *it;
        if (mate_[v] != kNone) continue;
        if (parent_[v] == kNone || mate_[parent_[v]] != kNone)
          fail("base graph has no perfect matching");
        mate_[v] = parent_[v];
        mate_[parent_[v]] = v;
      }
    } else if (leaves_ < 4) {
      fail("base graph has fewer than four leaves");
    }
  }

  std::size_t size() const { return parent_.size(); }

  /// One random legal application of `kind` by the rules of fuzz::draw_edit.
  /// An id shuffle comes back without its ids: `shuffle_seed` receives the
  /// seed that shuffle_ids expands it from.
  std::optional<GraphEdit> draw(EditKind kind, Rng& rng, std::uint64_t& shuffle_seed) {
    const std::size_t n = size();
    GraphEdit e;
    e.kind = kind;
    switch (kind) {
      case EditKind::kLeafGraft: {
        e.a = rng.index(n);
        const std::uint64_t hi = static_cast<std::uint64_t>(n + 1) * (n + 1) + 1;
        do e.fresh_id = rng.uniform(1, hi);
        while (used_.count(e.fresh_id) != 0);
        return e;
      }
      case EditKind::kLeafPrune: {
        if (n <= 2) return std::nullopt;
        e.a = pick(rng, [&](Vertex v) { return degree_[v] == 1; });
        return e;
      }
      case EditKind::kSubtreeSwap: {
        if (n < 3) return std::nullopt;
        // Root anywhere; move any non-root vertex with its subtree.
        const Vertex root = rng.index(n);
        Vertex moved = rng.index(n - 1);
        moved += moved >= root;
        // The old parent is the next vertex from `moved` towards `root`:
        // the child of `moved` on the shadow's path from `root` up, if
        // `moved` is on that path, else the shadow parent of `moved`.
        Vertex toward = kNone;
        for (Vertex v = root, prev = kNone; v != kNone; prev = v, v = parent_[v])
          if (v == moved) {
            toward = prev;
            break;
          }
        const Vertex old_parent = toward == kNone ? parent_[moved] : toward;
        // The moved subtree is the shadow subtree of `moved`, or, when the
        // root lies below `moved`, everything outside that of `toward`.
        const auto outside = [&](Vertex v) {
          if (v == old_parent) return false;
          return toward == kNone ? !below(moved, v) : below(toward, v);
        };
        const Vertex new_parent = pick(rng, outside);
        if (new_parent == kNone) return std::nullopt;
        e.a = moved;
        e.b = new_parent;
        e.c = old_parent;
        return e;
      }
      case EditKind::kIdPermute:
        shuffle_seed = rng.uniform(0, UINT64_MAX);
        return e;
      default: fail("edit kind outside the watch mix");
    }
    return std::nullopt;
  }

  /// Applies `e` if the property still holds afterwards; returns whether it
  /// did. Neither property depends on ids.
  bool apply_if_holds(const GraphEdit& e, std::uint64_t shuffle_seed) {
    switch (e.kind) {
      case EditKind::kIdPermute:
        shuffle_ids(ids_, shuffle_seed);
        return true;
      case EditKind::kLeafGraft:
        if (property_ == Property::kPerfectMatching) return false;  // odd vertex count
        leaves_ += degree_[e.a] == 1 ? 0 : 1;
        parent_.push_back(e.a);
        ++degree_[e.a];
        degree_.push_back(1);
        ids_.push_back(e.fresh_id);
        used_.insert(e.fresh_id);
        return true;
      case EditKind::kLeafPrune: {
        if (property_ == Property::kPerfectMatching) return false;  // odd vertex count
        const Vertex v = e.a;
        Vertex u = parent_[v];
        if (u == kNone)  // the shadow's root: its one child becomes the root
          u = static_cast<Vertex>(std::find(parent_.begin(), parent_.end(), v) - parent_.begin());
        const std::size_t leaves = leaves_ - 1 + (degree_[u] == 2 ? 1 : 0);
        if (leaves < 4) return false;
        leaves_ = leaves;
        if (parent_[v] == kNone) parent_[u] = kNone;
        --degree_[u];
        parent_.erase(parent_.begin() + static_cast<long>(v));
        degree_.erase(degree_.begin() + static_cast<long>(v));
        used_.erase(ids_[v]);
        ids_.erase(ids_.begin() + static_cast<long>(v));
        for (Vertex& p : parent_) p -= p != kNone && p > v;
        return true;
      }
      case EditKind::kSubtreeSwap: {
        const Vertex m = e.a, b = e.b, c = e.c;
        if (property_ == Property::kPerfectMatching) {
          if (mate_[m] == c && !rematch(m, b, c)) return false;
        } else {
          const std::size_t leaves =
              leaves_ - (degree_[b] == 1 ? 1 : 0) + (degree_[c] == 2 ? 1 : 0);
          if (leaves < 4) return false;
          leaves_ = leaves;
        }
        --degree_[c];
        ++degree_[b];
        if (parent_[m] == c) {
          parent_[m] = b;
        } else {
          // `c` hangs below `m`: re-hang c's shadow subtree from `b` (which
          // lies in it) by reversing the parent pointers from `b` up to `c`.
          for (Vertex v = b, prev = m;;) {
            const Vertex next = parent_[v];
            parent_[v] = prev;
            if (v == c) break;
            prev = v;
            v = next;
          }
        }
        return true;
      }
      default: fail("edit kind outside the watch mix");
    }
    return false;
  }

  Graph graph() const {
    std::vector<std::pair<Vertex, Vertex>> edges;
    for (Vertex v = 0; v < size(); ++v)
      if (parent_[v] != kNone) edges.emplace_back(v, parent_[v]);
    Graph g(size(), edges);
    g.set_ids(ids_);
    return g;
  }

 private:
  /// Whether `v` lies in the shadow subtree of `x`.
  bool below(Vertex x, Vertex v) const {
    for (; v != kNone; v = parent_[v])
      if (v == x) return true;
    return false;
  }

  /// A uniform vertex with `in(v)`, by rejection, then by enumeration;
  /// kNone when there is none.
  template <typename In>
  Vertex pick(Rng& rng, const In& in) const {
    for (std::size_t t = 0; t < kRejectionTries; ++t) {
      const Vertex v = rng.index(size());
      if (in(v)) return v;
    }
    std::vector<Vertex> all;
    for (Vertex v = 0; v < size(); ++v)
      if (in(v)) all.push_back(v);
    return all.empty() ? kNone : all[rng.index(all.size())];
  }

  /// The matched edge {m, c} is cut and {m, b} added. The tree keeps a
  /// perfect matching iff the path from `c` to `b` alternates, starting with
  /// an unmatched edge and ending on b's matched edge; then it is flipped.
  bool rematch(Vertex m, Vertex b, Vertex c) {
    std::vector<Vertex> up_c, up_b;
    for (Vertex v = c; v != kNone; v = parent_[v]) up_c.push_back(v);
    for (Vertex v = b; v != kNone; v = parent_[v]) up_b.push_back(v);
    // Drop the common part above the meeting vertex.
    while (up_c.size() > 1 && up_b.size() > 1 && up_c[up_c.size() - 2] == up_b[up_b.size() - 2]) {
      up_c.pop_back();
      up_b.pop_back();
    }
    std::vector<Vertex> path = std::move(up_c);  // c .. meeting vertex
    path.insert(path.end(), up_b.rbegin() + 1, up_b.rend());  // .. b
    if (path.size() % 2 == 0) return false;
    for (std::size_t i = 1; i + 1 < path.size(); i += 2)
      if (mate_[path[i]] != path[i + 1]) return false;
    for (std::size_t i = 0; i + 1 < path.size(); i += 2) {
      mate_[path[i]] = path[i + 1];
      mate_[path[i + 1]] = path[i];
    }
    mate_[m] = b;
    mate_[b] = m;
    return true;
  }

  Property property_;
  std::vector<Vertex> parent_;  ///< kNone at the shadow's root
  std::vector<std::size_t> degree_;
  std::vector<VertexId> ids_;
  std::vector<Vertex> mate_;  ///< the perfect matching (kPerfectMatching only)
  std::unordered_set<VertexId> used_;
  std::size_t leaves_ = 0;
};

/// `length` edits of the watch mix from the stream's base graph.
void draw_stream(EditStream& stream, Property property, std::size_t length, Rng& rng) {
  const std::vector<EditKind> kinds = fuzz::tree_preserving_mutators();
  Shadow shadow(*stream.base, property);
  for (std::size_t step = 0; stream.edits.size() < length; ++step) {
    if (step > 64 * length) fail("edit stream: no legal edit found");
    for (std::size_t attempt = 0; attempt < kWatchAttempts; ++attempt) {
      std::uint64_t seed = 0;
      auto e = shadow.draw(kinds[rng.index(kinds.size())], rng, seed);
      if (e && shadow.apply_if_holds(*e, seed)) {
        stream.edits.push_back(std::move(*e));
        stream.shuffle_seeds.push_back(seed);
        break;
      }
    }
  }
  stream.end = shadow.graph();
  if (!stream.scheme->holds(stream.end))
    fail(stream.scheme_key + ": edit stream broke the property");
}

// ---------------------------------------------------------------------------

std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}
std::uint64_t hash_graph(std::uint64_t h, const Graph& g) {
  h = mix(h, g.vertex_count());
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    h = mix(h, g.id(v));
    for (Vertex w : g.neighbors(v)) h = mix(h, w);
  }
  return h;
}
std::uint64_t hash_assignment(std::uint64_t h, const Assignment& a) {
  for (const auto& c : a) {
    h = mix(h, c.bit_size);
    for (auto b : c.bytes) h = mix(h, b);
  }
  return h;
}

}  // namespace

void shuffle_ids(std::vector<VertexId>& ids, std::uint64_t seed) {
  for (std::size_t i = ids.size(); i > 1; --i) {
    // splitmix64, then a multiply-shift bound: fast, and uniform enough for
    // relabelling.
    seed += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = seed;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    const auto j = static_cast<std::size_t>((static_cast<unsigned __int128>(z) * i) >> 64);
    std::swap(ids[i - 1], ids[j]);
  }
}

std::unique_ptr<Inputs> build_inputs(std::uint64_t seed, std::size_t divisor) {
  auto in = std::make_unique<Inputs>();
  Rng rng(seed);
  const auto keep = [&](Graph g) -> const Graph& {
    in->graphs.push_back(std::make_unique<Graph>(std::move(g)));
    return *in->graphs.back();
  };
  const auto with_ids = [&](Graph g) {
    assign_random_ids(g, rng);
    return g;
  };

  // --- graph layer: every generator call, timed as graph.generate_s -------
  const auto t0 = Clock::now();
  const std::size_t n = std::max<std::size_t>(kTreeN / divisor, 64);
  const Graph& random_tree = keep(with_ids(make_random_tree(n, rng)));
  const Graph& matched = keep(with_ids(make_matched_tree(n / 2, rng)));
  const Graph& caterpillar = keep(with_ids(make_caterpillar(n / 2, 1)));
  const Graph& small_binary =
      keep(with_ids(make_complete_binary_tree(scaled_levels(kSmallBinaryLevels, divisor))));
  const Graph& large_binary =
      keep(with_ids(make_complete_binary_tree(scaled_levels(kLargeBinaryLevels, divisor))));
  const Graph& star = keep(with_ids(make_star(std::max<std::size_t>(kStarN / divisor, 8))));
  auto td = make_bounded_treedepth_graph(std::max<std::size_t>(kTreedepthN / divisor, 32), 5,
                                         0.3, rng);
  const Graph& bounded_td = keep(with_ids(std::move(td.graph)));
  in->generate_s = std::chrono::duration<double>(Clock::now() - t0).count();

  const auto scheme = [&](const std::string& key) -> const Scheme& {
    in->schemes.push_back(find_scheme(key).make());
    return *in->schemes.back();
  };
  const Scheme& leaves4 = scheme("mso-leaves4");
  const Scheme& caterpillar_scheme = scheme("mso-caterpillar");
  const Scheme& matching = scheme("mso-perfect-matching");
  const Scheme& parity = scheme("vertex-parity");
  const Scheme& p5 = scheme("p5-minor-free");
  // The generator's own elimination tree as the witness, as in
  // bench/bench_prove_throughput.cpp: the exact treedepth search does not
  // scale to these sizes.
  in->schemes.push_back(std::make_unique<TreedepthScheme>(
      5, [witness = td.elimination_tree](const Graph&) { return witness; }));
  const Scheme& treedepth = *in->schemes.back();

  RunOptions serial;
  serial.num_threads = 1;
  const auto serial_prove = [&](const Scheme& s, const Graph& g) {
    return prove_assignment(s, g, serial).certificates;
  };

  // --- certify pool -------------------------------------------------------
  const auto add_certify = [&](const std::string& key, const Scheme& s, const Graph& g,
                               bool random, bool tree) {
    CertifyItem item{key, &s, &g, random, tree, serial_prove(s, g)};
    if (!item.reference) fail(key + ": serial prover refused a yes-instance");
    in->certify.push_back(std::move(item));
  };
  add_certify("mso-leaves4", leaves4, random_tree, true, true);
  add_certify("mso-leaves4", leaves4, small_binary, false, true);
  add_certify("mso-caterpillar", caterpillar_scheme, caterpillar, false, true);
  add_certify("mso-perfect-matching", matching, matched, false, true);
  add_certify("vertex-parity", parity, random_tree, true, true);
  add_certify("treedepth-5", treedepth, bounded_td, false, false);
  // The no-instance: a uniform random tree has a perfect matching with
  // vanishing probability; holds() confirms it for this seed.
  if (matching.holds(random_tree)) fail("random tree unexpectedly has a perfect matching");
  in->certify.push_back({"mso-perfect-matching", &matching, &random_tree, true, true,
                         std::nullopt});
  if (serial_prove(matching, random_tree)) fail("prover certified a no-instance");

  // --- verify pool --------------------------------------------------------
  struct Target {
    const Scheme* scheme;
    const Graph* graph;
    const Assignment* honest = nullptr;
    const ViewCache* cache = nullptr;
    std::vector<VerifyItem> forged;
  };
  std::vector<Target> targets{{&leaves4, &random_tree, nullptr, nullptr, {}},
                              {&leaves4, &large_binary, nullptr, nullptr, {}},
                              {&parity, &random_tree, nullptr, nullptr, {}},
                              {&p5, &star, nullptr, nullptr, {}}};
  const auto keep_assignment = [&](Assignment a) -> const Assignment& {
    in->assignments.push_back(std::make_unique<Assignment>(std::move(a)));
    return *in->assignments.back();
  };
  for (auto& t : targets) {
    auto honest = serial_prove(*t.scheme, *t.graph);
    if (!honest) fail(t.scheme->name() + ": serial prover refused a verify-pool instance");
    t.honest = &keep_assignment(std::move(*honest));
    if (!reference_rejecting(*t.scheme, *t.graph, *t.honest).empty())
      fail(t.scheme->name() + ": reference verifier rejects the honest assignment");
    in->caches.push_back(std::make_unique<ViewCache>(*t.graph));
    t.cache = in->caches.back().get();
    for (auto& [family, forged] : forge(*t.honest, rng)) {
      const Assignment& a = keep_assignment(std::move(forged));
      auto rejecting = reference_rejecting(*t.scheme, *t.graph, a);
      const bool accept = rejecting.empty();
      t.forged.push_back({family, t.scheme, t.graph, t.cache, &a, accept, std::move(rejecting)});
    }
  }
  // One cycle: for each forgery family, every graph once honest (the verb
  // path) then once forged (the audit path) — half the operations each.
  for (std::size_t f = 0; f < targets.front().forged.size(); ++f)
    for (const auto& t : targets) {
      in->verify.push_back({"honest", t.scheme, t.graph, t.cache, t.honest, true, {}});
      in->verify.push_back(t.forged[f]);
    }

  // --- edit streams -------------------------------------------------------
  const std::size_t length = std::max<std::size_t>(kStreamEdits / divisor, 16);
  const auto add_stream = [&](const std::string& key, const Scheme& s, const Graph& g,
                              Property property) {
    EditStream stream;
    stream.scheme_key = key;
    stream.scheme = &s;
    stream.base = &g;
    draw_stream(stream, property, length, rng);
    stream.live = std::make_unique<incr::CertifiedInstance>(s);
    if (!stream.live->init(g)) fail(key + ": incremental init refused the base graph");
    for (Vertex v = 0; v < g.vertex_count(); ++v) stream.ids.push_back(g.id(v));
    in->edits.push_back(std::move(stream));
  };
  add_stream("mso-leaves4", leaves4, random_tree, Property::kLeaves4);
  add_stream("mso-perfect-matching", matching, matched, Property::kPerfectMatching);

  std::uint64_t h = seed;
  for (const auto& g : in->graphs) h = hash_graph(h, *g);
  for (const auto& item : in->certify)
    if (item.reference) h = hash_assignment(h, *item.reference);
  for (const auto& a : in->assignments) h = hash_assignment(h, *a);
  for (const auto& s : in->edits) {
    for (const auto& e : s.edits) {
      h = mix(mix(mix(mix(mix(h, static_cast<std::uint64_t>(e.kind)), e.a), e.b), e.c),
              e.fresh_id);
    }
    for (std::uint64_t seed : s.shuffle_seeds) h = mix(h, seed);
    h = hash_graph(h, s.end);
  }
  in->fingerprint = h;
  return in;
}

}  // namespace perfbench
