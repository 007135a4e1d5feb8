#include "src/schemes/mso_tree_detail.hpp"

#include <algorithm>
#include <stdexcept>

namespace lcert::mso_detail {

std::uint64_t SolveCore::mask_from_children(
    const std::vector<std::uint64_t>& child_masks, ProverContext& ctx,
    std::size_t worker) const {
  solve::FeasibilitySolver& feas = ctx.feasibility(worker);
  feas.begin(child_masks, k);
  std::uint64_t m = 0;
  for (std::size_t q = 0; q < k; ++q)
    if (feas.decide_first(boxes[q]) != BoxIndex::npos) m |= std::uint64_t{1} << q;
  return m;
}

std::vector<std::size_t> SolveCore::extract_from_children(
    const std::vector<std::uint64_t>& child_masks, std::size_t q,
    ProverContext& ctx, std::size_t worker) const {
  solve::FeasibilitySolver& feas = ctx.feasibility(worker);
  feas.begin(child_masks, k);
  std::vector<std::size_t> assignment;
  // The solver only picks the box (exact, so decide_first lands on precisely
  // the first box the pristine sweep would accept); the assignment itself
  // always comes from uop_assign_children_masked, keeping certificates
  // bit-identical to assign().
  const std::size_t bi = feas.decide_first(boxes[q]);
  if (bi == BoxIndex::npos)
    throw std::logic_error(scheme_name + ": extraction failed after feasibility");
  if (!uop_assign_children_masked(child_masks, boxes[q].box(bi), k, assignment))
    throw std::logic_error(scheme_name + ": solver disagrees with the pristine flow");
  return assignment;
}

namespace {

std::vector<std::uint64_t> child_masks_of(const RootedTree& t,
                                          const std::vector<std::uint64_t>& mask,
                                          std::size_t v) {
  std::vector<std::uint64_t> out;
  out.reserve(t.children(v).size());
  for (std::size_t c : t.children(v)) out.push_back(mask[c]);
  return out;
}

}  // namespace

const std::vector<std::size_t>& MsoMemo::child_key(const RootedTree& t,
                                                   const std::vector<std::uint64_t>& mask,
                                                   std::size_t v) {
  key_.clear();
  for (std::size_t c : t.children(v)) key_.push_back(static_cast<std::size_t>(mask[c]));
  return key_;
}

std::size_t MsoMemo::feas_key(const RootedTree& t,
                              const std::vector<std::uint64_t>& mask,
                              std::size_t v, bool& fresh) {
  child_key(t, mask, v);
  std::sort(key_.begin(), key_.end());
  // Ids are dense and handed out in order: a fresh id is the next slot.
  const std::size_t id = mask_multisets.intern(key_);
  fresh = id == feas_memo.size();
  if (fresh) feas_memo.push_back(0);
  return id;
}

std::vector<std::size_t>& MsoMemo::extract_slot(const RootedTree& t,
                                                const std::vector<std::uint64_t>& mask,
                                                std::size_t v, std::size_t q,
                                                bool& fresh) {
  const std::uint64_t key =
      static_cast<std::uint64_t>(mask_tuples.intern(child_key(t, mask, v))) * 64 + q;
  const auto [it, inserted] = extract_memo.try_emplace(key);
  fresh = inserted;
  return it->second;
}

void SolveCore::bottom_up(const RootedTree& t,
                          const std::vector<std::vector<std::size_t>>& levels,
                          ProverContext& ctx, MsoMemo& memo,
                          std::vector<std::uint64_t>& mask) const {
  // Deepest level first: every child's mask is final before its parent's
  // level starts. Each vertex's key is looked up once its children's masks
  // are final — serial lookup pass (the interner may rehash), parallel fill
  // of the fresh entries (distinct slots), serial apply.
  std::vector<std::size_t> code;
  for (auto lev = levels.rbegin(); lev != levels.rend(); ++lev) {
    const std::vector<std::size_t>& level = *lev;
    code.resize(level.size());
    std::vector<std::size_t> reps;  // level index of each fresh code's first vertex
    for (std::size_t i = 0; i < level.size(); ++i) {
      bool fresh = false;
      code[i] = memo.feas_key(t, mask, level[i], fresh);
      if (fresh) reps.push_back(i);
    }
    ctx.count_memo_misses(reps.size());
    ctx.count_memo_hits(level.size() - reps.size());
    ctx.for_each_index(reps.size(), [&](std::size_t w, std::size_t r) {
      const std::size_t i = reps[r];
      memo.feas_memo[code[i]] = mask_from_children(child_masks_of(t, mask, level[i]), ctx, w);
    });
    for (std::size_t i = 0; i < level.size(); ++i) mask[level[i]] = memo.feas_memo[code[i]];
  }
}

std::size_t SolveCore::accepting_state(std::uint64_t root_mask) const {
  for (std::size_t q = 0; q < k; ++q)
    if (automaton->accepting[q] && ((root_mask >> q) & 1u)) return q;
  return SIZE_MAX;
}

std::vector<std::size_t> SolveCore::top_down(
    const RootedTree& t, const std::vector<std::vector<std::size_t>>& levels,
    ProverContext& ctx, MsoMemo& memo, const std::vector<std::uint64_t>& mask,
    std::size_t root_state) const {
  // Root level first: run[v] is final before v's level chooses its
  // children's states. Serial lookup pass (the map may rehash; slots are
  // node-stable), parallel fill of the fresh slots, serial apply.
  std::vector<std::size_t> run(t.size(), SIZE_MAX);
  run[t.root()] = root_state;
  std::vector<std::vector<std::size_t>*> slot;
  for (const std::vector<std::size_t>& level : levels) {
    std::vector<std::size_t> reps;  // level index of each fresh key's first vertex
    std::size_t hits = 0;
    slot.assign(level.size(), nullptr);
    for (std::size_t i = 0; i < level.size(); ++i) {
      const std::size_t v = level[i];
      if (t.children(v).empty()) continue;
      bool fresh = false;
      slot[i] = &memo.extract_slot(t, mask, v, run[v], fresh);
      if (fresh) reps.push_back(i);
      else ++hits;
    }
    ctx.count_memo_misses(reps.size());
    ctx.count_memo_hits(hits);
    ctx.for_each_index(reps.size(), [&](std::size_t w, std::size_t r) {
      const std::size_t v = level[reps[r]];
      *slot[reps[r]] = extract_from_children(child_masks_of(t, mask, v), run[v], ctx, w);
    });
    for (std::size_t i = 0; i < level.size(); ++i) {
      if (slot[i] == nullptr) continue;
      const auto kids = t.children(level[i]);
      for (std::size_t j = 0; j < kids.size(); ++j) run[kids[j]] = (*slot[i])[j];
    }
  }
  return run;
}

Solved SolveCore::solve(const Graph& g, std::span<const Vertex> roots,
                        ProverContext& ctx, MsoMemo& memo) const {
  Solved first;
  for (std::size_t i = 0; i < std::max<std::size_t>(roots.size(), 1); ++i) {
    Solved s{RootedTree::from_graph(g, roots.empty() ? 0 : roots[i]), {}, {}};
    const auto levels = s.tree.levels();
    s.mask.assign(s.tree.size(), 0);
    bottom_up(s.tree, levels, ctx, memo, s.mask);
    const std::size_t root_state =
        roots.empty() ? SIZE_MAX : accepting_state(s.mask[s.tree.root()]);
    if (root_state == SIZE_MAX) {
      if (i == 0) first = std::move(s);
      continue;
    }
    s.run = top_down(s.tree, levels, ctx, memo, s.mask, root_state);
    return s;
  }
  return first;
}

std::vector<Certificate> SolveCore::payload_table(ProverContext& ctx) const {
  std::vector<Certificate> table(3 * k);
  for (std::size_t d = 0; d < 3; ++d)
    for (std::size_t q = 0; q < k; ++q) {
      BitWriter& w = ctx.writer(0);
      w.write(d, 2);
      w.write(q, width);
      table[d * k + q] = Certificate::from_writer(std::move(w));
    }
  return table;
}

std::vector<Certificate> SolveCore::certificates(const RootedTree& t,
                                                 const std::vector<std::size_t>& run,
                                                 const std::vector<Certificate>& table,
                                                 ProverContext& ctx) const {
  std::vector<Certificate> certs(t.size());
  ctx.for_each_index(t.size(), [&](std::size_t, std::size_t v) {
    certs[v] = table[(t.depth(v) % 3) * k + run[v]];
  });
  return certs;
}

std::uint64_t SolveCore::memo_mask(const RootedTree& t,
                                   const std::vector<std::uint64_t>& mask,
                                   std::size_t v, ProverContext& ctx,
                                   MsoMemo& memo) const {
  bool fresh = false;
  const std::size_t id = memo.feas_key(t, mask, v, fresh);
  if (!fresh) {
    ctx.count_memo_hits(1);
    return memo.feas_memo[id];
  }
  ctx.count_memo_misses(1);
  return memo.feas_memo[id] = mask_from_children(child_masks_of(t, mask, v), ctx, 0);
}

const std::vector<std::size_t>& SolveCore::memo_extract(
    const RootedTree& t, const std::vector<std::uint64_t>& mask, std::size_t v,
    std::size_t q, ProverContext& ctx, MsoMemo& memo) const {
  bool fresh = false;
  std::vector<std::size_t>& slot = memo.extract_slot(t, mask, v, q, fresh);
  if (!fresh) {
    ctx.count_memo_hits(1);
    return slot;
  }
  ctx.count_memo_misses(1);
  return slot = extract_from_children(child_masks_of(t, mask, v), q, ctx, 0);
}

}  // namespace lcert::mso_detail
