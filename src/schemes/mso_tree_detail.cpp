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

void SolveCore::bottom_up(const RootedTree& t,
                          const std::vector<std::vector<std::size_t>>& levels,
                          ProverContext& ctx, MsoMemo* memo,
                          std::vector<std::uint64_t>& mask) const {
  // Deepest level first: every child's mask is final before its parent's
  // level starts. Memo key: the vertex's sorted child-mask multiset, interned
  // once the children's masks are final — serial intern pass (the interner
  // may rehash), parallel fill of the fresh entries, serial apply.
  std::vector<std::size_t> vertex_code;
  std::vector<std::size_t> key_scratch;
  for (auto lev = levels.rbegin(); lev != levels.rend(); ++lev) {
    const std::vector<std::size_t>& level = *lev;
    if (memo == nullptr) {
      ctx.for_each_index(level.size(), [&](std::size_t w, std::size_t i) {
        mask[level[i]] = mask_from_children(child_masks_of(t, mask, level[i]), ctx, w);
      });
      continue;
    }
    vertex_code.resize(level.size());
    std::vector<std::size_t> reps;  // first vertex per not-yet-cached code
    for (std::size_t i = 0; i < level.size(); ++i) {
      const std::size_t v = level[i];
      key_scratch.clear();
      for (std::size_t c : t.children(v))
        key_scratch.push_back(static_cast<std::size_t>(mask[c]));
      std::sort(key_scratch.begin(), key_scratch.end());
      const std::size_t code = memo->mask_multisets.intern(key_scratch);
      vertex_code[i] = code;
      if (code < memo->feas_known.size() && memo->feas_known[code]) continue;
      memo->feas_known.resize(memo->mask_multisets.size(), 0);
      memo->feas_memo.resize(memo->mask_multisets.size(), 0);
      memo->feas_known[code] = 1;
      reps.push_back(v);
    }
    ctx.count_memo_misses(reps.size());
    ctx.count_memo_hits(level.size() - reps.size());
    std::vector<std::uint64_t> rep_mask(reps.size());
    ctx.for_each_index(reps.size(), [&](std::size_t w, std::size_t i) {
      rep_mask[i] = mask_from_children(child_masks_of(t, mask, reps[i]), ctx, w);
    });
    for (std::size_t i = 0, r = 0; i < level.size(); ++i) {
      if (r < reps.size() && level[i] == reps[r])
        memo->feas_memo[vertex_code[i]] = rep_mask[r++];
      mask[level[i]] = memo->feas_memo[vertex_code[i]];
    }
  }
}

std::size_t SolveCore::accepting_state(std::uint64_t root_mask) const {
  for (std::size_t q = 0; q < k; ++q)
    if (automaton->accepting[q] && ((root_mask >> q) & 1u)) return q;
  return SIZE_MAX;
}

void SolveCore::top_down(const RootedTree& t,
                         const std::vector<std::vector<std::size_t>>& levels,
                         ProverContext& ctx, MsoMemo* memo,
                         const std::vector<std::uint64_t>& mask,
                         std::vector<std::size_t>& run) const {
  std::vector<std::size_t> tuple_id;
  if (memo != nullptr) {
    tuple_id.assign(t.size(), SIZE_MAX);
    std::vector<std::size_t> scratch;
    for (std::size_t v = 0; v < t.size(); ++v) {
      const auto kids = t.children(v);
      if (kids.empty()) continue;
      scratch.clear();
      for (std::size_t c : kids) scratch.push_back(static_cast<std::size_t>(mask[c]));
      tuple_id[v] = memo->mask_tuples.intern(scratch);
    }
  }

  // Root level first: run[v] is final before v's level chooses its
  // children's states.
  for (const std::vector<std::size_t>& level : levels) {
    if (memo == nullptr) {
      ctx.for_each_index(level.size(), [&](std::size_t w, std::size_t i) {
        const std::size_t v = level[i];
        const auto kids = t.children(v);
        if (kids.empty()) return;
        const auto chosen =
            extract_from_children(child_masks_of(t, mask, v), run[v], ctx, w);
        for (std::size_t j = 0; j < kids.size(); ++j) run[kids[j]] = chosen[j];
      });
      continue;
    }
    // Serial insert pass (the map may rehash), parallel fill of the fresh
    // slots, then the apply pass reads a stable map.
    std::vector<std::size_t> reps;
    std::vector<std::vector<std::size_t>*> slots;
    std::size_t hits = 0;
    for (std::size_t v : level) {
      if (t.children(v).empty()) continue;
      const std::uint64_t key =
          static_cast<std::uint64_t>(tuple_id[v]) * 64 + run[v];
      const auto [it, inserted] = memo->extract_memo.try_emplace(key);
      if (!inserted) {
        ++hits;
        continue;
      }
      reps.push_back(v);
      slots.push_back(&it->second);
    }
    ctx.count_memo_misses(reps.size());
    ctx.count_memo_hits(hits);
    ctx.for_each_index(reps.size(), [&](std::size_t w, std::size_t i) {
      *slots[i] = extract_from_children(child_masks_of(t, mask, reps[i]),
                                        run[reps[i]], ctx, w);
    });
    for (std::size_t v : level) {
      const auto kids = t.children(v);
      if (kids.empty()) continue;
      const std::uint64_t key =
          static_cast<std::uint64_t>(tuple_id[v]) * 64 + run[v];
      const std::vector<std::size_t>& chosen = memo->extract_memo[key];
      for (std::size_t j = 0; j < kids.size(); ++j) run[kids[j]] = chosen[j];
    }
  }
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

std::uint64_t SolveCore::memo_mask(const RootedTree& t,
                                   const std::vector<std::uint64_t>& mask,
                                   std::size_t v, ProverContext& ctx,
                                   MsoMemo* memo) const {
  if (memo == nullptr) return mask_from_children(child_masks_of(t, mask, v), ctx, 0);
  std::vector<std::size_t> key;
  key.reserve(t.children(v).size());
  for (std::size_t c : t.children(v))
    key.push_back(static_cast<std::size_t>(mask[c]));
  std::sort(key.begin(), key.end());
  const std::size_t code = memo->mask_multisets.intern(key);
  if (code < memo->feas_known.size() && memo->feas_known[code]) {
    ctx.count_memo_hits(1);
    return memo->feas_memo[code];
  }
  memo->feas_known.resize(memo->mask_multisets.size(), 0);
  memo->feas_memo.resize(memo->mask_multisets.size(), 0);
  ctx.count_memo_misses(1);
  const std::uint64_t m = mask_from_children(child_masks_of(t, mask, v), ctx, 0);
  memo->feas_known[code] = 1;
  memo->feas_memo[code] = m;
  return m;
}

const std::vector<std::size_t>& SolveCore::memo_extract(
    const RootedTree& t, const std::vector<std::uint64_t>& mask, std::size_t v,
    std::size_t q, ProverContext& ctx, MsoMemo* memo,
    std::vector<std::size_t>& scratch) const {
  if (memo == nullptr) {
    scratch = extract_from_children(child_masks_of(t, mask, v), q, ctx, 0);
    return scratch;
  }
  std::vector<std::size_t> key;
  key.reserve(t.children(v).size());
  for (std::size_t c : t.children(v))
    key.push_back(static_cast<std::size_t>(mask[c]));
  const std::uint64_t mkey =
      static_cast<std::uint64_t>(memo->mask_tuples.intern(key)) * 64 + q;
  const auto [it, inserted] = memo->extract_memo.try_emplace(mkey);
  if (!inserted) {
    ctx.count_memo_hits(1);
    return it->second;
  }
  ctx.count_memo_misses(1);
  it->second = extract_from_children(child_masks_of(t, mask, v), q, ctx, 0);
  return it->second;
}

}  // namespace lcert::mso_detail
