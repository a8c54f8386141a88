#include "cache/relevance_index.hpp"

#include <algorithm>

namespace gcp {

namespace {

/// True iff the common prefix of `a` and `b` shares a set bit. Footprint
/// and batch masks may be sized to different horizons; graphs beyond an
/// entry's indicator are ignored by Algorithm 2 (graph_id >= valid.size()
/// continues), which is exactly the min-prefix semantics.
bool IntersectsPrefix(const std::vector<std::uint64_t>& a,
                      const std::vector<std::uint64_t>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

void SetBlock(std::vector<std::uint64_t>& mask, std::uint32_t block) {
  const std::size_t word = block >> 6;
  if (word >= mask.size()) mask.resize(word + 1, 0);
  mask[word] |= std::uint64_t{1} << (block & 63);
}

template <typename Fn>
void ForEachBlock(const std::vector<std::uint64_t>& mask, Fn&& fn) {
  for (std::size_t w = 0; w < mask.size(); ++w) {
    std::uint64_t word = mask[w];
    while (word != 0) {
      const int bit = __builtin_ctzll(word);
      fn(static_cast<std::uint32_t>(w * 64 + bit));
      word &= word - 1;
    }
  }
}

}  // namespace

bool RelevanceIndex::BatchFootprint::empty() const {
  for (const std::uint64_t w : mixed) {
    if (w != 0) return false;
  }
  for (const std::uint64_t w : ua) {
    if (w != 0) return false;
  }
  for (const std::uint64_t w : ur) {
    if (w != 0) return false;
  }
  return true;
}

RelevanceIndex::BatchFootprint RelevanceIndex::FootprintOf(
    const ChangeCounters& counters) {
  BatchFootprint batch;
  for (const auto& [graph_id, total_ops] : counters.total) {
    (void)total_ops;
    const auto block = static_cast<std::uint32_t>(graph_id >> 6);
    if (counters.IsUaExclusive(graph_id)) {
      SetBlock(batch.ua, block);
    } else if (counters.IsUrExclusive(graph_id)) {
      SetBlock(batch.ur, block);
    } else {
      SetBlock(batch.mixed, block);
    }
  }
  return batch;
}

void RelevanceIndex::ComputeMasks(const CachedQuery& e,
                                  std::vector<std::uint64_t>* pos,
                                  std::vector<std::uint64_t>* neg) {
  pos->clear();
  neg->clear();
  const std::uint64_t* vw = e.valid.words();
  const std::uint64_t* aw = e.answer.words();
  const std::size_t nv = e.valid.num_words();
  const std::size_t na = std::min(nv, e.answer.num_words());
  for (std::size_t w = 0; w < na; ++w) {
    if ((vw[w] & aw[w]) != 0) SetBlock(*pos, static_cast<std::uint32_t>(w));
    if ((vw[w] & ~aw[w]) != 0) SetBlock(*neg, static_cast<std::uint32_t>(w));
  }
  // A valid indicator wider than the answer snapshot reads as answer
  // bits false (TestOrFalse semantics): negative polarity.
  for (std::size_t w = na; w < nv; ++w) {
    if (vw[w] != 0) SetBlock(*neg, static_cast<std::uint32_t>(w));
  }
}

void RelevanceIndex::AddPostings(CacheEntryId id, const Footprint& fp) {
  const auto add = [this, id](std::uint32_t block) {
    std::vector<CacheEntryId>& list = postings_[block];
    const auto it = std::lower_bound(list.begin(), list.end(), id);
    if (it == list.end() || *it != id) list.insert(it, id);
  };
  ForEachBlock(fp.pos, add);
  // Blocks covered by both masks are inserted once (lower_bound dedup).
  ForEachBlock(fp.neg, add);
}

void RelevanceIndex::RemovePostings(CacheEntryId id, const Footprint& fp) {
  const auto remove = [this, id](std::uint32_t block) {
    const auto pit = postings_.find(block);
    if (pit == postings_.end()) return;
    std::vector<CacheEntryId>& list = pit->second;
    const auto it = std::lower_bound(list.begin(), list.end(), id);
    if (it != list.end() && *it == id) list.erase(it);
    if (list.empty()) postings_.erase(pit);
  };
  ForEachBlock(fp.pos, remove);
  ForEachBlock(fp.neg, remove);
}

void RelevanceIndex::Insert(const CachedQuery* entry) {
  Footprint& fp = entries_[entry->id];
  if (fp.entry != nullptr) RemovePostings(entry->id, fp);
  fp.entry = entry;
  ComputeMasks(*entry, &fp.pos, &fp.neg);
  AddPostings(entry->id, fp);
}

void RelevanceIndex::Erase(CacheEntryId id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return;
  RemovePostings(id, it->second);
  entries_.erase(it);
}

void RelevanceIndex::Clear() {
  entries_.clear();
  postings_.clear();
}

void RelevanceIndex::Refresh(const CachedQuery* entry) {
  const auto it = entries_.find(entry->id);
  if (it == entries_.end()) return;
  Footprint& fp = it->second;
  std::vector<std::uint64_t> pos;
  std::vector<std::uint64_t> neg;
  ComputeMasks(*entry, &pos, &neg);
  if (pos == fp.pos && neg == fp.neg) return;
  RemovePostings(entry->id, fp);
  fp.pos = std::move(pos);
  fp.neg = std::move(neg);
  AddPostings(entry->id, fp);
}

bool RelevanceIndex::Affected(const Footprint& fp,
                              const BatchFootprint& batch) {
  // Mixed/structural ops clear any valid bit regardless of polarity.
  if (IntersectsPrefix(batch.mixed, fp.pos) ||
      IntersectsPrefix(batch.mixed, fp.neg)) {
    return true;
  }
  // Algorithm 2's polarity rules: a UA-exclusive graph clears only the
  // bits whose polarity a UA batch does not preserve — valid-negative
  // for subgraph entries, valid-positive for supergraph entries — and a
  // UR-exclusive graph clears the opposite polarity.
  const bool super_entry = fp.entry->kind == CachedQueryKind::kSupergraph;
  const std::vector<std::uint64_t>& ua_clears = super_entry ? fp.pos : fp.neg;
  const std::vector<std::uint64_t>& ur_clears = super_entry ? fp.neg : fp.pos;
  return IntersectsPrefix(batch.ua, ua_clears) ||
         IntersectsPrefix(batch.ur, ur_clears);
}

std::vector<const CachedQuery*> RelevanceIndex::CollectAffected(
    const BatchFootprint& batch) const {
  std::vector<CacheEntryId> candidates;
  const auto gather = [this, &candidates](std::uint32_t block) {
    const auto it = postings_.find(block);
    if (it == postings_.end()) return;
    candidates.insert(candidates.end(), it->second.begin(), it->second.end());
  };
  ForEachBlock(batch.mixed, gather);
  ForEachBlock(batch.ua, gather);
  ForEachBlock(batch.ur, gather);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  std::vector<const CachedQuery*> affected;
  affected.reserve(candidates.size());
  for (const CacheEntryId id : candidates) {
    const auto it = entries_.find(id);
    if (it == entries_.end()) continue;
    if (Affected(it->second, batch)) affected.push_back(it->second.entry);
  }
  return affected;
}

const RelevanceIndex::Footprint* RelevanceIndex::footprint(
    CacheEntryId id) const {
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second;
}

const std::vector<CacheEntryId>* RelevanceIndex::postings(
    std::uint32_t block) const {
  const auto it = postings_.find(block);
  return it == postings_.end() ? nullptr : &it->second;
}

}  // namespace gcp
