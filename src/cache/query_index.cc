#include "cache/query_index.hpp"

#include <algorithm>
#include <bit>

namespace gcp {

std::uint64_t QueryIndex::LabelMaskOf(const GraphFeatures& f) {
  std::uint64_t mask = 0;
  for (const auto& [label, count] : f.label_counts) {
    mask |= 1ULL << (label & 63u);
  }
  return mask;
}

std::uint32_t QueryIndex::BandOf(std::uint32_t count) {
  return count == 0 ? 0 : std::bit_width(count) - 1;
}

void QueryIndex::Insert(const CachedQuery* entry) {
  entries_[entry->id] = entry;
  by_digest_.emplace(entry->digest, entry);
  bands_[BandKey(BandOf(entry->features.num_vertices),
                 BandOf(entry->features.num_edges))]
      .push_back(Posting{entry, LabelMaskOf(entry->features),
                         entry->features.num_vertices,
                         entry->features.num_edges});
}

void QueryIndex::Erase(CacheEntryId id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return;
  const CachedQuery* entry = it->second;
  entries_.erase(it);
  auto [lo, hi] = by_digest_.equal_range(entry->digest);
  for (auto dit = lo; dit != hi; ++dit) {
    if (dit->second->id == id) {
      by_digest_.erase(dit);
      break;
    }
  }
  const auto bit = bands_.find(BandKey(BandOf(entry->features.num_vertices),
                                       BandOf(entry->features.num_edges)));
  if (bit != bands_.end()) {
    auto& postings = bit->second;
    postings.erase(std::remove_if(postings.begin(), postings.end(),
                                  [id](const Posting& p) {
                                    return p.entry->id == id;
                                  }),
                   postings.end());
    if (postings.empty()) bands_.erase(bit);
  }
}

void QueryIndex::Clear() {
  entries_.clear();
  by_digest_.clear();
  bands_.clear();
}

std::vector<const CachedQuery*> QueryIndex::SupergraphCandidates(
    const GraphFeatures& g) const {
  std::vector<const CachedQuery*> out;
  out.reserve(entries_.size());
  const std::uint64_t mask = LabelMaskOf(g);
  // Entries that could contain g have num_vertices >= g.num_vertices AND
  // num_edges >= g.num_edges: vertex bands from g's upward, and within
  // each vertex band only edge bands from g's upward (a posting in a
  // lower edge band has num_edges < g.num_edges by band monotonicity, so
  // the whole bucket is skipped with one map jump).
  const std::uint32_t vband = BandOf(g.num_vertices);
  const std::uint32_t eband = BandOf(g.num_edges);
  for (auto it = bands_.lower_bound(BandKey(vband, eband));
       it != bands_.end();) {
    if (EBandOf(it->first) < eband) {
      it = bands_.lower_bound(BandKey(VBandOf(it->first), eband));
      continue;
    }
    for (const Posting& p : it->second) {
      if (p.num_vertices < g.num_vertices || p.num_edges < g.num_edges ||
          (mask & ~p.label_mask) != 0) {
        continue;
      }
      if (g.CouldBeSubgraphOf(p.entry->features)) out.push_back(p.entry);
    }
    ++it;
  }
  return out;
}

std::vector<const CachedQuery*> QueryIndex::SubgraphCandidates(
    const GraphFeatures& g) const {
  std::vector<const CachedQuery*> out;
  out.reserve(entries_.size());
  const std::uint64_t mask = LabelMaskOf(g);
  // Entries contained in g have num_vertices <= g.num_vertices AND
  // num_edges <= g.num_edges: vertex bands up to and including g's, edge
  // bands up to and including g's within each (a higher edge band implies
  // num_edges > g.num_edges — jump straight to the next vertex band).
  const std::uint32_t vband = BandOf(g.num_vertices);
  const std::uint32_t eband = BandOf(g.num_edges);
  const std::uint64_t last_key = BandKey(vband, eband);
  for (auto it = bands_.begin();
       it != bands_.end() && it->first <= last_key;) {
    if (EBandOf(it->first) > eband) {
      it = bands_.lower_bound(BandKey(VBandOf(it->first) + 1, 0));
      continue;
    }
    for (const Posting& p : it->second) {
      if (p.num_vertices > g.num_vertices || p.num_edges > g.num_edges ||
          (p.label_mask & ~mask) != 0) {
        continue;
      }
      if (p.entry->features.CouldBeSubgraphOf(g)) out.push_back(p.entry);
    }
    ++it;
  }
  return out;
}

std::vector<const CachedQuery*> QueryIndex::DigestMatches(
    std::uint64_t digest) const {
  std::vector<const CachedQuery*> out;
  auto [lo, hi] = by_digest_.equal_range(digest);
  out.reserve(static_cast<std::size_t>(std::distance(lo, hi)));
  for (auto it = lo; it != hi; ++it) out.push_back(it->second);
  return out;
}

}  // namespace gcp
