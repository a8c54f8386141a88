#include "cache/snapshot.hpp"

#include <charconv>
#include <cmath>
#include <iterator>
#include <sstream>
#include <utility>

#include "graph/graph_io.hpp"

namespace gcp {

namespace {

constexpr char kMagic[] = "GCPCACHE";
constexpr char kVersion[] = "v2";

// Bitsets are serialized as '0'/'1' strings (diff-friendly; snapshots are
// maintenance artifacts, not a hot path). Any character outside {0,1} is
// corruption — a bit-flipped byte must fail the load, not silently parse
// as a cleared bit.
Result<DynamicBitset> ParseBits(const std::string& s) {
  DynamicBitset b(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '1') {
      b.Set(i);
    } else if (s[i] != '0') {
      return Status::Corruption("bitset holds a non-0/1 character");
    }
  }
  return b;
}

// Entries and fragments share one block shape; only the leading keyword
// differs ("entry" / "fragment"), so a reader can never confuse the
// sections.
void WriteEntryBlock(std::ostream& os, const CachedQuery& e,
                     const char* keyword) {
  os << keyword << " kind=" << static_cast<int>(e.kind)
     << " admitted=" << e.admitted_at << " last_used=" << e.last_used_at
     << " hits=" << e.hits << " tests_saved=" << e.tests_saved
     << " exact=" << e.exact_hits << " sub=" << e.sub_hits
     << " super=" << e.super_hits << " cost=" << e.est_test_cost_ms << "\n";
  os << "answer " << e.answer.ToString() << "\n";
  os << "valid " << e.valid.ToString() << "\n";
  // Serializes through the shared graph reference — exporting a
  // checkpoint never deep-copies resident graphs.
  os << GraphToGSpan(*e.query);
  os << "endentry\n";
}

}  // namespace

void WriteCacheSnapshot(std::ostream& os, const CacheSnapshot& snapshot) {
  os << kMagic << " " << kVersion << "\n";
  os << "watermark " << snapshot.watermark << "\n";
  os << "horizon " << snapshot.id_horizon << "\n";
  os << "entries " << snapshot.entries.size() << "\n";
  os << "fragments " << snapshot.fragments.size() << "\n";
  for (const CachedQuery& e : snapshot.entries) {
    WriteEntryBlock(os, e, "entry");
  }
  for (const CachedQuery& e : snapshot.fragments) {
    WriteEntryBlock(os, e, "fragment");
  }
}

namespace {

/// Whole-string parse of `s` into `*out`: no sign on counters, no
/// leading or trailing characters, no overflow.
template <typename T>
bool ParseWhole(const std::string& s, T* out) {
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), last, *out);
  return ec == std::errc() && ptr == last;
}

/// Parses the "name=value" fields of an entry header line into `e`. Each
/// of the nine names must appear exactly once: eight unsigned decimal
/// counters and a finite, non-negative cost (PINC ranks on it, and a NaN
/// would break the replacement sort's ordering).
Status ParseEntryHeader(const std::string& fields, CachedQuery* e) {
  std::uint64_t kind = 0;
  const std::pair<const char*, std::uint64_t*> counters[] = {
      {"kind", &kind},
      {"admitted", &e->admitted_at},
      {"last_used", &e->last_used_at},
      {"hits", &e->hits},
      {"tests_saved", &e->tests_saved},
      {"exact", &e->exact_hits},
      {"sub", &e->sub_hits},
      {"super", &e->super_hits}};
  constexpr std::size_t kCost = std::size(counters);  // the ninth field
  bool seen[kCost + 1] = {};
  std::istringstream hs(fields);
  std::string field;
  while (hs >> field) {
    const auto eq = field.find('=');
    if (eq == std::string::npos) {
      return Status::Corruption("malformed entry field: " + field);
    }
    const std::string name = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    std::size_t slot = 0;
    while (slot < kCost && name != counters[slot].first) ++slot;
    if (slot == kCost && name != "cost") {
      return Status::Corruption("unknown entry field: " + name);
    }
    if (seen[slot]) return Status::Corruption("duplicate entry field: " + name);
    seen[slot] = true;
    double& cost = e->est_test_cost_ms;
    const bool ok = slot < kCost ? ParseWhole(value, counters[slot].second)
                                 : ParseWhole(value, &cost) &&
                                       std::isfinite(cost) && cost >= 0.0;
    if (!ok) return Status::Corruption("malformed entry value: " + field);
  }
  // A truncated header line must not yield a default-constructed entry.
  for (const bool got : seen) {
    if (!got) return Status::Corruption("entry header lacks a field");
  }
  if (kind > 1) return Status::Corruption("bad entry kind");
  e->kind = static_cast<CachedQueryKind>(kind);
  return Status::OK();
}

/// Parses one "<keyword> ..." block (header + bitsets + graph) into `*out`.
Status ParseEntryBlock(std::istream& is, const char* keyword, std::size_t i,
                       CachedQuery* out) {
  const std::string prefix = std::string(keyword) + " ";
  std::string line;
  if (!std::getline(is, line) || line.rfind(prefix, 0) != 0) {
    return Status::Corruption(std::string("expected ") + keyword +
                              " header for " + keyword + " " +
                              std::to_string(i));
  }
  CachedQuery e;
  GCP_RETURN_NOT_OK(ParseEntryHeader(line.substr(prefix.size()), &e));
  if (!std::getline(is, line) || line.rfind("answer ", 0) != 0) {
    return Status::Corruption("missing answer bits");
  }
  auto answer = ParseBits(line.substr(7));
  if (!answer.ok()) return answer.status();
  e.answer = std::move(answer).value();
  if (!std::getline(is, line) || line.rfind("valid ", 0) != 0) {
    return Status::Corruption("missing valid bits");
  }
  auto valid = ParseBits(line.substr(6));
  if (!valid.ok()) return valid.status();
  e.valid = std::move(valid).value();
  if (e.answer.size() != e.valid.size()) {
    return Status::Corruption("answer/valid width mismatch");
  }
  // Graph block runs until "endentry".
  std::ostringstream graph_text;
  bool terminated = false;
  while (std::getline(is, line)) {
    if (line == "endentry") {
      terminated = true;
      break;
    }
    graph_text << line << "\n";
  }
  if (!terminated) return Status::Corruption("unterminated entry block");
  auto g = GraphFromGSpan(graph_text.str());
  if (!g.ok()) return g.status();
  e.query = std::make_shared<const Graph>(std::move(g).value());
  *out = std::move(e);
  return Status::OK();
}

}  // namespace

Result<CacheSnapshot> ReadCacheSnapshot(std::istream& is) {
  CacheSnapshot snapshot;
  std::string magic, version;
  if (!(is >> magic >> version) || magic != kMagic || version != kVersion) {
    return Status::Corruption("not a GCPCACHE v2 snapshot");
  }
  std::string key;
  std::size_t entry_count = 0;
  std::size_t fragment_count = 0;
  if (!(is >> key >> snapshot.watermark) || key != "watermark") {
    return Status::Corruption("missing watermark record");
  }
  if (!(is >> key >> snapshot.id_horizon) || key != "horizon") {
    return Status::Corruption("missing horizon record");
  }
  if (!(is >> key >> entry_count) || key != "entries") {
    return Status::Corruption("missing entries record");
  }
  if (!(is >> key >> fragment_count) || key != "fragments") {
    return Status::Corruption("missing fragments record");
  }
  std::string line;
  std::getline(is, line);  // consume end-of-line
  // Cap the up-front reservations: a corrupt count must not turn into a
  // multi-GB allocation before the first entry parse fails.
  snapshot.entries.reserve(
      entry_count < std::size_t{4096} ? entry_count : std::size_t{4096});
  snapshot.fragments.reserve(
      fragment_count < std::size_t{4096} ? fragment_count : std::size_t{4096});
  for (std::size_t i = 0; i < entry_count; ++i) {
    CachedQuery e;
    if (const Status st = ParseEntryBlock(is, "entry", i, &e); !st.ok()) {
      return st;
    }
    snapshot.entries.push_back(std::move(e));
  }
  for (std::size_t i = 0; i < fragment_count; ++i) {
    CachedQuery e;
    if (const Status st = ParseEntryBlock(is, "fragment", i, &e); !st.ok()) {
      return st;
    }
    if (e.kind != CachedQueryKind::kSubgraph) {
      return Status::Corruption("fragment with non-subgraph kind");
    }
    snapshot.fragments.push_back(std::move(e));
  }
  return snapshot;
}

}  // namespace gcp
