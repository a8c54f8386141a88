#include "cache/snapshot.hpp"

#include <sstream>

#include "graph/graph_io.hpp"

namespace gcp {

namespace {

constexpr char kMagic[] = "GCPCACHE";

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

void WriteCacheSnapshot(std::ostream& os, const CacheSnapshot& snapshot,
                        int version) {
  os << kMagic << " v" << version << "\n";
  os << "watermark " << snapshot.watermark << "\n";
  os << "horizon " << snapshot.id_horizon << "\n";
  os << "entries " << snapshot.entries.size() << "\n";
  if (version >= 2) os << "fragments " << snapshot.fragments.size() << "\n";
  for (const CachedQuery& e : snapshot.entries) {
    WriteEntryBlock(os, e, "entry");
  }
  if (version >= 2) {
    for (const CachedQuery& e : snapshot.fragments) {
      WriteEntryBlock(os, e, "fragment");
    }
  }
}

namespace {

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
  {
    std::istringstream hs(line.substr(prefix.size()));
      std::string field;
      std::size_t fields_seen = 0;
      while (hs >> field) {
        const auto eq = field.find('=');
        if (eq == std::string::npos) {
          return Status::Corruption("malformed entry field: " + field);
        }
        const std::string name = field.substr(0, eq);
        const std::string value = field.substr(eq + 1);
        char* end = nullptr;
        if (name == "cost") {
          e.est_test_cost_ms = std::strtod(value.c_str(), &end);
        } else {
          const std::uint64_t v = std::strtoull(value.c_str(), &end, 10);
          if (name == "kind") {
            if (v > 1) return Status::Corruption("bad entry kind");
            e.kind = static_cast<CachedQueryKind>(v);
          } else if (name == "admitted") {
            e.admitted_at = v;
          } else if (name == "last_used") {
            e.last_used_at = v;
          } else if (name == "hits") {
            e.hits = v;
          } else if (name == "tests_saved") {
            e.tests_saved = v;
          } else if (name == "exact") {
            e.exact_hits = v;
          } else if (name == "sub") {
            e.sub_hits = v;
          } else if (name == "super") {
            e.super_hits = v;
          } else {
            return Status::Corruption("unknown entry field: " + name);
          }
        }
        if (end == nullptr || *end != '\0') {
          return Status::Corruption("malformed entry value: " + field);
        }
        ++fields_seen;
      }
      // A truncated header line must not yield a default-constructed
      // entry: all 9 metadata fields are required.
      if (fields_seen != 9) {
        return Status::Corruption("entry header holds " +
                                  std::to_string(fields_seen) +
                                  " fields, expected 9");
      }
    }
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
  if (!(is >> magic >> version) || magic != kMagic ||
      (version != "v1" && version != "v2")) {
    return Status::Corruption("not a GCPCACHE v1/v2 snapshot");
  }
  const bool v2 = version == "v2";
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
  if (v2 && (!(is >> key >> fragment_count) || key != "fragments")) {
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
