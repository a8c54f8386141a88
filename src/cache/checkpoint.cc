#include "cache/checkpoint.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <algorithm>
#include <sstream>

#include "common/crc32.hpp"

namespace gcp {

namespace {

constexpr char kHeader[] = "GCPCHKPT v2\n";
constexpr char kPrefix[] = "checkpoint-";
constexpr char kSuffix[] = ".gcpchk";

std::string MetaPayload(const CacheSnapshot& s) {
  std::ostringstream os;
  os << "watermark " << s.watermark << "\n"
     << "horizon " << s.id_horizon << "\n"
     << "entries " << s.entries.size() << "\n"
     << "fragments " << s.fragments.size() << "\n";
  return os.str();
}

std::string SectionHeader(const char* name, const std::string& payload) {
  std::ostringstream os;
  os << "section " << name << " " << payload.size() << " " << Crc32(payload)
     << "\n";
  return os.str();
}

/// Consumes one "section <name> <len> <crc>\n" + payload from `bytes` at
/// `pos`; Corruption names the section on any mismatch.
Status TakeSection(const std::string& bytes, std::size_t& pos,
                   const char* name, std::string& payload_out) {
  const std::size_t eol = bytes.find('\n', pos);
  if (eol == std::string::npos) {
    return Status::Corruption(std::string("truncated before section '") +
                              name + "' header");
  }
  const std::string line = bytes.substr(pos, eol - pos);
  std::istringstream ls(line);
  std::string tag, got_name;
  std::uint64_t len = 0;
  std::uint32_t crc = 0;
  if (!(ls >> tag >> got_name >> len >> crc) || tag != "section" ||
      got_name != name) {
    return Status::Corruption(std::string("malformed section '") + name +
                              "' header: " + line);
  }
  pos = eol + 1;
  if (bytes.size() - pos < len) {
    return Status::Corruption(std::string("section '") + name +
                              "' truncated: " + std::to_string(len) +
                              " bytes declared, " +
                              std::to_string(bytes.size() - pos) +
                              " available");
  }
  payload_out = bytes.substr(pos, len);
  pos += len;
  if (Crc32(payload_out) != crc) {
    return Status::Corruption(std::string("section '") + name +
                              "' CRC mismatch");
  }
  return Status::OK();
}

}  // namespace

std::string CheckpointFileName(std::uint64_t seq) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%06" PRIu64 "%s", kPrefix, seq, kSuffix);
  return buf;
}

Result<std::uint64_t> ParseCheckpointSeq(const std::string& name) {
  const std::size_t prefix_len = std::strlen(kPrefix);
  const std::size_t suffix_len = std::strlen(kSuffix);
  if (name.size() <= prefix_len + suffix_len ||
      name.compare(0, prefix_len, kPrefix) != 0 ||
      name.compare(name.size() - suffix_len, suffix_len, kSuffix) != 0) {
    return Status::NotFound("not a checkpoint file name: " + name);
  }
  const std::string digits =
      name.substr(prefix_len, name.size() - prefix_len - suffix_len);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return Status::NotFound("not a checkpoint file name: " + name);
  }
  return static_cast<std::uint64_t>(std::strtoull(digits.c_str(), nullptr, 10));
}

std::string EncodeCheckpoint(const CacheSnapshot& snapshot) {
  const std::string meta = MetaPayload(snapshot);
  std::ostringstream body_os;
  WriteCacheSnapshot(body_os, snapshot);
  const std::string body = body_os.str();

  std::string out;
  out.reserve(meta.size() + body.size() + 160);
  out += kHeader;
  out += SectionHeader("meta", meta);
  out += meta;
  out += SectionHeader("body", body);
  out += body;
  // Footer: repeated counts + CRC of everything before the footer line,
  // so "file ends without a footer" and "sections swapped/edited" are
  // both detectable even when each section is individually intact.
  std::ostringstream footer;
  footer << "footer " << snapshot.entries.size() << " " << snapshot.watermark
         << " " << snapshot.id_horizon << " " << Crc32(out) << "\n";
  out += footer.str();
  return out;
}

Result<CacheSnapshot> DecodeCheckpoint(const std::string& bytes) {
  const std::size_t header_len = std::strlen(kHeader);
  if (bytes.compare(0, header_len, kHeader) != 0) {
    return Status::Corruption("not a GCPCHKPT v2 checkpoint");
  }
  std::size_t pos = header_len;
  std::string meta, body;
  GCP_RETURN_NOT_OK(TakeSection(bytes, pos, "meta", meta));
  GCP_RETURN_NOT_OK(TakeSection(bytes, pos, "body", body));

  // Footer line covers the whole prefix [0, pos).
  const std::size_t eol = bytes.find('\n', pos);
  if (eol == std::string::npos) {
    return Status::Corruption("missing checkpoint footer");
  }
  std::istringstream fs(bytes.substr(pos, eol - pos));
  std::string tag;
  std::uint64_t f_entries = 0, f_watermark = 0, f_horizon = 0;
  std::uint32_t f_crc = 0;
  if (!(fs >> tag >> f_entries >> f_watermark >> f_horizon >> f_crc) ||
      tag != "footer") {
    return Status::Corruption("malformed checkpoint footer");
  }
  if (eol + 1 != bytes.size()) {
    return Status::Corruption("trailing bytes after checkpoint footer");
  }
  if (Crc32(bytes.substr(0, pos)) != f_crc) {
    return Status::Corruption("checkpoint whole-file CRC mismatch");
  }

  // Meta section: parsed first so the cheap cross-checks run before the
  // (comparatively expensive) body parse.
  std::istringstream ms(meta);
  std::string key;
  std::uint64_t m_watermark = 0, m_horizon = 0, m_entries = 0;
  if (!(ms >> key >> m_watermark) || key != "watermark") {
    return Status::Corruption("malformed meta section: watermark");
  }
  if (!(ms >> key >> m_horizon) || key != "horizon") {
    return Status::Corruption("malformed meta section: horizon");
  }
  if (!(ms >> key >> m_entries) || key != "entries") {
    return Status::Corruption("malformed meta section: entries");
  }
  std::uint64_t m_fragments = 0;
  if (!(ms >> key >> m_fragments) || key != "fragments") {
    return Status::Corruption("malformed meta section: fragments");
  }
  if (m_entries != f_entries || m_watermark != f_watermark ||
      m_horizon != f_horizon) {
    return Status::Corruption("meta/footer disagreement");
  }

  std::istringstream bs(body);
  Result<CacheSnapshot> snapshot = ReadCacheSnapshot(bs);
  if (!snapshot.ok()) return snapshot.status();
  CacheSnapshot& s = snapshot.value();
  if (s.watermark != m_watermark || s.id_horizon != m_horizon ||
      s.entries.size() != m_entries || s.fragments.size() != m_fragments) {
    return Status::Corruption("body/meta disagreement");
  }
  return snapshot;
}

Status WriteCheckpointFile(const std::string& path,
                           const CacheSnapshot& snapshot,
                           FaultInjector* fault, std::uint64_t* bytes_out) {
  const std::string bytes = EncodeCheckpoint(snapshot);
  AtomicFileWriter writer(path, fault);
  GCP_RETURN_NOT_OK(writer.Open());
  GCP_RETURN_NOT_OK(writer.Append(bytes));
  GCP_RETURN_NOT_OK(writer.Commit());
  if (bytes_out != nullptr) *bytes_out = writer.bytes_written();
  return Status::OK();
}

Result<CacheSnapshot> ReadCheckpointFile(const std::string& path) {
  Result<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  return DecodeCheckpoint(bytes.value());
}

std::vector<std::uint64_t> ListCheckpointSeqs(const std::string& dir) {
  std::vector<std::uint64_t> seqs;
  Result<std::vector<std::string>> names = ListDirectory(dir);
  if (!names.ok()) return seqs;
  for (const std::string& name : names.value()) {
    Result<std::uint64_t> seq = ParseCheckpointSeq(name);
    if (seq.ok()) seqs.push_back(seq.value());
  }
  std::sort(seqs.rbegin(), seqs.rend());
  return seqs;
}

Status PruneCheckpoints(const std::string& dir, std::size_t keep) {
  const std::vector<std::uint64_t> seqs = ListCheckpointSeqs(dir);
  Status first;
  for (std::size_t i = keep; i < seqs.size(); ++i) {
    const std::string base = dir + "/" + CheckpointFileName(seqs[i]);
    for (const std::string& path : {base, base + ".tmp"}) {
      const Status st = RemoveFile(path);
      if (!st.ok() && first.ok()) first = st;
    }
  }
  return first;
}

}  // namespace gcp
