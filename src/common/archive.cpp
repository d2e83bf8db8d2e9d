#include "common/archive.hpp"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"

namespace esm {
namespace {

constexpr const char* kMagicPrefix = "esm-archive v";
constexpr const char* kFooterKey = "esm-archive-crc32";
// v2 added the trailing CRC32 footer; v1 (no footer) still loads so that
// artifacts written by earlier builds keep working, just unprotected.
constexpr long long kFormatVersion = 2;
constexpr long long kOldestReadableVersion = 1;

bool valid_key(const std::string& key) {
  if (key.empty()) return false;
  for (char c : key) {
    if (c == ' ' || c == '\n' || c == '\t' || c == '\r') return false;
  }
  return true;
}

}  // namespace

void ArchiveWriter::put_string(const std::string& key,
                               const std::string& value) {
  ESM_REQUIRE(valid_key(key), "invalid archive key: '" << key << "'");
  ESM_REQUIRE(valid_key(value),
              "archive string values must be whitespace-free: '" << value
                                                                 << "'");
  entries_.emplace_back(key, "1 " + value);
}

void ArchiveWriter::put_double(const std::string& key, double value) {
  ESM_REQUIRE(valid_key(key), "invalid archive key: '" << key << "'");
  entries_.emplace_back(key, "1 " + format_g17(value));
}

void ArchiveWriter::put_int(const std::string& key, long long value) {
  ESM_REQUIRE(valid_key(key), "invalid archive key: '" << key << "'");
  entries_.emplace_back(key, "1 " + std::to_string(value));
}

void ArchiveWriter::put_doubles(const std::string& key,
                                const std::vector<double>& values) {
  ESM_REQUIRE(valid_key(key), "invalid archive key: '" << key << "'");
  std::ostringstream os;
  os << values.size();
  for (double v : values) os << ' ' << format_g17(v);
  entries_.emplace_back(key, os.str());
}

void ArchiveWriter::put_strings(const std::string& key,
                                const std::vector<std::string>& values) {
  ESM_REQUIRE(valid_key(key), "invalid archive key: '" << key << "'");
  std::ostringstream os;
  os << values.size();
  for (const std::string& v : values) {
    ESM_REQUIRE(valid_key(v),
                "archive string values must be whitespace-free: '" << v
                                                                   << "'");
    os << ' ' << v;
  }
  entries_.emplace_back(key, os.str());
}

std::string ArchiveWriter::to_string() const {
  std::ostringstream os;
  os << kMagicPrefix << kFormatVersion << '\n';
  for (const auto& [key, payload] : entries_) {
    os << key << ' ' << payload << '\n';
  }
  // The footer checksums every byte above it, so any later truncation or
  // bit flip — header, keys, values, even whitespace — is detected on load.
  std::string content = os.str();
  const std::uint32_t crc = crc32(content);
  content += kFooterKey;
  content += ' ';
  content += crc32_hex(crc);
  content += '\n';
  return content;
}

void ArchiveWriter::save(const std::string& path) const {
  std::ofstream out(path);
  ESM_REQUIRE(out.good(), "cannot open archive for writing: " << path);
  out << to_string();
  ESM_REQUIRE(out.good(), "failed writing archive: " << path);
}

ArchiveReader ArchiveReader::from_string(const std::string& content) {
  std::istringstream in(content);
  std::string header;
  std::getline(in, header);
  if (!header.empty() && header.back() == '\r') header.pop_back();
  ESM_REQUIRE(header.rfind(kMagicPrefix, 0) == 0,
              "not an ESM archive (bad header: '" << header << "')");
  const std::string version_text = header.substr(std::strlen(kMagicPrefix));
  char* end = nullptr;
  const long long version = std::strtoll(version_text.c_str(), &end, 10);
  ESM_REQUIRE(end != nullptr && *end == '\0' && !version_text.empty(),
              "not an ESM archive (bad header: '" << header << "')");
  ESM_REQUIRE(version >= kOldestReadableVersion && version <= kFormatVersion,
              "unsupported archive format version v"
                  << version << " (this build reads v" << kOldestReadableVersion
                  << "..v" << kFormatVersion << ")");

  // v2+ archives end with "esm-archive-crc32 <hex8>" checksumming every byte
  // before it. Locate and verify the footer before parsing entries, so a
  // truncated or bit-flipped file is rejected with a precise error instead
  // of surfacing as a confusing entry-level parse failure.
  std::string body = content;
  ArchiveReader reader;
  if (version >= 2) {
    // Find the start of the last non-empty line.
    std::size_t end_pos = body.size();
    while (end_pos > 0 && (body[end_pos - 1] == '\n' || body[end_pos - 1] == '\r'))
      --end_pos;
    const std::size_t line_start = body.rfind('\n', end_pos == 0 ? 0 : end_pos - 1);
    const std::size_t footer_begin =
        (line_start == std::string::npos) ? 0 : line_start + 1;
    std::string footer = body.substr(footer_begin, end_pos - footer_begin);
    if (!footer.empty() && footer.back() == '\r') footer.pop_back();
    ESM_REQUIRE(footer.rfind(kFooterKey, 0) == 0 &&
                    footer.size() > std::strlen(kFooterKey) &&
                    footer[std::strlen(kFooterKey)] == ' ',
                "truncated archive: v" << version
                                       << " requires a trailing '" << kFooterKey
                                       << "' footer, found none");
    std::uint32_t stored = 0;
    const std::string hex = footer.substr(std::strlen(kFooterKey) + 1);
    ESM_REQUIRE(parse_crc32_hex(hex, stored),
                "truncated archive: malformed checksum footer '" << footer
                                                                 << "'");
    const std::uint32_t actual = crc32(
        std::string_view(body.data(), footer_begin));
    ESM_REQUIRE(actual == stored,
                "archive checksum mismatch: footer says "
                    << hex << " but contents hash to " << crc32_hex(actual)
                    << " (file is corrupt or was modified)");
    body.resize(footer_begin);
    reader.checksummed_ = true;
  }

  std::istringstream entries_in(body);
  std::string skip_header;
  std::getline(entries_in, skip_header);
  std::string line;
  int line_no = 1;
  while (std::getline(entries_in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    std::istringstream tokens(line);
    std::string key;
    std::size_t count = 0;
    ESM_REQUIRE(static_cast<bool>(tokens >> key >> count),
                "archive parse error at line " << line_no);
    // A hostile count (e.g. from a bit flip in the digits) must not drive a
    // huge reserve(): each value needs at least two bytes ("v "), so the
    // line length bounds the plausible element count.
    ESM_REQUIRE(count <= line.size(),
                "archive entry '" << key << "' declares " << count
                                  << " values but line " << line_no
                                  << " is only " << line.size()
                                  << " bytes long");
    std::vector<std::string> values;
    values.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      std::string v;
      ESM_REQUIRE(static_cast<bool>(tokens >> v),
                  "archive entry '" << key << "' truncated at line "
                                    << line_no);
      values.push_back(std::move(v));
    }
    std::string trailing;
    ESM_REQUIRE(!(tokens >> trailing),
                "archive entry '" << key << "' has trailing garbage '"
                                  << trailing << "' at line " << line_no);
    ESM_REQUIRE(reader.entries_.emplace(key, std::move(values)).second,
                "duplicate archive key '" << key << "'");
  }
  return reader;
}

ArchiveReader ArchiveReader::from_file(const std::string& path) {
  std::ifstream in(path);
  ESM_REQUIRE(in.good(), "cannot open archive: " << path);
  std::ostringstream content;
  content << in.rdbuf();
  return from_string(content.str());
}

bool ArchiveReader::has(const std::string& key) const {
  return entries_.count(key) > 0;
}

std::string ArchiveReader::get_string(const std::string& key) const {
  const auto it = entries_.find(key);
  ESM_REQUIRE(it != entries_.end(), "archive key missing: '" << key << "'");
  ESM_REQUIRE(it->second.size() == 1,
              "archive key '" << key << "' is not a scalar");
  return it->second.front();
}

double ArchiveReader::get_double(const std::string& key) const {
  const std::string raw = get_string(key);
  char* end = nullptr;
  const double v = std::strtod(raw.c_str(), &end);
  ESM_REQUIRE(end != nullptr && *end == '\0',
              "archive key '" << key << "' is not a number: " << raw);
  return v;
}

long long ArchiveReader::get_int(const std::string& key) const {
  const std::string raw = get_string(key);
  char* end = nullptr;
  const long long v = std::strtoll(raw.c_str(), &end, 10);
  ESM_REQUIRE(end != nullptr && *end == '\0',
              "archive key '" << key << "' is not an integer: " << raw);
  return v;
}

std::vector<std::string> ArchiveReader::get_strings(
    const std::string& key) const {
  const auto it = entries_.find(key);
  ESM_REQUIRE(it != entries_.end(), "archive key missing: '" << key << "'");
  return it->second;
}

std::vector<double> ArchiveReader::get_doubles(const std::string& key) const {
  const auto it = entries_.find(key);
  ESM_REQUIRE(it != entries_.end(), "archive key missing: '" << key << "'");
  std::vector<double> out;
  out.reserve(it->second.size());
  for (const std::string& raw : it->second) {
    char* end = nullptr;
    const double v = std::strtod(raw.c_str(), &end);
    ESM_REQUIRE(end != nullptr && *end == '\0',
                "archive key '" << key << "' holds a non-number: " << raw);
    out.push_back(v);
  }
  return out;
}

}  // namespace esm
