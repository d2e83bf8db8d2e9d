#include "common/archive.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <fstream>

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

bool is_space(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
         c == '\f';
}

bool valid_key(const std::string& key) {
  return !key.empty() && std::none_of(key.begin(), key.end(), is_space);
}

/// Reads the `key count v0 v1 ...` groups of `line` into `groups`; with
/// `one_group`, the line must hold exactly one. `where` ("", or " at line
/// N") places each error.
void parse_groups(std::string_view line, bool one_group,
                  const std::string& where,
                  std::map<std::string, std::vector<std::string>>& groups) {
  std::size_t pos = 0;
  const auto next = [&](std::string_view& token) {
    while (pos < line.size() && is_space(line[pos])) ++pos;
    const std::size_t begin = pos;
    while (pos < line.size() && !is_space(line[pos])) ++pos;
    token = line.substr(begin, pos - begin);
    return !token.empty();
  };
  std::string_view token;
  while (next(token) || one_group) {
    ESM_REQUIRE(!token.empty(), "archive parse error" << where);
    std::string key(token);
    std::size_t count = 0;
    const bool counted = next(token);
    const auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), count);
    ESM_REQUIRE(counted && ec == std::errc() &&
                    end == token.data() + token.size(),
                "archive entry '" << key << "' has no valid count" << where);
    // A hostile count (e.g. from a bit flip in the digits) must not drive a
    // huge reserve(): each value needs at least two bytes ("v "), so the
    // line length bounds the plausible element count.
    ESM_REQUIRE(count <= line.size(),
                "archive entry '" << key << "' declares " << count
                                  << " values but its line is only "
                                  << line.size() << " bytes long" << where);
    std::vector<std::string> values;
    values.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      ESM_REQUIRE(next(token),
                  "archive entry '" << key << "' truncated" << where);
      values.emplace_back(token);
    }
    ESM_REQUIRE(!one_group || !next(token),
                "archive entry '" << key << "' has trailing garbage '"
                                  << token << "'" << where);
    ESM_REQUIRE(groups.emplace(key, std::move(values)).second,
                "duplicate archive key '" << key << "'" << where);
    if (one_group) return;
  }
}

long long parse_int(const std::string& key, const std::string& raw) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(raw.c_str(), &end, 10);
  ESM_REQUIRE(!raw.empty() && *end == '\0' && errno == 0,
              "archive key '" << key << "' is not an integer: " << raw);
  return v;
}

double parse_double(const std::string& key, const std::string& raw) {
  char* end = nullptr;
  const double v = std::strtod(raw.c_str(), &end);
  ESM_REQUIRE(!raw.empty() && *end == '\0',
              "archive key '" << key << "' is not a number: " << raw);
  return v;
}

}  // namespace

std::uint64_t parse_u64(const std::string& key, const std::string& raw) {
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(raw.c_str(), &end, 10);
  ESM_REQUIRE(!raw.empty() && *end == '\0' && errno == 0 &&
                  raw.find('-') == std::string::npos,
              "archive key '" << key << "' is not a u64: " << raw);
  return v;
}

void ArchiveWriter::put_string(const std::string& key,
                               const std::string& value) {
  put_strings(key, {value});
}

void ArchiveWriter::put_double(const std::string& key, double value) {
  put_doubles(key, {value});
}

void ArchiveWriter::put_int(const std::string& key, long long value) {
  put_strings(key, {std::to_string(value)});
}

void ArchiveWriter::put_u64(const std::string& key, std::uint64_t value) {
  put_strings(key, {std::to_string(value)});
}

void ArchiveWriter::put_bool(const std::string& key, bool value) {
  put_strings(key, {value ? "1" : "0"});
}

void ArchiveWriter::put_doubles(const std::string& key,
                                const std::vector<double>& values) {
  ESM_REQUIRE(valid_key(key), "invalid archive key: '" << key << "'");
  std::string payload = std::to_string(values.size());
  for (double v : values) {
    payload += ' ';
    append_g17(payload, v);
  }
  entries_.emplace_back(key, std::move(payload));
}

void ArchiveWriter::put_strings(const std::string& key,
                                const std::vector<std::string>& values) {
  ESM_REQUIRE(valid_key(key), "invalid archive key: '" << key << "'");
  std::string payload = std::to_string(values.size());
  for (const std::string& v : values) {
    ESM_REQUIRE(valid_key(v),
                "archive string values must be whitespace-free: '" << v
                                                                   << "'");
    payload.append(" ").append(v);
  }
  entries_.emplace_back(key, std::move(payload));
}

std::string ArchiveWriter::to_string() const {
  std::string content = kMagicPrefix + std::to_string(kFormatVersion) + '\n';
  for (const auto& [key, payload] : entries_) {
    content.append(key).append(" ").append(payload).append("\n");
  }
  // The footer checksums every byte above it, so any later truncation or
  // bit flip — header, keys, values, even whitespace — is detected on load.
  const std::uint32_t crc = crc32(content);
  content.append(kFooterKey).append(" ").append(crc32_hex(crc)).append("\n");
  return content;
}

std::string ArchiveWriter::to_line() const {
  std::string line;
  for (const auto& [key, payload] : entries_) {
    if (!line.empty()) line += ' ';
    line.append(key).append(" ").append(payload);
  }
  return line;
}

void ArchiveWriter::save(const std::string& path) const {
  std::ofstream out(path);
  ESM_REQUIRE(out.good(), "cannot open archive for writing: " << path);
  out << to_string();
  ESM_REQUIRE(out.good(), "failed writing archive: " << path);
}

ArchiveReader ArchiveReader::from_string(const std::string& content) {
  std::string_view header(content.data(),
                          std::min(content.find('\n'), content.size()));
  if (!header.empty() && header.back() == '\r') header.remove_suffix(1);
  ESM_REQUIRE(header.substr(0, std::strlen(kMagicPrefix)) == kMagicPrefix,
              "not an ESM archive (bad header: '" << header << "')");
  const std::string version_text(header.substr(std::strlen(kMagicPrefix)));
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
  std::string_view body = content;
  ArchiveReader reader;
  if (version >= 2) {
    // Find the start of the last non-empty line.
    std::size_t end_pos = body.size();
    while (end_pos > 0 && (body[end_pos - 1] == '\n' || body[end_pos - 1] == '\r'))
      --end_pos;
    const std::size_t line_start = body.rfind('\n', end_pos == 0 ? 0 : end_pos - 1);
    const std::size_t footer_begin =
        (line_start == std::string::npos) ? 0 : line_start + 1;
    const std::string_view footer =
        body.substr(footer_begin, end_pos - footer_begin);
    ESM_REQUIRE(footer.substr(0, std::strlen(kFooterKey)) == kFooterKey &&
                    footer.size() > std::strlen(kFooterKey) &&
                    footer[std::strlen(kFooterKey)] == ' ',
                "truncated archive: v" << version
                                       << " requires a trailing '" << kFooterKey
                                       << "' footer, found none");
    std::uint32_t stored = 0;
    const std::string hex(footer.substr(std::strlen(kFooterKey) + 1));
    ESM_REQUIRE(parse_crc32_hex(hex, stored),
                "truncated archive: malformed checksum footer '" << footer
                                                                 << "'");
    const std::uint32_t actual = crc32(body.substr(0, footer_begin));
    ESM_REQUIRE(actual == stored,
                "archive checksum mismatch: footer says "
                    << hex << " but contents hash to " << crc32_hex(actual)
                    << " (file is corrupt or was modified)");
    body = body.substr(0, footer_begin);
    reader.checksummed_ = true;
  }

  // One group per line after the header; empty lines are skipped.
  std::size_t pos = body.find('\n');
  int line_no = 1;
  while (pos != std::string_view::npos && pos + 1 < body.size()) {
    const std::size_t begin = pos + 1;
    pos = body.find('\n', begin);
    ++line_no;
    std::string_view line = body.substr(begin, pos - begin);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    parse_groups(line, /*one_group=*/true,
                 " at line " + std::to_string(line_no), reader.entries_);
  }
  return reader;
}

ArchiveReader ArchiveReader::from_line(std::string_view line) {
  ArchiveReader reader;
  parse_groups(line, /*one_group=*/false, "", reader.entries_);
  return reader;
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
  return parse_double(key, get_string(key));
}

long long ArchiveReader::get_int(const std::string& key) const {
  return parse_int(key, get_string(key));
}

std::uint64_t ArchiveReader::get_u64(const std::string& key) const {
  return parse_u64(key, get_string(key));
}

bool ArchiveReader::get_bool(const std::string& key) const {
  const long long v = get_int(key);
  ESM_REQUIRE(v == 0 || v == 1, "archive key '" << key << "' is not a bool");
  return v == 1;
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
    out.push_back(parse_double(key, raw));
  }
  return out;
}

}  // namespace esm
