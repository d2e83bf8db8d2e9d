// The one token-group codec, for `.esm` surrogate archives and for
// campaign-journal record bodies (esm/journal.hpp): whitespace-free groups
// `<key> <count> <v0> <v1> ...`. A file holds one group per line, closed
// by a checksum footer; a journal body joins the groups on one line
// (to_line/from_line) and the journal frames and checksums it:
//   esm-archive v2
//   <key> <count> <v0> <v1> ...
//   esm-archive-crc32 <8-hex-digit CRC32>
// Keys are written/read in any order; vectors of doubles and of
// whitespace-free strings, and scalars of each type, are supported.
//
// The header line carries the container format version. Readers reject
// duplicate keys and any version newer than the one this build writes,
// each with a distinct esm::ConfigError (a garbled header is reported as
// "not an ESM archive", a newer version as "unsupported format version").
//
// Integrity: the v2 footer is the CRC32 (common/checksum.hpp) of every
// byte before the footer line. A v2 archive with a missing footer is
// reported as truncated, and one whose bytes do not match the footer as a
// checksum mismatch — a single flipped bit anywhere in the file is caught.
// v1 archives (no footer) still load, with checksummed() reporting false.
// Group parsing is hardened independently: counts are whole decimal tokens
// bounded by the line length, truncated groups and tokens after a file
// line's group are rejected, numbers must fill their token and fit their
// type (a u64 takes no sign, a bool is 0 or 1), and every error names the
// offending key (and, in a file, the line).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace esm {

/// Accumulates entries and writes them to a file on save().
class ArchiveWriter {
 public:
  void put_string(const std::string& key, const std::string& value);
  void put_double(const std::string& key, double value);
  void put_int(const std::string& key, long long value);
  void put_u64(const std::string& key, std::uint64_t value);
  void put_bool(const std::string& key, bool value);
  void put_doubles(const std::string& key, const std::vector<double>& values);
  /// Every element must be a non-empty whitespace-free token.
  void put_strings(const std::string& key,
                   const std::vector<std::string>& values);

  /// Writes the archive; throws esm::ConfigError on I/O failure.
  void save(const std::string& path) const;

  /// Renders the archive file to a string (used by tests).
  std::string to_string() const;

  /// The groups joined on one line, with no header, footer or newline.
  std::string to_line() const;

 private:
  // Preserves insertion order for stable output.
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Parses an archive file; typed getters throw esm::ConfigError on missing
/// keys or type mismatches.
class ArchiveReader {
 public:
  /// Parses archive file bytes; throws esm::ConfigError on parse failure.
  static ArchiveReader from_string(const std::string& content);

  /// Parses one line of space-separated groups, as to_line() renders them.
  static ArchiveReader from_line(std::string_view line);

  bool has(const std::string& key) const;
  std::string get_string(const std::string& key) const;
  double get_double(const std::string& key) const;
  long long get_int(const std::string& key) const;
  std::uint64_t get_u64(const std::string& key) const;
  bool get_bool(const std::string& key) const;
  std::vector<double> get_doubles(const std::string& key) const;
  std::vector<std::string> get_strings(const std::string& key) const;

  /// True if the archive carried (and passed) a CRC32 footer. False only
  /// for pre-footer v1 archives, which load without integrity protection.
  bool checksummed() const { return checksummed_; }

  /// Every group, by key.
  const std::map<std::string, std::vector<std::string>>& groups() const {
    return entries_;
  }

 private:
  std::map<std::string, std::vector<std::string>> entries_;
  bool checksummed_ = false;
};

/// Parses `raw` as get_u64() does, naming `key` in the error.
std::uint64_t parse_u64(const std::string& key, const std::string& raw);

}  // namespace esm
