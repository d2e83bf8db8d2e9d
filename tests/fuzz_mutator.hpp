// Grammar-agnostic byte mutations shared by the seeded in-repo fuzz tests,
// and mutate_groups(), which mixes them for the token-group codec.
//
// Each helper applies one random edit to a string and draws from the
// caller's Rng in a fixed order, so a seeded test replays the same cases on
// every run. A test's own mutate() picks among these and adds the edits
// that know its grammar (joining two seeds with a separator, say).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"

namespace esm::fuzz {

/// A uniform position in [0, size].
inline std::size_t position(std::size_t size, Rng& rng) {
  return static_cast<std::size_t>(rng.uniform_u64(size + 1));
}

inline void flip_bit(std::string& s, Rng& rng) {
  if (!s.empty()) {
    s[position(s.size() - 1, rng)] ^=
        static_cast<char>(1 << rng.uniform_int(0, 7));
  }
}

/// Joins a prefix of `s` to a suffix of a random seed.
inline void splice(std::string& s, const std::vector<std::string>& seeds,
                   Rng& rng) {
  const std::string& other = seeds[rng.uniform_u64(seeds.size())];
  s = s.substr(0, position(s.size(), rng)) +
      other.substr(position(other.size(), rng));
}

inline void truncate(std::string& s, Rng& rng) {
  s.resize(position(s.size(), rng));
}

/// Repeats one `sep`-delimited field right after itself.
inline void duplicate_field(std::string& s, char sep, Rng& rng) {
  const std::size_t next = s.find(sep, position(s.size(), rng));
  const std::size_t begin = s.rfind(sep, next == 0 ? 0 : next - 1);
  const std::size_t from = begin == std::string::npos ? 0 : begin + 1;
  const std::size_t to = next == std::string::npos ? s.size() : next;
  if (from < to) s.insert(to, sep + s.substr(from, to - from));
}

inline void erase_byte(std::string& s, Rng& rng) {
  if (!s.empty()) s.erase(position(s.size() - 1, rng), 1);
}

/// Inserts one of `fragments` at a random position.
template <std::size_t N>
void insert_fragment(std::string& s, const std::string_view (&fragments)[N],
                     Rng& rng) {
  s.insert(position(s.size(), rng),
           std::string(fragments[rng.uniform_u64(N)]));
}

/// Replaces the digit run at or after a random position with one of
/// `numbers`.
template <std::size_t N>
void replace_number(std::string& s, const char* const (&numbers)[N],
                    Rng& rng) {
  const std::size_t start =
      s.find_first_of("0123456789", position(s.size(), rng));
  if (start == std::string::npos) return;
  const std::size_t stop = s.find_first_not_of("0123456789.", start);
  s.replace(start,
            stop == std::string::npos ? s.size() - start : stop - start,
            numbers[rng.uniform_int(0, static_cast<int>(N) - 1)]);
}

inline void insert_random_byte(std::string& s, Rng& rng) {
  s.insert(position(s.size(), rng), 1,
           static_cast<char>(rng.uniform_int(0, 255)));
}

/// One random edit of token-group text (common/archive.hpp): archive lines
/// when `sep` is '\n', a journal record body when it is ' '. `seeds`
/// supplies splice partners.
inline void mutate_groups(std::string& s, const std::vector<std::string>& seeds,
                          char sep, Rng& rng) {
  static constexpr std::string_view kFragments[] = {
      " ",     "  ",    "\n",    "\r",   "\t",   "\v",   "\f",   "0",
      "1",     "2",     "-1",    "+1",   "-0",   "nan",  "-nan", "inf",
      "1e999", "0x1p3", ".5e-3", "4.9406564584124654e-324",
      "18446744073709551615",   "18446744073709551616",
      "9223372036854775808",    "-9223372036854775809",
      "esm-archive v2\n",       "esm-archive-crc32 ",
      "k 0",   "k 1 v", std::string_view("\0", 1)};
  static const char* const kNumbers[] = {
      "0",  "1", "2",  "3",   "-1",  "+2",   "007", "99999999999999999999",
      "18446744073709551615", "1e3", "nan", "0x10"};
  switch (rng.uniform_int(0, 7)) {
    case 0: flip_bit(s, rng); break;
    case 1: splice(s, seeds, rng); break;
    case 2: truncate(s, rng); break;
    case 3: duplicate_field(s, sep, rng); break;  // a line or a token
    case 4: erase_byte(s, rng); break;
    case 5: insert_fragment(s, kFragments, rng); break;
    case 6: replace_number(s, kNumbers, rng); break;
    default: insert_random_byte(s, rng); break;
  }
}

}  // namespace esm::fuzz
