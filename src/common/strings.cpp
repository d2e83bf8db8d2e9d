#include "common/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <sstream>

namespace esm {

std::string format_double(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

void append_g17(std::string& out, double value) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value,
                                std::chars_format::general, 17)
                      .ptr);
}

std::string format_g17(double value) {
  std::string out;
  append_g17(out, value);
  return out;
}

std::string format_percent(double fraction, int precision) {
  return format_double(fraction * 100.0, precision) + "%";
}

std::string format_scientific(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*e", precision, value);
  return buf;
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::ostringstream os;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) os << sep;
    os << parts[i];
  }
  return os.str();
}

std::string pad_right(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s.substr(0, width);
  return s + std::string(width - s.size(), ' ');
}

std::string pad_left(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s.substr(0, width);
  return std::string(width - s.size(), ' ') + s;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         std::equal(prefix.begin(), prefix.end(), s.begin());
}

std::string to_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

}  // namespace esm
