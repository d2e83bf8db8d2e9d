#include "common/strings.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/error.hpp"

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

void parse_rate_profile(const std::string& text, const char* label,
                        std::initializer_list<RateField> fields) {
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string pair = text.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    start = comma == std::string::npos ? text.size() + 1 : comma + 1;
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    ESM_REQUIRE(eq != std::string::npos,
                label << ": expected key=value, got '" << pair << "'");
    const std::string key = to_lower(pair.substr(0, eq));
    const std::string value = pair.substr(eq + 1);
    char* end = nullptr;
    errno = 0;  // std::stod's checks, without its exceptions
    const double parsed = std::strtod(value.c_str(), &end);
    ESM_REQUIRE(end != value.c_str() && errno != ERANGE,
                label << ": '" << key << "=" << value << "' is not a number");
    ESM_REQUIRE(end == value.c_str() + value.size(),
                label << ": trailing junk in '" << key << "=" << value << "'");
    const RateField* field =
        std::find_if(fields.begin(), fields.end(),
                     [&key](const RateField& f) { return key == f.key; });
    if (field == fields.end()) {
      std::string valid;
      for (const RateField& f : fields) {
        valid += valid.empty() ? "" : ", ";
        valid += f.key;
      }
      ESM_REQUIRE(false, label << ": unknown key '" << key << "' (valid: "
                               << valid << ")");
    }
    *field->value = parsed;
  }
}

}  // namespace esm
