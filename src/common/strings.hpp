// Small string-formatting helpers shared by table printers, CSV output, and
// log lines in the bench harnesses.
#pragma once

#include <initializer_list>
#include <string>
#include <vector>

namespace esm {

/// Formats a double with `precision` digits after the decimal point.
std::string format_double(double value, int precision = 3);

/// Appends `value` exactly as printf("%.17g") prints it, which round-trips
/// every double. std::to_chars in general format is specified as that
/// printf conversion, so the bytes match while skipping its locale and
/// format parsing; wire payloads, archives and journals all print this way.
void append_g17(std::string& out, double value);

/// append_g17 into a fresh string.
std::string format_g17(double value);

/// Formats a fraction in [0,1] as a percentage string, e.g. 0.976 -> "97.6%".
std::string format_percent(double fraction, int precision = 1);

/// Formats a large count with SI-style grouping, e.g. 8380000 -> "8.38e+06".
std::string format_scientific(double value, int precision = 2);

/// Joins strings with a separator.
std::string join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// Left-pads or truncates `s` to exactly `width` characters.
std::string pad_right(const std::string& s, std::size_t width);

/// Right-aligns `s` in a field of `width` characters.
std::string pad_left(const std::string& s, std::size_t width);

/// True if `s` starts with `prefix`.
bool starts_with(const std::string& s, const std::string& prefix);

/// Lower-cases ASCII characters.
std::string to_lower(std::string s);

/// One key of a rate profile and the field its value lands in.
struct RateField {
  const char* key;
  double* value;
};

/// Parses comma-separated `key=value` pairs (keys case-insensitive, empty
/// pairs skipped) into the matching `fields`. Throws esm::ConfigError,
/// prefixed with `label` (e.g. "fault profile"), on a pair without '=', a
/// value that is not a whole number, or a key not in `fields`.
void parse_rate_profile(const std::string& text, const char* label,
                        std::initializer_list<RateField> fields);

}  // namespace esm
