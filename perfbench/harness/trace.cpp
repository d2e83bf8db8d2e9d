#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <stdexcept>
#include <utility>

#include "util.hpp"

namespace perfbench {

std::int32_t Tracer::begin(const char* name, std::int32_t parent,
                           std::uint64_t trace_id) {
  return add(name, now_ns(), 0, parent, trace_id);
}

void Tracer::end(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

std::int32_t Tracer::add(const char* name, std::int64_t start_ns,
                         std::int64_t end_ns, std::int32_t parent,
                         std::uint64_t trace_id) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, trace_id});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << static_cast<double>(s.start_ns - origin) * 1e-3
        << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"trace_id\": " << s.trace_id << "}}";
  }
  out << "\n]}\n";
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::map<std::string, std::int64_t> self_time_by_name(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

}  // namespace perfbench
