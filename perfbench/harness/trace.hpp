// In-memory span recorder for the traced run. Spans are recorded by the
// harness around its calls into each layer (nothing inside the programs
// is instrumented), kept in memory, and written out once at exit.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string: a layer or call name
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the tracer's spans; -1 = root
  std::uint64_t trace_id = 0;
};

class Tracer {
 public:
  /// Opens a span now; returns its index for end() and for children.
  std::int32_t begin(const char* name, std::int32_t parent = -1,
                     std::uint64_t trace_id = 0);
  void end(std::int32_t index);

  /// Records an already-timed span.
  std::int32_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent,
                   std::uint64_t trace_id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as Chrome trace-event JSON ("X" events, in
  /// microseconds, trace id and parent index in args).
  void write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span: begin on construction, end on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::int32_t parent = -1,
             std::uint64_t trace_id = 0)
      : tracer_(tracer), index_(tracer.begin(name, parent, trace_id)) {}
  ~ScopedSpan() { tracer_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int32_t index() const { return index_; }

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers (children are
/// clipped to the parent, and overlapping children count once).
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Sum of self time per span name, in nanoseconds.
std::map<std::string, std::int64_t> self_time_by_name(
    const std::vector<Span>& spans);

}  // namespace perfbench
