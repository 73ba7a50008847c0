// Span recorder for the traced run. Spans are recorded by the benchmark's own
// code around its calls into each layer (nothing inside the program is
// instrumented), kept in memory, and written as JSON lines when the run ends.

#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  int id = -1;
  int parent = -1;          // -1: a root span.
  const char* name = "";    // String literal.
  const char* layer = "";   // String literal: the repo module the call enters.
  int32_t query_id = -1;    // Shared by every span of one query; -1 for none.
  double start_s = 0;       // Seconds since the tracer was created.
  double end_s = 0;
};

class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  // Opens a span and returns its id.
  int Begin(const char* name, const char* layer, int parent = -1, int32_t query_id = -1) {
    Span s;
    s.id = static_cast<int>(spans_.size());
    s.parent = parent;
    s.name = name;
    s.layer = layer;
    s.query_id = query_id;
    s.start_s = Now();
    spans_.push_back(s);
    return s.id;
  }
  void End(int id) { spans_[static_cast<size_t>(id)].end_s = Now(); }

  // Appends a finished span with explicit times (tests).
  int Add(Span s) {
    s.id = static_cast<int>(spans_.size());
    spans_.push_back(s);
    return s.id;
  }

  const std::vector<Span>& spans() const { return spans_; }
  double Duration(int id) const {
    const Span& s = spans_[static_cast<size_t>(id)];
    return s.end_s - s.start_s;
  }

  // One JSON object per span per line. Returns false when the file cannot be
  // written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

// Self time of every span (indexed by span id): its duration minus the part
// of its interval that its children's intervals cover (overlapping children
// count once; child time outside the parent's interval does not count).
std::vector<double> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
