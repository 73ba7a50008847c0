#include "perfbench/src/trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\": %d, \"parent\": %d, \"name\": \"%s\", \"layer\": \"%s\", "
                 "\"query_id\": %d, \"start_s\": %.9f, \"end_s\": %.9f}\n",
                 s.id, s.parent, s.name, s.layer, static_cast<int>(s.query_id), s.start_s,
                 s.end_s);
  }
  return std::fclose(f) == 0;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_s, s.end_s);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    double covered = 0;
    double run_start = 0;
    double run_end = -1;
    bool open = false;
    for (const auto& [start, end] : kids) {
      double a = std::max(start, p.start_s);
      double b = std::min(end, p.end_s);
      if (b <= a) {
        continue;
      }
      if (open && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (open) {
        covered += run_end - run_start;
      }
      run_start = a;
      run_end = b;
      open = true;
    }
    if (open) {
      covered += run_end - run_start;
    }
    self[i] = (p.end_s - p.start_s) - covered;
  }
  return self;
}

}  // namespace perfbench
