// Figure 18: the LLM profiler's latency is a small fraction of end-to-end
// response delay — at most ~1/10, on average 0.03-0.06 — because it reads only
// the query and the database metadata, not the retrieved context.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/strings.h"

using namespace metis;

int main() {
  MixedRunSpec spec;
  spec.base.num_queries = 200;
  spec.base.seed = 42;
  spec.base.system = SystemKind::kMetis;
  auto results = RunMixedExperiment(spec);

  Table table("Figure 18: profiler delay as a fraction of end-to-end delay");
  table.SetHeader({"dataset", "mean frac", "p90 frac", "max frac", "mean profiler (s)",
                   "mean e2e (s)"});
  bool ok = true;
  double worst_mean = 0;
  for (const RunMetrics& m : results) {
    double max_frac = m.profiler_fracs.empty() ? 0 : m.profiler_fracs.max();
    double mean_frac = m.profiler_fracs.mean();
    table.AddRow({m.label, Table::Num(mean_frac, 3), Table::Num(m.profiler_fracs.p90(), 3),
                  Table::Num(max_frac, 3), Table::Num(m.profiler_delays.mean(), 3),
                  Table::Num(m.delays.mean(), 2)});
    ok = ok && mean_frac <= 0.12;
    worst_mean = std::max(worst_mean, mean_frac);
  }
  table.Print();
  PrintShapeCheck("profiler adds at most ~0.1 of e2e delay; 0.03-0.06 on average",
                  StrFormat("worst per-dataset mean fraction %.3f", worst_mean), ok);
  return 0;
}
