// Design-choice ablation (DESIGN.md §5): quantifies the scheduler refinements
// this reproduction layers on top of Algorithm 1's literal text, by switching
// each one off independently under the paper's concurrent workload:
//
//   - LITM cap:          exclude stuff prompts past the quality-safe budget.
//   - method preference: prefer map_reduce for high-complexity queries.
//   - Fig-8 fallback:    fall back to map_reduce when stuff-as-fits cannot
//                        cover the information need.
//   - projected free:    measure headroom net of the waiting queue's claims.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/strings.h"

using namespace metis;

int main() {
  const uint64_t kSeed = 42;

  struct Variant {
    const char* label;
    JointSchedulerOptions options;
  };
  JointSchedulerOptions full;
  JointSchedulerOptions no_litm = full;
  no_litm.litm_cap = false;
  JointSchedulerOptions no_pref = full;
  no_pref.prefer_map_reduce_for_complex = false;
  JointSchedulerOptions no_fig8 = full;
  no_fig8.fig8_fallback = false;
  JointSchedulerOptions raw_free = full;
  raw_free.use_projected_free = false;

  const Variant variants[] = {
      {"full METIS", full},
      {"- LITM cap", no_litm},
      {"- map_reduce preference", no_pref},
      {"- Fig-8 fallback", no_fig8},
      {"- projected free memory", raw_free},
  };

  Table table("Design ablation: each refinement removed independently (mixed, 2 qps/ds)");
  table.SetHeader({"variant", "mean F1 (4 ds)", "mean delay (s)", "p90 (s)"});
  double full_f1 = 0, full_delay = 0;
  bool full_is_best = true;
  for (const Variant& v : variants) {
    MixedRunSpec spec;
    spec.base.num_queries = 120;
    spec.base.seed = kSeed;
    spec.base.system = SystemKind::kMetis;
    spec.base.scheduler = v.options;
    auto results = RunMixedExperiment(spec);
    double f1 = 0, delay = 0, p90 = 0;
    for (const RunMetrics& m : results) {
      f1 += m.mean_f1() / results.size();
      delay += m.mean_delay() / results.size();
      p90 += m.p90_delay() / results.size();
    }
    table.AddRow({v.label, Table::Num(f1, 3), Table::Num(delay, 2), Table::Num(p90, 2)});
    if (v.label == std::string("full METIS")) {
      full_f1 = f1;
      full_delay = delay;
    } else {
      // The full system should Pareto-dominate-or-tie each ablated variant:
      // no variant may beat it on BOTH quality and delay by a real margin.
      bool dominated = f1 > full_f1 + 0.01 && delay < full_delay * 0.95;
      full_is_best = full_is_best && !dominated;
    }
  }
  table.Print();
  PrintShapeCheck("no ablated variant Pareto-dominates the full system",
                  StrFormat("full: F1 %.3f @ %.2fs", full_f1, full_delay), full_is_best);
  return 0;
}
