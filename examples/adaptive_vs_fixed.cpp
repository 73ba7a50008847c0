// Adaptive vs fixed, end to end: runs the paper's full concurrent workload
// (all four datasets on one engine) under every serving policy in the repo and
// prints the quality/delay/cost landscape — a miniature of Figure 10 you can
// tweak: try different rates, pool sizes, or profiler models below.
//
//   ./build/examples/adaptive_vs_fixed

#include <cstdio>

#include "src/common/table.h"
#include "src/runner/runner.h"

using namespace metis;

int main() {
  MixedRunSpec spec;
  spec.base.num_queries = 80;
  spec.base.arrival_rate = 2.0;     // Try 0.5 (idle) or 4.0 (overload).
  spec.base.profiler_model = "gpt-4o";  // Try "llama3.1-70b-api".
  spec.base.seed = 5;

  struct Policy {
    const char* label;
    SystemKind kind;
    std::vector<RagConfig> fixed;
  };
  const Policy policies[] = {
      {"METIS", SystemKind::kMetis, {}},
      {"AdaptiveRAG*", SystemKind::kAdaptiveRag, {}},
      {"vLLM stuff(k=5)", SystemKind::kVllmFixed, {RagConfig{SynthesisMethod::kStuff, 5, 0}}},
      {"Parrot* stuff(k=5)", SystemKind::kParrotFixed,
       {RagConfig{SynthesisMethod::kStuff, 5, 0}}},
      {"vLLM map_reduce(k=10,L=100)", SystemKind::kVllmFixed,
       {RagConfig{SynthesisMethod::kMapReduce, 10, 100}}},
  };

  Table table("adaptive vs fixed: all four datasets concurrently, 2 qps each");
  table.SetHeader({"policy", "dataset", "mean F1", "mean delay (s)", "p90 (s)", "cost ($)"});
  for (const Policy& p : policies) {
    MixedRunSpec s = spec;
    s.base.system = p.kind;
    if (!p.fixed.empty()) {
      s.fixed_configs = p.fixed;
    }
    auto results = RunMixedExperiment(s);
    for (const RunMetrics& m : results) {
      table.AddRow({p.label, m.label.substr(m.label.find('/') + 1), Table::Num(m.mean_f1(), 3),
                    Table::Num(m.mean_delay(), 2), Table::Num(m.p90_delay(), 2),
                    Table::Num(m.total_cost_usd(), 4)});
    }
  }
  table.Print();
  std::printf("\nNote: fixed configs are one-size-fits-all; METIS adapts the synthesis method,\n"
              "chunk count, and intermediate length per query against live GPU memory.\n");
  return 0;
}
