// Figure 1 (intro preview): METIS vs AdaptiveRAG, Parrot*, and vLLM on the
// KG RAG FinSec dataset — two panels in the paper: response delay and quality.

#include "bench/bench_util.h"
#include "src/common/strings.h"

using namespace metis;

int main() {
  const uint64_t kSeed = 42;
  const int kQueries = 150;

  auto finsec = GetOrGenerateDataset("kg_rag_finsec", kQueries, "cohere-embed-v3-sim", kSeed);
  auto scores = ScoreFixedConfigs(*finsec, 40, "mistral-7b-v3-awq", kSeed);
  RagConfig best = BestQualityFixed(scores);

  MixedRunSpec spec;  // Full concurrent workload; FinSec slice reported.
  spec.base.num_queries = kQueries;
  spec.base.seed = kSeed;

  spec.base.system = SystemKind::kMetis;
  RunMetrics metis = RunMixedExperiment(spec)[2];
  spec.base.system = SystemKind::kAdaptiveRag;
  RunMetrics adaptive = RunMixedExperiment(spec)[2];
  spec.fixed_configs = {best};
  spec.base.system = SystemKind::kParrotFixed;
  RunMetrics parrot = RunMixedExperiment(spec)[2];
  spec.base.system = SystemKind::kVllmFixed;
  RunMetrics vllm = RunMixedExperiment(spec)[2];

  Table table("Figure 1: METIS on KG RAG FinSec vs baselines");
  table.SetHeader({"system", "mean delay (s)", "p90 delay (s)", "mean F1"});
  struct Row {
    const char* name;
    const RunMetrics* m;
  };
  for (const Row& r : {Row{"METIS", &metis}, Row{"AdaptiveRAG (ACL 2024)", &adaptive},
                       Row{"Parrot (OSDI 2024)", &parrot}, Row{"vLLM (SOTA engine)", &vllm}}) {
    table.AddRow({r.name, Table::Num(r.m->mean_delay(), 2), Table::Num(r.m->p90_delay(), 2),
                  Table::Num(r.m->mean_f1(), 3)});
  }
  table.Print();

  bool wins = metis.mean_delay() < adaptive.mean_delay() &&
              metis.mean_delay() < vllm.mean_delay() &&
              metis.mean_f1() >= vllm.mean_f1() - 0.02;
  PrintShapeCheck("METIS sits in the better (low-delay, high-quality) corner on FinSec",
                  StrFormat("delay %.2fs vs %.2f/%.2f/%.2f; F1 %.3f", metis.mean_delay(),
                            adaptive.mean_delay(), parrot.mean_delay(), vllm.mean_delay(),
                            metis.mean_f1()),
                  wins);
  return 0;
}
