// Figure 17: swapping the GPT-4o profiler for an open-source Llama-3.1-70B
// profiler keeps METIS's gains: 1.4-2.1x lower delay than AdaptiveRAG* at
// similar F1, and 10-14% higher F1 than static configs of similar delay.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/strings.h"

using namespace metis;

int main() {
  const uint64_t kSeed = 42;
  const int kQueries = 150;

  for (const char* name : {"kg_rag_finsec", "squad"}) {
    auto ds = GetOrGenerateDataset(name, kQueries, "cohere-embed-v3-sim", kSeed);
    auto scores = ScoreFixedConfigs(*ds, 40, "mistral-7b-v3-awq", kSeed);

    MixedRunSpec spec;
    spec.base.num_queries = kQueries;
    spec.base.profiler_model = "llama3.1-70b-api";
    spec.base.seed = kSeed;
    size_t slice = std::string(name) == "squad" ? 0 : 2;

    spec.base.system = SystemKind::kMetis;
    RunMetrics metis = RunMixedExperiment(spec)[slice];
    spec.base.system = SystemKind::kAdaptiveRag;
    RunMetrics adaptive = RunMixedExperiment(spec)[slice];

    RagConfig similar = SimilarDelayFixed(scores, metis.mean_delay() / 3.0);
    spec.base.system = SystemKind::kVllmFixed;
    spec.fixed_configs = {similar};
    RunMetrics vllm = RunMixedExperiment(spec)[slice];
    spec.base.system = SystemKind::kParrotFixed;
    RunMetrics parrot = RunMixedExperiment(spec)[slice];

    Table table(StrFormat("Figure 17 (%s, llama-70b profiler)", name));
    table.SetHeader({"system", "mean F1", "mean delay (s)"});
    struct Row {
      const char* n;
      const RunMetrics* m;
    };
    for (const Row& r : {Row{"METIS", &metis}, Row{"AdaptiveRAG*", &adaptive},
                         Row{"Parrot* (similar delay)", &parrot},
                         Row{"vLLM (similar delay)", &vllm}}) {
      table.AddRow({r.n, Table::Num(r.m->mean_f1(), 3), Table::Num(r.m->mean_delay(), 2)});
    }
    table.Print();

    double speedup = adaptive.mean_delay() / metis.mean_delay();
    double f1_gain = (metis.mean_f1() - vllm.mean_f1()) / vllm.mean_f1();
    PrintShapeCheck("open profiler keeps 1.4-2.1x delay advantage at similar F1",
                    StrFormat("%.2fx vs AdaptiveRAG*, F1 %.3f vs %.3f", speedup,
                              metis.mean_f1(), adaptive.mean_f1()),
                    speedup >= 1.3 && metis.mean_f1() >= adaptive.mean_f1() - 0.05);
    PrintShapeCheck("10-14% higher F1 than similar-delay static configs",
                    StrFormat("%+.1f%% vs vLLM static", 100.0 * f1_gain), f1_gain > 0.0);
  }
  return 0;
}
