// Figure 16: incrementally enabling METIS's knobs on QMSUM (Mistral-7B-v3)
// improves the quality-delay point step by step:
//   vLLM fixed -> +num_chunks -> +synthesis_method -> +intermediate_length
//   -> +joint scheduling (full METIS, ~2.8x delay reduction).

#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/strings.h"

using namespace metis;

int main() {
  const uint64_t kSeed = 42;
  const int kQueries = 150;
  auto ds = GetOrGenerateDataset("qmsum", kQueries, "cohere-embed-v3-sim", kSeed);
  RagConfig best = BestQualityFixed(ScoreFixedConfigs(*ds, 40, "mistral-7b-v3-awq", kSeed));

  MixedRunSpec spec;  // QMSUM slice of the concurrent workload.
  spec.base.num_queries = kQueries;
  spec.base.seed = kSeed;
  const size_t kSlice = 3;  // qmsum.

  struct Stage {
    const char* label;
    bool chunks, method, interm, schedule;
  };
  const Stage stages[] = {
      {"vLLM (fixed config)", false, false, false, false},
      {"+ num_chunks", true, false, false, false},
      {"+ synthesis_method", true, true, false, false},
      {"+ intermediate_length", true, true, true, false},
      {"METIS (+ scheduling)", true, true, true, true},
  };

  Table table("Figure 16 (qmsum): tuning more knobs improves quality-delay");
  table.SetHeader({"stage", "mean F1", "mean delay (s)"});
  double base_delay = 0, base_f1 = 0, full_delay = 0, full_f1 = 0;
  double prev_f1 = 0;
  bool monotone_f1 = true;
  for (const Stage& st : stages) {
    RunMetrics m;
    if (!st.chunks) {
      spec.base.system = SystemKind::kVllmFixed;
      spec.fixed_configs = {best};
      m = RunMixedExperiment(spec)[kSlice];
      base_delay = m.mean_delay();
      base_f1 = m.mean_f1();
    } else {
      spec.base.system = SystemKind::kMetis;
      spec.base.metis.tune_chunks = st.chunks;
      spec.base.metis.tune_method = st.method;
      spec.base.metis.tune_intermediate = st.interm;
      spec.base.metis.base_config = best;
      spec.base.metis.pick = st.schedule ? MetisSystem::ConfigPick::kBestFit
                                    : MetisSystem::ConfigPick::kMedianOfSpace;
      spec.base.override_prefix_sharing = st.schedule ? std::optional<bool>{} : false;
      m = RunMixedExperiment(spec)[kSlice];
    }
    table.AddRow({st.label, Table::Num(m.mean_f1(), 3), Table::Num(m.mean_delay(), 2)});
    if (st.schedule) {
      full_delay = m.mean_delay();
      full_f1 = m.mean_f1();
    }
    monotone_f1 = monotone_f1 && (prev_f1 == 0 || m.mean_f1() >= prev_f1 - 0.06);
    prev_f1 = m.mean_f1();
  }
  table.Print();

  PrintShapeCheck("full METIS cuts delay ~2.8x vs fixed config at equal-or-better F1",
                  StrFormat("%.2fx delay reduction, F1 %.3f vs %.3f", base_delay / full_delay,
                            full_f1, base_f1),
                  base_delay / full_delay >= 1.5 && full_f1 >= base_f1 - 0.03 && monotone_f1);
  return 0;
}
