// Figure 12: where METIS's delay saving comes from. Staged on FinSec and
// Musique against the highest-quality fixed configuration on vLLM:
//   (1) profiler output, median config         -> 1.4-1.68x
//   (2) + Parrot*-style batching               -> additional 1.1-1.2x
//   (3) + memory-aware joint scheduling        -> additional 1.45-1.75x

#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/strings.h"

using namespace metis;

int main() {
  const uint64_t kSeed = 42;
  const int kQueries = 150;

  // All four datasets run concurrently; the fixed baseline deploys each
  // dataset's own best-quality static config. Rate chosen so the fixed
  // baseline is congested but stable, making stage ratios interpretable.
  MixedRunSpec proto;
  proto.base.num_queries = kQueries;
  proto.base.arrival_rate = 1.4;
  proto.base.seed = kSeed;
  std::vector<RagConfig> best_configs;
  for (const auto& dsname : proto.datasets) {
    auto ds = GetOrGenerateDataset(dsname, kQueries, "cohere-embed-v3-sim", kSeed);
    best_configs.push_back(
        BestQualityFixed(ScoreFixedConfigs(*ds, 40, "mistral-7b-v3-awq", kSeed)));
  }

  for (const char* name : {"kg_rag_finsec", "musique"}) {
    MixedRunSpec spec = proto;
    size_t slice = spec.datasets.size();
    for (size_t d = 0; d < spec.datasets.size(); ++d) {
      if (spec.datasets[d] == name) {
        slice = d;
      }
    }

    // (0) vLLM, best-quality fixed config per dataset.
    spec.base.system = SystemKind::kVllmFixed;
    spec.fixed_configs = best_configs;
    double base = RunMixedExperiment(spec)[slice].mean_delay();

    // (1) Profiler + median-of-space config, no batching, no joint scheduling.
    spec.base.system = SystemKind::kMetis;
    spec.base.metis.pick = MetisSystem::ConfigPick::kMedianOfSpace;
    spec.base.override_prefix_sharing = false;
    double median = RunMixedExperiment(spec)[slice].mean_delay();

    // (2) + group-aware batching with prefix sharing.
    spec.base.override_prefix_sharing = true;
    double batching = RunMixedExperiment(spec)[slice].mean_delay();

    // (3) + joint best-fit scheduling (full METIS).
    spec.base.metis.pick = MetisSystem::ConfigPick::kBestFit;
    double full = RunMixedExperiment(spec)[slice].mean_delay();

    Table table(StrFormat("Figure 12 (%s): delay decomposition", name));
    table.SetHeader({"stage", "mean delay (s)", "vs fixed config", "vs previous stage"});
    table.AddRow({"vLLM best-quality fixed", Table::Num(base, 2), "1.00x", "-"});
    table.AddRow({"+ profiler (median config)", Table::Num(median, 2),
                  Table::Num(base / median, 2) + "x", Table::Num(base / median, 2) + "x"});
    table.AddRow({"+ batching", Table::Num(batching, 2), Table::Num(base / batching, 2) + "x",
                  Table::Num(median / batching, 2) + "x"});
    table.AddRow({"+ joint scheduling (METIS)", Table::Num(full, 2),
                  Table::Num(base / full, 2) + "x", Table::Num(batching / full, 2) + "x"});
    table.Print();

    PrintShapeCheck("each stage contributes: median < +batching < +scheduling",
                    StrFormat("%.2f / %.2f / %.2f / %.2f s", base, median, batching, full),
                    median < base && batching < median * 1.02 && full < batching * 1.02 &&
                        full < base);
  }
  return 0;
}
