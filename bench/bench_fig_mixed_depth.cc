// Mixed-workload per-dataset retrieval depth (ROADMAP "mixed-workload
// per-dataset depth policies"): the paper's §7.1 concurrent-dataset setup —
// every dataset streaming Poisson arrivals into ONE serving engine — with the
// retrieval-depth budget line resolved three ways:
//
//   - shared:     one JointSchedulerOptions::depth line for every dataset
//                 stack (the pre-PR behaviour; per_dataset_depth = false);
//   - perdataset: each stack's line derived closed-form from its
//                 DatasetProfile (DepthCalibrator::DeriveFromProfile);
//   - calibrated: each stack's line fitted by an offline probe-grid sweep
//                 (DepthCalibrator::Calibrate) over the dataset's own query
//                 set — in-sample, like METIS pruning its config space on
//                 its own profiling data; the probes happen before any
//                 serving traffic. Generalization to a genuinely held-out
//                 slice is mixed_runner_test's subject, not this figure's.
//
// The claim under test (RAGGED's workload-dependence transferred to the mixed
// path): per-piece F1-vs-budget curves differ per dataset profile — squad's
// even ASCENDS in pieces where musique's and qmsum's descend, and finsec's
// never plateaus — so no single non-trivial line is quality-safe on all four
// and the shared deployment must over-probe (here: full depth, the exact-
// retrieval setting) to protect its worst dataset. Per-dataset calibrated
// lines then recover probes at matched F1 exactly where a dataset's own
// curve plateaus. The corpus variants are the *_topical profiles (clustered
// embedding geometry, so IVF lists align with topics and depth need
// genuinely varies per query and per dataset).
//
// All metrics are simulation-deterministic (bit-stable kernels + simulated
// time), so BENCH_mixed_depth.json reproduces exactly on any host and the CI
// gate watches mean_f1 at the tight 2% tolerance
// (bench/baselines/BENCH_mixed_depth.baseline.json).
//
// Output: console tables + BENCH_mixed_depth.json (schema in docs/BENCH.md).

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/core/depth_calibrator.h"
#include "src/runner/runner.h"

using namespace metis;

namespace {

const std::vector<std::string> kDatasets = {"squad_topical", "musique_topical",
                                            "kg_rag_finsec_topical", "qmsum_topical"};

MixedRunSpec BaseSpec() {
  MixedRunSpec spec;
  spec.datasets = kDatasets;
  spec.base.num_queries = 100;
  spec.base.arrival_rate = 2.0;
  spec.base.system = SystemKind::kMetis;
  spec.base.seed = 42;
  spec.base.retrieval.backend = RetrievalIndexOptions::Backend::kIvf;
  spec.base.retrieval.nlist = 16;
  spec.base.retrieval.nprobe = 4;
  spec.base.retrieval.adaptive.min_probes = 1;
  spec.base.retrieval.adaptive.distance_ratio = 1.2;
  // The shared curve: one quality-safe line for the whole mix. The datasets'
  // budget-line directions CONFLICT (squad's curve ascends in pieces,
  // musique's and qmsum's descend, finsec's never plateaus), so the only
  // line that under-probes none of them is full depth — every query scans
  // every list, i.e. exact retrieval. The retrieval-knob version of the
  // paper's fixed-config over-provisioning story.
  spec.base.scheduler.per_query_depth = true;
  spec.base.scheduler.depth.base_probes = 16;
  spec.base.scheduler.depth.probes_per_piece = 0;
  spec.base.scheduler.depth.min_budget = 16;
  spec.base.scheduler.depth.max_budget = 16;
  // Fixed probe mode for every arm: measured mean_probes then IS the budget
  // line, so the figure isolates the per-dataset allocation effect from
  // PR 2's distance-ratio early termination (bench_fig_depth's subject,
  // which would trim all arms toward the same stopping point).
  spec.base.scheduler.depth.adaptive = false;
  spec.calibrator.adaptive = false;
  // Probe the full query set: the offline pass runs before any serving
  // traffic, and the figure wants each dataset's TRUE per-piece plateaus
  // (a thin slice mistakes a sample plateau for a real one and under-probes
  // the tail; mixed_runner_test covers the genuinely-held-out usage).
  spec.calibrator.holdout_queries = static_cast<size_t>(spec.base.num_queries);
  return spec;
}

struct Arm {
  std::string name;
  std::vector<RunMetrics> results;  // Aligned with kDatasets.
};

std::string LineToString(const RetrievalDepthPolicyOptions& line) {
  return StrFormat("%zu%+dp in [%zu, %zu]", line.base_probes, line.probes_per_piece,
                   line.min_budget, line.max_budget);
}

}  // namespace

int main() {
  std::vector<Arm> arms;

  {
    MixedRunSpec spec = BaseSpec();
    spec.per_dataset_depth = false;
    std::printf("running shared ...\n");
    arms.push_back(Arm{"shared", RunMixedExperiment(spec)});
  }
  {
    MixedRunSpec spec = BaseSpec();
    spec.per_dataset_depth = true;
    spec.depth_calibration = MixedRunSpec::DepthCalibration::kProfile;
    std::printf("running perdataset ...\n");
    arms.push_back(Arm{"perdataset", RunMixedExperiment(spec)});
  }
  {
    MixedRunSpec spec = BaseSpec();
    spec.per_dataset_depth = true;
    spec.depth_calibration = MixedRunSpec::DepthCalibration::kOffline;
    std::printf("running calibrated ...\n");
    arms.push_back(Arm{"calibrated", RunMixedExperiment(spec)});
  }

  // The budget lines each arm resolved to (metrics.spec carries the per-stack
  // scheduler options the runner actually built).
  std::printf("\nresolved budget lines (budget(p) = clamp(base + slope*p, min, max)):\n");
  for (const Arm& arm : arms) {
    for (size_t d = 0; d < kDatasets.size(); ++d) {
      std::printf("  %-11s %-16s %s\n", arm.name.c_str(), kDatasets[d].c_str(),
                  LineToString(arm.results[d].spec.scheduler.depth).c_str());
    }
  }

  Table table(
      "bench_fig_mixed_depth: mixed workload, shared vs per-dataset depth lines (IVF nlist=16)");
  table.SetHeader({"arm/dataset", "mean F1", "mean delay (s)", "mean probes", "qps"});
  std::vector<BenchJsonRecord> records;
  for (const Arm& arm : arms) {
    for (size_t d = 0; d < kDatasets.size(); ++d) {
      const RunMetrics& m = arm.results[d];
      std::string name = StrFormat("%s/%s", arm.name.c_str(), kDatasets[d].c_str());
      table.AddRow({name, Table::Num(m.mean_f1(), 4), Table::Num(m.mean_delay(), 3),
                    Table::Num(m.mean_probes, 2), Table::Num(m.throughput_qps, 2)});
      BenchJsonRecord rec;
      rec.name = name;
      rec.tags = {{"arm", arm.name}, {"dataset", kDatasets[d]}};
      rec.metrics = {{"mean_f1", m.mean_f1()},
                     {"mean_delay_s", m.mean_delay()},
                     {"p50_delay_s", m.p50_delay()},
                     {"p90_delay_s", m.p90_delay()},
                     {"p99_delay_s", m.p99_delay()},
                     {"mean_probes", m.mean_probes},
                     {"throughput_qps", m.throughput_qps},
                     {"depth_base", static_cast<double>(m.spec.scheduler.depth.base_probes)},
                     {"depth_slope", static_cast<double>(m.spec.scheduler.depth.probes_per_piece)},
                     {"depth_min", static_cast<double>(m.spec.scheduler.depth.min_budget)},
                     {"depth_max", static_cast<double>(m.spec.scheduler.depth.max_budget)}};
      records.push_back(std::move(rec));
    }
  }
  table.Print();

  // --- Verdicts ---
  // Per dataset: does a per-dataset (or calibrated) line reach the shared
  // curve's mean F1 at fewer mean probes? "Reach" allows a 0.002 absolute F1
  // tie band: mixed-run F1 couples weakly ACROSS stacks through the shared
  // engine (another dataset's chunk contents shift token counts, and with
  // them queueing and scheduler decisions by fractions of a point — a few
  // 1e-4 F1 at this spec, up to +/-0.01 under other shared lines), so exact
  // equality through that coupling is not meaningful. 0.002 covers the
  // at-spec coupling with margin while staying ~5x tighter than the real
  // quality losses it must discriminate (the perdataset arm's 0.01-0.04 F1
  // costs below), and well inside the CI gate's 2%. The mixed claim needs a
  // win on the majority of the mix (>= 2 datasets).
  constexpr double kF1Tie = 0.002;
  const Arm& shared = arms[0];
  int wins = 0;
  for (size_t d = 0; d < kDatasets.size(); ++d) {
    double shared_f1 = shared.results[d].mean_f1();
    double shared_probes = shared.results[d].mean_probes;
    bool won = false;
    std::string detail;
    for (size_t a = 1; a < arms.size(); ++a) {
      const RunMetrics& m = arms[a].results[d];
      bool ok = m.mean_f1() >= shared_f1 - kF1Tie && m.mean_probes < shared_probes;
      detail += StrFormat("%s%s %.4f @ %.2f", a > 1 ? "; " : "", arms[a].name.c_str(),
                          m.mean_f1(), m.mean_probes);
      won = won || ok;
    }
    PrintShapeCheck(
        StrFormat("%s: a per-dataset line reaches shared F1 at fewer probes",
                  kDatasets[d].c_str()),
        StrFormat("shared %.4f @ %.2f vs %s", shared_f1, shared_probes, detail.c_str()), won);
    wins += won ? 1 : 0;
  }
  bool ok = wins >= 2;
  PrintShapeCheck("per-dataset depth wins on the majority of the mix",
                  StrFormat("%d/%zu datasets", wins, kDatasets.size()), ok);

  const MixedRunSpec mixed = BaseSpec();
  BenchJsonRecord summary;
  summary.name = "summary";
  summary.tags = {{"arm", "summary"}};
  summary.metrics = {
      {"queries_per_dataset", static_cast<double>(mixed.base.num_queries)},
      {"rate_per_dataset_qps", mixed.base.arrival_rate},
      {"num_datasets", static_cast<double>(mixed.datasets.size())},
      {"nlist", static_cast<double>(mixed.base.retrieval.nlist)},
      {"shared_depth_base", static_cast<double>(mixed.base.scheduler.depth.base_probes)},
      {"shared_depth_slope", static_cast<double>(mixed.base.scheduler.depth.probes_per_piece)},
      {"shared_depth_min", static_cast<double>(mixed.base.scheduler.depth.min_budget)},
      {"shared_depth_max", static_cast<double>(mixed.base.scheduler.depth.max_budget)},
      {"host_cpus", static_cast<double>(std::max(1u, std::thread::hardware_concurrency()))}};
  records.push_back(std::move(summary));
  WriteBenchJson("BENCH_mixed_depth.json", "mixed_depth", records,
                 "all metrics are simulation-deterministic and host-independent "
                 "(bit-identical kernels + simulated time)");
  std::printf("wrote BENCH_mixed_depth.json (%zu records)\n", records.size());
  return ok ? 0 : 1;
}
