// Runner invariants on BOTH entry points (RunExperiment and
// RunMixedExperiment share one serving path): per-class query accounting,
// profiler delay bounded by the end-to-end delay, ingest-op conservation, the
// mixed runner's per-stack spec contract, and per-stack shared-workload
// shaping.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/common/strings.h"
#include "src/runner/runner.h"

namespace metis {
namespace {

void ExpectInvariants(const RunMetrics& m) {
  const RunSpec& spec = m.spec;
  uint64_t offered = 0;
  for (const TenantClassMetrics& cm : m.class_metrics) {
    EXPECT_EQ(cm.offered, cm.completed + cm.rejected) << cm.name;
    offered += cm.offered;
  }
  EXPECT_EQ(offered, static_cast<uint64_t>(spec.num_queries));
  for (const QueryRecord& rec : m.records) {
    EXPECT_GE(rec.profiler_delay, 0.0) << "query " << rec.query_id;
    EXPECT_LE(rec.profiler_delay, rec.e2e_delay) << "query " << rec.query_id;
  }
  EXPECT_EQ(m.ingest.inserts + m.ingest.deletes,
            spec.ingest.enabled ? static_cast<uint64_t>(spec.ingest.num_ops) : 0u);
}

// A mixed stack's spec is `base` with only dataset, scheduler and
// fixed_config resolved for that stack.
void ExpectSpecIsBase(const RunSpec& got, const RunSpec& base) {
  EXPECT_EQ(got.num_queries, base.num_queries);
  EXPECT_EQ(got.arrival_rate, base.arrival_rate);
  EXPECT_EQ(got.serving_model, base.serving_model);
  EXPECT_EQ(got.system, base.system);
  EXPECT_EQ(got.retrieval.mutable_index, base.retrieval.mutable_index);
  EXPECT_EQ(got.tenants.size(), base.tenants.size());
  EXPECT_EQ(got.overload.enabled, base.overload.enabled);
  EXPECT_EQ(got.ingest.num_ops, base.ingest.num_ops);
  EXPECT_EQ(got.shared_workload.hot_fraction, base.shared_workload.hot_fraction);
  EXPECT_EQ(got.seed, base.seed);
}

TEST(RunnerInvariantsTest, HoldOnBothEntryPoints) {
  const std::vector<RagConfig> fixed = {RagConfig{SynthesisMethod::kStuff, 4, 0},
                                        RagConfig{SynthesisMethod::kMapReduce, 6, 80}};
  for (bool mixed : {false, true}) {
    for (SystemKind system : {SystemKind::kVllmFixed, SystemKind::kMetis}) {
      for (bool overload : {false, true}) {
        for (bool ingest : {false, true}) {
          // Closed loop is single-stream: the single entry point only.
          for (double rate : mixed || overload ? std::vector<double>{6.0}
                                               : std::vector<double>{6.0, -1.0}) {
            SCOPED_TRACE(StrFormat("mixed=%d system=%s overload=%d ingest=%d rate=%g", mixed,
                                   SystemKindName(system), overload, ingest, rate));
            RunSpec spec;
            spec.dataset = "musique";
            spec.num_queries = 16;
            spec.arrival_rate = rate;
            spec.system = system;
            spec.seed = 23;
            if (overload) {
              spec.tenants = {TenantClass{"interactive", 2, /*deadline_s=*/3.0, 0.4},
                              TenantClass{"besteffort", 0, /*deadline_s=*/10.0, 0.6}};
              spec.overload.enabled = true;
            }
            spec.retrieval.mutable_index = ingest;
            spec.ingest.enabled = ingest;
            spec.ingest.num_ops = 30;
            spec.ingest.rate = 10.0;
            if (!mixed) {
              RunMetrics m = RunExperiment(spec);
              ExpectSpecIsBase(m.spec, spec);
              ExpectInvariants(m);
              continue;
            }
            MixedRunSpec mix;
            mix.base = spec;
            mix.datasets = {"squad", "kg_rag_finsec"};
            mix.fixed_configs = fixed;
            std::vector<RunMetrics> out = RunMixedExperiment(mix);
            ASSERT_EQ(out.size(), 2u);
            for (size_t d = 0; d < out.size(); ++d) {
              EXPECT_EQ(out[d].spec.dataset, mix.datasets[d]);
              EXPECT_TRUE(out[d].spec.fixed_config == fixed[d]);
              EXPECT_EQ(out[d].spec.scheduler.nprobe_budget, spec.scheduler.nprobe_budget);
              ExpectSpecIsBase(out[d].spec, spec);
              ExpectInvariants(out[d]);
            }
          }
        }
      }
    }
  }
}

// Shared-workload shaping applies per mixed stack (on the stack's tenant
// seed): every stack serves duplicated template queries.
TEST(RunnerInvariantsTest, SharedWorkloadShapesEveryMixedStack) {
  MixedRunSpec mix;
  mix.base.num_queries = 20;
  mix.base.system = SystemKind::kVllmFixed;
  mix.base.seed = 5;
  mix.base.shared_workload.hot_fraction = 0.6;
  mix.base.shared_workload.num_hot = 2;
  mix.datasets = {"squad", "musique"};
  for (const RunMetrics& m : RunMixedExperiment(mix)) {
    std::set<int32_t> ids;
    for (const QueryRecord& rec : m.records) {
      ids.insert(rec.query_id);
    }
    EXPECT_EQ(m.records.size(), 20u);
    EXPECT_LT(ids.size(), m.records.size()) << m.label;
  }
}

}  // namespace
}  // namespace metis
