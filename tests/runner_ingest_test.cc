// Runner-level tests for live ingest: deterministic insert/delete streams
// against a mutable serving index inside a full serving experiment, parity of
// the mutable path with the static one when nothing mutates, and defined
// metrics on degenerate zero-completion runs (ingest-only workloads).

#include <gtest/gtest.h>

#include "src/runner/runner.h"
#include "src/vectordb/mutable_index.h"

namespace metis {
namespace {

RunSpec IngestSpec() {
  RunSpec spec;
  spec.dataset = "musique";
  spec.num_queries = 20;
  spec.arrival_rate = 2.0;
  spec.system = SystemKind::kMetis;
  spec.seed = 11;
  spec.retrieval.backend = RetrievalIndexOptions::Backend::kIvf;
  spec.retrieval.nlist = 8;
  spec.retrieval.nprobe = 2;
  spec.retrieval.mutable_index = true;
  spec.retrieval.mutation.memtable_rows = 64;
  spec.ingest.enabled = true;
  spec.ingest.num_ops = 150;
  spec.ingest.rate = 20.0;
  spec.ingest.insert_fraction = 0.7;
  return spec;
}

TEST(RunnerIngestTest, IngestRunServesQueriesAndCountsOps) {
  RunMetrics m = RunExperiment(IngestSpec());
  EXPECT_EQ(m.records.size(), 20u);
  EXPECT_GT(m.mean_f1(), 0.1);
  // Every scheduled op landed, split across both kinds.
  EXPECT_EQ(m.ingest.inserts + m.ingest.deletes, 150u);
  EXPECT_GT(m.ingest.inserts, 0u);
  EXPECT_GT(m.ingest.deletes, 0u);
  // Enough inserts to roll the memtable over at least once.
  EXPECT_GT(m.ingest.seals, 0u);
  EXPECT_EQ(m.ingest.tombstones, m.ingest.deletes);
  EXPECT_GT(m.ingest.live_rows, 0u);
  // The depth knob still reaches the (mutable) index.
  EXPECT_GT(m.mean_probes, 0.0);
}

TEST(RunnerIngestTest, IngestRunIsDeterministic) {
  RunMetrics a = RunExperiment(IngestSpec());
  RunMetrics b = RunExperiment(IngestSpec());
  ASSERT_EQ(a.records.size(), b.records.size());
  EXPECT_DOUBLE_EQ(a.mean_f1(), b.mean_f1());
  EXPECT_DOUBLE_EQ(a.mean_delay(), b.mean_delay());
  EXPECT_DOUBLE_EQ(a.mean_probes, b.mean_probes);
  EXPECT_EQ(a.ingest.inserts, b.ingest.inserts);
  EXPECT_EQ(a.ingest.deletes, b.ingest.deletes);
  EXPECT_EQ(a.ingest.seals, b.ingest.seals);
  EXPECT_EQ(a.ingest.compactions, b.ingest.compactions);
  EXPECT_EQ(a.ingest.retrains, b.ingest.retrains);
  EXPECT_EQ(a.ingest.live_rows, b.ingest.live_rows);
}

// With no ingest stream, routing the same spec through the mutable index must
// not change serving results at all: same F1s, delays, and probe accounting
// as the static-index build (the runner-level face of the parity contract).
TEST(RunnerIngestTest, MutableIndexWithoutIngestMatchesStaticRun) {
  RunSpec spec = IngestSpec();
  spec.ingest = IngestOptions{};  // No mutation stream.
  RunSpec static_spec = spec;
  static_spec.retrieval.mutable_index = false;

  RunMetrics mut = RunExperiment(spec);
  RunMetrics sta = RunExperiment(static_spec);
  ASSERT_EQ(mut.records.size(), sta.records.size());
  EXPECT_EQ(mut.mean_f1(), sta.mean_f1());
  EXPECT_EQ(mut.mean_delay(), sta.mean_delay());
  EXPECT_EQ(mut.p99_delay(), sta.p99_delay());
  EXPECT_EQ(mut.mean_probes, sta.mean_probes);
  EXPECT_EQ(mut.probe_histogram, sta.probe_histogram);
  for (size_t i = 0; i < mut.records.size(); ++i) {
    EXPECT_EQ(mut.records[i].result.f1, sta.records[i].result.f1);
  }
  // The mutable run reports gauges; the static run reports zeros.
  EXPECT_GT(mut.ingest.live_rows, 0u);
  EXPECT_EQ(sta.ingest.live_rows, 0u);
}

// Ingest-only run: zero queries, zero completions. Every metric accessor must
// return a defined value (no CHECK failure, no NaN) and the op stream still
// runs to completion against the index.
TEST(RunnerIngestTest, IngestOnlyRunHasDefinedMetrics) {
  RunSpec spec;
  spec.dataset = "musique";
  spec.num_queries = 0;
  spec.arrival_rate = 2.0;
  spec.system = SystemKind::kVllmFixed;
  spec.seed = 7;
  spec.retrieval.mutable_index = true;
  spec.retrieval.mutation.memtable_rows = 16;
  spec.ingest.enabled = true;
  spec.ingest.num_ops = 80;
  spec.ingest.rate = 40.0;
  spec.ingest.insert_fraction = 0.6;

  RunMetrics m = RunExperiment(spec);
  EXPECT_TRUE(m.records.empty());
  EXPECT_EQ(m.mean_delay(), 0.0);
  EXPECT_EQ(m.p50_delay(), 0.0);
  EXPECT_EQ(m.p99_delay(), 0.0);
  EXPECT_EQ(m.mean_f1(), 0.0);
  EXPECT_EQ(m.throughput_qps, 0.0);
  EXPECT_EQ(m.goodput_qps, 0.0);
  ASSERT_EQ(m.class_metrics.size(), 1u);  // Implicit default class.
  EXPECT_EQ(m.class_metrics[0].p50_delay(), 0.0);
  EXPECT_EQ(m.class_metrics[0].p99_delay(), 0.0);
  EXPECT_EQ(m.class_metrics[0].goodput_qps, 0.0);
  EXPECT_EQ(m.ingest.inserts + m.ingest.deletes, 80u);
  EXPECT_GT(m.ingest.seals, 0u);
}

// Same degenerate shape through the closed-loop path (arrival_rate <= 0).
TEST(RunnerIngestTest, ClosedLoopZeroQueriesIsDefined) {
  RunSpec spec;
  spec.dataset = "squad";
  spec.num_queries = 0;
  spec.arrival_rate = 0.0;
  spec.system = SystemKind::kVllmFixed;
  spec.seed = 3;
  RunMetrics m = RunExperiment(spec);
  EXPECT_TRUE(m.records.empty());
  EXPECT_EQ(m.p50_delay(), 0.0);
  EXPECT_EQ(m.p99_delay(), 0.0);
  EXPECT_EQ(m.goodput_qps, 0.0);
}

// Closed loop + ingest: the op stream keeps its own timeline instead of
// draining inside the first query, so each query starts the instant the
// previous one finishes (its e2e delay is exactly the gap between finishes),
// and every op still lands.
TEST(RunnerIngestTest, ClosedLoopIngestKeepsQueriesBackToBack) {
  RunSpec spec;
  spec.dataset = "squad";
  spec.num_queries = 6;
  spec.arrival_rate = -1;
  spec.system = SystemKind::kVllmFixed;
  spec.seed = 7;
  spec.retrieval.mutable_index = true;
  spec.ingest.enabled = true;
  spec.ingest.num_ops = 40;
  spec.ingest.rate = 4.0;
  RunMetrics m = RunExperiment(spec);
  ASSERT_EQ(m.records.size(), 6u);
  SimTime previous_finish = 0;
  for (const QueryRecord& rec : m.records) {
    EXPECT_EQ(rec.finish_time - previous_finish, rec.e2e_delay) << "query " << rec.query_id;
    previous_finish = rec.finish_time;
  }
  EXPECT_EQ(m.ingest.inserts + m.ingest.deletes, 40u);
}

// Mixed-workload ingest: every stack gets its own decorrelated op stream and
// reports its own lifecycle gauges.
TEST(RunnerIngestTest, MixedIngestRunsPerStackStreams) {
  MixedRunSpec spec;
  spec.datasets = {"squad", "musique"};
  spec.base.num_queries = 10;
  spec.base.arrival_rate = 2.0;
  spec.base.system = SystemKind::kVllmFixed;
  spec.base.seed = 19;
  spec.base.retrieval.mutable_index = true;
  spec.base.retrieval.mutation.memtable_rows = 32;
  spec.base.ingest.enabled = true;
  spec.base.ingest.num_ops = 60;
  spec.base.ingest.rate = 15.0;

  std::vector<RunMetrics> out = RunMixedExperiment(spec);
  ASSERT_EQ(out.size(), 2u);
  for (const RunMetrics& m : out) {
    EXPECT_EQ(m.records.size(), 10u);
    EXPECT_EQ(m.ingest.inserts + m.ingest.deletes, 60u);
    EXPECT_GT(m.ingest.seals, 0u);
  }
  // Decorrelated per-stack streams: the insert/delete split differs.
  EXPECT_NE(out[0].ingest.inserts, out[1].ingest.inserts);
}

}  // namespace
}  // namespace metis
