// Tests of the benchmark itself: smoke runs of every workload at a tiny size,
// parity of the benchmark's stack assembly with RunExperiment, the checks'
// teeth, and the self-time arithmetic on a synthetic trace.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "perfbench/src/report.h"
#include "perfbench/src/serve.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

constexpr int kTinyQueries = 40;

Workload Tiny(const std::string& name, uint64_t seed = 7) {
  std::optional<Workload> w = MakeWorkload(name, seed, kTinyQueries);
  EXPECT_TRUE(w.has_value());
  return *w;
}

TEST(Workloads, NamesResolveAndUnknownDoesNot) {
  for (const std::string& name : WorkloadNames()) {
    std::optional<Workload> w = MakeWorkload(name, 3);
    ASSERT_TRUE(w.has_value()) << name;
    EXPECT_EQ(w->spec.seed, 3u);
    EXPECT_EQ(w->spec.num_queries, 1000);
    EXPECT_FALSE(w->spec.tenants.empty()) << "every workload declares deadlines";
    EXPECT_FALSE(w->spec.ingest.enabled) << "the benchmark owns the op stream";
  }
  EXPECT_FALSE(MakeWorkload("nope", 1).has_value());
}

TEST(Workloads, IngestStreamSpansTheQueryWindow) {
  Workload w = *MakeWorkload("ingest_overload", 5);
  EXPECT_EQ(w.ingest_ops, 2000);
  EXPECT_DOUBLE_EQ(w.ingest_rate / w.spec.arrival_rate,
                   static_cast<double>(w.ingest_ops) / w.spec.num_queries);
  std::vector<IngestOp> ops = MakeIngestOps(w);
  ASSERT_EQ(ops.size(), 2000u);
  size_t inserts = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    inserts += ops[i].insert;
    if (i > 0) {
      EXPECT_GE(ops[i].time, ops[i - 1].time);
    }
  }
  EXPECT_NEAR(static_cast<double>(inserts) / ops.size(), 0.75, 0.05);
  std::vector<IngestOp> again = MakeIngestOps(w);
  for (size_t i = 0; i < ops.size(); ++i) {
    ASSERT_EQ(ops[i].time, again[i].time);
    ASSERT_EQ(ops[i].text, again[i].text);
    ASSERT_EQ(ops[i].victim_u, again[i].victim_u);
  }
  EXPECT_TRUE(MakeIngestOps(*MakeWorkload("flat_scan", 5)).empty());
}

class SmokeTest : public ::testing::TestWithParam<std::string> {};

// Every workload at a tiny size: the timed path passes its checks and repeats
// bit-identically; the traced path reports every per-layer metric, and the
// layer shares plus other.share account for the serve wall.
TEST_P(SmokeTest, TimedAndTracedRunsPassTheirChecks) {
  Workload w = Tiny(GetParam());
  std::vector<IngestOp> ops = MakeIngestOps(w);
  EXPECT_EQ(ops.empty(), w.ingest_ops == 0);

  std::unique_ptr<metis::Dataset> ds = BuildDataset(w);
  ServeResult first = Serve(w, *ds, ops);
  EXPECT_EQ(CheckServe(w, ops, first), std::vector<std::string>{});
  EXPECT_EQ(SpotCheckRetrieval(*ds, first, 8), std::vector<std::string>{});
  SimSummary sim = Summarize(w, first);
  EXPECT_EQ(sim.offered, static_cast<uint64_t>(kTinyQueries));
  EXPECT_EQ(sim.completed + sim.rejected, sim.offered);
  EXPECT_GT(sim.mean_f1, 0);

  ds = BuildDataset(w);
  Tracer tracer;
  SetupLayers layers = TimeSetupLayers(w, *ds);
  layers.generate_s = {0.1};
  ServeResult traced = Serve(w, *ds, ops, &tracer);
  EXPECT_EQ(SimFingerprint(traced), SimFingerprint(first)) << "a repeat must be bit-identical";
  Replay replay = ReplayQueries(w, *ds, traced, tracer);
  EXPECT_EQ(replay.failures, std::vector<std::string>{});
  EXPECT_EQ(replay.search_s.size(), sim.completed);

  Metrics m = PerLayerMetrics(w, traced, replay, layers, tracer, first.wall_s);
  std::set<std::string> names;
  double shares = 0;
  for (const Metric& metric : m) {
    EXPECT_TRUE(names.insert(metric.name).second) << metric.name;
    EXPECT_TRUE(std::isfinite(metric.value)) << metric.name;
    if (metric.name == "vectordb.share" || metric.name == "embed.query_share" ||
        metric.name == "profiler.wall_share" || metric.name == "core.accept_share" ||
        metric.name == "other.share") {
      shares += metric.value;
    }
  }
  EXPECT_NEAR(shares, 1.0, 1e-9);
  for (const char* name : {"vectordb.search_share", "vectordb.scan_gbps", "llm.busy_frac",
                           "synthesis.isolated_p50_s", "trace.overhead_qps", "other.share"}) {
    EXPECT_EQ(names.count(name), 1u) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SmokeTest, ::testing::ValuesIn(WorkloadNames()));

// The benchmark assembles its serving stack from the public classes; for an
// ingest-free spec it must serve exactly what RunExperiment serves.
TEST(Parity, StackAssemblyMatchesRunExperiment) {
  for (const std::string& name : {std::string("flat_scan"), std::string("shared_reuse")}) {
    // RunExperiment draws corpus, models and traffic from one seed.
    Workload w = Tiny(name, 11);
    w.corpus_seed = w.spec.seed;
    metis::RunMetrics reference = metis::RunExperiment(w.spec);
    std::unique_ptr<metis::Dataset> ds = BuildDataset(w);
    ServeResult ours = Serve(w, *ds, {});
    ASSERT_EQ(ours.records.size(), reference.records.size()) << name;
    for (size_t i = 0; i < ours.records.size(); ++i) {
      const metis::QueryRecord& a = ours.records[i];
      const metis::QueryRecord& b = reference.records[i];
      ASSERT_EQ(a.query_id, b.query_id) << name << " record " << i;
      ASSERT_EQ(a.e2e_delay, b.e2e_delay) << name << " record " << i;
      ASSERT_EQ(a.result.f1, b.result.f1) << name << " record " << i;
      ASSERT_TRUE(a.config == b.config) << name << " record " << i;
    }
    EXPECT_EQ(ours.engine.busy_seconds, reference.engine_stats.busy_seconds);
    EXPECT_EQ(ours.engine.prefill_tokens_saved, reference.engine_stats.prefill_tokens_saved);
    EXPECT_EQ(ours.mean_probes, reference.mean_probes);
    SimSummary sim = Summarize(w, ours);
    EXPECT_EQ(sim.p50_delay_s, reference.p50_delay());
    EXPECT_EQ(sim.p99_delay_s, reference.p99_delay());
    EXPECT_EQ(sim.mean_f1, reference.mean_f1());
    EXPECT_EQ(sim.goodput_qps, reference.goodput_qps);
  }
}

// The seed reaches the traffic generator: another seed (or sub-stream) serves
// another stream on the same corpus; the same seed serves the same one.
TEST(Determinism, SeedReachesTheTraffic) {
  Workload a = Tiny("ingest_overload", 21);
  Workload b = Tiny("ingest_overload", 22);
  EXPECT_EQ(Substream(a, 0).spec.seed, a.spec.seed);
  std::set<uint64_t> seeds = {a.spec.seed, b.spec.seed};
  for (int i = 1; i < 8; ++i) {
    EXPECT_TRUE(seeds.insert(Substream(a, i).spec.seed).second) << i;
  }
  auto fingerprint = [](const Workload& w) {
    std::unique_ptr<metis::Dataset> ds = BuildDataset(w);
    return SimFingerprint(Serve(w, *ds, MakeIngestOps(w)));
  };
  std::vector<double> fa = fingerprint(a);
  EXPECT_EQ(fingerprint(a), fa);
  EXPECT_NE(fingerprint(b), fa);
  EXPECT_NE(fingerprint(Substream(a, 1)), fa);
}

TEST(Report, MedianMetricsIsElementWise) {
  Metrics m = MedianMetrics({{{"x", 3, "s"}, {"y", 10, "s"}},
                             {{"x", 1, "s"}, {"y", 30, "s"}},
                             {{"x", 2, "s"}, {"y", 20, "s"}}});
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m[0].name, "x");
  EXPECT_DOUBLE_EQ(m[0].value, 2);
  EXPECT_DOUBLE_EQ(m[1].value, 20);
  EXPECT_EQ(ResultJson(true, 5, 0, {{"x", 0.5, "s"}}),
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": "
            "{\"x\": {\"value\": 0.5, \"unit\": \"s\"}}}");
}

TEST(Checks, CatchBrokenConservation) {
  Workload w = Tiny("ingest_overload");
  std::vector<IngestOp> ops = MakeIngestOps(w);
  std::unique_ptr<metis::Dataset> ds = BuildDataset(w);
  ServeResult r = Serve(w, *ds, ops);
  ASSERT_EQ(CheckServe(w, ops, r), std::vector<std::string>{});

  ServeResult lost = r;
  lost.records.pop_back();
  EXPECT_FALSE(CheckServe(w, ops, lost).empty()) << "a lost query must fail";

  ServeResult leaked = r;
  leaked.engine.completed -= 1;
  EXPECT_FALSE(CheckServe(w, ops, leaked).empty()) << "an unfinished engine request must fail";

  ServeResult phantom = r;
  phantom.live_rows_after += 1;
  EXPECT_FALSE(CheckServe(w, ops, phantom).empty()) << "a phantom row must fail";

  std::vector<IngestOp> more = ops;
  more.push_back(ops.back());
  EXPECT_FALSE(CheckServe(w, more, r).empty()) << "an unissued op must fail";

  ServeResult slow_profiler = r;
  for (metis::QueryRecord& rec : slow_profiler.records) {
    if (!rec.rejected) {
      rec.profiler_delay = rec.e2e_delay + 1;
      break;
    }
  }
  EXPECT_FALSE(CheckServe(w, ops, slow_profiler).empty());
}

// Self time = duration minus the union of the children's intervals, clipped
// to the parent.
TEST(Trace, SelfTimeArithmetic) {
  Tracer t;
  auto add = [&t](int parent, const char* layer, double start, double end) {
    Span s;
    s.parent = parent;
    s.name = layer;
    s.layer = layer;
    s.start_s = start;
    s.end_s = end;
    return t.Add(s);
  };
  int root = add(-1, "runner", 0, 10);
  int a = add(root, "vectordb", 1, 3);
  add(root, "vectordb", 2, 5);     // Overlaps a: the union [1, 5] counts once.
  add(root, "core", 9, 12);        // Only [9, 10] lies inside the root.
  add(a, "embed", 1.5, 2.0);
  add(root, "core", 6, 6);         // Empty.
  std::vector<double> self = SelfTimes(t.spans());
  ASSERT_EQ(self.size(), 6u);
  EXPECT_DOUBLE_EQ(self[0], 10 - 4 - 1);
  EXPECT_DOUBLE_EQ(self[1], 2 - 0.5);
  EXPECT_DOUBLE_EQ(self[2], 3);
  EXPECT_DOUBLE_EQ(self[3], 3);
  EXPECT_DOUBLE_EQ(self[4], 0.5);
  EXPECT_DOUBLE_EQ(self[5], 0);
}

// When children nest inside their parents without overlapping, the self times
// partition the root's wall exactly: layer shares plus the rest add up to 1.
TEST(Trace, SelfTimesPartitionANestedTree) {
  Tracer t;
  auto add = [&t](int parent, double start, double end) {
    Span s;
    s.parent = parent;
    s.start_s = start;
    s.end_s = end;
    return t.Add(s);
  };
  int root = add(-1, 0, 8);
  int q1 = add(root, 0.5, 3);
  add(q1, 0.5, 1);
  add(q1, 1, 2.25);
  int q2 = add(root, 4, 7.5);
  add(q2, 5, 6);
  double total = 0;
  for (double self : SelfTimes(t.spans())) {
    total += self;
  }
  EXPECT_DOUBLE_EQ(total, t.Duration(root));
}

}  // namespace
}  // namespace perfbench
