// Engine-level tests for cross-query KV reuse and the PR's admission bugfix
// batch:
//   - prefix refcount lifecycle including LRU retention (park / revive /
//     evict-under-pressure / expire-past-grace),
//   - retention at the engine level: a grace window carries a warm prefix
//     across the gap between queries; the eager default does not,
//   - admission-livelock regression: a request sized between total - buffer
//     and total bytes must admit on an otherwise-empty pool,
//   - projected-free regression: queued siblings of one prefix group charge
//     the shared prefix once (not at all when resident),
//   - chunked-prefill accounting and group-aware admission determinism,
//   - Runner replays: new knobs at their defaults are bit-identical run to
//     run, and the feature-on stack replays deterministically too.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/llm/engine.h"
#include "src/llm/kv_cache.h"
#include "src/llm/model_spec.h"
#include "src/runner/runner.h"
#include "src/sim/simulator.h"

namespace metis {
namespace {

// ---------- KvCacheManager: prefix LRU retention ----------

class RetainedKvTest : public ::testing::Test {
 protected:
  // 1 MiB pool, 16-token blocks, 1 KiB/token -> 64 blocks of 16 KiB.
  KvCacheManager kv_{1024.0 * 1024.0, 16, 1024.0};
};

TEST_F(RetainedKvTest, ParkReviveRelease) {
  EXPECT_EQ(kv_.AcquirePrefix(7, 160), 10);  // First acquire pays 10 blocks.
  EXPECT_TRUE(kv_.PrefixResident(7));
  EXPECT_FALSE(kv_.PrefixRetained(7));

  kv_.ReleasePrefixRetained(7, /*now=*/1.0);
  // Parked: still resident, blocks still counted used but reclaimable.
  EXPECT_TRUE(kv_.PrefixResident(7));
  EXPECT_TRUE(kv_.PrefixRetained(7));
  EXPECT_EQ(kv_.retained_blocks(), 10);
  EXPECT_EQ(kv_.used_blocks(), 10);

  // Revive in place: no new blocks, off the retained list.
  EXPECT_EQ(kv_.AcquirePrefix(7, 160), 0);
  EXPECT_FALSE(kv_.PrefixRetained(7));
  EXPECT_EQ(kv_.retained_blocks(), 0);
  EXPECT_EQ(kv_.retained_revivals(), 1u);

  // Eager release frees for real.
  kv_.ReleasePrefix(7);
  EXPECT_FALSE(kv_.PrefixResident(7));
  EXPECT_EQ(kv_.used_blocks(), 0);
}

TEST_F(RetainedKvTest, EagerReleaseNeverParks) {
  EXPECT_EQ(kv_.AcquirePrefix(3, 160), 10);
  kv_.ReleasePrefix(3);
  EXPECT_FALSE(kv_.PrefixResident(3));
  EXPECT_EQ(kv_.retained_blocks(), 0);
  EXPECT_EQ(kv_.used_blocks(), 0);
}

TEST_F(RetainedKvTest, AllocationEvictsOldestRetainedFirst) {
  EXPECT_EQ(kv_.AcquirePrefix(1, 160), 10);
  EXPECT_EQ(kv_.AcquirePrefix(2, 160), 10);
  kv_.ReleasePrefixRetained(1, 1.0);  // Oldest release.
  kv_.ReleasePrefixRetained(2, 2.0);
  EXPECT_EQ(kv_.free_blocks(), 44);

  // 50 blocks do not fit the free pool; evicting group 1 (oldest) suffices.
  EXPECT_TRUE(kv_.Allocate(99, 50 * 16));
  EXPECT_FALSE(kv_.PrefixResident(1));
  EXPECT_TRUE(kv_.PrefixRetained(2));
  EXPECT_EQ(kv_.retained_evictions(), 1u);
  EXPECT_EQ(kv_.retained_blocks(), 10);
}

TEST_F(RetainedKvTest, ExpireDropsOnlyPastCutoff) {
  EXPECT_EQ(kv_.AcquirePrefix(1, 160), 10);
  EXPECT_EQ(kv_.AcquirePrefix(2, 160), 10);
  kv_.ReleasePrefixRetained(1, 1.0);
  kv_.ReleasePrefixRetained(2, 2.0);

  kv_.ExpireRetained(/*cutoff=*/1.5);
  EXPECT_FALSE(kv_.PrefixResident(1));
  EXPECT_TRUE(kv_.PrefixRetained(2));
  EXPECT_EQ(kv_.retained_expirations(), 1u);

  kv_.ExpireRetained(/*cutoff=*/2.5);
  EXPECT_FALSE(kv_.PrefixResident(2));
  EXPECT_EQ(kv_.retained_expirations(), 2u);
  EXPECT_EQ(kv_.used_blocks(), 0);
}

// ---------- LlmEngine: retention across a gap ----------

class EngineReuseTest : public ::testing::Test {
 protected:
  EngineConfig Config() {
    EngineConfig cfg;
    cfg.model = Mistral7BAwq();
    cfg.kv_pool_bytes = 4.0 * kGiB;
    cfg.prefix_sharing = true;
    cfg.policy = AdmissionPolicy::kGroupAware;
    return cfg;
  }

  // Runs request A (group 9) to completion, then submits an identical B at
  // t = 5 s — well after A finished — and returns the engine stats.
  EngineStats RunGapWorkload(double retention_s) {
    Simulator sim;
    EngineConfig cfg = Config();
    cfg.prefix_retention_s = retention_s;
    LlmEngine engine(&sim, cfg, 1);
    auto submit = [&engine]() {
      InferenceRequest req;
      req.prompt_tokens = 1000;
      req.output_tokens = 5;
      req.prefix_group = 9;
      req.shared_prefix_tokens = 600;
      req.on_complete = [](const RequestTiming&) {};
      engine.Submit(std::move(req));
    };
    submit();
    sim.ScheduleAt(5.0, submit);
    sim.Run();
    EXPECT_EQ(engine.stats().completed, 2u);
    return engine.stats();
  }
};

TEST_F(EngineReuseTest, RetentionCarriesPrefixAcrossGap) {
  // Grace window covers the 5 s gap: B revives A's parked prefix and skips
  // the 600 shared tokens.
  EngineStats stats = RunGapWorkload(/*retention_s=*/10.0);
  EXPECT_EQ(stats.prefill_tokens_saved, 600);
  EXPECT_EQ(stats.prefix_hits, 1u);
  EXPECT_EQ(stats.retained_prefix_hits, 1u);
  EXPECT_EQ(stats.retained_expirations, 0u);
  EXPECT_EQ(stats.prefill_tokens, 2 * 1000 - 600);
}

TEST_F(EngineReuseTest, ShortGraceExpiresBeforeReuse) {
  // 0.2 s grace is long gone by t = 5: the prefix expired, B pays in full.
  EngineStats stats = RunGapWorkload(/*retention_s=*/0.2);
  EXPECT_EQ(stats.prefill_tokens_saved, 0);
  EXPECT_EQ(stats.retained_prefix_hits, 0u);
  EXPECT_EQ(stats.retained_expirations, 1u);
  EXPECT_EQ(stats.prefill_tokens, 2 * 1000);
}

TEST_F(EngineReuseTest, EagerDefaultNeverRetains) {
  // retention 0 (default): bit-parity with the pre-retention engine — no
  // parked prefixes, no retained counters, full prefill for both.
  EngineStats stats = RunGapWorkload(/*retention_s=*/0.0);
  EXPECT_EQ(stats.prefill_tokens_saved, 0);
  EXPECT_EQ(stats.prefix_hits, 0u);
  EXPECT_EQ(stats.retained_prefix_hits, 0u);
  EXPECT_EQ(stats.retained_evictions, 0u);
  EXPECT_EQ(stats.retained_expirations, 0u);
}

// ---------- Bugfix regressions ----------

TEST(EngineAdmissionTest, NearPoolSizedRequestAdmitsOnEmptyPool) {
  // Livelock regression: the pool holds 62 blocks (992 tokens); the request
  // needs exactly 992 tokens, i.e. MORE than total - 2% buffer but not more
  // than total. Submit's satisfiability check passes, and the buffer waiver
  // on an otherwise-empty pool must let it admit — pre-fix, AdmitIfFits
  // demanded bytes + buffer <= free forever and the request hung.
  Simulator sim;
  EngineConfig cfg;
  cfg.model = Mistral7BAwq();
  cfg.kv_pool_bytes = 1000 * cfg.model.kv_bytes_per_token;  // -> 62 blocks.
  LlmEngine engine(&sim, cfg, 1);
  int done = 0;
  for (int i = 0; i < 2; ++i) {
    InferenceRequest req;
    req.prompt_tokens = 900;
    req.output_tokens = 92;  // 992 tokens = the whole 62-block pool.
    req.on_complete = [&](const RequestTiming&) { ++done; };
    engine.Submit(std::move(req));
  }
  sim.Run();
  // Both complete, strictly one at a time (each needs the whole pool).
  EXPECT_EQ(done, 2);
}

TEST(EngineAdmissionTest, BufferStillEnforcedWhenPoolBusy) {
  // The waiver is scoped to an otherwise-empty pool: with an incumbent
  // decoding, a request that fits raw-free but not free-minus-buffer must
  // wait for the incumbent to finish (strictly staggered completions).
  Simulator sim;
  EngineConfig cfg;
  cfg.model = Mistral7BAwq();
  cfg.kv_pool_bytes = 1000 * cfg.model.kv_bytes_per_token;  // 62 blocks.
  LlmEngine engine(&sim, cfg, 1);
  std::vector<double> finishes;
  auto submit = [&](int prompt, int output) {
    InferenceRequest req;
    req.prompt_tokens = prompt;
    req.output_tokens = output;
    req.on_complete = [&](const RequestTiming& t) { finishes.push_back(t.finish_time); };
    engine.Submit(std::move(req));
  };
  submit(160, 160);  // 20 blocks; leaves 42 blocks (672 tokens) free.
  submit(600, 64);   // 664 tokens = 42 blocks: fits raw-free, not with buffer.
  sim.Run();
  ASSERT_EQ(finishes.size(), 2u);
  EXPECT_LT(finishes[0], finishes[1]);
}

TEST(EngineProjectedFreeTest, QueuedSiblingsChargePrefixOnce) {
  // Three siblings wait behind max_running=1. Their group's prefix is NOT
  // resident, so projected-free charges the 600-token prefix once plus each
  // sibling's tail — not 3x the full prompt.
  Simulator sim;
  EngineConfig cfg;
  cfg.model = Mistral7BAwq();
  cfg.kv_pool_bytes = 4.0 * kGiB;
  cfg.prefix_sharing = true;
  cfg.policy = AdmissionPolicy::kGroupAware;
  cfg.max_running = 1;
  LlmEngine engine(&sim, cfg, 1);

  InferenceRequest head;  // Occupies the single running slot, no group.
  head.prompt_tokens = 500;
  head.output_tokens = 200;
  head.on_complete = [](const RequestTiming&) {};
  engine.Submit(std::move(head));

  for (int i = 0; i < 3; ++i) {
    InferenceRequest req;
    req.prompt_tokens = 1000;
    req.output_tokens = 50;
    req.prefix_group = 5;
    req.shared_prefix_tokens = 600;
    req.on_complete = [](const RequestTiming&) {};
    engine.Submit(std::move(req));
  }
  ASSERT_EQ(engine.queue_depth(), 3u);
  const KvCacheManager& kv = engine.kv();
  double expected_claim = kv.BytesForTokens(600) +        // Prefix, once.
                          3 * kv.BytesForTokens(1000 - 600 + 50);  // Tails.
  EXPECT_DOUBLE_EQ(engine.projected_free_kv_bytes(),
                   engine.free_kv_bytes() - expected_claim);
  sim.Run();
}

TEST(EngineProjectedFreeTest, ResidentPrefixNotChargedToQueue) {
  // The running head holds the group's prefix, so waiting siblings are
  // charged tails only — the resident prefix costs the queue nothing.
  Simulator sim;
  EngineConfig cfg;
  cfg.model = Mistral7BAwq();
  cfg.kv_pool_bytes = 4.0 * kGiB;
  cfg.prefix_sharing = true;
  cfg.policy = AdmissionPolicy::kGroupAware;
  cfg.max_running = 1;
  LlmEngine engine(&sim, cfg, 1);

  auto submit_sibling = [&]() {
    InferenceRequest req;
    req.prompt_tokens = 1000;
    req.output_tokens = 50;
    req.prefix_group = 5;
    req.shared_prefix_tokens = 600;
    req.on_complete = [](const RequestTiming&) {};
    engine.Submit(std::move(req));
  };
  submit_sibling();  // Admits; acquires the prefix.
  submit_sibling();
  submit_sibling();
  ASSERT_EQ(engine.queue_depth(), 2u);
  const KvCacheManager& kv = engine.kv();
  double expected_claim = 2 * kv.BytesForTokens(1000 - 600 + 50);
  EXPECT_DOUBLE_EQ(engine.projected_free_kv_bytes(),
                   engine.free_kv_bytes() - expected_claim);
  sim.Run();
}

// ---------- Chunked prefill + admission determinism ----------

TEST(EngineSchedulingTest, ChunkedPrefillAccountsEveryToken) {
  Simulator sim;
  EngineConfig cfg;
  cfg.model = Mistral7BAwq();
  cfg.kv_pool_bytes = 4.0 * kGiB;
  cfg.max_batched_tokens = 2048;
  LlmEngine engine(&sim, cfg, 1);
  RequestTiming timing;
  InferenceRequest req;
  req.prompt_tokens = 5000;  // Needs >= 3 chunked-prefill steps.
  req.output_tokens = 3;
  req.on_complete = [&](const RequestTiming& t) { timing = t; };
  engine.Submit(std::move(req));
  sim.Run();
  EXPECT_EQ(engine.stats().prefill_tokens, 5000);
  EXPECT_EQ(timing.prefill_tokens_charged, 5000);
  EXPECT_GE(engine.stats().steps, 3u);
  EXPECT_GT(timing.first_token_time, timing.admit_time);
}

TEST(EngineSchedulingTest, GroupAwareAdmissionIsDeterministic) {
  // Mixed prefix groups under memory pressure exercise the sibling-jump
  // admission path; two identical runs must produce identical completion
  // times for every request.
  auto run_once = [&]() {
    Simulator sim;
    EngineConfig cfg;
    cfg.model = Mistral7BAwq();
    cfg.kv_pool_bytes = 3000 * cfg.model.kv_bytes_per_token;
    cfg.prefix_sharing = true;
    cfg.policy = AdmissionPolicy::kGroupAware;
    cfg.prefix_retention_s = 0.5;
    LlmEngine engine(&sim, cfg, 1);
    std::vector<double> finishes(12, 0);
    for (int i = 0; i < 12; ++i) {
      InferenceRequest req;
      req.prompt_tokens = 800;
      req.output_tokens = 20;
      req.prefix_group = 1 + (i % 3);
      req.shared_prefix_tokens = 500;
      req.on_complete = [&finishes, i](const RequestTiming& t) {
        finishes[i] = t.finish_time;
      };
      engine.Submit(std::move(req));
    }
    sim.Run();
    EXPECT_GT(engine.stats().prefill_tokens_saved, 0);
    return finishes;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------- Runner replays ----------

RunSpec ReuseSpec(bool feature_on) {
  RunSpec spec;
  spec.dataset = "musique";
  spec.num_queries = 12;
  spec.arrival_rate = 4.0;
  spec.system = SystemKind::kMetis;
  spec.seed = 31;
  if (feature_on) {
    // The grace window must cover the inter-arrival gap between duplicates
    // of one hot template (~1 s at rate 4 with 3 templates), or the parked
    // prefix expires before the next sibling arrives.
    spec.scheduler.cross_query_prefix = true;
    spec.scheduler.prefix_retention_s = 3.0;
    spec.scheduler.e2e_budget_s = 6.0;
    spec.shared_workload.hot_fraction = 0.6;
    spec.shared_workload.num_hot = 3;
  }
  return spec;
}

void ExpectSameRecords(const RunMetrics& a, const RunMetrics& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].query_id, b.records[i].query_id) << i;
    EXPECT_EQ(a.records[i].result.f1, b.records[i].result.f1) << i;
    EXPECT_EQ(a.records[i].e2e_delay, b.records[i].e2e_delay) << i;
    EXPECT_EQ(a.records[i].finish_time, b.records[i].finish_time) << i;
    EXPECT_EQ(a.records[i].config.method, b.records[i].config.method) << i;
    EXPECT_EQ(a.records[i].config.num_chunks, b.records[i].config.num_chunks) << i;
  }
  EXPECT_EQ(a.engine_stats.prefill_tokens, b.engine_stats.prefill_tokens);
  EXPECT_EQ(a.engine_stats.prefill_tokens_saved, b.engine_stats.prefill_tokens_saved);
  EXPECT_EQ(a.engine_stats.busy_seconds, b.engine_stats.busy_seconds);
}

TEST(RunnerReuseTest, DefaultKnobsReplayBitIdentically) {
  // The new knobs default off; the stock METIS run must stay a pure function
  // of the spec (and explicit-off must equal the default spelling).
  RunSpec spec = ReuseSpec(/*feature_on=*/false);
  RunMetrics first = RunExperiment(spec);
  RunMetrics second = RunExperiment(spec);
  ASSERT_EQ(first.records.size(), 12u);
  ExpectSameRecords(first, second);
  EXPECT_EQ(first.engine_stats.retained_prefix_hits, 0u);
  EXPECT_EQ(first.engine_stats.retained_evictions, 0u);

  RunSpec explicit_off = spec;
  explicit_off.scheduler.cross_query_prefix = false;
  explicit_off.scheduler.e2e_budget_s = 0;
  explicit_off.shared_workload.hot_fraction = 0;
  ExpectSameRecords(first, RunExperiment(explicit_off));
}

TEST(RunnerReuseTest, FeatureOnReplaysBitIdentically) {
  RunSpec spec = ReuseSpec(/*feature_on=*/true);
  RunMetrics first = RunExperiment(spec);
  RunMetrics second = RunExperiment(spec);
  ASSERT_EQ(first.records.size(), 12u);
  ExpectSameRecords(first, second);
}

TEST(RunnerReuseTest, SharedWorkloadDuplicatesTemplatesOnly) {
  // hot_fraction replaces queries with duplicates of the first num_hot
  // templates: every record's query id must come from the original stream,
  // the stream length is unchanged, and duplicates actually appear.
  RunSpec spec = ReuseSpec(/*feature_on=*/true);
  RunMetrics metrics = RunExperiment(spec);
  ASSERT_EQ(metrics.records.size(), 12u);
  std::set<int32_t> distinct;
  for (const QueryRecord& rec : metrics.records) {
    distinct.insert(rec.query_id);
  }
  EXPECT_LT(distinct.size(), metrics.records.size());  // Duplicates exist.
}

TEST(RunnerReuseTest, TightBudgetTrimsSynthesisThenTradesDepth) {
  // With an e2e budget far below what profiling + queueing consume, every
  // decision point sees ~zero remaining budget: the scheduler must trim
  // synthesis tokens toward the space floor and flag the depth trade —
  // and stay deterministic while doing it.
  RunSpec spec = ReuseSpec(/*feature_on=*/true);
  spec.scheduler.e2e_budget_s = 0.2;
  RunMetrics first = RunExperiment(spec);
  int trimmed = 0;
  int traded = 0;
  for (const QueryRecord& rec : first.records) {
    trimmed += rec.budget_trimmed ? 1 : 0;
    traded += rec.depth_traded ? 1 : 0;
    if (rec.budget_trimmed || rec.depth_traded) {
      EXPECT_GT(rec.est_service_s, 0) << rec.query_id;
    }
  }
  EXPECT_GT(trimmed + traded, 0);
  ExpectSameRecords(first, RunExperiment(spec));
}

TEST(RunnerReuseTest, SharedHotTrafficSavesPrefillWithReuseOn) {
  // The tentpole's end-to-end effect in miniature: under a shared-query-heavy
  // stream, reuse-on saves strictly more prefill than reuse-off (which only
  // ever shares within one query's own mapper group).
  RunSpec off = ReuseSpec(/*feature_on=*/true);
  off.scheduler.cross_query_prefix = false;
  off.scheduler.e2e_budget_s = 0;
  RunSpec on = ReuseSpec(/*feature_on=*/true);
  RunMetrics m_off = RunExperiment(off);
  RunMetrics m_on = RunExperiment(on);
  EXPECT_GT(m_on.engine_stats.prefill_tokens_saved,
            m_off.engine_stats.prefill_tokens_saved);
  // Equal work served: same query stream, both complete everything.
  EXPECT_EQ(m_off.records.size(), m_on.records.size());
}

}  // namespace
}  // namespace metis
