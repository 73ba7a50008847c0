#include "perfbench/src/serve.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/core/retrieval_batcher.h"

namespace perfbench {

using namespace metis;

std::unique_ptr<Dataset> BuildDataset(const Workload& workload) {
  const RunSpec& spec = workload.spec;
  DatasetGenerator generator(GetDatasetProfile(spec.dataset), workload.corpus_seed);
  return generator.Generate(spec.num_queries, spec.embedding_model, spec.retrieval);
}

std::vector<IngestOp> MakeIngestOps(const Workload& workload) {
  std::vector<IngestOp> ops;
  if (workload.ingest_ops <= 0) {
    return ops;
  }
  uint64_t time_state = workload.spec.seed ^ 0x71A357ull;
  Rng time_rng(SplitMix64(time_state));
  std::vector<SimTime> times =
      ArrivalTimesFor(ArrivalProcess{}, time_rng, workload.ingest_ops, workload.ingest_rate);
  uint64_t op_state = workload.spec.seed ^ 0x16357ull;
  Rng rng(SplitMix64(op_state));
  for (SimTime t : times) {
    IngestOp op;
    op.time = t;
    op.insert = rng.Bernoulli(workload.ingest_insert_fraction);
    if (op.insert) {
      // A filler chunk of unique pseudo-words, like the runner's ingest
      // stream: it lands in its own corner of embedding space.
      for (int w = 0; w < 12; ++w) {
        if (w > 0) {
          op.text += ' ';
        }
        op.text += StrFormat("ing%llx", static_cast<unsigned long long>(rng.NextU64()));
      }
    } else {
      op.victim_u = rng.NextDouble();
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

namespace {

// RunExperiment's tenant stream (runner.cc AssignTenants), reproduced so the
// benchmark's stack serves bit-identical streams.
void AssignTenants(std::vector<RagQuery>& queries, const std::vector<TenantClass>& tenants,
                   uint64_t seed) {
  if (tenants.empty()) {
    return;
  }
  std::vector<double> cumulative;
  double total = 0;
  for (const TenantClass& t : tenants) {
    total += std::max(0.0, t.rate_share);
    cumulative.push_back(total);
  }
  Rng rng(seed ^ 0x7E4A47ull);
  for (RagQuery& q : queries) {
    if (total <= 0) {
      q.tenant = 0;
      continue;
    }
    double u = rng.NextDouble() * total;
    size_t idx = std::lower_bound(cumulative.begin(), cumulative.end(), u) - cumulative.begin();
    q.tenant = static_cast<int>(std::min(idx, tenants.size() - 1));
  }
}

// RunExperiment's shared-query shaping (runner.cc ApplySharedWorkload).
void ApplySharedWorkload(std::vector<RagQuery>& queries, const SharedWorkloadOptions& options,
                         uint64_t seed) {
  if (options.hot_fraction <= 0 || queries.empty()) {
    return;
  }
  int num_hot = std::clamp(options.num_hot, 1, static_cast<int>(queries.size()));
  std::vector<RagQuery> templates(queries.begin(), queries.begin() + num_hot);
  Rng rng(seed ^ 0x4077D05Eull);
  for (RagQuery& q : queries) {
    if (!rng.Bernoulli(options.hot_fraction)) {
      continue;
    }
    const RagQuery& t = templates[rng.Index(templates.size())];
    SimTime arrival = q.arrival_time;
    int tenant = q.tenant;
    q = t;
    q.arrival_time = arrival;
    q.tenant = tenant;
  }
}

// Live, non-gold chunks: the pool deletes draw from (gold chunks stay, so F1
// stays comparable with a static index).
std::vector<ChunkId> DeletablePool(const Dataset& dataset) {
  std::unordered_set<ChunkId> gold;
  for (const RagQuery& q : dataset.queries()) {
    for (int32_t fid : q.gold_fact_ids) {
      gold.insert(dataset.fact(fid).chunk_id);
    }
  }
  std::vector<ChunkId> pool;
  const VectorDatabase& db = dataset.db();
  for (ChunkId id = 0; id < static_cast<ChunkId>(db.num_chunks()); ++id) {
    if (db.chunk_live(id) && gold.count(id) == 0) {
      pool.push_back(id);
    }
  }
  return pool;
}

MutableIndexStats IndexStats(const VectorDatabase& db) {
  const MutableIndex* mi = db.mutable_index();
  return mi != nullptr ? mi->stats() : MutableIndexStats{};
}

}  // namespace

ServeResult Serve(const Workload& workload, Dataset& dataset, const std::vector<IngestOp>& ops,
                  Tracer* tracer) {
  const RunSpec& spec = workload.spec;
  METIS_CHECK(spec.system == SystemKind::kMetis);
  METIS_CHECK_GT(spec.arrival_rate, 0);
  VectorDatabase& db = dataset.mutable_db();
  METIS_CHECK(ops.empty() || db.mutable_index() != nullptr);

  // The stack's models are seeded like RunExperiment seeds them, from the
  // workload's fixed seed; the traffic comes from the benchmark's seed.
  const uint64_t model_seed = workload.corpus_seed;
  ServeResult out;
  // Benchmark inputs, made before the clock starts.
  std::vector<RagQuery> queries = dataset.queries();
  AssignTenants(queries, spec.tenants, spec.seed);
  ApplySharedWorkload(queries, spec.shared_workload, spec.seed);
  AssignArrivals(queries, spec.arrivals, spec.arrival_rate, spec.seed);
  std::vector<ChunkId> victims = ops.empty() ? std::vector<ChunkId>{} : DeletablePool(dataset);
  out.offered = queries.size();
  out.first_arrival = queries.empty() ? 0 : queries.front().arrival_time;
  out.live_rows_before = db.num_live_chunks();
  out.index_before = IndexStats(db);
  if (db.ivf_index() != nullptr) {
    db.ivf_index()->ResetProbeStats();
  }
  db.ResetHybridStats();
  if (db.lexical_index() != nullptr) {
    db.lexical_index()->ResetSearchStats();
  }

  const auto t0 = std::chrono::steady_clock::now();
  int serve_span = tracer != nullptr ? tracer->Begin("serve", "runner") : -1;
  {
    Simulator sim;
    const ModelSpec& model = GetModelSpec(spec.serving_model);
    EngineConfig ecfg;
    ecfg.model = model;
    double pool_gib = spec.kv_pool_gib > 0 ? spec.kv_pool_gib : DefaultKvPoolGib(model);
    ecfg.kv_pool_bytes = pool_gib * kGiB;
    ecfg.max_batched_tokens = spec.max_batched_tokens;
    bool batching = spec.override_prefix_sharing.value_or(true);
    ecfg.prefix_sharing = batching;
    ecfg.policy = batching ? AdmissionPolicy::kGroupAware : AdmissionPolicy::kFcfs;
    if (spec.scheduler.cross_query_prefix) {
      ecfg.prefix_retention_s = spec.scheduler.prefix_retention_s;
    }
    LlmEngine engine(&sim, ecfg, model_seed);
    BehaviorModel behavior(BehaviorParams{}, model_seed ^ 0xBE4A11ull);
    RetrievalQuality retrieval_quality = RetrievalQualityFromOptions(spec.scheduler);
    std::unique_ptr<RetrievalBatcher> batcher;
    if (spec.scheduler.coalesce_retrieval) {
      batcher = std::make_unique<RetrievalBatcher>(&sim, &db, SynthesisExecutor::kRetrievalSeconds,
                                                   retrieval_quality);
    }
    SynthesisExecutor executor(&sim, &engine, &behavior, &dataset, model_seed ^ 0x5E1Full,
                               batcher.get());
    executor.set_retrieval_quality(retrieval_quality);
    executor.set_cross_query_prefix(spec.scheduler.cross_query_prefix);
    ApiLlmClient profiler_api(&sim, GetModelSpec(spec.profiler_model), model_seed ^ 0xA91ull);
    ProfilerParams pparams =
        spec.profiler_model == "gpt-4o" ? Gpt4oProfilerParams() : Llama70BProfilerParams();
    QueryProfiler profiler(&sim, &profiler_api, &db.metadata(), pparams, model_seed ^ 0x9867ull);
    JointScheduler scheduler(&engine, &executor, 10, spec.scheduler);
    std::unique_ptr<OverloadController> overload;
    if (spec.overload.enabled) {
      overload = std::make_unique<OverloadController>(&engine, spec.tenants, spec.overload);
    }
    MetisSystem::Options opts = spec.metis;
    opts.output_token_estimate = dataset.profile().max_output_tokens;
    std::vector<QueryRecord>* records = &out.records;
    MetisSystem system(&sim, &executor, &profiler, &scheduler, &dataset, opts,
                       [records](QueryRecord rec) { records->push_back(std::move(rec)); },
                       overload.get());

    // The ingest stream is scheduled first, as RunExperiment does, so
    // same-timestamp events keep its order.
    for (const IngestOp& op : ops) {
      sim.ScheduleAt(op.time, [&db, &op, &victims, &out, tracer, serve_span,
                               chunk_tokens = dataset.profile().chunk_tokens]() {
        ++out.ops_issued;
        if (op.insert) {
          Chunk c;
          c.text = op.text;
          c.token_count = chunk_tokens;
          int span = tracer != nullptr ? tracer->Begin("insert", "vectordb", serve_span) : -1;
          ChunkId id = db.InsertChunks({std::move(c)}).front();
          if (tracer != nullptr) {
            tracer->End(span);
          }
          ++out.inserts_issued;
          victims.push_back(id);
        } else if (victims.empty()) {
          ++out.deletes_issued;
          ++out.deletes_failed;
        } else {
          size_t pick = std::min(victims.size() - 1,
                                 static_cast<size_t>(op.victim_u * victims.size()));
          ChunkId id = victims[pick];
          victims[pick] = victims.back();
          victims.pop_back();
          int span = tracer != nullptr ? tracer->Begin("delete", "vectordb", serve_span) : -1;
          size_t removed = db.DeleteChunks({id});
          if (tracer != nullptr) {
            tracer->End(span);
          }
          ++out.deletes_issued;
          out.deletes_failed += removed == 1 ? 0 : 1;
        }
      });
    }
    for (const RagQuery& q : queries) {
      if (tracer == nullptr) {
        sim.ScheduleAt(q.arrival_time, [sys = &system, q]() { sys->Accept(q); });
      } else {
        sim.ScheduleAt(q.arrival_time, [sys = &system, q, tracer, serve_span]() {
          int span = tracer->Begin("accept", "core", serve_span, q.id);
          sys->Accept(q);
          tracer->End(span);
        });
      }
    }
    sim.Run();
    out.engine = engine.stats();
    out.engine_kv_bytes = engine.total_kv_bytes();
  }
  if (tracer != nullptr) {
    tracer->End(serve_span);
  }
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  out.serve_span = serve_span;

  out.stream = std::move(queries);
  out.hybrid = db.hybrid_stats();
  if (db.lexical_index() != nullptr) {
    out.lexical = db.lexical_index()->stats();
  }
  if (db.ivf_index() != nullptr) {
    out.mean_probes = db.ivf_index()->mean_probes();
  }
  out.live_rows_after = db.num_live_chunks();
  out.index_after = IndexStats(db);
  return out;
}

}  // namespace perfbench
