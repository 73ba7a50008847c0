#include "perfbench/src/report.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "src/common/stats.h"
#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "src/vectordb/lexical_index.h"

namespace perfbench {

using namespace metis;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) {
    s += x;
  }
  return s;
}

double ClassDeadline(const Workload& workload, int tenant) {
  const std::vector<TenantClass>& tenants = workload.spec.tenants;
  if (tenant < 0 || static_cast<size_t>(tenant) >= tenants.size()) {
    return 0;
  }
  return tenants[static_cast<size_t>(tenant)].deadline_s;
}

// Checks one retrieval's output: at most k hits, live
// unique ids, ascending distance, and (dense hits) the distance the embedder
// gives for the first and last hit.
void CheckRetrieval(const Dataset& dataset, const std::string& text, size_t k,
                    const RetrievalQuality& quality, const std::vector<SearchHit>& hits,
                    std::vector<std::string>* failures) {
  const VectorDatabase& db = dataset.db();
  auto fail = [&](const char* what) {
    failures->push_back(StrFormat("retrieval of \"%.40s\" (k=%zu): %s", text.c_str(), k, what));
  };
  if (hits.size() > k || (hits.empty() && k > 0 && db.num_live_chunks() > 0)) {
    fail("wrong hit count");
    return;
  }
  std::unordered_set<ChunkId> seen;
  for (size_t i = 0; i < hits.size(); ++i) {
    ChunkId id = hits[i].id;
    if (id < 0 || static_cast<size_t>(id) >= db.num_chunks() || !db.chunk_live(id)) {
      fail("dead or invalid chunk id");
      return;
    }
    if (!seen.insert(id).second) {
      fail("duplicate chunk id");
      return;
    }
    if (i > 0 && hits[i].distance < hits[i - 1].distance) {
      fail("hits not in ascending distance order");
      return;
    }
  }
  bool dense_only = !quality.hybrid && !quality.filter.active();
  if (dense_only && !hits.empty()) {
    Embedding q = db.embedder().Embed(text);
    for (const SearchHit& h : {hits.front(), hits.back()}) {
      double truth = L2DistanceSquared(q, db.embedder().Embed(db.chunk(h.id).text));
      if (std::abs(truth - h.distance) > 1e-3 * std::max(1.0, truth)) {
        fail("reported distance differs from the embedding distance");
        return;
      }
    }
  }
}

}  // namespace

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  Samples s;
  s.AddAll(v);
  return s.Quantile(q);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

SimSummary Summarize(const Workload& workload, const ServeResult& result) {
  SimSummary s;
  s.offered = result.offered;
  Samples delays;
  Samples f1s;
  SimTime last_finish = result.first_arrival;
  for (const QueryRecord& rec : result.records) {
    if (rec.rejected) {
      ++s.rejected;
      continue;
    }
    ++s.completed;
    delays.Add(rec.e2e_delay);
    f1s.Add(rec.result.f1);
    double deadline = ClassDeadline(workload, rec.tenant);
    if (deadline <= 0 || rec.e2e_delay <= deadline) {
      ++s.in_deadline;
    }
    last_finish = std::max(last_finish, rec.finish_time);
  }
  s.sim_duration = std::max(1e-9, last_finish - result.first_arrival);
  if (!delays.empty()) {
    s.p50_delay_s = delays.Quantile(0.5);
    s.p99_delay_s = delays.p99();
    for (double d : delays.values()) {
      s.beyond_p99 += d > s.p99_delay_s ? 1 : 0;
    }
    s.mean_f1 = f1s.mean();
  }
  s.goodput_qps = static_cast<double>(s.in_deadline) / s.sim_duration;
  s.slo_attainment = Ratio(static_cast<double>(s.in_deadline), static_cast<double>(s.offered));
  s.admitted_frac = Ratio(static_cast<double>(s.offered - s.rejected),
                          static_cast<double>(s.offered));
  s.gpu_s_per_query = Ratio(result.engine.busy_seconds, static_cast<double>(s.completed));
  return s;
}

std::vector<double> SimFingerprint(const ServeResult& result) {
  std::vector<double> f;
  f.reserve(result.records.size() * 12 + 16);
  for (const QueryRecord& rec : result.records) {
    f.insert(f.end(), {static_cast<double>(rec.query_id), static_cast<double>(rec.tenant),
                       rec.rejected ? 1.0 : 0.0, rec.arrival_time, rec.finish_time,
                       rec.e2e_delay, rec.profiler_delay, rec.result.f1,
                       static_cast<double>(rec.config.method),
                       static_cast<double>(rec.config.num_chunks),
                       static_cast<double>(rec.config.intermediate_tokens), rec.est_service_s,
                       static_cast<double>(rec.retrieval_quality.nprobe),
                       static_cast<double>(rec.overload_level)});
  }
  const EngineStats& e = result.engine;
  f.insert(f.end(), {static_cast<double>(e.submitted), static_cast<double>(e.completed),
                     static_cast<double>(e.steps), e.busy_seconds,
                     static_cast<double>(e.prefill_tokens),
                     static_cast<double>(e.prefill_tokens_saved),
                     static_cast<double>(e.decode_tokens), e.peak_kv_bytes,
                     static_cast<double>(e.peak_queue_depth), e.peak_queue_age_s,
                     result.mean_probes, static_cast<double>(result.hybrid.lexical_searches),
                     static_cast<double>(result.index_after.seals),
                     static_cast<double>(result.index_after.compactions),
                     static_cast<double>(result.index_after.retrains)});
  return f;
}

std::vector<std::string> CheckServe(const Workload& workload, const std::vector<IngestOp>& ops,
                                    const ServeResult& r) {
  std::vector<std::string> failures;
  auto expect = [&failures](bool ok, std::string what) {
    if (!ok) {
      failures.push_back(std::move(what));
    }
  };
  // Every offered query is accounted for, per class.
  expect(r.records.size() == r.offered,
         StrFormat("%zu records for %zu offered queries", r.records.size(), r.offered));
  size_t classes = std::max<size_t>(1, workload.spec.tenants.size());
  std::vector<uint64_t> offered(classes, 0), completed(classes, 0), rejected(classes, 0);
  for (const RagQuery& q : r.stream) {
    offered[std::min(static_cast<size_t>(std::max(q.tenant, 0)), classes - 1)]++;
  }
  for (const QueryRecord& rec : r.records) {
    size_t c = std::min(static_cast<size_t>(std::max(rec.tenant, 0)), classes - 1);
    (rec.rejected ? rejected : completed)[c]++;
    if (rec.rejected) {
      continue;
    }
    // Profiler time is part of the end-to-end delay (sim-time sums may differ
    // in the last bit).
    double slack = 1e-9 * std::max(1.0, rec.e2e_delay);
    expect(rec.profiler_delay >= 0 && rec.profiler_delay <= rec.e2e_delay + slack,
           StrFormat("query %d: profiler delay %.9g outside [0, e2e %.9g]", rec.query_id,
                     rec.profiler_delay, rec.e2e_delay));
    expect(rec.result.retrieved_chunks > 0,
           StrFormat("query %d completed with no retrieved chunks", rec.query_id));
    expect(rec.result.f1 >= 0 && rec.result.f1 <= 1,
           StrFormat("query %d: F1 %.9g outside [0, 1]", rec.query_id, rec.result.f1));
  }
  for (size_t c = 0; c < classes; ++c) {
    expect(offered[c] == completed[c] + rejected[c],
           StrFormat("class %zu: offered %llu != completed %llu + rejected %llu", c,
                     static_cast<unsigned long long>(offered[c]),
                     static_cast<unsigned long long>(completed[c]),
                     static_cast<unsigned long long>(rejected[c])));
  }
  expect(r.engine.submitted == r.engine.completed,
         StrFormat("engine submitted %llu != completed %llu",
                   static_cast<unsigned long long>(r.engine.submitted),
                   static_cast<unsigned long long>(r.engine.completed)));

  // Ingest conservation.
  uint64_t inserts = r.index_after.inserts - r.index_before.inserts;
  uint64_t deletes = r.index_after.deletes - r.index_before.deletes;
  expect(r.ops_issued == ops.size(),
         StrFormat("%llu ingest ops issued of %zu", static_cast<unsigned long long>(r.ops_issued),
                   ops.size()));
  expect(r.deletes_failed == 0, StrFormat("%llu deletes removed no row",
                                          static_cast<unsigned long long>(r.deletes_failed)));
  expect(inserts + deletes == r.ops_issued && inserts == r.inserts_issued,
         StrFormat("index counted %llu inserts + %llu deletes for %llu ops",
                   static_cast<unsigned long long>(inserts),
                   static_cast<unsigned long long>(deletes),
                   static_cast<unsigned long long>(r.ops_issued)));
  expect(r.live_rows_after + deletes == r.live_rows_before + inserts,
         StrFormat("live rows %zu != %zu + %llu inserts - %llu deletes", r.live_rows_after,
                   r.live_rows_before, static_cast<unsigned long long>(inserts),
                   static_cast<unsigned long long>(deletes)));
  if (workload.spec.retrieval.mutable_index) {
    expect(r.index_after.live_rows == r.live_rows_after,
           StrFormat("index live rows %zu != database live rows %zu", r.index_after.live_rows,
                     r.live_rows_after));
  }

  // The workload's mechanism ran (inputs and work counts only).
  const std::string& name = workload.name;
  if (name == "ingest_overload") {
    expect(!ops.empty() && inserts > 0 && deletes > 0, "ingest_overload: no ingest ops ran");
    expect(r.lexical.searches > 0 && r.lexical.postings_scanned > 0,
           "ingest_overload: no lexical scans ran");
  }
  if (name == "shared_reuse") {
    std::unordered_set<std::string> texts;
    for (const RagQuery& q : r.stream) {
      texts.insert(q.text);
    }
    expect(texts.size() < r.stream.size(), "shared_reuse: the stream holds no duplicates");
    expect(r.engine.prefix_hits > 0, "shared_reuse: no prefix hits");
  }
  if (name == "flat_scan") {
    expect(workload.spec.retrieval.backend == RetrievalIndexOptions::Backend::kFlat &&
               !workload.spec.scheduler.cross_query_prefix,
           "flat_scan: not an exact flat scan without KV reuse");
  }
  return failures;
}

std::vector<std::string> SpotCheckRetrieval(const Dataset& dataset, const ServeResult& served,
                                            size_t samples) {
  std::unordered_map<int32_t, const RagQuery*> by_id;
  for (const RagQuery& q : served.stream) {
    by_id.emplace(q.id, &q);
  }
  std::vector<const QueryRecord*> completed;
  for (const QueryRecord& rec : served.records) {
    if (!rec.rejected) {
      completed.push_back(&rec);
    }
  }
  std::vector<std::string> failures;
  for (size_t i = 0; i < samples && !completed.empty(); ++i) {
    const QueryRecord& rec = *completed[i * completed.size() / samples];
    const std::string& text = by_id.at(rec.query_id)->text;
    size_t k = static_cast<size_t>(rec.config.num_chunks);
    CheckRetrieval(dataset, text, k, rec.retrieval_quality,
                   dataset.db().RetrieveWithDistances(text, k, rec.retrieval_quality), &failures);
  }
  return failures;
}

Replay ReplayQueries(const Workload& workload, const Dataset& dataset, const ServeResult& served,
                     Tracer& tracer) {
  const RunSpec& spec = workload.spec;
  const VectorDatabase& db = dataset.db();
  Replay out;
  out.dim = db.embedder().dim();
  std::unordered_map<int32_t, const RagQuery*> by_id;
  for (const RagQuery& q : served.stream) {
    by_id.emplace(q.id, &q);
  }
  // A fresh profiler, so Estimate is timed without the serve's feedback state.
  Simulator sim;
  ApiLlmClient api(&sim, GetModelSpec(spec.profiler_model), workload.corpus_seed ^ 0xA91ull);
  QueryProfiler profiler(
      &sim, &api, &db.metadata(),
      spec.profiler_model == "gpt-4o" ? Gpt4oProfilerParams() : Llama70BProfilerParams(),
      workload.corpus_seed ^ 0x9867ull);
  const IvfL2Index* ivf = db.ivf_index();
  const MutableIndexStats& index = served.index_after;
  const double live_rows = static_cast<double>(db.num_live_chunks());
  // Rows outside the IVF base (memtable + sealed segments) are scanned whole.
  const double delta_rows =
      db.mutable_index() != nullptr ? static_cast<double>(index.live_rows - index.base_rows) : 0;
  const double base_rows = live_rows - delta_rows;
  std::unordered_set<std::string> seen_texts;

  int root = tracer.Begin("replay", "runner");
  for (const QueryRecord& rec : served.records) {
    if (rec.rejected) {
      continue;
    }
    const RagQuery& q = *by_id.at(rec.query_id);
    const size_t k = static_cast<size_t>(rec.config.num_chunks);
    const RetrievalQuality& quality = rec.retrieval_quality;
    int qspan = tracer.Begin("query", "runner", root, q.id);

    int span = tracer.Begin("embed.query", "embed", qspan, q.id);
    Embedding e = db.embedder().Embed(q.text);
    tracer.End(span);
    out.embed_s.push_back(tracer.Duration(span));
    if (seen_texts.insert(q.text).second) {
      out.embed_first_s += tracer.Duration(span);
    }

    // k = 0 memoises the query embedding without scanning, so the timed call
    // below does index work only.
    db.RetrieveWithDistances(q.text, 0, quality);
    uint64_t probes_before = ivf != nullptr ? ivf->probes_issued() : 0;
    span = tracer.Begin("vectordb.search", "vectordb", qspan, q.id);
    std::vector<SearchHit> hits = db.RetrieveWithDistances(q.text, k, quality);
    tracer.End(span);
    out.search_s.push_back(tracer.Duration(span));
    CheckRetrieval(dataset, q.text, k, quality, hits, &out.failures);
    bool dense = !quality.hybrid || quality.dense_weight > 0 || quality.lexical_weight <= 0;
    if (dense) {
      if (ivf != nullptr) {
        double probes = static_cast<double>(ivf->probes_issued() - probes_before);
        out.dense_rows += probes * base_rows / static_cast<double>(ivf->nlist()) + delta_rows;
      } else {
        out.dense_rows += live_rows;
      }
    }

    span = tracer.Begin("profiler.estimate", "profiler", qspan, q.id);
    QueryProfiler::Outcome estimate = profiler.Estimate(q);
    tracer.End(span);
    (void)estimate;
    out.estimate_s.push_back(tracer.Duration(span));

    span = tracer.Begin("synthesis.isolated", "synthesis", qspan, q.id);
    RagResult isolated = RunSingleQuery(dataset, q, rec.config, spec.serving_model, workload.corpus_seed);
    tracer.End(span);
    out.isolated_s.push_back(isolated.exec_delay());
    out.contention_s.push_back(rec.result.exec_delay() - isolated.exec_delay());

    tracer.End(qspan);
  }
  tracer.End(root);
  out.unique_texts = seen_texts.size();
  return out;
}

SetupLayers TimeSetupLayers(const Workload& workload, const Dataset& dataset) {
  SetupLayers out;
  const VectorDatabase& db = dataset.db();
  out.corpus_rows = db.num_chunks();
  std::vector<std::string> texts;
  texts.reserve(db.num_chunks());
  for (ChunkId id = 0; id < static_cast<ChunkId>(db.num_chunks()); ++id) {
    texts.push_back(db.chunk(id).text);
  }
  {
    // The same pool size DatasetGenerator::Generate embeds with.
    ThreadPool pool(ThreadPool::DefaultThreads());
    auto t0 = std::chrono::steady_clock::now();
    std::vector<Embedding> embeddings = db.embedder().EmbedBatch(texts, &pool);
    out.embed_corpus_s = SecondsSince(t0);
  }
  const RetrievalIndexOptions& opt = workload.spec.retrieval;
  if (opt.lexical) {
    auto t0 = std::chrono::steady_clock::now();
    LexicalIndex lexical(opt.shards, opt.mutation.memtable_rows, opt.mutation.compact_segments);
    for (ChunkId id = 0; id < static_cast<ChunkId>(texts.size()); ++id) {
      lexical.Add(id, texts[static_cast<size_t>(id)]);
    }
    out.lexical_build_s = SecondsSince(t0);
  }
  return out;
}

Metrics SimMetrics(const SimSummary& sim) {
  return {
      {"p50_delay_s", sim.p50_delay_s, "s"},
      {"p99_delay_s", sim.p99_delay_s, "s"},
      {"mean_f1", sim.mean_f1, "f1"},
      {"goodput_qps", sim.goodput_qps, "queries/s"},
      {"slo_attainment", sim.slo_attainment, "fraction"},
      {"admitted_frac", sim.admitted_frac, "fraction"},
      {"gpu_s_per_query", sim.gpu_s_per_query, "GPU-s"},
  };
}

Metrics MedianMetrics(const std::vector<Metrics>& runs) {
  Metrics out = runs.front();
  for (size_t i = 0; i < out.size(); ++i) {
    std::vector<double> values;
    for (const Metrics& run : runs) {
      values.push_back(run[i].value);
    }
    out[i].value = Median(values);
  }
  return out;
}

Metrics PerLayerMetrics(const Workload& workload, const ServeResult& traced, const Replay& replay,
                        const SetupLayers& setup, const Tracer& tracer, double untraced_serve_s) {
  const SimSummary sim = Summarize(workload, traced);
  const double completed = static_cast<double>(sim.completed);
  const double serve_wall = traced.wall_s;

  // In-serve spans: Accept calls (core; they include the synchronous
  // profiler estimate) and ingest calls (vectordb write).
  std::vector<double> insert_s, delete_s;
  double accept_total = 0;
  std::vector<double> self = SelfTimes(tracer.spans());
  for (const Span& s : tracer.spans()) {
    if (s.parent != traced.serve_span || traced.serve_span < 0) {
      continue;
    }
    std::string name = s.name;
    double t = self[static_cast<size_t>(s.id)];
    if (name == "accept") {
      accept_total += t;
    } else if (name == "insert") {
      insert_s.push_back(s.end_s - s.start_s);
    } else if (name == "delete") {
      delete_s.push_back(s.end_s - s.start_s);
    }
  }
  const double write_total = Sum(insert_s) + Sum(delete_s);
  const double search_total = Sum(replay.search_s);
  const double estimate_total = Sum(replay.estimate_s);
  const double core_self = std::max(0.0, accept_total - estimate_total);
  const double vectordb_share = Ratio(search_total + write_total, serve_wall);
  const double embed_share = Ratio(replay.embed_first_s, serve_wall);
  const double profiler_share = Ratio(estimate_total, serve_wall);
  const double core_share = Ratio(core_self, serve_wall);

  // Per-query record fields.
  double fallback = 0, trimmed = 0, traded = 0, depth_shed = 0, degraded = 0, hybrid_shed = 0;
  double chunks = 0, map_reduce = 0, stuff = 0, bad = 0, low_conf = 0;
  double llm_calls = 0, prompt_tokens = 0, gold_hit = 0, gold_total = 0;
  std::vector<double> est_err, exec_delay, profiler_delay, profiler_frac;
  for (const QueryRecord& rec : traced.records) {
    if (rec.rejected) {
      continue;
    }
    fallback += rec.scheduler_fallback;
    trimmed += rec.budget_trimmed;
    traded += rec.depth_traded;
    depth_shed += rec.depth_shed;
    degraded += rec.synthesis_degraded;
    hybrid_shed += rec.hybrid_shed;
    chunks += rec.config.num_chunks;
    map_reduce += rec.config.method == SynthesisMethod::kMapReduce;
    stuff += rec.config.method == SynthesisMethod::kStuff;
    bad += rec.profile_was_bad;
    low_conf += rec.low_confidence_fallback;
    llm_calls += rec.result.llm_calls;
    prompt_tokens += rec.result.total_prompt_tokens;
    gold_hit += rec.result.gold_facts_retrieved;
    gold_total += rec.result.gold_facts_total;
    double exec = rec.result.exec_delay();
    exec_delay.push_back(exec);
    if (rec.est_service_s > 0 && exec > 0) {
      est_err.push_back(std::abs(rec.est_service_s - exec) / exec);
    }
    profiler_delay.push_back(rec.profiler_delay);
    if (rec.e2e_delay > 0) {
      profiler_frac.push_back(rec.profiler_delay / rec.e2e_delay);
    }
  }
  const EngineStats& e = traced.engine;
  const double probes_rows = replay.dense_rows;
  const double replayed = static_cast<double>(replay.search_s.size());
  const double scanned_bytes = probes_rows * static_cast<double>(replay.dim) * 4.0;
  const double traced_qps = Ratio(static_cast<double>(traced.offered), serve_wall);
  const double untraced_qps = Ratio(static_cast<double>(traced.offered), untraced_serve_s);
  auto count = [](uint64_t v) { return static_cast<double>(v); };

  return {
      // workload
      {"workload.generate_s", Median(setup.generate_s), "s"},
      {"workload.corpus_rows", static_cast<double>(setup.corpus_rows), "rows"},
      {"workload.stream_len", count(traced.offered), "queries"},
      {"workload.ingest_ops", static_cast<double>(workload.ingest_ops), "ops"},
      // embed
      {"embed.corpus_s", setup.embed_corpus_s, "s"},
      {"embed.query_us_p50", Median(replay.embed_s) * 1e6, "us"},
      {"embed.query_share", embed_share, "fraction"},
      {"embed.unique_queries", count(replay.unique_texts), "queries"},
      // vectordb read
      {"vectordb.search_us_p50", Median(replay.search_s) * 1e6, "us"},
      {"vectordb.search_us_p99", Quantile(replay.search_s, 0.99) * 1e6, "us"},
      {"vectordb.search_share", Ratio(search_total, serve_wall), "fraction"},
      {"vectordb.searches", replayed, "queries"},
      {"vectordb.rows_scored_per_query", Ratio(probes_rows, replayed), "rows"},
      {"vectordb.scan_gbps", Ratio(scanned_bytes, search_total) / 1e9, "GB/s"},
      {"vectordb.mean_probes", traced.mean_probes, "lists"},
      // vectordb lexical
      {"vectordb.lexical_build_s", setup.lexical_build_s, "s"},
      {"vectordb.lexical_searches", count(traced.lexical.searches), "searches"},
      {"vectordb.postings_scanned", count(traced.lexical.postings_scanned), "postings"},
      {"vectordb.postings_per_query", Ratio(count(traced.lexical.postings_scanned), completed),
       "postings"},
      {"vectordb.fused_queries", count(traced.hybrid.fused_queries), "queries"},
      {"vectordb.fused_frac", Ratio(count(traced.hybrid.fused_queries), completed), "fraction"},
      // vectordb write
      {"vectordb.inserts", static_cast<double>(insert_s.size()), "ops"},
      {"vectordb.deletes", static_cast<double>(delete_s.size()), "ops"},
      {"vectordb.insert_us_p50", Median(insert_s) * 1e6, "us"},
      {"vectordb.insert_us_p99", Quantile(insert_s, 0.99) * 1e6, "us"},
      {"vectordb.delete_us_p50", Median(delete_s) * 1e6, "us"},
      {"vectordb.write_share", Ratio(write_total, serve_wall), "fraction"},
      {"vectordb.seals", count(traced.index_after.seals - traced.index_before.seals), "count"},
      {"vectordb.compactions",
       count(traced.index_after.compactions - traced.index_before.compactions), "count"},
      {"vectordb.retrains", count(traced.index_after.retrains - traced.index_before.retrains),
       "count"},
      {"vectordb.share", vectordb_share, "fraction"},
      // profiler
      {"profiler.estimate_us", Median(replay.estimate_s) * 1e6, "us"},
      {"profiler.wall_share", profiler_share, "fraction"},
      {"profiler.delay_p50_s", Median(profiler_delay), "s"},
      {"profiler.delay_share", Median(profiler_frac), "fraction"},
      {"profiler.bad_frac", Ratio(bad, completed), "fraction"},
      {"profiler.low_conf_frac", Ratio(low_conf, completed), "fraction"},
      // core
      {"core.offered", count(sim.offered), "queries"},
      {"core.completed", completed, "queries"},
      {"core.rejected", count(sim.rejected), "queries"},
      {"core.rejected_frac", Ratio(count(sim.rejected), count(sim.offered)), "fraction"},
      {"core.in_deadline", count(sim.in_deadline), "queries"},
      {"core.beyond_p99", count(sim.beyond_p99), "queries"},
      {"core.accept_share", core_share, "fraction"},
      {"core.sched_fallback_frac", Ratio(fallback, completed), "fraction"},
      {"core.budget_trimmed_frac", Ratio(trimmed, completed), "fraction"},
      {"core.depth_traded_frac", Ratio(traded, completed), "fraction"},
      {"core.est_service_err", Median(est_err), "fraction"},
      {"core.depth_shed_frac", Ratio(depth_shed, completed), "fraction"},
      {"core.synth_degraded_frac", Ratio(degraded, completed), "fraction"},
      {"core.hybrid_shed_frac", Ratio(hybrid_shed, completed), "fraction"},
      {"core.mean_chunks", Ratio(chunks, completed), "chunks"},
      {"core.map_reduce_frac", Ratio(map_reduce, completed), "fraction"},
      {"core.stuff_frac", Ratio(stuff, completed), "fraction"},
      // synthesis
      {"synthesis.llm_calls_per_query", Ratio(llm_calls, completed), "calls"},
      {"synthesis.prompt_tokens_per_query", Ratio(prompt_tokens, completed), "tokens"},
      {"synthesis.exec_p50_s", Median(exec_delay), "s"},
      {"synthesis.exec_p99_s", Quantile(exec_delay, 0.99), "s"},
      {"synthesis.gold_coverage", Ratio(gold_hit, gold_total), "fraction"},
      {"synthesis.isolated_p50_s", Median(replay.isolated_s), "s"},
      // llm
      {"llm.busy_s", e.busy_seconds, "GPU-s"},
      {"llm.busy_frac", Ratio(e.busy_seconds, sim.sim_duration), "fraction"},
      {"llm.steps_per_query", Ratio(count(e.steps), completed), "steps"},
      {"llm.prefill_tokens_per_query", Ratio(static_cast<double>(e.prefill_tokens), completed),
       "tokens"},
      {"llm.decode_tokens_per_query", Ratio(static_cast<double>(e.decode_tokens), completed),
       "tokens"},
      {"llm.prefill_tokens_saved", static_cast<double>(e.prefill_tokens_saved), "tokens"},
      {"llm.prefix_saved_frac",
       Ratio(static_cast<double>(e.prefill_tokens_saved),
             static_cast<double>(e.prefill_tokens + e.prefill_tokens_saved)),
       "fraction"},
      {"llm.prefix_hits", count(e.prefix_hits), "count"},
      {"llm.retained_hits", count(e.retained_prefix_hits), "count"},
      {"llm.retained_evictions", count(e.retained_evictions), "count"},
      {"llm.peak_kv_frac", Ratio(e.peak_kv_bytes, traced.engine_kv_bytes), "fraction"},
      {"llm.peak_queue_depth", count(e.peak_queue_depth), "requests"},
      {"llm.peak_queue_age_s", e.peak_queue_age_s, "s"},
      {"llm.contention_p50_s", Median(replay.contention_s), "s"},
      {"llm.contention_p99_s", Quantile(replay.contention_s, 0.99), "s"},
      // runner / sim: what no timed layer accounts for
      {"other.share",
       1.0 - (vectordb_share + embed_share + profiler_share + core_share), "fraction"},
      {"trace.spans", static_cast<double>(tracer.spans().size()), "spans"},
      {"trace.serve_qps", traced_qps, "queries/s"},
      {"trace.untraced_serve_qps", untraced_qps, "queries/s"},
      {"trace.overhead_qps", traced_qps - untraced_qps, "queries/s"},
  };
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const Metrics& metrics) {
  std::string out = StrFormat("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                              "\"metrics\": {",
                              correct ? "true" : "false",
                              static_cast<unsigned long long>(attempted),
                              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    double v = std::isfinite(m.value) ? m.value : 0.0;
    out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                     m.name.c_str(), v, m.unit.c_str());
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
