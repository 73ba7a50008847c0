#include "perfbench/src/workloads.h"

#include "src/common/rng.h"

namespace perfbench {

using metis::RetrievalIndexOptions;
using metis::RunSpec;
using metis::SystemKind;
using metis::TenantClass;

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"flat_scan", "shared_reuse", "ingest_overload"};
  return names;
}

namespace {

// Exact flat scan over a corpus larger than the LLC; unshared prompts, so the
// KV-reuse machinery is bypassed.
Workload FlatScan() {
  Workload w;
  w.name = "flat_scan";
  RunSpec& s = w.spec;
  s.dataset = "musique";
  s.num_queries = 1000;
  s.arrival_rate = 10.0;
  s.system = SystemKind::kMetis;
  s.tenants = {TenantClass{"default", /*priority=*/0, /*deadline_s=*/2.5, /*rate_share=*/1.0}};
  w.substreams = 2;
  return w;
}

// 90% duplicates of 4 hot templates with cross-query prefix reuse and the
// e2e budget split on: the llm prefix-reuse and core co-scheduling paths.
Workload SharedReuse() {
  Workload w;
  w.name = "shared_reuse";
  RunSpec& s = w.spec;
  s.dataset = "kg_rag_finsec";
  s.num_queries = 1000;
  s.arrival_rate = 8.0;
  s.system = SystemKind::kMetis;
  s.retrieval.backend = RetrievalIndexOptions::Backend::kIvf;
  s.retrieval.nlist = 16;
  s.retrieval.nprobe = 4;
  s.scheduler.per_query_depth = true;
  s.shared_workload.hot_fraction = 0.9;
  s.shared_workload.num_hot = 4;
  s.scheduler.cross_query_prefix = true;
  s.scheduler.prefix_retention_s = 3.0;
  s.scheduler.e2e_budget_s = 6.0;
  s.tenants = {TenantClass{"default", /*priority=*/0, /*deadline_s=*/8.0, /*rate_share=*/1.0}};
  w.substreams = 8;
  return w;
}

// Reads beside writes past saturation: mutable IVF + BM25, routed hybrid
// retrieval, a live insert/delete stream and the overload ladder.
Workload IngestOverload() {
  Workload w;
  w.name = "ingest_overload";
  RunSpec& s = w.spec;
  s.dataset = "musique_hybrid";
  s.num_queries = 1000;
  s.arrival_rate = 64.0;
  s.system = SystemKind::kMetis;
  s.retrieval.backend = RetrievalIndexOptions::Backend::kIvf;
  s.retrieval.nlist = 16;
  s.retrieval.nprobe = 4;
  s.retrieval.mutable_index = true;
  s.retrieval.lexical = true;
  s.retrieval.mutation.memtable_rows = 128;
  s.retrieval.mutation.compact_segments = 4;
  s.retrieval.mutation.retrain_delta_fraction = 0.1;
  // bench_fig_overload's depth line, so ladder rung 1 (depth clamp) is live.
  s.scheduler.per_query_depth = true;
  s.scheduler.depth.base_probes = 4;
  s.scheduler.depth.probes_per_piece = 2;
  s.scheduler.depth.min_budget = 2;
  s.scheduler.depth.max_budget = 16;
  s.scheduler.depth.adaptive = false;
  s.scheduler.hybrid.enabled = true;
  // bench_fig_overload's three SLO classes.
  s.tenants = {
      TenantClass{"interactive", /*priority=*/2, /*deadline_s=*/3.5, /*rate_share=*/0.2},
      TenantClass{"standard", /*priority=*/1, /*deadline_s=*/7.0, /*rate_share=*/0.3},
      TenantClass{"besteffort", /*priority=*/0, /*deadline_s=*/14.0, /*rate_share=*/0.5},
  };
  s.overload.enabled = true;
  w.ingest_ops = 2000;
  w.ingest_insert_fraction = 0.75;
  w.substreams = 5;
  return w;
}

}  // namespace

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed, int num_queries) {
  Workload w;
  if (name == "flat_scan") {
    w = FlatScan();
  } else if (name == "shared_reuse") {
    w = SharedReuse();
  } else if (name == "ingest_overload") {
    w = IngestOverload();
  } else {
    return std::nullopt;
  }
  if (num_queries > 0) {
    w.ingest_ops = w.ingest_ops * num_queries / w.spec.num_queries;
    w.spec.num_queries = num_queries;
  }
  // The op stream spans the same simulated window as the query stream.
  if (w.ingest_ops > 0) {
    w.ingest_rate = w.spec.arrival_rate * w.ingest_ops / w.spec.num_queries;
  }
  w.spec.seed = seed;
  return w;
}

Workload Substream(const Workload& workload, int i) {
  Workload w = workload;
  if (i > 0) {
    uint64_t state = workload.spec.seed ^ (0x5B57EA11ull * static_cast<uint64_t>(i));
    w.spec.seed = metis::SplitMix64(state);
  }
  return w;
}

}  // namespace perfbench
