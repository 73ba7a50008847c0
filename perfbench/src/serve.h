// Dataset set-up and one served stream, assembled from the repo's public
// classes the way RunExperiment assembles them (METIS system, open-loop
// arrivals), plus the benchmark's own live ingest stream.

#ifndef PERFBENCH_SRC_SERVE_H_
#define PERFBENCH_SRC_SERVE_H_

#include <memory>
#include <vector>

#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"
#include "src/runner/runner.h"
#include "src/vectordb/lexical_index.h"
#include "src/vectordb/mutable_index.h"

namespace perfbench {

// Generates, embeds and indexes the workload's dataset (plus BM25 where the
// spec enables it) from its seed, with no dataset cache in between.
std::unique_ptr<metis::Dataset> BuildDataset(const Workload& workload);

// One insert or delete of the live stream. Everything random is drawn when
// the stream is generated; a delete picks its victim at execution time as
// victim_u x (size of the then-deletable pool).
struct IngestOp {
  metis::SimTime time = 0;
  bool insert = true;
  std::string text;     // Insert: the new chunk's text.
  double victim_u = 0;  // Delete: uniform draw in [0, 1).
};

// The workload's op stream (empty when it has none), deterministic per seed.
std::vector<IngestOp> MakeIngestOps(const Workload& workload);

struct ServeResult {
  double wall_s = 0;  // Stack assembly + the whole simulated stream.
  size_t offered = 0;
  metis::SimTime first_arrival = 0;
  std::vector<metis::RagQuery> stream;      // As served (tenants, sharing, arrivals).
  std::vector<metis::QueryRecord> records;  // In completion order.
  metis::EngineStats engine;
  double engine_kv_bytes = 0;  // KV pool size.
  metis::HybridSearchStats hybrid;
  metis::LexicalIndexStats lexical;  // Zeros without a lexical index.
  double mean_probes = 0;            // IVF only.
  size_t live_rows_before = 0;
  size_t live_rows_after = 0;
  metis::MutableIndexStats index_before;  // Zeros without a mutable index.
  metis::MutableIndexStats index_after;
  uint64_t ops_issued = 0;
  uint64_t inserts_issued = 0;
  uint64_t deletes_issued = 0;
  uint64_t deletes_failed = 0;  // DeleteChunks that removed no row.
  // Traced serves only: the serve span and its children.
  int serve_span = -1;
};

// Serves the workload's query stream (and `ops`) on `dataset`, which must be
// freshly built: the stream mutates a mutable index. With a tracer, spans are
// recorded around every Accept and every ingest call, under one serve span.
ServeResult Serve(const Workload& workload, metis::Dataset& dataset,
                  const std::vector<IngestOp>& ops, Tracer* tracer = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SERVE_H_
