// What the benchmark derives from served streams: the sim-clock summary, the
// correctness checks, the replay that times each layer from outside, the
// per-layer metrics, and the result line.

#ifndef PERFBENCH_SRC_REPORT_H_
#define PERFBENCH_SRC_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/serve.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

// Sim-clock outcome of one served stream.
struct SimSummary {
  uint64_t offered = 0;
  uint64_t completed = 0;
  uint64_t rejected = 0;
  uint64_t in_deadline = 0;  // Completed within the query's class deadline.
  uint64_t beyond_p99 = 0;   // Completed with delay above the p99.
  double sim_duration = 0;   // First arrival to last completion (s).
  double p50_delay_s = 0;
  double p99_delay_s = 0;
  double mean_f1 = 0;
  double goodput_qps = 0;
  double slo_attainment = 0;
  double admitted_frac = 0;
  double gpu_s_per_query = 0;
};
SimSummary Summarize(const Workload& workload, const ServeResult& result);

// Every sim-clock value of a served stream, in order: repeats of one seed must
// produce exactly the same vector.
std::vector<double> SimFingerprint(const ServeResult& result);

// Correctness checks on one served stream; returns one message per failure.
// Checks inputs and work counts, never outcomes an optimisation may change.
std::vector<std::string> CheckServe(const Workload& workload, const std::vector<IngestOp>& ops,
                                    const ServeResult& result);

// Re-runs `samples` evenly spaced completed retrievals of a served stream and
// checks their outputs (hit count, live unique ids, distance order, dense
// distances against the embedder).
std::vector<std::string> SpotCheckRetrieval(const metis::Dataset& dataset,
                                            const ServeResult& served, size_t samples);

// Per-query replay of a traced serve, after it ended, on the same dataset.
struct Replay {
  std::vector<double> embed_s;     // Uncached EmbeddingModel::Embed per completed query.
  double embed_first_s = 0;        // Sum over the first occurrence of each text.
  uint64_t unique_texts = 0;
  std::vector<double> search_s;    // RetrieveWithDistances with the embedding memoised.
  double dense_rows = 0;           // Estimated dense rows scored, summed.
  std::vector<double> estimate_s;  // QueryProfiler::Estimate on a fresh profiler.
  std::vector<double> isolated_s;  // RunSingleQuery exec delay (sim s).
  std::vector<double> contention_s;  // Exec delay under load minus isolated.
  size_t dim = 0;
  std::vector<std::string> failures;  // Retrieval outputs that failed their checks.
};
Replay ReplayQueries(const Workload& workload, const metis::Dataset& dataset,
                     const ServeResult& served, Tracer& tracer);

// Wall time of the set-up stages, each timed on its own.
struct SetupLayers {
  std::vector<double> generate_s;  // DatasetGenerator::Generate, cold.
  double embed_corpus_s = 0;       // EmbeddingModel::EmbedBatch over the corpus texts.
  double lexical_build_s = 0;      // LexicalIndex::Add over the corpus (0 without BM25).
  size_t corpus_rows = 0;
};
SetupLayers TimeSetupLayers(const Workload& workload, const metis::Dataset& dataset);

// The sim-clock end-to-end metrics of one stream.
Metrics SimMetrics(const SimSummary& sim);
// Element-wise medians of same-shaped metric lists.
Metrics MedianMetrics(const std::vector<Metrics>& runs);

Metrics PerLayerMetrics(const Workload& workload, const ServeResult& traced, const Replay& replay,
                        const SetupLayers& setup, const Tracer& tracer, double untraced_serve_s);

// The result line: {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed, const Metrics& metrics);

double Median(std::vector<double> v);
double Quantile(std::vector<double> v, double q);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPORT_H_
