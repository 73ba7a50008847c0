// The benchmark's named workloads: each is a fixed RunSpec plus the seed the
// benchmark was given, and (for ingest_overload) the shape of the live
// insert/delete stream the benchmark itself generates.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/runner/runner.h"

namespace perfbench {

struct Workload {
  std::string name;
  // Fixed parts of the workload's definition: the corpus and its query set,
  // and the randomness of the simulated models (LLM behaviour, engine,
  // profiler), as a deployment has one document collection and one set of
  // model weights. The benchmark's seed, spec.seed, drives the traffic: arrival
  // times, tenant draws, which slots repeat the hot templates, and the live op
  // stream. (Seeding the corpus and models too would make shared_reuse's four
  // hot templates, and with them every sim-clock metric, swing from seed to
  // seed.)
  uint64_t corpus_seed = 42;
  // spec.ingest stays disabled: RunExperiment would regenerate a private
  // dataset inside the call for an ingesting spec, so the benchmark assembles
  // the stack itself and owns the op stream (IngestOp, serve.h).
  metis::RunSpec spec;
  // A timed run serves this many streams, each with its own traffic seed
  // (SubstreamSeed), and reports each sim-clock metric as the median over
  // them: one stream's tail percentiles swing with its arrival bursts.
  int substreams = 1;
  int ingest_ops = 0;
  double ingest_insert_fraction = 0.75;
  double ingest_rate = 0;  // Ops per simulated second.
};

// "flat_scan", "shared_reuse", "ingest_overload".
const std::vector<std::string>& WorkloadNames();

// The named workload at `seed`. `num_queries` > 0 shrinks the query stream
// (and the ingest stream in proportion, keeping its simulated window) for
// smoke tests. nullopt for an unknown name.
std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed, int num_queries = 0);

// The workload with sub-stream i's traffic seed: i == 0 keeps the
// benchmark's seed; later sub-streams draw decorrelated seeds from it.
Workload Substream(const Workload& workload, int i);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
