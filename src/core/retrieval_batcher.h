// Retrieval coalescing for the serving stack.
//
// Every synthesis pipeline starts with a vector-index lookup that is modeled
// at a fixed latency (SynthesisExecutor::kRetrievalSeconds). When several
// queued queries reach that stage at the same simulated instant — burst
// arrivals, golden-config feedback fan-out — each used to run its own full
// index scan. The batcher collects all requests that fall due at the same
// tick and answers them with ONE VectorDatabase::RetrieveBatch sweep, so the
// index streams through memory once for the whole group.
//
// Timing-neutral by construction: every request keeps its OWN simulator
// event, scheduled at Submit time for exactly `delay_seconds` later — the
// identical (time, sequence) slot the seed's per-query ScheduleAfter would
// have used, so even events interleaved at the same instant by other
// components fire in the same order. Only the index sweep is shared: the
// first delivery of a same-tick group runs one RetrieveBatch for the whole
// group and the remaining deliveries drain the precomputed results.
//
// On a live-mutable serving index the shared sweep also fixes the snapshot:
// SearchBatch pins ONE epoch for the whole call, so a coalesced group can
// never straddle a concurrent insert/delete/compaction — every answer in
// the group reflects the same live set (src/vectordb/mutable_index.h).

#ifndef METIS_SRC_CORE_RETRIEVAL_BATCHER_H_
#define METIS_SRC_CORE_RETRIEVAL_BATCHER_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/vectordb/vectordb.h"

namespace metis {

class RetrievalBatcher {
 public:
  using Callback = std::function<void(std::vector<ChunkId>)>;

  // `quality` is the default for requests submitted without their own (the
  // serving stack's per-run retrieval-depth knob, from
  // JointSchedulerOptions); the default-default leaves the database's own
  // index policy in charge. Probe selection depends only on the query (never
  // on k), so mixed-k groups stay prefix-consistent under any quality
  // setting.
  RetrievalBatcher(Simulator* sim, const VectorDatabase* db, double delay_seconds,
                   RetrievalQuality quality = {});

  // Requests the top-k chunks for `query_text`; `cb` runs in simulation
  // context exactly delay_seconds from now. The first form retrieves at the
  // batcher's default quality; the second carries a per-QUERY quality (the
  // profiler-driven depth), so one coalesced sweep can mix probe budgets —
  // results stay bit-identical to uncoalesced per-query scans either way
  // (the index resolves a probe plan per query; see SearchRequest::qualities
  // in src/vectordb/vectordb.h).
  void Submit(std::string query_text, size_t k, Callback cb);
  void Submit(std::string query_text, size_t k, const RetrievalQuality& quality, Callback cb);

  // --- Introspection (tests, benches) ---
  size_t requests() const { return requests_; }
  size_t batches_issued() const { return batches_; }
  size_t max_batch_size() const { return max_batch_; }

 private:
  void Deliver();

  Simulator* sim_;
  const VectorDatabase* db_;
  double delay_;
  RetrievalQuality quality_;

  struct Pending {
    std::string text;
    size_t k;
    RetrievalQuality quality;
    Callback cb;
    SimTime due;
  };
  // Ordered by due time (Submit is FIFO and due offsets are constant), and
  // aligned 1:1 with the per-request Deliver events in flight.
  std::deque<Pending> pending_;
  // Results precomputed by the first delivery of the current same-tick group,
  // drained front-to-front with pending_.
  std::deque<std::vector<ChunkId>> ready_;

  size_t requests_ = 0;
  size_t batches_ = 0;
  size_t max_batch_ = 0;
};

}  // namespace metis

#endif  // METIS_SRC_CORE_RETRIEVAL_BATCHER_H_
