// Quantized index tiers: int8 scalar quantization (SQ) and product
// quantization (PQ), with an exact fp32 rerank tail.
//
// Both tiers are *mirrors*: the fp32 RowPool rows stay authoritative (and are
// what the rerank tail and the fp32 path read); the mirrors are narrower
// parallel code arrays the candidate-generation scan streams instead — 4x
// narrower for SQ (1 byte/dim), dim/m * 4x narrower for PQ (m bytes/row).
//
// Asymmetric distance contract (SQ). With per-dimension affine params
// (vmin[d], scale[d]) and codes c[d], the reconstructed row is
// vmin[d] + scale[d]*c[d], so with r[d] = q[d] - vmin[d]:
//
//     |q - x^|^2 = sum r[d]^2  -  2 * sum (r[d]*scale[d]) * c[d]
//                             +  sum (scale[d]*c[d])^2
//
// The first term and the weight vector w[d] = r[d]*scale[d] are per-query
// precomputes (O(dim), exact-kernel accumulation); the last term is a
// per-row constant computed once at encode time; the middle term is the hot
// loop — DotU8F32, the 16-chain widening kernel in kernels.h. The query side
// stays fp32 end to end: only the stored rows are quantized.
//
// Asymmetric distance contract (PQ). Per query, an ADC table holds the exact
// squared distance from the query's subvector s to every centroid c of
// subspace s; a row's approximate distance is the sum of its m table entries
// in subspace order (sequential float adds — deterministic).
//
// Rerank determinism rule. A quantized search over-fetches k * rerank_factor
// candidates under the (approx distance, order) total order — the same
// shard/thread/partition-invariant selection machinery as the exact path —
// then re-scores every candidate with the exact kernel and keeps the best k
// under (exact distance, order). For a fixed build and fixed (tier,
// rerank_factor) the result is therefore deterministic across shard counts,
// thread counts, and batching; and whenever the candidate set contains the
// true top-k, it is *identical* to the exact search result, distances and
// all. Candidates that enter the heap with an exact distance already
// (memtable rows, un-encoded suffixes, tiers without mirrors) pass through
// rerank untouched.
//
// Single-definition rule: the quantized scan loops live in quantize.cc only
// (mutable segments and static shards must score codes identically), and the
// exact re-scoring goes through ExactRowDistance, whose one definition lives
// in vectordb.cc next to ScanRowsInto for the same codegen-uniqueness reason
// (see topk.h).

#ifndef METIS_SRC_VECTORDB_QUANTIZE_H_
#define METIS_SRC_VECTORDB_QUANTIZE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/vectordb/topk.h"
#include "src/vectordb/vectordb.h"

namespace metis {

// Row accessor for training/encoding: returns the float row at index i of a
// corpus of n rows. Cold paths only.
using RowAccessor = std::function<const float*(size_t)>;

// SQ code-row stride: dim padded up to 64 bytes (one cache line), mirroring
// RowPool's 16-float stride. This is also the int8 tier's bytes/row.
size_t SqCodeStride(size_t dim);

// --- Training ----------------------------------------------------------------

// Per-dimension min/max affine params over the corpus. Constant dimensions
// get scale 0 (every code 0, zero reconstruction error).
Int8Params TrainInt8(const RowAccessor& row, size_t n, size_t dim);

// Deterministic per-subspace k-means (farthest-point seeding + Lloyd rounds,
// the IvfL2Index::Train recipe) over a strided sample of at most
// opts.pq_train_rows rows. opts.pq_m is clamped down to the nearest divisor
// of dim. ncentroids = min(256, sample size).
PqParams TrainPq(const RowAccessor& row, size_t n, size_t dim, const QuantizationOptions& opts,
                 uint64_t seed);

// Trains whichever quantizers `opts` enables (empty quantizers otherwise).
IndexQuantizers TrainQuantizers(const RowAccessor& row, size_t n, size_t dim,
                                const QuantizationOptions& opts, uint64_t seed);

// --- Encoding ----------------------------------------------------------------

// Appends code rows for pool rows [begin, end) to `out` (SQ and/or PQ,
// whichever params are valid). Pure per-row transform: encoding rows in any
// grouping yields identical codes, so static shards, sealed segments, and
// compacted segments all land in the same code space.
void EncodeRows(const IndexQuantizers& qz, const RowPool& pool, size_t begin, size_t end,
                QuantizedCodes* out);

// --- Per-query contexts ------------------------------------------------------

// SQ query precompute: w[d] = (q[d] - vmin[d]) * scale[d] plus the exact
// sum of (q[d] - vmin[d])^2 (strict-kernel accumulation).
struct SqQuery {
  std::vector<float, AlignedAllocator<float>> w;
  double r2 = 0.0;
};
void BuildSqQuery(const Int8Params& sq, const float* q, size_t dim, SqQuery* out);

// PQ query precompute: the ADC table, table[s * ncentroids + c] = squared
// distance from query subvector s to centroid (s, c). Built once per query
// by its CandidateScanner.
struct PqQuery {
  std::vector<float> table;
};
void BuildPqQuery(const PqParams& pq, const float* q, size_t dim, PqQuery* out);

// --- Candidate scans ---------------------------------------------------------

// One query's candidate scan on one tier: builds the SQ/PQ precompute once
// (nothing on the fp32 tier), then scores any number of row ranges into a
// BoundedTopK. Every candidate path — static flat and IVF shards, the
// mutable index's segments and memtable — scans through here, so encoded and
// exact rows share one rule and one codegen (quantize.cc).
class CandidateScanner {
 public:
  // `qz` must hold the tier's quantizer unless tier == kFp32 (see
  // ResolveTier).
  CandidateScanner(RetrievalPrecision tier, const IndexQuantizers* qz, const float* q, size_t dim);

  double qnorm() const { return qnorm_; }

  // Offers pool rows [begin, end) that survive `exclude` to `out`, with
  // candidate order base + orders[i]. Row i reads code row code_lo +
  // (i - begin) of `codes`: rows that code row exists for score on the
  // quantized tier; the rest (rows appended after the mirror was encoded),
  // and every row when `codes` is null or the tier is fp32, score exactly.
  void Scan(const QuantizedCodes* codes, size_t code_lo, const RowPool& pool, size_t begin,
            size_t end, const size_t* orders, size_t base, const IdFilter& exclude,
            BoundedTopK& out) const;

 private:
  RetrievalPrecision tier_;
  const float* q_;
  double qnorm_;
  size_t pq_m_ = 0;
  SqQuery sq_;
  PqQuery pq_;
};

// Exact fp32 distance of one pool row (the rerank tail's scorer); the one
// definition lives in vectordb.cc so it shares the scan loop's codegen.
float ExactRowDistance(const RowPool& pool, size_t row, const float* q, double qnorm);

// --- Rerank tail -------------------------------------------------------------

// Re-scores every candidate with pool != nullptr via ExactRowDistance, sorts
// by (exact distance, order), truncates to k. Candidates with pool == nullptr
// keep their (already exact) distance.
void RerankCandidates(std::vector<QuantCand>& cands, const float* q, double qnorm, size_t k);

// RerankCandidates, then strip to SearchHit form.
std::vector<SearchHit> RerankToHits(std::vector<QuantCand> cands, const float* q, double qnorm,
                                    size_t k);

// --- Tier resolution ---------------------------------------------------------

// The tier a query actually scans on: quality.precision downgraded to kFp32
// when `qz` is null or lacks the requested mirror. "Absent mirror" can only
// mean a more exact answer, never a wrong one.
inline RetrievalPrecision ResolveTier(const RetrievalQuality& quality, const IndexQuantizers* qz) {
  switch (quality.precision) {
    case RetrievalPrecision::kInt8:
      return (qz != nullptr && qz->sq.valid()) ? RetrievalPrecision::kInt8
                                               : RetrievalPrecision::kFp32;
    case RetrievalPrecision::kPq:
      return (qz != nullptr && qz->pq.valid()) ? RetrievalPrecision::kPq
                                               : RetrievalPrecision::kFp32;
    case RetrievalPrecision::kFp32:
      break;
  }
  return RetrievalPrecision::kFp32;
}

}  // namespace metis

#endif  // METIS_SRC_VECTORDB_QUANTIZE_H_
