#include "src/vectordb/vectordb.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <utility>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/vectordb/kernels.h"
#include "src/vectordb/lexical_index.h"
#include "src/vectordb/mutable_index.h"
#include "src/vectordb/quantize.h"
#include "src/vectordb/topk.h"

namespace metis {

// --- RowPool ----------------------------------------------------------------

namespace {

constexpr size_t kStrideFloats = 16;  // 64 bytes.

size_t PaddedStride(size_t dim) {
  return (dim + kStrideFloats - 1) / kStrideFloats * kStrideFloats;
}

}  // namespace

RowPool::RowPool(size_t dim) : dim_(dim), stride_(PaddedStride(dim)) {
  METIS_CHECK_GT(dim, 0u);
}

size_t ShardOfId(ChunkId id, size_t num_shards) {
  if (num_shards <= 1) {
    return 0;
  }
  uint64_t state = static_cast<uint64_t>(static_cast<uint32_t>(id));
  return static_cast<size_t>(SplitMix64(state) % num_shards);
}

void RowPool::Append(ChunkId id, const float* v) {
  size_t offset = data_.size();
  data_.resize(offset + stride_, 0.0f);
  std::memcpy(data_.data() + offset, v, dim_ * sizeof(float));
  norms_.push_back(SquaredNormBlocked(data_.data() + offset, dim_));
  ids_.push_back(id);
}

// --- Bounded top-k selection ------------------------------------------------
//
// BoundedTopK lives in topk.h (shared with quantize.cc and
// mutable_index.cc); the exact distance scan stays here so the hot-flags TU
// holds its only codegen.

namespace {

// Folds per-shard top-k heaps (heaps[start + i * stride] for i in
// [0, count)) into the global top-k. Each shard heap holds its shard's k
// best candidates under the shared (distance, order) total order — a
// superset of that shard's contribution to the global top-k — so offering
// them all into one fresh heap yields exactly the single-shard result.
std::vector<SearchHit> MergeShardTopK(std::vector<BoundedTopK>& heaps, size_t start,
                                      size_t stride, size_t count, size_t k) {
  if (count == 1) {
    return heaps[start].Drain();
  }
  BoundedTopK merged(k);
  for (size_t i = 0; i < count; ++i) {
    for (const QuantCand& c : heaps[start + i * stride].cands()) {
      merged.OfferCand(c);
    }
  }
  return merged.Drain();
}

// Scores pool rows [begin, end) against one query and offers them to `out`.
// Candidate order is `base` + orders[i]: every scanned pool is an IndexShard
// pool, whose parallel `orders` array carries the single-shard-equivalent
// order per row. The dispatched dot kernel is fetched once per scan, not
// once per row. Templated on filtering so the unfiltered path keeps exactly
// the loop it had before tombstones existed.
template <bool kFiltered>
void ScanRowsImpl(const RowPool& pool, size_t begin, size_t end, const float* q, double qnorm,
                  const size_t* orders, size_t base, const IdFilter& exclude, BoundedTopK& out) {
  size_t dim = pool.dim();
  DotKernelFn dot = ActiveDotKernel();
  for (size_t i = begin; i < end; ++i) {
    if (kFiltered && exclude.contains(pool.id(i))) {
      continue;
    }
    float d = static_cast<float>(pool.norm(i) + qnorm - 2.0 * dot(pool.row(i), q, dim));
    if (d < 0.0f) {
      d = 0.0f;  // Decomposition rounding can dip just below zero for rows
                 // within ~1e-7 of the query; a squared distance is never
                 // negative.
    }
    out.Offer(d, base + orders[i], pool.id(i));
  }
}

// Scans shard `shard` of every probed inverted list into `out` (IVF batch
// fan-out unit). `probe_lists`/`bases` come from IvfL2Index::PlanProbes.
void ScanProbedShard(const std::vector<std::vector<IndexShard>>& lists,
                     const std::vector<size_t>& probe_lists, const std::vector<size_t>& bases,
                     size_t shard, const float* q, double qnorm, const IdFilter& exclude,
                     BoundedTopK& out) {
  for (size_t p = 0; p < probe_lists.size(); ++p) {
    const IndexShard& sh = lists[probe_lists[p]][shard];
    ScanRowsInto(sh.rows, 0, sh.rows.size(), q, qnorm, sh.orders.data(), bases[p], exclude, out);
  }
}

// Rows per cache block for the shared batch sweep: ~128 KiB of row data, so a
// block stays L2-resident while every query in the batch scores it.
size_t BlockRows(size_t stride) {
  constexpr size_t kBlockFloats = 128 * 1024 / sizeof(float);
  return std::max<size_t>(1, kBlockFloats / stride);
}

}  // namespace

// The one definition of the exact scan (declared in topk.h; see there for
// why no other TU may grow its own copy).
void ScanRowsInto(const RowPool& pool, size_t begin, size_t end, const float* q, double qnorm,
                  const size_t* orders, size_t base, const IdFilter& exclude, BoundedTopK& out) {
  if (exclude.empty()) {
    ScanRowsImpl<false>(pool, begin, end, q, qnorm, orders, base, exclude, out);
  } else {
    ScanRowsImpl<true>(pool, begin, end, q, qnorm, orders, base, exclude, out);
  }
}

const char* RetrievalPrecisionName(RetrievalPrecision p) {
  switch (p) {
    case RetrievalPrecision::kFp32:
      return "fp32";
    case RetrievalPrecision::kInt8:
      return "int8";
    case RetrievalPrecision::kPq:
      return "pq";
  }
  return "unknown";
}

// The rerank tail's scorer (declared in quantize.h): the exact decomposition
// with the same combine and clamp as ScanRowsImpl, defined in this TU so the
// exact distance has a single codegen.
float ExactRowDistance(const RowPool& pool, size_t row, const float* q, double qnorm) {
  DotKernelFn dot = ActiveDotKernel();
  float d = static_cast<float>(pool.norm(row) + qnorm - 2.0 * dot(pool.row(row), q, pool.dim()));
  return d < 0.0f ? 0.0f : d;
}

// --- VectorIndex -------------------------------------------------------------

std::vector<SearchHit> VectorIndex::Search(const Embedding& query, size_t k,
                                           const RetrievalQuality& quality) const {
  return std::move(SearchBatch(SearchRequest{{query}, k, {quality}, {}})[0]);
}

void SearchRequest::Check(size_t dim) const {
  METIS_CHECK_EQ(qualities.size(), queries.size());
  for (const Embedding& q : queries) {
    METIS_CHECK_EQ(q.size(), dim);
  }
}

namespace {

// Splits a request's queries by the tier each is served on against `qz`:
// fp32 ones (the backend's shared sweep) and quantized ones (per-query
// fan-out through the candidate hook).
void SplitByTier(const SearchRequest& request, const IndexQuantizers* qz,
                 std::vector<size_t>* exact, std::vector<size_t>* quant) {
  for (size_t i = 0; i < request.queries.size(); ++i) {
    bool fp32 = ResolveTier(request.quality(i), qz) == RetrievalPrecision::kFp32;
    (fp32 ? exact : quant)->push_back(i);
  }
}

// Answers the quantized-tier queries `idx` of `request` one by one — an
// over-fetched candidate scan, then the exact rerank tail — fanned out
// across `pool` into disjoint result slots.
void SearchQuantized(const VectorIndex& index, const SearchRequest& request,
                     const std::vector<size_t>& idx, ThreadPool* pool,
                     std::vector<std::vector<SearchHit>>* results) {
  ParallelForOrInline(pool, idx.size(), [&](size_t b, size_t e) {
    for (size_t t = b; t < e; ++t) {
      const Embedding& q = request.queries[idx[t]];
      const RetrievalQuality& quality = request.qualities[idx[t]];
      size_t fetch = request.k * ResolveRerankFactor(quality);
      (*results)[idx[t]] =
          RerankToHits(index.SearchCandidates(q, fetch, quality, request.exclude), q.data(),
                       SquaredNormBlocked(q.data(), q.size()), request.k);
    }
  });
}

}  // namespace

// --- FlatL2Index ------------------------------------------------------------

FlatL2Index::FlatL2Index(size_t dim, size_t num_shards, QuantizationOptions quant) : dim_(dim) {
  METIS_CHECK_GT(dim, 0u);
  METIS_CHECK_GT(num_shards, 0u);
  qopts_ = quant;
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.emplace_back(dim);
  }
}

void FlatL2Index::Add(ChunkId id, const Embedding& v) {
  METIS_CHECK_EQ(v.size(), dim_);
  shards_[ShardOfId(id, shards_.size())].Append(id, v.data(), count_++);
}

std::vector<std::vector<SearchHit>> FlatL2Index::SearchBatch(const SearchRequest& request,
                                                             ThreadPool* pool) const {
  request.Check(dim_);
  std::vector<std::vector<SearchHit>> results(request.queries.size());
  size_t k = request.k;
  if (k == 0 || count_ == 0) {
    return results;
  }
  std::vector<size_t> exact;
  std::vector<size_t> quant;
  SplitByTier(request, quantizers(), &exact, &quant);

  // The fp32 queries share one sweep, bit-identical to the pre-quantization
  // index. Fan the (shard x query) grid out across the pool: one heap per
  // cell, so workers own disjoint slots and the merged result is independent
  // of the partitioning. Task ids are shard-major — a contiguous task range
  // covers consecutive queries of one shard before moving to the next — so
  // each worker still streams a shard's rows through the cache-sized blocks
  // once for all of its queries.
  size_t nq = exact.size();
  size_t nshards = shards_.size();
  std::vector<double> qnorms(nq);
  for (size_t j = 0; j < nq; ++j) {
    qnorms[j] = SquaredNormBlocked(request.queries[exact[j]].data(), dim_);
  }
  std::vector<BoundedTopK> heaps;
  heaps.reserve(nshards * nq);
  for (size_t i = 0; i < nshards * nq; ++i) {
    heaps.emplace_back(k);
  }
  ParallelForOrInline(pool, nshards * nq, [&](size_t tb, size_t te) {
    size_t t = tb;
    while (t < te) {
      size_t shard = t / nq;
      size_t run_end = std::min(te, (shard + 1) * nq);
      size_t qb = t - shard * nq;
      size_t qe = run_end - shard * nq;
      const IndexShard& sh = shards_[shard];
      size_t block = BlockRows(sh.rows.stride());
      for (size_t rb = 0; rb < sh.rows.size(); rb += block) {
        size_t re = std::min(rb + block, sh.rows.size());
        for (size_t j = qb; j < qe; ++j) {
          ScanRowsInto(sh.rows, rb, re, request.queries[exact[j]].data(), qnorms[j],
                       sh.orders.data(), 0, request.exclude, heaps[shard * nq + j]);
        }
      }
      t = run_end;
    }
  });
  for (size_t j = 0; j < nq; ++j) {
    results[exact[j]] = MergeShardTopK(heaps, /*start=*/j, /*stride=*/nq, nshards, k);
  }
  SearchQuantized(*this, request, quant, pool, &results);
  return results;
}

namespace {
// Quantizer training seed for backends without their own (the flat index);
// matches RetrievalIndexOptions::train_seed's default.
constexpr uint64_t kQuantTrainSeed = 17;
}  // namespace

bool FlatL2Index::BuildQuantizedMirrors() {
  if (!qopts_.any() || count_ == 0) {
    return false;
  }
  // Train over rows in global insertion order (shard.orders maps each shard
  // row back to its single-shard position), so the trained quantizers — and
  // therefore quantized rankings — are invariant to the shard count.
  std::vector<const float*> rows(count_, nullptr);
  for (const IndexShard& shard : shards_) {
    for (size_t i = 0; i < shard.rows.size(); ++i) {
      rows[shard.orders[i]] = shard.rows.row(i);
    }
  }
  auto accessor = [&rows](size_t i) { return rows[i]; };
  quantizers_ = TrainQuantizers(accessor, rows.size(), dim_, qopts_, kQuantTrainSeed);
  qcodes_.assign(shards_.size(), QuantizedCodes{});
  for (size_t s = 0; s < shards_.size(); ++s) {
    EncodeRows(quantizers_, shards_[s].rows, 0, shards_[s].rows.size(), &qcodes_[s]);
  }
  quantized_ = true;
  return true;
}

std::vector<QuantCand> FlatL2Index::SearchCandidates(const Embedding& query, size_t fetch_k,
                                                     const RetrievalQuality& quality,
                                                     const IdFilter& exclude) const {
  METIS_CHECK_EQ(query.size(), dim_);
  if (fetch_k == 0 || count_ == 0) {
    return {};
  }
  CandidateScanner scan(ResolveTier(quality, quantizers()), quantizers(), query.data(), dim_);
  BoundedTopK topk(fetch_k);
  for (size_t s = 0; s < shards_.size(); ++s) {
    const IndexShard& shard = shards_[s];
    scan.Scan(quantized_ ? &qcodes_[s] : nullptr, 0, shard.rows, 0, shard.rows.size(),
              shard.orders.data(), 0, exclude, topk);
  }
  return topk.DrainCands();
}

size_t FlatL2Index::bytes_per_row(RetrievalPrecision tier) const {
  switch (tier) {
    case RetrievalPrecision::kFp32:
      return PaddedStride(dim_) * sizeof(float);
    case RetrievalPrecision::kInt8:
      return quantized_ && quantizers_.sq.valid() ? SqCodeStride(dim_) : 0;
    case RetrievalPrecision::kPq:
      return quantized_ && quantizers_.pq.valid() ? quantizers_.pq.m : 0;
  }
  return 0;
}

// --- IvfL2Index -------------------------------------------------------------

IvfL2Index::IvfL2Index(size_t dim, size_t nlist, size_t nprobe, uint64_t seed, size_t num_shards,
                       QuantizationOptions quant)
    : dim_(dim),
      nlist_(nlist),
      nprobe_(std::min(nprobe, nlist)),
      seed_(seed),
      num_shards_(num_shards),
      centroids_(dim),
      staged_(dim) {
  METIS_CHECK_GT(dim, 0u);
  METIS_CHECK_GT(nlist, 0u);
  METIS_CHECK_GT(nprobe, 0u);
  METIS_CHECK_GT(num_shards, 0u);
  qopts_ = quant;
}

void IvfL2Index::Add(ChunkId id, const Embedding& v) {
  METIS_CHECK_EQ(v.size(), dim_);
  ++count_;
  if (!trained_) {
    staged_.Append(id, v.data());
    return;
  }
  size_t list = NearestCentroid(v.data());
  lists_[list][ShardOfId(id, num_shards_)].Append(id, v.data(), list_counts_[list]++);
}

double IvfL2Index::NearestCentroidDistance(const float* v) const {
  double vnorm = SquaredNormBlocked(v, dim_);
  DotKernelFn dot = ActiveDotKernel();
  float best_d = std::numeric_limits<float>::max();
  for (size_t c = 0; c < centroids_.size(); ++c) {
    float d = static_cast<float>(centroids_.norm(c) + vnorm - 2.0 * dot(centroids_.row(c), v, dim_));
    if (d < best_d) {
      best_d = d;
    }
  }
  return centroids_.size() == 0 ? 0.0 : std::max(0.0, static_cast<double>(best_d));
}

size_t IvfL2Index::NearestCentroid(const float* v) const {
  double vnorm = SquaredNormBlocked(v, dim_);
  DotKernelFn dot = ActiveDotKernel();
  size_t best = 0;
  float best_d = std::numeric_limits<float>::max();
  for (size_t c = 0; c < centroids_.size(); ++c) {
    float d = static_cast<float>(centroids_.norm(c) + vnorm - 2.0 * dot(centroids_.row(c), v, dim_));
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

void IvfL2Index::Train(ThreadPool* pool) {
  METIS_CHECK(!trained_);
  METIS_CHECK_GT(staged_.size(), 0u);
  size_t n = staged_.size();
  size_t nlist = std::min(nlist_, n);

  auto copy_row = [&](size_t i) {
    const float* r = staged_.row(i);
    return Embedding(r, r + dim_);
  };
  auto rebuild_centroids = [&](const std::vector<Embedding>& cents) {
    centroids_ = RowPool(dim_);
    for (size_t c = 0; c < cents.size(); ++c) {
      centroids_.Append(static_cast<ChunkId>(c), cents[c].data());
    }
  };

  // Farthest-point seeding from a deterministic stream (approximates
  // k-means++ well enough here). nearest_d[i] — the distance from row i to
  // its closest centroid so far — is maintained incrementally: appending a
  // centroid only needs one O(n * dim) sharded scan against that centroid,
  // instead of the seed's O(n * ncentroids * dim) rescan per pick. min() is
  // associative, so the incremental values (and the picks) are exact.
  Rng rng(seed_);
  std::vector<Embedding> cents;
  cents.push_back(copy_row(rng.Index(n)));
  std::vector<float> nearest_d(n, std::numeric_limits<float>::max());
  auto absorb_centroid = [&](const Embedding& c) {
    double cnorm = SquaredNormBlocked(c.data(), dim_);
    DotKernelFn dot = ActiveDotKernel();
    ParallelForOrInline(pool, n, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        float d = static_cast<float>(cnorm + staged_.norm(i) -
                                     2.0 * dot(staged_.row(i), c.data(), dim_));
        if (d < nearest_d[i]) {
          nearest_d[i] = d;
        }
      }
    });
  };
  absorb_centroid(cents.back());
  while (cents.size() < nlist) {
    size_t best_i = 0;
    float best_d = -1;
    for (size_t i = 0; i < n; ++i) {
      if (nearest_d[i] > best_d) {
        best_d = nearest_d[i];
        best_i = i;
      }
    }
    cents.push_back(copy_row(best_i));
    absorb_centroid(cents.back());
  }

  // Lloyd rounds. Assignment (the O(n * nlist * dim) part) shards across the
  // pool into a per-row slot; the float accumulation then runs serially in
  // row order so centroids are bit-identical for every pool size.
  std::vector<size_t> assign(n);
  auto assign_all = [&]() {
    ParallelForOrInline(pool, n, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        assign[i] = NearestCentroid(staged_.row(i));
      }
    });
  };
  for (int round = 0; round < 5; ++round) {
    rebuild_centroids(cents);
    assign_all();
    std::vector<Embedding> sums(cents.size(), Embedding(dim_, 0));
    std::vector<size_t> counts(cents.size(), 0);
    for (size_t i = 0; i < n; ++i) {
      const float* r = staged_.row(i);
      Embedding& sum = sums[assign[i]];
      for (size_t j = 0; j < dim_; ++j) {
        sum[j] += r[j];
      }
      ++counts[assign[i]];
    }
    for (size_t c = 0; c < cents.size(); ++c) {
      if (counts[c] > 0) {
        for (size_t j = 0; j < dim_; ++j) {
          cents[c][j] = sums[c][j] / static_cast<float>(counts[c]);
        }
      }
    }
  }

  rebuild_centroids(cents);
  assign_all();
  // Fill the hash-partitioned lists in staged (insertion) order: a row's
  // in-list order is the position it would have in a single-shard list, so
  // search results cannot depend on num_shards_.
  lists_.clear();
  lists_.reserve(cents.size());
  for (size_t c = 0; c < cents.size(); ++c) {
    std::vector<IndexShard> shards;
    shards.reserve(num_shards_);
    for (size_t s = 0; s < num_shards_; ++s) {
      shards.emplace_back(dim_);
    }
    lists_.push_back(std::move(shards));
  }
  list_counts_.assign(cents.size(), 0);
  for (size_t i = 0; i < n; ++i) {
    size_t list = assign[i];
    ChunkId id = staged_.id(i);
    lists_[list][ShardOfId(id, num_shards_)].Append(id, staged_.row(i), list_counts_[list]++);
  }
  // Train-time centroid fit: the reference point the mutable index compares
  // newly sealed rows against to detect centroid-quality decay.
  double assign_dist_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    assign_dist_sum += NearestCentroidDistance(staged_.row(i));
  }
  train_mean_assign_dist_ = assign_dist_sum / static_cast<double>(n);
  staged_ = RowPool(dim_);
  trained_ = true;
}

IvfL2Index::ProbePlan IvfL2Index::ResolveProbe(const RetrievalQuality& quality) const {
  ProbePlan plan;
  switch (quality.mode) {
    case RetrievalQuality::ProbeMode::kIndexDefault:
      plan.adaptive = adaptive_.enabled;
      break;
    case RetrievalQuality::ProbeMode::kFixed:
      plan.adaptive = false;
      break;
    case RetrievalQuality::ProbeMode::kAdaptive:
      plan.adaptive = true;
      break;
  }
  if (plan.adaptive) {
    plan.budget = quality.nprobe > 0      ? quality.nprobe
                  : adaptive_.max_probes > 0 ? adaptive_.max_probes
                                             : nprobe_;
    plan.min_probes = std::max<size_t>(1, std::min(adaptive_.min_probes, plan.budget));
    plan.ratio = adaptive_.distance_ratio;
  } else {
    plan.budget = quality.nprobe > 0 ? quality.nprobe : nprobe_;
    plan.min_probes = plan.budget;
  }
  return plan;
}

IvfL2Index::ProbeSet IvfL2Index::PlanProbes(const float* q, double qnorm,
                                            const ProbePlan& plan) const {
  // Rank lists by centroid distance; probe the closest lists. Ties resolve
  // toward the lower list index (pair comparison), as in the seed.
  std::vector<std::pair<float, size_t>> order;
  order.reserve(centroids_.size());
  DotKernelFn dot = ActiveDotKernel();
  for (size_t c = 0; c < centroids_.size(); ++c) {
    order.emplace_back(
        static_cast<float>(centroids_.norm(c) + qnorm - 2.0 * dot(centroids_.row(c), q, dim_)),
        c);
  }
  std::stable_sort(order.begin(), order.end());

  // Candidate-order bases run through the probed lists in probe order,
  // matching the seed's concatenate-then-stable-sort tie-break.
  ProbeSet set;
  size_t budget = std::min(plan.budget, order.size());
  // Adaptive early termination: once past min_probes, stop at the first list
  // whose centroid distance exceeds ratio x the closest centroid's distance.
  // Squared distances never go below zero (clamp guards decomposition
  // rounding), so a query sitting on a centroid (d0 == 0) stops right after
  // its mandatory probes.
  double cutoff = plan.adaptive && budget > 0
                      ? plan.ratio * std::max(0.0f, order[0].first)
                      : std::numeric_limits<double>::infinity();
  size_t base = 0;
  for (size_t p = 0; p < budget; ++p) {
    if (plan.adaptive && p >= plan.min_probes && static_cast<double>(order[p].first) > cutoff) {
      break;
    }
    set.lists.push_back(order[p].second);
    set.bases.push_back(base);
    base += list_counts_[order[p].second];
  }
  return set;
}

std::vector<uint64_t> IvfL2Index::probe_histogram() const {
  std::vector<uint64_t> hist(kProbeHistogramBuckets);
  for (size_t i = 0; i < hist.size(); ++i) {
    hist[i] = stats_.hist[i].load(std::memory_order_relaxed);
  }
  return hist;
}

std::vector<QuantCand> IvfL2Index::SearchCandidates(const Embedding& query, size_t fetch_k,
                                                    const RetrievalQuality& quality,
                                                    const IdFilter& exclude) const {
  METIS_CHECK(trained_);
  METIS_CHECK_EQ(query.size(), dim_);
  CandidateScanner scan(ResolveTier(quality, quantizers()), quantizers(), query.data(), dim_);
  // Probe planning stays fp32 on every tier, so a quantized query probes
  // exactly the lists its fp32 twin would (tier-invariant probe counts).
  ProbeSet probes = PlanProbes(query.data(), scan.qnorm(), ResolveProbe(quality));
  BoundedTopK topk(fetch_k);
  for (size_t shard = 0; shard < num_shards_; ++shard) {
    for (size_t p = 0; p < probes.lists.size(); ++p) {
      const IndexShard& sh = lists_[probes.lists[p]][shard];
      scan.Scan(quantized_ ? &qcodes_[probes.lists[p]][shard] : nullptr, 0, sh.rows, 0,
                sh.rows.size(), sh.orders.data(), probes.bases[p], exclude, topk);
    }
  }
  stats_.Record(probes.lists.size());
  return topk.DrainCands();
}

bool IvfL2Index::BuildQuantizedMirrors() {
  if (!qopts_.any() || !trained_ || count_ == 0) {
    return false;
  }
  // Train over rows in (list, in-list order) — both shard-invariant — so the
  // quantizers, and therefore quantized rankings, do not depend on the shard
  // count.
  std::vector<const float*> rows;
  rows.reserve(count_);
  for (size_t l = 0; l < lists_.size(); ++l) {
    std::vector<const float*> in_list(list_counts_[l], nullptr);
    for (const IndexShard& sh : lists_[l]) {
      for (size_t i = 0; i < sh.rows.size(); ++i) {
        in_list[sh.orders[i]] = sh.rows.row(i);
      }
    }
    rows.insert(rows.end(), in_list.begin(), in_list.end());
  }
  auto accessor = [&rows](size_t i) { return rows[i]; };
  quantizers_ = TrainQuantizers(accessor, rows.size(), dim_, qopts_, seed_);
  qcodes_.assign(lists_.size(), std::vector<QuantizedCodes>(num_shards_));
  for (size_t l = 0; l < lists_.size(); ++l) {
    for (size_t s = 0; s < num_shards_; ++s) {
      EncodeRows(quantizers_, lists_[l][s].rows, 0, lists_[l][s].rows.size(), &qcodes_[l][s]);
    }
  }
  quantized_ = true;
  return true;
}

size_t IvfL2Index::bytes_per_row(RetrievalPrecision tier) const {
  switch (tier) {
    case RetrievalPrecision::kFp32:
      return PaddedStride(dim_) * sizeof(float);
    case RetrievalPrecision::kInt8:
      return quantized_ && quantizers_.sq.valid() ? SqCodeStride(dim_) : 0;
    case RetrievalPrecision::kPq:
      return quantized_ && quantizers_.pq.valid() ? quantizers_.pq.m : 0;
  }
  return 0;
}

std::vector<std::vector<SearchHit>> IvfL2Index::SearchBatch(const SearchRequest& request,
                                                            ThreadPool* pool) const {
  METIS_CHECK(trained_);
  request.Check(dim_);
  std::vector<std::vector<SearchHit>> results(request.queries.size());
  size_t k = request.k;
  if (k == 0) {
    return results;  // Nothing to rank: no probe is planned, scanned or recorded.
  }
  std::vector<size_t> exact;
  std::vector<size_t> quant;
  SplitByTier(request, quantizers(), &exact, &quant);
  size_t nq = exact.size();
  size_t nshards = num_shards_;

  // The fp32 queries share a three-phase sweep. Phase 1 — plan: per-query
  // centroid ranking + adaptive rule, into disjoint slots (deterministic for
  // any partitioning). Each query resolves its OWN quality override, so a
  // coalesced group can mix probe modes and budgets; the probe count is
  // fixed here, before any row is scanned.
  std::vector<double> qnorms(nq);
  std::vector<ProbeSet> sets(nq);
  ParallelForOrInline(pool, nq, [&](size_t qb, size_t qe) {
    for (size_t j = qb; j < qe; ++j) {
      const float* q = request.queries[exact[j]].data();
      qnorms[j] = SquaredNormBlocked(q, dim_);
      sets[j] = PlanProbes(q, qnorms[j], ResolveProbe(request.qualities[exact[j]]));
    }
  });

  // Phase 2 — scan: fan the (query x shard) grid out across the pool, one
  // heap per cell.
  std::vector<BoundedTopK> heaps;
  heaps.reserve(nq * nshards);
  for (size_t i = 0; i < nq * nshards; ++i) {
    heaps.emplace_back(k);
  }
  ParallelForOrInline(pool, nq * nshards, [&](size_t tb, size_t te) {
    for (size_t t = tb; t < te; ++t) {
      size_t j = t / nshards;
      ScanProbedShard(lists_, sets[j].lists, sets[j].bases, t % nshards,
                      request.queries[exact[j]].data(), qnorms[j], request.exclude, heaps[t]);
    }
  });

  // Phase 3 — merge per query and fold the probe tally into the counters
  // after the barrier, on the calling thread.
  for (size_t j = 0; j < nq; ++j) {
    results[exact[j]] = MergeShardTopK(heaps, j * nshards, /*stride=*/1, nshards, k);
    stats_.Record(sets[j].lists.size());
  }
  // Quantized-tier queries fan out per query; each candidate scan records
  // its own probes.
  SearchQuantized(*this, request, quant, pool, &results);
  return results;
}

// --- VectorDatabase ---------------------------------------------------------

namespace {
// Query texts repeat across profiler probes, config sweeps, and feedback
// runs, but the working set per run is modest.
constexpr size_t kQueryCacheCapacity = 512;
}  // namespace

std::unique_ptr<VectorIndex> MakeBackendIndex(size_t dim, const RetrievalIndexOptions& options,
                                              IvfL2Index** ivf_out) {
  *ivf_out = nullptr;
  size_t shards = std::max<size_t>(1, options.shards);
  if (options.backend == RetrievalIndexOptions::Backend::kIvf) {
    auto ivf = std::make_unique<IvfL2Index>(dim, options.nlist, options.nprobe,
                                            options.train_seed, shards, options.quant);
    ivf->set_adaptive_probe(options.adaptive);
    *ivf_out = ivf.get();
    return ivf;
  }
  return std::make_unique<FlatL2Index>(dim, shards, options.quant);
}

VectorDatabase::VectorDatabase(EmbeddingModel embedder, DatabaseMetadata metadata,
                               RetrievalIndexOptions index_options)
    : embedder_(std::move(embedder)),
      metadata_(std::move(metadata)),
      index_options_(index_options),
      query_cache_(&embedder_, kQueryCacheCapacity) {
  // In the body, not the init list: the factory writes ivf_, whose own
  // default initializer would otherwise run afterwards and null it out again.
  if (index_options_.mutable_index) {
    auto mut = std::make_unique<MutableIndex>(embedder_.dim(), index_options_);
    mutable_ = mut.get();
    index_ = std::move(mut);
  } else {
    index_ = MakeBackendIndex(embedder_.dim(), index_options_, &ivf_);
  }
  if (index_options_.lexical) {
    lexical_ = std::make_unique<LexicalIndex>(std::max<size_t>(1, index_options_.shards),
                                              index_options_.mutation.memtable_rows,
                                              index_options_.mutation.compact_segments);
  }
}

// Out of line: LexicalIndex is incomplete in the header.
VectorDatabase::~VectorDatabase() = default;

const IvfL2Index* VectorDatabase::ivf_index() const {
  return mutable_ != nullptr ? mutable_->base_ivf() : ivf_;
}

ChunkId VectorDatabase::AddChunk(Chunk chunk) {
  chunk.id = static_cast<ChunkId>(chunks_.size());
  index_->Add(chunk.id, embedder_.Embed(chunk.text));
  if (lexical_ != nullptr) {
    lexical_->Add(chunk.id, chunk.text);
  }
  chunks_.push_back(std::move(chunk));
  deleted_.push_back(false);
  return chunks_.back().id;
}

std::vector<ChunkId> VectorDatabase::AddChunks(std::vector<Chunk> chunks, ThreadPool* pool) {
  // Embedding and lexical analysis (tokenize, sort, count) dominate bulk
  // load and each text is independent, so the batch shards across the pool;
  // indexing then runs serially in order, preserving AddChunk-for-AddChunk
  // identical ids, insertion orders and term ids.
  std::vector<std::string> texts;
  texts.reserve(chunks.size());
  for (const Chunk& c : chunks) {
    texts.push_back(c.text);
  }
  std::vector<Embedding> embeddings = embedder_.EmbedBatch(texts, pool);
  std::vector<ChunkId> ids;
  ids.reserve(chunks.size());
  // Lexical analysis runs a block at a time, so the analyzed terms of a whole
  // corpus are never resident at once.
  constexpr size_t kAnalyzeBlock = 1024;
  std::vector<LexicalIndex::AnalyzedDoc> analyzed;
  for (size_t block = 0; block < chunks.size(); block += kAnalyzeBlock) {
    size_t block_end = std::min(chunks.size(), block + kAnalyzeBlock);
    if (lexical_ != nullptr) {
      analyzed.assign(block_end - block, {});
      ParallelForOrInline(pool, analyzed.size(), [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          analyzed[i] = LexicalIndex::Analyze(texts[block + i]);
        }
      });
    }
    for (size_t i = block; i < block_end; ++i) {
      Chunk& chunk = chunks[i];
      chunk.id = static_cast<ChunkId>(chunks_.size());
      index_->Add(chunk.id, embeddings[i]);
      if (lexical_ != nullptr) {
        lexical_->AddAnalyzed(chunk.id, analyzed[i - block]);
      }
      chunks_.push_back(std::move(chunk));
      deleted_.push_back(false);
      ids.push_back(chunks_.back().id);
    }
  }
  return ids;
}

void VectorDatabase::FinalizeIndex(ThreadPool* pool) {
  if (mutable_ != nullptr) {
    mutable_->Finalize(pool);
    return;
  }
  if (ivf_ != nullptr && !ivf_->trained() && ivf_->size() > 0) {
    ivf_->Train(pool);
  }
  // Quantized mirrors (no-op unless index_options.quant enables a tier).
  index_->BuildQuantizedMirrors();
}

std::vector<ChunkId> VectorDatabase::InsertChunks(std::vector<Chunk> chunks, ThreadPool* pool) {
  METIS_CHECK(mutable_ != nullptr);
  // Post-finalize, index_->Add routes into the mutable index's memtable, so
  // the bulk-load path is exactly the streaming-insert path.
  return AddChunks(std::move(chunks), pool);
}

size_t VectorDatabase::DeleteChunks(const std::vector<ChunkId>& ids) {
  METIS_CHECK(mutable_ != nullptr);
  size_t deleted = 0;
  for (ChunkId id : ids) {
    METIS_CHECK_GE(id, 0);
    METIS_CHECK_LT(static_cast<size_t>(id), chunks_.size());
    if (deleted_[static_cast<size_t>(id)]) {
      continue;
    }
    METIS_CHECK(mutable_->Delete(id));
    if (lexical_ != nullptr) {
      METIS_CHECK(lexical_->Remove(id));
    }
    deleted_[static_cast<size_t>(id)] = true;
    ++deleted_count_;
    ++deleted;
  }
  return deleted;
}

bool VectorDatabase::chunk_live(ChunkId id) const {
  METIS_CHECK_GE(id, 0);
  METIS_CHECK_LT(static_cast<size_t>(id), chunks_.size());
  return !deleted_[static_cast<size_t>(id)];
}

namespace {

// Does this quality leave the pure-dense fast path? (The fast path must stay
// byte-for-byte the pre-hybrid code: parity when the knob is off.)
bool NeedsHybridPath(const RetrievalQuality& quality) {
  return quality.hybrid || quality.filter.active();
}

// Deterministic weighted reciprocal-rank fusion over the two backends'
// candidate lists (fixed backend order: dense, then lexical):
//
//     fused(d) = sum_b  w_b / (60 + rank_b(d) + 1)
//
// with ranks 0-based and the classic RRF damping constant 60. The final
// ranking runs under (fused score desc, chunk id asc) — a total order over
// deterministic inputs, so fusion is bit-stable for any shard/thread count.
// Returned distance = -fused score (lower = better, like both legs).
std::vector<SearchHit> FuseReciprocalRank(const std::vector<SearchHit>& dense, float dense_w,
                                          const std::vector<SearchHit>& lexical, float lexical_w,
                                          size_t k) {
  struct Fused {
    double score = 0;
    ChunkId id = -1;
  };
  std::vector<Fused> fused;
  std::unordered_map<ChunkId, size_t> slot;
  auto fold = [&](const std::vector<SearchHit>& hits, double w) {
    for (size_t rank = 0; rank < hits.size(); ++rank) {
      auto [it, inserted] = slot.try_emplace(hits[rank].id, fused.size());
      if (inserted) {
        fused.push_back(Fused{0.0, hits[rank].id});
      }
      fused[it->second].score += w / (60.0 + static_cast<double>(rank) + 1.0);
    }
  };
  fold(dense, static_cast<double>(dense_w));
  fold(lexical, static_cast<double>(lexical_w));
  std::sort(fused.begin(), fused.end(), [](const Fused& a, const Fused& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  });
  if (fused.size() > k) {
    fused.resize(k);
  }
  std::vector<SearchHit> out;
  out.reserve(fused.size());
  for (const Fused& f : fused) {
    out.push_back(SearchHit{f.id, -static_cast<float>(f.score)});
  }
  return out;
}

}  // namespace

std::shared_ptr<const std::vector<ChunkId>> VectorDatabase::CompileFilter(
    const MetadataFilter& filter) const {
  std::lock_guard<std::mutex> lock(filter_mu_);
  if (cached_filter_excluded_ != nullptr && cached_filter_ == filter &&
      cached_filter_chunks_ == chunks_.size() && cached_filter_deletes_ == deleted_count_) {
    return cached_filter_excluded_;
  }
  auto excluded = std::make_shared<std::vector<ChunkId>>();
  for (const Chunk& c : chunks_) {
    if (!filter.Matches(c)) {
      excluded->push_back(c.id);  // Ids are assigned in order: already sorted.
    }
  }
  cached_filter_ = filter;
  cached_filter_chunks_ = chunks_.size();
  cached_filter_deletes_ = deleted_count_;
  cached_filter_excluded_ = excluded;
  return excluded;
}

std::vector<SearchHit> VectorDatabase::RetrieveHybrid(const std::string& query_text, size_t k,
                                                      const RetrievalQuality& quality) const {
  // Compile the metadata filter into a sorted excluded-id set, pushed into
  // every backend's scan (inside the scan, before top-k — the tombstone rule).
  std::shared_ptr<const std::vector<ChunkId>> excluded;
  IdFilter exclude;
  if (quality.filter.active()) {
    excluded = CompileFilter(quality.filter);
    exclude = IdFilter{excluded->data(), excluded->data() + excluded->size()};
  }

  bool want_dense = !quality.hybrid || quality.dense_weight > 0;
  // The lexical leg needs a lexical index; without one the query serves
  // dense-only (the knob can only be cheaper, never wrong).
  bool want_lexical = quality.hybrid && quality.lexical_weight > 0 && lexical_ != nullptr;
  if (!want_dense && !want_lexical) {
    want_dense = true;  // Both weights zero: degenerate, serve dense.
  }

  std::vector<SearchHit> dense_hits;
  if (want_dense) {
    // A filtered request serves exact fp32 on every backend and lifecycle.
    SearchRequest request{{query_cache_.Get(query_text)}, k, {quality}, exclude};
    dense_hits = std::move(index_->SearchBatch(request)[0]);
    dense_searches_.fetch_add(1, std::memory_order_relaxed);
  }

  std::vector<SearchHit> lexical_hits;
  if (want_lexical) {
    lexical_hits = lexical_->Search(query_text, k, exclude, search_pool_);
    lexical_searches_.fetch_add(1, std::memory_order_relaxed);
  }

  if (!want_lexical) {
    return dense_hits;  // Filter-only or dense-only: the leg's native ranking.
  }
  if (!want_dense) {
    return lexical_hits;  // Lexical-only: BM25's native ranking.
  }
  fused_queries_.fetch_add(1, std::memory_order_relaxed);
  return FuseReciprocalRank(dense_hits, quality.dense_weight, lexical_hits,
                            quality.lexical_weight, k);
}

std::vector<SearchHit> VectorDatabase::RetrieveWithDistances(const std::string& query_text,
                                                             size_t k,
                                                             const RetrievalQuality& quality) const {
  if (NeedsHybridPath(quality)) {
    return RetrieveHybrid(query_text, k, quality);
  }
  return index_->Search(query_cache_.Get(query_text), k, quality);
}

std::vector<std::vector<SearchHit>> VectorDatabase::RetrieveBatch(
    const std::vector<std::string>& query_texts, size_t k,
    const std::vector<RetrievalQuality>& qualities) const {
  METIS_CHECK_EQ(qualities.size(), query_texts.size());
  // Hybrid/filtered queries run their per-query path; the plain remainder
  // rides one coalesced SearchBatch request.
  std::vector<std::vector<SearchHit>> results(query_texts.size());
  std::vector<size_t> plain;
  std::vector<std::string> texts;
  SearchRequest request;
  request.k = k;
  for (size_t i = 0; i < query_texts.size(); ++i) {
    if (NeedsHybridPath(qualities[i])) {
      results[i] = RetrieveHybrid(query_texts[i], k, qualities[i]);
    } else {
      plain.push_back(i);
      texts.push_back(query_texts[i]);
      request.qualities.push_back(qualities[i]);
    }
  }
  if (plain.empty()) {
    return results;
  }
  // GetBatch serves cache hits and embeds the misses in one EmbedBatch
  // (sharded across the search pool), returning owned copies so later cache
  // evictions cannot invalidate the batch.
  request.queries = query_cache_.GetBatch(texts, search_pool_);
  std::vector<std::vector<SearchHit>> swept = index_->SearchBatch(request, search_pool_);
  for (size_t j = 0; j < plain.size(); ++j) {
    results[plain[j]] = std::move(swept[j]);
  }
  return results;
}

HybridSearchStats VectorDatabase::hybrid_stats() const {
  HybridSearchStats out;
  out.dense_searches = dense_searches_.load(std::memory_order_relaxed);
  out.lexical_searches = lexical_searches_.load(std::memory_order_relaxed);
  out.fused_queries = fused_queries_.load(std::memory_order_relaxed);
  return out;
}

void VectorDatabase::ResetHybridStats() const {
  dense_searches_.store(0, std::memory_order_relaxed);
  lexical_searches_.store(0, std::memory_order_relaxed);
  fused_queries_.store(0, std::memory_order_relaxed);
  if (lexical_ != nullptr) {
    lexical_->ResetSearchStats();
  }
}

std::vector<ChunkId> VectorDatabase::Retrieve(const std::string& query_text, size_t k,
                                              const RetrievalQuality& quality) const {
  std::vector<ChunkId> ids;
  for (const SearchHit& hit : RetrieveWithDistances(query_text, k, quality)) {
    ids.push_back(hit.id);
  }
  return ids;
}

const Chunk& VectorDatabase::chunk(ChunkId id) const {
  METIS_CHECK_GE(id, 0);
  METIS_CHECK_LT(static_cast<size_t>(id), chunks_.size());
  return chunks_[static_cast<size_t>(id)];
}

}  // namespace metis
