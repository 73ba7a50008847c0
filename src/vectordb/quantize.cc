// Quantizer training, encoding, and the quantized scan loops. Single
// definitions (see quantize.h): every structure that scores codes — static
// shards, IVF list shards, sealed segments, compacted segments — goes through
// the functions in this TU, so quantized distances cannot depend on which
// structure a row currently lives in.

#include "src/vectordb/quantize.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/vectordb/kernels.h"

namespace metis {

namespace {

constexpr size_t kSqStrideBytes = 64;  // Code-row alignment, one cache line.

// Squared L2 between two float spans, sequential double accumulation. Cold
// paths only (training, ADC table build uses the strict kernel instead).
double SeqSquaredDist(const float* a, const float* b, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return acc;
}

}  // namespace

size_t SqCodeStride(size_t dim) {
  return (dim + kSqStrideBytes - 1) / kSqStrideBytes * kSqStrideBytes;
}

// --- Training ----------------------------------------------------------------

Int8Params TrainInt8(const RowAccessor& row, size_t n, size_t dim) {
  Int8Params params;
  if (n == 0) {
    return params;
  }
  std::vector<float> vmin(dim, std::numeric_limits<float>::max());
  std::vector<float> vmax(dim, std::numeric_limits<float>::lowest());
  for (size_t i = 0; i < n; ++i) {
    const float* r = row(i);
    for (size_t d = 0; d < dim; ++d) {
      vmin[d] = std::min(vmin[d], r[d]);
      vmax[d] = std::max(vmax[d], r[d]);
    }
  }
  params.vmin = std::move(vmin);
  params.scale.resize(dim);
  for (size_t d = 0; d < dim; ++d) {
    float range = vmax[d] - params.vmin[d];
    params.scale[d] = range > 0 ? range / 255.0f : 0.0f;
  }
  return params;
}

PqParams TrainPq(const RowAccessor& row, size_t n, size_t dim, const QuantizationOptions& opts,
                 uint64_t seed) {
  PqParams params;
  if (n == 0) {
    return params;
  }
  size_t m = std::max<size_t>(1, std::min(opts.pq_m, dim));
  while (dim % m != 0) {
    --m;
  }
  size_t dsub = dim / m;

  // Deterministic strided sample: row indices 0, step, 2*step, ...
  size_t cap = std::max<size_t>(1, opts.pq_train_rows);
  size_t step = (n + cap - 1) / cap;
  std::vector<size_t> sample;
  for (size_t i = 0; i < n; i += step) {
    sample.push_back(i);
  }
  size_t ns = sample.size();
  size_t nc = std::min<size_t>(256, ns);

  params.m = m;
  params.dsub = dsub;
  params.ncentroids = nc;
  params.centroids.assign(m * nc * dsub, 0.0f);

  std::vector<float> cent(nc * dsub);
  std::vector<float> nearest_d(ns);
  std::vector<size_t> assign(ns);
  for (size_t s = 0; s < m; ++s) {
    size_t off = s * dsub;
    auto sub = [&](size_t si) { return row(sample[si]) + off; };
    // Farthest-point seeding (the IvfL2Index::Train recipe, per subspace).
    Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (s + 1)));
    size_t seed_i = rng.Index(ns);
    std::copy(sub(seed_i), sub(seed_i) + dsub, cent.begin());
    std::fill(nearest_d.begin(), nearest_d.end(), std::numeric_limits<float>::max());
    size_t seeded = 1;
    auto absorb = [&](size_t c) {
      const float* cv = cent.data() + c * dsub;
      for (size_t si = 0; si < ns; ++si) {
        float d = static_cast<float>(SeqSquaredDist(sub(si), cv, dsub));
        nearest_d[si] = std::min(nearest_d[si], d);
      }
    };
    absorb(0);
    while (seeded < nc) {
      size_t best_i = 0;
      float best_d = -1;
      for (size_t si = 0; si < ns; ++si) {
        if (nearest_d[si] > best_d) {
          best_d = nearest_d[si];
          best_i = si;
        }
      }
      std::copy(sub(best_i), sub(best_i) + dsub, cent.begin() + seeded * dsub);
      absorb(seeded);
      ++seeded;
    }
    // Lloyd rounds: serial, in sample order — deterministic.
    for (size_t round = 0; round < std::max<size_t>(1, opts.pq_train_iters); ++round) {
      for (size_t si = 0; si < ns; ++si) {
        size_t best_c = 0;
        double best_d = std::numeric_limits<double>::max();
        for (size_t c = 0; c < nc; ++c) {
          double d = SeqSquaredDist(sub(si), cent.data() + c * dsub, dsub);
          if (d < best_d) {
            best_d = d;
            best_c = c;
          }
        }
        assign[si] = best_c;
      }
      std::vector<double> sums(nc * dsub, 0.0);
      std::vector<size_t> counts(nc, 0);
      for (size_t si = 0; si < ns; ++si) {
        const float* v = sub(si);
        double* sum = sums.data() + assign[si] * dsub;
        for (size_t d = 0; d < dsub; ++d) {
          sum[d] += v[d];
        }
        ++counts[assign[si]];
      }
      for (size_t c = 0; c < nc; ++c) {
        if (counts[c] > 0) {
          for (size_t d = 0; d < dsub; ++d) {
            cent[c * dsub + d] =
                static_cast<float>(sums[c * dsub + d] / static_cast<double>(counts[c]));
          }
        }
      }
    }
    std::copy(cent.begin(), cent.begin() + nc * dsub,
              params.centroids.begin() + s * nc * dsub);
  }
  return params;
}

IndexQuantizers TrainQuantizers(const RowAccessor& row, size_t n, size_t dim,
                                const QuantizationOptions& opts, uint64_t seed) {
  IndexQuantizers qz;
  if (opts.sq) {
    qz.sq = TrainInt8(row, n, dim);
  }
  if (opts.pq) {
    qz.pq = TrainPq(row, n, dim, opts, seed);
  }
  return qz;
}

// --- Encoding ----------------------------------------------------------------

void EncodeRows(const IndexQuantizers& qz, const RowPool& pool, size_t begin, size_t end,
                QuantizedCodes* out) {
  size_t dim = pool.dim();
  if (qz.sq.valid()) {
    METIS_CHECK_EQ(qz.sq.vmin.size(), dim);
    size_t stride = SqCodeStride(dim);
    if (out->rows == 0) {
      out->sq_stride = stride;
    }
    METIS_CHECK_EQ(out->sq_stride, stride);
    for (size_t i = begin; i < end; ++i) {
      const float* r = pool.row(i);
      size_t base = out->sq.size();
      out->sq.resize(base + stride, 0);
      double row_const = 0.0;
      for (size_t d = 0; d < dim; ++d) {
        float scale = qz.sq.scale[d];
        uint8_t code = 0;
        if (scale > 0) {
          float t = (r[d] - qz.sq.vmin[d]) / scale;
          t = std::min(255.0f, std::max(0.0f, std::nearbyint(t)));
          code = static_cast<uint8_t>(t);
        }
        out->sq[base + d] = code;
        double rec = static_cast<double>(scale) * static_cast<double>(code);
        row_const += rec * rec;
      }
      out->sq_row_const.push_back(row_const);
    }
  }
  if (qz.pq.valid()) {
    size_t m = qz.pq.m;
    size_t dsub = qz.pq.dsub;
    size_t nc = qz.pq.ncentroids;
    METIS_CHECK_EQ(m * dsub, dim);
    for (size_t i = begin; i < end; ++i) {
      const float* r = pool.row(i);
      for (size_t s = 0; s < m; ++s) {
        const float* sub = r + s * dsub;
        const float* cents = qz.pq.centroids.data() + s * nc * dsub;
        size_t best_c = 0;
        double best_d = std::numeric_limits<double>::max();
        for (size_t c = 0; c < nc; ++c) {
          double d = SeqSquaredDist(sub, cents + c * dsub, dsub);
          if (d < best_d) {
            best_d = d;
            best_c = c;
          }
        }
        out->pq.push_back(static_cast<uint8_t>(best_c));
      }
    }
  }
  out->rows += end - begin;
}

// --- Per-query contexts ------------------------------------------------------

void BuildSqQuery(const Int8Params& sq, const float* q, size_t dim, SqQuery* out) {
  size_t stride = SqCodeStride(dim);
  out->w.assign(stride, 0.0f);
  std::vector<float> r(dim);
  for (size_t d = 0; d < dim; ++d) {
    r[d] = q[d] - sq.vmin[d];
    out->w[d] = r[d] * sq.scale[d];
  }
  // Exact-kernel accumulation: tier-invariant, like every stored norm.
  out->r2 = SquaredNormBlocked(r.data(), dim);
}

void BuildPqQuery(const PqParams& pq, const float* q, size_t dim, PqQuery* out) {
  METIS_CHECK_EQ(pq.m * pq.dsub, dim);
  size_t nc = pq.ncentroids;
  out->table.resize(pq.m * nc);
  std::vector<float> diff(pq.dsub);
  for (size_t s = 0; s < pq.m; ++s) {
    const float* sub = q + s * pq.dsub;
    const float* cents = pq.centroids.data() + s * nc * pq.dsub;
    for (size_t c = 0; c < nc; ++c) {
      const float* cv = cents + c * pq.dsub;
      for (size_t d = 0; d < pq.dsub; ++d) {
        diff[d] = sub[d] - cv[d];
      }
      // Strict kernel: the table entry is bit-identical on every tier.
      out->table[s * nc + c] = static_cast<float>(SquaredNormBlocked(diff.data(), pq.dsub));
    }
  }
}

// --- Candidate scans ---------------------------------------------------------

namespace {

// SQ tier: asymmetric distance over code rows (see the header comment).
void ScanSqRows(const QuantizedCodes& codes, size_t code_lo, const RowPool& pool, size_t begin,
                size_t end, const SqQuery& sq, const size_t* orders, size_t base,
                const IdFilter& exclude, BoundedTopK& out) {
  U8DotKernelFn dot = ActiveU8DotKernel();
  size_t dim = pool.dim();
  size_t stride = codes.sq_stride;
  bool filtered = !exclude.empty();
  for (size_t i = begin; i < end; ++i) {
    if (filtered && exclude.contains(pool.id(i))) {
      continue;
    }
    size_t ci = code_lo + (i - begin);
    float s = dot(codes.sq.data() + ci * stride, sq.w.data(), dim);
    float d = static_cast<float>(sq.r2 - 2.0 * static_cast<double>(s) + codes.sq_row_const[ci]);
    if (d < 0.0f) {
      d = 0.0f;  // Same clamp rule as the exact decomposition.
    }
    out.Offer(d, base + orders[i], pool.id(i), &pool, static_cast<uint32_t>(i));
  }
}

// PQ tier: ADC table lookups.
void ScanPqRows(const QuantizedCodes& codes, size_t code_lo, const RowPool& pool, size_t begin,
                size_t end, const PqQuery& pq, size_t pq_m, const size_t* orders, size_t base,
                const IdFilter& exclude, BoundedTopK& out) {
  size_t nc = pq.table.size() / pq_m;
  bool filtered = !exclude.empty();
  for (size_t i = begin; i < end; ++i) {
    if (filtered && exclude.contains(pool.id(i))) {
      continue;
    }
    const uint8_t* c = codes.pq.data() + (code_lo + (i - begin)) * pq_m;
    float d = 0.0f;
    for (size_t s = 0; s < pq_m; ++s) {
      d += pq.table[s * nc + c[s]];  // Sequential adds: deterministic.
    }
    out.Offer(d, base + orders[i], pool.id(i), &pool, static_cast<uint32_t>(i));
  }
}

}  // namespace

CandidateScanner::CandidateScanner(RetrievalPrecision tier, const IndexQuantizers* qz,
                                   const float* q, size_t dim)
    : tier_(tier), q_(q), qnorm_(SquaredNormBlocked(q, dim)) {
  if (tier_ == RetrievalPrecision::kInt8) {
    BuildSqQuery(qz->sq, q, dim, &sq_);
  } else if (tier_ == RetrievalPrecision::kPq) {
    BuildPqQuery(qz->pq, q, dim, &pq_);
    pq_m_ = qz->pq.m;
  }
}

void CandidateScanner::Scan(const QuantizedCodes* codes, size_t code_lo, const RowPool& pool,
                            size_t begin, size_t end, const size_t* orders, size_t base,
                            const IdFilter& exclude, BoundedTopK& out) const {
  size_t enc = begin;  // Rows [begin, enc) have code rows.
  if (codes != nullptr && tier_ != RetrievalPrecision::kFp32 && codes->rows > code_lo) {
    enc = begin + std::min(end - begin, codes->rows - code_lo);
  }
  if (enc > begin && tier_ == RetrievalPrecision::kInt8) {
    ScanSqRows(*codes, code_lo, pool, begin, enc, sq_, orders, base, exclude, out);
  } else if (enc > begin) {
    ScanPqRows(*codes, code_lo, pool, begin, enc, pq_, pq_m_, orders, base, exclude, out);
  }
  ScanRowsInto(pool, enc, end, q_, qnorm_, orders, base, exclude, out);
}

// --- Rerank tail -------------------------------------------------------------

void RerankCandidates(std::vector<QuantCand>& cands, const float* q, double qnorm, size_t k) {
  for (QuantCand& c : cands) {
    if (c.pool != nullptr) {
      c.dist = ExactRowDistance(*c.pool, c.row, q, qnorm);
    }
  }
  std::sort(cands.begin(), cands.end(), CandLess);
  if (cands.size() > k) {
    cands.resize(k);
  }
}

std::vector<SearchHit> RerankToHits(std::vector<QuantCand> cands, const float* q, double qnorm,
                                    size_t k) {
  RerankCandidates(cands, q, qnorm, k);
  std::vector<SearchHit> hits;
  hits.reserve(cands.size());
  for (const QuantCand& c : cands) {
    hits.push_back(SearchHit{c.id, c.dist});
  }
  return hits;
}

}  // namespace metis
