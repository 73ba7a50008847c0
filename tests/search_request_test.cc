// Property tests for the single search entry point,
// VectorIndex::SearchBatch(const SearchRequest&, ThreadPool*)
// (src/vectordb/vectordb.h), across every backend and index lifecycle.
//
// Contracts under test:
//
//   - k == 0: every backend x lifecycle returns one empty result per query
//     and records no search and no probe — through SearchBatch, the Search
//     wrapper, and VectorDatabase::RetrieveWithDistances (the "memoise the
//     query embedding without scanning" call).
//   - Cross-feature parity: over {flat, IVF} x {static, mutable after
//     insert/delete/seal/compact churn, churned then retrained} x requested
//     tier {fp32, int8, pq, mixed per query} x {no exclusion, metadata-filter
//     exclusion} x shards {1,4} x threads {1,4}, one batched request returns
//     ids, order AND distances bit-identical to a fresh single-shard static
//     build over the live set answering each query alone. A request with an
//     exclusion serves exact fp32 whatever tier it asks for, on both
//     lifecycles. IVF probe accounting matches the reference query for query,
//     and every index's fp32 SearchCandidates hook returns the same ranking.
//
// Reference qualities per lifecycle: the churned mutable index keeps its
// pre-churn base (centroids and quantizers trained on the initial corpus),
// so there the IVF probes every list and quantized tiers over-fetch the
// whole live set — both lifecycles must then return the exact ranking, with
// every quantized code path (base mirrors, segment codes, exact memtable,
// rerank) still exercised. The static and retrained lifecycles run a partial
// probe and the default over-fetch: their base is the reference build.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/vectordb/clustered_corpus.h"
#include "src/vectordb/mutable_index.h"
#include "src/vectordb/vectordb.h"

namespace metis {
namespace {

constexpr size_t kDim = 32;
constexpr size_t kTopK = 10;
constexpr size_t kNlist = 8;
constexpr size_t kPartialProbe = 3;

using Backend = RetrievalIndexOptions::Backend;
enum class Lifecycle { kStatic, kChurned, kRetrained };

const char* LifecycleName(Lifecycle l) {
  switch (l) {
    case Lifecycle::kStatic:
      return "static";
    case Lifecycle::kChurned:
      return "churned";
    case Lifecycle::kRetrained:
      return "retrained";
  }
  return "?";
}

void ExpectBitEqual(const std::vector<SearchHit>& got, const std::vector<SearchHit>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << what << " rank " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << what << " rank " << i;
  }
}

RetrievalIndexOptions Options(Backend backend, size_t shards, bool mutable_index) {
  RetrievalIndexOptions opts;
  opts.backend = backend;
  opts.shards = shards;
  opts.nlist = kNlist;
  opts.nprobe = kPartialProbe;
  opts.quant.sq = true;
  opts.quant.pq = true;
  opts.quant.pq_m = 8;
  opts.mutable_index = mutable_index;
  opts.mutation.memtable_rows = 32;
  // Compactions and retrains happen only where the test asks for one.
  opts.mutation.compact_segments = 100;
  opts.mutation.retrain_delta_fraction = 100.0;
  opts.mutation.retrain_distance_ratio = 1e9;
  return opts;
}

// The IVF probe counters behind an index (null for flat).
const IvfL2Index* IvfOf(const VectorIndex& index) {
  if (auto* m = dynamic_cast<const MutableIndex*>(&index)) {
    return m->base_ivf();
  }
  return dynamic_cast<const IvfL2Index*>(&index);
}

uint64_t Probes(const VectorIndex& index) {
  const IvfL2Index* ivf = IvfOf(index);
  return ivf == nullptr ? 0 : ivf->probes_issued();
}

uint64_t Searches(const VectorIndex& index) {
  const IvfL2Index* ivf = IvfOf(index);
  return ivf == nullptr ? 0 : ivf->searches();
}

// A fresh static index over `rows` (insertion order): trained and mirrored
// exactly as VectorDatabase::FinalizeIndex would.
std::unique_ptr<VectorIndex> FreshStatic(const RetrievalIndexOptions& opts,
                                         const std::vector<std::pair<ChunkId, Embedding>>& rows) {
  IvfL2Index* ivf = nullptr;
  std::unique_ptr<VectorIndex> index = MakeBackendIndex(kDim, opts, &ivf);
  for (const auto& [id, v] : rows) {
    index->Add(id, v);
  }
  if (ivf != nullptr) {
    ivf->Train();
  }
  index->BuildQuantizedMirrors();
  return index;
}

// The index under test plus the live set it ends up holding.
struct Built {
  std::unique_ptr<VectorIndex> index;
  std::vector<std::pair<ChunkId, Embedding>> live;
};

// Static: a plain build over the corpus. Mutable: the corpus as the initial
// bulk load, then rounds of cluster-jittered inserts and deletes (of base,
// segment and memtable rows alike) with a seal and a compaction in between,
// leaving a compacted segment, a sealed log-range segment, an open memtable
// and tombstones everywhere; kRetrained then folds it all into a new base.
Built Build(Backend backend, Lifecycle lifecycle, size_t shards, const ClusteredCorpus& corpus) {
  Built b;
  for (size_t i = 0; i < corpus.points.size(); ++i) {
    b.live.emplace_back(static_cast<ChunkId>(i), corpus.points[i]);
  }
  if (lifecycle == Lifecycle::kStatic) {
    b.index = FreshStatic(Options(backend, shards, false), b.live);
    return b;
  }
  auto m = std::make_unique<MutableIndex>(kDim, Options(backend, shards, true));
  for (const auto& [id, v] : b.live) {
    m->Add(id, v);
  }
  m->Finalize();
  Rng rng(0x5EA5C4);
  ChunkId next_id = static_cast<ChunkId>(corpus.points.size());
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 40; ++i) {
      Embedding v = Jitter(rng, corpus.centers[rng.Index(corpus.centers.size())], 0.35);
      m->Insert(next_id, v);
      b.live.emplace_back(next_id++, std::move(v));
      if (i % 5 == 2) {
        size_t victim = rng.Index(b.live.size());
        EXPECT_TRUE(m->Delete(b.live[victim].first)) << "victim " << victim;
        b.live.erase(b.live.begin() + static_cast<std::ptrdiff_t>(victim));
      }
    }
    if (round == 1) {
      m->CompactSegments();
    }
    if (round == 2) {
      m->SealMemtable();
    }
  }
  MutableIndexStats stats = m->stats();
  EXPECT_GT(stats.open_segments, 1u);
  EXPECT_GT(stats.memtable_rows, 0u);
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_EQ(stats.retrains, 0u);
  if (lifecycle == Lifecycle::kRetrained) {
    m->RetrainBase();
  }
  EXPECT_EQ(m->size(), b.live.size());
  b.index = std::move(m);
  return b;
}

RetrievalQuality QualityFor(Backend backend, Lifecycle lifecycle, RetrievalPrecision tier,
                            size_t live_rows) {
  RetrievalQuality q;
  q.precision = tier;
  if (backend == Backend::kIvf) {
    q.mode = RetrievalQuality::ProbeMode::kFixed;
    q.nprobe = lifecycle == Lifecycle::kChurned ? kNlist : kPartialProbe;
  }
  if (lifecycle == Lifecycle::kChurned) {
    q.rerank_factor = live_rows / kTopK + 1;  // Over-fetch covers the live set.
  }
  return q;
}

TEST(SearchRequestTest, ZeroKReturnsEmptyWithoutRecordingProbes) {
  ClusteredCorpus corpus = MakeClusteredCorpus(kDim, 8, 20, 3, 0, 0x0C0DE);
  std::vector<Embedding> queries = corpus.AllQueries();
  std::vector<ChunkId> excluded = {1, 4, 9};
  for (Backend backend : {Backend::kFlat, Backend::kIvf}) {
    for (Lifecycle lifecycle : {Lifecycle::kStatic, Lifecycle::kChurned}) {
      std::string ctx = std::string(backend == Backend::kIvf ? "ivf " : "flat ") +
                        LifecycleName(lifecycle);
      Built b = Build(backend, lifecycle, /*shards=*/2, corpus);
      const VectorIndex& index = *b.index;
      uint64_t searches = Searches(index);
      uint64_t probes = Probes(index);
      ThreadPool pool(2);
      auto expect_empty = [&](const std::vector<std::vector<SearchHit>>& results) {
        EXPECT_EQ(results.size(), queries.size()) << ctx;
        for (const auto& hits : results) {
          EXPECT_TRUE(hits.empty()) << ctx;
        }
      };
      for (RetrievalPrecision tier :
           {RetrievalPrecision::kFp32, RetrievalPrecision::kInt8, RetrievalPrecision::kPq}) {
        RetrievalQuality quality;
        quality.precision = tier;
        SearchRequest request = SearchRequest::Uniform(queries, 0, quality);
        expect_empty(index.SearchBatch(request, &pool));
        request.exclude = IdFilter{excluded.data(), excluded.data() + excluded.size()};
        expect_empty(index.SearchBatch(request));
        EXPECT_TRUE(index.Search(queries[0], 0, quality).empty()) << ctx;
      }
      EXPECT_EQ(Searches(index), searches) << ctx;
      EXPECT_EQ(Probes(index), probes) << ctx;
    }
  }
}

TEST(SearchRequestTest, ZeroKRetrievalMemoisesWithoutScanningOnStaticIvf) {
  // The embedding memo call (k = 0) on a static IVF database records no
  // search; the real retrieval after it records exactly one.
  RetrievalIndexOptions opts;
  opts.backend = Backend::kIvf;
  opts.nlist = 4;
  opts.nprobe = 4;
  VectorDatabase db(EmbeddingModel(GetEmbeddingModel("all-mpnet-base-v2-sim")),
                    DatabaseMetadata{"test corpus", 16, "test"}, opts);
  for (const char* t : {"quarterly revenue beat expectations", "the committee adjourned",
                        "rainfall broke the record", "chip capacity expanded",
                        "the championship drew a crowd", "the budget committee reconvened"}) {
    Chunk c;
    c.text = t;
    db.AddChunk(std::move(c));
  }
  db.FinalizeIndex();
  const IvfL2Index* ivf = db.ivf_index();
  ASSERT_NE(ivf, nullptr);
  EXPECT_TRUE(db.RetrieveWithDistances("revenue this quarter", 0).empty());
  EXPECT_EQ(ivf->searches(), 0u);
  EXPECT_EQ(ivf->probes_issued(), 0u);
  EXPECT_EQ(db.RetrieveWithDistances("revenue this quarter", 2).size(), 2u);
  EXPECT_EQ(ivf->searches(), 1u);
  EXPECT_EQ(ivf->probes_issued(), 4u);
}

TEST(SearchRequestTest, CrossFeatureGridMatchesFreshStaticBuild) {
  ClusteredCorpus corpus = MakeClusteredCorpus(kDim, 8, 30, 6, 4, 0xF1E1D);
  const std::vector<Embedding> queries = corpus.AllQueries();
  const std::vector<RetrievalPrecision> tiers = {
      RetrievalPrecision::kFp32, RetrievalPrecision::kInt8, RetrievalPrecision::kPq};

  for (Backend backend : {Backend::kFlat, Backend::kIvf}) {
    for (Lifecycle lifecycle : {Lifecycle::kStatic, Lifecycle::kChurned, Lifecycle::kRetrained}) {
      for (size_t shards : {size_t{1}, size_t{4}}) {
        Built b = Build(backend, lifecycle, shards, corpus);
        std::unique_ptr<VectorIndex> ref =
            FreshStatic(Options(backend, /*shards=*/1, false), b.live);
        // The metadata filter's compiled exclusion set: every third id ever
        // assigned (live, deleted and never-inserted ids alike), sorted.
        std::vector<ChunkId> excluded;
        for (ChunkId id = 1; id < static_cast<ChunkId>(b.live.back().first + 8); id += 3) {
          excluded.push_back(id);
        }
        IdFilter filter{excluded.data(), excluded.data() + excluded.size()};

        // Requested tiers: each tier uniformly, then all three mixed per query.
        for (size_t variant = 0; variant <= tiers.size(); ++variant) {
          for (bool filtered : {false, true}) {
            std::vector<RetrievalQuality> qualities;
            for (size_t qi = 0; qi < queries.size(); ++qi) {
              RetrievalPrecision tier = variant < tiers.size() ? tiers[variant] : tiers[qi % 3];
              qualities.push_back(QualityFor(backend, lifecycle, tier, b.live.size()));
              if (filtered) {
                // No over-fetch: were a quantized tier served, its
                // approximate candidate set would show in the results.
                qualities.back().rerank_factor = 1;
              }
            }
            std::string ctx = std::string(backend == Backend::kIvf ? "ivf " : "flat ") +
                              LifecycleName(lifecycle) + " shards=" + std::to_string(shards) +
                              " tier=" +
                              (variant < tiers.size() ? RetrievalPrecisionName(tiers[variant])
                                                      : "mixed") +
                              (filtered ? " filtered" : "");
            // Reference: each query alone on the fresh build. A filtered
            // request must serve exact fp32 whatever tier it asked for.
            std::vector<std::vector<SearchHit>> want;
            uint64_t ref_probes = Probes(*ref);
            for (size_t qi = 0; qi < queries.size(); ++qi) {
              RetrievalQuality quality = qualities[qi];
              if (filtered) {
                quality.precision = RetrievalPrecision::kFp32;
              }
              want.push_back(std::move(
                  ref->SearchBatch(SearchRequest{{queries[qi]}, kTopK, {quality},
                                                 filtered ? filter : IdFilter{}})[0]));
            }
            ref_probes = Probes(*ref) - ref_probes;

            for (size_t threads : {size_t{1}, size_t{4}}) {
              ThreadPool pool(threads);
              uint64_t probes = Probes(*b.index);
              std::vector<std::vector<SearchHit>> got = b.index->SearchBatch(
                  SearchRequest{queries, kTopK, qualities, filtered ? filter : IdFilter{}},
                  &pool);
              EXPECT_EQ(Probes(*b.index) - probes, ref_probes) << ctx;
              ASSERT_EQ(got.size(), queries.size()) << ctx;
              for (size_t qi = 0; qi < queries.size(); ++qi) {
                std::string where = ctx + " threads=" + std::to_string(threads) +
                                    " q=" + std::to_string(qi);
                ExpectBitEqual(got[qi], want[qi], where);
                ASSERT_EQ(got[qi].size(), kTopK) << where;
                for (const SearchHit& h : got[qi]) {
                  EXPECT_FALSE(filtered && filter.contains(h.id)) << where << " id " << h.id;
                }
              }
            }
            // The base-candidate hook on the fp32 tier: exact candidates in
            // (distance, order) order, i.e. the served ranking itself.
            for (size_t qi = 0; variant == 0 && qi < queries.size(); ++qi) {
              std::vector<SearchHit> hits;
              for (const QuantCand& c : b.index->SearchCandidates(
                       queries[qi], kTopK, qualities[qi], filtered ? filter : IdFilter{})) {
                EXPECT_EQ(c.pool, nullptr) << ctx;
                hits.push_back(SearchHit{c.id, c.dist});
              }
              ExpectBitEqual(hits, want[qi], ctx + " candidates q=" + std::to_string(qi));
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace metis
