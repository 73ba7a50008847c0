// BM25 lexical index lifecycle (src/vectordb/lexical_index.h): seeded
// Add/Remove interleavings across shard x memtable x compaction x pool
// layouts must return hits bit-identical to a fresh single-shard build over
// the live set; a removal-free build follows the closed-form seal/compaction
// schedule; zero-token documents survive every lifecycle step; and through
// VectorDatabase, live inserts/deletes on a mutable IVF + BM25 database serve
// the lexical and fused routes exactly as a fresh database over the live set.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/text/tokenizer.h"
#include "src/vectordb/lexical_index.h"
#include "src/vectordb/vectordb.h"

namespace metis {
namespace {

const std::vector<std::string>& Words() {
  static const std::vector<std::string> words = {
      "alpha",  "bravo",   "charlie", "delta",  "echo",    "foxtrot", "golf",   "hotel",
      "india",  "juliet",  "kilo",    "lima",   "mike",    "november", "oscar", "papa",
      "quebec", "romeo",   "sierra",  "tango",  "uniform", "victor",  "whiskey", "xray",
      "yankee", "glacier", "treaty",  "census", "orbit",   "voltage"};
  return words;
}

// Seeded chunk text: 0-12 tokens over a skewed vocabulary (low indices are
// common, so df and tf both vary), with case and punctuation noise the
// tokenizer strips. About one text in twelve has no tokens at all.
std::string RandomText(Rng& rng) {
  if (rng.Bernoulli(1.0 / 12.0)) {
    return rng.Bernoulli(0.5) ? "?!" : "... ,;";
  }
  int n = static_cast<int>(rng.UniformInt(1, 12));
  std::string text;
  for (int i = 0; i < n; ++i) {
    size_t a = rng.Index(Words().size());
    size_t b = rng.Index(Words().size());
    std::string word = Words()[std::min(a, b)];
    if (rng.Bernoulli(0.1)) word[0] = static_cast<char>(word[0] - 'a' + 'A');
    if (rng.Bernoulli(0.1)) word += ",";
    if (!text.empty()) text += ' ';
    text += word;
  }
  return text;
}

void ExpectSameHits(const std::vector<SearchHit>& got, const std::vector<SearchHit>& want,
                    const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << context << " rank " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << context << " rank " << i;
  }
}

// Live documents in insertion order.
using LiveSet = std::vector<std::pair<ChunkId, std::string>>;

std::unique_ptr<LexicalIndex> FreshBuild(const LiveSet& live) {
  auto fresh = std::make_unique<LexicalIndex>(/*num_shards=*/1, /*memtable_rows=*/1 << 20,
                                              /*compact_segments=*/8);
  for (const auto& [id, text] : live) {
    fresh->Add(id, text);
  }
  return fresh;
}

// Compares `index` against a fresh build of `live` over queries of known,
// unknown, dead and empty terms at k below and above the live-set size,
// with and without an exclusion set.
void ExpectMatchesFresh(const LexicalIndex& index, const LiveSet& live, ThreadPool* pool,
                        const std::string& context) {
  ASSERT_EQ(index.num_docs(), live.size()) << context;
  std::unique_ptr<LexicalIndex> fresh = FreshBuild(live);
  std::vector<ChunkId> excluded;
  for (size_t i = 0; i < live.size(); i += 3) {
    excluded.push_back(live[i].first);
  }
  std::sort(excluded.begin(), excluded.end());
  IdFilter exclude{excluded.data(), excluded.data() + excluded.size()};
  std::vector<std::string> queries = {
      "alpha bravo charlie", "Delta, echo! alpha", "glacier treaty census orbit voltage",
      "zephyr",              "zephyr alpha",       "unknownterm nothere",
      "?!",                  "golf golf hotel",    "yankee xray whiskey victor"};
  // Every word at once: a doc's score then sums many terms, so its bits pin
  // the (string-sorted) order the terms accumulate in.
  std::string all_words;
  for (auto w = Words().rbegin(); w != Words().rend(); ++w) {
    all_words += *w + " ";
  }
  queries.push_back(all_words);
  for (const std::string& q : queries) {
    for (size_t k : {size_t{5}, size_t{1000}}) {
      std::string what = context + " q='" + q + "' k=" + std::to_string(k);
      ExpectSameHits(index.Search(q, k, {}, pool), fresh->Search(q, k), what);
      ExpectSameHits(index.Search(q, k, exclude, pool), fresh->Search(q, k, exclude),
                     what + " excluded");
    }
  }
}

// --- Zero-token documents ---------------------------------------------------

TEST(LexicalZeroTokenTest, RemovingSealedZeroTokenDocDoesNotAbort) {
  LexicalIndex lex(/*num_shards=*/1, /*memtable_rows=*/2, /*compact_segments=*/8);
  lex.Add(0, "?!");
  lex.Add(1, "alpha beta");  // Fills the memtable: both docs seal.
  EXPECT_EQ(lex.stats().seals, 1u);
  EXPECT_EQ(lex.memtable_docs(), 0u);
  EXPECT_TRUE(lex.Remove(0));
  EXPECT_FALSE(lex.Remove(0));
  EXPECT_EQ(lex.num_docs(), 1u);
  EXPECT_EQ(lex.memtable_docs(), 0u);
  ExpectSameHits(lex.Search("alpha", 10), FreshBuild({{1, "alpha beta"}})->Search("alpha", 10),
                 "after removing the zero-token doc");
}

TEST(LexicalZeroTokenTest, RemovingSealedZeroTokenDocKeepsMemtableCount) {
  LexicalIndex lex(/*num_shards=*/1, /*memtable_rows=*/2, /*compact_segments=*/8);
  lex.Add(0, "?!");
  lex.Add(1, "alpha");  // Seal 1 takes docs 0 and 1.
  lex.Add(2, "beta");
  EXPECT_TRUE(lex.Remove(0));
  EXPECT_EQ(lex.memtable_docs(), 1u);  // Doc 2 is still in the memtable.
  lex.Add(3, "gamma");                 // Memtable full again: seal 2.
  EXPECT_EQ(lex.stats().seals, 2u);
  EXPECT_EQ(lex.memtable_docs(), 0u);
  LiveSet live = {{1, "alpha"}, {2, "beta"}, {3, "gamma"}};
  ExpectSameHits(lex.Search("alpha beta gamma", 10),
                 FreshBuild(live)->Search("alpha beta gamma", 10), "after the second seal");
}

TEST(LexicalZeroTokenTest, MemtableOfOnlyZeroTokenDocsSealsNothing) {
  LexicalIndex lex(/*num_shards=*/1, /*memtable_rows=*/2, /*compact_segments=*/2);
  lex.Add(0, "?!");
  lex.Add(1, "... ,;");  // Memtable full but holds no postings: no segment.
  EXPECT_EQ(lex.stats().seals, 0u);
  EXPECT_EQ(lex.num_segments(), 0u);
  EXPECT_EQ(lex.memtable_docs(), 0u);
  EXPECT_TRUE(lex.Remove(1));
  EXPECT_EQ(lex.num_docs(), 1u);
  EXPECT_TRUE(lex.Search("alpha", 10).empty());
  lex.Add(2, "alpha");
  EXPECT_TRUE(lex.Remove(0));
  EXPECT_EQ(lex.memtable_docs(), 1u);
  ExpectSameHits(lex.Search("alpha", 10), FreshBuild({{2, "alpha"}})->Search("alpha", 10),
                 "after removing both zero-token docs");
}

// --- Seeded lifecycle property ----------------------------------------------

TEST(LexicalLifecyclePropertyTest, InterleavedAddRemoveMatchesFreshBuildOverLiveSet) {
  ThreadPool pool4(4);
  uint64_t total_seals = 0, total_compactions = 0;
  for (size_t shards : {size_t{1}, size_t{4}}) {
    for (size_t memtable_rows : {size_t{1}, size_t{3}, size_t{16}}) {
      for (size_t compact : {size_t{2}, size_t{4}}) {
        for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool4}) {
          std::string config = "shards=" + std::to_string(shards) +
                               " memtable=" + std::to_string(memtable_rows) +
                               " compact=" + std::to_string(compact) +
                               (pool != nullptr ? " pool=4" : " pool=none");
          LexicalIndex index(shards, memtable_rows, compact);
          Rng rng(0x1E71CA1 + shards * 100 + memtable_rows * 10 + compact);
          LiveSet live;
          ChunkId next_id = 7;
          const ChunkId zephyr_first = 5000, zephyr_second = 5001;
          for (int step = 0; step < 300; ++step) {
            if (step == 10) {
              // The only "zephyr" doc: its df drops to 0 at step 120 and the
              // term comes back with a new doc at step 200.
              index.Add(zephyr_first, "zephyr alpha");
              live.emplace_back(zephyr_first, "zephyr alpha");
            } else if (step == 120) {
              ASSERT_TRUE(index.Remove(zephyr_first)) << config;
              live.erase(std::find_if(live.begin(), live.end(),
                                      [&](const auto& d) { return d.first == zephyr_first; }));
            } else if (step == 200) {
              index.Add(zephyr_second, "Zephyr zephyr bravo");
              live.emplace_back(zephyr_second, "Zephyr zephyr bravo");
            } else if (live.size() < 4 || rng.Bernoulli(0.65)) {
              std::string text = RandomText(rng);
              index.Add(next_id, text);
              live.emplace_back(next_id, std::move(text));
              next_id += 3;  // Sparse ids: shard placement is not a stride.
            } else {
              size_t victim = rng.Index(live.size());
              ChunkId id = live[victim].first;
              if (id != zephyr_first && id != zephyr_second) {
                ASSERT_TRUE(index.Remove(id)) << config;
                EXPECT_FALSE(index.Remove(id)) << config;
                live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
              }
            }
            if (step % 20 == 19) {
              ExpectMatchesFresh(index, live, pool, config + " step " + std::to_string(step));
              EXPECT_LT(index.memtable_docs(), memtable_rows * shards) << config;
            }
          }
          ExpectMatchesFresh(index, live, pool, config + " end");
          EXPECT_FALSE(index.Search("zephyr", 10, {}, pool).empty()) << config;
          total_seals += index.stats().seals;
          total_compactions += index.stats().compactions;
          if (memtable_rows == 1) {
            EXPECT_GT(index.stats().compactions, 0u) << config;
          }
        }
      }
    }
  }
  EXPECT_GT(total_seals, 0u);
  EXPECT_GT(total_compactions, 0u);
}

// --- Closed-form lifecycle of a removal-free build --------------------------

uint64_t ClosedFormCompactions(uint64_t seals, uint64_t c) {
  return seals < c ? 0 : 1 + (seals - c) / (c - 1);
}

uint64_t ClosedFormSegments(uint64_t seals, uint64_t c) {
  return seals < c ? seals : 1 + (seals - c) % (c - 1);
}

TEST(LexicalLifecyclePropertyTest, RemovalFreeBuildFollowsClosedForm) {
  // The benchmark corpus shape: 11,733 docs at memtable 128 / compact 4 is
  // 91 seals and 30 compactions on one shard.
  {
    LexicalIndex index(/*num_shards=*/1, /*memtable_rows=*/128, /*compact_segments=*/4);
    for (ChunkId id = 0; id < 11733; ++id) {
      index.Add(id, Words()[static_cast<size_t>(id) % Words().size()] + " orbit");
    }
    EXPECT_EQ(index.stats().seals, 91u);
    EXPECT_EQ(index.stats().compactions, 30u);
    EXPECT_EQ(index.num_segments(), 1u);
    EXPECT_EQ(index.memtable_docs(), 11733u - 91u * 128u);
  }
  Rng rng(0xC105ED);
  for (size_t shards : {size_t{1}, size_t{4}}) {
    for (size_t memtable_rows : {size_t{1}, size_t{3}, size_t{16}}) {
      for (size_t compact : {size_t{2}, size_t{4}}) {
        LexicalIndex index(shards, memtable_rows, compact);
        std::vector<uint64_t> per_shard(shards, 0);
        for (ChunkId id = 0; id < 400; ++id) {
          std::string text = RandomText(rng);
          if (Tokenize(text).empty()) {
            text = "alpha";  // A memtable of only zero-token docs does not seal.
          }
          index.Add(id, text);
          ++per_shard[ShardOfId(id, shards)];
        }
        uint64_t seals = 0, compactions = 0, segments = 0, memtable = 0;
        for (uint64_t n : per_shard) {
          uint64_t s = n / memtable_rows;
          seals += s;
          compactions += ClosedFormCompactions(s, compact);
          segments += ClosedFormSegments(s, compact);
          memtable += n % memtable_rows;
        }
        std::string config = "shards=" + std::to_string(shards) +
                             " memtable=" + std::to_string(memtable_rows) +
                             " compact=" + std::to_string(compact);
        EXPECT_EQ(index.stats().seals, seals) << config;
        EXPECT_EQ(index.stats().compactions, compactions) << config;
        EXPECT_EQ(index.num_segments(), segments) << config;
        EXPECT_EQ(index.memtable_docs(), memtable) << config;
      }
    }
  }
}

// --- Live mutation through VectorDatabase -----------------------------------

constexpr size_t kNlist = 8;

// Chunks with a unique tag token repeated a random number of times, so
// chunks sharing query terms rarely share a dense distance (see
// ExpectDenseTieFree).
std::vector<Chunk> RandomChunks(Rng& rng, size_t n) {
  std::vector<Chunk> chunks(n);
  for (size_t i = 0; i < n; ++i) {
    chunks[i].doc_id = static_cast<int32_t>(i / 2);
    chunks[i].text = RandomText(rng);
    std::string tag = " tag" + std::to_string(rng.NextU64());
    for (size_t r = 1 + rng.Index(64); r > 0; --r) {
      chunks[i].text += tag;
    }
    chunks[i].section = static_cast<int32_t>(i % 2);
  }
  return chunks;
}

std::unique_ptr<VectorDatabase> MakeLiveDb(size_t shards) {
  RetrievalIndexOptions options;
  options.backend = RetrievalIndexOptions::Backend::kIvf;
  options.nlist = kNlist;
  options.nprobe = 3;
  options.shards = shards;
  options.lexical = true;
  options.mutable_index = true;
  options.mutation.memtable_rows = 8;
  options.mutation.compact_segments = 2;
  return std::make_unique<VectorDatabase>(
      EmbeddingModel(GetEmbeddingModel("cohere-embed-v3-sim")),
      DatabaseMetadata{"lexical live corpus", 64, "test"}, options);
}

RetrievalQuality LexicalOnly() {
  RetrievalQuality q;
  q.hybrid = true;
  q.dense_weight = 0.0f;
  q.lexical_weight = 1.0f;
  return q;
}

// Fused, probing every list so the dense leg is exact on both lifecycles.
RetrievalQuality Fused(bool filtered) {
  RetrievalQuality q;
  q.hybrid = true;
  q.dense_weight = 0.5f;
  q.lexical_weight = 0.5f;
  q.mode = RetrievalQuality::ProbeMode::kFixed;
  q.nprobe = kNlist;
  if (filtered) {
    q.filter.section = 0;
  }
  return q;
}

// Equal dense distances rank in IVF list order, which depends on the trained
// centroids and so differs between a churned and a fresh build; every chunk
// orthogonal to a query ties with the others. Fused queries therefore use
// common terms at depths where the exact dense ranking is tie-free.
void ExpectDenseTieFree(const VectorDatabase& db, const std::string& q, size_t k,
                        RetrievalQuality quality) {
  quality.hybrid = false;
  std::vector<SearchHit> hits = db.RetrieveWithDistances(q, k + 1, quality);
  for (size_t i = 1; i < hits.size(); ++i) {
    ASSERT_LT(hits[i - 1].distance, hits[i].distance)
        << "dense tie in q='" << q << "' rank " << i;
  }
}

TEST(LexicalDatabaseTest, LiveInsertDeleteMatchesFreshDatabaseOverLiveSet) {
  const std::vector<std::string> lexical_queries = {
      "alpha bravo charlie", "delta echo foxtrot golf", "glacier treaty census",
      "unknownterm",         "?!",                      "hotel india juliet kilo"};
  const std::vector<std::string> fused_queries = {"alpha bravo charlie", "alpha delta echo",
                                                  "alpha bravo delta"};
  for (size_t shards : {size_t{1}, size_t{4}}) {
    ThreadPool pool(4);
    Rng rng(0xDB5EED + shards);
    auto db = MakeLiveDb(shards);
    std::vector<ChunkId> live_ids = db->AddChunks(RandomChunks(rng, 60), &pool);
    db->FinalizeIndex(&pool);
    for (int round = 0; round < 12; ++round) {
      std::vector<ChunkId> added = db->InsertChunks(RandomChunks(rng, 7), &pool);
      live_ids.insert(live_ids.end(), added.begin(), added.end());
      std::vector<ChunkId> victims;
      for (int d = 0; d < 4; ++d) {
        size_t victim = rng.Index(live_ids.size());
        victims.push_back(live_ids[victim]);
        live_ids.erase(live_ids.begin() + static_cast<std::ptrdiff_t>(victim));
      }
      EXPECT_EQ(db->DeleteChunks(victims), victims.size());
    }
    ASSERT_GT(db->lexical_index()->stats().compactions, 0u);

    // Fresh database over the live set in insertion order: fresh id i is
    // the i-th live chunk.
    auto fresh = MakeLiveDb(shards);
    std::vector<Chunk> live_chunks;
    std::unordered_map<ChunkId, ChunkId> to_fresh;
    for (ChunkId id : live_ids) {
      to_fresh[id] = static_cast<ChunkId>(live_chunks.size());
      live_chunks.push_back(db->chunk(id));
    }
    fresh->AddChunks(std::move(live_chunks));
    fresh->FinalizeIndex();

    auto expect_route = [&](const std::string& q, size_t k, const RetrievalQuality& quality,
                            const std::string& route) {
      std::vector<SearchHit> got = db->RetrieveWithDistances(q, k, quality);
      for (SearchHit& h : got) {
        ASSERT_EQ(to_fresh.count(h.id), 1u) << "dead chunk " << h.id << " served";
        h.id = to_fresh[h.id];
      }
      ExpectSameHits(got, fresh->RetrieveWithDistances(q, k, quality),
                     "shards=" + std::to_string(shards) + " " + route + " q='" + q +
                         "' k=" + std::to_string(k));
    };
    for (const std::string& q : lexical_queries) {
      for (size_t k : {size_t{10}, size_t{500}}) {
        expect_route(q, k, LexicalOnly(), "lexical");
      }
    }
    for (bool filtered : {false, true}) {
      for (const std::string& q : fused_queries) {
        ExpectDenseTieFree(*fresh, q, 5, Fused(filtered));
        expect_route(q, 5, Fused(filtered), filtered ? "fused+filter" : "fused");
      }
    }
  }
}

TEST(LexicalDatabaseTest, PooledAndSerialAddChunksMatchOneByOneAdd) {
  ThreadPool pool(4);
  Rng rng(0xADDC);
  // More than one 1,024-chunk analysis block.
  std::vector<Chunk> corpus = RandomChunks(rng, 1100);
  std::vector<Chunk> inserts = RandomChunks(rng, 40);
  auto serial = MakeLiveDb(/*shards=*/4);
  auto pooled = MakeLiveDb(/*shards=*/4);
  serial->AddChunks(corpus);
  pooled->AddChunks(corpus, &pool);
  serial->FinalizeIndex();
  pooled->FinalizeIndex(&pool);
  serial->InsertChunks(inserts);
  pooled->InsertChunks(inserts, &pool);
  // AddChunks numbers chunks 0, 1, ... in order.
  LexicalIndex direct(/*num_shards=*/4, /*memtable_rows=*/8, /*compact_segments=*/2);
  ChunkId next_id = 0;
  for (const std::vector<Chunk>* batch : {&corpus, &inserts}) {
    for (const Chunk& c : *batch) {
      direct.Add(next_id++, c.text);
    }
  }

  for (const VectorDatabase* db : {serial.get(), pooled.get()}) {
    const LexicalIndex& got = *db->lexical_index();
    std::string which = db == serial.get() ? "serial" : "pooled";
    EXPECT_EQ(got.stats().seals, direct.stats().seals) << which;
    EXPECT_EQ(got.stats().compactions, direct.stats().compactions) << which;
    EXPECT_EQ(got.num_segments(), direct.num_segments()) << which;
    EXPECT_EQ(got.memtable_docs(), direct.memtable_docs()) << which;
    for (const char* q : {"alpha bravo charlie", "delta echo foxtrot golf", "glacier orbit"}) {
      ExpectSameHits(got.Search(q, 50), direct.Search(q, 50), which + " q='" + q + "'");
    }
  }
}

}  // namespace
}  // namespace metis
