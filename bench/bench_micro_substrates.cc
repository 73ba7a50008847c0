// google-benchmark microbenchmarks for the substrate libraries: embedding,
// vector search (flat vs IVF), BM25 build and search, tokenizer, F1 scoring,
// KV-cache allocation, and raw engine step throughput.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

#include "src/embed/embedding.h"
#include "src/llm/engine.h"
#include "src/llm/kv_cache.h"
#include "src/quality/f1.h"
#include "src/sim/simulator.h"
#include "src/text/tokenizer.h"
#include "src/text/vocabulary.h"
#include "src/vectordb/lexical_index.h"
#include "src/vectordb/vectordb.h"

namespace metis {
namespace {

std::string MakeText(size_t tokens, uint64_t seed) {
  Vocabulary vocab(seed, 1000);
  Rng rng(seed);
  return vocab.FillerSentence(rng, tokens);
}

void BM_Tokenize(benchmark::State& state) {
  std::string text = MakeText(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Tokenize(text));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Tokenize)->Arg(256)->Arg(1024);

void BM_Embed(benchmark::State& state) {
  EmbeddingModel model(GetEmbeddingModel("cohere-embed-v3-sim"));
  std::string text = MakeText(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Embed(text));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Embed)->Arg(256)->Arg(1024);

void BM_FlatSearch(benchmark::State& state) {
  EmbeddingModel model(GetEmbeddingModel("cohere-embed-v3-sim"));
  FlatL2Index index(model.dim());
  for (int i = 0; i < state.range(0); ++i) {
    index.Add(i, model.Embed(MakeText(64, static_cast<uint64_t>(i + 10))));
  }
  Embedding q = model.Embed("the quick query about revenue and schedules");
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Search(q, 10));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FlatSearch)->Arg(500)->Arg(2000);

void BM_IvfSearch(benchmark::State& state) {
  EmbeddingModel model(GetEmbeddingModel("cohere-embed-v3-sim"));
  IvfL2Index index(model.dim(), 16, 4, 7);
  for (int i = 0; i < state.range(0); ++i) {
    index.Add(i, model.Embed(MakeText(64, static_cast<uint64_t>(i + 10))));
  }
  index.Train();
  Embedding q = model.Embed("the quick query about revenue and schedules");
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Search(q, 10));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IvfSearch)->Arg(500)->Arg(2000);

// A Zipf-worded (s = 1.07, as Vocabulary::Sample) corpus of 128-token chunks
// over one 5,000-word vocabulary, sampled from a precomputed CDF.
std::vector<std::string> MakeLexicalCorpus(size_t n) {
  Vocabulary vocab(4, 5000);
  std::vector<double> cdf(vocab.size());
  double total = 0;
  for (size_t k = 0; k < cdf.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), 1.07);
    cdf[k] = total;
  }
  Rng rng(5);
  std::vector<std::string> texts(n);
  for (std::string& text : texts) {
    for (size_t t = 0; t < 128; ++t) {
      size_t k = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), rng.NextDouble() * total) - cdf.begin());
      if (t > 0) text += ' ';
      text += vocab.word(k);
    }
  }
  return texts;
}

// Serial BM25 bulk load at the benchmark's ingest lifecycle (memtable 128,
// compact at 4 segments): analysis, dictionary, seals and compactions.
void BM_LexicalBuild(benchmark::State& state) {
  std::vector<std::string> texts = MakeLexicalCorpus(static_cast<size_t>(state.range(0)));
  LexicalIndexStats stats;
  for (auto _ : state) {
    LexicalIndex index(/*num_shards=*/1, /*memtable_rows=*/128, /*compact_segments=*/4);
    for (size_t i = 0; i < texts.size(); ++i) {
      index.Add(static_cast<ChunkId>(i), texts[i]);
    }
    stats = index.stats();
    benchmark::DoNotOptimize(index.num_docs());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));  // docs/s
  state.counters["seals"] = static_cast<double>(stats.seals);
  state.counters["compactions"] = static_cast<double>(stats.compactions);
}
BENCHMARK(BM_LexicalBuild)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_LexicalSearch(benchmark::State& state) {
  std::vector<std::string> texts = MakeLexicalCorpus(static_cast<size_t>(state.range(0)));
  LexicalIndex index(/*num_shards=*/1, /*memtable_rows=*/128, /*compact_segments=*/4);
  for (size_t i = 0; i < texts.size(); ++i) {
    index.Add(static_cast<ChunkId>(i), texts[i]);
  }
  // Queries are chunk prefixes, so every term is in the dictionary.
  std::vector<std::string> queries;
  for (size_t i = 0; i < 16; ++i) {
    queries.push_back(TruncateTokens(texts[i * 97 % texts.size()], 6));
  }
  index.ResetSearchStats();
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Search(queries[q++ % queries.size()], 10));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["postings_per_query"] = static_cast<double>(index.stats().postings_scanned) /
                                         static_cast<double>(state.iterations());
}
BENCHMARK(BM_LexicalSearch)->Arg(2000)->Arg(8000);

void BM_TokenF1(benchmark::State& state) {
  auto gen = Tokenize(MakeText(64, 3));
  auto gold = Tokenize(MakeText(32, 3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(TokenF1(gen, gold));
  }
}
BENCHMARK(BM_TokenF1);

void BM_KvCacheAllocFree(benchmark::State& state) {
  KvCacheManager kv(8.0 * kGiB, 16, 131072);
  uint64_t id = 1;
  for (auto _ : state) {
    kv.Allocate(id, 2048);
    kv.Free(id);
    ++id;
  }
}
BENCHMARK(BM_KvCacheAllocFree);

// End-to-end simulated engine throughput: how many simulated requests per
// wall-clock second the DES engine can process.
void BM_EngineSimThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    EngineConfig cfg;
    cfg.model = Mistral7BAwq();
    cfg.kv_pool_bytes = 8.0 * kGiB;
    LlmEngine engine(&sim, cfg, 1);
    int done = 0;
    for (int i = 0; i < 200; ++i) {
      InferenceRequest req;
      req.prompt_tokens = 1500;
      req.output_tokens = 30;
      req.on_complete = [&done](const RequestTiming&) { ++done; };
      engine.Submit(std::move(req));
    }
    sim.Run();
    if (done != 200) {
      state.SkipWithError("engine lost requests");
    }
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_EngineSimThroughput);

}  // namespace
}  // namespace metis

BENCHMARK_MAIN();
