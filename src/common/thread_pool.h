// Fixed-size worker pool for data-parallel sweeps.
//
// Built for the retrieval substrate: batched vector search shards its queries
// across workers, and IVF training shards its row scans. The pool is generic,
// though — any caller with an index range to split can use ParallelFor.
//
// Determinism contract: ParallelFor partitions [0, n) into contiguous shards
// whose boundaries are a pure function of (n, shard count). Callers that
// write only to disjoint per-index slots therefore produce identical results
// for every pool size, which is what lets the parity tests assert bit-equal
// search results across 1..8 threads.

#ifndef METIS_SRC_COMMON_THREAD_POOL_H_
#define METIS_SRC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace metis {

class ThreadPool {
 public:
  // Spawns `num_threads` workers; 0 means "no workers", in which case every
  // ParallelFor runs inline on the calling thread.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  // Runs fn(begin, end) over a partition of [0, n) into at most num_threads()
  // contiguous shards and blocks until all shards complete. With zero or one
  // worker (or n <= 1) the whole range runs inline on the calling thread.
  // fn must not throw.
  void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn);

  // Fire-and-forget: enqueues `task` for a worker; returns immediately. With
  // zero workers the task runs inline. Tasks may Submit follow-up tasks —
  // including from inside a running task during destruction: the destructor
  // drains the queue AND waits out running tasks (which may still submit)
  // before joining, so every task submitted before or from within a task is
  // guaranteed to execute. Submitting from outside the pool's tasks after
  // the destructor has begun is a data race (as with any object). task must
  // not throw.
  void Submit(std::function<void()> task);

  // A reasonable worker count for this machine.
  static size_t DefaultThreads();

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> tasks_;
  size_t active_ = 0;  // Tasks currently executing (shutdown gate: a running
                       // task may still Submit follow-up work).
  bool stop_ = false;
};

// pool->ParallelFor(n, fn), or fn(0, n) inline on the calling thread when
// `pool` is null — the optional-pool idiom of the batched sweeps.
inline void ParallelForOrInline(ThreadPool* pool, size_t n,
                                const std::function<void(size_t, size_t)>& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(n, fn);
  } else if (n > 0) {
    fn(0, n);
  }
}

}  // namespace metis

#endif  // METIS_SRC_COMMON_THREAD_POOL_H_
