// A fixed-size worker pool with deterministic parallel-for/map helpers — the
// substrate of the parallel evaluation engine.
//
// Design rules that keep results identical regardless of thread count:
//   * ParallelFor distributes *indices*, never results: participants claim
//     indices from an atomic counter and write into caller-owned slots, so the
//     output layout is index order no matter which thread ran which index.
//   * The calling thread participates in the loop, so max_parallelism=1 runs
//     the body inline and max_parallelism=N uses at most N-1 pool workers.
//   * A ParallelFor issued from inside a pool worker (nesting) runs inline and
//     serially, which makes nesting deadlock-free by construction.
//
// Exceptions thrown by loop bodies cancel the remaining indices; the exception
// observed at the lowest index is rethrown on the calling thread once every
// participant has drained. (Bodies that already started still run to their own
// completion or exception — cancellation is checked between indices.)
#ifndef SRC_UTIL_THREAD_POOL_H_
#define SRC_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/util/annotations.h"
#include "src/util/mutex.h"

namespace litereconfig {

class ThreadPool {
 public:
  // Spawns `num_workers` worker threads (0 is valid: every ParallelFor then
  // runs inline on the caller).
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Runs body(0) .. body(n-1) across up to max_parallelism participants (the
  // calling thread plus pool workers); max_parallelism <= 0 means "all of the
  // pool". Returns after every index has completed; rethrows the lowest-index
  // exception, if any.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body,
                   int max_parallelism = 0);

  // ParallelFor that collects fn(i) into a vector in index order. The result
  // type must be default-constructible.
  template <typename Fn>
  auto ParallelMap(size_t n, const Fn& fn, int max_parallelism = 0)
      -> std::vector<std::invoke_result_t<Fn, size_t>> {
    std::vector<std::invoke_result_t<Fn, size_t>> out(n);
    ParallelFor(
        n, [&](size_t i) { out[i] = fn(i); }, max_parallelism);
    return out;
  }

  // Process-wide pool used by the evaluation engine. Sized from the default
  // thread count at first use, but never below 3 workers so that explicit
  // `threads=N` requests exercise real concurrency even on small machines.
  static ThreadPool& Shared();

 private:
  struct Job;

  void WorkerLoop();

  // detlint: allow(guarded-by-coverage) written only in the constructor and joined in the destructor, both single-threaded
  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ LR_GUARDED_BY(mu_);
  bool stop_ LR_GUARDED_BY(mu_) = false;
};

// The process default used when a caller passes threads <= 0: the last
// SetDefaultThreadCount value if set, else $LITERECONFIG_THREADS, else the
// hardware concurrency.
int DefaultThreadCount();
// Overrides the default; threads <= 0 restores automatic resolution.
void SetDefaultThreadCount(int threads);
// Maps a requested thread count to an effective one (requested > 0 wins).
int ResolveThreadCount(int requested);

// Applies a `--threads=N` (or `--threads N`) argument if present — the shared
// wiring used by the bench and example drivers, which have no other flags.
// Returns the resolved default thread count.
int ApplyThreadsFlag(int argc, const char* const* argv);

}  // namespace litereconfig

#endif  // SRC_UTIL_THREAD_POOL_H_
