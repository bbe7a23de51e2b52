#include "src/util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <string>

#include "src/util/mutex.h"

namespace litereconfig {

namespace {

// True while the current thread is executing a ParallelFor segment; nested
// ParallelFor calls detect this and run inline to stay deadlock-free.
// detlint: allow(mutable-global) per-thread nesting flag; never feeds results
thread_local bool tls_in_parallel_region = false;

struct RegionGuard {
  bool saved;
  RegionGuard() : saved(tls_in_parallel_region) { tls_in_parallel_region = true; }
  ~RegionGuard() { tls_in_parallel_region = saved; }
};

// Process-wide default, set once by flag wiring before any pool exists.
std::atomic<int> g_default_threads{0};

}  // namespace

// One ParallelFor invocation. Shared (via shared_ptr) between the caller and
// the helper tasks it enqueued, so a helper that starts late — after the loop
// already drained — still touches valid memory.
struct ThreadPool::Job {
  // body and n are set once before the job is shared; only read afterwards.
  // detlint: allow(guarded-by-coverage) written before publication, immutable after
  std::function<void(size_t)> body;
  // detlint: allow(guarded-by-coverage) written before publication, immutable after
  size_t n = 0;
  std::atomic<size_t> next{0};
  std::atomic<bool> cancelled{false};

  Mutex mu;
  CondVar done;
  int outstanding_helpers LR_GUARDED_BY(mu) = 0;
  size_t error_index LR_GUARDED_BY(mu) = std::numeric_limits<size_t>::max();
  std::exception_ptr error LR_GUARDED_BY(mu);

  // Claims indices until the loop drains or is cancelled.
  void Participate() {
    RegionGuard guard;
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || cancelled.load(std::memory_order_relaxed)) {
        return;
      }
      try {
        body(i);
      } catch (...) {
        MutexLock lock(mu);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
        cancelled.store(true, std::memory_order_relaxed);
      }
    }
  }
};

ThreadPool::ThreadPool(int num_workers) {
  workers_.reserve(static_cast<size_t>(std::max(0, num_workers)));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) {
        cv_.Wait(mu_);
      }
      if (queue_.empty()) {
        return;  // stop_ is set and no work is left
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& body,
                             int max_parallelism) {
  if (n == 0) {
    return;
  }
  int cap = max_parallelism > 0 ? max_parallelism : num_workers() + 1;
  size_t participants =
      std::min<size_t>(n, static_cast<size_t>(std::min(cap, num_workers() + 1)));
  if (participants <= 1 || tls_in_parallel_region) {
    RegionGuard guard;
    for (size_t i = 0; i < n; ++i) {
      body(i);
    }
    return;
  }

  auto job = std::make_shared<Job>();
  job->body = body;
  job->n = n;
  int helpers = static_cast<int>(participants) - 1;
  {
    MutexLock job_lock(job->mu);
    job->outstanding_helpers = helpers;
  }
  {
    MutexLock lock(mu_);
    for (int h = 0; h < helpers; ++h) {
      queue_.emplace_back([job] {
        job->Participate();
        {
          MutexLock job_lock(job->mu);
          --job->outstanding_helpers;
        }
        job->done.NotifyOne();
      });
    }
  }
  cv_.NotifyAll();

  job->Participate();
  std::exception_ptr error;
  {
    MutexLock lock(job->mu);
    while (job->outstanding_helpers != 0) {
      job->done.Wait(job->mu);
    }
    // Take the error out of the job: a straggler worker may destroy the last
    // shared_ptr<Job> copy after this point, and that release must not also
    // release the exception the caller is about to throw.
    error = std::move(job->error);
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

ThreadPool& ThreadPool::Shared() {
  // detlint: allow(mutable-global) intentionally leaked process-wide pool
  static ThreadPool* pool = new ThreadPool(std::max(3, DefaultThreadCount() - 1));
  return *pool;
}

int DefaultThreadCount() {
  int v = g_default_threads.load(std::memory_order_relaxed);
  if (v > 0) {
    return v;
  }
  if (const char* env = std::getenv("LITERECONFIG_THREADS")) {
    int parsed = std::atoi(env);
    if (parsed > 0) {
      return parsed;
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void SetDefaultThreadCount(int threads) {
  g_default_threads.store(threads > 0 ? threads : 0, std::memory_order_relaxed);
}

int ResolveThreadCount(int requested) {
  return requested > 0 ? requested : DefaultThreadCount();
}

int ApplyThreadsFlag(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    int parsed = 0;
    if (arg.rfind("--threads=", 0) == 0) {
      parsed = std::atoi(arg.c_str() + 10);
    } else if (arg == "--threads" && i + 1 < argc) {
      parsed = std::atoi(argv[i + 1]);
    } else {
      continue;
    }
    if (parsed > 0) {
      SetDefaultThreadCount(parsed);
    }
  }
  return DefaultThreadCount();
}

}  // namespace litereconfig
