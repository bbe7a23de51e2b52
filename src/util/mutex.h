// Annotated synchronization primitives: thin wrappers over std::mutex /
// std::condition_variable that carry clang thread-safety capability attributes
// (src/util/annotations.h), so `clang -Wthread-safety` can verify locking
// discipline at compile time.
//
// This is the only file in the tree allowed to name the raw std:: primitives;
// detlint's raw-sync rule steers every other translation unit here. The
// wrappers add no state and no overhead beyond the standard types.
#ifndef SRC_UTIL_MUTEX_H_
#define SRC_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>
#include <utility>

#include "src/util/annotations.h"

namespace litereconfig {

class LR_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() LR_ACQUIRE() { mu_.lock(); }
  void Unlock() LR_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// Scoped lock for a Mutex (the std::lock_guard analogue).
class LR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) LR_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() LR_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mu` (which the caller must hold) for the duration of
  // the wait and reacquires it before returning. Spurious wakeups happen;
  // callers loop on their predicate.
  void Wait(Mutex& mu) LR_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace litereconfig

#endif  // SRC_UTIL_MUTEX_H_
