// A small fixed-size thread pool. Used by the autotuner for concurrent measurement
// jobs, by the VM for kParallel loop chunks, and by the serving scheduler (src/serve)
// as the process-wide worker pool multiplexing whole inference requests and
// intra-kernel chunks over the same threads.
//
// Jobs come in two classes. Submit enqueues general jobs (tuning measurements, whole
// inference requests). SubmitNested enqueues sub-jobs spawned from *inside* a running
// job (kParallel loop chunks); workers prefer them over general jobs, and TryRunOne
// lets a thread that is blocked on nested-job futures help drain them instead of
// idling. This makes nested submission deadlock-free — a pool worker that fans a
// kParallel loop out as chunk jobs executes pending chunks itself while it waits, so
// progress never depends on a free worker existing — without the waiter ever stealing
// an unrelated general job (which could nest a whole multi-millisecond request inside
// a chunk wait and inflate that request's latency).
#ifndef SRC_RUNTIME_THREADPOOL_H_
#define SRC_RUNTIME_THREADPOOL_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "src/support/failpoint.h"

namespace tvmcpp {

class ThreadPool {
 public:
  explicit ThreadPool(int num_threads) {
    for (int i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) {
      t.join();
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  template <typename F>
  auto Submit(F&& f) -> std::future<decltype(f())> {
    return Enqueue(std::forward<F>(f), &queue_);
  }

  // Sub-jobs spawned from inside a running job. Workers run these before general
  // jobs, and only these are eligible for TryRunOne help.
  template <typename F>
  auto SubmitNested(F&& f) -> std::future<decltype(f())> {
    return Enqueue(std::forward<F>(f), &nested_);
  }

  // Pops and runs one queued *nested* job on the calling thread. Returns false when
  // no nested job is pending (the caller should then block on its future: every
  // outstanding nested job is already being executed by some thread).
  bool TryRunOne() {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (nested_.empty()) {
        return false;
      }
      job = std::move(nested_.front());
      nested_.pop();
    }
    // Non-throwing evaluation: a dispatched job must run no matter what — an
    // injected error here would strand the job's future forever. Delays simulate
    // a stuck/slow worker.
    FAILPOINT_SAFE("pool.dispatch");
    job();
    return true;
  }

  int size() const { return static_cast<int>(workers_.size()); }

 private:
  template <typename F>
  auto Enqueue(F&& f, std::queue<std::function<void()>>* q)
      -> std::future<decltype(f())> {
    using R = decltype(f());
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> result = task->get_future();
    {
      std::unique_lock<std::mutex> lock(mu_);
      q->push([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  void WorkerLoop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock,
                 [this] { return stop_ || !queue_.empty() || !nested_.empty(); });
        if (stop_ && queue_.empty() && nested_.empty()) {
          return;
        }
        // Nested jobs first: they are chunks of an already-running job that some
        // thread may be help-waiting on.
        std::queue<std::function<void()>>& q = nested_.empty() ? queue_ : nested_;
        job = std::move(q.front());
        q.pop();
      }
      FAILPOINT_SAFE("pool.dispatch");  // see TryRunOne: delay-only by design
      job();
    }
  }

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;   // general jobs
  std::queue<std::function<void()>> nested_;  // sub-jobs of running jobs
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

// Runs chunk(begin, end) over [lo, hi) split into min(hi - lo, threads) contiguous
// blocks, block c covering [lo + ext*c/n, lo + ext*(c+1)/n). This is the one
// chunking rule of kParallel loops on every tier: iterations are independent, so
// results are bitwise identical for any block count. With threads <= 1 or a single
// iteration the whole range runs as one call on the calling thread. Otherwise every
// block is a nested job on `pool`, and the caller help-waits: it drains pending
// nested jobs instead of idling, so a pool worker (a serving request fanning out its
// own chunks) keeps chunks progressing and can never deadlock on a full pool.
// General jobs (whole requests) are never stolen here. The first exception a block
// throws is rethrown once every block has finished.
template <typename F>
void ParallelFor(ThreadPool* pool, int threads, int64_t lo, int64_t hi, const F& chunk) {
  int64_t ext = hi - lo;
  if (ext <= 1 || threads <= 1) {
    chunk(lo, hi);
    return;
  }
  int nchunks = static_cast<int>(std::min<int64_t>(ext, threads));
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<size_t>(nchunks));
  for (int c = 0; c < nchunks; ++c) {
    int64_t begin = lo + ext * c / nchunks;
    int64_t end = lo + ext * (c + 1) / nchunks;
    futures.push_back(pool->SubmitNested([&chunk, begin, end] { chunk(begin, end); }));
  }
  std::exception_ptr err;
  for (std::future<void>& f : futures) {
    while (f.wait_for(std::chrono::seconds(0)) == std::future_status::timeout) {
      if (!pool->TryRunOne()) {
        f.wait();  // queue drained: the block is running on another thread
      }
    }
    try {
      f.get();
    } catch (...) {
      if (!err) {
        err = std::current_exception();
      }
    }
  }
  if (err) {
    std::rethrow_exception(err);
  }
}

}  // namespace tvmcpp

#endif  // SRC_RUNTIME_THREADPOOL_H_
