#include "src/common/worker_pool.h"

#include <string>

#include "src/telemetry/telemetry.h"
#include "src/telemetry/tracer.h"

namespace stalloc {

WorkerPool::WorkerPool(int workers) : workers_(workers < 1 ? 1 : workers) {
  threads_.reserve(static_cast<size_t>(workers_ - 1));
  for (int i = 1; i < workers_; ++i) {
    threads_.emplace_back([this, i] {
      if (telemetry::Enabled()) {
        // Name the track up front so exported traces label pool rows even if this thread's
        // first event fires deep inside a shard window.
        telemetry::Tracer::Global().SetThreadName("pool worker " + std::to_string(i));
      }
      ThreadMain();
    });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void WorkerPool::WorkOn(const std::function<void(size_t)>& fn, size_t n) {
  size_t done_here = 0;
  for (;;) {
    const size_t i = next_index_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) {
      break;
    }
    fn(i);
    ++done_here;
  }
  std::lock_guard<std::mutex> lock(mu_);
  completed_ += done_here;
  --active_;
  if (completed_ == n && active_ == 0) {
    done_cv_.notify_all();
  }
}

void WorkerPool::ThreadMain() {
  uint64_t seen_batch = 0;
  for (;;) {
    const std::function<void(size_t)>* fn = nullptr;
    size_t n = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return shutdown_ || batch_id_ != seen_batch; });
      if (shutdown_) {
        return;
      }
      seen_batch = batch_id_;
      if (fn_ == nullptr) {
        continue;  // woke after that batch already finished
      }
      // Joining under the lock pins the batch: ParallelFor cannot return, clear fn_ or reset
      // next_index_ for the next batch until this thread has left it.
      fn = fn_;
      n = batch_size_;
      ++active_;
    }
    WorkOn(*fn, n);
  }
}

void WorkerPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (workers_ == 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    batch_size_ = n;
    completed_ = 0;
    active_ = 1;  // the caller
    next_index_.store(0, std::memory_order_relaxed);
    ++batch_id_;
  }
  work_cv_.notify_all();
  WorkOn(fn, n);  // the caller pulls indices too
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return completed_ == n && active_ == 0; });
  fn_ = nullptr;
}

}  // namespace stalloc
