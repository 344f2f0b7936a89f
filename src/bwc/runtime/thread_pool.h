// A small fixed-size fork/join worker pool.
//
// Two owners use it: the bwcd dispatcher (server/daemon.cpp), which runs
// each batch of queued requests as one parallel_for, and the pipeline
// autotuner (tune/autotune.cpp), which scores each batch of candidates
// as one. The caller's return from parallel_for is the join barrier that
// makes the workers' writes visible to it. Replay never uses a pool: the
// engines run on the calling thread, and a machine's core count only
// feeds the timing model.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bwc::runtime {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1). The pool itself never runs
  /// tasks on the calling thread; with `threads` == 1 it degenerates to a
  /// single worker, preserving the fork/join structure for testing.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Run fn(i) for every i in [0, n), distributed over the workers;
  /// blocks until all n calls have returned. The first exception thrown
  /// by any fn is rethrown here after the batch drains. Not reentrant.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  int thread_count() const { return static_cast<int>(workers_.size()); }

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_cv_;   // workers wait for a new batch
  std::condition_variable done_cv_;   // caller waits for batch completion
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t batch_size_ = 0;
  std::size_t next_index_ = 0;    // next i to claim
  std::size_t in_flight_ = 0;     // claimed but not finished
  std::uint64_t generation_ = 0;  // bumped per batch so workers re-wake
  std::exception_ptr first_error_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace bwc::runtime
