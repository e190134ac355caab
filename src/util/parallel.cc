#include "util/parallel.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace autoac {
namespace {

thread_local bool tls_in_parallel = false;

int EnvNumThreads() {
  const char* env = std::getenv("AUTOAC_NUM_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  long value = std::strtol(env, &end, 10);
  if (end == nullptr || *end != '\0' || value < 1) return 0;
  return static_cast<int>(value);
}

std::atomic<int> g_num_threads_override{0};

/// One ParallelFor/ParallelReduce invocation. Heap-allocated and shared with
/// every participating thread so a worker that wakes up late (after the call
/// already finished and a new one started) still holds the *old* job, finds
/// its chunk counter exhausted, and exits without touching the new job.
struct Job {
  Job(std::function<void(int64_t)> f, int64_t chunks, int helpers)
      : fn(std::move(f)), num_chunks(chunks), max_helpers(helpers) {}

  std::function<void(int64_t)> fn;
  int64_t num_chunks;
  int max_helpers;  // pool may hold more workers than this job wants
  std::atomic<int> joined{0};
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> done{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;
};

/// Lazily-created shared pool. Never destroyed (intentionally leaked) so
/// parallel kernels stay safe during static destruction.
class ThreadPool {
 public:
  static ThreadPool& Get() {
    static ThreadPool* pool = new ThreadPool();
    return *pool;
  }

  /// Runs fn(chunk) for every chunk in [0, num_chunks) using up to
  /// `num_threads` threads including the caller. Blocks until every chunk
  /// completed; rethrows the first exception thrown by fn.
  void Run(int64_t num_chunks, int num_threads,
           const std::function<void(int64_t)>& fn) {
    // One job at a time: concurrent top-level calls from different threads
    // serialize here (nested calls never reach the pool — see ParallelFor).
    std::lock_guard<std::mutex> run_lock(run_mutex_);
    int helpers = num_threads - 1;
    if (helpers > static_cast<int>(num_chunks) - 1) {
      helpers = static_cast<int>(num_chunks) - 1;
    }
    auto job = std::make_shared<Job>(fn, num_chunks, helpers);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      while (static_cast<int>(workers_.size()) < helpers) {
        workers_.emplace_back([this] { WorkerLoop(); });
      }
      current_job_ = job;
      ++generation_;
    }
    // Wake only as many workers as the job wants. A worker that misses the
    // wake-up (busy, or not yet waiting) still joins when it next checks the
    // generation, and the caller works every chunk it reaches itself, so a
    // job never depends on any particular worker joining.
    for (int h = 0; h < helpers; ++h) wake_.notify_one();

    WorkOn(*job);  // The caller is a full participant.

    {
      std::unique_lock<std::mutex> lock(mutex_);
      done_.wait(lock, [&] {
        return job->done.load(std::memory_order_acquire) == num_chunks;
      });
      current_job_ = nullptr;
    }
    if (job->error) std::rethrow_exception(job->error);
  }

 private:
  ThreadPool() = default;

  void WorkerLoop() {
    uint64_t seen_generation = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [&] {
          return generation_ != seen_generation && current_job_ != nullptr;
        });
        seen_generation = generation_;
        job = current_job_;
      }
      // The pool can hold more workers than this job requested (thread count
      // was lowered); surplus workers sit the job out.
      if (job->joined.fetch_add(1, std::memory_order_relaxed) <
          job->max_helpers) {
        WorkOn(*job);
      }
    }
  }

  void WorkOn(Job& job) {
    tls_in_parallel = true;
    for (;;) {
      int64_t chunk = job.next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= job.num_chunks) break;
      // After a failure the remaining chunks are skipped, but completion
      // accounting below still runs so Run() can finish waiting.
      if (!job.failed.load(std::memory_order_relaxed)) {
        try {
          job.fn(chunk);
        } catch (...) {
          std::lock_guard<std::mutex> lock(job.error_mutex);
          if (!job.error) job.error = std::current_exception();
          job.failed.store(true, std::memory_order_relaxed);
        }
      }
      if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          job.num_chunks) {
        std::lock_guard<std::mutex> lock(mutex_);
        done_.notify_all();
      }
    }
    tls_in_parallel = false;
  }

  std::mutex run_mutex_;

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::vector<std::thread> workers_;
  std::shared_ptr<Job> current_job_;
  uint64_t generation_ = 0;
};

}  // namespace

int HardwareConcurrency() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw < 1 ? 1 : static_cast<int>(hw);
}

int NumThreads() {
  int override_value = g_num_threads_override.load(std::memory_order_relaxed);
  if (override_value > 0) return override_value;
  static const int env_threads = EnvNumThreads();
  if (env_threads > 0) return env_threads;
  return HardwareConcurrency();
}

void SetNumThreads(int n) {
  g_num_threads_override.store(n > 0 ? n : 0, std::memory_order_relaxed);
}

bool InParallelRegion() { return tls_in_parallel; }

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  if (begin >= end) return;
  if (grain < 1) grain = 1;
  int64_t range = end - begin;
  int num_threads = NumThreads();
  if (num_threads == 1 || range < 2 * grain || tls_in_parallel) {
    fn(begin, end);
    return;
  }
  // Static partition into at most num_threads contiguous chunks of >= grain
  // iterations. Chunk *assignment* to threads is dynamic, but every chunk is
  // a disjoint [begin, end) span, so writes never overlap.
  int64_t max_chunks = range / grain;
  int64_t num_chunks =
      max_chunks < num_threads ? max_chunks : static_cast<int64_t>(num_threads);
  int64_t chunk_size = range / num_chunks;
  int64_t remainder = range % num_chunks;
  ThreadPool::Get().Run(num_chunks, num_threads, [&](int64_t chunk) {
    // Chunks [0, remainder) get one extra iteration.
    int64_t extra = chunk < remainder ? chunk : remainder;
    int64_t chunk_begin = begin + chunk * chunk_size + extra;
    int64_t chunk_end = chunk_begin + chunk_size + (chunk < remainder ? 1 : 0);
    fn(chunk_begin, chunk_end);
  });
}

double ParallelReduce(int64_t begin, int64_t end, int64_t grain,
                      const std::function<double(int64_t, int64_t)>& fn) {
  if (begin >= end) return 0.0;
  if (grain < 1) grain = 1;
  int64_t range = end - begin;
  // Fixed chunking: depends only on (range, grain), never on thread count,
  // so the partial-sum order — and hence the rounded result — is identical
  // at every thread count.
  int64_t num_chunks = (range + grain - 1) / grain;
  auto chunk_bounds = [&](int64_t chunk, int64_t* cb, int64_t* ce) {
    *cb = begin + chunk * grain;
    *ce = *cb + grain < end ? *cb + grain : end;
  };
  if (num_chunks == 1 || NumThreads() == 1 || tls_in_parallel) {
    double total = 0.0;
    for (int64_t c = 0; c < num_chunks; ++c) {
      int64_t cb, ce;
      chunk_bounds(c, &cb, &ce);
      total += fn(cb, ce);
    }
    return total;
  }
  std::vector<double> partial(num_chunks, 0.0);
  ThreadPool::Get().Run(num_chunks, NumThreads(), [&](int64_t chunk) {
    int64_t cb, ce;
    chunk_bounds(chunk, &cb, &ce);
    partial[chunk] = fn(cb, ce);
  });
  double total = 0.0;
  for (double p : partial) total += p;
  return total;
}

}  // namespace autoac
