// The process's one background compile worker (see "Background
// compilation" in jit.h).

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "jit/jit.h"

namespace hmd::jit {

class CompileWorker {
 public:
  std::shared_ptr<CompileJob> submit(const core::FlatForestEngine& forest) {
    auto job = std::shared_ptr<CompileJob>(new CompileJob(forest));
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!thread_.joinable()) thread_ = std::thread([this] { run(); });
    queue_.push_back(job);
    work_.notify_one();
    return job;
  }

  void wait(const CompileJob& job) {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] { return job.state_ == CompileJob::State::kDone; });
  }

  void cancel(CompileJob& job) {
    job.cancel_.store(true, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock(mutex_);
    if (job.state_ == CompileJob::State::kQueued) {
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->get() == &job) {
          queue_.erase(it);
          break;
        }
      }
      job.state_ = CompileJob::State::kDone;
      done_.notify_all();
      return;
    }
    done_.wait(lock, [&] { return job.state_ == CompileJob::State::kDone; });
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      work_.wait(lock, [this] { return !queue_.empty(); });
      const std::shared_ptr<CompileJob> job = std::move(queue_.front());
      queue_.pop_front();
      job->state_ = CompileJob::State::kRunning;
      lock.unlock();
      std::unique_ptr<ForestProgram> program;
      try {
        program = compile_forest(*job->forest_, &job->cancel_);
      } catch (...) {
        // A compile that throws (out of memory mid-emission, a jit.tree
        // error failpoint) is a decline like any other: the engine keeps
        // its arena kernels, and kernel_backend() reports them.
      }
      if (program != nullptr &&
          !job->cancel_.load(std::memory_order_relaxed)) {
        job->owned_ = std::move(program);
        job->program_.store(job->owned_.get(), std::memory_order_release);
      }
      lock.lock();
      job->state_ = CompileJob::State::kDone;
      done_.notify_all();
    }
  }

  std::mutex mutex_;
  std::condition_variable work_;
  std::condition_variable done_;
  std::deque<std::shared_ptr<CompileJob>> queue_;
  std::thread thread_;
};

namespace {

/// Never destroyed: the worker idles on its condition variable until
/// process exit, so no static destructor can race an engine that is
/// still cancelling its job.
CompileWorker& worker() {
  static CompileWorker* const instance = new CompileWorker();
  return *instance;
}

}  // namespace

void CompileJob::wait() const { worker().wait(*this); }

void CompileJob::cancel() { worker().cancel(*this); }

std::shared_ptr<CompileJob> compile_in_background(
    const core::FlatForestEngine& forest) {
  return worker().submit(forest);
}

}  // namespace hmd::jit
