#include "proximity/warm_over_worker.h"

#include <utility>

namespace amici {

WarmOverWorker::WarmOverWorker(WarmFn warm) : warm_(std::move(warm)) {
  thread_ = std::thread(&WarmOverWorker::Loop, this);
}

WarmOverWorker::~WarmOverWorker() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void WarmOverWorker::Submit(GraphView view,
                            std::vector<UserId> users) {
  if (users.empty()) return;
  auto task = std::make_unique<Task>();
  task->view = std::move(view);
  task->users = std::move(users);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Supersede any queued round: warming a generation that is no longer
    // current would be wasted model runs.
    pending_ = std::move(task);
  }
  cv_.notify_all();
}

void WarmOverWorker::WaitForWarmup() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return pending_ == nullptr && !busy_; });
}

void WarmOverWorker::Loop() {
  while (true) {
    std::unique_ptr<Task> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      busy_ = false;
      cv_.notify_all();  // wake WaitForWarmup watchers
      cv_.wait(lock, [&] { return stop_ || pending_ != nullptr; });
      if (stop_) return;
      task = std::move(pending_);
      busy_ = true;
    }
    for (const UserId user : task->users) {
      {
        // A newer generation superseded this round mid-way: abandon it.
        std::lock_guard<std::mutex> lock(mutex_);
        if (stop_ || pending_ != nullptr) break;
      }
      warm_(task->view, user);
    }
  }
}

}  // namespace amici
