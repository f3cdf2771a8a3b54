// Synchronisation primitives for simulator coroutines: Condition (with timed
// waits), Semaphore (direct-handoff), and Mailbox<T> (bounded FIFO channel —
// the substrate for Nemesis IO channels / rbufs).
//
// All wakeups are funnelled through the simulator event queue at the current
// simulated time, so a notifier never runs a waiter's code re-entrantly.
#ifndef SRC_SIM_SYNC_H_
#define SRC_SIM_SYNC_H_

#include <deque>
#include <memory>
#include <optional>
#include <utility>

#include "src/base/assert.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace nemesis {

// Suspends the calling task for `d` simulated time.
inline DelayAwaiter SleepFor(Simulator& sim, SimDuration d) { return DelayAwaiter{&sim, d}; }

// Waits for `handle`'s task to finish (complete or be killed).
inline JoinAwaiter Join(const TaskHandle& handle) { return JoinAwaiter{handle.state()}; }

inline bool TaskDead(const std::shared_ptr<TaskState>& st) {
  return st == nullptr || st->done || st->destroyed || st->killed;
}

// Condition variable. Waiters must re-check their predicate after waking
// (standard condition-variable idiom); NotifyAll wakes everyone currently
// waiting.
class Condition {
 public:
  explicit Condition(Simulator& sim) : sim_(&sim) {}
  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  struct Waiter {
    std::shared_ptr<TaskState> st;
    bool notified = false;
    uint64_t timer_id = 0;
    bool has_timer = false;
  };

  struct WaitAwaiter {
    Condition* cv;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<Task::promise_type> h) {
      cv->waiters_.push_back(std::make_shared<Waiter>(Waiter{StateOf(h)}));
    }
    void await_resume() const noexcept {}
  };

  // Waits until notified.
  WaitAwaiter Wait() { return WaitAwaiter{this}; }

  // Waits until notified or `timeout` elapses; await_resume returns true when
  // the wait ended by notification.
  struct TimedWaitAwaiter {
    Condition* cv;
    SimDuration timeout;
    std::shared_ptr<Waiter> waiter;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<Task::promise_type> h) {
      waiter = std::make_shared<Waiter>(Waiter{StateOf(h)});
      waiter->has_timer = true;
      auto w = waiter;
      Condition* cond = cv;
      // The timeout fires on the waiter's shard so the resumed code runs in
      // its own shard, same as a notification would.
      waiter->timer_id = cv->sim_->CallAfterOn(waiter->st->shard, timeout, [cond, w] {
        // Timed out: drop from the wait list and resume un-notified.
        std::erase(cond->waiters_, w);
        w->st->Resume();
      });
      cv->waiters_.push_back(waiter);
    }
    bool await_resume() const noexcept { return waiter->notified; }
  };

  TimedWaitAwaiter WaitFor(SimDuration timeout) { return TimedWaitAwaiter{this, timeout, nullptr}; }

  void NotifyAll() {
    auto waiters = std::move(waiters_);
    waiters_.clear();
    for (auto& w : waiters) {
      WakeWaiter(w);
    }
  }

  void NotifyOne() {
    while (!waiters_.empty()) {
      auto w = waiters_.front();
      waiters_.pop_front();
      if (TaskDead(w->st)) {
        continue;
      }
      WakeWaiter(w);
      return;
    }
  }

  size_t waiter_count() const { return waiters_.size(); }

 private:
  void WakeWaiter(const std::shared_ptr<Waiter>& w) {
    w->notified = true;
    if (w->has_timer) {
      sim_->Cancel(w->timer_id);
    }
    auto st = w->st;
    sim_->CallAfterOn(st->shard, 0, [st] { st->Resume(); });
  }

  Simulator* sim_;
  std::deque<std::shared_ptr<Waiter>> waiters_;
};

// Counting semaphore with direct handoff: V() transfers the token to the
// first live waiter. (If a task is killed in the narrow window between being
// chosen and resuming, that token is dropped — no Nemesis code path kills a
// semaphore waiter.)
class Semaphore {
 public:
  Semaphore(Simulator& sim, int64_t initial) : sim_(&sim), count_(initial) {
    NEM_ASSERT(initial >= 0);
  }

  struct AcquireAwaiter {
    Semaphore* sem;
    bool await_ready() const noexcept {
      if (sem->count_ > 0) {
        --sem->count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<Task::promise_type> h) {
      sem->waiters_.push_back(StateOf(h));
    }
    void await_resume() const noexcept {}
  };

  AcquireAwaiter Acquire() { return AcquireAwaiter{this}; }

  void Release() {
    while (!waiters_.empty()) {
      auto st = waiters_.front();
      waiters_.pop_front();
      if (TaskDead(st)) {
        continue;
      }
      sim_->CallAfterOn(st->shard, 0, [st] { st->Resume(); });
      return;
    }
    ++count_;
  }

  int64_t count() const { return count_; }
  size_t waiter_count() const { return waiters_.size(); }

 private:
  Simulator* sim_;
  int64_t count_;
  std::deque<std::shared_ptr<TaskState>> waiters_;
};

// Bounded FIFO channel with rendezvous semantics. Values from senders that
// are killed while waiting are dropped. Capacity 0 gives pure rendezvous.
template <typename T>
class Mailbox {
 public:
  Mailbox(Simulator& sim, size_t capacity) : sim_(&sim), capacity_(capacity) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  struct SendWaiter {
    std::shared_ptr<TaskState> st;
    T value;
  };
  struct RecvWaiter {
    std::shared_ptr<TaskState> st;
    std::optional<T>* slot;
  };

  struct SendAwaiter {
    Mailbox* box;
    T value;

    bool await_ready() {
      // Direct handoff to a waiting receiver if one exists.
      while (!box->recv_waiters_.empty()) {
        RecvWaiter w = std::move(box->recv_waiters_.front());
        box->recv_waiters_.pop_front();
        if (TaskDead(w.st)) {
          continue;
        }
        *w.slot = std::move(value);
        box->Wake(w.st);
        return true;
      }
      if (box->items_.size() < box->capacity_) {
        box->items_.push_back(std::move(value));
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<Task::promise_type> h) {
      box->send_waiters_.push_back(SendWaiter{StateOf(h), std::move(value)});
    }
    void await_resume() const noexcept {}
  };

  struct RecvAwaiter {
    Mailbox* box;
    std::optional<T> result;

    bool await_ready() {
      if (!box->items_.empty()) {
        result = std::move(box->items_.front());
        box->items_.pop_front();
        box->AdmitBlockedSender();
        return true;
      }
      // Empty buffer: take directly from a waiting sender (capacity 0 path).
      while (!box->send_waiters_.empty()) {
        SendWaiter s = std::move(box->send_waiters_.front());
        box->send_waiters_.pop_front();
        if (TaskDead(s.st)) {
          continue;
        }
        result = std::move(s.value);
        box->Wake(s.st);
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<Task::promise_type> h) {
      box->recv_waiters_.push_back(RecvWaiter{StateOf(h), &result});
    }
    T await_resume() {
      NEM_ASSERT_MSG(result.has_value(), "Mailbox receive resumed without a value");
      return std::move(*result);
    }
  };

  // co_await box.Send(v): blocks while the channel is full.
  SendAwaiter Send(T value) { return SendAwaiter{this, std::move(value)}; }

  // co_await box.Recv(): blocks while the channel is empty; yields the value.
  RecvAwaiter Recv() { return RecvAwaiter{this, std::nullopt}; }

  // Non-blocking variants.
  bool TrySend(T value) {
    SendAwaiter aw{this, std::move(value)};
    return aw.await_ready();
  }
  std::optional<T> TryRecv() {
    RecvAwaiter aw{this, std::nullopt};
    if (aw.await_ready()) {
      return std::move(aw.result);
    }
    return std::nullopt;
  }

  size_t size() const { return items_.size(); }
  size_t capacity() const { return capacity_; }
  bool empty() const { return items_.empty() && send_waiters_.empty(); }
  size_t send_waiter_count() const { return send_waiters_.size(); }
  size_t recv_waiter_count() const { return recv_waiters_.size(); }

 private:
  void Wake(const std::shared_ptr<TaskState>& st) {
    sim_->CallAfterOn(st->shard, 0, [st] { st->Resume(); });
  }

  // After freeing a buffer slot, move one blocked sender's value in.
  void AdmitBlockedSender() {
    while (!send_waiters_.empty() && items_.size() < capacity_) {
      SendWaiter s = std::move(send_waiters_.front());
      send_waiters_.pop_front();
      if (TaskDead(s.st)) {
        continue;
      }
      items_.push_back(std::move(s.value));
      Wake(s.st);
      return;
    }
  }

  Simulator* sim_;
  size_t capacity_;
  std::deque<T> items_;
  std::deque<SendWaiter> send_waiters_;
  std::deque<RecvWaiter> recv_waiters_;
};

}  // namespace nemesis

#endif  // SRC_SIM_SYNC_H_
