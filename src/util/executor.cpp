#include "util/executor.h"

#include <algorithm>
#include <array>
#include <limits>
#include <utility>

#include "obs/metrics.h"

namespace eid::util {

namespace {

/// Set inside worker_loop so nested parallel helpers on a worker run
/// inline instead of deadlocking on their own pool.
thread_local const Executor* t_worker_of = nullptr;

/// Pool health on the process registry (obs/metrics.h): how many tasks
/// the workers carry, how long tasks sit queued before a worker picks
/// them up, and whether a day-sized submit is occupying a worker — the
/// signals a supervisor needs to see an under- or over-provisioned pool.
struct ExecutorMetrics {
  obs::Counter& dispatched =
      obs::metrics().counter("eid_executor_tasks_dispatched_total");
  obs::Counter& spawned =
      obs::metrics().counter("eid_executor_threads_spawned_total");
  obs::Gauge& queue_depth = obs::metrics().gauge("eid_executor_queue_depth");
  obs::Gauge& long_tasks =
      obs::metrics().gauge("eid_executor_long_tasks_inflight");
  obs::Histogram& dispatch_latency = obs::metrics().histogram(
      "eid_executor_dispatch_latency_seconds", obs::dispatch_buckets());
};

ExecutorMetrics& executor_metrics() {
  static ExecutorMetrics metrics;
  return metrics;
}

}  // namespace

/// One worker: a fixed-capacity ring of queued tasks with a single
/// consumer (the worker thread) and mutex-serialized producers, plus a
/// parking condvar. Ring indices are free-running; capacity is plenty for
/// a fan-out (<= n_threads entries) and overflow falls back to running
/// inline at the call site, never blocking or dropping.
struct Executor::Worker {
  static constexpr std::size_t kRing = 256;  // power of two

  std::array<RawTask, kRing> ring{};
  std::atomic<std::size_t> head{0};  ///< consumer cursor
  std::atomic<std::size_t> tail{0};  ///< producer cursor
  std::mutex produce_mutex;          ///< serializes producers
  std::mutex park_mutex;
  std::condition_variable park;
  std::atomic<bool> stop{false};
  /// submit()ted long tasks queued or running here; fan-outs prefer
  /// workers with 0 so a day-sized task never blocks a stage barrier.
  std::atomic<std::int64_t> long_tasks{0};

  bool empty() const {
    return head.load(std::memory_order_relaxed) ==
           tail.load(std::memory_order_acquire);
  }
};

Executor::Executor(std::size_t n_workers) {
  workers_.reserve(n_workers);
  threads_.reserve(n_workers);
  for (std::size_t i = 0; i < n_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (std::size_t i = 0; i < n_workers; ++i) {
    executor_metrics().spawned.add(1);
    threads_.emplace_back([this, i] { worker_loop(*workers_[i]); });
  }
}

Executor::~Executor() {
  for (auto& worker : workers_) {
    worker->stop.store(true, std::memory_order_relaxed);
    // Lock-then-notify so a worker between its predicate check and its
    // sleep cannot miss the wakeup.
    { std::lock_guard lock(worker->park_mutex); }
    worker->park.notify_one();
  }
  for (std::thread& thread : threads_) thread.join();
}

bool Executor::on_worker_thread() const { return t_worker_of == this; }

void Executor::worker_loop(Worker& worker) {
  t_worker_of = this;
  for (;;) {
    const std::size_t head = worker.head.load(std::memory_order_relaxed);
    if (head != worker.tail.load(std::memory_order_acquire)) {
      const RawTask task = worker.ring[head % Worker::kRing];
      worker.head.store(head + 1, std::memory_order_release);
      const std::int64_t depth =
          queued_.fetch_sub(1, std::memory_order_relaxed) - 1;
      if (task.enqueue_us != 0) {
        ExecutorMetrics& metrics = executor_metrics();
        metrics.queue_depth.set(static_cast<double>(depth));
        metrics.dispatch_latency.observe(
            static_cast<double>(obs::trace_now_us() - task.enqueue_us) * 1e-6);
      }
      task.run(task.ctx, task.arg);
      continue;
    }
    std::unique_lock lock(worker.park_mutex);
    worker.park.wait(lock, [&] {
      return worker.stop.load(std::memory_order_relaxed) || !worker.empty();
    });
    // Drain before exiting: submitted work is never dropped on shutdown.
    if (worker.stop.load(std::memory_order_relaxed) && worker.empty()) return;
  }
}

bool Executor::try_push(Worker& worker, RawTask task) {
  ExecutorMetrics& metrics = executor_metrics();
  // The clock read is the costly part of dispatch timing; only pay it
  // when collection is on (enqueue_us == 0 tells the consumer to skip).
  if (obs::metrics().enabled()) task.enqueue_us = obs::trace_now_us();
  {
    std::lock_guard producers(worker.produce_mutex);
    const std::size_t tail = worker.tail.load(std::memory_order_relaxed);
    if (tail - worker.head.load(std::memory_order_acquire) >= Worker::kRing) {
      return false;
    }
    worker.ring[tail % Worker::kRing] = task;
    worker.tail.store(tail + 1, std::memory_order_release);
  }
  const std::int64_t depth = queued_.fetch_add(1, std::memory_order_relaxed) + 1;
  metrics.queue_depth.set(static_cast<double>(depth));
  { std::lock_guard lock(worker.park_mutex); }
  worker.park.notify_one();
  dispatched_.fetch_add(1, std::memory_order_relaxed);
  metrics.dispatched.add(1);
  return true;
}

void Executor::fan_out_entry(void* ctx, std::size_t range) {
  FanOut& block = *static_cast<FanOut*>(ctx);
  try {
    block.run(block, range);
  } catch (...) {
    std::lock_guard lock(block.mutex);
    if (!block.error) block.error = std::current_exception();
  }
  // Final touch of the block under its mutex: once the caller observes
  // pending == 0 (which it can only do after this unlock), the block may
  // be destroyed.
  std::lock_guard lock(block.mutex);
  if (--block.pending == 0) block.done.notify_all();
}

std::size_t Executor::dispatch_fan_out(FanOut& block, std::size_t count) {
  if (count == 0 || workers_.empty()) return 0;
  // Targets: workers free of long tasks, so a fan-out never queues behind
  // a pipelined day commit; if every worker is busy, use them all (nested
  // work runs inline on workers, so queues always drain — this only costs
  // latency, never liveness).
  std::vector<std::size_t> targets;
  targets.reserve(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i]->long_tasks.load(std::memory_order_relaxed) == 0) {
      targets.push_back(i);
    }
  }
  if (targets.empty()) {
    for (std::size_t i = 0; i < workers_.size(); ++i) targets.push_back(i);
  }
  block.pending = count;  // no worker sees the block before its first push
  const std::size_t start =
      next_worker_.fetch_add(1, std::memory_order_relaxed);
  std::size_t queued = 0;
  while (queued < count) {
    Worker& worker = *workers_[targets[(start + queued) % targets.size()]];
    if (!try_push(worker, {&fan_out_entry, &block, queued + 1})) break;
    ++queued;
  }
  if (queued < count) {
    // The caller will run the rest inline; they were never pending.
    std::lock_guard lock(block.mutex);
    block.pending -= count - queued;
  }
  return queued;
}

void Executor::wait_fan_out(FanOut& block) {
  std::unique_lock lock(block.mutex);
  block.done.wait(lock, [&] { return block.pending == 0; });
}

namespace {

struct SubmitCtx {
  std::function<void()> task;
  std::shared_ptr<Executor::TaskHandle::State> state;
  std::atomic<std::int64_t>* long_tasks = nullptr;
};

void run_submit(SubmitCtx& ctx) {
  try {
    ctx.task();
  } catch (...) {
    std::lock_guard lock(ctx.state->mutex);
    ctx.state->error = std::current_exception();
  }
  // Destroy the task — and everything it captured — BEFORE publishing
  // completion: the moment `done` is visible a waiter may drop its own
  // references and even release the executor, and a capture holding the
  // last shared_ptr to the pool would then run ~Executor on this worker
  // thread (self-join). After the signal this worker owns no user state.
  ctx.task = nullptr;
  if (ctx.long_tasks != nullptr) {
    ctx.long_tasks->fetch_sub(1, std::memory_order_relaxed);
    executor_metrics().long_tasks.add(-1.0);
  }
  std::lock_guard lock(ctx.state->mutex);
  ctx.state->done = true;
  ctx.state->cv.notify_all();
}

void submit_entry(void* ctx, std::size_t) {
  std::unique_ptr<SubmitCtx> owned(static_cast<SubmitCtx*>(ctx));
  run_submit(*owned);
}

}  // namespace

Executor::TaskHandle Executor::submit(std::function<void()> task) {
  auto state = std::make_shared<TaskHandle::State>();
  if (workers_.empty() || on_worker_thread()) {
    SubmitCtx ctx{std::move(task), state, nullptr};
    run_submit(ctx);
    return TaskHandle(std::move(state));
  }
  // Least long-loaded worker, round-robin tiebreak.
  const std::size_t start =
      next_worker_.fetch_add(1, std::memory_order_relaxed);
  std::size_t best = start % workers_.size();
  std::int64_t best_load = std::numeric_limits<std::int64_t>::max();
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const std::size_t w = (start + i) % workers_.size();
    const std::int64_t load =
        workers_[w]->long_tasks.load(std::memory_order_relaxed);
    if (load < best_load) {
      best_load = load;
      best = w;
    }
  }
  Worker& worker = *workers_[best];
  worker.long_tasks.fetch_add(1, std::memory_order_relaxed);
  executor_metrics().long_tasks.add(1.0);
  auto* ctx = new SubmitCtx{std::move(task), state, &worker.long_tasks};
  if (!try_push(worker, {&submit_entry, ctx, 0})) {
    std::unique_ptr<SubmitCtx> owned(ctx);
    owned->long_tasks = nullptr;
    worker.long_tasks.fetch_sub(1, std::memory_order_relaxed);
    executor_metrics().long_tasks.add(-1.0);
    run_submit(*owned);
  }
  return TaskHandle(std::move(state));
}

}  // namespace eid::util
