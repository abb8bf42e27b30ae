#ifndef LUTDLA_SERVE_REQUEST_QUEUE_H
#define LUTDLA_SERVE_REQUEST_QUEUE_H

/**
 * @file
 * WorkQueue: the engine's combined work source — a bounded MPMC request
 * queue PLUS the shared shard-block queue behind intra-batch parallelism
 * — under ONE mutex/condition pair, so an idle worker sleeps on a single
 * wait and wakes for whichever kind of work arrives first.
 *
 * Why combined: with separate queues, a worker blocked waiting for
 * requests could never notice shard work (another worker splitting a big
 * batch), which is exactly the situation intra-batch sharding exists for.
 * One condition variable covering both is the simplest structure that
 * cannot miss a wakeup. The queue half keeps the classic two-condition
 * bounded design: blocking push doubles as admission control
 * (backpressure) when submitters outrun the workers.
 *
 * Shard tasks: an initiating worker publishes a ShardTask (a closure over
 * `blocks` independent row blocks), runs blocks itself, and waits for
 * stragglers; idle workers steal blocks by bumping the task's atomic
 * cursor — a wait-free claim, so the lock is only held to publish, sleep,
 * and signal completion. Every participant runs shards with its OWN
 * StageScratch (passed by the worker loop), which is what keeps the
 * kernels allocation-free and race-free.
 *
 * Work-conserving windows: the queue counts the workers parked idle in
 * popWork(), and popIf() — the batcher's "wait for one more row" — does
 * not wait while that count is above zero. A worker that parks wakes any
 * waiting batcher, so an open window never outlasts an idle worker.
 *
 * Close semantics: after close(), pushes are refused but request pops
 * keep draining, and workers still steal whatever shard blocks remain —
 * an in-flight batch always completes. That is the graceful-shutdown
 * contract InferenceEngine::shutdown() needs.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "serve/stage.h"

namespace lutdla::serve {

/**
 * One intra-batch parallel-for in flight: `blocks` shards claimed via the
 * atomic `next` cursor (work-stealing without a lock), `completed` counts
 * finished shards. Published on the WorkQueue by the initiating worker;
 * helpers hold shared_ptr copies, so the task outlives early removal.
 */
struct ShardTask
{
    ShardFn fn;                       ///< runs one block on any worker
    int64_t blocks = 0;               ///< total shard count
    std::atomic<int64_t> next{0};     ///< next unclaimed block
    std::atomic<int64_t> completed{0};///< finished blocks
};

/** Combined bounded MPMC request queue + shard-block queue. T movable. */
template <typename T>
class WorkQueue
{
  public:
    explicit WorkQueue(size_t capacity) : capacity_(capacity) {}

    WorkQueue(const WorkQueue &) = delete;
    WorkQueue &operator=(const WorkQueue &) = delete;

    /**
     * Block until space is available, then enqueue.
     * @return false when the queue was closed (item is dropped).
     */
    bool
    push(T item)
    {
        std::unique_lock<std::mutex> lock(mu_);
        not_full_.wait(lock, [&] {
            return closed_ || items_.size() < capacity_;
        });
        if (closed_)
            return false;
        items_.push_back(std::move(item));
        work_.notify_one();
        return true;
    }

    /**
     * Enqueue, waiting at most `timeout` for space — the bounded-wait
     * admission path between push() (block forever) and tryPush()
     * (never wait). @return false on timeout or close (item dropped).
     */
    bool
    pushFor(T item, std::chrono::steady_clock::duration timeout)
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (!not_full_.wait_for(lock, timeout, [&] {
                return closed_ || items_.size() < capacity_;
            }))
            return false;
        if (closed_)
            return false;
        items_.push_back(std::move(item));
        work_.notify_one();
        return true;
    }

    /**
     * Enqueue only if space is available right now (never blocks).
     * @return false when full or closed (item is dropped).
     */
    bool
    tryPush(T item)
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (closed_ || items_.size() >= capacity_)
            return false;
        items_.push_back(std::move(item));
        work_.notify_one();
        return true;
    }

    /**
     * Block until ANY work exists, preferring shard work: returns a
     * claimable ShardTask via `task`, or a dequeued request, or nullopt
     * with null `task` only when closed AND fully drained (requests and
     * shard blocks both exhausted) — the worker-exit signal.
     */
    std::optional<T>
    popWork(std::shared_ptr<ShardTask> &task)
    {
        std::unique_lock<std::mutex> lock(mu_);
        const auto ready = [&] {
            return closed_ || !items_.empty() || claimableLocked();
        };
        while (true) {
            if (!ready()) {
                // Parking idle: an open batch window must not keep
                // waiting while this worker could take the next arrival.
                ++idle_;
                if (window_waiters_ > 0)
                    work_.notify_all();
                work_.wait(lock, ready);
                --idle_;
            }
            task = claimableTaskLocked();
            if (task)
                return std::nullopt;
            if (!items_.empty())
                return takeFrontLocked();
            if (closed_)
                return std::nullopt;  // null task + nullopt = exit
            // Spurious satisfaction: the shard task that woke us was
            // drained (lock-free cursor) before we could claim it. Keep
            // waiting — returning here would make a live worker exit.
        }
    }

    /**
     * Dequeue the front request only if `admit(front)` accepts it. When
     * the queue is empty, wait up to `timeout` for one to arrive — but
     * only while no other worker is parked idle in popWork(): an idle
     * worker takes the next arrival itself, so holding the batch open
     * would add latency and gain nothing (work-conserving batching).
     * Returns nullopt on timeout, when a worker is idle, on a rejected
     * front item (left in place), or when closed and drained — all mean
     * "close the current batch" to the engine's batcher. Shard work
     * never interrupts batch filling; the worker helps again once its
     * own batch is done.
     */
    template <typename Pred>
    std::optional<T>
    popIf(std::chrono::steady_clock::duration timeout, const Pred &admit)
    {
        std::unique_lock<std::mutex> lock(mu_);
        ++window_waiters_;
        work_.wait_for(lock, timeout, [&] {
            return closed_ || !items_.empty() || idle_ > 0;
        });
        --window_waiters_;
        if (items_.empty() || !admit(items_.front()))
            return std::nullopt;
        return takeFrontLocked();
    }

    /** Dequeue a request without blocking; nullopt when empty. */
    std::optional<T>
    tryPop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        return takeFrontLocked();
    }

    /**
     * Publish a shard task and wake every idle worker. The CALLER must
     * then claim blocks itself (claim/finish) and finally
     * waitTaskDone() — publication never blocks.
     */
    std::shared_ptr<ShardTask>
    publishShards(int64_t blocks, ShardFn fn)
    {
        auto task = std::make_shared<ShardTask>();
        task->fn = std::move(fn);
        task->blocks = blocks;
        std::unique_lock<std::mutex> lock(mu_);
        tasks_.push_back(task);
        work_.notify_all();
        return task;
    }

    /** Mark one shard finished; signals waiters when the task completes. */
    void
    finishShard(ShardTask &task)
    {
        if (task.completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            task.blocks) {
            std::unique_lock<std::mutex> lock(mu_);
            task_done_.notify_all();
        }
    }

    /** Block until every block of `task` completed, then retire it. */
    void
    waitTaskDone(const std::shared_ptr<ShardTask> &task)
    {
        std::unique_lock<std::mutex> lock(mu_);
        task_done_.wait(lock, [&] {
            return task->completed.load(std::memory_order_acquire) ==
                   task->blocks;
        });
        for (size_t i = 0; i < tasks_.size(); ++i) {
            if (tasks_[i] == task) {
                tasks_.erase(tasks_.begin() + static_cast<long>(i));
                break;
            }
        }
    }

    /** Refuse new pushes and wake every waiter. Pops keep draining. */
    void
    close()
    {
        std::unique_lock<std::mutex> lock(mu_);
        closed_ = true;
        work_.notify_all();
        not_full_.notify_all();
        task_done_.notify_all();
    }

    /** True after close(). */
    bool
    closed() const
    {
        std::unique_lock<std::mutex> lock(mu_);
        return closed_;
    }

    /** Instantaneous request depth (racy by nature; for stats only). */
    size_t
    size() const
    {
        std::unique_lock<std::mutex> lock(mu_);
        return items_.size();
    }

  private:
    bool
    claimableLocked() const
    {
        for (const auto &task : tasks_)
            if (task->next.load(std::memory_order_relaxed) < task->blocks)
                return true;
        return false;
    }

    std::shared_ptr<ShardTask>
    claimableTaskLocked() const
    {
        for (const auto &task : tasks_)
            if (task->next.load(std::memory_order_relaxed) < task->blocks)
                return task;
        return nullptr;
    }

    std::optional<T>
    takeFrontLocked()
    {
        if (items_.empty())
            return std::nullopt;
        std::optional<T> item(std::move(items_.front()));
        items_.pop_front();
        not_full_.notify_one();
        return item;
    }

    mutable std::mutex mu_;
    std::condition_variable work_;       ///< requests OR shard work OR close
    std::condition_variable not_full_;   ///< backpressure
    std::condition_variable task_done_;  ///< shard-task completion
    std::deque<T> items_;
    std::vector<std::shared_ptr<ShardTask>> tasks_;
    size_t capacity_;
    bool closed_ = false;
    int idle_ = 0;            ///< workers parked in popWork()
    int window_waiters_ = 0;  ///< batchers waiting in popIf()
};

} // namespace lutdla::serve

#endif // LUTDLA_SERVE_REQUEST_QUEUE_H
