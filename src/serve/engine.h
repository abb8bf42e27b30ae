#ifndef LUTDLA_SERVE_ENGINE_H
#define LUTDLA_SERVE_ENGINE_H

/**
 * @file
 * InferenceEngine: batched multi-threaded serving on top of a FrozenModel.
 *
 * Once LUTBoost freezes a model, inference is pure table-gather-and-
 * accumulate — an embarrassingly batchable workload. The engine exploits
 * that with a bounded MPMC request queue and a worker pool that performs
 * dynamic batching: a worker opens a batch with the first request it pops
 * and admits every request already queued, up to `max_batch` rows. Once
 * the queue is empty the batch waits for more arrivals only while every
 * other worker is busy, and at most `max_wait_us` after it opened: an
 * idle worker would take the next arrival itself, so holding the batch
 * open then only adds latency (work-conserving batching). A one-worker
 * engine always waits out the window.
 * The coalesced rows run through the frozen stage graph
 * (FrozenModel::forwardBatch): each worker iterates the model's stages with
 * its own reusable StageScratch, so steady-state batches perform no
 * allocations and each LUT stage's row-blocked arena kernel is where the
 * throughput comes from — every subspace's table bank is loaded into cache
 * once per batch instead of once per row.
 *
 * Intra-batch parallelism: dynamic batching alone serializes a LARGE
 * batch on the one worker that coalesced it, so on a multi-worker engine
 * each LUT stage additionally shards its encode and gather phases over
 * the pool (IntraBatchPool, implemented here): the initiating worker
 * publishes a shard task on the shared WorkQueue, idle workers steal row
 * blocks from it (wait-free atomic cursor), and every participant runs
 * kernels with its own scratch. Busy workers simply don't help — progress
 * never depends on a free worker — and results are bit-exact with the
 * unsharded sweep because shards cover disjoint rows.
 *
 * Request lifecycle: submitAsync() validates, stamps, and enqueues the
 * request and returns a future; a worker later fulfills the promise with
 * the [rows, outputWidth] result or a typed api::Status. submit() is the
 * blocking convenience wrapper. Every error is data — the engine never
 * panics on a bad request.
 *
 * Admission control: the classic submitAsync() blocks for backpressure
 * when the bounded queue is full — correct for trusted in-process
 * producers, wrong under overload from many tenants (the producer hangs
 * unboundedly). AdmitOptions bounds that wait: max_wait_us = 0 is the
 * non-blocking trySubmit path, > 0 waits at most that long; either way a
 * full queue answers with a typed ResourceExhausted instead of blocking.
 * The multi-tenant FrontDoor (serve/frontdoor.h) builds its never-block
 * priority shedding on the same principle.
 *
 * Shutdown contract: shutdown() refuses new submissions, lets workers
 * drain everything already queued, then joins them; every accepted request
 * still gets its result. The destructor calls shutdown().
 */

#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "api/status.h"
#include "serve/frozen_model.h"
#include "serve/request_queue.h"
#include "serve/stats.h"
#include "tensor/tensor.h"

namespace lutdla::serve {

/** Engine tuning knobs; see docs/SERVING.md for the tuning guide. */
struct EngineOptions
{
    /** Worker threads; 0 means std::thread::hardware_concurrency(). */
    int threads = 0;
    /** Max rows per executed batch (also the per-request row cap). */
    int64_t max_batch = 64;
    /** Max microseconds an open batch waits for more rows while every
     * other worker is busy (an idle worker closes the batch at once). */
    int64_t max_wait_us = 200;
    /** Bounded request-queue capacity (requests, not rows). */
    int64_t queue_capacity = 256;
    /**
     * Spawn workers in the constructor. Turn off to pre-fill the queue and
     * then start() — deterministic batch composition, used by tests and
     * the serving demo. While workers are not running, submissions beyond
     * queue_capacity fail fast with FailedPrecondition instead of
     * blocking (nothing could ever drain the queue).
     */
    bool autostart = true;
};

/**
 * How long a submission may wait for queue space before it is refused
 * with ResourceExhausted: -1 blocks indefinitely (the classic
 * backpressure behavior), 0 never waits (trySubmit), > 0 waits at most
 * that many microseconds.
 */
struct AdmitOptions
{
    int64_t max_wait_us = -1;

    /** Non-blocking admission (fail fast when the queue is full). */
    static AdmitOptions
    nonBlocking()
    {
        return {0};
    }

    /** Wait at most `us` microseconds for queue space. */
    static AdmitOptions
    boundedWait(int64_t us)
    {
        return {us};
    }
};

/** Batched multi-threaded inference engine over a frozen LUT model.
 * Implements IntraBatchPool so LUT stages can shard a batch's encode /
 * gather phases across the worker pool. */
class InferenceEngine : private IntraBatchPool
{
  public:
    /**
     * Validate options and build an engine. InvalidArgument on nonsense
     * knobs (threads < 0, max_batch < 1, ...). The returned engine is
     * ready for submissions (workers already running when autostart).
     */
    static api::Result<std::shared_ptr<InferenceEngine>>
    create(FrozenModel model, const EngineOptions &options = {});

    /** Prefer create(); this constructor trusts `options` blindly. */
    InferenceEngine(FrozenModel model, const EngineOptions &options);

    InferenceEngine(const InferenceEngine &) = delete;
    InferenceEngine &operator=(const InferenceEngine &) = delete;

    /** Graceful shutdown() — accepted requests are always answered. */
    ~InferenceEngine();

    /** Spawn the worker pool; idempotent; no-op after shutdown(). */
    void start();

    /**
     * Refuse new submissions, drain queued work, join workers. Idempotent.
     * If the engine was never start()ed, queued requests are failed with
     * FailedPrecondition instead of hanging.
     */
    void shutdown();

    /**
     * Serve one request of [rows, inputWidth()] and block for the result.
     * Errors come back as statuses: InvalidArgument for zero rows, width
     * mismatch, or rows > max_batch; FailedPrecondition after shutdown().
     */
    api::Result<Tensor> submit(const Tensor &rows);

    /** Fire-and-wait-later variant of submit(). */
    std::future<api::Result<Tensor>> submitAsync(Tensor rows);

    /**
     * submitAsync() with explicit admission control: when the queue is
     * full, wait at most admit.max_wait_us for space (0 = don't wait)
     * and answer ResourceExhausted on timeout instead of blocking the
     * submitter unboundedly.
     */
    std::future<api::Result<Tensor>> submitAsync(Tensor rows,
                                                 AdmitOptions admit);

    /**
     * Non-blocking submit: serve the request if the queue has space
     * right now, otherwise return ResourceExhausted immediately (still
     * blocks for the RESULT like submit(); only admission never waits).
     */
    api::Result<Tensor> trySubmit(const Tensor &rows);

    /** Consistent snapshot of the lifetime serving statistics. */
    EngineStats stats() const;

    /** The frozen model being served. */
    const FrozenModel &model() const { return model_; }

    /** The options the engine runs with. */
    const EngineOptions &options() const { return options_; }

  private:
    struct Request
    {
        Tensor input;
        std::promise<api::Result<Tensor>> promise;
        std::chrono::steady_clock::time_point enqueued;
        int64_t rows = 0;
    };

    void workerLoop(int slot);
    void runBatch(std::vector<Request> &batch, int64_t rows,
                  StageScratch &scratch, int slot);
    void failRemaining();

    /** Claim-and-run loop every shard participant executes. Returns
     * whether this participant executed at least one block — workerLoop
     * uses that to count shard-stealing helpers as active workers. */
    bool runShards(ShardTask &task, StageScratch &scratch);

    /** IntraBatchPool: shard a LUT-stage phase over the worker pool. */
    void parallelFor(int64_t blocks, const ShardFn &fn,
                     StageScratch &caller) override;

    FrozenModel model_;
    EngineOptions options_;
    WorkQueue<Request> queue_;

    std::mutex lifecycle_mu_;
    std::vector<std::thread> workers_;
    bool started_ = false;
    bool shut_down_ = false;

    mutable std::mutex stats_mu_;
    uint64_t requests_ = 0;
    uint64_t rows_ = 0;
    uint64_t batches_ = 0;
    uint64_t rejected_ = 0;
    std::vector<uint64_t> batch_fill_;
    uint64_t encode_ns_ = 0;
    uint64_t gather_ns_ = 0;
    std::vector<uint8_t> worker_ran_batch_;  ///< per-slot participation
    LatencyHistogram latency_;
    LatencyHistogram queue_wait_;  ///< submit -> batch execution start
    LatencyHistogram service_;     ///< batch execution start -> done
    bool saw_first_submit_ = false;
    std::chrono::steady_clock::time_point first_submit_;
    std::chrono::steady_clock::time_point last_done_;
};

} // namespace lutdla::serve

#endif // LUTDLA_SERVE_ENGINE_H
