#ifndef SERVEBENCH_BENCH_H
#define SERVEBENCH_BENCH_H

/**
 * @file
 * Shared declarations of the serving benchmark: metric sets, the span
 * recorder behind the traced run, the seeded load generator, the
 * workloads and the per-layer replay. See servebench/README.md for what
 * each workload measures and why.
 */

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "api/status.h"
#include "serve/frozen_model.h"
#include "tensor/tensor.h"

namespace servebench {

using lutdla::Tensor;
using Clock = std::chrono::steady_clock;
using Served = std::future<lutdla::api::Result<Tensor>>;

/** Microseconds since a process-wide epoch (the first call). */
double nowUs();

/** Median / arbitrary quantile of a sample (linear interpolation). */
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** One reported number. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** Ordered metric list; set() replaces a metric of the same name. */
class MetricSet
{
  public:
    void set(const std::string &name, const std::string &unit,
             double value);
    const std::vector<Metric> &items() const { return items_; }
    /** Value of `name`; aborts the run when it was never set. */
    double get(const std::string &name) const;

  private:
    std::vector<Metric> items_;
};

// ---- spans -------------------------------------------------------------

/**
 * In-memory span store for the traced run. A span is a closed interval
 * on the nowUs() clock with a name, a category (the layer), a parent
 * span id (0 = root) and a flat set of string arguments. Disabled
 * recorders drop everything, so the untraced run pays one branch per
 * call site. Spans are written at exit as Chrome trace-event JSON.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Reserve an id for a span whose children are recorded before it
     * closes (0 when disabled). */
    int64_t reserve();

    /** Record a finished span under a reserved or fresh id. */
    int64_t add(const std::string &name, const std::string &cat,
                double start_us, double end_us, int64_t parent = 0,
                std::map<std::string, std::string> args = {},
                int64_t id = 0, int tid = 0);

    struct Span
    {
        int64_t id = 0;
        int64_t parent = 0;
        int tid = 0;
        std::string name;
        std::string cat;
        double start_us = 0.0;
        double end_us = 0.0;
        std::map<std::string, std::string> args;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Per-span self time: duration minus the union of its children. */
    std::map<int64_t, double> selfTimesUs() const;

    /** Chrome trace-event JSON ("X" events, µs, args carry id/parent
     * and the span's self time). */
    std::string chromeJson() const;

  private:
    bool enabled_;
    std::mutex mu_;
    int64_t next_id_ = 1;
    std::vector<Span> spans_;
};

/** RAII span: opens at construction, records at destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, std::string name, std::string cat,
               int64_t parent = 0,
               std::map<std::string, std::string> args = {});
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int64_t id() const { return id_; }
    /** Seconds since the span opened. */
    double elapsedS() const { return (nowUs() - start_us_) * 1e-6; }

  private:
    SpanRecorder &rec_;
    std::string name_, cat_;
    int64_t parent_;
    std::map<std::string, std::string> args_;
    int64_t id_;
    double start_us_;
};

// ---- load generation ---------------------------------------------------

/** Derive an independent stream seed from the workload seed. */
uint64_t streamSeed(uint64_t seed, uint64_t stream);

/** [rows, width] of N(0, 1) floats, a pure function of `seed`. */
Tensor gaussianRows(int64_t rows, int64_t width, uint64_t seed);

/** Poisson arrival offsets in µs over [0, duration_s), a pure function
 * of (rate, duration, seed). */
std::vector<double> poissonArrivalsUs(double rate_per_s, double duration_s,
                                      uint64_t seed);

/** FNV-1a digest of raw bytes: the input fingerprint each run prints,
 * so runs can be checked to have seen identical rows and schedules. */
uint64_t digest(const void *data, size_t bytes);

/** Why a request did not count as served correctly. */
enum class Fate : uint8_t
{
    Ok,
    Error,     ///< typed error status other than the two below
    Shed,      ///< ResourceExhausted (queue full or evicted)
    Deadline,  ///< DeadlineExceeded
    Mismatch,  ///< output differs from the pinned snapshot's forwardBatch
};

/** One request's timeline (nowUs clock) and fate. */
struct RequestRecord
{
    double due_us = 0.0;     ///< when the schedule said to send it
    double submit_us = 0.0;  ///< when submit returned
    double done_us = 0.0;    ///< when the generator saw the result
    int64_t payload = 0;     ///< index into the stream's payload pool
    int64_t rows = 0;
    Fate fate = Fate::Ok;
    int32_t top1 = -1;       ///< argmax of the first served row
};

/**
 * The traffic of one workload, driven by the generator thread. An open
 * stream sends payload i at start + due_us[i]; a closed stream keeps
 * `outstanding` requests in flight, cycling through `payloads` until the
 * end time.
 */
struct Stream
{
    std::string name;
    bool open = true;
    std::vector<double> due_us;       ///< open: arrival offsets
    int64_t outstanding = 0;          ///< closed: requests in flight
    int64_t payloads = 0;             ///< closed: payload pool size
    double limit_us = 0.0;            ///< goodput latency limit
    std::function<Served(int64_t payload)> submit;
    /** Bit-exact check of a served tensor; returns the top-1 label of
     * its first row, or -2 on mismatch. */
    std::function<int32_t(int64_t payload, const Tensor &out)> check;
    /** A deque, so growth never copies: the benchmark's own memory
     * stays proportional to the requests sent. */
    std::deque<RequestRecord> records;
};

/**
 * Run `stream` until `duration_s` (an open stream stops at its last
 * arrival, a closed one stops re-sending), then drain. The calling
 * thread submits and polls; returns the start time (nowUs). When
 * `spans` is enabled, each request is recorded as it completes — a
 * "request" span (due -> done) under `parent` with a "submit->done"
 * child — for at most ~20k requests of an open stream (a fixed stride
 * beyond that).
 */
double driveStream(Stream &stream, double duration_s, SpanRecorder &spans,
                   int64_t parent);

/** Window summary of a stream's records inside [from_us, to_us). */
struct WindowStats
{
    int64_t attempted = 0;  ///< requests due inside the window
    int64_t failed = 0;
    int64_t ok = 0, shed = 0, errors = 0, deadline = 0, mismatch = 0;
    double rows_per_s = 0.0;     ///< median over sub-windows
    double p50_us = 0.0;         ///< median over sub-windows
    double p90_us = 0.0;         ///< whole window (printed, not bounded)
    double p99_us = 0.0;         ///< whole window (printed, not bounded)
    double goodput_rps = 0.0;    ///< median over sub-windows
    double late_p99_us = 0.0;    ///< generator lateness, whole window
    int64_t latency_samples = 0;
};

/** Latency is measured from `due_us` (open) or submit (closed); a
 * request is good when it is Ok and its latency is <= stream.limit_us. */
WindowStats summarize(const Stream &stream, double from_us, double to_us,
                      int sub_windows);

// ---- workloads ---------------------------------------------------------

/** Command-line options of one run. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;
};

/** Everything one run reports. */
struct RunResult
{
    bool correct = true;
    int64_t attempted = 0;
    int64_t failed = 0;
    MetricSet metrics;
    bool valid = true;          ///< generator kept up with its schedule
    std::vector<std::string> notes;  ///< human-readable summary lines
};

/** Names of the workloads, in BENCHMARK.json order. */
std::vector<std::string> workloadNames();

/** Run one workload; returns false for an unknown workload name. */
bool runWorkload(const RunOptions &options, SpanRecorder &spans,
                 RunResult &result);

// ---- per-layer replay --------------------------------------------------

/**
 * Time the layers of `model` from the outside at a batch of `fill` rows:
 * FrozenModel::forwardBatch (exec), each stage's forward (stage), every
 * LUT arena's encode/gather kernels at each precision (kernel).
 * Adds exec.*, stage.* and kernel.* metrics and a per-stage-kind
 * breakdown to `notes`; every timed call is a span under `parent`.
 */
void replayLayers(const lutdla::serve::FrozenModel &model, int64_t fill,
                  uint64_t seed, SpanRecorder &spans, int64_t parent,
                  MetricSet &metrics, std::vector<std::string> &notes);

/** mem.* metrics: the served model's byte accessors. */
void memoryMetrics(const lutdla::serve::FrozenModel &model,
                   MetricSet &metrics);

} // namespace servebench

#endif // SERVEBENCH_BENCH_H
