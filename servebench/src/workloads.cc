/**
 * @file
 * The workloads. Each one builds its models through the public serving
 * API, drives them from one generator thread, checks every response bit
 * for bit against the pinned snapshot's FrozenModel::forwardBatch, and
 * reports the end-to-end metrics (untraced run) or the per-layer ones
 * (traced run). Sizes are fixed for a 4-core host: 3 serving workers
 * (nproc - 1) plus the generator thread.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdarg>
#include <cstring>
#include <memory>
#include <sys/resource.h>
#include <thread>

#include "api/lutdla.h"
#include "bench.h"
#include "lutboost/converter.h"
#include "lutboost/lut_linear.h"
#include "serve/autotune.h"
#include "serve/engine.h"
#include "serve/frontdoor.h"
#include "workloads/model_zoo.h"

namespace servebench {

namespace api = lutdla::api;
namespace serve = lutdla::serve;
namespace nn = lutdla::nn;
namespace lutboost = lutdla::lutboost;

namespace {

constexpr int kWorkers = 3;             // nproc - 1 on the reference host
// Set-up is repeated (at least kMinSetups times, then until
// kSetupBudgetS has passed) and setup_s is the median; the last set-up
// is the one served.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 200;
constexpr double kSetupBudgetS = 2.0;
constexpr double kWarmupS = 0.5;        // traffic before the window opens
constexpr int kSubWindows = 15;         // latency/throughput medians
constexpr double kInteractiveLimitUs = 1000.0;  // goodput limit, 1 row
constexpr double kBulkLimitUs = 100000.0;       // goodput limit, 64 rows
constexpr double kLateLimitUs = 1000.0;  // generator p99 lateness limit
// Offered load of online-mixture. At 2k and 30k req/s the p99 on the
// 4-core reference VM swung 0.5-2 ms and 0.3-4.5 ms between runs with
// host noise; at 10k it holds near 3 ms, so that is the rung kept.
constexpr double kOnlineRate = 10000.0;
constexpr int64_t kBulkRows = 64;       // rows per bulk request
constexpr uint64_t kTunerProbeSeed = 17;  // AutoTuneOptions default

[[noreturn]] void
die(const std::string &what, const api::Status &status)
{
    std::fprintf(stderr, "servebench: %s: %s\n", what.c_str(),
                 status.toString().c_str());
    std::exit(3);
}

template <typename T>
T
take(api::Result<T> result, const std::string &what)
{
    if (!result.ok())
        die(what, result.status());
    return result.take();
}

int32_t
argmax(const float *row, int64_t width)
{
    int64_t best = 0;
    for (int64_t n = 1; n < width; ++n)
        if (row[n] > row[best])
            best = n;
    return static_cast<int32_t>(best);
}

/** Time one setup phase and record it as a span. */
template <typename F>
double
phase(SpanRecorder &spans, int64_t parent, const std::string &name, F fn)
{
    ScopedSpan span(spans, "setup." + name, "setup", parent);
    fn();
    return span.elapsedS();
}

bool
moreSetups(int done, double start_us)
{
    return done < kMaxSetups &&
           (done < kMinSetups || nowUs() - start_us < kSetupBudgetS * 1e6);
}

struct SetupTimes
{
    double convert = 0, lower = 0, autotune = 0, publish = 0;
    int64_t evals = 0;
    double total() const { return convert + lower + autotune + publish; }
};

/** Median phase times over the repeats; setup_s is the median total. */
void
setupMetrics(const std::vector<SetupTimes> &runs, MetricSet &e2e,
             MetricSet &layer)
{
    auto med = [&](double SetupTimes::*field) {
        std::vector<double> v;
        for (const SetupTimes &t : runs)
            v.push_back(t.*field);
        return median(v);
    };
    std::vector<double> totals;
    for (const SetupTimes &t : runs)
        totals.push_back(t.total());
    e2e.set("setup_s", "s", median(totals));
    layer.set("setup.convert_s", "s", med(&SetupTimes::convert));
    layer.set("setup.lower_s", "s", med(&SetupTimes::lower));
    layer.set("setup.autotune_s", "s", med(&SetupTimes::autotune));
    layer.set("setup.autotune_evals", "count",
              static_cast<double>(runs.back().evals));
    layer.set("setup.publish_s", "s", med(&SetupTimes::publish));
}

/**
 * Run `fn(times, root_span)` at least kMinSetups times and then until
 * kSetupBudgetS has passed, each under one "setup" span. `fn` must drop
 * the previous set-up's serving objects before its first phase, so their
 * teardown is not timed; the last set-up is the one served.
 */
template <typename F>
std::vector<SetupTimes>
repeatSetup(SpanRecorder &spans, F fn)
{
    std::vector<SetupTimes> times;
    const double start = nowUs();
    for (int rep = 0; moreSetups(rep, start); ++rep) {
        SetupTimes t;
        ScopedSpan root(spans, "setup", "setup", 0,
                        {{"repeat", std::to_string(rep)}});
        fn(t, root.id());
        times.push_back(t);
    }
    return times;
}

// ---- models ------------------------------------------------------------

/** The trained mlp-mixture model, converted as in serving_demo. */
nn::LayerPtr
convertMixture()
{
    lutboost::ConvertOptions opts;
    opts.pq.v = 4;
    opts.pq.c = 16;
    auto builder = api::Pipeline::forWorkload("mlp-mixture")
                       .pretrain()
                       .convert(opts)
                       .deployPrecision(lutdla::vq::LutPrecision{true, false});
    auto run = builder.report();
    if (!run.ok())
        die("mlp-mixture conversion", run.status());
    nn::LayerPtr net = builder.convertedModel();
    for (lutboost::LutLinear *layer : lutboost::findLutLayers(net))
        if (!layer->inferenceLutReady())
            layer->refreshInferenceLut();
    return net;
}

/** Float32 plan + the 0.90-budget auto-tuned plan of the mixture. */
struct Mixture
{
    serve::FrozenModel reference;  ///< bit-exact float32 plan
    serve::FrozenModel tuned;      ///< what is served
    int64_t evals = 0;
};

Mixture
lowerMixture(const nn::LayerPtr &net, SpanRecorder &spans, int64_t parent,
             SetupTimes &t)
{
    Mixture m;
    t.lower += phase(spans, parent, "lower", [&] {
        m.reference = take(serve::FrozenModel::fromModel(net),
                           "mlp-mixture lowering");
    });
    t.autotune += phase(spans, parent, "autotune", [&] {
        serve::AutoTuneOptions opts;
        opts.agreement_budget = 0.90;
        const serve::AutoTuneResult tuned =
            serve::autoTunePrecision(m.reference, {}, opts);
        serve::PlanOptions plan;
        plan.stage_precision = tuned.stage_precision;
        plan.stage_encode_precision = tuned.stage_encode_precision;
        m.tuned = m.reference.withPlan(plan);
        m.evals = tuned.evals;
    });
    t.evals += m.evals;
    return m;
}

/** The fixed heterogeneous resnet18 plan: float32 tables on the first
 * and last LUT stage, int8/int4 alternating in between, int8 encode on
 * the int4 stages. */
serve::PlanOptions
resnetPlan(int64_t lut_stages)
{
    serve::PlanOptions plan;
    for (int64_t i = 0; i < lut_stages; ++i) {
        serve::TablePrecision p = serve::TablePrecision::Float32;
        if (i > 0 && i + 1 < lut_stages)
            p = i % 2 == 1 ? serve::TablePrecision::Int8
                           : serve::TablePrecision::Int4;
        plan.stage_precision.push_back(p);
        plan.stage_encode_precision.push_back(
            p == serve::TablePrecision::Int4 ? serve::EncodePrecision::Int8
                                             : serve::EncodePrecision::Float32);
    }
    return plan;
}

/** Share of rows whose top-1 under `a` equals the top-1 under `b`. */
double
agreement(const Tensor &a, const Tensor &b)
{
    const int64_t rows = a.dim(0), width = a.dim(1);
    int64_t same = 0;
    for (int64_t r = 0; r < rows; ++r)
        same += argmax(a.data() + r * width, width) ==
                argmax(b.data() + r * width, width);
    return static_cast<double>(same) / static_cast<double>(rows);
}

/** Mean over rows of the cosine similarity between rows of `a` and `b`. */
double
meanCosine(const Tensor &a, const Tensor &b)
{
    const int64_t rows = a.dim(0), width = a.dim(1);
    double total = 0;
    for (int64_t r = 0; r < rows; ++r) {
        double dot = 0, na = 0, nb = 0;
        for (int64_t n = 0; n < width; ++n) {
            const double x = a.data()[r * width + n], y = b.data()[r * width + n];
            dot += x * y;
            na += x * x;
            nb += y * y;
        }
        total += na > 0 && nb > 0 ? dot / std::sqrt(na * nb) : 0.0;
    }
    return total / static_cast<double>(rows);
}

/**
 * model.forwardBatch over `rows` in chunks of 256 rows (so the scratch
 * this needs stays below what serving itself uses and peak_rss_mb is not
 * the benchmark's), spread over kWorkers threads. Rows are independent,
 * so the result is bit-identical to one forwardBatch call over all of
 * them.
 */
Tensor
parallelForward(const serve::FrozenModel &model, const Tensor &rows)
{
    const int64_t n = rows.dim(0), in_w = rows.dim(1);
    const int64_t out_w = model.outputWidth(), chunk = 256;
    Tensor out(lutdla::Shape{n, out_w});
    std::atomic<int64_t> next{0};
    auto work = [&] {
        serve::StageScratch scratch;
        for (int64_t r0; (r0 = next.fetch_add(chunk)) < n;) {
            const int64_t r1 = std::min(n, r0 + chunk);
            Tensor part(lutdla::Shape{r1 - r0, in_w});
            std::memcpy(part.data(), rows.data() + r0 * in_w,
                        sizeof(float) * static_cast<size_t>(part.numel()));
            const Tensor y = model.forwardBatch(part, scratch);
            std::memcpy(out.data() + r0 * out_w, y.data(),
                        sizeof(float) * static_cast<size_t>(y.numel()));
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < kWorkers; ++t)
        threads.emplace_back(work);
    for (std::thread &t : threads)
        t.join();
    return out;
}

/** Pool of request tensors cut from one seeded row block. */
std::vector<Tensor>
slicePool(const Tensor &rows, int64_t per_request)
{
    std::vector<Tensor> pool;
    const int64_t width = rows.dim(1);
    for (int64_t r = 0; r + per_request <= rows.dim(0); r += per_request) {
        Tensor t(lutdla::Shape{per_request, width});
        std::memcpy(t.data(), rows.data() + r * width,
                    sizeof(float) * static_cast<size_t>(per_request * width));
        pool.push_back(std::move(t));
    }
    return pool;
}

/** Bit-exact comparison of a served tensor with rows of `expected`
 * starting at `row0`; returns the top-1 of the first row or -2. */
int32_t
checkRows(const Tensor &expected, int64_t row0, const Tensor &out)
{
    const int64_t width = expected.dim(1);
    if (out.dim(1) != width || row0 + out.dim(0) > expected.dim(0) ||
        std::memcmp(out.data(), expected.data() + row0 * width,
                    sizeof(float) * static_cast<size_t>(out.numel())) != 0)
        return -2;
    return argmax(out.data(), width);
}

/** Top-1 agreement of the served payloads with the float32 plan's
 * labels, each distinct payload counted once. */
double
servedAgreement(const Stream &s, const std::vector<int32_t> &reference)
{
    std::vector<int8_t> seen(reference.size(), 0);
    int64_t total = 0, same = 0;
    for (const RequestRecord &r : s.records) {
        const size_t p = static_cast<size_t>(r.payload);
        if (r.fate != Fate::Ok || r.top1 < 0 || seen[p])
            continue;
        seen[p] = 1;
        ++total;
        same += r.top1 == reference[p];
    }
    return total ? static_cast<double>(same) / static_cast<double>(total)
                 : 0.0;
}

std::vector<int32_t>
labels(const Tensor &out, int64_t row_stride)
{
    std::vector<int32_t> l;
    for (int64_t r = 0; r < out.dim(0); r += row_stride)
        l.push_back(argmax(out.data() + r * out.dim(1), out.dim(1)));
    return l;
}

double
peakRssMb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void
note(RunResult &result, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

void
note(RunResult &result, const char *fmt, ...)
{
    char buf[4096];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    result.notes.push_back(buf);
}

/** Input fingerprint line for one stream (schedule 0 = closed loop). */
void
noteInputs(RunResult &result, const std::string &name, uint64_t rows,
           uint64_t schedule)
{
    note(result, "inputs %s: rows %016llx schedule %016llx", name.c_str(),
         static_cast<unsigned long long>(rows),
         static_cast<unsigned long long>(schedule));
}

/** sent/succeeded/failed line for one stream. */
void
noteStream(RunResult &result, const std::string &name, const WindowStats &w)
{
    note(result,
         "%s: sent %lld succeeded %lld failed %lld (shed %lld, deadline "
         "%lld, error %lld, mismatch %lld); latency p50 %.0f p90 %.0f p99 "
         "%.0f us over %lld samples; generator late p99 %.1f us",
         name.c_str(), static_cast<long long>(w.attempted),
         static_cast<long long>(w.ok), static_cast<long long>(w.failed),
         static_cast<long long>(w.shed), static_cast<long long>(w.deadline),
         static_cast<long long>(w.errors),
         static_cast<long long>(w.mismatch), w.p50_us, w.p90_us, w.p99_us,
         static_cast<long long>(w.latency_samples), w.late_p99_us);
}

/** The window of one measurement: warm-up plus `seconds`. */
struct Window
{
    double from_us = 0, to_us = 0;
};

Window
measure(Stream &stream, double seconds, SpanRecorder &spans,
        const std::string &label)
{
    ScopedSpan span(spans, label, "e2e");
    const double start =
        driveStream(stream, kWarmupS + seconds, spans, span.id());
    return {start + kWarmupS * 1e6, start + (kWarmupS + seconds) * 1e6};
}

/** What the measured window(s) gave. */
struct Measured
{
    WindowStats w;             ///< last (traced, when tracing) half
    double overhead_frac = 0;  ///< traced run only
};

/**
 * Measure `s` for --seconds, or, when tracing, for two halves back to
 * back: untraced, then with every request recorded as spans. `prepare`,
 * when set, rebuilds an open stream before each half for `duration_s`
 * of arrivals, with `salt` giving the traced half fresh inputs.
 * trace.overhead_frac is how much the primary metric moved (rows/s on a
 * closed stream, p50 on an open one); positive = the traced half was
 * slower. Failures and invalid runs of both halves go into `result`.
 */
Measured
measureStream(const RunOptions &opt, SpanRecorder &spans, Stream &s,
              const std::function<void(uint64_t salt, double duration_s)>
                  &prepare,
              RunResult &result)
{
    Measured m;
    double primary[2] = {0, 0};
    const int halves = opt.trace ? 2 : 1;
    for (int half = 0; half < halves; ++half) {
        SpanRecorder off(false);
        const bool traced = opt.trace && half == 1;
        const double seconds = opt.seconds / halves;
        if (prepare)
            prepare(10 * static_cast<uint64_t>(half), kWarmupS + seconds);
        const Window win = measure(s, seconds, traced ? spans : off,
                                   traced ? "traced window" : "window");
        m.w = summarize(s, win.from_us, win.to_us, kSubWindows);
        result.attempted += m.w.attempted;
        result.failed += m.w.failed;
        result.correct = result.correct && m.w.mismatch == 0;
        result.valid = result.valid && m.w.late_p99_us <= kLateLimitUs;
        noteStream(result, s.name + (traced ? " (traced)" : ""), m.w);
        primary[half] = s.open ? m.w.p50_us : m.w.rows_per_s;
    }
    if (opt.trace && primary[0] > 0 && primary[1] > 0)
        m.overhead_frac = s.open ? primary[1] / primary[0] - 1.0
                                 : primary[0] / primary[1] - 1.0;
    return m;
}

/** The end-to-end metrics every workload reports. */
MetricSet
endToEnd(const std::vector<SetupTimes> &setups, const Measured &m,
         double agreement_value)
{
    MetricSet e2e, unused;
    setupMetrics(setups, e2e, unused);
    e2e.set("rows_per_s", "rows/s", m.w.rows_per_s);
    e2e.set("p50_us", "us", m.w.p50_us);
    e2e.set("goodput_rps", "1/s", m.w.goodput_rps);
    e2e.set("agreement", "fraction", agreement_value);
    e2e.set("peak_rss_mb", "MB", peakRssMb());
    return e2e;
}

/** Scheduler counters of the served model's lane. */
struct SchedView
{
    double queue_p50_us = 0, queue_p99_us = 0;
    double service_mean_us = 0, service_p99_us = 0;
    double rows = 0, batches = 0, shed = 0;
};

/**
 * The per-layer metrics of a traced run. Service time is reported as its
 * exact mean: its median sits in the stats histogram's integer-µs range
 * (2-7 µs on the online model) and would read the same on every run.
 * The served `model` is replayed at the mean batch fill.
 */
MetricSet
perLayer(const RunOptions &opt, SpanRecorder &spans, RunResult &result,
         const std::vector<SetupTimes> &setups, const SchedView &sched,
         const serve::FrozenModel &model, const Measured &m)
{
    MetricSet layer, unused;
    setupMetrics(setups, unused, layer);
    const double fill = sched.batches > 0 ? sched.rows / sched.batches : 1;
    layer.set("sched.queue_p50_us", "us", sched.queue_p50_us);
    layer.set("sched.queue_p99_us", "us", sched.queue_p99_us);
    layer.set("sched.service_mean_us", "us", sched.service_mean_us);
    layer.set("sched.service_p99_us", "us", sched.service_p99_us);
    layer.set("sched.rows_per_batch", "rows", fill);
    layer.set("sched.batches", "count", sched.batches);
    layer.set("sched.shed", "count", sched.shed);
    memoryMetrics(model, layer);
    {
        const int64_t rows = std::max<int64_t>(1, std::llround(fill));
        ScopedSpan replay(spans, "replay", "exec", 0,
                          {{"rows", std::to_string(rows)}});
        replayLayers(model, rows, streamSeed(opt.seed, 9), spans,
                     replay.id(), layer, result.notes);
    }
    layer.set("sched.overhead_us_per_batch", "us",
              sched.service_mean_us - layer.get("exec.us_per_batch"));
    layer.set("gen.late_p99_us", "us", m.w.late_p99_us);
    layer.set("trace.overhead_frac", "fraction", m.overhead_frac);
    return layer;
}

// ---- bulk-resnet18 -----------------------------------------------------

void
runBulk(const RunOptions &opt, SpanRecorder &spans, RunResult &result)
{
    const auto gemms = lutdla::workloads::resnet18().gemms;
    lutdla::vq::PQConfig pq;
    pq.v = 8;
    pq.c = 16;

    std::shared_ptr<serve::InferenceEngine> engine;
    serve::FrozenModel reference;
    double probe_agreement = 0;
    const auto setups = repeatSetup(spans, [&](SetupTimes &t, int64_t root) {
        engine.reset();
        serve::FrozenModel served;
        t.convert = phase(spans, root, "convert", [&] {
            reference = take(serve::FrozenModel::fromTrace(gemms, pq),
                             "resnet18 trace synthesis");
        });
        t.lower = phase(spans, root, "lower", [&] {
            served = reference.withPlan(resnetPlan(reference.numLutStages()));
        });
        // The plan is fixed, so plan selection is one tuner evaluation:
        // top-1 agreement with the float32 plan on the tuner's probe rows.
        t.autotune = phase(spans, root, "autotune", [&] {
            const Tensor probe = gaussianRows(256, reference.inputWidth(),
                                              kTunerProbeSeed);
            probe_agreement = agreement(served.forwardBatch(probe),
                                        reference.forwardBatch(probe));
        });
        t.evals = 1;
        t.publish = phase(spans, root, "publish", [&] {
            serve::EngineOptions eo;
            eo.threads = kWorkers;
            eo.max_batch = 256;
            eo.queue_capacity = 256;
            engine = take(serve::InferenceEngine::create(std::move(served), eo),
                          "engine create");
        });
    });
    const serve::FrozenModel &model = engine->model();

    // 128 distinct 64-row requests; 16 in flight, cycling through them.
    const Tensor pool_rows = gaussianRows(128 * kBulkRows, model.inputWidth(),
                                          streamSeed(opt.seed, 1));
    noteInputs(result, "bulk",
               digest(pool_rows.data(), sizeof(float) * pool_rows.numel()), 0);
    const std::vector<Tensor> pool = slicePool(pool_rows, kBulkRows);
    const Tensor expected = parallelForward(model, pool_rows);
    // Fidelity against the float32 plan is computed now, so its outputs
    // are not held (and counted in peak_rss_mb) while serving.
    double top1 = 0, cosine = 0;
    {
        const Tensor float_out = parallelForward(reference, pool_rows);
        top1 = agreement(expected, float_out);
        cosine = meanCosine(expected, float_out);
    }
    Stream bulk;
    bulk.name = "bulk";
    bulk.open = false;
    bulk.outstanding = 16;
    bulk.payloads = static_cast<int64_t>(pool.size());
    bulk.limit_us = kBulkLimitUs;
    bulk.submit = [&](int64_t p) {
        return engine->submitAsync(pool[static_cast<size_t>(p)]);
    };
    bulk.check = [&](int64_t p, const Tensor &out) {
        return checkRows(expected, p * kBulkRows, out);
    };

    const Measured m = measureStream(opt, spans, bulk, nullptr, result);
    note(result, "plan: %s", model.describe().c_str());
    note(result, "top-1 agreement with the float32 plan: probe %.4f, served "
         "%.4f", probe_agreement, top1);

    if (opt.trace) {
        const serve::EngineStats st = engine->stats();
        const SchedView sched{st.p50_queue_us,
                              st.p99_queue_us,
                              st.mean_service_us,
                              st.p99_service_us,
                              static_cast<double>(st.rows),
                              static_cast<double>(st.batches),
                              static_cast<double>(st.rejected)};
        result.metrics = perLayer(opt, spans, result, setups, sched, model, m);
    } else {
        // The random-weight trace model has no meaningful top-1 (agreement
        // sits at chance), so bulk reports the mean cosine similarity of
        // the served rows with the float32 plan's rows under this name.
        result.metrics = endToEnd(setups, m, cosine);
    }
    engine->shutdown();
}

// ---- online-mixture ----------------------------------------------------

void
runOnline(const RunOptions &opt, SpanRecorder &spans, RunResult &result)
{
    std::shared_ptr<serve::FrontDoor> door;
    Mixture mix;
    const auto setups = repeatSetup(spans, [&](SetupTimes &t, int64_t root) {
        door.reset();
        nn::LayerPtr net;
        t.convert = phase(spans, root, "convert",
                          [&] { net = convertMixture(); });
        mix = lowerMixture(net, spans, root, t);
        t.publish = phase(spans, root, "publish", [&] {
            serve::FrontDoorOptions fo;
            fo.threads = kWorkers;
            fo.queue_capacity = 4096;
            door = take(api::makeFrontDoor(fo), "front door");
            take(door->publish("mixture", mix.tuned), "publish mixture");
        });
    });
    const serve::SnapshotPtr snap = door->registry().resolve("mixture");

    // Single-row requests from a Poisson schedule; rows and schedule are
    // functions of (seed, salt) only.
    Stream online;
    online.name = "online";
    online.limit_us = kInteractiveLimitUs;
    Tensor rows, expected;
    std::vector<int32_t> reference_top1;
    auto prepare = [&](uint64_t salt, double duration_s) {
        online.due_us = poissonArrivalsUs(kOnlineRate, duration_s,
                                          streamSeed(opt.seed, salt + 2));
        rows = gaussianRows(static_cast<int64_t>(online.due_us.size()),
                            snap->model.inputWidth(),
                            streamSeed(opt.seed, salt + 1));
        noteInputs(result, online.name,
                   digest(rows.data(), sizeof(float) * rows.numel()),
                   digest(online.due_us.data(),
                          sizeof(double) * online.due_us.size()));
        expected = parallelForward(snap->model, rows);
        reference_top1 = labels(parallelForward(mix.reference, rows), 1);
    };
    online.submit = [&](int64_t p) {
        const int64_t width = rows.dim(1);
        Tensor row(lutdla::Shape{1, width});
        std::memcpy(row.data(), rows.data() + p * width,
                    sizeof(float) * static_cast<size_t>(width));
        return door->submitAsync("mixture", std::move(row));
    };
    online.check = [&](int64_t p, const Tensor &out) {
        return checkRows(expected, p, out);
    };

    const Measured m = measureStream(opt, spans, online, prepare, result);
    const double agree = servedAgreement(online, reference_top1);
    note(result, "plan %s (%lld tuner evals); served agreement %.4f",
         mix.tuned.describe().c_str(), static_cast<long long>(mix.evals),
         agree);

    if (opt.trace) {
        const serve::FrontDoorStats st = door->stats();
        const serve::LaneStats &lane = st.models.at("mixture");
        const SchedView sched{lane.p50_queue_us,
                              lane.p99_queue_us,
                              lane.mean_service_us,
                              lane.p99_service_us,
                              static_cast<double>(st.total.rows),
                              static_cast<double>(st.batches),
                              static_cast<double>(st.total.shed())};
        result.metrics =
            perLayer(opt, spans, result, setups, sched, snap->model, m);
    } else {
        result.metrics = endToEnd(setups, m, agree);
    }
    door->shutdown();
}

} // namespace

std::vector<std::string>
workloadNames()
{
    return {"bulk-resnet18", "online-mixture"};
}

bool
runWorkload(const RunOptions &options, SpanRecorder &spans,
            RunResult &result)
{
    if (options.workload == "bulk-resnet18")
        runBulk(options, spans, result);
    else if (options.workload == "online-mixture")
        runOnline(options, spans, result);
    else
        return false;
    if (!options.trace)
        result.metrics.set(
            "ok_frac", "fraction",
            static_cast<double>(result.attempted - result.failed) /
                static_cast<double>(std::max<int64_t>(1, result.attempted)));
    return true;
}

} // namespace servebench
