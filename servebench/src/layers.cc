/**
 * @file
 * Per-layer replay for the traced run. The serving code carries no
 * instrumentation, so each layer is timed from the outside by calling
 * its public functions on a batch of the size the scheduler actually
 * formed:
 *
 *   exec    FrozenModel::forwardBatch (the row-tiled executor)
 *   stage   model.stages()[i]->forward / forwardInPlace, untiled, in order
 *   kernel  KernelBackend encodeBatch / gatherAccumulate on every LUT
 *           arena, at each table and encode precision
 *   mem     FrozenModel table / encode / resident byte accessors
 *
 * All replays run on the calling thread with no IntraBatchPool, so exec
 * and the stage sum are comparable: stage.sum_vs_exec above 1 is what the
 * tiled executor saves over running the same stages one after another.
 * Bytes for GB/s figures are computed, not measured: a stage's StagePlan
 * table_bytes + encode_bytes, and a kernel's tableBytes(arena), each
 * times the number of table sweeps ceil(rows / gather granule).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "lutboost/kernels.h"
#include "serve/stage.h"

namespace servebench {

namespace serve = lutdla::serve;
namespace lutboost = lutdla::lutboost;

namespace {

using Args = std::map<std::string, std::string>;

/**
 * Run `fn` once untimed (lazy banks, cold caches), then repeatedly until
 * `budget_us` is spent (at least `min_reps`, at most `max_reps`), one
 * span per repetition; returns the median repetition time in µs.
 */
template <typename F>
double
repeat(SpanRecorder &spans, int64_t parent, const std::string &name,
       const std::string &cat, const Args &args, double budget_us,
       int min_reps, int max_reps, F fn)
{
    fn();
    std::vector<double> times;
    const double begin = nowUs();
    while (static_cast<int>(times.size()) < max_reps &&
           (static_cast<int>(times.size()) < min_reps ||
            nowUs() - begin < budget_us)) {
        const double t0 = nowUs();
        fn();
        const double t1 = nowUs();
        times.push_back(t1 - t0);
        spans.add(name, cat, t0, t1, parent, args);
    }
    return median(times);
}

/** "float32" / "int8" / "int4" for TablePrecision index 0 / 1 / 2. */
const char *
precisionName(int p)
{
    return serve::tablePrecisionName(static_cast<serve::TablePrecision>(p));
}

int64_t
sweeps(int64_t rows, int64_t granule)
{
    granule = std::max<int64_t>(1, granule);
    return (rows + granule - 1) / granule;
}

/** One LUT arena reachable from a stage, with what the plan bound. */
struct LutArena
{
    const lutboost::LutTableArena *arena;
    const serve::StagePlan *plan;
    std::string where;
};

std::vector<LutArena>
lutArenas(const serve::FrozenModel &model)
{
    std::vector<LutArena> out;
    for (size_t i = 0; i < model.stages().size(); ++i) {
        const serve::FrozenStage *stage = model.stages()[i].get();
        const serve::StagePlan *plan = &model.plan()[i];
        const std::string where = "stage" + std::to_string(i);
        if (auto *a = dynamic_cast<const serve::ArenaStage *>(stage))
            out.push_back({a->arena().get(), plan, where});
    }
    return out;
}

int64_t
stageGranule(const serve::FrozenStage &stage)
{
    if (auto *a = dynamic_cast<const serve::ArenaStage *>(&stage))
        return a->backend().gatherGranuleRows(*a->arena());
    return 1;
}

void
replayExec(const serve::FrozenModel &model, const Tensor &x,
           SpanRecorder &spans, int64_t parent, MetricSet &m)
{
    serve::StageScratch scratch;
    const double us = repeat(
        spans, parent, "exec.forwardBatch", "exec",
        {{"rows", std::to_string(x.dim(0))}}, 200000.0, 5, 2000,
        [&] { (void)model.forwardBatch(x, scratch); });
    m.set("exec.us_per_batch", "us", us);
    m.set("exec.rows_per_s", "rows/s", static_cast<double>(x.dim(0)) / us * 1e6);
}

void
replayStages(const serve::FrozenModel &model, const Tensor &x,
             SpanRecorder &spans, int64_t parent, MetricSet &m,
             std::vector<std::string> &notes)
{
    const int64_t rows = x.dim(0);
    const auto &stages = model.stages();
    int64_t widest = x.dim(1);
    for (const serve::StagePtr &s : stages)
        widest = std::max({widest, s->inWidth(), s->outWidth()});
    std::vector<float> a(static_cast<size_t>(rows * widest)),
        b(static_cast<size_t>(rows * widest));
    std::vector<std::vector<double>> times(stages.size());
    serve::StageScratch scratch;

    auto chain = [&](bool record) {
        std::memcpy(a.data(), x.data(), sizeof(float) * x.numel());
        float *cur = a.data(), *next = b.data();
        const int64_t chain_id = record ? spans.reserve() : 0;
        const double c0 = nowUs();
        for (size_t i = 0; i < stages.size(); ++i) {
            const serve::FrozenStage &s = *stages[i];
            const double t0 = nowUs();
            if (s.inPlace()) {
                s.forwardInPlace(cur, rows, scratch);
            } else {
                s.forward(cur, rows, next, scratch);
                std::swap(cur, next);
            }
            const double t1 = nowUs();
            if (record) {
                times[i].push_back(t1 - t0);
                spans.add("stage." + s.kind(), "stage", t0, t1, chain_id,
                          {{"index", std::to_string(i)},
                           {"description", model.plan()[i].description}});
            }
        }
        if (record)
            spans.add("stage.chain", "stage", c0, nowUs(), parent, {},
                      chain_id);
    };
    chain(false);
    const double begin = nowUs();
    for (int rep = 0; rep < 2000 && (rep < 5 || nowUs() - begin < 200000.0);
         ++rep)
        chain(true);

    double total = 0, lut_gemm = 0;
    std::map<std::string, double> by_kind;
    double bytes[3] = {0, 0, 0}, lut_us[3] = {0, 0, 0};
    for (size_t i = 0; i < stages.size(); ++i) {
        const double us = median(times[i]);
        const serve::StagePlan &plan = model.plan()[i];
        total += us;
        by_kind[stages[i]->kind()] += us;
        if (stages[i]->kind() == "lut-gemm")
            lut_gemm += us;
        if (plan.table_bytes > 0) {
            const int p = static_cast<int>(plan.precision);
            bytes[p] += static_cast<double>(
                (plan.table_bytes + plan.encode_bytes) *
                sweeps(rows, stageGranule(*stages[i])));
            lut_us[p] += us;
        }
    }
    const double exec_us = m.get("exec.us_per_batch");
    m.set("stage.sum_us_per_row", "us", total / rows);
    m.set("stage.lut_gemm.us_per_row", "us", lut_gemm / rows);
    m.set("stage.lut_gemm.share", "fraction", total > 0 ? lut_gemm / total : 0);
    for (int p = 0; p < 3; ++p)
        m.set(std::string("stage.lut.") + precisionName(p) + ".gbps", "GB/s",
              lut_us[p] > 0 ? bytes[p] / (lut_us[p] * 1e3) : 0.0);
    m.set("stage.sum_vs_exec", "ratio", exec_us > 0 ? total / exec_us : 0);
    for (const auto &[kind, us] : by_kind) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "stage %-12s %9.3f us/row  share %.3f", kind.c_str(),
                      us / rows, total > 0 ? us / total : 0.0);
        notes.push_back(buf);
    }
}

void
replayKernels(const serve::FrozenModel &model, int64_t rows, uint64_t seed,
              SpanRecorder &spans, int64_t parent, MetricSet &m)
{
    const lutboost::KernelBackend *backends[3] = {
        &lutboost::referenceBackend(), &lutboost::quantizedBackend(),
        &lutboost::int4Backend()};
    double enc_us[2] = {0, 0};
    double gather_bytes[3] = {0, 0, 0}, gather_us[3] = {0, 0, 0};
    double planned_enc = 0, planned_gather = 0;
    int64_t salt = 0;
    for (const LutArena &la : lutArenas(model)) {
        const lutboost::LutTableArena &arena = *la.arena;
        const Tensor x =
            gaussianRows(rows, arena.inFeatures(), streamSeed(seed, ++salt));
        std::vector<float> y(static_cast<size_t>(rows * arena.outFeatures()));
        lutboost::KernelScratch ks;
        const auto planned_enc_p = la.plan->encode_precision;
        const int planned_table = static_cast<int>(la.plan->precision);

        for (int e = 0; e < 2; ++e) {
            const auto enc = e == 0 ? lutboost::EncodePrecision::Float32
                                    : lutboost::EncodePrecision::Int8;
            if (e == 1 && !arena.int8EncodeSupported())
                continue;
            const bool planned = enc == planned_enc_p;
            Args args = {{"arena", la.where},
                         {"precision", lutboost::encodePrecisionName(enc)},
                         {"kernel", e == 0 ? arena.encodeVariantName()
                                           : arena.int8EncodeKernelName()},
                         {"planned", planned ? "1" : "0"}};
            if (planned)
                args["plan_kernel"] = la.plan->encode_kernel;
            const double us = repeat(
                spans, parent, "kernel.encode", "kernel", args, 10000.0, 3,
                500, [&] {
                    backends[0]->encodeBatch(arena, x.data(), rows, ks, enc);
                });
            enc_us[e] += us;
            if (planned)
                planned_enc += us;
        }
        // Codes for the gathers below come from the exact float encode.
        backends[0]->encodeBatch(arena, x.data(), rows, ks);
        for (int p = 0; p < 3; ++p) {
            const lutboost::KernelBackend &be = *backends[p];
            be.prepare(arena);
            const bool planned = p == planned_table;
            const char *kernel =
                p == 0 ? "grouped-sweep"
                : p == 1
                    ? lutboost::LutTableArena::int8GatherVariantName(
                          arena.int8AutoVariant())
                    : lutboost::LutTableArena::int4GatherVariantName(
                          arena.int4AutoVariant());
            Args args = {{"arena", la.where},
                         {"precision", precisionName(p)},
                         {"kernel", kernel},
                         {"planned", planned ? "1" : "0"}};
            if (planned)
                args["plan_kernel"] = la.plan->gather_kernel;
            const double us = repeat(
                spans, parent, "kernel.gather", "kernel", args, 10000.0, 3,
                500, [&] { be.gatherAccumulate(arena, ks, y.data()); });
            gather_us[p] += us;
            gather_bytes[p] += static_cast<double>(
                be.tableBytes(arena) * sweeps(rows, be.gatherGranuleRows(arena)));
            if (planned)
                planned_gather += us;
        }
    }
    m.set("kernel.encode.float32.ns_per_row", "ns", enc_us[0] * 1e3 / rows);
    m.set("kernel.encode.int8.ns_per_row", "ns", enc_us[1] * 1e3 / rows);
    for (int p = 0; p < 3; ++p)
        m.set(std::string("kernel.gather.") + precisionName(p) + ".gbps", "GB/s",
              gather_us[p] > 0 ? gather_bytes[p] / (gather_us[p] * 1e3) : 0);
    m.set("kernel.encode_share", "fraction",
          planned_enc + planned_gather > 0
              ? planned_enc / (planned_enc + planned_gather)
              : 0);
}

} // namespace

void
memoryMetrics(const serve::FrozenModel &model, MetricSet &metrics)
{
    const double mb = 1024.0 * 1024.0;
    metrics.set("mem.resident_mb", "MB",
                static_cast<double>(model.residentBytes()) / mb);
    metrics.set("mem.table_mb", "MB",
                static_cast<double>(model.tableBytes()) / mb);
    metrics.set("mem.encode_mb", "MB",
                static_cast<double>(model.encodeBytes()) / mb);
}

void
replayLayers(const serve::FrozenModel &model, int64_t fill, uint64_t seed,
             SpanRecorder &spans, int64_t parent, MetricSet &metrics,
             std::vector<std::string> &notes)
{
    const int64_t group = model.rowGroup();
    const int64_t rows = std::max(group, fill / group * group);
    const Tensor x = gaussianRows(rows, model.inputWidth(), seed);
    replayExec(model, x, spans, parent, metrics);
    replayStages(model, x, spans, parent, metrics, notes);
    replayKernels(model, rows, seed, spans, parent, metrics);
}

} // namespace servebench
