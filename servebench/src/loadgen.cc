#include <algorithm>
#include <cmath>

#include "bench.h"
#include "util/rng.h"

namespace servebench {

uint64_t
streamSeed(uint64_t seed, uint64_t stream)
{
    // splitmix64 of (seed, stream): nearby seeds give unrelated streams,
    // and no workload stream coincides with the tuner's fixed probe seed
    // except by a 2^-64 accident.
    uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
                 0x94d049bb133111ebULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

Tensor
gaussianRows(int64_t rows, int64_t width, uint64_t seed)
{
    lutdla::Rng rng(seed);
    Tensor x(lutdla::Shape{rows, width});
    for (int64_t i = 0; i < x.numel(); ++i)
        x.at(i) = static_cast<float>(rng.gaussian(0.0, 1.0));
    return x;
}

std::vector<double>
poissonArrivalsUs(double rate_per_s, double duration_s, uint64_t seed)
{
    lutdla::Rng rng(seed);
    std::vector<double> due;
    due.reserve(static_cast<size_t>(rate_per_s * duration_s * 1.1) + 16);
    const double mean_gap_us = 1e6 / rate_per_s;
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - rng.uniform()) * mean_gap_us;
        if (t >= duration_s * 1e6)
            break;
        due.push_back(t);
    }
    return due;
}

uint64_t
digest(const void *data, size_t bytes)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    uint64_t h = 0xcbf29ce484222325ULL;
    for (size_t i = 0; i < bytes; ++i)
        h = (h ^ p[i]) * 0x100000001b3ULL;
    return h;
}

namespace {

Fate
fateOf(const lutdla::api::Status &status)
{
    using lutdla::api::StatusCode;
    switch (status.code()) {
    case StatusCode::ResourceExhausted:
        return Fate::Shed;
    case StatusCode::DeadlineExceeded:
        return Fate::Deadline;
    default:
        return Fate::Error;
    }
}

} // namespace

double
driveStream(Stream &s, double duration_s, SpanRecorder &spans,
            int64_t parent)
{
    struct InFlight
    {
        size_t record;
        Served future;
    };
    std::vector<InFlight> inflight;
    inflight.reserve(4096);
    size_t next_due = 0;       // open: next arrival to send
    int64_t next_payload = 0;  // closed: next pool entry to send
    const size_t stride =
        s.open ? std::max<size_t>(1, s.due_us.size() / 20000) : 1;

    const double start = nowUs();
    const double end = start + duration_s * 1e6;

    auto send = [&](int64_t payload, double due) {
        RequestRecord r;
        r.due_us = due;
        r.payload = payload;
        Served f = s.submit(payload);
        r.submit_us = nowUs();
        s.records.push_back(r);
        inflight.push_back({s.records.size() - 1, std::move(f)});
    };

    s.records.clear();
    if (!s.open)
        for (int64_t k = 0; k < s.outstanding; ++k)
            send(next_payload++ % s.payloads, nowUs());

    for (;;) {
        // With no schedule to keep, no send has to be on time and
        // closed-loop latencies are tens of ms, so instead of spinning a
        // CPU the serving workers could use, wait on the oldest request.
        if (!s.open && !inflight.empty())
            inflight.front().future.wait_for(std::chrono::microseconds(100));
        while (next_due < s.due_us.size() &&
               start + s.due_us[next_due] <= nowUs()) {
            send(static_cast<int64_t>(next_due), start + s.due_us[next_due]);
            ++next_due;
        }

        for (size_t i = 0; i < inflight.size();) {
            if (inflight[i].future.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
                ++i;
                continue;
            }
            const double done = nowUs();
            lutdla::api::Result<Tensor> result = inflight[i].future.get();
            RequestRecord &r = s.records[inflight[i].record];
            r.done_us = done;
            if (!result.ok()) {
                r.fate = fateOf(result.status());
            } else {
                r.rows = result->dim(0);
                const int32_t top1 = s.check(r.payload, *result);
                if (top1 == -2)
                    r.fate = Fate::Mismatch;
                else
                    r.top1 = top1;
            }
            if (spans.enabled() && inflight[i].record % stride == 0) {
                const int64_t id = spans.add(
                    "request", "e2e", r.due_us, r.done_us, parent,
                    {{"stream", s.name},
                     {"payload", std::to_string(r.payload)},
                     {"ok", r.fate == Fate::Ok ? "1" : "0"}},
                    0, 1);
                spans.add("submit->done", "sched", r.submit_us, r.done_us,
                          id, {}, 0, 1);
            }
            inflight[i] = std::move(inflight.back());
            inflight.pop_back();
            if (!s.open && done < end)
                send(next_payload++ % s.payloads, done);
        }

        // A closed stream keeps requests in flight until `end`, so an
        // empty in-flight set with no arrivals left means it is done.
        if (next_due == s.due_us.size() && inflight.empty())
            break;
    }
    return start;
}

WindowStats
summarize(const Stream &stream, double from_us, double to_us,
          int sub_windows)
{
    WindowStats w;
    const double span = (to_us - from_us) / sub_windows;
    std::vector<std::vector<double>> lat(static_cast<size_t>(sub_windows));
    std::vector<double> good(static_cast<size_t>(sub_windows), 0.0);
    std::vector<double> rows(static_cast<size_t>(sub_windows), 0.0);
    std::vector<double> late;
    auto window = [&](double t) {
        return std::min(static_cast<size_t>((t - from_us) / span),
                        static_cast<size_t>(sub_windows - 1));
    };
    for (const RequestRecord &r : stream.records) {
        // Throughput counts rows completed inside each sub-window.
        if (r.fate == Fate::Ok && r.done_us >= from_us && r.done_us < to_us)
            rows[window(r.done_us)] += static_cast<double>(r.rows);
        if (r.due_us < from_us || r.due_us >= to_us)
            continue;
        const size_t k = window(r.due_us);
        ++w.attempted;
        late.push_back(r.submit_us - r.due_us);
        const double latency =
            r.done_us - (stream.open ? r.due_us : r.submit_us);
        switch (r.fate) {
        case Fate::Ok:
            ++w.ok;
            lat[k].push_back(latency);
            if (latency <= stream.limit_us)
                good[k] += 1.0;
            break;
        case Fate::Shed:
            ++w.shed;
            break;
        case Fate::Deadline:
            ++w.deadline;
            break;
        case Fate::Mismatch:
            ++w.mismatch;
            break;
        case Fate::Error:
            ++w.errors;
            break;
        }
    }
    w.failed = w.attempted - w.ok;
    std::vector<double> p50, goodput, rate, all;
    for (int k = 0; k < sub_windows; ++k) {
        const size_t i = static_cast<size_t>(k);
        w.latency_samples += static_cast<int64_t>(lat[i].size());
        all.insert(all.end(), lat[i].begin(), lat[i].end());
        if (!lat[i].empty())
            p50.push_back(quantile(lat[i], 0.50));
        goodput.push_back(good[i] / (span * 1e-6));
        rate.push_back(rows[i] / (span * 1e-6));
    }
    w.p50_us = median(p50);
    w.p90_us = quantile(all, 0.90);
    w.p99_us = quantile(all, 0.99);
    w.goodput_rps = median(goodput);
    w.rows_per_s = median(rate);
    w.late_p99_us = quantile(late, 0.99);
    return w;
}

} // namespace servebench
