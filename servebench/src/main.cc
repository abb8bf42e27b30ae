/**
 * @file
 * servebench: the serving benchmark of record.
 *
 *   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *              [--trace-out <file>] [--commit <id>]
 *
 * Prints a host/build fingerprint, one summary line per traffic stream,
 * and as its last line one JSON object {correct, attempted, failed,
 * metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
 * with --trace 1 (which also writes the spans as Chrome trace-event JSON
 * to --trace-out). Normally run through servebench/run.py, which builds
 * this binary first.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "util/cpu_features.h"

using namespace servebench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "servebench: %s\nusage: servebench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--trace-out "
                 "<file>] [--commit <id>]\nworkloads:",
                 why);
    for (const std::string &w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    std::string commit = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload")
            opt.workload = value;
        else if (flag == "--seed")
            opt.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            opt.seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace")
            opt.trace = value == "1";
        else if (flag == "--trace-out")
            opt.trace_out = value;
        else if (flag == "--commit")
            commit = value;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (opt.workload.empty())
        usage("--workload is required");
    if (!(opt.seconds > 0.0) || opt.seconds > 120.0)
        usage("--seconds must be in (0, 120]");
    if (opt.trace && opt.trace_out.empty())
        opt.trace_out = "servebench-trace-" + opt.workload + ".json";

    const char *simd_env = std::getenv("LUTDLA_SIMD");
    std::printf("servebench %s seed=%llu seconds=%g trace=%d | host isa=%s "
                "nproc=%u LUTDLA_SIMD=%s | build commit=%s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0,
                lutdla::util::simdLevelName(lutdla::util::simdLevel()),
                std::thread::hardware_concurrency(),
                simd_env ? simd_env : "unset", commit.c_str());

    SpanRecorder spans(opt.trace);
    RunResult result;
    if (!runWorkload(opt, spans, result))
        usage(("unknown workload " + opt.workload).c_str());

    for (const std::string &line : result.notes)
        std::printf("  %s\n", line.c_str());
    std::printf("run %s: generator p99 lateness limit 1000 us\n",
                result.valid ? "VALID" : "INVALID");
    if (opt.trace) {
        std::ofstream out(opt.trace_out);
        out << spans.chromeJson();
        if (!out) {
            std::fprintf(stderr, "servebench: cannot write %s\n",
                         opt.trace_out.c_str());
            return 3;
        }
        std::printf("trace: %zu spans -> %s\n", spans.spans().size(),
                    opt.trace_out.c_str());
    }

    std::string json = "{\"correct\": ";
    bool correct = result.correct;
    std::string metrics;
    for (const Metric &m : result.metrics.items()) {
        correct = correct && std::isfinite(m.value);
        char buf[256];
        std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                      "\"unit\": \"%s\"}",
                      metrics.empty() ? "" : ", ", m.name.c_str(),
                      std::isfinite(m.value) ? m.value : 0.0,
                      m.unit.c_str());
        metrics += buf;
    }
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"metrics\": {" + metrics + "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
