/**
 * @file
 * perfbench: one process runs one workload and prints, as the last
 * line of stdout, one JSON object with the checks' attempted/failed
 * counts and every metric by name and unit. The line before it holds
 * the run's context. See README.md for the workloads and metrics.
 *
 *   perfbench --workload train|sweep|serve|explore --seed N
 *             --seconds S --trace 0|1 [--trace-out FILE]
 *             [--corrupt CHECK]
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "common.h"
#include "simd/kernels.h"
#include "trace.h"

extern char **environ;

namespace {

using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload train|sweep|serve|explore --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE] "
                 "[--corrupt CHECK]\n",
                 argv0);
    return 2;
}

bool
parse(int argc, char **argv, Options &opts)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            opts.workload = value;
        } else if (flag == "--seed") {
            opts.seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            opts.seconds = std::strtod(value, &end);
            if (!(opts.seconds > 0.0))
                return false;
        } else if (flag == "--trace") {
            opts.trace = std::strcmp(value, "1") == 0;
            if (!opts.trace && std::strcmp(value, "0") != 0)
                return false;
        } else if (flag == "--trace-out") {
            opts.traceOut = value;
        } else if (flag == "--corrupt") {
            opts.corrupt = value;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0')
            return false;
    }
    return argc % 2 == 1 && !opts.workload.empty();
}

/** JSON string escaping for the few characters context values carry. */
std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

void
printContext(const Options &opts, const RunResult &result,
             std::size_t spans)
{
    std::string line = "{\"context\":{\"workload\":" + quoted(opts.workload)
        + ",\"seed\":" + std::to_string(opts.seed)
        + ",\"trace\":" + (opts.trace ? "1" : "0")
        + ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN))
        + ",\"simd_arm\":"
        + quoted(superbnn::simd::armName(superbnn::simd::activeArm()))
        + ",\"build_type\":" + quoted(PERFBENCH_BUILD_TYPE) + ",\"env\":{";
    bool first = true;
    for (char **env = environ; *env != nullptr; ++env) {
        const std::string entry = *env;
        if (entry.rfind("SUPERBNN_", 0) != 0)
            continue;
        const std::size_t eq = entry.find('=');
        line += (first ? "" : ",") + quoted(entry.substr(0, eq)) + ":"
            + quoted(entry.substr(eq + 1));
        first = false;
    }
    line += "}";
    if (opts.trace)
        line += ",\"spans\":" + std::to_string(spans);
    for (const Metric &m : result.info) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", m.value);
        line += "," + quoted(m.name) + ":{\"value\":" + value
            + ",\"unit\":" + quoted(m.unit) + "}";
    }
    std::printf("%s}}\n", line.c_str());
}

void
printResult(const RunResult &result)
{
    bool finite = true;
    std::string metrics;
    for (const Metric &m : result.metrics) {
        char value[64];
        finite = finite && std::isfinite(m.value);
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        metrics += (metrics.empty() ? "" : ",") + quoted(m.name)
            + ":{\"value\":" + value + ",\"unit\":" + quoted(m.unit) + "}";
    }
    const bool correct = finite && result.checks.attempted() > 0
        && result.checks.failed() == 0;
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":{%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(result.checks.attempted()),
                static_cast<unsigned long long>(result.checks.failed()),
                metrics.c_str());
}

RunResult
run(const Options &opts, SpanRecorder &spans)
{
    using Untraced = RunResult (*)(const Options &);
    using Traced = double (*)(const Options &, SpanRecorder &, RunResult &);
    struct Workload
    {
        const char *name;
        Untraced untraced;
        Traced traced;
    };
    static const Workload kWorkloads[] = {
        {"train", runTrain, traceTrain},
        {"sweep", runSweep, traceSweep},
        {"serve", runServe, traceServe},
        {"explore", runExplore, traceExplore},
    };
    const Workload *selected = nullptr;
    for (const Workload &w : kWorkloads)
        if (opts.workload == w.name)
            selected = &w;
    if (selected == nullptr)
        throw std::invalid_argument("unknown workload " + opts.workload);
    if (!opts.trace)
        return selected->untraced(opts);

    // The traced run measures every layer, so each traced run reports
    // the full per-layer table; the overhead figure is the selected
    // workload's.
    RunResult result;
    double overhead = 0.0;
    for (const Workload &w : kWorkloads) {
        const double pct = w.traced(opts, spans, result);
        if (&w == selected)
            overhead = pct;
    }
    result.metrics.push_back({"trace.overhead_pct", overhead, "%"});
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parse(argc, argv, opts))
        return usage(argv[0]);
    try {
        SpanRecorder spans;
        const RunResult result = run(opts, spans);
        if (!opts.traceOut.empty() && !spans.write(opts.traceOut)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         opts.traceOut.c_str());
            return 1;
        }
        printContext(opts, result, spans.size());
        printResult(result);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
