/**
 * @file
 * `explore`: core::DesignSpaceExplorer::explore(measure=true) plus
 * exploreHeterogeneous over the autotune spaces of mnistMlp, vggSmall
 * and resnet18, with a fresh explorer per space. The only workload that
 * runs the measured-cost probe's CNN-geometry replays and the geometry
 * cache.
 */

#include <algorithm>
#include <cstdio>

#include "common.h"
#include "core/explorer.h"
#include "trace.h"

namespace perfbench {

using namespace superbnn;
using namespace superbnn::core;

namespace {

struct Space
{
    aqfp::WorkloadSpec workload;
    CoOptSpace space;
};

/**
 * bench/autotune's spaces. They hold no random input, so the workload
 * seed does not reach them: every seed explores the same candidates.
 */
std::vector<Space>
exploreSpaces()
{
    CoOptSpace mnist;
    mnist.crossbarSizes = {8, 16, 18, 36};
    mnist.bitstreamLengths = {4, 16};
    mnist.grayZones = {1.6, 2.4, 3.2};
    CoOptSpace cifar;
    cifar.crossbarSizes = {16, 36};
    cifar.bitstreamLengths = {16, 32};
    cifar.grayZones = {2.4};
    return {{aqfp::workloads::mnistMlp(), mnist},
            {aqfp::workloads::vggSmall(), cifar},
            {aqfp::workloads::resnet18(), cifar}};
}

void
appendReport(std::string &out, const aqfp::EnergyReport &r)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%.17g,%.17g,%.17g,%zu;",
                  r.totalEnergyAj, r.latencyUs, r.topsPerWatt, r.totalJj);
    out += buf;
}

void
appendConfig(std::string &out, const aqfp::AcceleratorConfig &c)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%zu,%zu,%.17g:", c.crossbarSize,
                  c.bitstreamLength, c.deltaIinUa);
    out += buf;
}

/** One pass over every space, as exact text plus its checks. */
struct PassResult
{
    std::string digest;        ///< every candidate and plan, %.17g
    std::size_t candidates = 0;
    bool planNoWorse = true;   ///< planCost <= seedCost everywhere
    std::vector<CoOptCandidate> measured; ///< all spaces, in order
};

PassResult
explorePass(const std::vector<Space> &spaces)
{
    PassResult pass;
    ExploreOptions options;
    options.measure = true;
    for (const Space &s : spaces) {
        const DesignSpaceExplorer explorer((aqfp::AttenuationModel()));
        const auto candidates = explorer.explore(s.workload, s.space, options);
        const HeterogeneousExploreResult hetero =
            explorer.exploreHeterogeneous(s.workload, s.space, options,
                                          costs::measuredEnergy());
        for (const CoOptCandidate &c : candidates) {
            appendConfig(pass.digest, c.config);
            appendReport(pass.digest, c.energy);
            appendReport(pass.digest, *c.measured);
            char ame[32];
            std::snprintf(ame, sizeof(ame), "%.17g|", c.ame);
            pass.digest += ame;
        }
        for (const aqfp::AcceleratorConfig &layer : hetero.plan.layers)
            appendConfig(pass.digest, layer);
        appendReport(pass.digest, hetero.plan.measured);
        pass.candidates += candidates.size();
        pass.planNoWorse =
            pass.planNoWorse && hetero.planCost <= hetero.seedCost;
        pass.measured.insert(pass.measured.end(), candidates.begin(),
                             candidates.end());
    }
    return pass;
}

} // namespace

RunResult
runExplore(const Options &opts)
{
    RunResult out;
    SetupStats setup;
    std::vector<Space> spaces;
    const auto expected = repeatedSetup(kSetups, setup, [&] {
        spaces = exploreSpaces();
        // Warm-up pass: its candidates are the expected ones.
        return std::make_unique<PassResult>(explorePass(spaces));
    });
    std::string digest = expected->digest;
    if (corrupted(opts, "explore_candidates"))
        digest[digest.size() / 2] ^= 1;

    std::vector<double> pass_ms, rates;
    std::size_t candidates = 0;
    const double cpu0 = cpuSeconds();
    const auto start = Clock::now();
    while (msBetween(start, Clock::now()) < opts.seconds * 1000.0) {
        const auto t0 = Clock::now();
        PassResult pass = explorePass(spaces);
        const double ms = msBetween(t0, Clock::now());
        pass_ms.push_back(ms);
        rates.push_back(static_cast<double>(pass.candidates) / (ms / 1000.0));
        candidates += pass.candidates;
        if (corrupted(opts, "explore_plan"))
            pass.planNoWorse = false;
        out.checks.record(pass.digest == digest && pass.planNoWorse,
                          pass.planNoWorse
                              ? "explore pass differs from the first pass"
                              : "heterogeneous plan costs more than its seed");
    }
    const double cpu_s = cpuSeconds() - cpu0;

    out.metrics = {
        {"setup_s", setup.seconds, "s"},
        {"peak_rss_mb", setup.peakRssMb, "MiB"},
        {"throughput_per_s", median(rates), "1/s"},
        {"cpu_ms_per_op",
         cpu_s * 1000.0 / static_cast<double>(candidates), "ms"},
        {"latency_p50_ms", median(pass_ms), "ms"},
    };
    out.info = {{"passes", static_cast<double>(pass_ms.size()), "count"},
                {"candidates_per_pass",
                 static_cast<double>(expected->candidates), "count"}};
    return out;
}

double
traceExplore(const Options &opts, SpanRecorder &spans, RunResult &out)
{
    const std::vector<Space> spaces = exploreSpaces();
    const std::size_t passes =
        std::max<std::size_t>(2, static_cast<std::size_t>(opts.seconds / 8));
    ExploreOptions analytic;
    ExploreOptions measure;
    measure.measure = true;

    std::vector<double> plain_ms, traced_ms;
    std::uint64_t counts_hits = 0, counts_total = 0;
    std::uint64_t geometry_hits = 0, geometry_total = 0;
    std::size_t candidates = 0;
    for (std::size_t p = 0; p < passes; ++p) {
        auto t0 = Clock::now();
        const PassResult expected = explorePass(spaces);
        plain_ms.push_back(msBetween(t0, Clock::now()));

        // Traced: the analytic stage, the probe measuring each feasible
        // candidate, then the heterogeneous descent, each its own span.
        t0 = Clock::now();
        const ScopedSpan pass_span(spans, "explore.pass");
        std::size_t next = 0;
        for (const Space &s : spaces) {
            const DesignSpaceExplorer explorer((aqfp::AttenuationModel()));
            std::vector<CoOptCandidate> found;
            {
                const ScopedSpan span(spans, "explorer.analytic",
                                      pass_span.id());
                found = explorer.explore(s.workload, s.space, analytic);
            }
            {
                const ScopedSpan span(spans, "probe.measure",
                                      pass_span.id());
                for (CoOptCandidate &c : found)
                    c.measured =
                        explorer.probe().measureWorkload(s.workload, c.config);
            }
            {
                const ScopedSpan span(spans, "explorer.hetero",
                                      pass_span.id());
                (void)explorer.exploreHeterogeneous(
                    s.workload, s.space, measure, costs::measuredEnergy());
            }
            for (const CoOptCandidate &c : found) {
                const CoOptCandidate &want = expected.measured.at(next++);
                double got = c.measured->totalEnergyAj;
                if (corrupted(opts, "explore_trace") && next == 1)
                    got += 1.0;
                out.checks.record(
                    got == want.measured->totalEnergyAj
                        && c.config.crossbarSize == want.config.crossbarSize
                        && c.config.bitstreamLength
                            == want.config.bitstreamLength,
                    "traced probe measurement differs from explore()");
            }
            candidates += found.size();
            const auto counts = explorer.probe().countsStats();
            const auto geometry = explorer.modelCache()->geometryStats();
            counts_hits += counts.hits;
            counts_total += counts.hits + counts.misses;
            geometry_hits += geometry.hits;
            geometry_total += geometry.hits + geometry.misses;
        }
        traced_ms.push_back(msBetween(t0, Clock::now()));
    }

    const double n = static_cast<double>(passes);
    out.metrics.push_back(
        {"explorer.analytic_ms", spans.summary("explorer.analytic").totalMs / n,
         "ms"});
    out.metrics.push_back(
        {"probe.measure_ms", spans.summary("probe.measure").totalMs / n, "ms"});
    out.metrics.push_back(
        {"explorer.hetero_ms", spans.summary("explorer.hetero").totalMs / n,
         "ms"});
    out.metrics.push_back(
        {"probe.counts_hit_ratio",
         static_cast<double>(counts_hits) / static_cast<double>(counts_total),
         "ratio"});
    out.metrics.push_back(
        {"model_cache.geometry_hit_ratio",
         static_cast<double>(geometry_hits)
             / static_cast<double>(geometry_total),
         "ratio"});
    out.metrics.push_back(
        {"explorer.candidates", static_cast<double>(candidates) / n, "count"});
    return 100.0 * (median(traced_ms) / median(plain_ms) - 1.0);
}

} // namespace perfbench
