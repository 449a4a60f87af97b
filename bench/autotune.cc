/**
 * @file
 * Design-space autotuner over the Table 2/3 workloads: sweeps a
 * CoOptSpace with the ledger-driven DesignSpaceExplorer (every feasible
 * candidate measured through the MeasuredCostProbe, mapped models
 * shared via the ProgrammedModelCache) and emits, per workload,
 *
 *  - the candidates ranked by MEASURED energy per image,
 *  - the Pareto front of measured energy vs AME (the two competing
 *    objectives of the paper's Section 5.4 co-optimization),
 *  - the heterogeneous per-layer plan the explorer's coordinate
 *    descent converges to from the best homogeneous seed, with the
 *    measured-energy delta and the pruning stats (plans costed vs the
 *    full per-layer cross-product), and
 *  - the cache hit/miss counters, keyed (geometry) and named sections
 *    reported separately — candidates differing only in L share mapped
 *    models, candidates differing only in deltaIin share calibration
 *    counts, and repeated ResNet block geometries share both.
 *
 * Everything emitted is deterministic (counts are value-independent;
 * no timing data), so CI can diff the artifact across thread counts
 * and SIMD arms like the other JSON benches.
 */

#include <cstdio>
#include <vector>

#include "core/explorer.h"

using namespace superbnn;
using namespace superbnn::core;

namespace {

void
emitCandidate(const CoOptCandidate &cand, bool last)
{
    const aqfp::EnergyReport &m = *cand.measured;
    std::printf("  {\"crossbarSize\":%zu,\"window\":%zu,"
                "\"deltaIinUa\":%.17g,\n"
                "   \"measuredEnergyAj\":%.17g,"
                "\"analyticEnergyAj\":%.17g,\"ame\":%.17g,\n"
                "   \"measuredTopsPerWatt\":%.17g,\"latencyUs\":%.17g,"
                "\"totalJj\":%zu}%s\n",
                cand.config.crossbarSize, cand.config.bitstreamLength,
                cand.config.deltaIinUa, m.totalEnergyAj,
                cand.energy.totalEnergyAj, cand.ame, m.topsPerWatt,
                m.latencyUs, cand.energy.totalJj, last ? "" : ",");
}

void
emitAxis(const char *name, const std::vector<std::size_t> &values,
         const char *suffix)
{
    std::printf("\"%s\":[", name);
    for (std::size_t i = 0; i < values.size(); ++i)
        std::printf("%zu%s", values[i],
                    i + 1 < values.size() ? "," : "");
    std::printf("]%s", suffix);
}

void
sweepWorkload(const aqfp::WorkloadSpec &workload,
              const CoOptSpace &space, bool first)
{
    // A fresh explorer (and therefore a fresh model cache) per
    // workload keeps the cache counters attributable to one sweep and
    // bounds resident mapped-model memory to one workload's geometries.
    const DesignSpaceExplorer explorer((aqfp::AttenuationModel()));
    ExploreOptions options;
    options.measure = true; // threads = 0: shared-pool fan-out

    const auto candidates = explorer.explore(workload, space, options);
    const auto ranked =
        DesignSpaceExplorer::ranked(candidates, costs::measuredEnergy());
    const auto front = DesignSpaceExplorer::paretoFront(
        candidates, costs::measuredEnergy(), costs::ame());
    // Heterogeneous stage: greedy per-layer coordinate descent from the
    // best homogeneous candidate under measured energy. The probe's
    // memoized counts make the re-measure nearly free.
    const HeterogeneousExploreResult hetero =
        explorer.exploreHeterogeneous(workload, space, options,
                                      costs::measuredEnergy());
    const auto model_stats = explorer.modelCache()->geometryStats();
    const auto named_stats = explorer.modelCache()->namedStats();
    const auto counts_stats = explorer.probe().countsStats();

    if (!first)
        std::printf(",\n");
    std::printf("{\"workload\":\"%s\",\n", workload.name.c_str());
    std::printf(" \"space\":{");
    emitAxis("crossbarSizes", space.crossbarSizes, ",");
    emitAxis("bitstreamLengths", space.bitstreamLengths, ",");
    std::printf("\"grayZones\":[");
    for (std::size_t i = 0; i < space.grayZones.size(); ++i)
        std::printf("%.17g%s", space.grayZones[i],
                    i + 1 < space.grayZones.size() ? "," : "");
    std::printf("],\"frequencyGhz\":%.17g},\n", space.frequencyGhz);
    std::printf(" \"candidates\":%zu,\n", candidates.size());

    std::printf(" \"ranked\":[\n");
    for (std::size_t i = 0; i < ranked.size(); ++i)
        emitCandidate(ranked[i], i + 1 == ranked.size());
    std::printf(" ],\n");

    std::printf(" \"paretoFront\":[\n");
    for (std::size_t i = 0; i < front.size(); ++i)
        emitCandidate(front[i], i + 1 == front.size());
    std::printf(" ],\n");

    const double seed_energy = hetero.seed.measured->totalEnergyAj;
    const double plan_energy = hetero.plan.measured.totalEnergyAj;
    std::printf(" \"heterogeneous\":{\"seed\":{\"crossbarSize\":%zu,"
                "\"window\":%zu,\"deltaIinUa\":%.17g,"
                "\"measuredEnergyAj\":%.17g},\n",
                hetero.seed.config.crossbarSize,
                hetero.seed.config.bitstreamLength,
                hetero.seed.config.deltaIinUa, seed_energy);
    std::printf("  \"plan\":[\n");
    for (std::size_t l = 0; l < hetero.plan.layers.size(); ++l) {
        const aqfp::AcceleratorConfig &point = hetero.plan.layers[l];
        std::printf("   {\"layer\":\"%s\",\"crossbarSize\":%zu,"
                    "\"window\":%zu,\"deltaIinUa\":%.17g}%s\n",
                    workload.layers[l].name.c_str(), point.crossbarSize,
                    point.bitstreamLength, point.deltaIinUa,
                    l + 1 < hetero.plan.layers.size() ? "," : "");
    }
    std::printf("  ],\n");
    std::printf("  \"planMeasuredEnergyAj\":%.17g,"
                "\"planAme\":%.17g,\"deltaAj\":%.17g,"
                "\"deltaPercent\":%.17g,\n",
                plan_energy, hetero.plan.ame, seed_energy - plan_energy,
                seed_energy > 0.0
                    ? 100.0 * (seed_energy - plan_energy) / seed_energy
                    : 0.0);
    std::printf("  \"evaluatedPlans\":%zu,\"crossProduct\":%.17g,"
                "\"sweeps\":%zu},\n",
                hetero.evaluatedPlans, hetero.crossProduct,
                hetero.sweeps);

    std::printf(" \"cache\":{\"modelHits\":%llu,\"modelMisses\":%llu,"
                "\"namedHits\":%llu,\"namedMisses\":%llu,"
                "\"countsHits\":%llu,\"countsMisses\":%llu}}",
                static_cast<unsigned long long>(model_stats.hits),
                static_cast<unsigned long long>(model_stats.misses),
                static_cast<unsigned long long>(named_stats.hits),
                static_cast<unsigned long long>(named_stats.misses),
                static_cast<unsigned long long>(counts_stats.hits),
                static_cast<unsigned long long>(counts_stats.misses));
    std::fprintf(stderr, "swept %s: %zu candidates, pareto %zu, "
                 "hetero delta %.3g aJ over %zu plans "
                 "(cross-product %.3g, %zu sweeps), "
                 "model %llu/%llu, named %llu/%llu, counts %llu/%llu "
                 "(hits/misses)\n",
                 workload.name.c_str(), candidates.size(), front.size(),
                 seed_energy - plan_energy, hetero.evaluatedPlans,
                 hetero.crossProduct, hetero.sweeps,
                 static_cast<unsigned long long>(model_stats.hits),
                 static_cast<unsigned long long>(model_stats.misses),
                 static_cast<unsigned long long>(named_stats.hits),
                 static_cast<unsigned long long>(named_stats.misses),
                 static_cast<unsigned long long>(counts_stats.hits),
                 static_cast<unsigned long long>(counts_stats.misses));
}

} // namespace

int
main()
{
    std::printf("{\"schema\":\"superbnn-autotune-v1\",\n");
    std::printf("\"workloads\":[\n");

    // Table 3 (MNIST MLP): small layers, so the space can afford the
    // full deltaIin axis — its candidates share calibration counts —
    // and several crossbar sizes.
    CoOptSpace mnist_space;
    mnist_space.crossbarSizes = {8, 16, 18, 36};
    mnist_space.bitstreamLengths = {4, 16};
    mnist_space.grayZones = {1.6, 2.4, 3.2};
    sweepWorkload(aqfp::workloads::mnistMlp(), mnist_space, true);

    // Table 2 (CIFAR-scale): trimmed axes keep the mapped-model
    // footprint and replay time bench-sized; the L axis still
    // exercises model-cache sharing (one mapped model serves both
    // windows of each geometry).
    CoOptSpace cifar_space;
    cifar_space.crossbarSizes = {16, 36};
    cifar_space.bitstreamLengths = {16, 32};
    cifar_space.grayZones = {2.4};
    sweepWorkload(aqfp::workloads::vggSmall(), cifar_space, false);
    sweepWorkload(aqfp::workloads::resnet18(), cifar_space, false);

    std::printf("\n]}\n");
    return 0;
}
