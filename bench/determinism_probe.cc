/**
 * @file
 * Determinism probe for CI: runs a fixed multi-layer executor workload
 * through the default (shared-pool) threading path and prints every
 * output bit-exactly. The program's stdout must be byte-identical for
 * any SUPERBNN_THREADS value and any SUPERBNN_SIMD arm — CI runs it
 * under several settings and diffs the outputs, which catches a
 * scheduling- or arm-dependent RNG regression that in-process tests
 * structured around the same seeding scheme could miss.
 *
 * A second section drives a heterogeneous core::HardwarePlan (every
 * layer at a different Cs/L/deltaIin) through HardwareEvaluator's
 * seeded batched path and prints scores plus the whole-chip ledger
 * totals, so the per-layer-plan machinery sits under the same
 * cross-thread, cross-arm byte diff as the raw executor.
 *
 * Nothing timing- or environment-dependent may be printed here.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "aqfp/attenuation.h"
#include "aqfp/ledger.h"
#include "core/hardware_eval.h"
#include "core/models.h"
#include "crossbar/mapper.h"
#include "crossbar/tile_executor.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

using namespace superbnn;

namespace {

crossbar::MappedLayer
signedLayer(const crossbar::CrossbarMapper &mapper, std::size_t out,
            std::size_t in, Rng &rng)
{
    Tensor w({out, in});
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
    crossbar::MappedLayer layer = mapper.map(w);
    crossbar::CrossbarMapper::setThresholds(
        layer, std::vector<double>(out, 0.0));
    return layer;
}

} // namespace

int
main()
{
    const aqfp::AttenuationModel atten;
    const crossbar::CrossbarMapper mapper(16, atten, 2.4);
    Rng setup(7);
    const crossbar::MappedLayer l1 = signedLayer(mapper, 48, 96, setup);
    const crossbar::MappedLayer l2 = signedLayer(mapper, 10, 48, setup);

    std::vector<std::vector<int>> batch(6, std::vector<int>(96));
    for (auto &sample : batch)
        for (auto &a : sample)
            a = setup.bernoulli(0.5) ? 1 : -1;

    // threads = 0: the shared pool, sized by SUPERBNN_THREADS.
    const crossbar::TileExecutor exec(16, false, 0.25, 0);

    Rng rng(11);
    const auto hidden = exec.forward(l1, batch, rng);
    const auto scores = exec.forwardDecoded(l2, hidden, rng);

    std::uint64_t fnv = 1469598103934665603ULL;
    for (std::size_t b = 0; b < hidden.size(); ++b) {
        std::printf("sample %zu hidden:", b);
        for (const int v : hidden[b]) {
            std::printf(" %d", v);
            fnv = (fnv ^ static_cast<std::uint64_t>(
                       static_cast<std::uint32_t>(v)))
                * 1099511628211ULL;
        }
        std::printf("\n");
        std::printf("sample %zu scores:", b);
        for (const double s : scores[b])
            // %.17g round-trips doubles exactly.
            std::printf(" %.17g", s);
        std::printf("\n");
    }
    std::printf("hidden-fnv %llu\n",
                static_cast<unsigned long long>(fnv));

    // Heterogeneous-plan section: an untrained (but fully seeded) MLP
    // with every mapped cell at its own operating point, evaluated
    // through the request-seeded batched path (bit-identical for any
    // batch coalescing, thread count and SIMD arm by contract).
    Rng model_rng(23);
    const core::RandomizedMlp mlp(48, std::vector<std::size_t>{32, 24},
                                  10, core::AqfpBehavior{16, 2.4, 0.0},
                                  atten, model_rng);
    const core::HardwarePlan plan(std::vector<core::LayerHardwareConfig>{
        {8, 4, 1.6}, {16, 8, 2.4}, {36, 16, 3.2}});
    core::HardwareEvaluator eval(atten, plan);
    eval.mapMlp(mlp);

    Rng input_rng(29);
    std::vector<Tensor> samples;
    std::vector<std::uint64_t> seeds;
    for (std::size_t b = 0; b < 4; ++b) {
        Tensor s({1, 48});
        for (std::size_t i = 0; i < s.size(); ++i)
            s[i] = input_rng.bernoulli(0.5) ? 1.0f : -1.0f;
        samples.push_back(std::move(s));
        seeds.push_back(0x9000 + 7 * b);
    }
    const auto plan_scores = eval.classScoresSeeded(samples, seeds);
    std::uint64_t plan_fnv = 1469598103934665603ULL;
    for (std::size_t b = 0; b < plan_scores.size(); ++b) {
        std::printf("plan sample %zu scores:", b);
        for (const double s : plan_scores[b]) {
            std::printf(" %.17g", s);
            std::uint64_t bits = 0;
            static_assert(sizeof(bits) == sizeof(s));
            std::memcpy(&bits, &s, sizeof(bits));
            plan_fnv = (plan_fnv ^ bits) * 1099511628211ULL;
        }
        std::printf("\n");
    }
    std::printf("plan ledger %s\n",
                aqfp::toJson(eval.totalLedgerCounts()).c_str());
    std::printf("plan-fnv %llu\n",
                static_cast<unsigned long long>(plan_fnv));
    return 0;
}
