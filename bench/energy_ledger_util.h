/**
 * @file
 * Shared helpers for the energy-ledger benches and their golden-file
 * regression test: geometry-only mapped layers, single-position ledger
 * replay of a LayerSpec, and the deterministic probe JSON. The
 * energy_probe bench and tests/test_energy_ledger.cc both emit their
 * JSON through this header, so the bytes CI diffs across thread counts
 * and SIMD arms are produced by exactly one code path.
 */

#ifndef SUPERBNN_BENCH_ENERGY_LEDGER_UTIL_H
#define SUPERBNN_BENCH_ENERGY_LEDGER_UTIL_H

#include <cstddef>
#include <string>
#include <vector>

#include "aqfp/attenuation.h"
#include "aqfp/energy.h"
#include "aqfp/ledger.h"
#include "crossbar/mapper.h"
#include "crossbar/tile_executor.h"
#include "tensor/random.h"

namespace energy_ledger_util {

using namespace superbnn;

/**
 * A MappedLayer of the given geometry with unprogrammed (inactive)
 * cells — thin alias of crossbar::geometryLayer, which the
 * programmed-model cache shares (see src/crossbar/mapper.h).
 */
inline crossbar::MappedLayer
geometryLayer(std::size_t fan_in, std::size_t fan_out, std::size_t cs,
              const aqfp::AttenuationModel &atten,
              double delta_iin_ua = 2.4)
{
    return crossbar::geometryLayer(fan_in, fan_out, cs, atten,
                                   delta_iin_ua);
}

/**
 * Observed ledger counts for one execution of @p layer on a single
 * input position. A LayerSpec with P spatial positions runs P
 * identical passes, so pricing scales these counts by P via
 * LedgerPricingContext::countScale.
 */
inline aqfp::LedgerCounts
measureSinglePosition(const crossbar::TileExecutor &exec,
                      const crossbar::MappedLayer &layer)
{
    aqfp::HardwareLedger ledger;
    Rng rng(1);
    const std::vector<int> acts(layer.fanIn, 1);
    exec.forward(layer, acts, rng, &ledger);
    return ledger.totals();
}

/**
 * Pricing context for a single-position replay of @p spec — thin alias
 * of aqfp::layerReplayContext, which the MeasuredCostProbe shares.
 */
inline aqfp::LedgerPricingContext
replayContext(const aqfp::LayerSpec &spec,
              const aqfp::AcceleratorConfig &config,
              std::size_t max_act_bits)
{
    return aqfp::layerReplayContext(spec, config, max_act_bits, 1.0);
}

/**
 * The fixed probe workload (two geometry layers at Cs = 16, window 16,
 * a 6-sample batch through forward + forwardDecoded on the default
 * shared-pool executor), measured, priced and reconciled, as
 * deterministic JSON. Nothing timing- or environment-dependent is
 * emitted: the bytes must be identical for every SUPERBNN_THREADS
 * value and every SUPERBNN_SIMD arm.
 */
inline std::string
energyProbeJson()
{
    const aqfp::AttenuationModel atten;
    const aqfp::AcceleratorConfig config{16, 16, 5.0, 2.4};
    const crossbar::MappedLayer l1 =
        geometryLayer(96, 48, config.crossbarSize, atten);
    const crossbar::MappedLayer l2 =
        geometryLayer(48, 10, config.crossbarSize, atten);

    // threads = 0: the shared pool, sized by SUPERBNN_THREADS —
    // the CI diff legs vary real scheduling underneath these counts.
    const crossbar::TileExecutor exec(config.bitstreamLength, false,
                                      0.25, 0);
    std::vector<std::vector<int>> batch(6, std::vector<int>(96));
    Rng setup(7);
    for (auto &sample : batch)
        for (auto &a : sample)
            a = setup.bernoulli(0.5) ? 1 : -1;

    aqfp::HardwareLedger led1, led2;
    Rng rng(11);
    const auto hidden = exec.forward(l1, batch, rng, &led1);
    std::vector<std::vector<int>> mid(hidden.size());
    for (std::size_t b = 0; b < hidden.size(); ++b)
        mid[b].assign(hidden[b].begin(), hidden[b].begin() + 48);
    (void)exec.forwardDecoded(l2, mid, rng, &led2);

    const aqfp::EnergyModel model;
    const std::size_t max_act_bits = 48;
    const aqfp::LayerSpec specs[2] = {
        aqfp::LayerSpec::fc("l1", 96, 48),
        aqfp::LayerSpec::fc("l2", 48, 10),
    };
    const aqfp::LedgerCounts counts[2] = {led1.totals(), led2.totals()};

    std::string out;
    out += "{\"schema\":\"superbnn-energy-probe-v1\",\n";
    out += "\"config\":{\"crossbarSize\":16,\"window\":16,"
           "\"frequencyGhz\":5,\"samples\":6},\n";
    out += "\"layers\":[\n";
    for (int i = 0; i < 2; ++i) {
        aqfp::LedgerPricingContext ctx =
            replayContext(specs[i], config, max_act_bits);
        ctx.countScale = 1.0;
        ctx.images = 6.0; // counts cover the whole 6-sample batch
        const aqfp::EnergyReport measured =
            model.priceLedger(counts[i], ctx);
        const aqfp::EnergyReport analytic =
            model.evaluateLayer(specs[i], config, max_act_bits);
        out += "{\"name\":\"" + specs[i].name + "\",\n";
        out += " \"counts\":" + aqfp::toJson(counts[i]) + ",\n";
        out += " \"measured\":" + aqfp::toJson(measured) + ",\n";
        out += " \"analytic\":" + aqfp::toJson(analytic) + "}";
        out += i == 0 ? ",\n" : "\n";
    }
    out += "]}\n";
    return out;
}

} // namespace energy_ledger_util

#endif // SUPERBNN_BENCH_ENERGY_LEDGER_UTIL_H
