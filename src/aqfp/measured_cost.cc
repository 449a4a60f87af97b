#include "aqfp/measured_cost.h"

#include "crossbar/tile_executor.h"
#include "tensor/random.h"

namespace superbnn::aqfp {

MeasuredCostProbe::MeasuredCostProbe(
    AttenuationModel atten_model, EnergyModel model,
    std::shared_ptr<crossbar::ProgrammedModelCache> cache)
    : atten(atten_model), model_(std::move(model)),
      cache_(cache ? std::move(cache)
                   : std::make_shared<crossbar::ProgrammedModelCache>(
                         atten_model))
{
}

LedgerCounts
MeasuredCostProbe::countsFor(std::size_t fan_in, std::size_t fan_out,
                             std::size_t cs, std::size_t window) const
{
    const CountsKey key{fan_in, fan_out, cs, window};
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counts_.find(key);
    if (it != counts_.end()) {
        ++stats_.hits;
        return it->second;
    }
    ++stats_.misses;
    // Counts are value-independent, so one all-ones single-position
    // pass through the cached geometry model stands for any input. The
    // replay model is always requested at the CANONICAL deltaIin (the
    // gray zone shifts probabilities, never counts): were the first
    // missing candidate's gray zone used instead, the model cache's
    // hit/miss split would depend on which candidate raced to the miss
    // first, and the autotune artifact would no longer be byte-stable
    // across thread counts. The replay runs sequentially (threads = 1):
    // calibration layers are small, and the explorer already fans
    // candidates out; totals are bit-identical at any thread count
    // regardless.
    const std::shared_ptr<const crossbar::MappedLayer> layer =
        cache_->geometry(fan_in, fan_out, cs);
    const crossbar::TileExecutor exec(window, false, 0.25, 1);
    HardwareLedger ledger;
    const std::vector<int> acts(layer->fanIn, 1);
    exec.forwardSeeded(*layer, {acts}, {Rng(1).raw()()}, &ledger);
    const LedgerCounts totals = ledger.totals();
    counts_.emplace(key, totals);
    return totals;
}

EnergyReport
MeasuredCostProbe::measureLayer(const LayerSpec &spec,
                                const AcceleratorConfig &config,
                                std::size_t max_act_bits) const
{
    const LedgerCounts counts =
        countsFor(spec.fanIn, spec.fanOut, config.crossbarSize,
                  config.bitstreamLength);
    return model_.priceLedger(
        counts, layerReplayContext(spec, config, max_act_bits, 1.0));
}

EnergyReport
MeasuredCostProbe::measureWorkload(const WorkloadSpec &workload,
                                   const AcceleratorConfig &config) const
{
    workload.validate();
    const std::size_t max_act_bits = workload.maxActivationBits();
    std::vector<EnergyReport> layers;
    layers.reserve(workload.layers.size());
    for (const LayerSpec &spec : workload.layers)
        layers.push_back(measureLayer(spec, config, max_act_bits));
    return model_.combineLayerReports(layers, config, workload.totalOps(),
                                      max_act_bits);
}

MeasuredCostProbe::Stats
MeasuredCostProbe::countsStats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace superbnn::aqfp
