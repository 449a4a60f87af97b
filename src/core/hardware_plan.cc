#include "core/hardware_plan.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace superbnn::core {

void
LayerHardwareConfig::validate() const
{
    if (crossbarSize == 0)
        throw std::invalid_argument(
            "LayerHardwareConfig: crossbarSize must be >= 1 (a zero-size "
            "crossbar maps no layer)");
    if (window == 0)
        throw std::invalid_argument(
            "LayerHardwareConfig: window must be >= 1 (the SC bitstream "
            "must span at least one cycle)");
    if (!std::isfinite(deltaIinUa) || !(deltaIinUa > 0.0))
        throw std::invalid_argument(
            "LayerHardwareConfig: deltaIinUa must be positive and finite "
            "(got " + std::to_string(deltaIinUa) + ")");
}

bool
operator==(const LayerHardwareConfig &a, const LayerHardwareConfig &b)
{
    return a.crossbarSize == b.crossbarSize && a.window == b.window
        && a.deltaIinUa == b.deltaIinUa;
}

bool
operator!=(const LayerHardwareConfig &a, const LayerHardwareConfig &b)
{
    return !(a == b);
}

HardwarePlan::HardwarePlan() : HardwarePlan(HardwareConfig{}) {}

HardwarePlan::HardwarePlan(const HardwareConfig &config)
    : layers{LayerHardwareConfig{config.crossbarSize, config.window,
                                 config.deltaIinUa}},
      exactApc(config.exactApc), dropFraction(config.dropFraction),
      threads(config.threads), evalBatch(config.evalBatch)
{
    validate();
}

HardwarePlan::HardwarePlan(std::vector<LayerHardwareConfig> layer_points)
    : layers(std::move(layer_points))
{
    validate();
}

void
HardwarePlan::validate() const
{
    if (layers.empty())
        throw std::invalid_argument(
            "HardwarePlan: layers must not be empty (one broadcast "
            "entry, or one entry per mapped cell)");
    for (const LayerHardwareConfig &entry : layers)
        entry.validate();
    if (evalBatch == 0)
        throw std::invalid_argument(
            "HardwarePlan: evalBatch must be >= 1 (evaluate() needs at "
            "least one sample per executor pass)");
}

std::vector<LayerHardwareConfig>
HardwarePlan::resolve(std::size_t cell_count) const
{
    validate();
    if (cell_count == 0)
        throw std::invalid_argument(
            "HardwarePlan::resolve: cell_count must be >= 1 (a mapped "
            "model always has at least its head)");
    if (uniform())
        return std::vector<LayerHardwareConfig>(cell_count, layers[0]);
    if (layers.size() != cell_count)
        throw std::invalid_argument(
            "HardwarePlan::resolve: plan has "
            + std::to_string(layers.size())
            + " layer entries but the mapped model has "
            + std::to_string(cell_count)
            + " cells (hidden layers + head); a heterogeneous plan "
              "must match exactly");
    return layers;
}

bool
operator==(const HardwarePlan &a, const HardwarePlan &b)
{
    return a.layers == b.layers && a.exactApc == b.exactApc
        && a.dropFraction == b.dropFraction && a.threads == b.threads
        && a.evalBatch == b.evalBatch;
}

bool
operator!=(const HardwarePlan &a, const HardwarePlan &b)
{
    return !(a == b);
}

} // namespace superbnn::core
