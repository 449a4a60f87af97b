/**
 * @file
 * Layer/module abstraction of the BNN training framework.
 *
 * The framework implements explicit forward/backward layers (no tape
 * autograd): each Module caches what it needs during forward and returns
 * the input gradient from backward. Parameters expose value and gradient
 * tensors that the optimizer updates.
 */

#ifndef SUPERBNN_NN_MODULE_H
#define SUPERBNN_NN_MODULE_H

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace superbnn::nn {

/** A trainable tensor: value plus accumulated gradient. */
struct Parameter
{
    Parameter() = default;
    explicit Parameter(Tensor v)
        : value(std::move(v)), grad(value.shape()) {}

    Tensor value;
    Tensor grad;

    /** Reset the gradient accumulator. */
    void zeroGrad() { grad.zero(); }
};

/**
 * Base class of all layers.
 */
class Module
{
  public:
    virtual ~Module() = default;

    /**
     * Forward pass.
     * @param input     batch input tensor
     * @param training  true during training (enables stochastic paths,
     *                  batch statistics, caching for backward)
     */
    virtual Tensor forward(const Tensor &input, bool training) = 0;

    /**
     * Backward pass: consumes dL/d(output), returns dL/d(input), and
     * accumulates parameter gradients. Must follow a training-mode
     * forward call.
     */
    virtual Tensor backward(const Tensor &grad_output) = 0;

    /** Trainable parameters of this module (possibly empty). */
    virtual std::vector<Parameter *> parameters() { return {}; }

    /** Diagnostic layer name. */
    virtual std::string name() const = 0;
};

using ModulePtr = std::unique_ptr<Module>;

/**
 * Interface of layers that expose per-crossbar-tile partial sums.
 *
 * A binary layer whose fan-in exceeds one crossbar is physically split
 * into row tiles; each tile's column neuron only ever sees its *own*
 * partial sum. Tile-aware randomized binarization (the hardware-faithful
 * training mode) therefore needs the partial sums, not just the total.
 */
class TilePartialSource
{
  public:
    virtual ~TilePartialSource() = default;

    /** Number of row tiles T (1 when tiling is disabled). */
    virtual std::size_t tileCount() const = 0;

    /**
     * Partial sum of tile @p tile for the activation element at flat
     * index @p flat of the layer's output tensor of shape @p act_shape.
     * Only valid after a forward pass.
     */
    virtual float tilePartial(std::size_t tile, const Shape &act_shape,
                              std::size_t flat) const = 0;
};

} // namespace superbnn::nn

#endif // SUPERBNN_NN_MODULE_H
