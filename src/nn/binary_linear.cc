#include "nn/binary_linear.h"

#include <cmath>

#include "tensor/tensor_ops.h"

namespace superbnn::nn {

namespace {

Tensor
signOf(const Tensor &w)
{
    Tensor out(w.shape());
    for (std::size_t i = 0; i < w.size(); ++i)
        out[i] = w[i] >= 0.0f ? 1.0f : -1.0f;
    return out;
}

} // namespace

BinaryLinear::BinaryLinear(std::size_t in_features,
                           std::size_t out_features, Rng &rng,
                           std::size_t tile_size)
    : inF(in_features), outF(out_features), tileSize(tile_size),
      weight_(Tensor::kaiming({out_features, in_features}, rng,
                              in_features)),
      alpha_(Tensor({out_features}))
{
    // Initialize alpha to the XNOR-Net L1 scaling of each output row.
    for (std::size_t o = 0; o < outF; ++o) {
        double acc = 0.0;
        for (std::size_t i = 0; i < inF; ++i)
            acc += std::fabs(weight_.value.at(o, i));
        alpha_.value[o] =
            static_cast<float>(acc / static_cast<double>(inF));
    }
}

Tensor
BinaryLinear::signedWeights() const
{
    return signOf(weight_.value);
}

Tensor
BinaryLinear::forward(const Tensor &input, bool training)
{
    assert(input.rank() == 2 && input.dim(1) == inF);
    Tensor wb = signOf(weight_.value);
    Tensor s = matmulTransposedB(input, wb); // (N, out)
    const std::size_t n = s.dim(0);

    if (tileSize > 0) {
        // Per-row-tile partial sums for tile-aware binarization; the
        // downstream CellBinarize reads these in both modes, so they
        // are recorded for inference passes too.
        const std::size_t tiles = tileCount();
        cachedPartials = Tensor({tiles, n, outF});
        for (std::size_t t = 0; t < tiles; ++t) {
            const std::size_t lo = t * tileSize;
            const std::size_t hi = std::min(lo + tileSize, inF);
            for (std::size_t i = 0; i < n; ++i) {
                const float *x = input.data() + i * inF;
                for (std::size_t j = 0; j < outF; ++j) {
                    const float *w = wb.data() + j * inF;
                    float acc = 0.0f;
                    for (std::size_t k = lo; k < hi; ++k)
                        acc += x[k] * w[k];
                    cachedPartials[(t * n + i) * outF + j] = acc;
                }
            }
        }
    }

    Tensor out(s.shape());
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < outF; ++j)
            out.at(i, j) = s.at(i, j) * alpha_.value[j];
    if (training) {
        cachedInput = input;
        cachedBinWeight = std::move(wb);
        cachedPreScale = std::move(s);
    }
    return out;
}

std::size_t
BinaryLinear::tileCount() const
{
    if (tileSize == 0)
        return 1;
    return (inF + tileSize - 1) / tileSize;
}

float
BinaryLinear::tilePartial(std::size_t tile, const Shape &act_shape,
                          std::size_t flat) const
{
    assert(tileSize > 0 && !cachedPartials.empty());
    assert(act_shape.size() == 2 && act_shape[1] == outF);
    const std::size_t n = act_shape[0];
    assert(flat < n * outF);
    return cachedPartials[tile * n * outF + flat];
}

Tensor
BinaryLinear::backward(const Tensor &grad_output)
{
    assert(!cachedInput.empty());
    assert(grad_output.rank() == 2 && grad_output.dim(1) == outF);
    const std::size_t n = grad_output.dim(0);

    // Gradients of the scaling factors and the pre-scale product.
    // The alpha gradient is fan-in normalized: the raw gradient scales
    // with E[s^2] ~ fanIn, which destabilizes plain SGD for wide
    // layers; dividing by fanIn is per-parameter preconditioning that
    // keeps one global learning rate usable across layer widths.
    Tensor ds(grad_output.shape());
    const float inv_fan = 1.0f / static_cast<float>(inF);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < outF; ++j) {
            const float dy = grad_output.at(i, j);
            alpha_.grad[j] += dy * cachedPreScale.at(i, j) * inv_fan;
            ds.at(i, j) = dy * alpha_.value[j];
        }
    }

    // STE through the sign: dwr = dwb where |wr| <= 1 (clipped).
    Tensor dwb = matmulTransposedA(ds, cachedInput); // (out, in)
    for (std::size_t i = 0; i < dwb.size(); ++i) {
        const float wr = weight_.value[i];
        if (wr >= -1.0f && wr <= 1.0f)
            weight_.grad[i] += dwb[i];
    }

    return matmul(ds, cachedBinWeight); // (N, in)
}

std::vector<Parameter *>
BinaryLinear::parameters()
{
    return {&weight_, &alpha_};
}

} // namespace superbnn::nn
