#include "nn/sequential.h"

namespace superbnn::nn {

Sequential &
Sequential::add(ModulePtr module)
{
    layers.push_back(std::move(module));
    return *this;
}

Tensor
Sequential::forward(const Tensor &input, bool training)
{
    Tensor x = input;
    for (auto &l : layers)
        x = l->forward(x, training);
    return x;
}

Tensor
Sequential::backward(const Tensor &grad_output)
{
    Tensor g = grad_output;
    for (auto it = layers.rbegin(); it != layers.rend(); ++it)
        g = (*it)->backward(g);
    return g;
}

std::vector<Parameter *>
Sequential::parameters()
{
    std::vector<Parameter *> params;
    for (auto &l : layers) {
        auto p = l->parameters();
        params.insert(params.end(), p.begin(), p.end());
    }
    return params;
}

} // namespace superbnn::nn
