#include "nn/connected.hpp"

#include <cmath>

namespace caltrain::nn {

namespace {
constexpr float kLeakySlope = 0.1F;
}

ConnectedLayer::ConnectedLayer(Shape in, int outputs, Activation activation)
    : Layer(in, Shape{1, 1, outputs}),
      inputs_(static_cast<int>(in.Flat())),
      outputs_(outputs),
      activation_(activation) {
  CALTRAIN_REQUIRE(outputs > 0, "connected layer needs outputs > 0");
  const std::size_t count =
      static_cast<std::size_t>(inputs_) * static_cast<std::size_t>(outputs_);
  weights_.assign(count, 0.0F);
  biases_.assign(static_cast<std::size_t>(outputs_), 0.0F);
  weight_momentum_.assign(count, 0.0F);
  bias_momentum_.assign(static_cast<std::size_t>(outputs_), 0.0F);
}

std::string ConnectedLayer::Describe() const {
  return "connected " + std::to_string(inputs_) + " -> " +
         std::to_string(outputs_);
}

void ConnectedLayer::Forward(const Batch& in, Batch& out,
                             const LayerContext& ctx) const {
  const std::size_t m = static_cast<std::size_t>(out.n);
  const std::size_t n = static_cast<std::size_t>(outputs_);
  const std::size_t k = static_cast<std::size_t>(inputs_);
  // out[m x n] = leaky(in[m x k] * W^T + bias) (W stored [n x k]); the
  // bias broadcast and activation live in the GEMM epilogue.
  GemmEpilogue epi;
  epi.accumulate = false;
  epi.col_bias = biases_.data();
  epi.negative_slope =
      activation_ == Activation::kLeakyRelu ? kLeakySlope : 1.0F;
  GemmTransBEx(ctx.profile, m, n, k, in.data.data(), weights_.data(),
               out.data.data(), epi);
}

void ConnectedLayer::Backward(const Batch& in, const Batch& out,
                              const Batch& delta_out, Batch& delta_in,
                              const LayerContext& ctx) const {
  CALTRAIN_CHECK(ctx.scratch != nullptr && ctx.grads != nullptr,
                 "connected backward needs workspace scratch and gradients");
  const std::size_t m = static_cast<std::size_t>(in.n);
  const std::size_t n = static_cast<std::size_t>(outputs_);
  const std::size_t k = static_cast<std::size_t>(inputs_);

  std::vector<float>& delta = ctx.scratch->delta;
  delta = delta_out.data;
  if (activation_ == Activation::kLeakyRelu) {
    for (std::size_t i = 0; i < delta.size(); ++i) {
      float scale = 1.0F;  // branch-free (x * 1 == x exactly)
      if (out.data[i] < 0.0F) scale = kLeakySlope;
      delta[i] *= scale;
    }
  }

  LayerGrads& grads = *ctx.grads;
  grads.EnsureSized(weights_.size(), biases_.size());

  // Bias gradients.
  for (std::size_t s = 0; s < m; ++s) {
    const float* row = delta.data() + s * n;
    for (std::size_t j = 0; j < n; ++j) grads.bias_grads[j] += row[j];
  }

  // Weight gradients: dW[n x k] += delta^T[n x m] * in[m x k].
  GemmTransA(ctx.profile, n, k, m, delta.data(), in.data.data(),
             grads.weight_grads.data());

  // Input gradients: d_in[m x k] = delta[m x n] * W[n x k], overwrite
  // mode (no zero fill); skipped when nothing consumes them.
  if (ctx.want_input_grad) {
    GemmEpilogue overwrite;
    overwrite.accumulate = false;
    GemmEx(ctx.profile, m, k, n, delta.data(), weights_.data(),
           delta_in.data.data(), overwrite);
  }
}

void ConnectedLayer::Update(const SgdConfig& config, int batch_size,
                            LayerGrads& grads) {
  grads.EnsureSized(weights_.size(), biases_.size());
  detail::ApplyDpSanitization(config, grads.weight_grads, grads.bias_grads);
  const float scale = config.learning_rate / static_cast<float>(batch_size);
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    weight_momentum_[i] = config.momentum * weight_momentum_[i] -
                          scale * grads.weight_grads[i] -
                          config.learning_rate * config.weight_decay *
                              weights_[i];
    weights_[i] += weight_momentum_[i];
    grads.weight_grads[i] = 0.0F;
  }
  for (std::size_t i = 0; i < biases_.size(); ++i) {
    bias_momentum_[i] =
        config.momentum * bias_momentum_[i] - scale * grads.bias_grads[i];
    biases_[i] += bias_momentum_[i];
    grads.bias_grads[i] = 0.0F;
  }
}

void ConnectedLayer::InitWeights(Rng& rng) {
  const float stddev = std::sqrt(2.0F / static_cast<float>(inputs_));
  for (float& w : weights_) w = rng.Gaussian(0.0F, stddev);
  std::fill(biases_.begin(), biases_.end(), 0.0F);
}

void ConnectedLayer::SerializeWeights(ByteWriter& writer) const {
  writer.WriteF32Vector(weights_);
  writer.WriteF32Vector(biases_);
}

void ConnectedLayer::DeserializeWeights(ByteReader& reader) {
  std::vector<float> w = reader.ReadF32Vector();
  std::vector<float> b = reader.ReadF32Vector();
  CALTRAIN_REQUIRE(w.size() == weights_.size() && b.size() == biases_.size(),
                   "connected weight blob shape mismatch");
  weights_ = std::move(w);
  biases_ = std::move(b);
}

std::uint64_t ConnectedLayer::ForwardFlopsPerSample() const noexcept {
  return 2ULL * static_cast<std::uint64_t>(inputs_) *
         static_cast<std::uint64_t>(outputs_);
}

std::size_t ConnectedLayer::WeightBytes() const noexcept {
  return (weights_.size() + biases_.size()) * sizeof(float);
}

}  // namespace caltrain::nn
