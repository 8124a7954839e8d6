#ifndef VISUALROAD_VISION_CONVNET_H_
#define VISUALROAD_VISION_CONVNET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "vision/tensor.h"

namespace visualroad::vision {

/// A KxK convolution layer (odd K: 3x3 or 1x1 in MiniYolo) with bias,
/// optional stride, and zero padding of K/2, executed as a direct
/// convolution one output row at a time: each row starts at its channel's
/// bias, then for every (input channel, kernel row) whose input row is in
/// range, the kernel row's taps are added with the output column loop
/// innermost and contiguous. Each tap's in-range columns are clipped once
/// per row, not checked per tap; 3-tap rows at stride 1 sum their taps in
/// a register.
///
/// Contract: every output adds its in-range taps onto its bias one at a
/// time in (input channel, ky, kx) order, so a forward pass is bitwise
/// reproducible and any faster loop must keep that order (pinned by
/// ConvTest/MiniYoloTest.ForwardDigestsArePinned). convnet.cc is therefore
/// built without -ffast-math (which reassociates the sums) and without
/// -mfma or -march (GCC contracts a*b+c into an FMA even under -std=c++20,
/// which rounds once instead of twice).
class Conv2d {
 public:
  /// Initialises He-style random weights from `seed` (deterministic).
  Conv2d(int in_channels, int out_channels, int kernel, int stride, uint64_t seed);

  Tensor Forward(const Tensor& input) const;

  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }
  /// Multiply-accumulate operations per forward pass of an input of the
  /// given spatial size (a full kernel per output) — used for FLOP
  /// accounting in benches.
  int64_t MacsFor(int height, int width) const;

 private:
  /// Outputs along one axis of `in` inputs, zero-padded by kernel / 2.
  int OutputSize(int in) const { return (in + 2 * (kernel_ / 2) - kernel_) / stride_ + 1; }

  int in_channels_;
  int out_channels_;
  int kernel_;
  int stride_;
  std::vector<float> weights_;  // [out][in][k][k]
  std::vector<float> bias_;
};

/// 2x2 max pooling with stride 2.
Tensor MaxPool2x2(const Tensor& input);

/// Leaky ReLU (slope 0.1), in place.
void LeakyRelu(Tensor& tensor);

}  // namespace visualroad::vision

#endif  // VISUALROAD_VISION_CONVNET_H_
