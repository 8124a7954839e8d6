#include "vision/convnet.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"

namespace visualroad::vision {

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride,
               uint64_t seed)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      weights_(static_cast<size_t>(out_channels) * in_channels * kernel * kernel),
      bias_(out_channels) {
  Pcg32 rng = SubStream(seed, "conv-weights");
  double scale = std::sqrt(2.0 / (in_channels * kernel * kernel));
  for (float& w : weights_) w = static_cast<float>(rng.NextGaussian(0.0, scale));
  for (float& b : bias_) b = static_cast<float>(rng.NextGaussian(0.0, 0.01));
}

namespace {

/// The outputs o in [0, out_n) whose input index o * stride + offset lies in
/// [0, in_n), as a half-open range (empty when lo >= hi).
struct OutputRange {
  int lo;
  int hi;
};

OutputRange InRangeOutputs(int offset, int stride, int in_n, int out_n) {
  int lo = offset >= 0 ? 0 : (-offset + stride - 1) / stride;
  // The last input index is in_n - 1. When the tap lies wholly past it the
  // numerator is negative, and truncating division would admit o = 0.
  int last = in_n - 1 - offset;
  int hi = last < 0 ? 0 : std::min(out_n, last / stride + 1);
  return {lo, hi};
}

/// Adds one 3-tap kernel row at stride 1 onto an output row as wide as its
/// input row (at least 2). Each output sums its taps in a register in kx
/// order; the two edge columns skip the tap that falls in the padding.
void AddThreeTapRow(const float* w, const float* in, float* out, int width) {
  const float w0 = w[0], w1 = w[1], w2 = w[2];
  float first = out[0];
  first += w1 * in[0];
  first += w2 * in[1];
  out[0] = first;
  for (int x = 1; x + 1 < width; ++x) {
    float acc = out[x];
    acc += w0 * in[x - 1];
    acc += w1 * in[x];
    acc += w2 * in[x + 1];
    out[x] = acc;
  }
  float last = out[width - 1];
  last += w0 * in[width - 2];
  last += w1 * in[width - 1];
  out[width - 1] = last;
}

}  // namespace

Tensor Conv2d::Forward(const Tensor& input) const {
  const int pad = kernel_ / 2;
  const int in_h = input.height(), in_w = input.width();
  const int out_h = OutputSize(in_h);
  const int out_w = OutputSize(in_w);
  Tensor output(out_channels_, out_h, out_w);
  if (output.size() == 0) return output;
  const bool three_tap = kernel_ == 3 && stride_ == 1 && out_w >= 2;

  // Row by row, each output starts at its bias and adds its in-range taps
  // in (ic, ky, kx) order, the order of the textbook loop nest, so the float
  // sums round identically; only the column loop is innermost and unchecked.
  for (int oc = 0; oc < out_channels_; ++oc) {
    for (int oy = 0; oy < out_h; ++oy) {
      float* out = output.Channel(oc) + static_cast<size_t>(oy) * out_w;
      std::fill(out, out + out_w, bias_[oc]);
      const int base_y = oy * stride_ - pad;
      const int ky_lo = std::max(0, -base_y);
      const int ky_hi = std::min(kernel_, in_h - base_y);
      for (int ic = 0; ic < in_channels_; ++ic) {
        const float* in_channel = input.Channel(ic);
        const float* w = &weights_[((static_cast<size_t>(oc) * in_channels_ + ic) *
                                    kernel_) *
                                   kernel_];
        for (int ky = ky_lo; ky < ky_hi; ++ky) {
          const float* in = in_channel + static_cast<size_t>(base_y + ky) * in_w;
          const float* w_row = w + ky * kernel_;
          if (three_tap) {
            AddThreeTapRow(w_row, in, out, out_w);
            continue;
          }
          for (int kx = 0; kx < kernel_; ++kx) {
            const float tap = w_row[kx];
            const auto [lo, hi] = InRangeOutputs(kx - pad, stride_, in_w, out_w);
            for (int ox = lo; ox < hi; ++ox) out[ox] += tap * in[ox * stride_ + kx - pad];
          }
        }
      }
    }
  }
  return output;
}

int64_t Conv2d::MacsFor(int height, int width) const {
  return static_cast<int64_t>(out_channels_) * in_channels_ * kernel_ * kernel_ *
         OutputSize(height) * OutputSize(width);
}

Tensor MaxPool2x2(const Tensor& input) {
  int out_h = input.height() / 2, out_w = input.width() / 2;
  Tensor output(input.channels(), out_h, out_w);
  for (int c = 0; c < input.channels(); ++c) {
    for (int y = 0; y < out_h; ++y) {
      for (int x = 0; x < out_w; ++x) {
        float m = input.At(c, y * 2, x * 2);
        m = std::max(m, input.At(c, y * 2, x * 2 + 1));
        m = std::max(m, input.At(c, y * 2 + 1, x * 2));
        m = std::max(m, input.At(c, y * 2 + 1, x * 2 + 1));
        output.At(c, y, x) = m;
      }
    }
  }
  return output;
}

void LeakyRelu(Tensor& tensor) {
  for (float& v : tensor.data()) {
    if (v < 0) v *= 0.1f;
  }
}

}  // namespace visualroad::vision
