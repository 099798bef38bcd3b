// Profile-independent kernels: im2col / col2im, single-sample and
// batched-wide variants.
//
// The batched variants lower a block of samples side by side into one
// wide column buffer (see kernels.hpp) and dispatch row ranges through
// the thread pool.  Every parallel unit writes a disjoint region with
// the same inner order as the serial loop, so results are identical at
// any thread count; inside an existing parallel region (the
// data-parallel training shards) everything runs inline.
#include "nn/kernels.hpp"

#include <algorithm>

#include "util/threadpool.hpp"

namespace caltrain::nn {

namespace {
constexpr bool InBounds(int v, int limit) noexcept {
  return v >= 0 && v < limit;
}

/// Output columns [lo, hi) whose input column ox*stride - pad + kx lies
/// inside [0, width); the rest of the row reads the zero padding.
struct TapSpan {
  int lo, hi;
};

inline TapSpan ColumnSpan(int kx, int stride, int pad, int width,
                          int out_w) noexcept {
  const auto ceil_div = [](int a, int b) {  // b > 0, any sign of a
    return a >= 0 ? (a + b - 1) / b : -((-a) / b);
  };
  const int lo = std::min(out_w, std::max(0, ceil_div(pad - kx, stride)));
  const int hi = std::min(out_w, ceil_div(width + pad - kx, stride));
  return TapSpan{lo, std::max(lo, hi)};
}

/// Writes one im2col row (channel plane `in_c`, kernel offset ky/kx)
/// of out_h*out_w values into `col_row`.
inline void Im2ColRow(const float* in_c, int height, int width, int ky,
                      int kx, int stride, int pad, int out_h, int out_w,
                      float* col_row) noexcept {
  const TapSpan span = ColumnSpan(kx, stride, pad, width, out_w);
  const int shift = kx - pad;
  for (int oy = 0; oy < out_h; ++oy, col_row += out_w) {
    const int iy = oy * stride - pad + ky;
    if (!InBounds(iy, height)) {
      std::fill(col_row, col_row + out_w, 0.0F);
      continue;
    }
    const float* in_row = in_c + static_cast<std::size_t>(iy) * width;
    std::fill(col_row, col_row + span.lo, 0.0F);
    if (stride == 1) {
      std::copy(in_row + span.lo + shift, in_row + span.hi + shift,
                col_row + span.lo);
    } else {
      for (int ox = span.lo; ox < span.hi; ++ox) {
        col_row[ox] = in_row[ox * stride + shift];
      }
    }
    std::fill(col_row + span.hi, col_row + out_w, 0.0F);
  }
}

/// Scatter-adds one channel's ksize*ksize column rows back into the
/// channel plane `in_c`.  Rows of the column block are `ld` floats
/// apart.  Within one (tap, output row) every input element receives at
/// most one add, so each element's accumulation order is the tap-major,
/// row-major order of the loops.
inline void Col2ImChannel(const float* col_c, std::size_t ld, int height,
                          int width, int ksize, int stride, int pad,
                          int out_h, int out_w, float* in_c) noexcept {
  const int channel_cols = ksize * ksize;
  for (int kidx = 0; kidx < channel_cols; ++kidx) {
    const int ky = kidx / ksize;
    const int kx = kidx % ksize;
    const TapSpan span = ColumnSpan(kx, stride, pad, width, out_w);
    const int shift = kx - pad;
    const float* col_row = col_c + static_cast<std::size_t>(kidx) * ld;
    for (int oy = 0; oy < out_h; ++oy, col_row += out_w) {
      const int iy = oy * stride - pad + ky;
      if (!InBounds(iy, height)) continue;
      float* in_row = in_c + static_cast<std::size_t>(iy) * width;
      if (stride == 1) {
        for (int ox = span.lo; ox < span.hi; ++ox) {
          in_row[ox + shift] += col_row[ox];
        }
      } else {
        for (int ox = span.lo; ox < span.hi; ++ox) {
          in_row[ox * stride + shift] += col_row[ox];
        }
      }
    }
  }
}

// The guard deliberately short-circuits *before* the std::function
// type erasure inside ParallelFor (same pattern as the GEMM bodies'
// ForEachRowBlock): the nested/serial case is the per-shard training
// hot path and must cost exactly the plain loop.
template <typename Fn>
inline void ForEachUnit(std::size_t count, Fn&& fn) {
  if (count < 2 || util::Parallelism::threads() <= 1 ||
      util::InParallelRegion()) {
    for (std::size_t u = 0; u < count; ++u) fn(u);
    return;
  }
  util::ParallelFor(0, count, std::forward<Fn>(fn));
}
}  // namespace

void Im2Col(const float* in, int channels, int height, int width, int ksize,
            int stride, int pad, float* col) noexcept {
  const int out_h = (height + 2 * pad - ksize) / stride + 1;
  const int out_w = (width + 2 * pad - ksize) / stride + 1;
  const std::size_t out_hw = static_cast<std::size_t>(out_h) * out_w;
  const int channel_cols = ksize * ksize;
  std::size_t row = 0;
  for (int c = 0; c < channels; ++c) {
    const float* in_c = in + static_cast<std::size_t>(c) * height * width;
    for (int kidx = 0; kidx < channel_cols; ++kidx) {
      Im2ColRow(in_c, height, width, kidx / ksize, kidx % ksize, stride, pad,
                out_h, out_w, col + row * out_hw);
      ++row;
    }
  }
}

void Col2Im(const float* col, int channels, int height, int width, int ksize,
            int stride, int pad, float* in) noexcept {
  const int out_h = (height + 2 * pad - ksize) / stride + 1;
  const int out_w = (width + 2 * pad - ksize) / stride + 1;
  const std::size_t out_hw = static_cast<std::size_t>(out_h) * out_w;
  const std::size_t channel_cols = static_cast<std::size_t>(ksize) * ksize;
  for (int c = 0; c < channels; ++c) {
    Col2ImChannel(col + static_cast<std::size_t>(c) * channel_cols * out_hw,
                  out_hw, height, width, ksize, stride, pad, out_h, out_w,
                  in + static_cast<std::size_t>(c) * height * width);
  }
}

void Im2ColBatch(const float* in, std::size_t sample_stride, int batch,
                 int channels, int height, int width, int ksize, int stride,
                 int pad, float* col_wide) {
  const int out_h = (height + 2 * pad - ksize) / stride + 1;
  const int out_w = (width + 2 * pad - ksize) / stride + 1;
  const std::size_t out_hw = static_cast<std::size_t>(out_h) * out_w;
  const std::size_t rows =
      static_cast<std::size_t>(channels) * ksize * ksize;
  const std::size_t ld = static_cast<std::size_t>(batch) * out_hw;
  const int channel_cols = ksize * ksize;
  // One unit per (sample, column-row): disjoint destination rows, so
  // the parallel sweep is a pure deterministic copy.
  ForEachUnit(static_cast<std::size_t>(batch) * rows, [=](std::size_t u) {
    const std::size_t s = u / rows;
    const std::size_t row = u % rows;
    const int c = static_cast<int>(row) / channel_cols;
    const int kidx = static_cast<int>(row) % channel_cols;
    const float* in_c = in + s * sample_stride +
                        static_cast<std::size_t>(c) * height * width;
    Im2ColRow(in_c, height, width, kidx / ksize, kidx % ksize, stride, pad,
              out_h, out_w, col_wide + row * ld + s * out_hw);
  });
}

void Col2ImBatch(const float* col_wide, int batch, int channels, int height,
                 int width, int ksize, int stride, int pad, float* in,
                 std::size_t sample_stride) {
  const int out_h = (height + 2 * pad - ksize) / stride + 1;
  const int out_w = (width + 2 * pad - ksize) / stride + 1;
  const std::size_t out_hw = static_cast<std::size_t>(out_h) * out_w;
  const std::size_t ld = static_cast<std::size_t>(batch) * out_hw;
  const std::size_t channel_cols = static_cast<std::size_t>(ksize) * ksize;
  // One unit per (sample, channel): each scatter region is disjoint
  // and keeps the serial within-channel accumulation order.
  ForEachUnit(static_cast<std::size_t>(batch) * channels, [=](std::size_t u) {
    const std::size_t s = u / static_cast<std::size_t>(channels);
    const int c = static_cast<int>(u % static_cast<std::size_t>(channels));
    Col2ImChannel(col_wide + s * out_hw +
                      static_cast<std::size_t>(c) * channel_cols * ld,
                  ld, height, width, ksize, stride, pad, out_h, out_w,
                  in + s * sample_stride +
                      static_cast<std::size_t>(c) * height * width);
  });
}

}  // namespace caltrain::nn
