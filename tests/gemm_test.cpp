// GEMM substrate parity suite.
//
// Both profiles run the cache-blocked register-tiled core
// (gemm_tile.inc): Fast with fast-math and tiny-shape fallbacks to the
// naive bodies, Precise under the strict policy on every shape.  These
// tests pin the contracts that core must keep:
//  * oracle — every Precise entry point is bit-identical (memcmp) to
//    the naive serial-order bodies of gemm_body.inc, compiled into this
//    TU with the same -ffp-contract=off as gemm_precise.cpp, on odd/tail
//    and block-crossing shapes, every epilogue variant, batched conv
//    layouts, IEEE edge-case inputs (signed zeros, subnormals, ±Inf),
//    at threads 1/2/3/8;
//  * parity — tiled Fast results match Precise within a k-scaled
//    tolerance across odd/tail shapes (every m, n, k combination of
//    {1, 3, 5, 17, 33, 63} plus block-boundary shapes that cross the
//    KC/MC/NC plan), for all three storage orders and the epilogue
//    variants;
//  * determinism — Fast results (tiled or fallback, epilogue or not,
//    batched conv included) are bit-identical at threads 1/2/3/8.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nn/kernels.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

// The naive serial-order bodies: the Precise oracle.
#include "nn/gemm_body.inc"

namespace caltrain::nn {
namespace {

struct GemmShape {
  std::size_t m, n, k;
};

std::vector<GemmShape> OddTailShapes() {
  const std::size_t dims[] = {1, 3, 5, 17, 33, 63};
  std::vector<GemmShape> shapes;
  for (std::size_t m : dims) {
    for (std::size_t n : dims) {
      for (std::size_t k : dims) shapes.push_back({m, n, k});
    }
  }
  return shapes;
}

/// Shapes that cross the tiled block plan: multiple KC slabs (k > 256),
/// multiple MC blocks (m > 72), multiple NC panels (n > 2048), and the
/// paper's 10-layer conv lowerings.
std::vector<GemmShape> BlockCrossingShapes() {
  return {
      {100, 260, 300},  // crosses MC and KC with tails everywhere
      {73, 2070, 17},   // crosses NC with a one-row MC tail
      {6, 33, 513},     // three KC slabs on a single tile row
      {128, 784, 27},   // Table-1 layer-1 conv GEMM
      {10, 49, 128},    // Table-1 1x1 head conv GEMM
      {256, 256, 256},  // bench shape: many panel-grid items per slab
      {80, 2100, 260},  // two NC panels x two KC slabs x two MC blocks
  };
}

float ParityTolerance(std::size_t k) {
  // Random Gaussian operands: |sum of k products| ~ sqrt(k), and the
  // tiled/naive orders differ by O(eps) per step.
  return 1e-4F * (1.0F + std::sqrt(static_cast<float>(k)));
}

void FillGaussian(std::vector<float>& v, Rng& rng) {
  for (float& x : v) x = rng.Gaussian();
}

TEST(GemmParityTest, FastMatchesPreciseAcrossOddTailShapes) {
  for (const GemmShape& s : OddTailShapes()) {
    Rng rng(100 + s.m * 37 + s.n * 11 + s.k);
    std::vector<float> a(s.m * s.k), b(s.k * s.n), a_t(s.k * s.m),
        b_t(s.n * s.k);
    FillGaussian(a, rng);
    FillGaussian(b, rng);
    FillGaussian(a_t, rng);
    FillGaussian(b_t, rng);
    const float tol = ParityTolerance(s.k);

    std::vector<float> fast(s.m * s.n, 0.5F), precise(s.m * s.n, 0.5F);
    GemmFast(s.m, s.n, s.k, a.data(), b.data(), fast.data());
    GemmPrecise(s.m, s.n, s.k, a.data(), b.data(), precise.data());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      ASSERT_NEAR(fast[i], precise[i], tol)
          << "Gemm m=" << s.m << " n=" << s.n << " k=" << s.k << " i=" << i;
    }

    std::fill(fast.begin(), fast.end(), 0.5F);
    std::fill(precise.begin(), precise.end(), 0.5F);
    GemmTransAFast(s.m, s.n, s.k, a_t.data(), b.data(), fast.data());
    GemmTransAPrecise(s.m, s.n, s.k, a_t.data(), b.data(), precise.data());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      ASSERT_NEAR(fast[i], precise[i], tol)
          << "GemmTransA m=" << s.m << " n=" << s.n << " k=" << s.k;
    }

    std::fill(fast.begin(), fast.end(), 0.5F);
    std::fill(precise.begin(), precise.end(), 0.5F);
    GemmTransBFast(s.m, s.n, s.k, a.data(), b_t.data(), fast.data());
    GemmTransBPrecise(s.m, s.n, s.k, a.data(), b_t.data(), precise.data());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      ASSERT_NEAR(fast[i], precise[i], tol)
          << "GemmTransB m=" << s.m << " n=" << s.n << " k=" << s.k;
    }
  }
}

TEST(GemmParityTest, EpilogueMatchesReferenceOnBothProfiles) {
  // Overwrite mode with row/col bias and leaky activation, checked
  // against an explicitly computed reference on shapes that use both
  // the tiled core and the naive fallback.
  for (const GemmShape& s : std::vector<GemmShape>{
           {5, 7, 3}, {33, 63, 17}, {100, 260, 300}}) {
    Rng rng(7 + s.m + s.n + s.k);
    std::vector<float> a(s.m * s.k), b(s.k * s.n), row_bias(s.m),
        col_bias(s.n);
    FillGaussian(a, rng);
    FillGaussian(b, rng);
    FillGaussian(row_bias, rng);
    FillGaussian(col_bias, rng);

    std::vector<float> expected(s.m * s.n);
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t j = 0; j < s.n; ++j) {
        double acc = 0.0;
        for (std::size_t p = 0; p < s.k; ++p) {
          acc += static_cast<double>(a[i * s.k + p]) * b[p * s.n + j];
        }
        double v = acc + row_bias[i] + col_bias[j];
        if (v < 0.0) v *= 0.1;
        expected[i * s.n + j] = static_cast<float>(v);
      }
    }

    GemmEpilogue epi;
    epi.accumulate = false;
    epi.row_bias = row_bias.data();
    epi.col_bias = col_bias.data();
    epi.negative_slope = 0.1F;
    const float tol = ParityTolerance(s.k);
    std::vector<float> got(s.m * s.n, -123.0F);  // garbage: must be ignored
    GemmExFast(s.m, s.n, s.k, a.data(), b.data(), got.data(), epi);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], expected[i], tol) << "fast epilogue i=" << i;
    }
    std::fill(got.begin(), got.end(), -123.0F);
    GemmExPrecise(s.m, s.n, s.k, a.data(), b.data(), got.data(), epi);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], expected[i], tol) << "precise epilogue i=" << i;
    }
  }
}

TEST(GemmParityTest, ConvGemmBatchedMatchesPerSampleLowering) {
  // One wide batched GEMM must agree with per-sample epilogue GEMMs on
  // both profiles (each scatters a single wide GEMM across sample
  // planes).
  constexpr std::size_t m = 9, n = 21, k = 30;
  constexpr int batch = 5;
  Rng rng(321);
  std::vector<float> w(m * k), col(k * batch * n), bias(m);
  FillGaussian(w, rng);
  FillGaussian(col, rng);
  FillGaussian(bias, rng);

  std::vector<float> expected(static_cast<std::size_t>(batch) * m * n);
  for (int s = 0; s < batch; ++s) {
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        double acc = bias[i];
        for (std::size_t p = 0; p < k; ++p) {
          acc += static_cast<double>(w[i * k + p]) *
                 col[p * batch * n + static_cast<std::size_t>(s) * n + j];
        }
        if (acc < 0.0) acc *= 0.1;
        expected[static_cast<std::size_t>(s) * m * n + i * n + j] =
            static_cast<float>(acc);
      }
    }
  }

  const float tol = ParityTolerance(k);
  for (KernelProfile profile :
       {KernelProfile::kFast, KernelProfile::kPrecise}) {
    std::vector<float> out(expected.size(), -7.0F);
    ConvGemmBatched(profile, m, n, k, batch, w.data(), col.data(),
                    bias.data(), 0.1F, out.data());
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_NEAR(out[i], expected[i], tol)
          << (profile == KernelProfile::kFast ? "fast" : "precise")
          << " batched conv i=" << i;
    }
  }
}

TEST(GemmDeterminismTest, FastResultsBitIdenticalAcrossThreadCounts) {
  // The tiled block plan is fixed and parallel dispatch only splits
  // disjoint output tiles, so every Fast entry point must produce
  // byte-identical results at threads 1/2/3/8 — including shapes that
  // cross KC/MC/NC block boundaries and the epilogue variants.
  std::vector<GemmShape> shapes = OddTailShapes();
  const std::vector<GemmShape> crossing = BlockCrossingShapes();
  shapes.insert(shapes.end(), crossing.begin(), crossing.end());

  for (const GemmShape& s : shapes) {
    Rng rng(5000 + s.m * 13 + s.n * 7 + s.k);
    std::vector<float> a(s.m * s.k), b(s.k * s.n), a_t(s.k * s.m),
        b_t(s.n * s.k), row_bias(s.m);
    FillGaussian(a, rng);
    FillGaussian(b, rng);
    FillGaussian(a_t, rng);
    FillGaussian(b_t, rng);
    FillGaussian(row_bias, rng);

    GemmEpilogue epi;
    epi.accumulate = false;
    epi.row_bias = row_bias.data();
    epi.negative_slope = 0.1F;

    using Runner = void (*)(const GemmShape&, const float*, const float*,
                            const float*, const GemmEpilogue&, float*);
    static constexpr Runner runners[] = {
        [](const GemmShape& s2, const float* pa, const float*,
           const float* pb, const GemmEpilogue&, float* c) {
          GemmFast(s2.m, s2.n, s2.k, pa, pb, c);
        },
        [](const GemmShape& s2, const float*, const float* pat,
           const float* pb, const GemmEpilogue&, float* c) {
          GemmTransAFast(s2.m, s2.n, s2.k, pat, pb, c);
        },
        [](const GemmShape& s2, const float* pa, const float* pbt,
           const float*, const GemmEpilogue&, float* c) {
          GemmTransBFast(s2.m, s2.n, s2.k, pa, pbt, c);
        },
        [](const GemmShape& s2, const float* pa, const float*,
           const float* pb, const GemmEpilogue& e, float* c) {
          GemmExFast(s2.m, s2.n, s2.k, pa, pb, c, e);
        },
    };
    const float* operands[][3] = {
        {a.data(), nullptr, b.data()},
        {nullptr, a_t.data(), b.data()},
        {a.data(), b_t.data(), nullptr},
        {a.data(), nullptr, b.data()},
    };

    std::vector<float> serial(s.m * s.n), parallel(s.m * s.n);
    for (std::size_t r = 0; r < 4; ++r) {
      {
        util::ScopedThreads one(1);
        std::fill(serial.begin(), serial.end(), 0.25F);
        runners[r](s, operands[r][0], operands[r][1], operands[r][2], epi,
                   serial.data());
      }
      for (unsigned threads : {2U, 3U, 8U}) {
        util::ScopedThreads many(threads);
        std::fill(parallel.begin(), parallel.end(), 0.25F);
        runners[r](s, operands[r][0], operands[r][1], operands[r][2], epi,
                   parallel.data());
        ASSERT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                                 serial.size() * sizeof(float)))
            << "runner=" << r << " m=" << s.m << " n=" << s.n
            << " k=" << s.k << " threads=" << threads;
      }
    }
  }
}

TEST(GemmDeterminismTest, ConvGemmBatchedBitIdenticalAcrossThreadCounts) {
  constexpr std::size_t m = 13, n = 37, k = 45;
  constexpr int batch = 7;
  Rng rng(99);
  std::vector<float> w(m * k), col(k * batch * n), bias(m);
  FillGaussian(w, rng);
  FillGaussian(col, rng);
  FillGaussian(bias, rng);

  std::vector<float> serial(static_cast<std::size_t>(batch) * m * n);
  {
    util::ScopedThreads one(1);
    ConvGemmBatchedFast(m, n, k, batch, w.data(), col.data(), bias.data(),
                        0.1F, serial.data());
  }
  std::vector<float> parallel(serial.size());
  for (unsigned threads : {2U, 3U, 8U}) {
    util::ScopedThreads many(threads);
    ConvGemmBatchedFast(m, n, k, batch, w.data(), col.data(), bias.data(),
                        0.1F, parallel.data());
    ASSERT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                             serial.size() * sizeof(float)))
        << "threads=" << threads;
  }
}

TEST(GemmDeterminismTest, BatchedIm2ColMatchesPerSample) {
  // The wide batched im2col must be a pure re-layout of the per-sample
  // im2col (exact equality), at every thread count.
  constexpr int channels = 3, height = 9, width = 7, ksize = 3, stride = 1,
                pad = 1, batch = 4;
  const int out_h = height, out_w = width;
  const std::size_t out_hw = static_cast<std::size_t>(out_h) * out_w;
  const std::size_t rows = static_cast<std::size_t>(channels) * ksize * ksize;
  const std::size_t sample = static_cast<std::size_t>(channels) * height *
                             width;

  Rng rng(17);
  std::vector<float> in(sample * batch);
  FillGaussian(in, rng);

  std::vector<float> per_sample(rows * out_hw);
  std::vector<float> wide(rows * out_hw * batch);
  for (unsigned threads : {1U, 3U}) {
    util::ScopedThreads guard(threads);
    Im2ColBatch(in.data(), sample, batch, channels, height, width, ksize,
                stride, pad, wide.data());
    for (int s = 0; s < batch; ++s) {
      Im2Col(in.data() + static_cast<std::size_t>(s) * sample, channels,
             height, width, ksize, stride, pad, per_sample.data());
      for (std::size_t r = 0; r < rows; ++r) {
        ASSERT_EQ(0,
                  std::memcmp(per_sample.data() + r * out_hw,
                              wide.data() + r * out_hw * batch +
                                  static_cast<std::size_t>(s) * out_hw,
                              out_hw * sizeof(float)))
            << "threads=" << threads << " s=" << s << " row=" << r;
      }
    }
  }
}

TEST(GemmDeterminismTest, BatchedCol2ImMatchesPerSample) {
  constexpr int channels = 5, height = 8, width = 6, ksize = 3, stride = 1,
                pad = 1, batch = 3;
  const int out_h = height, out_w = width;
  const std::size_t out_hw = static_cast<std::size_t>(out_h) * out_w;
  const std::size_t rows = static_cast<std::size_t>(channels) * ksize * ksize;
  const std::size_t sample = static_cast<std::size_t>(channels) * height *
                             width;

  Rng rng(23);
  std::vector<float> wide(rows * out_hw * batch);
  FillGaussian(wide, rng);

  // Per-sample reference: copy each sample's columns out of the wide
  // buffer and run the serial Col2Im.
  std::vector<float> expected(sample * batch, 0.0F);
  std::vector<float> col(rows * out_hw);
  for (int s = 0; s < batch; ++s) {
    for (std::size_t r = 0; r < rows; ++r) {
      std::memcpy(col.data() + r * out_hw,
                  wide.data() + r * out_hw * batch +
                      static_cast<std::size_t>(s) * out_hw,
                  out_hw * sizeof(float));
    }
    Col2Im(col.data(), channels, height, width, ksize, stride, pad,
           expected.data() + static_cast<std::size_t>(s) * sample);
  }

  std::vector<float> got(sample * batch);
  for (unsigned threads : {1U, 2U, 8U}) {
    util::ScopedThreads guard(threads);
    std::fill(got.begin(), got.end(), 0.0F);
    Col2ImBatch(wide.data(), batch, channels, height, width, ksize, stride,
                pad, got.data(), sample);
    ASSERT_EQ(0, std::memcmp(expected.data(), got.data(),
                             got.size() * sizeof(float)))
        << "threads=" << threads;
  }
}

// --------------------------------------------------------------------
// Precise vs the naive oracle, bit for bit.

/// Gaussian values salted with IEEE edge cases: signed zeros,
/// subnormals of both signs, and rare infinities.
void FillEdgeCases(std::vector<float>& v, Rng& rng) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (float& x : v) {
    const std::uint64_t r = rng.UniformU64(1000);
    if (r < 30) {
      x = -0.0F;
    } else if (r < 60) {
      x = 0.0F;
    } else if (r < 90) {
      x = std::ldexp(rng.Gaussian(), -130);  // subnormal
    } else if (r == 90) {
      x = kInf;
    } else if (r == 91) {
      x = -kInf;
    } else {
      x = rng.Gaussian();
    }
  }
}

/// Epilogue variant v in [0, 16): bit 0 accumulate, bit 1 row bias,
/// bit 2 col bias, bit 3 leaky slope 0.1 (else identity).
GemmEpilogue EpilogueVariant(int v, const float* row_bias,
                             const float* col_bias) {
  GemmEpilogue e;
  e.accumulate = (v & 1) != 0;
  e.row_bias = (v & 2) != 0 ? row_bias : nullptr;
  e.col_bias = (v & 4) != 0 ? col_bias : nullptr;
  e.negative_slope = (v & 8) != 0 ? 0.1F : 1.0F;
  return e;
}

constexpr unsigned kSweepThreads[] = {1U, 2U, 3U, 8U};

std::string Bits(float x) {
  std::uint32_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", u);
  return buf;
}

/// Runs `precise` and `oracle` on identical copies of `c0` followed by
/// a canary tail neither may touch, and compares the bytes.
template <typename Precise, typename Oracle>
::testing::AssertionResult BitExact(const std::vector<float>& c0,
                                    Precise&& precise, Oracle&& oracle) {
  constexpr std::size_t kCanary = 16;
  std::vector<float> want(c0.size() + kCanary, 7.25F);
  std::copy(c0.begin(), c0.end(), want.begin());
  std::vector<float> got = want;
  oracle(want.data());
  precise(got.data());
  if (std::memcmp(want.data(), got.data(), want.size() * sizeof(float)) ==
      0) {
    return ::testing::AssertionSuccess();
  }
  std::size_t i = 0;
  while (std::memcmp(&want[i], &got[i], sizeof(float)) == 0) ++i;
  return ::testing::AssertionFailure()
         << "first difference at element " << i << " of " << c0.size()
         << (i >= c0.size() ? " (canary overwritten)" : "") << ": precise "
         << got[i] << " (" << Bits(got[i]) << ") vs oracle " << want[i]
         << " (" << Bits(want[i]) << ")";
}

enum class Form { kPlain, kTransA, kTransB };

const char* FormName(Form f) {
  return f == Form::kPlain ? "Gemm" : f == Form::kTransA ? "GemmTransA"
                                                          : "GemmTransB";
}

TEST(GemmDeterminismTest, Im2ColAndCol2ImMatchPerElementReference) {
  // The lowering copies interior spans and zero-fills the padding; the
  // reference tests every tap's bounds per element.  Col2Im must also
  // keep each element's accumulation order, so it adds into a nonzero
  // plane and is compared bit for bit.
  std::size_t case_id = 0;
  for (int channels : {1, 3}) {
    for (int size : {1, 2, 5, 8}) {
      for (int ksize : {1, 3}) {
        for (int stride : {1, 2, 3}) {
          for (int pad : {0, 1, 2}) {
            const int height = size, width = size + 1;
            const int out_h = (height + 2 * pad - ksize) / stride + 1;
            const int out_w = (width + 2 * pad - ksize) / stride + 1;
            if (out_h <= 0 || out_w <= 0) continue;
            const std::size_t out_hw = static_cast<std::size_t>(out_h) * out_w;
            const std::size_t plane = static_cast<std::size_t>(height) * width;
            const std::size_t rows =
                static_cast<std::size_t>(channels) * ksize * ksize;
            Rng rng(1300 + case_id++);
            std::vector<float> in(plane * channels), col(rows * out_hw),
                base(plane * channels);
            FillEdgeCases(in, rng);
            FillEdgeCases(col, rng);
            FillEdgeCases(base, rng);

            std::vector<float> want_col(rows * out_hw),
                got_col(rows * out_hw, 9.0F);
            std::vector<float> want_in = base, got_in = base;
            for (std::size_t r = 0; r < rows; ++r) {
              const int c = static_cast<int>(r) / (ksize * ksize);
              const int ky = static_cast<int>(r) % (ksize * ksize) / ksize;
              const int kx = static_cast<int>(r) % ksize;
              for (int oy = 0; oy < out_h; ++oy) {
                for (int ox = 0; ox < out_w; ++ox) {
                  const int iy = oy * stride - pad + ky;
                  const int ix = ox * stride - pad + kx;
                  const std::size_t o = r * out_hw +
                                        static_cast<std::size_t>(oy) * out_w +
                                        static_cast<std::size_t>(ox);
                  const bool inside =
                      iy >= 0 && iy < height && ix >= 0 && ix < width;
                  const std::size_t i =
                      inside ? static_cast<std::size_t>(c) * plane +
                                   static_cast<std::size_t>(iy) * width +
                                   static_cast<std::size_t>(ix)
                             : 0;
                  want_col[o] = inside ? in[i] : 0.0F;
                  if (inside) want_in[i] += col[o];
                }
              }
            }
            Im2Col(in.data(), channels, height, width, ksize, stride, pad,
                   got_col.data());
            Col2Im(col.data(), channels, height, width, ksize, stride, pad,
                   got_in.data());
            ASSERT_EQ(0, std::memcmp(want_col.data(), got_col.data(),
                                     want_col.size() * sizeof(float)))
                << "Im2Col c=" << channels << " size=" << size
                << " k=" << ksize << " stride=" << stride << " pad=" << pad;
            ASSERT_EQ(0, std::memcmp(want_in.data(), got_in.data(),
                                     want_in.size() * sizeof(float)))
                << "Col2Im c=" << channels << " size=" << size
                << " k=" << ksize << " stride=" << stride << " pad=" << pad;
          }
        }
      }
    }
  }
}

TEST(GemmPreciseOracleTest, EveryGemmEntryPointMatchesNaiveBitForBit) {
  std::vector<GemmShape> shapes = OddTailShapes();
  const std::vector<GemmShape> crossing = BlockCrossingShapes();
  shapes.insert(shapes.end(), crossing.begin(), crossing.end());
  shapes.push_back({7, 40, 0});  // empty reduction: seed + activation only

  std::size_t case_id = 0;
  for (const GemmShape& s : shapes) {
    Rng rng(9000 + s.m * 31 + s.n * 17 + s.k);
    // a is read as A[m x k] (Gemm, TransB) or A^T stored [k x m]
    // (TransA); b as B[k x n] or B^T stored [n x k] (TransB).
    std::vector<float> a(s.m * s.k), b(s.k * s.n), c0(s.m * s.n),
        row_bias(s.m), col_bias(s.n);
    FillEdgeCases(a, rng);
    FillEdgeCases(b, rng);
    FillEdgeCases(c0, rng);
    FillEdgeCases(row_bias, rng);
    FillEdgeCases(col_bias, rng);
    // An all -0 operand stripe against a -0 row bias keeps -0 results
    // alive (a "0 + rb" seed would turn them into +0).
    std::fill(a.begin(), a.begin() + std::min(s.k, a.size()), -0.0F);
    row_bias[0] = -0.0F;

    for (Form f : {Form::kPlain, Form::kTransA, Form::kTransB}) {
      const auto oracle = [&](const GemmEpilogue& e) {
        return [&, e](float* c) {
          if (f == Form::kPlain) {
            NaiveGemmEx(s.m, s.n, s.k, a.data(), b.data(), c, e);
          } else if (f == Form::kTransA) {
            NaiveGemmTransAEx(s.m, s.n, s.k, a.data(), b.data(), c, e);
          } else {
            NaiveGemmTransBEx(s.m, s.n, s.k, a.data(), b.data(), c, e);
          }
        };
      };
      {
        // Legacy entry points: the default accumulate epilogue.
        util::ScopedThreads threads(kSweepThreads[case_id++ % 4]);
        const auto precise = [&](float* c) {
          if (f == Form::kPlain) {
            GemmPrecise(s.m, s.n, s.k, a.data(), b.data(), c);
          } else if (f == Form::kTransA) {
            GemmTransAPrecise(s.m, s.n, s.k, a.data(), b.data(), c);
          } else {
            GemmTransBPrecise(s.m, s.n, s.k, a.data(), b.data(), c);
          }
        };
        ASSERT_TRUE(BitExact(c0, precise, oracle(GemmEpilogue{})))
            << FormName(f) << "Precise m=" << s.m << " n=" << s.n
            << " k=" << s.k;
      }
      // Large shapes take every fifth variant (0, 5, 10, 15: each
      // epilogue bit both on and off) to bound the run time.
      const int variant_step = s.m * s.n * s.k > 300000 ? 5 : 1;
      for (int v = 0; v < 16; v += variant_step) {
        const unsigned nthreads = kSweepThreads[case_id++ % 4];
        util::ScopedThreads threads(nthreads);
        const GemmEpilogue e =
            EpilogueVariant(v, row_bias.data(), col_bias.data());
        const auto precise = [&](float* c) {
          if (f == Form::kPlain) {
            GemmExPrecise(s.m, s.n, s.k, a.data(), b.data(), c, e);
          } else if (f == Form::kTransA) {
            GemmTransAExPrecise(s.m, s.n, s.k, a.data(), b.data(), c, e);
          } else {
            GemmTransBExPrecise(s.m, s.n, s.k, a.data(), b.data(), c, e);
          }
        };
        ASSERT_TRUE(BitExact(c0, precise, oracle(e)))
            << FormName(f) << "ExPrecise m=" << s.m << " n=" << s.n
            << " k=" << s.k << " variant=" << v << " threads=" << nthreads;
      }
    }
  }
}

TEST(GemmPreciseOracleTest, BatchedConvMatchesPerSampleNaiveBitForBit) {
  struct ConvShape {
    std::size_t m, n, k;
  };
  // n > 256 gives the per-sample weight gradient (a dot form reducing
  // over n) several KC slabs; k > 256 does the same for the forward.
  const ConvShape conv_shapes[] = {
      {8, 300, 27}, {13, 37, 45}, {5, 17, 300}, {16, 784, 144}};
  std::size_t case_id = 0;
  for (const ConvShape& cs : conv_shapes) {
    for (int batch : {1, 3, 4}) {
      const std::size_t wn = static_cast<std::size_t>(batch) * cs.n;
      Rng rng(700 + cs.m * 7 + cs.n + cs.k * 3 +
              static_cast<std::size_t>(batch));
      std::vector<float> w(cs.m * cs.k), col(cs.k * wn), bias(cs.m),
          delta(cs.m * wn), out0(cs.m * wn);
      FillEdgeCases(w, rng);
      FillEdgeCases(col, rng);
      FillEdgeCases(bias, rng);
      FillEdgeCases(delta, rng);
      FillEdgeCases(out0, rng);

      for (const bool with_bias : {false, true}) {
        for (const float slope : {1.0F, 0.1F}) {
          const unsigned nthreads = kSweepThreads[case_id++ % 4];
          util::ScopedThreads threads(nthreads);
          const float* b = with_bias ? bias.data() : nullptr;
          ASSERT_TRUE(BitExact(
              out0,
              [&](float* out) {
                ConvGemmBatchedPrecise(cs.m, cs.n, cs.k, batch, w.data(),
                                       col.data(), b, slope, out);
              },
              [&](float* out) {
                NaiveConvGemmBatched(cs.m, cs.n, cs.k, batch, w.data(),
                                     col.data(), b, slope, out);
              }))
              << "ConvGemmBatchedPrecise m=" << cs.m << " n=" << cs.n
              << " k=" << cs.k << " batch=" << batch
              << " bias=" << with_bias << " slope=" << slope
              << " threads=" << nthreads;
        }
      }

      // Backward: one buffer holds dW [m x k] (accumulated into) followed
      // by col_delta [k x wn] (overwritten, its old bytes ignored).
      std::vector<float> grads0(cs.m * cs.k + cs.k * wn);
      FillEdgeCases(grads0, rng);
      for (const bool with_col_delta : {false, true}) {
        const unsigned nthreads = kSweepThreads[case_id++ % 4];
        util::ScopedThreads threads(nthreads);
        const auto split = [&](float* g) {
          return with_col_delta ? g + cs.m * cs.k : nullptr;
        };
        ASSERT_TRUE(BitExact(
            grads0,
            [&](float* g) {
              ConvGemmBackwardPrecise(cs.m, cs.n, cs.k, batch, w.data(),
                                      delta.data(), col.data(), g, split(g));
            },
            [&](float* g) {
              NaiveConvGemmBackward(cs.m, cs.n, cs.k, batch, w.data(),
                                    delta.data(), col.data(), g, split(g));
            }))
            << "ConvGemmBackwardPrecise m=" << cs.m << " n=" << cs.n
            << " k=" << cs.k << " batch=" << batch
            << " col_delta=" << with_col_delta << " threads=" << nthreads;
      }
    }
  }
}

}  // namespace
}  // namespace caltrain::nn
