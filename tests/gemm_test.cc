// Bitwise checks of the GEMM kernels against references that spell out each
// kernel's numerics contract (see the top of src/tensor/gemm.cc). This file
// is compiled with -ffp-contract=off (tests/CMakeLists.txt), so the NT
// reference's multiply and add stay two rounded operations.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/op_helpers.h"
#include "util/parallel.h"

namespace autoac {
namespace {

using internal::GemmNN;
using internal::GemmNT;
using internal::GemmTN;

// Uniform values in [-1, 1), about a quarter of them exact zeros when
// `zeros` is set.
std::vector<float> Random(int64_t size, uint32_t seed, bool zeros) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> value(-1.0f, 1.0f);
  std::vector<float> v(static_cast<size_t>(size));
  for (float& x : v) {
    x = value(rng);
    if (zeros && (rng() & 3) == 0) x = 0.0f;
  }
  return v;
}

// out[m,n] = fma(a_il, b_lj, out), ascending l.
std::vector<float> ReferenceNN(const std::vector<float>& a,
                               const std::vector<float>& b,
                               std::vector<float> out, int64_t m, int64_t k,
                               int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float o = out[i * n + j];
      for (int64_t l = 0; l < k; ++l) {
        o = std::fma(a[i * k + l], b[l * n + j], o);
      }
      out[i * n + j] = o;
    }
  }
  return out;
}

// out[m,n] += (sum over ascending l of round(a_il * b_jl), from +0).
std::vector<float> ReferenceNT(const std::vector<float>& a,
                               const std::vector<float>& b,
                               std::vector<float> out, int64_t m, int64_t k,
                               int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t l = 0; l < k; ++l) {
        const float product = a[i * k + l] * b[j * k + l];
        acc = acc + product;
      }
      out[i * n + j] = out[i * n + j] + acc;
    }
  }
  return out;
}

// out[k,n] = fma(a_li, b_lj, out), ascending l over the m rows.
std::vector<float> ReferenceTN(const std::vector<float>& a,
                               const std::vector<float>& b,
                               std::vector<float> out, int64_t m, int64_t k,
                               int64_t n) {
  for (int64_t i = 0; i < k; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float o = out[i * n + j];
      for (int64_t l = 0; l < m; ++l) {
        o = std::fma(a[l * k + i], b[l * n + j], o);
      }
      out[i * n + j] = o;
    }
  }
  return out;
}

// Index of the first element whose bits differ, or -1.
int64_t FirstMismatch(const std::vector<float>& x,
                      const std::vector<float>& y) {
  if (x.size() != y.size()) return 0;
  for (size_t i = 0; i < x.size(); ++i) {
    if (std::memcmp(&x[i], &y[i], sizeof(float)) != 0) {
      return static_cast<int64_t>(i);
    }
  }
  return -1;
}

// Runs all three kernels on one (m, k, n) and compares each bitwise with its
// reference. Returns a description of the first failure, or "".
std::string CheckShape(int64_t m, int64_t k, int64_t n, uint32_t seed) {
  const std::string shape = std::to_string(m) + "x" + std::to_string(k) +
                            "x" + std::to_string(n);
  {
    const auto a = Random(m * k, seed, true);
    const auto b = Random(k * n, seed + 1, false);
    const auto prior = Random(m * n, seed + 2, false);
    auto out = prior;
    GemmNN(a.data(), b.data(), out.data(), m, k, n);
    const int64_t bad = FirstMismatch(out, ReferenceNN(a, b, prior, m, k, n));
    if (bad >= 0) return "GemmNN " + shape + " element " + std::to_string(bad);
  }
  {
    const auto a = Random(m * k, seed + 3, true);
    const auto b = Random(n * k, seed + 4, false);
    const auto prior = Random(m * n, seed + 5, false);
    auto out = prior;
    GemmNT(a.data(), b.data(), out.data(), m, k, n);
    const int64_t bad = FirstMismatch(out, ReferenceNT(a, b, prior, m, k, n));
    if (bad >= 0) return "GemmNT " + shape + " element " + std::to_string(bad);
  }
  {
    const auto a = Random(m * k, seed + 6, true);
    const auto b = Random(m * n, seed + 7, false);
    const auto prior = Random(k * n, seed + 8, false);
    auto out = prior;
    GemmTN(a.data(), b.data(), out.data(), m, k, n);
    const int64_t bad = FirstMismatch(out, ReferenceTN(a, b, prior, m, k, n));
    if (bad >= 0) return "GemmTN " + shape + " element " + std::to_string(bad);
  }
  return "";
}

class GemmTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { SetNumThreads(GetParam()); }
  void TearDown() override { SetNumThreads(0); }
};

// Every tile and tail: sizes below, at and above each vector and tile width.
TEST_P(GemmTest, EveryTailMatchesContractBitwise) {
  const int64_t sizes[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 64, 65};
  uint32_t seed = 1;
  for (int64_t m : sizes) {
    for (int64_t k : sizes) {
      for (int64_t n : sizes) {
        const std::string failure = CheckShape(m, k, n, seed);
        ASSERT_EQ(failure, "");
        seed += 16;
      }
    }
  }
}

// The shapes the search + train pipeline runs most: a 64-wide layer, and the
// attention GEMVs (n = 1) and their transposes (k = 1).
TEST_P(GemmTest, PipelineShapesMatchContractBitwise) {
  EXPECT_EQ(CheckShape(3924, 64, 64, 7), "");
  EXPECT_EQ(CheckShape(3924, 64, 1, 8), "");
  EXPECT_EQ(CheckShape(3924, 1, 64, 9), "");
}

// Skinny outputs tall enough to be split across workers, with chunk sizes
// that are not multiples of the 8- and 16-row panels.
TEST_P(GemmTest, ChunkedRowPanelsMatchContractBitwise) {
  EXPECT_EQ(CheckShape(9999, 64, 4, 11), "");
  EXPECT_EQ(CheckShape(9999, 33, 3, 12), "");
}

// A depth past one pass over l (the fused kernels cut l into blocks).
TEST_P(GemmTest, DeepReductionMatchesContractBitwise) {
  EXPECT_EQ(CheckShape(37, 600, 20, 10), "");
}

INSTANTIATE_TEST_SUITE_P(Threads, GemmTest, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string name = "T";
                           name += std::to_string(info.param);
                           return name;
                         });

}  // namespace
}  // namespace autoac
