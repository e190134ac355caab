// Dense GEMM kernels: register-blocked AVX2 tiles plus a portable scalar
// path that produces the same bits. This file alone is compiled with
// -ffp-contract=off (src/tensor/CMakeLists.txt), so every multiply and add
// below is exactly the operation written: the compiler never fuses a
// multiply into an add, and every FMA is an explicit one.
//
// Numerics contract, per output element (ascending l always):
//
//   GemmNN, GemmTN  out = fma(a_il, b_lj, out)      for l = 0, 1, ..., k-1
//                   The accumulator is `out` itself. The sum is never split,
//                   so blocking the l loop (spilling the partial sum to
//                   `out` and reloading it) changes no bit.
//
//   GemmNT          acc = +0;  acc = acc + round(a_il * b_jl)  for each l;
//                   out = out + acc
//                   The product is rounded before the add (no FMA), and the
//                   dot product is added into `out` once, at the end.
//
// Work is partitioned over output rows, and each element's arithmetic
// depends neither on the tile it lands in nor on the chunk that owns it.
// Results are therefore bitwise identical at every thread count and on the
// AVX2 and portable paths alike.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define AUTOAC_GEMM_AVX2 1
#endif

#include "tensor/op_helpers.h"
#include "util/parallel.h"

namespace autoac::internal {
namespace {

// Minimum multiply-adds per parallel chunk. The tiles run at several G MAC/s
// per thread, so this keeps a chunk well above the pool's wake-up cost.
constexpr int64_t kGrainMacs = 1 << 17;

int64_t GemmGrain(int64_t macs_per_row) {
  if (macs_per_row < 1) macs_per_row = 1;
  return std::max<int64_t>(1, kGrainMacs / macs_per_row);
}

// A read-only strided matrix view: element (i, l) is p[i * rs + l * cs].
struct View {
  const float* p;
  int64_t rs;
  int64_t cs;
  float operator()(int64_t i, int64_t l) const { return p[i * rs + l * cs]; }
};

// out[rows, cols] (row stride ldo) per the fused contract: one FMA into
// `out` per l, in ascending l.
void ScalarFused(View a, View b, float* out, int64_t ldo, int64_t rows,
                 int64_t cols, int64_t k) {
  for (int64_t i = 0; i < rows; ++i) {
    float* orow = out + i * ldo;
    for (int64_t l = 0; l < k; ++l) {
      const float av = a(i, l);
      for (int64_t j = 0; j < cols; ++j) {
        orow[j] = std::fma(av, b(l, j), orow[j]);
      }
    }
  }
}

// out[rows, cols] per the unfused contract: a +0-started dot product of
// rounded products, added into `out` once.
void ScalarUnfused(View a, View b, float* out, int64_t ldo, int64_t rows,
                   int64_t cols, int64_t k) {
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      float acc = 0.0f;
      for (int64_t l = 0; l < k; ++l) acc += a(i, l) * b(l, j);
      out[i * ldo + j] += acc;
    }
  }
}

#ifdef AUTOAC_GEMM_AVX2

// Rows per tile of the column-vectorized kernels, and the depth of one pass
// over l in the fused kernels (a panel of B that stays cache-resident).
constexpr int kTileRows = 6;
constexpr int64_t kDepthBlock = 256;

// The per-mode step, acc <- acc (+) a * b.
template <bool kFused>
inline __m256 Step(__m256 acc, __m256 a, __m256 b) {
  if constexpr (kFused) {
    return _mm256_fmadd_ps(a, b, acc);
  } else {
    return _mm256_add_ps(acc, _mm256_mul_ps(a, b));
  }
}

// An R-row by 8V-column tile: out[0..R) x [0..8V) over l in [0, k).
// b is row-major with contiguous columns (row stride ldb).
template <int R, int V, bool kFused>
void Tile(View a, const float* b, int64_t ldb, float* out, int64_t ldo,
          int64_t k) {
  __m256 acc[R][V] = {};
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      acc[r][v] = kFused ? _mm256_loadu_ps(out + r * ldo + 8 * v)
                         : _mm256_setzero_ps();
    }
  }
  for (int64_t l = 0; l < k; ++l) {
    const float* brow = b + l * ldb;
    __m256 bv[V] = {};
    for (int v = 0; v < V; ++v) bv[v] = _mm256_loadu_ps(brow + 8 * v);
    const float* al = a.p + l * a.cs;
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(al + r * a.rs);
      for (int v = 0; v < V; ++v) {
        acc[r][v] = Step<kFused>(acc[r][v], av, bv[v]);
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      float* o = out + r * ldo + 8 * v;
      const __m256 sum = kFused ? acc[r][v]
                                : _mm256_add_ps(_mm256_loadu_ps(o), acc[r][v]);
      _mm256_storeu_ps(o, sum);
    }
  }
}

// R rows across the vector columns [0, 8 * vectors): the widest tile that
// keeps R * V accumulators within twelve registers, then the narrower ones.
template <int R, bool kFused>
void RowTiles(View a, const float* b, int64_t ldb, float* out, int64_t ldo,
              int64_t vectors, int64_t k) {
  constexpr int kWide = std::min(8, 12 / R);
  int64_t v = 0;
  for (; v + kWide <= vectors; v += kWide) {
    Tile<R, kWide, kFused>(a, b + 8 * v, ldb, out + 8 * v, ldo, k);
  }
  if constexpr (kWide > 2) {
    for (; v + 2 <= vectors; v += 2) {
      Tile<R, 2, kFused>(a, b + 8 * v, ldb, out + 8 * v, ldo, k);
    }
  }
  for (; v < vectors; ++v) {
    Tile<R, 1, kFused>(a, b + 8 * v, ldb, out + 8 * v, ldo, k);
  }
}

template <bool kFused>
void ColumnVectorized(View a, const float* b, int64_t ldb, float* out,
                      int64_t ldo, int64_t rows, int64_t vectors, int64_t k) {
  int64_t i = 0;
  for (; i + kTileRows <= rows; i += kTileRows) {
    RowTiles<kTileRows, kFused>({a.p + i * a.rs, a.rs, a.cs}, b, ldb,
                                out + i * ldo, ldo, vectors, k);
  }
  const View rest{a.p + i * a.rs, a.rs, a.cs};
  float* orest = out + i * ldo;
  switch (rows - i) {
    case 1: RowTiles<1, kFused>(rest, b, ldb, orest, ldo, vectors, k); break;
    case 2: RowTiles<2, kFused>(rest, b, ldb, orest, ldo, vectors, k); break;
    case 3: RowTiles<3, kFused>(rest, b, ldb, orest, ldo, vectors, k); break;
    case 4: RowTiles<4, kFused>(rest, b, ldb, orest, ldo, vectors, k); break;
    case 5: RowTiles<5, kFused>(rest, b, ldb, orest, ldo, vectors, k); break;
    default: break;
  }
}

// Row-vectorized kernel for fewer than eight columns: each vector holds one
// column of 8 consecutive output rows. `panel` gives those rows of a: the
// 8 values a(i0 .. i0+7, l) sit contiguously at panel + l * ldp, and panel p
// (rows 8p ..) is 8 floats further on. C columns of P panels at a time.
template <int C, int P, bool kFused>
void RowPanel(const float* panel, int64_t ldp, const float* b, int64_t ldb,
              float* out, int64_t ldo, int64_t k) {
  alignas(32) float lanes[8] = {};
  __m256 acc[P][C] = {};
  for (int p = 0; p < P; ++p) {
    for (int c = 0; c < C; ++c) {
      if constexpr (kFused) {
        for (int r = 0; r < 8; ++r) lanes[r] = out[(8 * p + r) * ldo + c];
        acc[p][c] = _mm256_load_ps(lanes);
      } else {
        acc[p][c] = _mm256_setzero_ps();
      }
    }
  }
  for (int64_t l = 0; l < k; ++l) {
    const float* brow = b + l * ldb;
    __m256 av[P] = {};
    for (int p = 0; p < P; ++p) {
      av[p] = _mm256_loadu_ps(panel + l * ldp + 8 * p);
    }
    for (int c = 0; c < C; ++c) {
      const __m256 bc = _mm256_broadcast_ss(brow + c);
      for (int p = 0; p < P; ++p) {
        acc[p][c] = Step<kFused>(acc[p][c], av[p], bc);
      }
    }
  }
  for (int p = 0; p < P; ++p) {
    for (int c = 0; c < C; ++c) {
      _mm256_store_ps(lanes, acc[p][c]);
      for (int r = 0; r < 8; ++r) {
        float& o = out[(8 * p + r) * ldo + c];
        o = kFused ? lanes[r] : o + lanes[r];
      }
    }
  }
}

// All `cols` (< 8) columns of the 8P rows that `panel` holds, four at a time.
template <int P, bool kFused>
void PanelColumns(const float* panel, int64_t ldp, const float* b, int64_t ldb,
                  float* out, int64_t ldo, int64_t cols, int64_t k) {
  for (int64_t j = 0; j < cols; j += 4) {
    const float* bj = b + j;
    float* oj = out + j;
    switch (std::min<int64_t>(4, cols - j)) {
      case 1: RowPanel<1, P, kFused>(panel, ldp, bj, ldb, oj, ldo, k); break;
      case 2: RowPanel<2, P, kFused>(panel, ldp, bj, ldb, oj, ldo, k); break;
      case 3: RowPanel<3, P, kFused>(panel, ldp, bj, ldb, oj, ldo, k); break;
      default: RowPanel<4, P, kFused>(panel, ldp, bj, ldb, oj, ldo, k); break;
    }
  }
}

// Copies rows [0, 8P) x columns [0, k) of a row-major a (row stride lda)
// into panel form: dst[l * 8P + r] = a[r * lda + l].
template <int P>
void PackPanel(const float* a, int64_t lda, int64_t k, float* dst) {
  constexpr int64_t kLd = 8 * P;
  for (int p = 0; p < P; ++p) {
    const float* src = a + 8 * p * lda;
    float* d = dst + 8 * p;
    int64_t l = 0;
    for (; l + 8 <= k; l += 8) {
      __m256 r0 = _mm256_loadu_ps(src + 0 * lda + l);
      __m256 r1 = _mm256_loadu_ps(src + 1 * lda + l);
      __m256 r2 = _mm256_loadu_ps(src + 2 * lda + l);
      __m256 r3 = _mm256_loadu_ps(src + 3 * lda + l);
      __m256 r4 = _mm256_loadu_ps(src + 4 * lda + l);
      __m256 r5 = _mm256_loadu_ps(src + 5 * lda + l);
      __m256 r6 = _mm256_loadu_ps(src + 6 * lda + l);
      __m256 r7 = _mm256_loadu_ps(src + 7 * lda + l);
      const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
      const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
      const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
      const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
      const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
      const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
      const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
      const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
      const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
      const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
      const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
      const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
      const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
      const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
      const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
      const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
      _mm256_storeu_ps(d + (l + 0) * kLd, _mm256_permute2f128_ps(s0, s4, 0x20));
      _mm256_storeu_ps(d + (l + 1) * kLd, _mm256_permute2f128_ps(s1, s5, 0x20));
      _mm256_storeu_ps(d + (l + 2) * kLd, _mm256_permute2f128_ps(s2, s6, 0x20));
      _mm256_storeu_ps(d + (l + 3) * kLd, _mm256_permute2f128_ps(s3, s7, 0x20));
      _mm256_storeu_ps(d + (l + 4) * kLd, _mm256_permute2f128_ps(s0, s4, 0x31));
      _mm256_storeu_ps(d + (l + 5) * kLd, _mm256_permute2f128_ps(s1, s5, 0x31));
      _mm256_storeu_ps(d + (l + 6) * kLd, _mm256_permute2f128_ps(s2, s6, 0x31));
      _mm256_storeu_ps(d + (l + 7) * kLd, _mm256_permute2f128_ps(s3, s7, 0x31));
    }
    for (; l < k; ++l) {
      for (int r = 0; r < 8; ++r) d[l * kLd + r] = src[r * lda + l];
    }
  }
}

// Runs the 8P-row panels of rows [i, rows) through PanelColumns and returns
// the first row left over. a's rows are contiguous in i when rs == 1
// (GemmTN), so the panel is a itself; otherwise (cs == 1) each panel is
// transposed into `scratch` first.
template <int P, bool kFused>
int64_t PanelRows(View a, const float* b, int64_t ldb, float* out, int64_t ldo,
                  int64_t i, int64_t rows, int64_t cols, int64_t k,
                  float* scratch) {
  for (; i + 8 * P <= rows; i += 8 * P) {
    const float* panel = a.p + i * a.rs;
    int64_t ldp = a.cs;
    if (a.rs != 1) {
      PackPanel<P>(panel, a.rs, k, scratch);
      panel = scratch;
      ldp = 8 * P;
    }
    PanelColumns<P, kFused>(panel, ldp, b, ldb, out + i * ldo, ldo, cols, k);
  }
  return i;
}

// The columns [0, cols) (cols < 8) of `rows` output rows, vectorized across
// rows: 16 rows at a time, then 8, then the scalar rest.
template <bool kFused>
void RowVectorized(View a, const float* b, int64_t ldb, float* out,
                   int64_t ldo, int64_t rows, int64_t cols, int64_t k) {
  thread_local std::vector<float> scratch;
  if (static_cast<int64_t>(scratch.size()) < 16 * k) scratch.resize(16 * k);
  int64_t i = PanelRows<2, kFused>(a, b, ldb, out, ldo, 0, rows, cols, k,
                                   scratch.data());
  i = PanelRows<1, kFused>(a, b, ldb, out, ldo, i, rows, cols, k,
                           scratch.data());
  const View rest{a.p + i * a.rs, a.rs, a.cs};
  if constexpr (kFused) {
    ScalarFused(rest, {b, ldb, 1}, out + i * ldo, ldo, rows - i, cols, k);
  } else {
    ScalarUnfused(rest, {b, ldb, 1}, out + i * ldo, ldo, rows - i, cols, k);
  }
}

// out[rows, cols] (+)= a[rows, k] b[k, cols] under the mode's contract, for
// a row-major b with contiguous columns. Full vectors of columns go to the
// column-vectorized tiles; the last cols % 8 go across rows.
template <bool kFused>
void Block(View a, const float* b, int64_t ldb, float* out, int64_t ldo,
           int64_t rows, int64_t cols, int64_t k) {
  const int64_t vectors = cols / 8;
  if (vectors > 0) {
    ColumnVectorized<kFused>(a, b, ldb, out, ldo, rows, vectors, k);
  }
  if (cols % 8 != 0) {
    RowVectorized<kFused>(a, b + 8 * vectors, ldb, out + 8 * vectors, ldo,
                          rows, cols % 8, k);
  }
}

// The fused contract accumulates into `out` itself, so l may be cut into
// cache-sized passes without changing a bit.
void FusedBlocked(View a, const float* b, int64_t ldb, float* out, int64_t ldo,
                  int64_t rows, int64_t cols, int64_t k) {
  for (int64_t l = 0; l < k; l += kDepthBlock) {
    Block<true>({a.p + l * a.cs, a.rs, a.cs}, b + l * ldb, ldb, out, ldo, rows,
                cols, std::min(kDepthBlock, k - l));
  }
}

#endif  // AUTOAC_GEMM_AVX2

}  // namespace

void GemmNN(const float* a, const float* b, float* out, int64_t m, int64_t k,
            int64_t n) {
  ParallelFor(0, m, GemmGrain(k * n), [=](int64_t lo, int64_t hi) {
    const View av{a + lo * k, k, 1};
#ifdef AUTOAC_GEMM_AVX2
    FusedBlocked(av, b, n, out + lo * n, n, hi - lo, n, k);
#else
    ScalarFused(av, {b, n, 1}, out + lo * n, n, hi - lo, n, k);
#endif
  });
}

void GemmNT(const float* a, const float* b, float* out, int64_t m, int64_t k,
            int64_t n) {
#ifdef AUTOAC_GEMM_AVX2
  // Pack b^T once, so the tiles read b's columns contiguously:
  // bt[l * n + j] = b[j * k + l].
  std::vector<float> bt(static_cast<size_t>(k * n));
  for (int64_t j = 0; j < n; ++j) {
    for (int64_t l = 0; l < k; ++l) bt[l * n + j] = b[j * k + l];
  }
  const float* pbt = bt.data();
#endif
  ParallelFor(0, m, GemmGrain(k * n), [=](int64_t lo, int64_t hi) {
    const View av{a + lo * k, k, 1};
#ifdef AUTOAC_GEMM_AVX2
    Block<false>(av, pbt, n, out + lo * n, n, hi - lo, n, k);
#else
    ScalarUnfused(av, {b, 1, k}, out + lo * n, n, hi - lo, n, k);
#endif
  });
}

void GemmTN(const float* a, const float* b, float* out, int64_t m, int64_t k,
            int64_t n) {
  // Output is [k, n]; the reduction runs over the m rows of a and b, and
  // output row i reads column i of a: a(i, l) = a[l * k + i].
  ParallelFor(0, k, GemmGrain(m * n), [=](int64_t lo, int64_t hi) {
    const View av{a + lo, 1, k};
#ifdef AUTOAC_GEMM_AVX2
    FusedBlocked(av, b, n, out + lo * n, n, hi - lo, n, m);
#else
    ScalarFused(av, {b, n, 1}, out + lo * n, n, hi - lo, n, m);
#endif
  });
}

}  // namespace autoac::internal
