// AVX2 kernel variants (4-wide doubles, hardware gathers). This TU is
// the only one compiled with -mavx2; everything else in the binary stays
// baseline x86-64 so a non-AVX2 host never executes these instructions
// (dispatch checks __builtin_cpu_supports first).
#if defined(BASRPT_SIMD_ENABLED)

#include <immintrin.h>

#include <cstring>

#include "simd/kernels.hpp"

namespace basrpt::simd::detail {
namespace {

void compute_keys_avx2(KeyOp op, double p0, double p1, const double* sr,
                       const double* backlog, std::size_t n, double* out) {
  std::size_t i = 0;
  switch (op) {
    case KeyOp::kCopy:
      if (out != sr) std::memcpy(out, sr, n * sizeof(double));
      return;
    case KeyOp::kFastBasrpt: {
      const __m256d vp0 = _mm256_set1_pd(p0);
      for (; i + 4 <= n; i += 4) {
        const __m256d vsr = _mm256_loadu_pd(sr + i);
        const __m256d vb = _mm256_loadu_pd(backlog + i);
        // mul then sub, never FMA: matches the scalar reference bitwise.
        _mm256_storeu_pd(out + i, _mm256_sub_pd(_mm256_mul_pd(vp0, vsr), vb));
      }
      for (; i < n; ++i) {
        const double prod = p0 * sr[i];
        out[i] = prod - backlog[i];
      }
      return;
    }
    case KeyOp::kThresholdSrpt: {
      const __m256d vp0 = _mm256_set1_pd(p0);
      const __m256d vp1 = _mm256_set1_pd(p1);
      for (; i + 4 <= n; i += 4) {
        const __m256d vsr = _mm256_loadu_pd(sr + i);
        const __m256d vb = _mm256_loadu_pd(backlog + i);
        const __m256d gt = _mm256_cmp_pd(vb, vp0, _CMP_GT_OQ);
        _mm256_storeu_pd(out + i,
                         _mm256_add_pd(vsr, _mm256_andnot_pd(gt, vp1)));
      }
      for (; i < n; ++i) {
        out[i] = sr[i] + (backlog[i] > p0 ? 0.0 : p1);
      }
      return;
    }
    case KeyOp::kNegBacklog: {
      const __m256d sign = _mm256_set1_pd(-0.0);
      for (; i + 4 <= n; i += 4) {
        _mm256_storeu_pd(out + i,
                         _mm256_xor_pd(_mm256_loadu_pd(backlog + i), sign));
      }
      for (; i < n; ++i) out[i] = -backlog[i];
      return;
    }
  }
}

bool bounds_ok_i32_avx2(const std::int32_t* x, std::size_t n,
                        std::int32_t limit) {
  const __m256i vlimit = _mm256_set1_epi32(limit);
  const __m256i vzero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    // ok lane: 0 <= v (not v < 0) and v < limit.
    const __m256i ok = _mm256_andnot_si256(_mm256_cmpgt_epi32(vzero, v),
                                           _mm256_cmpgt_epi32(vlimit, v));
    if (_mm256_movemask_epi8(ok) != -1) return false;
  }
  for (; i < n; ++i) {
    if (x[i] < 0 || x[i] >= limit) return false;
  }
  return true;
}

// Byte offsets for scale-1 gathers: off[i] = idx[i] * stride. Candidate
// counts are bounded by ports^2 (<= 2^32 / 64), so this never overflows
// the int32 offset lanes.
inline __m128i byte_offsets(const std::uint32_t* idx, std::size_t i,
                            int stride) {
  const __m128i v =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + i));
  return _mm_mullo_epi32(v, _mm_set1_epi32(stride));
}

void gather_f64_avx2(const void* base, std::size_t stride,
                     const std::uint32_t* idx, std::size_t n, double* out) {
  const auto* b = static_cast<const double*>(base);
  const int s = static_cast<int>(stride);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i,
                     _mm256_i32gather_pd(b, byte_offsets(idx, i, s), 1));
  }
  for (; i < n; ++i) {
    std::memcpy(&out[i],
                static_cast<const char*>(base) +
                    static_cast<std::size_t>(idx[i]) * stride,
                sizeof(double));
  }
}

void gather_i64_avx2(const void* base, std::size_t stride,
                     const std::uint32_t* idx, std::size_t n,
                     std::int64_t* out) {
  const auto* b = static_cast<const long long*>(base);
  const int s = static_cast<int>(stride);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_i32gather_epi64(b, byte_offsets(idx, i, s), 1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), v);
  }
  for (; i < n; ++i) {
    std::memcpy(&out[i],
                static_cast<const char*>(base) +
                    static_cast<std::size_t>(idx[i]) * stride,
                sizeof(std::int64_t));
  }
}

void gather_i32_avx2(const void* base, std::size_t stride,
                     const std::uint32_t* idx, std::size_t n,
                     std::int32_t* out) {
  const auto* b = static_cast<const int*>(base);
  const int s = static_cast<int>(stride);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i v = _mm_i32gather_epi32(b, byte_offsets(idx, i, s), 1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), v);
  }
  for (; i < n; ++i) {
    std::memcpy(&out[i],
                static_cast<const char*>(base) +
                    static_cast<std::size_t>(idx[i]) * stride,
                sizeof(std::int32_t));
  }
}

void gather_u32_from_size_avx2(const void* base, std::size_t stride,
                               const std::uint32_t* idx, std::size_t n,
                               std::uint32_t* out) {
  const auto* b = static_cast<const long long*>(base);
  const int s = static_cast<int>(stride);
  const __m256i pack = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_i32gather_epi64(b, byte_offsets(idx, i, s), 1);
    const __m256i low = _mm256_permutevar8x32_epi32(v, pack);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm256_castsi256_si128(low));
  }
  for (; i < n; ++i) {
    std::size_t v;
    std::memcpy(&v,
                static_cast<const char*>(base) +
                    static_cast<std::size_t>(idx[i]) * stride,
                sizeof(std::size_t));
    out[i] = static_cast<std::uint32_t>(v);
  }
}

}  // namespace

const KernelTable& avx2_table() {
  static const KernelTable table{
      compute_keys_avx2, bounds_ok_i32_avx2,
      gather_f64_avx2,   gather_i64_avx2,
      gather_i32_avx2,   gather_u32_from_size_avx2,
  };
  return table;
}

}  // namespace basrpt::simd::detail

#endif  // BASRPT_SIMD_ENABLED
