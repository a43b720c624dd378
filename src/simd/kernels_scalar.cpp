// Portable scalar kernel variants. This TU is the semantic reference:
// the AVX2 TU must match it bit for bit on NaN-free input.
#include <cstring>

#include "simd/kernels.hpp"

namespace basrpt::simd::detail {
namespace {

void compute_keys_scalar(KeyOp op, double p0, double p1, const double* sr,
                         const double* backlog, std::size_t n, double* out) {
  switch (op) {
    case KeyOp::kCopy:
      if (out != sr) std::memcpy(out, sr, n * sizeof(double));
      break;
    case KeyOp::kFastBasrpt:
      for (std::size_t i = 0; i < n; ++i) {
        const double prod = p0 * sr[i];
        out[i] = prod - backlog[i];
      }
      break;
    case KeyOp::kThresholdSrpt:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = sr[i] + (backlog[i] > p0 ? 0.0 : p1);
      }
      break;
    case KeyOp::kNegBacklog:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = -backlog[i];
      }
      break;
  }
}

bool bounds_ok_i32_scalar(const std::int32_t* x, std::size_t n,
                          std::int32_t limit) {
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] < 0 || x[i] >= limit) return false;
  }
  return true;
}

const void* at(const void* base, std::size_t stride, std::uint32_t i) {
  return static_cast<const char*>(base) + static_cast<std::size_t>(i) * stride;
}

void gather_f64_scalar(const void* base, std::size_t stride,
                       const std::uint32_t* idx, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    std::memcpy(&out[i], at(base, stride, idx[i]), sizeof(double));
  }
}

void gather_i64_scalar(const void* base, std::size_t stride,
                       const std::uint32_t* idx, std::size_t n,
                       std::int64_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    std::memcpy(&out[i], at(base, stride, idx[i]), sizeof(std::int64_t));
  }
}

void gather_i32_scalar(const void* base, std::size_t stride,
                       const std::uint32_t* idx, std::size_t n,
                       std::int32_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    std::memcpy(&out[i], at(base, stride, idx[i]), sizeof(std::int32_t));
  }
}

void gather_u32_from_size_scalar(const void* base, std::size_t stride,
                                 const std::uint32_t* idx, std::size_t n,
                                 std::uint32_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t v;
    std::memcpy(&v, at(base, stride, idx[i]), sizeof(std::size_t));
    out[i] = static_cast<std::uint32_t>(v);
  }
}

}  // namespace

const KernelTable& scalar_table() {
  static const KernelTable table{
      compute_keys_scalar, bounds_ok_i32_scalar,
      gather_f64_scalar,   gather_i64_scalar,
      gather_i32_scalar,   gather_u32_from_size_scalar,
  };
  return table;
}

}  // namespace basrpt::simd::detail
