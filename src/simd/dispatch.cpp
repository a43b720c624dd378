#include "simd/dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/assert.hpp"
#include "simd/kernels.hpp"

namespace basrpt::simd {
namespace {

bool cpu_supports(Isa isa) {
#if defined(BASRPT_SIMD_ENABLED)
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
  }
  return false;
#else
  return isa == Isa::kScalar;
#endif
}

Isa initial_isa() {
  const char* env = std::getenv("BASRPT_SIMD");
  if (env == nullptr || *env == '\0') return best_supported_isa();
  try {
    return parse_isa(env);
  } catch (const ConfigError& e) {
    throw ConfigError(std::string("BASRPT_SIMD: ") + e.what());
  }
}

std::atomic<int>& active_slot() {
  static std::atomic<int> slot{static_cast<int>(initial_isa())};
  return slot;
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Isa parse_isa(const std::string& value) {
  Isa want;
  if (value == "scalar") {
    want = Isa::kScalar;
  } else if (value == "avx2") {
    want = Isa::kAvx2;
  } else if (value == "native") {
    return best_supported_isa();
  } else {
    throw ConfigError("unknown ISA '" + value +
                      "' (want scalar|avx2|native)");
  }
  BASRPT_REQUIRE(cpu_supports(want),
                 "ISA '" + value + "' not available in this build/CPU");
  return want;
}

bool compiled_with_simd() {
#if defined(BASRPT_SIMD_ENABLED)
  return true;
#else
  return false;
#endif
}

Isa best_supported_isa() {
  if (cpu_supports(Isa::kAvx2)) return Isa::kAvx2;
  return Isa::kScalar;
}

Isa active_isa() {
  return static_cast<Isa>(active_slot().load(std::memory_order_relaxed));
}

void set_active_isa(Isa isa) {
  BASRPT_REQUIRE(cpu_supports(isa),
                 std::string("simd: ISA '") + isa_name(isa) +
                     "' not available in this build/CPU");
  active_slot().store(static_cast<int>(isa), std::memory_order_relaxed);
}

namespace detail {

const KernelTable& active_table() {
  switch (active_isa()) {
#if defined(BASRPT_SIMD_ENABLED)
    case Isa::kAvx2:
      return avx2_table();
#endif
    default:
      return scalar_table();
  }
}

}  // namespace detail

void compute_keys(KeyOp op, double p0, double p1, const double* sr,
                  const double* backlog, std::size_t n, double* out) {
  detail::active_table().compute_keys(op, p0, p1, sr, backlog, n, out);
}

bool bounds_ok_i32(const std::int32_t* x, std::size_t n, std::int32_t limit) {
  return detail::active_table().bounds_ok_i32(x, n, limit);
}

void gather_f64(const void* base, std::size_t stride_bytes,
                const std::uint32_t* idx, std::size_t n, double* out) {
  detail::active_table().gather_f64(base, stride_bytes, idx, n, out);
}

void gather_i64(const void* base, std::size_t stride_bytes,
                const std::uint32_t* idx, std::size_t n, std::int64_t* out) {
  detail::active_table().gather_i64(base, stride_bytes, idx, n, out);
}

void gather_i32(const void* base, std::size_t stride_bytes,
                const std::uint32_t* idx, std::size_t n, std::int32_t* out) {
  detail::active_table().gather_i32(base, stride_bytes, idx, n, out);
}

void gather_u32_from_size(const void* base, std::size_t stride_bytes,
                          const std::uint32_t* idx, std::size_t n,
                          std::uint32_t* out) {
  detail::active_table().gather_u32_from_size(base, stride_bytes, idx, n, out);
}

}  // namespace basrpt::simd
