// Vectorizable primitives used by the decide hot path: score-key
// fusion, port-range validation for the matcher, and the candidate-cache
// repack gathers.
//
// Each function dispatches on simd::active_isa(). Inputs are raw lanes
// (see sched::CandidateView); all kernels require NaN-free doubles —
// candidate scores are sizes, backlogs and timestamps, never NaN.
//
// Bit-identity contract: the scalar and AVX2 variants perform the same
// IEEE-754 operations in the same per-element order. Key computations
// use explicit multiply-then-subtract (no FMA contraction — the AVX2 TU
// is compiled with -ffp-contract=off to match the baseline scalar
// build), so scalar and vector keys match bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>

namespace basrpt::simd {

/// Fused per-candidate score computations over SoA lanes.
enum class KeyOp {
  /// out[i] = sr[i] — SRPT key (plain copy, lets callers share one path).
  kCopy = 0,
  /// out[i] = p0 * sr[i] - backlog[i] — fast-BASRPT key, p0 = V/n_ports.
  kFastBasrpt = 1,
  /// out[i] = sr[i] + (backlog[i] > p0 ? 0.0 : p1) — threshold-SRPT key,
  /// p0 = threshold, p1 = class offset.
  kThresholdSrpt = 2,
  /// out[i] = -backlog[i] — MaxWeight as a min-key (ascending matcher).
  kNegBacklog = 3,
};

/// Computes `out[i]` for i in [0, n) from the `sr` (shortest-remaining)
/// and `backlog` lanes. Lanes may alias `out` only if identical.
void compute_keys(KeyOp op, double p0, double p1, const double* sr,
                  const double* backlog, std::size_t n, double* out);

/// True iff 0 <= x[i] < limit for all i — the matcher's port-range
/// validation over the ingress/egress lanes.
bool bounds_ok_i32(const std::int32_t* x, std::size_t n, std::int32_t limit);

/// Strided gathers for the CandidateCache repack: out[i] = *(const T*)
/// (base + idx[i] * stride_bytes). `stride_bytes` is the size of the AoS
/// record (sizeof(VoqCandidate)); idx holds flat entry indexes.
void gather_f64(const void* base, std::size_t stride_bytes,
                const std::uint32_t* idx, std::size_t n, double* out);
void gather_i64(const void* base, std::size_t stride_bytes,
                const std::uint32_t* idx, std::size_t n, std::int64_t* out);
void gather_i32(const void* base, std::size_t stride_bytes,
                const std::uint32_t* idx, std::size_t n, std::int32_t* out);
/// Gather of size_t-typed AoS fields narrowed to uint32 (flow counts).
void gather_u32_from_size(const void* base, std::size_t stride_bytes,
                          const std::uint32_t* idx, std::size_t n,
                          std::uint32_t* out);

// Per-ISA implementation tables, linked from the per-ISA translation
// units. Not part of the public API; exposed for the dispatcher and the
// differential tests (which call each ISA directly).
namespace detail {

struct KernelTable {
  void (*compute_keys)(KeyOp, double, double, const double*, const double*,
                       std::size_t, double*);
  bool (*bounds_ok_i32)(const std::int32_t*, std::size_t, std::int32_t);
  void (*gather_f64)(const void*, std::size_t, const std::uint32_t*,
                     std::size_t, double*);
  void (*gather_i64)(const void*, std::size_t, const std::uint32_t*,
                     std::size_t, std::int64_t*);
  void (*gather_i32)(const void*, std::size_t, const std::uint32_t*,
                     std::size_t, std::int32_t*);
  void (*gather_u32_from_size)(const void*, std::size_t, const std::uint32_t*,
                               std::size_t, std::uint32_t*);
};

const KernelTable& scalar_table();
#if defined(BASRPT_SIMD_ENABLED)
const KernelTable& avx2_table();
#endif

/// Table for the currently active ISA (see dispatch.hpp).
const KernelTable& active_table();

}  // namespace detail

}  // namespace basrpt::simd
