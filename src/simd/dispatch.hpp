// Runtime ISA dispatch for the scoring kernels.
//
// The kernels in this module exist in two variants — the portable
// scalar reference and AVX2 — compiled into separate translation units
// so the AVX2 one alone carries -mavx2. Which variant runs is a
// process-global decision made once at startup and changeable at
// runtime (benches A/B scalar vs native; the differential tests pin
// each side in turn).
//
// Every kernel's AVX2 variant is bit-identical to the scalar one by
// construction: it uses the same IEEE operations in the same
// per-element order (multiply-then-subtract, never FMA; clamps are
// per-element min/max, never reduced across lanes). A scalar-built
// binary (-DBASRPT_SIMD=OFF) therefore produces the same figure CSVs
// byte for byte — CI enforces this.
#pragma once

#include <string>

namespace basrpt::simd {

enum class Isa {
  kScalar = 0,  // portable C++ loops, always available
  kAvx2 = 1,    // 4-wide doubles
};

/// Human-readable name ("scalar", "avx2").
const char* isa_name(Isa isa);

/// True when the vector variants were compiled in (BASRPT_SIMD=ON and an
/// x86-64 target). When false, kScalar is the only selectable ISA.
bool compiled_with_simd();

/// Best ISA both compiled in and supported by this CPU.
Isa best_supported_isa();

/// Parses an ISA name as accepted by BASRPT_SIMD and the benches'
/// --simd flag: "scalar", "avx2" or "native" (best_supported_isa()).
/// Throws ConfigError, listing the accepted values, for any other name,
/// and for an ISA this build/CPU lacks.
Isa parse_isa(const std::string& value);

/// The ISA the kernels currently dispatch to. Defaults to
/// best_supported_isa(), overridable before first use with the
/// BASRPT_SIMD environment variable (parsed by parse_isa()) and at any
/// time with set_active_isa().
Isa active_isa();

/// Pins the dispatch. Throws ConfigError if `isa` was not compiled in or
/// the CPU lacks it.
void set_active_isa(Isa isa);

}  // namespace basrpt::simd
