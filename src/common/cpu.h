#ifndef VISUALROAD_COMMON_CPU_H_
#define VISUALROAD_COMMON_CPU_H_

#include <string>
#include <vector>

namespace visualroad {

/// SIMD instruction-set tiers the kernel layer dispatches between. Levels are
/// ordered: the dispatcher picks the widest level the CPU supports unless the
/// VR_SIMD environment variable pins it down. The values are stable (they are
/// exported as the vr_simd_level gauge).
enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 2,
};

/// Widest SIMD level this CPU supports, probed once via CPUID. On non-x86
/// targets this is kScalar.
SimdLevel DetectedSimdLevel();

/// Every level up to DetectedSimdLevel(), narrowest first; what tests and
/// benches iterate to compare each level against scalar.
std::vector<SimdLevel> AvailableSimdLevels();

/// Parses "scalar" / "avx2" (case-insensitive). Returns false and leaves `out`
/// untouched on anything else.
bool ParseSimdLevel(const std::string& text, SimdLevel* out);

/// Lower-case level name ("scalar", "avx2").
const char* SimdLevelName(SimdLevel level);

/// The level requested by the environment: VR_SIMD=scalar|avx2, clamped to
/// DetectedSimdLevel() so a pin can only narrow, never widen. Unset or empty
/// VR_SIMD yields DetectedSimdLevel(); any other value that does not parse
/// yields kScalar.
SimdLevel RequestedSimdLevel();

}  // namespace visualroad

#endif  // VISUALROAD_COMMON_CPU_H_
