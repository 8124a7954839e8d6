#include "common/cpu.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace visualroad {

namespace {

SimdLevel ProbeCpu() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

}  // namespace

SimdLevel DetectedSimdLevel() {
  static const SimdLevel level = ProbeCpu();
  return level;
}

std::vector<SimdLevel> AvailableSimdLevels() {
  if (DetectedSimdLevel() == SimdLevel::kScalar) return {SimdLevel::kScalar};
  return {SimdLevel::kScalar, SimdLevel::kAvx2};
}

bool ParseSimdLevel(const std::string& text, SimdLevel* out) {
  std::string lower(text);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "scalar") {
    *out = SimdLevel::kScalar;
  } else if (lower == "avx2") {
    *out = SimdLevel::kAvx2;
  } else {
    return false;
  }
  return true;
}

const char* SimdLevelName(SimdLevel level) {
  return level == SimdLevel::kAvx2 ? "avx2" : "scalar";
}

SimdLevel RequestedSimdLevel() {
  SimdLevel detected = DetectedSimdLevel();
  const char* env = std::getenv("VR_SIMD");
  if (env == nullptr || env[0] == '\0') return detected;
  SimdLevel requested;
  if (!ParseSimdLevel(env, &requested)) return SimdLevel::kScalar;
  return std::min(requested, detected);
}

}  // namespace visualroad
