#include "quantum/dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

#include "common/error.hpp"

namespace qaoaml::quantum {
namespace {

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QAOAML_SIMD_X86 1
#else
#define QAOAML_SIMD_X86 0
#endif

SimdTier probe_cpu() {
#if QAOAML_SIMD_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx2")) {
    return SimdTier::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return SimdTier::kAvx2;
#endif
  return SimdTier::kScalar;
}

// 0 = no override, else 1 + static_cast<int>(tier) (atomic so overrides
// made on the main thread are visible to pool workers).
std::atomic<int> tier_override{0};

}  // namespace

SimdTier detected_simd_tier() {
  static const SimdTier detected = probe_cpu();
  return detected;
}

bool simd_tier_supported(SimdTier tier) {
  return static_cast<int>(tier) <= static_cast<int>(detected_simd_tier());
}

const char* to_string(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return "scalar";
    case SimdTier::kAvx2:
      return "avx2";
    case SimdTier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

std::optional<SimdTier> parse_simd_tier(std::string_view text) {
  if (text == "scalar") return SimdTier::kScalar;
  if (text == "avx2") return SimdTier::kAvx2;
  if (text == "avx512") return SimdTier::kAvx512;
  return std::nullopt;
}

SimdTier active_simd_tier() {
  const int over = tier_override.load(std::memory_order_relaxed);
  if (over != 0) return static_cast<SimdTier>(over - 1);
  if (const char* env = std::getenv("QAOAML_SIMD")) {
    // Read on every state build: the messages are built only on failure.
    const std::optional<SimdTier> tier = parse_simd_tier(env);
    if (!tier) {
      throw InvalidArgument(std::string("QAOAML_SIMD: unknown tier '") + env +
                            "' (expected scalar|avx2|avx512)");
    }
    if (!simd_tier_supported(*tier)) {
      throw InvalidArgument(
          std::string("QAOAML_SIMD=") + env +
          ": this CPU does not support that tier (detected " +
          to_string(detected_simd_tier()) + ")");
    }
    return *tier;
  }
  return detected_simd_tier();
}

ScopedSimdTier::ScopedSimdTier(SimdTier tier) : previous_(0) {
  require(simd_tier_supported(tier),
          std::string("ScopedSimdTier: this CPU does not support ") +
              to_string(tier) + " (detected " +
              to_string(detected_simd_tier()) + ")");
  previous_ = tier_override.exchange(1 + static_cast<int>(tier),
                                     std::memory_order_relaxed);
}

ScopedSimdTier::~ScopedSimdTier() {
  tier_override.store(previous_, std::memory_order_relaxed);
}

}  // namespace qaoaml::quantum
