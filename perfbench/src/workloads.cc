#include "perfbench/src/workloads.h"

#include <algorithm>
#include <string>

namespace perfbench {

skybridge::SkyBridgeConfig PinnedSkyConfig() {
  skybridge::SkyBridgeConfig config;
  config.crossing_backend = kPinnedBackend;
  config.registration_mode = kPinnedRegistration;
  config.scan_pool_threads = kPinnedScanThreads;
  return config;
}

void CheckPinnedConfig(const skybridge::SkyBridge& sky, RoundResult& result) {
  const skybridge::SkyBridgeConfig& c = sky.config();
  result.backend = skybridge::CrossingBackendName(c.crossing_backend);
  result.registration_mode = skybridge::RegistrationModeName(c.registration_mode);
  result.scan_pool_threads = c.scan_pool_threads;
  const skybridge::SkyBridgeConfig defaults;
  if (c.crossing_backend != kPinnedBackend || c.registration_mode != kPinnedRegistration ||
      c.scan_pool_threads != kPinnedScanThreads ||
      c.rewrite_cache_entries != defaults.rewrite_cache_entries) {
    result.Fail("world ran with backend " + result.backend + ", registration " +
                result.registration_mode + ", " + std::to_string(c.scan_pool_threads) +
                " scan threads; the pinned configuration was not applied");
  }
}

uint64_t StreamSeed(uint64_t seed, uint32_t round, uint64_t stream) {
  // SplitMix64 finalizer over (seed, round, stream).
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + (static_cast<uint64_t>(round) << 32) + stream;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool SameMessage(const mk::Message& a, const mk::Message& b) {
  const std::span<const uint8_t> pa = a.payload();
  const std::span<const uint8_t> pb = b.payload();
  return a.tag == b.tag && std::equal(pa.begin(), pa.end(), pb.begin(), pb.end());
}

}  // namespace perfbench
