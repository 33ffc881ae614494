// The three perfbench workloads and the configuration pinned for all of
// them. Each workload runs one round at a time (a fresh simulated world, set
// up, warmed and timed); perfbench.cc drives the rounds and turns the
// results into metrics.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>

#include "perfbench/src/harness.h"
#include "src/skybridge/skybridge.h"

namespace perfbench {

// Pinned for every workload, whatever SB_CROSSING_BACKEND and
// SB_REGISTRATION_MODE say: the EPTP-VMFUNC backend, eager registration, the
// default rewrite cache and a fixed scan-pool width. perfbench.cc also
// overwrites both environment variables before any world is built, so
// worlds that construct their own SkyBridgeConfig (apps::SqliteStack) get
// the same values.
inline constexpr skybridge::CrossingBackendKind kPinnedBackend =
    skybridge::CrossingBackendKind::kEptp;
inline constexpr skybridge::RegistrationMode kPinnedRegistration =
    skybridge::RegistrationMode::kEager;
inline constexpr int kPinnedScanThreads = 4;

// A SkyBridgeConfig with the pinned values and library defaults otherwise.
skybridge::SkyBridgeConfig PinnedSkyConfig();

// Copies the configuration a world actually ran with into the result, and
// fails the round if it differs from the pinned one.
void CheckPinnedConfig(const skybridge::SkyBridge& sky, RoundResult& result);

// Independent input stream `stream` of round `round` under `seed`.
uint64_t StreamSeed(uint64_t seed, uint32_t round, uint64_t stream);

// Same tag and payload bytes: the echo servers' reply check.
bool SameMessage(const mk::Message& a, const mk::Message& b);

// Rounds per run at least: setup_s is a median over rounds.
inline constexpr uint32_t kMinRounds = 3;

struct Workload {
  const char* name;
  RoundResult (*run_round)(const RoundSpec& spec);
  // A --seconds budget buys seconds * nominal_ops_per_s timed ops, split
  // over at least kMinRounds rounds and at most max_ops_per_round ops per
  // round, so the untraced timed phases add up to about --seconds at the
  // reference host's speed. The op count, not the wall time, is what is
  // fixed, so simulated results stay byte-identical across runs and hosts.
  double nominal_ops_per_s;
  uint64_t max_ops_per_round;
};

RoundResult RunYcsbSqliteRound(const RoundSpec& spec);
RoundResult RunSpawnChurnRound(const RoundSpec& spec);
RoundResult RunMeshZipfRound(const RoundSpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
