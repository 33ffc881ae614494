// spawn_churn: a closed-loop stream of spawn-to-first-call events from one
// spawner on core 0. Each event is mk::Kernel::CreateProcessWithImage ->
// SkyBridge::RegisterClient -> ContextSwitchTo -> the first
// DirectServerCall, round-robin over a few echo servers.
//
// One image in four (a seeded position in each group of four) is a fresh
// 16-page program that misses the rewrite cache and pays the full x86
// scan/rewrite; the rest are forks of one template that replay from the
// cache. x86, registration, vmm EPT creation and mk process creation do most
// of their work here. Every echo reply must equal its request.

#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/apps/corpus.h"
#include "src/base/rng.h"
#include "src/base/units.h"
#include "src/mk/process.h"

namespace perfbench {
namespace {

constexpr int kEchoServers = 4;
constexpr int kWarmupSpawns = 2;  // Template forks: the first one fills the cache.
constexpr size_t kImageBytes = mk::kCodeSize;  // 16 pages.
// A worker's first request carries its start-up arguments: a seeded 16 B to
// 4 KiB, so requests past the register window take the shared-buffer path.
constexpr size_t kMinPayloadBytes = 16;
constexpr size_t kMaxPayloadBytes = 4096;

struct Spawn {
  std::string name;
  std::vector<uint8_t> image;
  bool fresh = false;
  mk::Message request;
};

mk::Message MakeRequest(sb::Rng& rng) {
  std::vector<uint8_t> payload(kMinPayloadBytes +
                               rng.Below(kMaxPayloadBytes - kMinPayloadBytes + 1));
  for (auto& byte : payload) {
    byte = static_cast<uint8_t>(rng.Next());
  }
  return mk::Message(rng.Next(), std::move(payload));
}

uint64_t CoreCycles(hw::Machine& machine) {
  uint64_t total = 0;
  for (int i = 0; i < machine.num_cores(); ++i) {
    total += machine.core(i).cycles();
  }
  return total;
}

}  // namespace

RoundResult RunSpawnChurnRound(const RoundSpec& spec) {
  const int64_t round_start = NowNs();
  SpanLog& spans = *spec.spans;
  RoundResult r;

  // ---- Inputs: every image and request, from the seed ----
  std::vector<uint8_t> template_image;
  {
    sb::Rng rng(StreamSeed(spec.seed, spec.round, 1));
    template_image = apps::GenerateProgramWithCallImmPattern(rng, kImageBytes);
  }
  std::vector<Spawn> warmup(kWarmupSpawns);
  std::vector<Spawn> timed(spec.ops);
  {
    sb::Rng rng(StreamSeed(spec.seed, spec.round, 2));
    // Exactly one spawn in each group of four is fresh; which one is seeded.
    // Any run of whole groups (a round, a throughput sample) then holds
    // exactly a quarter fresh images.
    for (size_t group = 0; group < timed.size(); group += 4) {
      const size_t pick = group + rng.Below(4);
      if (pick < timed.size()) {
        timed[pick].fresh = true;
      }
    }
    int n = 0;
    for (std::vector<Spawn>* list : {&warmup, &timed}) {
      for (Spawn& s : *list) {
        s.name = "worker-" + std::to_string(n++);
        s.image = s.fresh ? apps::GenerateProgramWithCallImmPattern(rng, kImageBytes)
                          : template_image;
        s.request = MakeRequest(rng);
      }
    }
  }

  // ---- World: booted kernel, echo servers ----
  hw::MachineConfig mc;
  mc.num_cores = 2;
  mc.ram_bytes = 8 * sb::kGiB;  // Sparse host backing; each worker maps an 8 MiB heap.
  auto machine = std::make_unique<hw::Machine>(mc);
  auto kernel = std::make_unique<mk::Kernel>(*machine, mk::Sel4Profile());
  if (const sb::Status booted = kernel->Boot(); !booted.ok()) {
    r.Fail("Kernel::Boot: " + booted.ToString());
    return r;
  }
  auto sky = std::make_unique<skybridge::SkyBridge>(*kernel, PinnedSkyConfig());
  CheckPinnedConfig(*sky, r);
  std::vector<skybridge::ServerId> sids;
  for (int i = 0; i < kEchoServers; ++i) {
    auto server = kernel->CreateProcess("echo-" + std::to_string(i));
    if (!server.ok()) {
      r.Fail("CreateProcess: " + server.status().ToString());
      return r;
    }
    auto sid = sky->RegisterServer(*server, 256, [](mk::CallEnv& env) { return env.request; });
    if (!sid.ok()) {
      r.Fail("RegisterServer: " + sid.status().ToString());
      return r;
    }
    sids.push_back(*sid);
  }
  hw::Core& core = machine->core(0);
  sb::telemetry::Counter& cache_misses =
      machine->telemetry().GetCounter("skybridge.registration.cache_misses");

  struct {
    double creates = 0, create_cycles = 0, registers = 0, register_cycles = 0;
  } sums;
  // One spawn-to-first-call event, checked.
  const auto spawn = [&](Spawn& s, uint64_t op_id, bool timed_op) {
    const skybridge::ServerId sid = sids[op_id % sids.size()];
    const uint64_t c0 = core.cycles();
    ScopedSpan op_span(spans, "spawn_churn.spawn", op_id);
    uint64_t all0 = CoreCycles(*machine);
    sb::StatusOr<mk::Process*> process = [&] {
      ScopedSpan span(spans, "mk.create_process", op_id);
      return kernel->CreateProcessWithImage(s.name, std::move(s.image));
    }();
    if (!process.ok()) {
      r.Fail(s.name + " CreateProcessWithImage: " + process.status().ToString());
      return;
    }
    uint64_t all1 = CoreCycles(*machine);
    if (timed_op) {
      sums.creates += 1;
      sums.create_cycles += static_cast<double>(all1 - all0);
    }
    const uint64_t misses_before = cache_misses.Value();
    ScopedSpan reg_span(spans, "skybridge.register_client", op_id);
    const sb::Status registered = sky->RegisterClient(*process, sid);
    const int32_t reg_index = reg_span.End();
    // A registration that missed the rewrite cache paid the full scan.
    spans.Rename(reg_index, cache_misses.Value() > misses_before
                                ? "skybridge.register_client.miss"
                                : "skybridge.register_client.hit");
    if (!registered.ok()) {
      r.Fail(s.name + " RegisterClient: " + registered.ToString());
      return;
    }
    all0 = CoreCycles(*machine);
    if (timed_op) {
      sums.registers += 1;
      sums.register_cycles += static_cast<double>(all0 - all1);
    }
    mk::Thread* thread = (*process)->AddThread(core.id());
    sb::Status switched = [&] {
      ScopedSpan span(spans, "mk.context_switch", op_id);
      return kernel->ContextSwitchTo(core, *process);
    }();
    if (!switched.ok()) {
      r.Fail(s.name + " ContextSwitchTo: " + switched.ToString());
      return;
    }
    sb::StatusOr<mk::Message> reply = [&] {
      ScopedSpan span(spans, "skybridge.call", op_id);
      return sky->DirectServerCall(thread, sid, s.request);
    }();
    const uint64_t cycles = core.cycles() - c0;
    if (!reply.ok()) {
      r.Fail(s.name + " DirectServerCall: " + reply.status().ToString());
      return;
    }
    if (!SameMessage(*reply, s.request)) {
      r.Fail(s.name + " echo reply differs from its request");
    }
    if (timed_op) {
      RecordOp(r, cycles, cycles, reply->payload());
    }
  };

  // ---- Warm-up: the template's pages enter the rewrite cache ----
  {
    ScopedSpan span(spans, "setup.warmup", kSetupOp);
    for (Spawn& s : warmup) {
      spawn(s, kSetupOp, /*timed_op=*/false);
    }
  }

  // ---- Timed phase ----
  const Counts machine_before = ReadMachineCounts(*machine);
  r.service_cycles.reserve(timed.size());
  r.latency_cycles.reserve(timed.size());
  PhaseTimer timer(spec, r);
  timer.Start(round_start);
  for (size_t i = 0; i < timed.size(); ++i) {
    spawn(timed[i], i, /*timed_op=*/true);
    timer.Tick();
  }
  timer.Stop();
  r.attempted = warmup.size() + timed.size();

  const sb::Status invariants = sky->CheckInvariants();
  if (!invariants.ok()) {
    r.Fail("CheckInvariants: " + invariants.ToString());
  }
  r.sim = Subtract(ReadMachineCounts(*machine), machine_before);
  r.sim["spawns"] = static_cast<double>(timed.size());
  r.sim["mk.create_process.count"] = sums.creates;
  r.sim["mk.create_process.cycles"] = sums.create_cycles;
  r.sim["skybridge.register_client.count"] = sums.registers;
  r.sim["skybridge.register_client.cycles"] = sums.register_cycles;
  return r;
}

}  // namespace perfbench
