// mesh_zipf: an open loop over a consolidated binding mesh. 64 servers x
// 1,024 clients x 16 servers per client = 16,384 bindings, zipfian (theta
// 0.99) over bindings, Poisson arrivals from 4 sim::LoadGenerator clients on
// 4 simulated cores, against a tight per-core EPTP working set of 64 slots.
//
// skybridge routing, EPTP slot faults, mk context switches, the sim executor
// and the per-call hw/telemetry hot path dominate; messages are short, so
// x86, db, fs and the copy path are bypassed. Latency runs from each call's
// intended arrival. Every echo reply must equal its request.

#include <algorithm>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/base/rng.h"
#include "src/base/units.h"
#include "src/sim/loadgen.h"

namespace perfbench {
namespace {

// Mesh geometry, as in bench_scaling_mesh: groups of kGenerators clients are
// roster-aligned so a zipfian key can be steered to the issuing generator
// client's core without leaving the binding set.
constexpr int kServers = 64;
constexpr int kClients = 1024;
constexpr int kServersPerClient = 16;
constexpr int kConnectionsPerServer = kClients * kServersPerClient / kServers;  // 256
constexpr int kGenerators = 4;  // One load-generator client per simulated core.
constexpr uint64_t kBindings = static_cast<uint64_t>(kClients) * kServersPerClient;
constexpr size_t kWorkingSet = 64;
// About half of the measured saturation rate: p99 stays a steady queueing
// tail instead of an unbounded backlog.
constexpr double kOfferedPerKcycle = 0.8;
constexpr uint32_t kWarmupEvents = 16384;
constexpr size_t kPayloadBytes = 16;

uint32_t RosterClient(uint64_t server, uint64_t index) {
  const uint64_t residue = (kGenerators - server % kGenerators) % kGenerators;
  const uint64_t group = (index / kGenerators) * kGenerators + residue;
  return static_cast<uint32_t>(group * kGenerators + index % kGenerators);
}

}  // namespace

RoundResult RunMeshZipfRound(const RoundSpec& spec) {
  const int64_t round_start = NowNs();
  SpanLog& spans = *spec.spans;
  RoundResult r;

  // ---- Inputs: the request of every call, from the seed. The Poisson
  // schedules are precomputed by the LoadGenerators below, also from it.
  const auto make_requests = [](uint64_t seed, uint64_t count) {
    sb::Rng rng(seed);
    std::vector<mk::Message> requests;
    requests.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      std::vector<uint8_t> payload(kPayloadBytes);
      for (auto& byte : payload) {
        byte = static_cast<uint8_t>(rng.Next());
      }
      requests.emplace_back(rng.Next(), std::move(payload));
    }
    return requests;
  };
  const std::vector<mk::Message> warm_requests =
      make_requests(StreamSeed(spec.seed, spec.round, 3), kWarmupEvents);
  const std::vector<mk::Message> timed_requests =
      make_requests(StreamSeed(spec.seed, spec.round, 4), spec.ops);

  // ---- World: the mesh ----
  hw::MachineConfig mc;
  mc.num_cores = kGenerators;
  mc.ram_bytes = 8 * sb::kGiB;
  auto machine = std::make_unique<hw::Machine>(mc);
  mk::KernelOptions options;
  // 1088 processes: a small heap keeps guest-frame use bounded.
  options.process_heap_bytes = 256 * 1024;
  options.rootkernel_config.reserved_bytes = 768ULL * 1024 * 1024;
  auto kernel = std::make_unique<mk::Kernel>(*machine, mk::Sel4Profile(), options);
  if (const sb::Status booted = kernel->Boot(); !booted.ok()) {
    r.Fail("Kernel::Boot: " + booted.ToString());
    return r;
  }
  skybridge::SkyBridgeConfig config = PinnedSkyConfig();
  config.eptp_working_set = kWorkingSet;
  // Short-message mesh: one 4 KiB slice per binding keeps the 16k shared
  // buffer regions at ~64 MiB instead of 4 GiB.
  config.shared_buffer_bytes = 4 * 1024;
  config.buffer_slices = 1;
  auto sky = std::make_unique<skybridge::SkyBridge>(*kernel, config);
  CheckPinnedConfig(*sky, r);
  sb::telemetry::Counter& cache_misses =
      machine->telemetry().GetCounter("skybridge.registration.cache_misses");

  std::vector<skybridge::ServerId> sids;
  std::vector<mk::Process*> clients;
  std::vector<mk::Thread*> threads;  // threads[c] pinned to core c % kGenerators.
  const auto create = [&](const std::string& name) -> mk::Process* {
    ScopedSpan span(spans, "mk.create_process", kSetupOp);
    auto p = kernel->CreateProcess(name);
    if (!p.ok()) {
      r.Fail("CreateProcess " + name + ": " + p.status().ToString());
      return nullptr;
    }
    return *p;
  };
  for (int s = 0; s < kServers; ++s) {
    mk::Process* server = create("srv" + std::to_string(s));
    if (server == nullptr) {
      return r;
    }
    auto sid = sky->RegisterServer(server, kConnectionsPerServer,
                                   [](mk::CallEnv& env) { return env.request; });
    if (!sid.ok()) {
      r.Fail("RegisterServer: " + sid.status().ToString());
      return r;
    }
    sids.push_back(*sid);
  }
  for (int c = 0; c < kClients; ++c) {
    mk::Process* client = create("cli" + std::to_string(c));
    if (client == nullptr) {
      return r;
    }
    clients.push_back(client);
    threads.push_back(client->AddThread(c % kGenerators));
  }
  for (int s = 0; s < kServers; ++s) {
    for (int i = 0; i < kConnectionsPerServer; ++i) {
      const uint64_t misses_before = cache_misses.Value();
      ScopedSpan span(spans, "skybridge.register_client", kSetupOp);
      const sb::Status registered =
          sky->RegisterClient(clients[RosterClient(s, i)], sids[static_cast<size_t>(s)]);
      const int32_t index = span.End();
      spans.Rename(index, cache_misses.Value() > misses_before ? "skybridge.register_client.miss"
                                                               : "skybridge.register_client.hit");
      if (!registered.ok()) {
        r.Fail("RegisterClient: " + registered.ToString());
        return r;
      }
    }
  }

  PhaseTimer timer(spec, r);

  // ---- The load target: one checked echo call per arrival ----
  // In sync mode the generator calls the hook once per arrival, in each
  // client's schedule order, so a per-client cursor recovers the arrival
  // (and with it the intended time latency runs from).
  struct Phase {
    std::vector<std::vector<sim::Arrival>> per_client;
    std::vector<size_t> cursor;
    const std::vector<mk::Message>* requests = nullptr;
    uint64_t base = 0;  // The generator's clock anchor.
    uint64_t next_op = 0;
    bool timed = false;
  } phase;
  const auto hook = [&](uint32_t gen, uint64_t key) -> sb::Status {
    const int64_t h0 = NowNs();
    const uint64_t op = phase.next_op++;
    const sim::Arrival& arrival = phase.per_client[gen][phase.cursor[gen]++];
    const uint64_t op_id = phase.timed ? op : kSetupOp;
    ScopedSpan op_span(spans, "mesh_zipf.call", op_id);
    const uint64_t server = key / kConnectionsPerServer;
    const uint64_t index = key % kConnectionsPerServer;
    // Steer the key's client to this generator client's core: same roster
    // group, member = gen. Groups are kGenerators-aligned, so the pair stays
    // bound.
    const uint32_t c = (RosterClient(server, index) & ~(kGenerators - 1u)) | gen;
    hw::Core& core = machine->core(static_cast<int>(gen));
    const uint64_t c0 = core.cycles();
    sb::Status status = sb::OkStatus();
    if (kernel->current_process(core.id()) != clients[c]) {
      ScopedSpan span(spans, "mk.context_switch", op_id);
      status = kernel->ContextSwitchTo(core, clients[c]);
    }
    const mk::Message& request = (*phase.requests)[op];
    sb::StatusOr<mk::Message> reply = sb::Unavailable("not called");
    if (status.ok()) {
      ScopedSpan span(spans, "skybridge.call", op_id);
      reply = sky->DirectServerCall(threads[c], sids[server], request);
      status = reply.status();
    }
    const uint64_t done = core.cycles();
    const uint64_t intended = phase.base + arrival.cycles;
    if (arrival.key != key) {
      r.Fail("load generator sent key " + std::to_string(key) + " out of schedule order");
    } else if (!status.ok()) {
      r.Fail("call " + std::to_string(op) + ": " + status.ToString());
    } else if (!SameMessage(*reply, request)) {
      r.Fail("call " + std::to_string(op) + " echo reply differs from its request");
    } else if (phase.timed) {
      RecordOp(r, done - c0, done >= intended ? done - intended : 0, reply->payload());
    }
    op_span.End();
    if (phase.timed) {
      r.hook_s += SecondsBetween(h0, NowNs());
      timer.Tick();
    }
    return status;
  };
  const auto make_generator = [&](uint64_t seed, uint32_t events) {
    sim::LoadGenConfig lg;
    lg.seed = seed;
    lg.events = events;
    lg.num_clients = kGenerators;
    for (int d = 0; d < kGenerators; ++d) {
      lg.client_cores.push_back(d);
    }
    lg.num_keys = kBindings;
    lg.zipf_theta = 0.99;
    lg.offered_per_kcycle = kOfferedPerKcycle;
    sim::LoadTarget target;
    target.sync_call = hook;
    return std::make_unique<sim::LoadGenerator>(*machine, lg, target);
  };
  // Arms `phase` for one generator run; the schedule is sorted by time with
  // ties broken by client, so filtering keeps each client's own order.
  const auto arm = [&](const sim::LoadGenerator& gen, const std::vector<mk::Message>& requests,
                       bool timed) {
    phase.per_client.assign(kGenerators, {});
    for (const sim::Arrival& a : gen.schedule()) {
      phase.per_client[a.client].push_back(a);
    }
    phase.cursor.assign(kGenerators, 0);
    phase.requests = &requests;
    phase.next_op = 0;
    phase.timed = timed;
    phase.base = 0;
    for (int i = 0; i < machine->num_cores(); ++i) {
      phase.base = std::max(phase.base, machine->core(i).cycles());
    }
  };
  const auto run = [&](sim::LoadGenerator& gen, uint32_t events) {
    auto report = gen.Run();
    if (!report.ok()) {
      r.Fail("LoadGenerator::Run: " + report.status().ToString());
    } else if (report->completed + report->errors != events || phase.next_op != events) {
      r.Fail("load generator finished " + std::to_string(phase.next_op) + " of " +
             std::to_string(events) + " arrivals");
    }
  };

  // ---- Warm-up: fills the slot working sets, TLBs and caches ----
  auto warm_gen = make_generator(StreamSeed(spec.seed, spec.round, 1), kWarmupEvents);
  {
    ScopedSpan span(spans, "setup.warmup", kSetupOp);
    arm(*warm_gen, warm_requests, /*timed=*/false);
    run(*warm_gen, kWarmupEvents);
  }
  const auto events = static_cast<uint32_t>(spec.ops);
  auto timed_gen = make_generator(StreamSeed(spec.seed, spec.round, 2), events);

  // ---- Timed phase ----
  const Counts machine_before = ReadMachineCounts(*machine);
  arm(*timed_gen, timed_requests, /*timed=*/true);
  r.service_cycles.reserve(events);
  r.latency_cycles.reserve(events);
  timer.Start(round_start);
  run(*timed_gen, events);
  timer.Stop();
  r.attempted = kWarmupEvents + static_cast<uint64_t>(events);

  const sb::Status invariants = sky->CheckInvariants();
  if (!invariants.ok()) {
    r.Fail("CheckInvariants: " + invariants.ToString());
  }
  r.sim = Subtract(ReadMachineCounts(*machine), machine_before);
  return r;
}

}  // namespace perfbench
