// Seeded stress/fuzz layer (ctest label: stress): drives the kv, fs and
// sqlite application stacks through randomized interleavings on the
// simulator's virtual-time executor with fault points armed, and asserts
// the crash-safety invariants after every event:
//
//   - no SB_CHECK death: every injected fault surfaces as a non-OK Status;
//   - no client is left in a server's EPT view (active_index == 0);
//   - no leaked shared-buffer slices or calls (InFlightCalls() == 0);
//   - the bridge's structural invariants hold (CheckInvariants());
//   - the same seed replays to a byte-identical trace-ring dump.
//
// Reproduce a failing run (see TESTING.md):
//
//   SB_STRESS_SEED=<seed> SB_STRESS_EVENTS=<n> ./tests/stress_fault_test
//
// SB_STRESS_ARTIFACT_DIR=<dir> additionally writes the failing seed's
// Chrome-trace replay to <dir>/stress_seed_<seed>.trace.json.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/kv.h"
#include "src/apps/sqlite_stack.h"
#include "src/base/faultpoint.h"
#include "src/base/rng.h"
#include "src/base/telemetry/trace.h"
#include "src/fs/block_device.h"
#include "src/fs/fs_rpc.h"
#include "src/fs/xv6fs.h"
#include "src/sim/executor.h"
#include "src/skybridge/skybridge.h"
#include "src/vmm/rootkernel.h"

namespace skybridge {
namespace {

using mk::CallEnv;
using mk::Message;
using sb::ErrorCode;
using sb::kGiB;

uint64_t EnvOrDefault(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  return std::strtoull(value, nullptr, 0);
}

// FNV-1a 64, byte at a time: the fingerprint's trace hash (TESTING.md).
uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Every outcome a fault-armed call may legally produce. Anything else —
// and in particular a process abort — is a recovery bug.
bool IsAllowedOutcome(const sb::Status& status) {
  switch (status.code()) {
    case ErrorCode::kOk:
    case ErrorCode::kAborted:           // Handler crash, rootkernel-mediated.
    case ErrorCode::kOutOfRange:        // Reply rejected at the return gate.
    case ErrorCode::kUnavailable:       // Stale-slot retries exhausted.
    case ErrorCode::kPermissionDenied:  // Binding revoked.
    case ErrorCode::kInternal:          // Fault propagated through a stack.
    case ErrorCode::kNotFound:          // Plain application-level miss.
      return true;
    default:
      return false;
  }
}

// Block transport straight to a RamDisk: the stress target is the SkyBridge
// RPC hop in front of the fs, not block-device charging.
fsys::BlockTransport RamTransport(fsys::RamDisk* disk) {
  return [disk](const mk::Message& msg) -> sb::StatusOr<mk::Message> {
    uint32_t block = 0;
    std::memcpy(&block, msg.data.data(), 4);
    if (msg.tag == fsys::kBlockRead) {
      mk::Message reply(1);
      reply.data.resize(fsys::kBlockSize);
      SB_RETURN_IF_ERROR(disk->Read(nullptr, block, reply.data));
      return reply;
    }
    SB_RETURN_IF_ERROR(disk->Write(
        nullptr, block, std::span<const uint8_t>(msg.data.data() + 4, fsys::kBlockSize)));
    return mk::Message(1);
  };
}

// The full SkyBridge fault catalog plus the rootkernel registration fault.
const char* const kCatalog[] = {kFaultPreVmfunc,      kFaultHandlerCrash,
                                kFaultReplyCorrupt,   kFaultRevokeInflight,
                                kFaultSlotInstall,    vmm::kFaultBindingEptRefused,
                                kFaultExecScan};

struct ScenarioResult {
  std::string trace_json;  // Chrome-trace replay of the whole run.
  std::string counters;    // Deterministic counter fingerprint.
  std::map<std::string, uint64_t> fires;  // Per-point fire totals.
  std::map<std::string, uint64_t> crossing_enters;  // Per-backend crossings.
};

// One complete stress scenario on a fresh world. Deterministic: everything
// derives from `seed` and `events`; rerunning must reproduce the identical
// trace ring and counters.
class StressScenario {
 public:
  StressScenario(uint64_t seed, uint64_t events) : seed_(seed), events_(events) {}

  ScenarioResult Run() {
    sb::fault::DisarmAll();
    sb::telemetry::TraceClear();
    sb::telemetry::SetTraceEnabled(true);

    BuildWorld();
    SweepCatalog();
    RandomizedInterleavings();
    SlotThrashPhase();
    SqlitePhase();

    sb::fault::DisarmAll();
    sb::telemetry::SetTraceEnabled(false);

    ScenarioResult result;
    result.trace_json = sb::telemetry::TraceChromeJson(sb::telemetry::TraceSnapshot());
    result.counters = CounterFingerprint();
    result.fires = fires_;
    for (const CrossingBackendKind backend :
         {CrossingBackendKind::kEptp, CrossingBackendKind::kMpk,
          CrossingBackendKind::kSyscall}) {
      const std::string name = CrossingBackendName(backend);
      result.crossing_enters[name] =
          machine_->telemetry()
              .GetCounter("skybridge.crossing." + name + ".enters")
              .Value();
    }
    sb::telemetry::TraceClear();
    return result;
  }

 private:
  void BuildWorld() {
    hw::MachineConfig mc;
    mc.num_cores = 4;
    mc.ram_bytes = 4 * kGiB;
    machine_ = std::make_unique<hw::Machine>(mc);
    kernel_ = std::make_unique<mk::Kernel>(*machine_, mk::Sel4Profile());
    SB_CHECK(kernel_->Boot().ok());
    // The backend mix is pinned explicitly per server below; the config
    // default (kv pipeline, sweep helpers) stays kEptp regardless of the
    // SB_CROSSING_BACKEND matrix so the fault sweep hits the slot paths.
    SkyBridgeConfig config;
    config.crossing_backend = CrossingBackendKind::kEptp;
    sky_ = std::make_unique<SkyBridge>(*kernel_, config);

    // Echo server + client (cores 1 and 2 carry its threads; core 0 belongs
    // to the kv pipeline below). The server population is deliberately
    // mixed-backend (DESIGN.md section 16): echo pins EPTP, the fs hop runs
    // over MPK, and a second echo server takes the kernel fastpath, so every
    // stress phase exercises all three crossing paths side by side.
    echo_server_ = kernel_->CreateProcess("stress-echo-server").value();
    echo_sid_ = sky_->RegisterServer(echo_server_, 8,
                                     [](CallEnv& env) { return env.request; },
                                     CrossingBackendKind::kEptp)
                    .value();
    sys_server_ = kernel_->CreateProcess("stress-sys-server").value();
    sys_sid_ = sky_->RegisterServer(sys_server_, 8,
                                    [](CallEnv& env) { return env.request; },
                                    CrossingBackendKind::kSyscall)
                   .value();

    // xv6fs behind a SkyBridge RPC hop, crossing via MPK.
    disk_ = std::make_unique<fsys::RamDisk>(4096);
    fs_ = std::make_unique<fsys::Xv6Fs>(RamTransport(disk_.get()));
    SB_CHECK(fs_->Mkfs().ok());
    SB_CHECK(fs_->Mount().ok());
    fs_server_ = kernel_->CreateProcess("stress-fs-server").value();
    fs_sid_ = sky_->RegisterServer(fs_server_, 8, fsys::MakeFsHandler(fs_.get()),
                                   CrossingBackendKind::kMpk)
                  .value();

    client_ = kernel_->CreateProcess("stress-client").value();
    SB_CHECK(sky_->RegisterClient(client_, echo_sid_).ok());
    SB_CHECK(sky_->RegisterClient(client_, sys_sid_).ok());
    SB_CHECK(sky_->RegisterClient(client_, fs_sid_).ok());
    echo_thread_ = client_->AddThread(1);
    fs_thread_ = client_->AddThread(2);
    batch_thread_ = client_->AddThread(3);
    SB_CHECK(kernel_->ContextSwitchTo(machine_->core(1), client_).ok());
    SB_CHECK(kernel_->ContextSwitchTo(machine_->core(2), client_).ok());
    SB_CHECK(kernel_->ContextSwitchTo(machine_->core(3), client_).ok());

    // The Figure 1 kv pipeline (client -> encrypt -> kv store), SkyBridge
    // wiring, client on core 0.
    kv_ = std::make_unique<apps::KvPipeline>(*kernel_, sky_.get(), apps::KvWiring::kSkyBridge);
    SB_CHECK(kv_->Setup().ok());
  }

  void ExpectHealthy(const char* where) {
    const sb::Status invariants = sky_->CheckInvariants();
    EXPECT_TRUE(invariants.ok()) << where << ": " << invariants.ToString();
    EXPECT_EQ(sky_->InFlightCalls(), 0u) << where;
  }

  void RecordFires(const char* point) { fires_[point] += sb::fault::StatsFor(point).fires; }

  // Phase 1: deterministically walk the whole catalog — every registered
  // fault point fires at least once, recovery observed each time.
  void SweepCatalog() {
    auto call = [&](uint64_t tag) { return sky_->DirectServerCall(echo_thread_, echo_sid_, Message(tag)); };
    ASSERT_TRUE(call(1).ok());

    auto arm_first_hit = [&](const char* point) {
      sb::fault::DisarmAll();
      sb::fault::SetSeed(seed_);
      sb::fault::FaultSpec spec;
      spec.nth_hit = 1;
      sb::fault::Arm(point, spec);
    };

    // Stale EPTP slot: recovered in-line, the caller never notices.
    arm_first_hit(kFaultPreVmfunc);
    auto rearmed = call(2);
    EXPECT_TRUE(rearmed.ok()) << rearmed.status().ToString();
    RecordFires(kFaultPreVmfunc);
    ExpectHealthy("pre_vmfunc");

    // Server thread crash: rootkernel-mediated abort.
    arm_first_hit(kFaultHandlerCrash);
    EXPECT_EQ(call(3).status().code(), ErrorCode::kAborted);
    RecordFires(kFaultHandlerCrash);
    ExpectHealthy("handler.crash");

    // Corrupt reply: rejected at the return gate.
    arm_first_hit(kFaultReplyCorrupt);
    EXPECT_EQ(call(4).status().code(), ErrorCode::kOutOfRange);
    RecordFires(kFaultReplyCorrupt);
    ExpectHealthy("reply_corrupt");

    // Revocation racing an in-flight call: the call drains, then the
    // binding refuses service until re-registered.
    arm_first_hit(kFaultRevokeInflight);
    EXPECT_TRUE(call(5).ok());
    RecordFires(kFaultRevokeInflight);
    sb::fault::DisarmAll();
    EXPECT_EQ(call(6).status().code(), ErrorCode::kPermissionDenied);
    ASSERT_TRUE(sky_->RegisterClient(client_, echo_sid_).ok());
    EXPECT_TRUE(call(7).ok());
    ExpectHealthy("revoke_inflight");

    // Rootkernel refuses the slot install on a slot fault: the call surfaces
    // Unavailable and the next attempt faults the slot in cleanly. Uses a
    // fresh server so the target EPT cannot already be resident (under
    // consolidation the echo server's shared EPT is installed on every core
    // by the earlier legs, which would skip the faultable install).
    auto* slot_server = kernel_->CreateProcess("stress-slot-server").value();
    const ServerId slot_sid =
        sky_->RegisterServer(slot_server, 4, [](CallEnv& env) { return env.request; }).value();
    auto* slot_client = kernel_->CreateProcess("stress-slot-client").value();
    SB_CHECK(sky_->RegisterClient(slot_client, slot_sid).ok());
    mk::Thread* slot_thread = slot_client->AddThread(1);
    SB_CHECK(kernel_->ContextSwitchTo(machine_->core(1), slot_client).ok());
    arm_first_hit(kFaultSlotInstall);
    EXPECT_EQ(sky_->DirectServerCall(slot_thread, slot_sid, Message(8)).status().code(),
              ErrorCode::kUnavailable);
    RecordFires(kFaultSlotInstall);
    sb::fault::DisarmAll();
    EXPECT_TRUE(sky_->DirectServerCall(slot_thread, slot_sid, Message(9)).ok());
    ExpectHealthy("slot_install");

    // Rootkernel refuses the binding EPT at registration time.
    arm_first_hit(vmm::kFaultBindingEptRefused);
    auto* late = kernel_->CreateProcess("stress-late-client").value();
    EXPECT_EQ(sky_->RegisterClient(late, echo_sid_).code(), ErrorCode::kInternal);
    RecordFires(vmm::kFaultBindingEptRefused);
    sb::fault::DisarmAll();
    EXPECT_TRUE(sky_->RegisterClient(late, echo_sid_).ok());
    ExpectHealthy("binding_ept_refused");

    ExecScanSweep();

    for (const char* point : kCatalog) {
      EXPECT_GE(fires_[point], 1u) << point << " never fired in the sweep";
    }
  }

  // Phase 1b: the staged-registration scan fault (DESIGN.md section 17),
  // driven in a dedicated lazy-mode world so the sweep exercises
  // rewrite-on-first-execute regardless of the SB_REGISTRATION_MODE matrix.
  void ExecScanSweep() {
    sb::fault::DisarmAll();
    sb::fault::SetSeed(seed_);
    hw::MachineConfig mc;
    mc.num_cores = 2;
    mc.ram_bytes = 2 * kGiB;
    hw::Machine machine(mc);
    mk::Kernel kernel(machine, mk::Sel4Profile());
    SB_CHECK(kernel.Boot().ok());
    SkyBridgeConfig config;
    config.crossing_backend = CrossingBackendKind::kEptp;
    config.registration_mode = RegistrationMode::kLazy;
    SkyBridge sky(kernel, config);
    auto* server = kernel.CreateProcess("lazy-server").value();
    const ServerId sid =
        sky.RegisterServer(server, 4, [](CallEnv& env) { return env.request; }).value();
    auto* client = kernel.CreateProcess("lazy-client").value();
    SB_CHECK(sky.RegisterClient(client, sid).ok());
    mk::Thread* thread = client->AddThread(0);
    SB_CHECK(kernel.ContextSwitchTo(machine.core(0), client).ok());

    // Persistent scan failure: the bounded retry drains and the first call
    // surfaces clean Unavailable; nothing is left executable or armed.
    sb::fault::Arm(kFaultExecScan);
    EXPECT_EQ(sky.DirectServerCall(thread, sid, Message(1)).status().code(),
              ErrorCode::kUnavailable);
    RecordFires(kFaultExecScan);
    const sb::Status invariants = sky.CheckInvariants();
    EXPECT_TRUE(invariants.ok()) << invariants.ToString();
    EXPECT_EQ(sky.InFlightCalls(), 0u);

    // Fault cleared: the same call faults its pages in and succeeds.
    sb::fault::DisarmAll();
    EXPECT_TRUE(sky.DirectServerCall(thread, sid, Message(2)).ok());

    // A single transient fire is absorbed by the in-fault retry: the caller
    // never notices.
    auto* late = kernel.CreateProcess("lazy-late").value();
    SB_CHECK(sky.RegisterClient(late, sid).ok());
    mk::Thread* late_thread = late->AddThread(1);
    SB_CHECK(kernel.ContextSwitchTo(machine.core(1), late).ok());
    sb::fault::FaultSpec once;
    once.nth_hit = 1;
    sb::fault::Arm(kFaultExecScan, once);
    EXPECT_TRUE(sky.DirectServerCall(late_thread, sid, Message(3)).ok());
    RecordFires(kFaultExecScan);
    sb::fault::DisarmAll();
  }

  // Phase 2: three concurrent virtual-time threads (kv pipeline, echo,
  // xv6fs-over-SkyBridge) with the whole catalog armed at low probability.
  // Invariants are asserted after every event.
  void RandomizedInterleavings() {
    sb::fault::DisarmAll();
    sb::fault::SetSeed(seed_ ^ 0x9e3779b97f4a7c15ULL);
    auto arm = [](const char* point, double p) {
      sb::fault::FaultSpec spec;
      spec.probability = p;
      sb::fault::Arm(point, spec);
    };
    arm(kFaultPreVmfunc, 0.05);
    arm(kFaultHandlerCrash, 0.03);
    arm(kFaultReplyCorrupt, 0.03);
    arm(kFaultRevokeInflight, 0.01);

    auto after_event = [this](sim::SimThread& t, const sb::Status& status) {
      EXPECT_TRUE(IsAllowedOutcome(status)) << t.name() << ": " << status.ToString();
      // The caller is back in its own EPT view — never stranded in the
      // server's (slot indices are virtualized; compare EPT ids).
      mk::Process* current = kernel_->current_process(t.core().id());
      ASSERT_NE(current, nullptr) << t.name();
      EXPECT_EQ(kernel_->rootkernel()->ActiveEptId(t.core().id()), current->ept_id())
          << t.name();
      const sb::Status invariants = sky_->CheckInvariants();
      EXPECT_TRUE(invariants.ok()) << t.name() << ": " << invariants.ToString();
      EXPECT_EQ(sky_->InFlightCalls(), 0u) << t.name();
    };

    sim::Executor executor(*machine_);

    // kv: inserts and queries over a small key space. A revoked internal
    // binding degrades the pipeline to clean errors, never a death.
    executor.AddThread("kv", 0,
                       [this, after_event, rng = sb::Rng(seed_ ^ 0xa11ce5ULL),
                        n = uint64_t{0}](sim::SimThread& t) mutable {
                         const std::string key = "k" + std::to_string(rng.Below(16));
                         sb::Status status;
                         if (rng.OneIn(2)) {
                           status = kv_->Insert(key, std::string(1 + rng.Below(96), 'v'));
                         } else {
                           status = kv_->Query(key).status();
                         }
                         after_event(t, status);
                         return ++n < events_;
                       });

    // echo: variable payload sizes (registers, owned copies, and the
    // long-message shared-buffer path) over an alternating EPTP / kernel-
    // fastpath server pair; revives whichever binding got revoked.
    executor.AddThread("echo", 1,
                       [this, after_event, rng = sb::Rng(seed_ ^ 0xec40ULL),
                        n = uint64_t{0}](sim::SimThread& t) mutable {
                         const ServerId sid = rng.OneIn(3) ? sys_sid_ : echo_sid_;
                         Message msg(rng.Next());
                         const uint64_t size_class = rng.Below(3);
                         if (size_class > 0) {
                           msg.data.assign(size_class == 1 ? 16 : 2048,
                                           static_cast<uint8_t>(rng.Next()));
                         }
                         auto reply = sky_->DirectServerCall(echo_thread_, sid, msg);
                         if (reply.ok()) {
                           EXPECT_EQ(reply->tag, msg.tag);
                           EXPECT_EQ(reply->payload().size(), msg.data.size());
                         } else if (reply.status().code() == ErrorCode::kPermissionDenied) {
                           EXPECT_TRUE(sky_->RegisterClient(client_, sid).ok());
                         }
                         after_event(t, reply.status());
                         return ++n < events_;
                       });

    // fs: create/write/read/unlink over a handful of paths through the
    // RPC handler. Aborted ops never corrupt the fs (the handler either
    // never ran or its reply was dropped at the gate).
    executor.AddThread("fs", 2,
                       [this, after_event, rng = sb::Rng(seed_ ^ 0xf5f5ULL),
                        n = uint64_t{0}](sim::SimThread& t) mutable {
                         fsys::FsClient fs_client(
                             [this](const Message& msg) -> sb::StatusOr<Message> {
                               return sky_->DirectServerCall(fs_thread_, fs_sid_, msg);
                             });
                         const std::string path = "/s" + std::to_string(rng.Below(4));
                         sb::Status status;
                         switch (rng.Below(4)) {
                           case 0:
                             status = fs_client.Create(path).status();
                             break;
                           case 1: {
                             auto inum = fs_client.Open(path);
                             if (inum.ok()) {
                               std::vector<uint8_t> data(1 + rng.Below(512),
                                                         static_cast<uint8_t>(rng.Next()));
                               status = fs_client.Write(*inum, 0, data);
                             } else {
                               status = inum.status();
                             }
                             break;
                           }
                           case 2: {
                             auto inum = fs_client.Open(path);
                             status = inum.ok() ? fs_client.Read(*inum, 0, 512).status()
                                                : inum.status();
                             break;
                           }
                           default:
                             status = fs_client.Unlink(path);
                             break;
                         }
                         if (status.code() == ErrorCode::kPermissionDenied) {
                           EXPECT_TRUE(sky_->RegisterClient(client_, fs_sid_).ok());
                         }
                         after_event(t, status);
                         return ++n < events_;
                       });

    // batch: submission/completion rings over the echo server. A crash
    // mid-drain leaves the tail of the ring pending (reaped next event);
    // revocation fails the pending entries client-side without a crossing.
    executor.AddThread(
        "batch", 3,
        [this, after_event, rng = sb::Rng(seed_ ^ 0xba7cULL), n = uint64_t{0},
         outstanding = std::vector<uint64_t>{}](sim::SimThread& t) mutable {
          auto reregister = [&] {
            // A fresh binding means a fresh ring; old tokens are dead.
            outstanding.clear();
            EXPECT_TRUE(sky_->RegisterClient(client_, echo_sid_).ok());
          };
          const uint64_t depth = 1 + rng.Below(4);
          for (uint64_t i = 0; i < depth; ++i) {
            Message msg(rng.Next());
            if (rng.OneIn(2)) {
              msg.data.assign(1 + rng.Below(256), static_cast<uint8_t>(rng.Next()));
            }
            auto token = sky_->SubmitCall(batch_thread_, echo_sid_, msg);
            if (token.ok()) {
              outstanding.push_back(*token);
            } else if (token.status().code() == ErrorCode::kPermissionDenied) {
              reregister();
              break;
            }
          }
          const sb::Status flushed = sky_->FlushBatch(batch_thread_, echo_sid_);
          std::vector<uint64_t> still_pending;
          for (const uint64_t token : outstanding) {
            const sb::Status polled =
                sky_->PollCompletion(batch_thread_, echo_sid_, token).status();
            switch (polled.code()) {
              case ErrorCode::kOk:
              case ErrorCode::kAborted:           // Crash hit this entry.
              case ErrorCode::kOutOfRange:        // Reply rejected per-entry.
                break;
              case ErrorCode::kUnavailable:       // Untouched after a crash.
                still_pending.push_back(token);
                break;
              case ErrorCode::kPermissionDenied:  // Binding revoked.
                break;
              default:
                ADD_FAILURE() << "batch poll: " << polled.ToString();
                break;
            }
          }
          outstanding = std::move(still_pending);
          if (flushed.code() == ErrorCode::kPermissionDenied) {
            reregister();
          }
          after_event(t, flushed);
          return ++n < events_;
        });

    executor.RunToCompletion();
    for (const char* point : {kFaultPreVmfunc, kFaultHandlerCrash, kFaultReplyCorrupt,
                              kFaultRevokeInflight}) {
      RecordFires(point);
    }
    sb::fault::DisarmAll();
    ExpectHealthy("randomized");
  }

  // Phase 3: slot-thrash mix (DESIGN.md section 15) — far more bindings than
  // EPTP slots in a tight working set, with slot-install refusals and
  // pre-VMFUNC evictions injected. Every call must land an allowed outcome
  // and the per-core slot invariants must hold after every event. Runs in
  // its own world so the tiny working set does not perturb the main
  // scenario's counters.
  void SlotThrashPhase() {
    sb::fault::DisarmAll();
    hw::MachineConfig mc;
    mc.num_cores = 2;
    mc.ram_bytes = 2 * kGiB;
    hw::Machine machine(mc);
    mk::Kernel kernel(machine, mk::Sel4Profile());
    SB_CHECK(kernel.Boot().ok());
    SkyBridgeConfig config;
    config.eptp_working_set = 4;  // Base + 3 usable slots, 8 bindings: thrash.
    config.crossing_backend = CrossingBackendKind::kEptp;  // Slot mechanics.
    SkyBridge sky(kernel, config);

    constexpr int kServers = 8;
    std::vector<ServerId> sids;
    for (int i = 0; i < kServers; ++i) {
      auto* server = kernel.CreateProcess("thrash-server" + std::to_string(i)).value();
      sids.push_back(
          sky.RegisterServer(server, 4, [](CallEnv& env) { return env.request; }).value());
    }
    auto* client = kernel.CreateProcess("thrash-client").value();
    for (const ServerId sid : sids) {
      SB_CHECK(sky.RegisterClient(client, sid).ok());
    }
    mk::Thread* thread = client->AddThread(0);
    SB_CHECK(kernel.ContextSwitchTo(machine.core(0), client).ok());

    sb::fault::SetSeed(seed_ ^ 0x510f7a5bULL);
    sb::fault::FaultSpec spec;
    spec.probability = 0.05;
    sb::fault::Arm(kFaultSlotInstall, spec);
    sb::fault::Arm(kFaultPreVmfunc, spec);

    sb::Rng rng(seed_ ^ 0x7a5bULL);
    for (uint64_t i = 0; i < events_; ++i) {
      const ServerId sid = sids[rng.Below(kServers)];
      auto reply = sky.DirectServerCall(thread, sid, Message(i));
      EXPECT_TRUE(IsAllowedOutcome(reply.status())) << reply.status().ToString();
      if (reply.ok()) {
        EXPECT_EQ(reply->tag, i);
      }
      const sb::Status invariants = sky.CheckInvariants();
      EXPECT_TRUE(invariants.ok()) << invariants.ToString();
      EXPECT_EQ(sky.InFlightCalls(), 0u);
    }
    thrash_slot_faults_ = sky.metrics().slot_faults->Value();
    EXPECT_GT(thrash_slot_faults_, 0u);
    RecordFires(kFaultSlotInstall);
    RecordFires(kFaultPreVmfunc);
    sb::fault::DisarmAll();
  }

  // Phase 4: the Section 6.5 sqlite stack with only the transparent
  // stale-slot fault armed (the deeper stacks treat I/O failure as fatal by
  // design, so opaque faults stay off here). Every op must still succeed —
  // recovery is invisible to the application.
  void SqlitePhase() {
    apps::SqliteStackConfig config;
    config.transport = apps::StackTransport::kSkyBridge;
    config.preload_records = 16;
    auto stack = apps::SqliteStack::Create(config);
    ASSERT_TRUE(stack.ok()) << stack.status().ToString();

    sb::fault::DisarmAll();
    sb::fault::SetSeed(seed_ ^ 0x5eedULL);
    sb::fault::FaultSpec spec;
    spec.probability = 0.05;
    sb::fault::Arm(kFaultPreVmfunc, spec);

    sb::Rng rng(seed_ ^ 0xdbdbULL);
    std::vector<uint8_t> value(100, 0x5a);
    for (uint64_t i = 0; i < 16; ++i) {
      const uint64_t key = rng.Below(16);
      sb::Status status;
      switch (rng.Below(3)) {
        case 0:
          status = (*stack)->Insert(0, 1000 + key, value);
          break;
        case 1:
          status = (*stack)->Query(0, key).status();
          break;
        default:
          status = (*stack)->Update(0, key, value);
          break;
      }
      EXPECT_TRUE(status.ok() || status.code() == ErrorCode::kAlreadyExists ||
                  status.code() == ErrorCode::kNotFound)
          << status.ToString();
      const sb::Status invariants = (*stack)->sky()->CheckInvariants();
      EXPECT_TRUE(invariants.ok()) << invariants.ToString();
      EXPECT_EQ((*stack)->sky()->InFlightCalls(), 0u);
    }
    sqlite_stale_retries_ = (*stack)->sky()->metrics().stale_slot_retries->Value();
    RecordFires(kFaultPreVmfunc);
    sb::fault::DisarmAll();
  }

  // A printable fingerprint of everything that must replay identically.
  // Deliberately omits scan_threads: it is a widest-fan-out gauge whose
  // value depends on host scheduling inside the registration thread pool.
  std::string CounterFingerprint() const {
    const SkyBridge::Metrics& m = sky_->metrics();
    std::ostringstream out;
    out << "direct_calls=" << m.direct_calls->Value()
        << " long_calls=" << m.long_calls->Value()
        << " inplace_calls=" << m.inplace_calls->Value()
        << " rejected_calls=" << m.rejected_calls->Value()
        << " timeouts=" << m.timeouts->Value() << " eptp_misses=" << m.eptp_misses->Value()
        << " aborted_calls=" << m.aborted_calls->Value()
        << " gate_rejections=" << m.gate_rejections->Value()
        << " stale_slot_retries=" << m.stale_slot_retries->Value()
        << " revoked_rejections=" << m.revoked_rejections->Value()
        << " bindings_revoked=" << m.bindings_revoked->Value()
        << " batched_calls=" << m.batched_calls->Value()
        << " batch_flushes=" << m.batch_flushes->Value()
        << " batch_drain_rounds=" << m.drain_rounds->Value()
        << " rootkernel_aborts=" << kernel_->rootkernel()->aborts()
        << " kv_inserts=" << kv_->stats().inserts << " kv_queries=" << kv_->stats().queries
        << " sqlite_stale_retries=" << sqlite_stale_retries_
        << " slot_faults=" << m.slot_faults->Value()
        << " thrash_slot_faults=" << thrash_slot_faults_;
    for (const auto& [point, fires] : fires_) {
      out << " fires[" << point << "]=" << fires;
    }
    // Per-backend crossing totals: the mixed-backend population must replay
    // with the same number of crossings on every path.
    for (const CrossingBackendKind backend :
         {CrossingBackendKind::kEptp, CrossingBackendKind::kMpk,
          CrossingBackendKind::kSyscall}) {
      const std::string name = CrossingBackendName(backend);
      for (const char* leg : {"enters", "returns", "aborts"}) {
        out << " crossing[" << name << "." << leg << "]="
            << machine_->telemetry()
                   .GetCounter("skybridge.crossing." + name + "." + leg)
                   .Value();
      }
    }
    return out.str();
  }

  const uint64_t seed_;
  const uint64_t events_;

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<mk::Kernel> kernel_;
  std::unique_ptr<SkyBridge> sky_;
  std::unique_ptr<fsys::RamDisk> disk_;
  std::unique_ptr<fsys::Xv6Fs> fs_;
  std::unique_ptr<apps::KvPipeline> kv_;

  mk::Process* echo_server_ = nullptr;
  mk::Process* sys_server_ = nullptr;
  mk::Process* fs_server_ = nullptr;
  mk::Process* client_ = nullptr;
  mk::Thread* echo_thread_ = nullptr;
  mk::Thread* fs_thread_ = nullptr;
  mk::Thread* batch_thread_ = nullptr;
  ServerId echo_sid_ = 0;
  ServerId sys_sid_ = 0;
  ServerId fs_sid_ = 0;
  uint64_t sqlite_stale_retries_ = 0;
  uint64_t thrash_slot_faults_ = 0;

  std::map<std::string, uint64_t> fires_;
};

class StressFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    seed_ = EnvOrDefault("SB_STRESS_SEED", 0x5eedb41d6e55ULL);
    events_ = EnvOrDefault("SB_STRESS_EVENTS", 48);
    sb::fault::DisarmAll();
  }

  void TearDown() override {
    sb::fault::DisarmAll();
    sb::telemetry::SetTraceEnabled(false);
    // On failure, drop the replay artifact CI uploads (see ci.yml).
    const char* dir = std::getenv("SB_STRESS_ARTIFACT_DIR");
    if (HasFailure() && dir != nullptr && *dir != '\0' && !last_trace_.empty()) {
      const std::string path =
          std::string(dir) + "/stress_seed_" + std::to_string(seed_) + ".trace.json";
      std::ofstream out(path);
      out << last_trace_;
      std::ofstream counters(path + ".counters.txt");
      counters << last_counters_ << "\n";
    }
    sb::telemetry::TraceClear();
  }

  ScenarioResult RunScenario() {
    StressScenario scenario(seed_, events_);
    ScenarioResult result = scenario.Run();
    last_trace_ = result.trace_json;
    last_counters_ = result.counters;
    Report(seed_, result);
    return result;
  }

  // One diffable line per scenario (TESTING.md), printed and recorded as a
  // test property: seed, trace hash and counter fingerprint.
  void Report(uint64_t seed, const ScenarioResult& result) {
    std::ostringstream line;
    line << "seed=" << seed << " events=" << events_ << " trace_fnv1a=" << std::hex
         << Fnv1a64(result.trace_json) << std::dec << " "
         << result.counters;
    RecordProperty("stress_fingerprint_" + std::to_string(reports_++), line.str());
    std::printf("[stress fingerprint] %s\n", line.str().c_str());
  }

  uint64_t seed_ = 0;
  uint64_t events_ = 0;
  std::string last_trace_;
  std::string last_counters_;
  int reports_ = 0;
};

TEST_F(StressFaultTest, SeededRunSurvivesTheWholeCatalog) {
  const ScenarioResult result = RunScenario();
  // Every registered fault point fired at least once across the run.
  for (const char* point : kCatalog) {
    auto it = result.fires.find(point);
    ASSERT_NE(it, result.fires.end()) << point;
    EXPECT_GE(it->second, 1u) << point;
  }
  // The mixed-backend population actually crossed on all three paths.
  for (const char* backend : {"eptp", "mpk", "syscall"}) {
    auto it = result.crossing_enters.find(backend);
    ASSERT_NE(it, result.crossing_enters.end()) << backend;
    EXPECT_GE(it->second, 1u) << backend << " never crossed in the stress mix";
  }
  EXPECT_FALSE(result.trace_json.empty());
}

TEST_F(StressFaultTest, SameSeedReplaysByteIdenticalTrace) {
  const ScenarioResult first = RunScenario();
  const ScenarioResult second = RunScenario();
  // The trace ring is the flight recorder: byte-identical replay is what
  // makes a failing seed debuggable after the fact.
  EXPECT_EQ(first.trace_json, second.trace_json);
  EXPECT_EQ(first.counters, second.counters);
  EXPECT_EQ(first.fires, second.fires);
  EXPECT_EQ(first.crossing_enters, second.crossing_enters);
}

TEST_F(StressFaultTest, DifferentSeedsTakeDifferentPaths) {
  StressScenario a(seed_, events_);
  StressScenario b(seed_ + 1, events_);
  const ScenarioResult ra = a.Run();
  const ScenarioResult rb = b.Run();
  last_trace_ = ra.trace_json;
  last_counters_ = ra.counters;
  Report(seed_, ra);
  Report(seed_ + 1, rb);
  // Not a strict requirement of the fault model, but if two seeds ever
  // produce the same trace the randomization is broken.
  EXPECT_NE(ra.trace_json, rb.trace_json);
}

}  // namespace
}  // namespace skybridge
