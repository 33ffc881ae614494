// SkyBridge facade: wires the routing/gate/buffers modules together and
// drives the DirectServerCall pipeline. Registration (the kernel-mediated
// slow path) lives in registration.cc.

#include "src/skybridge/skybridge.h"

#include "src/base/faultpoint.h"
#include "src/base/logging.h"
#include "src/base/telemetry/span.h"
#include "src/base/telemetry/trace.h"
#include "src/mk/notification.h"
#include "src/vmm/rootkernel.h"

namespace skybridge {
namespace {

// Base backoff before a stale-slot slowpath re-arm; doubles per attempt.
constexpr uint64_t kStaleBackoffCycles = 32;

// Seed of the calling-key stream: fixed, so every run hands out the same keys.
constexpr uint64_t kKeySeed = 0x5eed;

using sb::telemetry::TraceEventType;

}  // namespace

SkyBridge::SkyBridge(mk::Kernel& kernel, SkyBridgeConfig config)
    : kernel_(&kernel),
      config_(config),
      key_rng_(kKeySeed),
      trampoline_(BuildTrampoline()),
      rewrite_cache_(config.rewrite_cache_entries),
      routes_(kernel, config_),
      buffers_(kernel, config_),
      gate_(kernel, config_),
      scan_pool_(config.scan_pool_threads) {
  SB_CHECK(kernel.rootkernel() != nullptr)
      << "SkyBridge requires a kernel booted with the Rootkernel";
  SB_CHECK(config_.eptp_capacity >= 2 && config_.eptp_capacity <= hw::kEptpListCapacity);
  SB_CHECK(config_.eptp_working_set >= 4 &&
           config_.eptp_working_set <= hw::kEptpListCapacity)
      << "eptp_working_set must fit the hardware EPTP list";
  sb::telemetry::Registry& reg = kernel.machine().telemetry();
  metrics_.direct_calls = &reg.GetCounter("skybridge.ipc.direct_calls");
  metrics_.long_calls = &reg.GetCounter("skybridge.ipc.long_calls");
  metrics_.inplace_calls = &reg.GetCounter("skybridge.ipc.inplace_calls");
  metrics_.inplace_replies = &reg.GetCounter("skybridge.ipc.inplace_replies");
  metrics_.rejected_calls = &reg.GetCounter("skybridge.ipc.rejected_calls");
  metrics_.timeouts = &reg.GetCounter("skybridge.ipc.timeouts");
  metrics_.eptp_misses = &reg.GetCounter("skybridge.ipc.eptp_misses");
  metrics_.rewritten_vmfuncs = &reg.GetCounter("skybridge.rewrite.vmfuncs");
  metrics_.processes_rewritten = &reg.GetCounter("skybridge.rewrite.processes");
  metrics_.lookup_hits = &reg.GetCounter("skybridge.lookup.hits");
  metrics_.lookup_misses = &reg.GetCounter("skybridge.lookup.misses");
  metrics_.scan_pages = &reg.GetCounter("skybridge.rewrite.scan_pages");
  metrics_.scan_threads = &reg.GetGauge("skybridge.rewrite.scan_threads");
  metrics_.aborted_calls = &reg.GetCounter("skybridge.ipc.aborted_calls");
  metrics_.gate_rejections = &reg.GetCounter("skybridge.ipc.gate_rejections");
  metrics_.stale_slot_retries = &reg.GetCounter("skybridge.ipc.stale_slot_retries");
  metrics_.revoked_rejections = &reg.GetCounter("skybridge.ipc.revoked_rejections");
  metrics_.bindings_revoked = &reg.GetCounter("skybridge.bindings.revoked");
  metrics_.slot_faults = &reg.GetCounter("skybridge.eptp.slot_faults");
  metrics_.migration_installs = &reg.GetCounter("skybridge.eptp.migration_installs");
  metrics_.batched_calls = &reg.GetCounter("skybridge.ipc.batched_calls");
  metrics_.batch_flushes = &reg.GetCounter("skybridge.ipc.batch_flushes");
  metrics_.drain_rounds = &reg.GetCounter("skybridge.ipc.drain_rounds");
  metrics_.ring_depth = &reg.GetGauge("skybridge.batch.ring_depth");
  metrics_.exec_faults = &reg.GetCounter("skybridge.registration.exec_faults");
  metrics_.lazy_rewrites = &reg.GetCounter("skybridge.registration.lazy_rewrites");
  metrics_.cache_hits = &reg.GetCounter("skybridge.registration.cache_hits");
  metrics_.cache_misses = &reg.GetCounter("skybridge.registration.cache_misses");
  metrics_.pages_rescanned = &reg.GetCounter("skybridge.registration.pages_rescanned");
  phase_exec_fault_ = &reg.GetHistogram("skybridge.phase.exec_fault");
  sb::telemetry::InstallTraceCrashDump();
  // Exec-violation exits (lazy registration's rewrite-on-first-execute) land
  // here via Rootkernel -> mk fault delivery.
  kernel.SetExecFaultHandler(
      [this](hw::Core& core, hw::Gpa gpa) { return HandleExecFault(core, gpa); });
  // Count the scheduler hook's eager EPTP re-installs on thread migration
  // (versus the lazy stale-slot fallback, counted by stale_slot_retries).
  kernel.SetEptpInstallHook(
      [this](hw::Core&, mk::Process*, mk::Kernel::EptpInstallReason reason) {
        if (reason == mk::Kernel::EptpInstallReason::kMigration) {
          metrics_.migration_installs->Add();
        }
      });
  // Dispatch installs go through the slot virtualizer (DESIGN.md section 15):
  // the kernel no longer rebuilds the EPTP list on context switch; the route
  // table makes the incoming process's working set resident instead.
  kernel.SetEptpInstaller(
      [this](hw::Core& core, mk::Process* process, mk::Kernel::EptpInstallReason reason) {
        return routes_.InstallProcessView(
            core, process, reason == mk::Kernel::EptpInstallReason::kMigration);
      });
  // Deferred revocation scrub: runs once per binding when its last in-flight
  // call drains. Zeroes the server-side calling-key slot and, for a binding
  // consolidated onto the server's shared EPT, restores the client's CR3
  // translation to identity so a stale VMFUNC can no longer reach the
  // server's page tables through it.
  routes_.SetRevokeScrub([this](Binding& binding) {
    if (binding.chain) {
      // Chain bindings share key slot 0 and carry no real key; zeroing it
      // would clobber a live client's key word.
      return;
    }
    ServerEntry& server = servers_[binding.server];
    const hw::GuestWalk table =
        server.process->address_space().WalkVa(mk::kCallingKeyTableVa);
    if (table.ok) {
      hw::HostPhysMem& mem = kernel_->machine().mem();
      mem.WriteU64(table.gpa + binding.key_slot * kKeySlotBytes, 0);
      mem.WriteU64(table.gpa + binding.key_slot * kKeySlotBytes + 8, 0);
    }
    if (config_.consolidate_bindings && binding.ept_id == server.shared_ept_id) {
      hw::Core& core = kernel_->machine().core(0);
      core.Vmcall(static_cast<uint64_t>(vmm::Hypercall::kAddCr3Remap), binding.ept_id,
                  binding.client->cr3(), binding.client->cr3());
    }
  });
  // One shared trampoline code frame for all processes.
  auto frame = kernel.guest_frames().Alloc(kernel.machine().mem());
  SB_CHECK(frame.ok());
  trampoline_gpa_ = *frame;
  kernel.machine().mem().Write(trampoline_gpa_, trampoline_.code);
  // The MPK variant (WRPKRU gates) shares one frame the same way; processes
  // map it at mk::kMpkTrampolineVa only when they touch an MPK binding.
  mpk_trampoline_ = BuildTrampoline(CrossingBackendKind::kMpk);
  auto mpk_frame = kernel.guest_frames().Alloc(kernel.machine().mem());
  SB_CHECK(mpk_frame.ok());
  mpk_trampoline_gpa_ = *mpk_frame;
  kernel.machine().mem().Write(mpk_trampoline_gpa_, mpk_trampoline_.code);
}

SkyBridge::~SkyBridge() {
  // The hooks capture `this`; never let them outlive the bridge.
  kernel_->SetEptpInstallHook(nullptr);
  kernel_->SetEptpInstaller(nullptr);
  kernel_->SetExecFaultHandler(nullptr);
}

sb::StatusOr<std::span<uint8_t>> SkyBridge::AcquireSendBuffer(mk::Thread* caller,
                                                              ServerId server_id) {
  if (server_id >= servers_.size()) {
    return sb::NotFound("no such server");
  }
  Binding* perm = routes_.Lookup(caller, server_id);
  if (perm == nullptr) {
    metrics_.rejected_calls->Add();
    return sb::PermissionDenied("client not registered to server");
  }
  if (perm->revoked) {
    metrics_.revoked_rejections->Add();
    metrics_.rejected_calls->Add();
    return sb::PermissionDenied("binding revoked");
  }
  SB_ASSIGN_OR_RETURN(const SliceRef slice, buffers_.AcquireSlice(*perm, caller));
  if (slice.host.empty()) {
    return sb::FailedPrecondition("binding has no shared buffer");
  }
  return slice.host;
}

sb::StatusOr<mk::Message> SkyBridge::DirectServerCall(mk::Thread* caller, ServerId server_id,
                                                      const mk::Message& msg,
                                                      mk::CostBreakdown* bd) {
  return CallCommon(caller, server_id, &msg, 0, 0, /*in_place=*/false, bd);
}

sb::StatusOr<mk::Message> SkyBridge::DirectServerCallInPlace(mk::Thread* caller,
                                                             ServerId server_id, uint64_t tag,
                                                             uint64_t len,
                                                             mk::CostBreakdown* bd) {
  return CallCommon(caller, server_id, nullptr, tag, len, /*in_place=*/true, bd);
}

sb::StatusOr<mk::Message> SkyBridge::CallCommon(mk::Thread* caller, ServerId server_id,
                                                const mk::Message* msg_in, uint64_t inplace_tag,
                                                uint64_t inplace_len, bool in_place,
                                                mk::CostBreakdown* bd) {
  if (server_id >= servers_.size()) {
    return sb::NotFound("no such server");
  }
  CallContext ctx;
  ctx.caller = caller;
  ctx.server_id = server_id;
  ctx.server = &servers_[server_id];
  ctx.proc = caller->process();
  ctx.core = &kernel_->machine().core(caller->core_id());
  ctx.in_place = in_place;
  // Phase attribution: always measured, even when the caller did not ask for
  // a breakdown — the per-phase histograms are fed from the deltas. The
  // local breakdown records only; it charges no cycles.
  ctx.pbd = bd != nullptr ? bd : &ctx.local_bd;
  ctx.bd_before = *ctx.pbd;
  ctx.start_cycles = ctx.core->cycles();
  ctx.call_id = sb::telemetry::TakeCallId();
  SB_TRACE_EVENT(TraceEventType::kCallStart, ctx.core->cycles(), ctx.core->id(),
                 ctx.proc->pid(), ctx.server->process->pid());

  SB_RETURN_IF_ERROR(ResolveRoute(ctx));
  SB_RETURN_IF_ERROR(PrepareRequest(ctx, msg_in, inplace_tag, inplace_len, in_place));
  SB_RETURN_IF_ERROR(BindOrigin(ctx));
  // Lazy registration: pages this call is about to execute take their
  // rewrite-on-first-execute fault here, before the crossing is armed.
  SB_RETURN_IF_ERROR(EnsureCallExecutable(ctx));
  // In-flight brackets every exit path below (guard destructs at return).
  InFlightGuard guard;
  guard.Begin(&routes_, ctx.perm, ctx.route);
  // Slot pins release before the in-flight guard ends the call (declaration
  // order), so a drain-triggered sweep sees the slots unpinned.
  SlotPinGuard pins;
  ctx.pins = &pins;
  SB_RETURN_IF_ERROR(ArmGate(ctx));
  SB_RETURN_IF_ERROR(gate_.EnterServer(ctx));
  return ServeAndReturn(ctx);
}

sb::Status SkyBridge::ResolveRoute(CallContext& ctx) {
  hw::Core& core = *ctx.core;
  // Authorization comes from the caller's own registration. The lookup is
  // O(1): per-thread last-route cache, then the (client, server) hash index.
  ctx.perm = routes_.Lookup(ctx.caller, ctx.server_id);
  if (ctx.perm == nullptr) {
    // Unregistered caller: the trampoline has no binding EPT to switch to;
    // the attempt is rejected and the kernel notified.
    metrics_.rejected_calls->Add();
    SB_TRACE_EVENT(TraceEventType::kRejected, core.cycles(), core.id(), ctx.proc->pid(),
                   ctx.server->process->pid());
    SB_LOG(kDebug) << "call rejected " << sb::kv("client", ctx.proc->pid())
                   << " " << sb::kv("server", ctx.server->process->pid())
                   << " " << sb::kv("reason", "unregistered");
    return sb::PermissionDenied("client not registered to server");
  }
  if (ctx.perm->revoked) {
    // Revoked bindings refuse new entries; in-flight calls already past this
    // gate drain normally (the sweep waits for them).
    metrics_.revoked_rejections->Add();
    metrics_.rejected_calls->Add();
    SB_TRACE_EVENT(TraceEventType::kRejected, core.cycles(), core.id(), ctx.proc->pid(),
                   ctx.server->process->pid());
    SB_LOG(kDebug) << "call rejected " << sb::kv("client", ctx.proc->pid())
                   << " " << sb::kv("server", ctx.server->process->pid())
                   << " " << sb::kv("reason", "revoked");
    return sb::PermissionDenied("binding revoked");
  }
  // The crossing backend is a property of the server's registration; every
  // stage past this point dispatches through it.
  ctx.backend = &gate_.backend(ctx.server->backend);
  return sb::OkStatus();
}

sb::Status SkyBridge::PrepareRequest(CallContext& ctx, const mk::Message* msg_in,
                                     uint64_t inplace_tag, uint64_t inplace_len,
                                     bool in_place) {
  // The caller's per-connection slice. Authorization (and the buffer) always
  // come from the caller's own binding, even when a nested call routes the
  // VMFUNC through a chain binding. Slice ownership comes from the binding's
  // free-list allocator: exhaustion (more live connections than slices) is an
  // explicit error, never a silently shared slice.
  auto slice_or = buffers_.AcquireSlice(*ctx.perm, ctx.caller);
  if (slice_or.ok()) {
    ctx.slice = *slice_or;
  } else if (slice_or.status().code() == sb::ErrorCode::kResourceExhausted) {
    metrics_.rejected_calls->Add();
    return slice_or.status();
  }
  // Other acquisition failures (bufferless binding) leave the slice empty:
  // register-size messages never touch it.
  if (in_place) {
    if (ctx.slice.host.empty()) {
      return sb::FailedPrecondition("binding has no shared buffer");
    }
    if (inplace_len > config_.shared_buffer_bytes) {
      metrics_.rejected_calls->Add();
      return sb::OutOfRange("message exceeds shared buffer");
    }
    // The request is a borrowed view of bytes the client already wrote into
    // its slice — the request copy is skipped.
    ctx.inplace_msg = mk::Message::Borrowed(
        inplace_tag, std::span<const uint8_t>(ctx.slice.host.data(), inplace_len));
    ctx.request = &ctx.inplace_msg;
  } else {
    ctx.request = msg_in;
  }
  return sb::OkStatus();
}

sb::Status SkyBridge::BindOrigin(CallContext& ctx) {
  hw::Core& core = *ctx.core;
  // Determine the live translation origin. A nested call (the caller is
  // itself a server currently entered via SkyBridge) keeps the original
  // client's CR3 live, so the EPT must map *that* CR3 to the target.
  ctx.origin = kernel_->current_process(core.id());
  if (ctx.origin != ctx.proc) {
    auto identity = kernel_->CurrentIdentity(core);
    if (identity.ok() && *identity == ctx.proc->pid()) {
      ctx.nested = true;  // Entered via a prior VMFUNC; origin's CR3 is live.
    } else {
      // Plain scheduling mismatch: dispatch the caller.
      SB_RETURN_IF_ERROR(kernel_->ContextSwitchTo(core, ctx.proc, ctx.pbd));
      ctx.origin = ctx.proc;
    }
  }
  ctx.route = ctx.perm;
  if (ctx.nested) {
    SB_ASSIGN_OR_RETURN(ctx.route, GetOrCreateChainBinding(core, ctx.origin, ctx.server_id));
  }
  return sb::OkStatus();
}

sb::Status SkyBridge::ArmGate(CallContext& ctx) {
  hw::Core& core = *ctx.core;
  // The EPTP-slot machinery below only applies to view-switch backends
  // (EPTP, MPK). The kernel-fastpath backend has no slots to arm: its legs
  // trap into the kernel and switch CR3 directly.
  const bool view_slots = ctx.backend->caps().uses_view_slots;
  if (view_slots) {
    // The EPT active at entry: we must return to it (the caller's own view
    // for a top-level call, the enclosing binding's EPT for a nested one).
    // Freed slots are replaced in place (kEptpListReplace) and never
    // reshuffle their neighbours, so the return slot is simply the slot we
    // entered on — always.
    const size_t entry_index = core.vmcs().active_index;
    ctx.entry_ept = routes_.EptIdAtSlot(core.id(), static_cast<uint32_t>(entry_index));
    ctx.return_index = entry_index;

    if (!ctx.route->installed) {
      // LRU-evicted earlier (or a fresh chain binding): install it.
      metrics_.eptp_misses->Add();
      SB_TRACE_EVENT(TraceEventType::kEptpMiss, core.cycles(), core.id(),
                     ctx.server->process->pid());
      SB_LOG(kDebug) << "eptp miss " << sb::kv("client", ctx.origin->pid())
                     << " " << sb::kv("server", ctx.server->process->pid());
      kernel_->SyscallEnter(core, ctx.pbd);
      SB_RETURN_IF_ERROR(routes_.Install(core, *ctx.route, ctx.entry_ept));
      kernel_->SyscallExit(core, ctx.pbd);
      SB_TRACE_EVENT(TraceEventType::kEptpReinstall, core.cycles(), core.id(),
                     ctx.server->process->pid(), 0);
    }
    routes_.Touch(*ctx.route);

    // Slot-fault slow path (DESIGN.md section 15): the binding is authorized
    // and installed, but its EPT is not resident in this core's bounded slot
    // working set. Evict the LRU victim, replace the freed slot in place, and
    // retry — hot bindings stay resident and never take this path.
    if (routes_.ResidentSlot(core.id(), ctx.route->ept_id) == kNoEptpSlot) {
      metrics_.slot_faults->Add();
      const uint64_t fault_start = core.cycles();
      kernel_->SyscallEnter(core, ctx.pbd);
      const auto slot_or =
          routes_.EnsureResident(core, ctx.route->ept_id, /*faultable=*/true);
      kernel_->SyscallExit(core, ctx.pbd);
      gate_.RecordSlotFault(core.cycles() - fault_start);
      if (!slot_or.ok()) {
        metrics_.rejected_calls->Add();
        return slot_or.status();
      }
      SB_TRACE_EVENT(TraceEventType::kSlotFault, core.cycles(), core.id(), ctx.route->ept_id,
                     *slot_or);
    } else {
      // Hit: refresh slot recency so the hot set survives faults elsewhere.
      (void)routes_.EnsureResident(core, ctx.route->ept_id, /*faultable=*/false);
    }
  }

  // ---- Client-side trampoline (view-switch backends only) ----
  if (ctx.backend->caps().uses_trampoline) {
    gate_.ChargeTrampolineLeg(core, ctx.pbd, ctx.backend->trampoline_va());
  }
  ctx.long_msg = ctx.in_place || ctx.request->size() > kernel_->profile().register_msg_capacity;
  if (ctx.long_msg) {
    metrics_.long_calls->Add();
    if (ctx.request->size() > config_.shared_buffer_bytes || ctx.slice.va == 0) {
      metrics_.rejected_calls->Add();
      return sb::OutOfRange("message exceeds shared buffer");
    }
    if (ctx.in_place) {
      // The client already built the payload in its slice: no request copy.
      metrics_.inplace_calls->Add();
    } else {
      const uint64_t before = core.cycles();
      SB_RETURN_IF_ERROR(core.WriteVirt(ctx.slice.va, ctx.request->payload()));
      ctx.pbd->copy += core.cycles() - before;
    }
  }
  // The client's per-call key; the server must echo it on return.
  ctx.client_key = Gate::PerCallKey(*ctx.caller, core.cycles());

  if (!view_slots) {
    return sb::OkStatus();
  }
  // The binding's residency is centrally maintained; no EPTP scan on the hit
  // path. A concurrent registration can still LRU-evict the binding between
  // lookup and this point (the pre_vmfunc fault injects exactly that):
  // detect the stale slot and re-arm via the slowpath with bounded
  // exponential backoff instead of dying on the old SB_CHECK.
  for (uint64_t attempt = 0;; ++attempt) {
    if (SB_FAULT_POINT(kFaultPreVmfunc)) {
      routes_.FaultEvict(core, *ctx.route);
    }
    if (ctx.route->installed) {
      const uint32_t slot = routes_.ResidentSlot(core.id(), ctx.route->ept_id);
      if (slot != kNoEptpSlot) {
        ctx.route_slot = slot;
        break;
      }
    }
    if (attempt >= config_.max_stale_slot_retries) {
      metrics_.rejected_calls->Add();
      SB_LOG(kDebug) << "stale-slot retries exhausted " << sb::kv("client", ctx.origin->pid())
                     << " " << sb::kv("server", ctx.server->process->pid());
      // The entry slot never moved (in-place replacement): restore it.
      core.vmcs().active_index = ctx.return_index;
      return sb::Unavailable("EPTP slot evicted repeatedly before VMFUNC");
    }
    metrics_.stale_slot_retries->Add();
    SB_TRACE_EVENT(TraceEventType::kStaleSlotRetry, core.cycles(), core.id(),
                   ctx.server->process->pid(), attempt);
    core.AdvanceCycles(kStaleBackoffCycles << attempt);
    kernel_->SyscallEnter(core, ctx.pbd);
    sb::Status rearm = routes_.Install(core, *ctx.route, ctx.entry_ept);
    if (rearm.ok()) {
      rearm = routes_.EnsureResident(core, ctx.route->ept_id, /*faultable=*/false).status();
    }
    kernel_->SyscallExit(core, ctx.pbd);
    SB_RETURN_IF_ERROR(rearm);
  }
  // Pin both gate slots for the life of the call: slot faults taken by other
  // calls (including nested ones on this core) may evict anything else.
  if (ctx.pins != nullptr) {
    ctx.pins->Pin(&routes_, core.id(), static_cast<uint32_t>(ctx.return_index),
                  ctx.route_slot);
  }
  return sb::OkStatus();
}

sb::StatusOr<mk::Message> SkyBridge::ServeAndReturn(CallContext& ctx) {
  hw::Core& core = *ctx.core;
  ServerEntry& server = *ctx.server;
  const mk::Message& msg = *ctx.request;

  // ---- Server side (server address space, same core, no kernel) ----
  // Calling-key check against the server's table (Section 4.4).
  if (!gate_.CheckCallingKey(ctx)) {
    metrics_.rejected_calls->Add();
    SB_TRACE_EVENT(TraceEventType::kRejected, core.cycles(), core.id(), ctx.proc->pid(),
                   server.process->pid());
    SB_LOG(kDebug) << "call rejected " << sb::kv("client", ctx.proc->pid())
                   << " " << sb::kv("server", server.process->pid())
                   << " " << sb::kv("reason", "calling_key");
    SB_RETURN_IF_ERROR(gate_.ReturnToEntry(ctx));
    return sb::PermissionDenied("calling key rejected");
  }

  // Install the per-connection server stack.
  const hw::Gva stack_va = mk::kServerStacksVa + ctx.server_id * 256 * kServerStackBytes +
                           ctx.perm->key_slot * kServerStackBytes;
  (void)core.TouchData(stack_va + kServerStackBytes - 64, 64, true);

  ctx.handler_start = core.cycles();
  SB_TRACE_EVENT(TraceEventType::kHandlerEnter, core.cycles(), core.id(),
                 server.process->pid());
  // Handler request view: in the default modes a long request is served as a
  // borrowed view over the slice — the handler reads the shared buffer, not
  // a copied-out vector. The legacy two-copy ablation keeps the owned copy.
  mk::Message borrowed_req;
  const mk::Message* handler_req = &msg;
  if (ctx.long_msg && !config_.legacy_two_copy && !ctx.slice.host.empty()) {
    borrowed_req = mk::Message::Borrowed(
        msg.tag, std::span<const uint8_t>(ctx.slice.host.data(), msg.size()));
    handler_req = &borrowed_req;
  }
  mk::CallEnv env{*kernel_, core, *server.process, *handler_req};
  if (!config_.legacy_two_copy && !ctx.slice.host.empty()) {
    // Offer the slice for in-place reply construction (zero-copy replies).
    env.reply_buffer = ctx.slice.host;
    env.reply_buffer_va = ctx.slice.va;
  }
  if (SB_FAULT_POINT(kFaultHandlerCrash)) {
    return gate_.AbortServerCrash(ctx);
  }
  mk::Message reply = server.handler(env);
  if (SB_FAULT_POINT(kFaultRevokeInflight)) {
    // Revocation racing a live call: this reply still returns; the EPTP
    // surgery defers to the drain and subsequent calls are refused.
    (void)RevokeBinding(ctx.proc, ctx.server_id);
  }
  ctx.timed_out = core.cycles() - ctx.handler_start > config_.timeout_cycles;
  SB_TRACE_EVENT(TraceEventType::kHandlerExit, core.cycles(), core.id(), server.process->pid(),
                 ctx.timed_out ? 1 : 0);

  const Gate::ReplyVerdict verdict = gate_.ClassifyReply(ctx, reply);
  if (verdict.corrupt && !ctx.timed_out) {
    metrics_.gate_rejections->Add();
    metrics_.rejected_calls->Add();
    SB_TRACE_EVENT(TraceEventType::kRejected, core.cycles(), core.id(), ctx.proc->pid(),
                   server.process->pid());
    SB_LOG(kDebug) << "reply rejected at the return gate " << sb::kv("client", ctx.proc->pid())
                   << " " << sb::kv("server", server.process->pid());
    SB_RETURN_IF_ERROR(gate_.ReturnToEntry(ctx));
    gate_.RecordPhases(ctx);
    return sb::OutOfRange("corrupt reply rejected at the return gate");
  }
  const bool long_reply =
      verdict.in_place || reply.size() > kernel_->profile().register_msg_capacity;
  if (long_reply && !ctx.timed_out) {
    if (reply.size() > config_.shared_buffer_bytes || ctx.slice.va == 0) {
      // Reject — but only after the return gate. Bailing out here would
      // leave the core in the server's EPT view with the client resumed.
      metrics_.gate_rejections->Add();
      metrics_.rejected_calls->Add();
      SB_TRACE_EVENT(TraceEventType::kRejected, core.cycles(), core.id(), ctx.proc->pid(),
                     server.process->pid());
      SB_RETURN_IF_ERROR(gate_.ReturnToEntry(ctx));
      gate_.RecordPhases(ctx);
      return sb::OutOfRange("reply exceeds shared buffer");
    }
    if (verdict.in_place) {
      metrics_.inplace_replies->Add();
    } else {
      const uint64_t before = core.cycles();
      SB_RETURN_IF_ERROR(core.WriteVirt(ctx.slice.va, reply.payload()));
      ctx.pbd->copy += core.cycles() - before;
    }
  }

  // ---- Return gate ----
  SB_RETURN_IF_ERROR(gate_.ReturnToEntry(ctx));
  gate_.VerifyReturnKey(ctx);
  if (long_reply && !ctx.timed_out) {
    if (config_.legacy_two_copy || ctx.slice.host.empty()) {
      // Two-copy ablation: charged read-out, and the returned message
      // carries the bytes read from the buffer — the simulated dataflow
      // matches the modeled cost.
      const uint64_t before = core.cycles();
      std::vector<uint8_t> out(reply.size());
      SB_RETURN_IF_ERROR(core.ReadVirt(ctx.slice.va, out));
      ctx.pbd->copy += core.cycles() - before;
      reply.view = std::span<const uint8_t>();
      reply.data = std::move(out);
    } else if (!verdict.in_place) {
      // One-copy: the reply bytes live in the slice after the server-side
      // write; hand the client a borrowed view instead of copying them out.
      const size_t n = reply.size();
      reply.data.clear();
      reply.view = std::span<const uint8_t>(ctx.slice.host.data(), n);
    }
    // verdict.in_place: the view already points into the slice — zero copies.
  }
  if (ctx.timed_out) {
    metrics_.timeouts->Add();
    SB_TRACE_EVENT(TraceEventType::kTimeout, core.cycles(), core.id(),
                   server.process->pid());
    SB_LOG(kDebug) << "call timeout " << sb::kv("client", ctx.proc->pid())
                   << " " << sb::kv("server", server.process->pid());
    gate_.RecordPhases(ctx);
    return sb::TimeoutError("server handler exceeded the SkyBridge timeout");
  }
  metrics_.direct_calls->Add();
  SB_TRACE_EVENT(TraceEventType::kCallEnd, core.cycles(), core.id(), ctx.proc->pid(),
                 server.process->pid());
  gate_.RecordPhases(ctx);
  return reply;
}

// ---- Batched + asynchronous IPC (DESIGN.md section 13) ----

sb::StatusOr<SkyBridge::BatchConn*> SkyBridge::GetBatchConn(mk::Thread* caller,
                                                            ServerId server_id) {
  if (server_id >= servers_.size()) {
    return sb::NotFound("no such server");
  }
  Binding* perm = routes_.Lookup(caller, server_id);
  if (perm == nullptr) {
    metrics_.rejected_calls->Add();
    return sb::PermissionDenied("client not registered to server");
  }
  if (perm->revoked) {
    metrics_.revoked_rejections->Add();
    metrics_.rejected_calls->Add();
    return sb::PermissionDenied("binding revoked");
  }
  if (BatchConn* conn = FindBatchConn(perm, caller->tid())) {
    return conn;
  }
  // First use of the batch API on this connection (slow path): acquire the
  // connection's slice and carve the ring from it.
  SB_ASSIGN_OR_RETURN(const SliceRef slice, buffers_.AcquireSlice(*perm, caller));
  SB_ASSIGN_OR_RETURN(const BatchRingView ring, buffers_.CarveRing(*perm, caller));
  std::lock_guard<std::mutex> lock(batch_mu_);
  BatchConn& conn = batch_conns_[{perm, caller->tid()}];
  if (conn.binding == nullptr) {
    conn.binding = perm;
    conn.slice = slice;
    conn.ring = ring;
    conn.busy.assign(ring.entries, 0);
    conn.notify = kernel_->CreateNotification();
  }
  return &conn;
}

SkyBridge::BatchConn* SkyBridge::FindBatchConn(const Binding* perm, int tid) {
  std::lock_guard<std::mutex> lock(batch_mu_);
  auto it = batch_conns_.find({perm, tid});
  return it != batch_conns_.end() ? &it->second : nullptr;
}

sb::StatusOr<uint64_t> SkyBridge::SubmitCall(mk::Thread* caller, ServerId server_id,
                                             const mk::Message& msg) {
  SB_ASSIGN_OR_RETURN(BatchConn * conn, GetBatchConn(caller, server_id));
  const BatchRingView& ring = conn->ring;
  if (msg.size() > ring.payload_cap) {
    metrics_.rejected_calls->Add();
    return sb::OutOfRange("message exceeds the ring's per-entry capacity");
  }
  const uint32_t slot = ring.Slot(conn->sq_tail);
  if (conn->busy[slot] != 0) {
    return sb::ResourceExhausted("batch ring full");
  }
  hw::Core& core = kernel_->machine().core(caller->core_id());
  const uint64_t token = conn->sq_tail++;
  const uint64_t call_id = sb::telemetry::TakeCallId();
  // Client-side submit: payload into the entry's span, then the descriptor
  // line, then the published tail. No crossing, no syscall.
  if (msg.size() > 0) {
    SB_RETURN_IF_ERROR(core.WriteVirt(ring.PayloadVa(token), msg.payload()));
  }
  const uint64_t desc = ring.DescOff(token);
  (void)core.TouchData(ring.va + desc, BatchRingView::kDescBytes, true);
  ring.StoreU64(desc + BatchRingView::kDescToken, token);
  ring.StoreU64(desc + BatchRingView::kDescTag, msg.tag);
  ring.StoreU64(desc + BatchRingView::kDescReplyTag, 0);
  ring.StoreU32(desc + BatchRingView::kDescReqLen, static_cast<uint32_t>(msg.size()));
  ring.StoreU32(desc + BatchRingView::kDescReplyLen, 0);
  ring.StoreU32(desc + BatchRingView::kDescStatus, 0);
  ring.StoreU64(desc + BatchRingView::kDescCallId, call_id);
  ring.StoreU64(BatchRingView::kSqTailOff, conn->sq_tail);
  conn->busy[slot] = 1;
  ++conn->binding->queued_submissions;
  metrics_.batched_calls->Add();
  SB_TRACE_EVENT(TraceEventType::kBatchEnqueue, core.cycles(), core.id(), call_id, token);
  return token;
}

sb::StatusOr<mk::Message> SkyBridge::PollCompletion(mk::Thread* caller, ServerId server_id,
                                                    uint64_t token) {
  if (server_id >= servers_.size()) {
    return sb::NotFound("no such server");
  }
  Binding* perm = routes_.Lookup(caller, server_id);
  if (perm == nullptr) {
    return sb::PermissionDenied("client not registered to server");
  }
  BatchConn* conn = FindBatchConn(perm, caller->tid());
  if (conn == nullptr) {
    return sb::NotFound("no batch connection for this caller");
  }
  const BatchRingView& ring = conn->ring;
  if (token >= conn->sq_tail) {
    return sb::InvalidArgument("token was never submitted");
  }
  const uint64_t desc = ring.DescOff(token);
  hw::Core& core = kernel_->machine().core(caller->core_id());
  (void)core.TouchData(ring.va + desc, BatchRingView::kDescBytes, false);
  if (ring.LoadU64(desc + BatchRingView::kDescToken) != token) {
    return sb::InvalidArgument("completion already consumed (slot recycled)");
  }
  const uint32_t status_word = ring.LoadU32(desc + BatchRingView::kDescStatus);
  if (status_word == 0) {
    return sb::Unavailable("completion pending; flush the batch");
  }
  const uint64_t reply_tag = ring.LoadU64(desc + BatchRingView::kDescReplyTag);
  const uint32_t reply_len = ring.LoadU32(desc + BatchRingView::kDescReplyLen);
  SB_TRACE_EVENT(TraceEventType::kBatchPoll, core.cycles(), core.id(),
                 ring.LoadU64(desc + BatchRingView::kDescCallId), token);
  // Reap: clobber the descriptor's token (a second poll of the same token
  // is an explicit error, not a stale replay) and free the slot.
  ring.StoreU64(desc + BatchRingView::kDescToken, ~0ULL);
  conn->busy[ring.Slot(token)] = 0;
  const auto code = static_cast<sb::ErrorCode>(status_word - 1);
  if (code != sb::ErrorCode::kOk) {
    return sb::Status(code, "batched call failed");
  }
  // Like the in-place API, the reply is a borrowed view of the entry's
  // payload span — valid until the slot is resubmitted.
  return mk::Message::Borrowed(
      reply_tag, std::span<const uint8_t>(ring.Payload(token).data(), reply_len));
}

void SkyBridge::FailPendingClientSide(BatchConn& conn, sb::ErrorCode code) {
  const BatchRingView& ring = conn.ring;
  const uint32_t word = 1u + static_cast<uint32_t>(code);
  uint64_t head = ring.LoadU64(BatchRingView::kSqHeadOff);
  while (head != conn.sq_tail) {
    const uint64_t desc = ring.DescOff(head);
    ring.StoreU64(desc + BatchRingView::kDescReplyTag, 0);
    ring.StoreU32(desc + BatchRingView::kDescReplyLen, 0);
    ring.StoreU32(desc + BatchRingView::kDescStatus, word);
    ring.StoreU64(BatchRingView::kSqHeadOff, ++head);
    --conn.binding->queued_submissions;
  }
}

sb::Status SkyBridge::FlushBatch(mk::Thread* caller, ServerId server_id,
                                 mk::CostBreakdown* bd) {
  if (server_id >= servers_.size()) {
    return sb::NotFound("no such server");
  }
  Binding* perm = routes_.Lookup(caller, server_id);
  if (perm == nullptr) {
    metrics_.rejected_calls->Add();
    return sb::PermissionDenied("client not registered to server");
  }
  BatchConn* conn = FindBatchConn(perm, caller->tid());
  if (conn == nullptr) {
    return sb::OkStatus();  // Nothing was ever submitted.
  }
  const BatchRingView& ring = conn->ring;
  const uint64_t pending = conn->sq_tail - ring.LoadU64(BatchRingView::kSqHeadOff);
  if (pending == 0) {
    return sb::OkStatus();
  }
  hw::Core& core = kernel_->machine().core(caller->core_id());
  if (perm->revoked) {
    // Revoked binding: no crossing. The pending entries complete client-side
    // with PermissionDenied so pollers see a per-entry verdict, not a hang.
    metrics_.revoked_rejections->Add();
    metrics_.rejected_calls->Add();
    FailPendingClientSide(*conn, sb::ErrorCode::kPermissionDenied);
    if (conn->wait_armed) {
      conn->wait_armed = false;
      (void)conn->notify->Signal(core, 1);
    }
    return sb::OkStatus();
  }
  metrics_.ring_depth->SetMax(pending);

  CallContext ctx;
  ctx.caller = caller;
  ctx.server_id = server_id;
  ctx.server = &servers_[server_id];
  ctx.proc = caller->process();
  ctx.core = &core;
  ctx.pbd = bd != nullptr ? bd : &ctx.local_bd;
  ctx.bd_before = *ctx.pbd;
  ctx.start_cycles = core.cycles();
  ctx.call_id = sb::telemetry::TakeCallId();
  SB_TRACE_EVENT(TraceEventType::kCallStart, core.cycles(), core.id(), ctx.proc->pid(),
                 ctx.server->process->pid());
  SB_TRACE_EVENT(TraceEventType::kBatchFlushStart, core.cycles(), core.id(), ctx.call_id,
                 pending);
  SB_RETURN_IF_ERROR(ResolveRoute(ctx));
  ctx.slice = conn->slice;
  // The flush itself carries no payload — the requests are already in the
  // ring. An empty request keeps ArmGate on the register-size path.
  const mk::Message flush_msg;
  ctx.request = &flush_msg;
  SB_RETURN_IF_ERROR(BindOrigin(ctx));
  // Lazy registration: the drain executes the client's submit site and the
  // server's handler entry — fault their pages in before crossing.
  SB_RETURN_IF_ERROR(EnsureCallExecutable(ctx));
  InFlightGuard guard;
  guard.Begin(&routes_, ctx.perm, ctx.route);
  SlotPinGuard pins;
  ctx.pins = &pins;
  SB_RETURN_IF_ERROR(ArmGate(ctx));
  SB_RETURN_IF_ERROR(gate_.EnterServer(ctx));

  // ---- Server side: the batch-dispatch leg ----
  if (!gate_.CheckCallingKey(ctx)) {
    metrics_.rejected_calls->Add();
    SB_RETURN_IF_ERROR(gate_.ReturnToEntry(ctx));
    return sb::PermissionDenied("calling key rejected");
  }
  const Gate::DrainOutcome outcome = gate_.DrainBatch(ctx, ring, batch_refill_);
  // Publication rule: a flush is counted after its drain rounds here and
  // after its submissions (SubmitCall), so a reader that loads
  // batch_flushes first never sees more flushes than rounds or submissions.
  metrics_.drain_rounds->Add(outcome.rounds);
  metrics_.batch_flushes->Add();
  perm->queued_submissions -= outcome.completed;
  if (SB_FAULT_POINT(kFaultRevokeInflight)) {
    // Revocation racing a live flush: this crossing's completions stand;
    // subsequent submits and flushes are refused.
    (void)RevokeBinding(ctx.proc, ctx.server_id);
  }
  if (outcome.crashed) {
    // Handler died mid-drain. Entries it completed (including the Aborted
    // one) are posted; untouched entries stay pending for the next flush.
    SB_TRACE_EVENT(TraceEventType::kBatchFlushEnd, core.cycles(), core.id(), ctx.call_id,
                   outcome.completed);
    const sb::Status abort = gate_.AbortServerCrash(ctx);
    if (conn->wait_armed && outcome.completed > 0) {
      conn->wait_armed = false;
      (void)conn->notify->Signal(core, 1);
    }
    return abort;
  }
  SB_RETURN_IF_ERROR(gate_.ReturnToEntry(ctx));
  gate_.VerifyReturnKey(ctx);
  gate_.RecordPhases(ctx);
  SB_TRACE_EVENT(TraceEventType::kBatchFlushEnd, core.cycles(), core.id(), ctx.call_id,
                 outcome.completed);
  SB_TRACE_EVENT(TraceEventType::kCallEnd, core.cycles(), core.id(), ctx.proc->pid(),
                 ctx.server->process->pid());
  if (conn->wait_armed && outcome.completed > 0) {
    // Completion notification: one Signal per crossing, only when a waiter
    // parked — the poll-only fast path never pays the syscall.
    conn->wait_armed = false;
    (void)conn->notify->Signal(core, 1);
  }
  return sb::OkStatus();
}

sb::StatusOr<mk::Message> SkyBridge::WaitCompletion(mk::Thread* caller, ServerId server_id,
                                                    uint64_t token, mk::CostBreakdown* bd) {
  // Progress argument: every iteration either resolves the poll, flushes
  // (posting >= 1 completion, or Aborted with the crashed entry posted), or
  // parks on the notification; the bound only guards against a pathological
  // fault schedule crashing every crossing.
  for (int attempt = 0; attempt < 1024; ++attempt) {
    auto reply = PollCompletion(caller, server_id, token);
    if (reply.ok() || reply.status().code() != sb::ErrorCode::kUnavailable) {
      return reply;
    }
    const sb::Status flushed = FlushBatch(caller, server_id, bd);
    if (flushed.code() == sb::ErrorCode::kAborted) {
      continue;  // Crash mid-drain: re-poll; our entry may need another flush.
    }
    SB_RETURN_IF_ERROR(flushed);
    auto after = PollCompletion(caller, server_id, token);
    if (after.ok() || after.status().code() != sb::ErrorCode::kUnavailable) {
      return after;
    }
    // Still pending with nothing left to flush here: park on the kernel
    // notification path until a concurrent flush posts completions.
    Binding* perm = routes_.Lookup(caller, server_id);
    BatchConn* conn = perm != nullptr ? FindBatchConn(perm, caller->tid()) : nullptr;
    if (conn == nullptr) {
      return sb::Internal("batch connection vanished under a waiter");
    }
    conn->wait_armed = true;
    hw::Core& core = kernel_->machine().core(caller->core_id());
    auto badges = conn->notify->Wait(core);
    if (!badges.ok()) {
      conn->wait_armed = false;
      return sb::Unavailable("completion pending and no flush in flight");
    }
  }
  return sb::Internal("WaitCompletion did not converge");
}

sb::StatusOr<std::vector<SkyBridge::BatchEntryResult>> SkyBridge::CallBatch(
    mk::Thread* caller, ServerId server_id, std::span<const mk::Message> msgs,
    mk::CostBreakdown* bd) {
  std::vector<BatchEntryResult> out(msgs.size());
  size_t i = 0;
  while (i < msgs.size()) {
    // Submit until the ring fills (or input runs out), then flush the chunk.
    std::vector<std::pair<size_t, uint64_t>> chunk;  // msg index -> token
    while (i < msgs.size()) {
      auto token = SubmitCall(caller, server_id, msgs[i]);
      if (!token.ok()) {
        if (token.status().code() == sb::ErrorCode::kResourceExhausted && !chunk.empty()) {
          break;  // Ring full: flush what we have, resubmit this one after.
        }
        out[i].status = token.status();  // Per-entry submit failure.
        ++i;
        continue;
      }
      chunk.emplace_back(i, *token);
      ++i;
    }
    if (chunk.empty()) {
      continue;
    }
    sb::Status flushed = FlushBatch(caller, server_id, bd);
    for (auto& [idx, token] : chunk) {
      for (int attempt = 0;; ++attempt) {
        auto reply = PollCompletion(caller, server_id, token);
        if (reply.ok()) {
          // Own the reply: the next chunk recycles the slot it borrows from.
          out[idx].status = sb::OkStatus();
          out[idx].reply = reply->ToOwned();
          break;
        }
        if (reply.status().code() != sb::ErrorCode::kUnavailable) {
          out[idx].status = reply.status();
          break;
        }
        // Untouched by a crashed crossing: flush again.
        flushed = FlushBatch(caller, server_id, bd);
        if (!flushed.ok() && flushed.code() != sb::ErrorCode::kAborted) {
          out[idx].status = flushed;
          break;
        }
        if (attempt >= 64) {
          out[idx].status = sb::Internal("batched entry never completed");
          break;
        }
      }
    }
  }
  return out;
}

sb::Status SkyBridge::RevokeBinding(mk::Process* client, ServerId server_id) {
  if (server_id >= servers_.size()) {
    return sb::NotFound("no such server");
  }
  return routes_.Revoke(client, server_id);
}

sb::Status SkyBridge::RevokeServer(ServerId server_id) {
  if (server_id >= servers_.size()) {
    return sb::NotFound("no such server");
  }
  // Revoke every live client binding; each drains independently. Under
  // consolidation they all share one EPT, and the last sibling to drain
  // drops its residency on every core (see RouteTable::SweepRevoked).
  for (mk::Process* client : routes_.ClientsOfServer(server_id)) {
    SB_RETURN_IF_ERROR(routes_.Revoke(client, server_id));
  }
  return sb::OkStatus();
}

sb::Status SkyBridge::CheckInvariants() const {
  SB_RETURN_IF_ERROR(routes_.CheckInvariants());
  // The Rootkernel's per-core EPTP mirrors must agree with the VMCS state
  // the library's installs produced.
  return kernel_->rootkernel()->CheckInvariants();
}

uint64_t SkyBridge::InFlightCalls() const { return routes_.InFlightCalls(); }

sb::StatusOr<size_t> SkyBridge::InstalledBindings(mk::Process* client) const {
  return routes_.InstalledBindings(client);
}

uint32_t SkyBridge::ResidentBindingSlot(mk::Process* client, ServerId server_id,
                                        uint32_t core_id) const {
  const Binding* binding = routes_.Find(client, server_id);
  if (binding == nullptr) {
    return kNoEptpSlot;
  }
  return routes_.ResidentSlot(static_cast<int>(core_id), binding->ept_id);
}

}  // namespace skybridge
