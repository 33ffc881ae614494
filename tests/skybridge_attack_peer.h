// Adversarial callers for the security tests: a friend of the facade that
// skips the trampoline or forges credentials. Production code has no entry.

#ifndef TESTS_SKYBRIDGE_ATTACK_PEER_H_
#define TESTS_SKYBRIDGE_ATTACK_PEER_H_

#include <cstdint>

#include "src/base/status.h"
#include "src/skybridge/skybridge.h"

namespace skybridge {

class SkyBridgeAttackPeer {
 public:
  // A caller presenting `forged_key` instead of its binding's calling key;
  // returns the error the legitimate path produces.
  static sb::StatusOr<mk::Message> CallWithForgedKey(SkyBridge& sky, mk::Thread* caller,
                                                     ServerId server_id, const mk::Message& msg,
                                                     uint64_t forged_key) {
    if (server_id >= sky.servers_.size()) {
      return sb::NotFound("no such server");
    }
    Binding* binding = sky.routes_.Find(caller->process(), server_id);
    if (binding == nullptr) {
      sky.metrics_.rejected_calls->Add();
      return sb::PermissionDenied("client not registered to server");
    }
    const uint64_t real_key = binding->server_key;
    binding->server_key = forged_key;
    auto result = sky.DirectServerCall(caller, server_id, msg);
    binding->server_key = real_key;
    return result;
  }

  // A client reading server memory at `va` without authorization: it forges
  // the crossing primitive by hand (no trampoline, no calling key). On MPK
  // this SUCCEEDS and returns the stolen word — WRPKRU is unprivileged, the
  // backend's documented weaker envelope (DESIGN.md section 16). On EPTP the
  // hypervisor validates the view switch and on syscall the kernel validates
  // the capability, so both return PermissionDenied before the dereference.
  static sb::StatusOr<uint64_t> ProbeCrossDomainRead(SkyBridge& sky, mk::Thread* caller,
                                                     ServerId server_id, hw::Gva va) {
    if (server_id >= sky.servers_.size()) {
      return sb::NotFound("no such server");
    }
    ServerEntry& server = sky.servers_[server_id];
    hw::Machine& machine = sky.kernel_->machine();
    hw::Core& core = machine.core(caller->core_id());
    if (sky.gate_.backend(server.backend).caps().isolates_memory) {
      sky.metrics_.rejected_calls->Add();
      return sb::PermissionDenied("cross-domain read blocked by the crossing backend");
    }
    const uint32_t saved_pkru = core.pkru();
    core.Wrpkru(0);  // Grant every protection key.
    const hw::GuestWalk walk = server.process->address_space().WalkVa(va);
    sb::StatusOr<uint64_t> stolen =
        walk.ok ? sb::StatusOr<uint64_t>(machine.mem().ReadU64(walk.gpa))
                : sb::StatusOr<uint64_t>(sb::InvalidArgument("server va unmapped"));
    core.Wrpkru(saved_pkru);
    machine.telemetry().GetCounter("skybridge.crossing.mpk.cross_domain_probes").Add();
    return stolen;
  }
};

}  // namespace skybridge

#endif  // TESTS_SKYBRIDGE_ATTACK_PEER_H_
