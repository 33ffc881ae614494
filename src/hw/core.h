// A simulated CPU core.
//
// The core owns its private caches and TLBs, a cycle counter (its virtual
// clock), the CR3 register and a VMCS. All guest memory accesses go through
// the full two-dimensional translation: guest page-table fetches are
// themselves translated by the active EPT — so remapping the GPA of a CR3
// page in a derived EPT redirects the entire virtual address space, exactly
// as on VT-x hardware. Every table fetch and data access is charged through
// the cache hierarchy, which is what produces the direct and indirect IPC
// costs of Section 2.

#ifndef SRC_HW_CORE_H_
#define SRC_HW_CORE_H_

#include <cstdint>
#include <memory>
#include <span>

#include "src/base/status.h"
#include "src/hw/addr.h"
#include "src/hw/cache.h"
#include "src/hw/cost_model.h"
#include "src/hw/pmu.h"
#include "src/hw/tlb.h"
#include "src/hw/vmcs.h"

namespace hw {

class Machine;
class Ept;

enum class CpuMode : uint8_t { kUser, kKernel };

class Core {
 public:
  Core(int id, Machine* machine);

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  int id() const { return id_; }

  // ---- Virtual clock ----
  uint64_t cycles() const { return cycles_; }
  void AdvanceCycles(uint64_t n) { cycles_ += n; }
  // Fast-forwards the clock to `t` (used by the virtual-time executor when a
  // thread blocks on another core's event). No-op if already past.
  void SyncClockTo(uint64_t t) {
    if (t > cycles_) {
      cycles_ = t;
    }
  }

  // ---- Privilege / virtualization mode ----
  CpuMode mode() const { return mode_; }
  void SetMode(CpuMode mode) { mode_ = mode; }
  bool in_nonroot() const { return nonroot_; }

  // Downgrades the core to non-root mode with `base_ept` active in EPTP slot
  // 0 (the Rootkernel's dynamic self-virtualization).
  void EnterNonRoot(Ept* base_ept, uint16_t vpid);
  // For tests: back to bare metal.
  void LeaveNonRoot();

  Vmcs& vmcs() { return vmcs_; }
  const Vmcs& vmcs() const { return vmcs_; }
  // EP4TA tag of the active translation context (0 when native).
  Hpa ep4ta() const;

  // ---- Control registers ----
  // MOV CR3: charges the architectural cost, flushes non-global TLB entries
  // for the new PCID unless `noflush` (CR3 bit 63) is set.
  void WriteCr3(Gpa root, uint16_t pcid, bool noflush);
  Gpa cr3() const { return cr3_; }
  uint16_t pcid() const { return pcid_; }

  // ---- VMFUNC (leaf 0: EPTP switching) ----
  // Invalid leaves/indices cause a VM exit to the Rootkernel.
  sb::Status Vmfunc(uint32_t leaf, uint32_t index);

  // ---- WRPKRU (protection-key rights register write) ----
  // Unprivileged: any user-mode code can rewrite PKRU, which is exactly the
  // weaker isolation envelope the MPK crossing backend models. Charges the
  // architectural cost and records the new rights register.
  void Wrpkru(uint32_t pkru);
  uint32_t pkru() const { return pkru_; }

  // ---- VMCALL (hypercall to the Rootkernel) ----
  uint64_t Vmcall(uint64_t code, uint64_t arg0 = 0, uint64_t arg1 = 0, uint64_t arg2 = 0);

  // CPUID always exits in VMX non-root mode; the Rootkernel handles it.
  void Cpuid();

  // ---- Virtual memory access (charged) ----
  sb::Status ReadVirt(Gva va, std::span<uint8_t> out);
  sb::Status WriteVirt(Gva va, std::span<const uint8_t> in);
  sb::StatusOr<uint64_t> ReadVirtU64(Gva va);
  sb::Status WriteVirtU64(Gva va, uint64_t value);

  // Bulk copy between two virtual ranges (rep movsb-style). Translates once
  // per page chunk on each side, then charges the streaming bulk cost for
  // every source and destination cache line. Transfers shorter than
  // CostModel::bulk_min_bytes degenerate to the plain per-line charging, so
  // small copies cost the same as a ReadVirt+WriteVirt pair minus the bounce
  // buffer.
  sb::Status CopyVirt(Gva dst_va, Gva src_va, uint64_t len);

  // One scatter-gather segment for CopyVirtSg.
  struct CopySeg {
    Gva dst;
    Gva src;
    uint64_t len;
  };

  // Scatter-gather bulk copy: all segments share a single bulk_startup (one
  // rep movsb setup amortized over the descriptor list), and streaming
  // charging applies when the *total* length crosses the threshold.
  sb::Status CopyVirtSg(std::span<const CopySeg> segs);

  // Touches [va, va+len) through the data path without moving bytes (models a
  // workload's footprint). FetchCode does the same through the i-side.
  sb::Status TouchData(Gva va, uint64_t len, bool write);
  sb::Status FetchCode(Gva va, uint64_t len);

  // Full charged translation of one address.
  sb::StatusOr<Hpa> Translate(Gva va, bool ifetch, bool write);

  // ---- Component access ----
  PmuCounters& pmu() { return pmu_; }
  const PmuCounters& pmu() const { return pmu_; }
  Tlb& itlb() { return itlb_; }
  Tlb& dtlb() { return dtlb_; }
  Cache& l1i() { return l1i_; }
  Cache& l1d() { return l1d_; }
  Cache& l2() { return l2_; }
  Machine& machine() { return *machine_; }
  const CostModel& costs() const;

  // Charges one data-side (or instruction-side) access to host-physical
  // address `hpa` through L1/L2/L3/DRAM and returns the latency.
  uint64_t ChargeAccess(Hpa hpa, bool ifetch);

 private:
  sb::StatusOr<Hpa> EptTranslateCharged(Gpa gpa, uint8_t need);

  // Updates cache state and PMU counters for one line access and returns the
  // hierarchy latency WITHOUT advancing the clock — the caller decides how
  // much of that latency is exposed (all of it for demand accesses, an
  // overlapped fraction for streaming bulk transfers).
  uint64_t ProbeAccess(Hpa hpa, bool ifetch);

  // Charges every cache line of [hpa, hpa + len): demand per-line cost when
  // `streaming` is false (the seed ReadVirt/WriteVirt behaviour), amortized
  // bulk_line cost with overlapped misses when true.
  void ChargeLines(Hpa hpa, uint64_t len, bool streaming);

  int id_;
  Machine* machine_;
  uint64_t cycles_ = 0;
  CpuMode mode_ = CpuMode::kKernel;
  bool nonroot_ = false;
  Gpa cr3_ = 0;
  uint16_t pcid_ = 0;
  uint32_t pkru_ = 0;
  Vmcs vmcs_;
  Cache l1i_;
  Cache l1d_;
  Cache l2_;
  Tlb itlb_;
  Tlb dtlb_;
  PmuCounters pmu_;
};

}  // namespace hw

#endif  // SRC_HW_CORE_H_
