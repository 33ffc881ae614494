// Staged registration pipeline tests (DESIGN.md section 17): the
// content-hashed rewrite cache (fork determinism, cross-backend isolation,
// bounded eviction), dirty-page-only invalidation on UpdateProcessCode,
// rewrite-on-first-execute in lazy mode, the kFaultExecScan recovery
// contract, and the SB_* environment spellings the CI matrix steers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "src/base/faultpoint.h"
#include "src/skybridge/skybridge.h"
#include "src/vmm/rootkernel.h"
#include "src/x86/rewrite_cache.h"
#include "src/x86/scanner.h"

namespace skybridge {
namespace {

using mk::CallEnv;
using mk::Handler;
using mk::Message;
using sb::kGiB;
using sb::kPageSize;

Handler EchoHandler() {
  return [](CallEnv& env) { return env.request; };
}

// A `pages`-page NOP sled ending in RET. Every byte is a valid one-byte
// instruction, so the linear scan decodes cleanly at any offset.
std::vector<uint8_t> NopImage(size_t pages) {
  std::vector<uint8_t> image(pages * kPageSize, 0x90);
  image.back() = 0xc3;
  return image;
}

// Plants `mov eax, imm32` whose immediate embeds the 3-byte gate pattern —
// the SeCage-style overlapping pattern that forces a window relocation (and
// therefore snippets in the rewrite sub-window) rather than a NOP-out.
void PlantEmbedded(std::vector<uint8_t>& image, size_t offset, const uint8_t pattern[3]) {
  image[offset] = 0xb8;
  image[offset + 1] = pattern[0];
  image[offset + 2] = pattern[1];
  image[offset + 3] = pattern[2];
  image[offset + 4] = 0x00;
}

// Each test drives one registration mode explicitly; start from eager so the
// SB_REGISTRATION_MODE matrix cannot change what a test asserts.
SkyBridgeConfig EagerConfig() {
  SkyBridgeConfig config;
  config.registration_mode = RegistrationMode::kEager;
  return config;
}

class RegistrationPipelineTest : public ::testing::Test {
 protected:
  void Boot(SkyBridgeConfig config = EagerConfig()) {
    // The cache/lazy machinery under test lives on the view-slot
    // path; pin EPTP as the default backend against the SB_CROSSING_BACKEND
    // matrix (individual servers still pin their own backend).
    config.crossing_backend = CrossingBackendKind::kEptp;
    sky_.reset();
    kernel_.reset();
    machine_.reset();
    hw::MachineConfig mc;
    mc.num_cores = 4;
    mc.ram_bytes = 4 * kGiB;
    machine_ = std::make_unique<hw::Machine>(mc);
    kernel_ = std::make_unique<mk::Kernel>(*machine_, mk::Sel4Profile());
    ASSERT_TRUE(kernel_->Boot().ok());
    sky_ = std::make_unique<SkyBridge>(*kernel_, config);
  }

  // True iff the EPT allows execution of `process` code page `page`.
  bool PageExecutable(mk::Process* process, size_t page) {
    const hw::GuestWalk walk = process->address_space().WalkVa(mk::kCodeVa);
    SB_CHECK(walk.ok);
    hw::Ept* ept = kernel_->rootkernel()->ept(process->ept_id());
    SB_CHECK(ept != nullptr);
    return ept->Walk(walk.gpa + page * kPageSize, hw::kEptExec).ok;
  }

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<mk::Kernel> kernel_;
  std::unique_ptr<SkyBridge> sky_;
};

// Satellite: UpdateProcessCode must invalidate (and rescan) only the pages
// whose content hash actually changed. This pins the rescan count — a
// regression to whole-image invalidation fails the exact-delta checks.
TEST_F(RegistrationPipelineTest, UpdateProcessCodeRescansOnlyDirtyPages) {
  Boot();
  std::vector<uint8_t> image = NopImage(4);
  PlantEmbedded(image, kPageSize + 2048, x86::kVmfuncBytes);
  PlantEmbedded(image, 3 * kPageSize + 2048, x86::kVmfuncBytes);
  auto* server = kernel_->CreateProcessWithImage("server", image).value();
  const ServerId sid =
      sky_->RegisterServer(server, 4, EchoHandler(), CrossingBackendKind::kEptp).value();
  EXPECT_EQ(sky_->metrics().pages_rescanned->Value(), 4u);
  EXPECT_EQ(sky_->metrics().cache_misses->Value(), 4u);
  EXPECT_EQ(sky_->metrics().cache_hits->Value(), 0u);
  EXPECT_TRUE(x86::FindVmfuncBytes(server->code_image()).empty());

  // Dirty exactly one byte, mid-page so no neighbour's +-64 B hash context
  // sees it. Pages 0, 1 and 3 replay from the cache; only page 2 rescans.
  std::vector<uint8_t> updated = image;
  updated[2 * kPageSize + 2048] = 0xf8;  // NOP -> CLC, still one decodable byte.
  ASSERT_TRUE(sky_->UpdateProcessCode(server, updated).ok());
  EXPECT_EQ(sky_->metrics().pages_rescanned->Value(), 5u);
  EXPECT_EQ(sky_->metrics().cache_misses->Value(), 5u);
  EXPECT_EQ(sky_->metrics().cache_hits->Value(), 3u);
  EXPECT_TRUE(x86::FindVmfuncBytes(server->code_image()).empty());
  EXPECT_TRUE(server->code_rewritten());

  // The updated image still serves calls.
  auto* client = kernel_->CreateProcess("client").value();
  ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
  mk::Thread* thread = client->AddThread(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());
  EXPECT_TRUE(sky_->DirectServerCall(thread, sid, Message(7)).ok());
}

// Forked workers carry byte-identical images: the second registration must
// replay every page from the cache and produce a byte-identical rewrite.
TEST_F(RegistrationPipelineTest, IdenticalForkReplaysFromTheCacheDeterministically) {
  Boot();
  std::vector<uint8_t> image = NopImage(4);
  PlantEmbedded(image, kPageSize + 2048, x86::kVmfuncBytes);
  PlantEmbedded(image, 3 * kPageSize + 2048, x86::kVmfuncBytes);
  auto* a = kernel_->CreateProcessWithImage("fork-a", image).value();
  const ServerId sid_a =
      sky_->RegisterServer(a, 4, EchoHandler(), CrossingBackendKind::kEptp).value();
  EXPECT_EQ(sky_->metrics().cache_misses->Value(), 4u);
  EXPECT_EQ(sky_->metrics().pages_rescanned->Value(), 4u);

  auto* b = kernel_->CreateProcessWithImage("fork-b", image).value();
  const ServerId sid_b =
      sky_->RegisterServer(b, 4, EchoHandler(), CrossingBackendKind::kEptp).value();
  // 100% hit rate: no page of the fork rescanned.
  EXPECT_EQ(sky_->metrics().cache_misses->Value(), 4u);
  EXPECT_EQ(sky_->metrics().cache_hits->Value(), 4u);
  EXPECT_EQ(sky_->metrics().pages_rescanned->Value(), 4u);
  // Replay is deterministic: both rewrites are byte-identical.
  EXPECT_EQ(a->code_image(), b->code_image());
  EXPECT_TRUE(x86::FindVmfuncBytes(b->code_image()).empty());
  // So are the snippet sub-window pages the replay maps: the relocated
  // windows of pages 1 and 3 land in their own VMFUNC sub-window page, and
  // no page maps one in only one of the forks.
  for (size_t p = 0; p < 4; ++p) {
    const hw::Gva wva = mk::kRewritePageVa + p * kPageSize;
    const hw::GuestWalk wa = a->address_space().WalkVa(wva);
    const hw::GuestWalk wb = b->address_space().WalkVa(wva);
    ASSERT_EQ(wa.ok, p == 1 || p == 3) << "page " << p;
    ASSERT_EQ(wb.ok, wa.ok) << "page " << p;
    if (!wa.ok) {
      continue;
    }
    std::vector<uint8_t> bytes_a(kPageSize);
    std::vector<uint8_t> bytes_b(kPageSize);
    machine_->mem().Read(wa.gpa, bytes_a);
    machine_->mem().Read(wb.gpa, bytes_b);
    EXPECT_NE(wa.gpa, wb.gpa) << "page " << p;
    EXPECT_EQ(bytes_a, bytes_b) << "page " << p;
    EXPECT_TRUE(std::any_of(bytes_a.begin(), bytes_a.end(), [](uint8_t x) { return x != 0; }))
        << "page " << p;
  }

  // Both forks actually serve.
  auto* client = kernel_->CreateProcess("client").value();
  ASSERT_TRUE(sky_->RegisterClient(client, sid_a).ok());
  ASSERT_TRUE(sky_->RegisterClient(client, sid_b).ok());
  mk::Thread* thread = client->AddThread(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());
  EXPECT_TRUE(sky_->DirectServerCall(thread, sid_a, Message(1)).ok());
  EXPECT_TRUE(sky_->DirectServerCall(thread, sid_b, Message(2)).ok());
}

// The pattern id is part of the cache key: an EPTP (VMFUNC) rewrite of a page
// must never satisfy the MPK (WRPKRU) pass over the same bytes — a cross-hit
// would leave a live WRPKRU in an MPK-bound image.
TEST_F(RegistrationPipelineTest, BackendPatternsNeverShareCacheEntries) {
  Boot();
  std::vector<uint8_t> image = NopImage(4);
  PlantEmbedded(image, kPageSize + 2048, x86::kVmfuncBytes);
  PlantEmbedded(image, 2 * kPageSize + 2048, x86::kWrpkruBytes);
  x86::ScanOptions wrpkru;
  wrpkru.pattern = x86::kWrpkruBytes;

  // EPTP-bound server: only the VMFUNC pass runs, the WRPKRU stays.
  auto* a = kernel_->CreateProcessWithImage("eptp-server", image).value();
  ASSERT_TRUE(
      sky_->RegisterServer(a, 4, EchoHandler(), CrossingBackendKind::kEptp).ok());
  EXPECT_EQ(sky_->metrics().cache_misses->Value(), 4u);
  EXPECT_TRUE(x86::FindVmfuncBytes(a->code_image()).empty());
  EXPECT_FALSE(x86::FindVmfuncBytes(a->code_image(), wrpkru).empty());

  // MPK-bound fork of the same image: the VMFUNC pass replays from the
  // cache, but the WRPKRU pass must miss — same bytes, different pattern id.
  auto* b = kernel_->CreateProcessWithImage("mpk-server", image).value();
  ASSERT_TRUE(sky_->RegisterServer(b, 4, EchoHandler(), CrossingBackendKind::kMpk).ok());
  EXPECT_EQ(sky_->metrics().cache_hits->Value(), 4u);    // The replayed VMFUNC pass.
  EXPECT_EQ(sky_->metrics().cache_misses->Value(), 8u);  // The cold WRPKRU pass.
  EXPECT_TRUE(x86::FindVmfuncBytes(b->code_image()).empty());
  EXPECT_TRUE(x86::FindVmfuncBytes(b->code_image(), wrpkru).empty());
}

// Two 2-page NOP images whose page 1 hashes identically (bytes and +-64 B
// context), but B's extra 0xB8 at offset 2999 shifts the linear sweep by one
// byte through the run of 0xB8s: in A the triple at 4100 is a true VMFUNC
// (C1, NOPed out), in B it is the immediate of the `mov eax, imm32` at 4099
// (C3, relocated). The key pins where the sweep enters page 1's context, so
// B must not replay A's page-1 rewrite over its immediate.
TEST_F(RegistrationPipelineTest, SweepEntryIsPartOfTheCacheKey) {
  std::vector<uint8_t> a(2 * kPageSize, 0x90);
  std::fill(a.begin() + 3000, a.begin() + 4100, 0xb8);
  std::copy(x86::kVmfuncBytes, x86::kVmfuncBytes + 3, a.begin() + 4100);
  std::vector<uint8_t> b = a;
  b[2999] = 0xb8;
  ASSERT_EQ(x86::HashCodePage(a, 1), x86::HashCodePage(b, 1));
  ASSERT_NE(x86::HashCodePage(a, 0), x86::HashCodePage(b, 0));  // Byte 2999 differs.

  // What B's rewrite must be: B registered with the rewrite cache disabled.
  SkyBridgeConfig nocache = EagerConfig();
  nocache.rewrite_cache_entries = 0;
  Boot(nocache);
  auto* alone = kernel_->CreateProcessWithImage("b-alone", b).value();
  ASSERT_TRUE(sky_->RegisterServer(alone, 4, EchoHandler(), CrossingBackendKind::kEptp).ok());
  const std::vector<uint8_t> expected = alone->code_image();
  ASSERT_EQ(expected[4099], 0xe9);  // B's mov was relocated behind a JMP.

  Boot();
  auto* pa = kernel_->CreateProcessWithImage("a", a).value();
  ASSERT_TRUE(sky_->RegisterServer(pa, 4, EchoHandler(), CrossingBackendKind::kEptp).ok());
  EXPECT_EQ(pa->code_image()[4100], 0x90);  // A's VMFUNC was NOPed out.
  auto* pb = kernel_->CreateProcessWithImage("b", b).value();
  ASSERT_TRUE(sky_->RegisterServer(pb, 4, EchoHandler(), CrossingBackendKind::kEptp).ok());
  EXPECT_EQ(pb->code_image(), expected);
  EXPECT_EQ(sky_->metrics().cache_hits->Value(), 0u);
}

// A scrub keys each page from the page hashes it keeps for the current
// image: the VMFUNC pass NOPs A's gate out of page 1, so A's WRPKRU pass
// must key page 1 as the NOPs it now holds. B is A with those NOPs from the
// start, so after B's own VMFUNC pass (page 1 differs, so it misses) every
// page of B's WRPKRU pass is a byte-identical replay of A's. A page hash left
// at A's pre-patch bytes would miss page 1 there.
TEST_F(RegistrationPipelineTest, SecondPatternPassKeysTheImageTheFirstPassLeft) {
  Boot();
  std::vector<uint8_t> a = NopImage(4);
  std::copy(x86::kVmfuncBytes, x86::kVmfuncBytes + 3, a.begin() + kPageSize + 2048);
  const std::vector<uint8_t> b = NopImage(4);
  auto* pa = kernel_->CreateProcessWithImage("a", a).value();
  ASSERT_TRUE(sky_->RegisterServer(pa, 4, EchoHandler(), CrossingBackendKind::kMpk).ok());
  ASSERT_EQ(pa->code_image(), b);  // The true VMFUNC was NOPed out.
  EXPECT_EQ(sky_->metrics().cache_misses->Value(), 8u);  // Both passes, cold.
  auto* pb = kernel_->CreateProcessWithImage("b", b).value();
  ASSERT_TRUE(sky_->RegisterServer(pb, 4, EchoHandler(), CrossingBackendKind::kMpk).ok());
  EXPECT_EQ(sky_->metrics().cache_misses->Value(), 9u);  // B's VMFUNC-pass page 1.
  EXPECT_EQ(sky_->metrics().cache_hits->Value(), 7u);    // 3 VMFUNC + 4 WRPKRU pages.
}

// A rewrite window that straddles a page edge patches the next page before
// that page is keyed, so its key must hash the patched bytes. A's and B's
// `mov eax, imm32` at the end of page 0 embeds the gate and runs two bytes
// into page 1; the immediates differ in the byte at 4097. Relocating the mov
// writes the same JMP over both, so after page 0's rewrite page 1 is
// byte-identical in A and B and B's page 1 replays A's. Page 0 itself
// differs in its after-context, so it misses.
TEST_F(RegistrationPipelineTest, PageKeysSeeTheSpillOfTheRewriteBeforeThem) {
  Boot();
  std::vector<uint8_t> a = NopImage(2);
  PlantEmbedded(a, kPageSize - 3, x86::kVmfuncBytes);
  std::vector<uint8_t> b = a;
  b[kPageSize + 1] = 0x11;
  auto* pa = kernel_->CreateProcessWithImage("a", a).value();
  ASSERT_TRUE(sky_->RegisterServer(pa, 4, EchoHandler(), CrossingBackendKind::kEptp).ok());
  ASSERT_EQ(pa->code_image()[kPageSize - 3], 0xe9);  // The mov was relocated.
  auto* pb = kernel_->CreateProcessWithImage("b", b).value();
  ASSERT_TRUE(sky_->RegisterServer(pb, 4, EchoHandler(), CrossingBackendKind::kEptp).ok());
  EXPECT_EQ(pb->code_image(), pa->code_image());
  EXPECT_EQ(sky_->metrics().cache_misses->Value(), 3u);  // A's two pages, B's page 0.
  EXPECT_EQ(sky_->metrics().cache_hits->Value(), 1u);    // B's page 1.
}

// Unit-level key semantics and the bounded LRU budget.
TEST(RewriteCacheUnit, KeyIsolationAndBoundedLruEviction) {
  x86::RewriteCache cache(2);
  x86::PageRewrite value;
  const x86::RewriteCacheKey base{0x1234, 0, 0};
  cache.Insert(base, value);

  // Same bytes, different pattern or page index: a miss by construction.
  EXPECT_FALSE(cache.Lookup({0x1234, 0, 1}).has_value());
  EXPECT_FALSE(cache.Lookup({0x1234, 1, 0}).has_value());
  EXPECT_TRUE(cache.Lookup(base).has_value());

  // Over-budget insert evicts the least recently used entry: refresh `base`
  // after the second insert so the second key is the victim.
  cache.Insert({0x5678, 0, 0}, value);
  EXPECT_TRUE(cache.Lookup(base).has_value());
  cache.Insert({0x9abc, 0, 0}, value);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.Lookup(base).has_value());
  EXPECT_FALSE(cache.Lookup({0x5678, 0, 0}).has_value());
  EXPECT_TRUE(cache.Lookup({0x9abc, 0, 0}).has_value());

  // Invalidation drops the entry and is counted.
  cache.Invalidate(base);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_FALSE(cache.Lookup(base).has_value());
}

// config.rewrite_cache_entries == 0 disables caching entirely — the
// cold-start ablation baseline: every fork pays the full scan.
TEST_F(RegistrationPipelineTest, ZeroBudgetDisablesTheCache) {
  SkyBridgeConfig config = EagerConfig();
  config.rewrite_cache_entries = 0;
  Boot(config);
  std::vector<uint8_t> image = NopImage(2);
  PlantEmbedded(image, kPageSize + 2048, x86::kVmfuncBytes);
  auto* a = kernel_->CreateProcessWithImage("a", image).value();
  ASSERT_TRUE(
      sky_->RegisterServer(a, 4, EchoHandler(), CrossingBackendKind::kEptp).ok());
  auto* b = kernel_->CreateProcessWithImage("b", image).value();
  ASSERT_TRUE(
      sky_->RegisterServer(b, 4, EchoHandler(), CrossingBackendKind::kEptp).ok());
  EXPECT_EQ(sky_->metrics().cache_hits->Value(), 0u);
  EXPECT_EQ(sky_->metrics().pages_rescanned->Value(), 4u);
  EXPECT_EQ(a->code_image(), b->code_image());
}

// Lazy mode: pages fault in one at a time as execution reaches them; pages
// never executed are never scanned, and the planted pattern on a cold page
// stays (harmlessly, non-executable) until its first execution.
TEST_F(RegistrationPipelineTest, LazyModeFaultsPagesInOneAtATime) {
  SkyBridgeConfig config;
  config.registration_mode = RegistrationMode::kLazy;
  Boot(config);
  std::vector<uint8_t> image = NopImage(4);
  PlantEmbedded(image, kPageSize + 2048, x86::kVmfuncBytes);
  PlantEmbedded(image, 3 * kPageSize + 2048, x86::kVmfuncBytes);
  auto* server = kernel_->CreateProcessWithImage("server", image).value();
  const ServerId sid =
      sky_->RegisterServer(server, 4, EchoHandler(), CrossingBackendKind::kEptp).value();
  auto* client = kernel_->CreateProcess("client").value();
  ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
  mk::Thread* thread = client->AddThread(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());

  // Registration armed, nothing scanned: all four server pages non-exec.
  EXPECT_EQ(sky_->metrics().exec_faults->Value(), 0u);
  EXPECT_EQ(sky_->metrics().pages_rescanned->Value(), 0u);
  for (size_t page = 0; page < 4; ++page) {
    EXPECT_FALSE(PageExecutable(server, page)) << page;
  }
  EXPECT_EQ(x86::FindVmfuncBytes(server->code_image()).size(), 2u);

  // tag 0 executes the client page, the handler page and server page 0.
  ASSERT_TRUE(sky_->DirectServerCall(thread, sid, Message(0)).ok());
  const uint64_t after_first = sky_->metrics().exec_faults->Value();
  EXPECT_GE(after_first, 2u);
  EXPECT_TRUE(PageExecutable(server, 0));
  EXPECT_FALSE(PageExecutable(server, 1));
  EXPECT_FALSE(server->code_rewritten());

  // tag 2 reaches server page 2; pages 1 and 3 (with their patterns) are
  // still cold, still non-executable.
  ASSERT_TRUE(sky_->DirectServerCall(thread, sid, Message(2)).ok());
  EXPECT_EQ(sky_->metrics().exec_faults->Value(), after_first + 1);
  EXPECT_TRUE(PageExecutable(server, 2));
  EXPECT_EQ(x86::FindVmfuncBytes(server->code_image()).size(), 2u);

  // Touch the pattern pages: each first execution scrubs its page.
  ASSERT_TRUE(sky_->DirectServerCall(thread, sid, Message(1)).ok());
  EXPECT_EQ(x86::FindVmfuncBytes(server->code_image()).size(), 1u);
  EXPECT_FALSE(server->code_rewritten());
  ASSERT_TRUE(sky_->DirectServerCall(thread, sid, Message(3)).ok());
  EXPECT_TRUE(x86::FindVmfuncBytes(server->code_image()).empty());
  EXPECT_TRUE(server->code_rewritten());
  for (size_t page = 0; page < 4; ++page) {
    EXPECT_TRUE(PageExecutable(server, page)) << page;
  }

  // Steady state: the fault path is drained, counters hold still.
  const uint64_t faults = sky_->metrics().exec_faults->Value();
  EXPECT_TRUE(sky_->DirectServerCall(thread, sid, Message(1)).ok());
  EXPECT_EQ(sky_->metrics().exec_faults->Value(), faults);
}

// The kFaultExecScan recovery contract: a persistently failing page scan
// exhausts the bounded retry and surfaces clean Unavailable; once the fault
// clears, the next execution scrubs the page and the call succeeds.
TEST_F(RegistrationPipelineTest, ExecScanFaultSurfacesUnavailableThenRecovers) {
  SkyBridgeConfig config;
  config.registration_mode = RegistrationMode::kLazy;
  Boot(config);
  auto* server = kernel_->CreateProcess("server").value();
  const ServerId sid =
      sky_->RegisterServer(server, 4, EchoHandler(), CrossingBackendKind::kEptp).value();
  auto* client = kernel_->CreateProcess("client").value();
  ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
  mk::Thread* thread = client->AddThread(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());

  // Every scan attempt fails: the bounded retry drains, the call reports
  // Unavailable, and no page is left half-scrubbed or executable.
  sb::fault::DisarmAll();
  sb::fault::Arm(kFaultExecScan);
  EXPECT_EQ(sky_->DirectServerCall(thread, sid, Message(0)).status().code(),
            sb::ErrorCode::kUnavailable);
  EXPECT_GE(sb::fault::StatsFor(kFaultExecScan).fires, 1u);
  EXPECT_FALSE(PageExecutable(client, 0));
  EXPECT_EQ(sky_->metrics().lazy_rewrites->Value(), 0u);
  const sb::Status invariants = sky_->CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();

  // Fault cleared: the retry path completes and the call goes through.
  sb::fault::DisarmAll();
  EXPECT_TRUE(sky_->DirectServerCall(thread, sid, Message(0)).ok());
  EXPECT_GE(sky_->metrics().lazy_rewrites->Value(), 2u);
  EXPECT_TRUE(PageExecutable(client, 0));

  // A transient failure (first attempt only) is absorbed by the in-fault
  // retry: the caller never sees it.
  auto* late = kernel_->CreateProcess("late-client").value();
  ASSERT_TRUE(sky_->RegisterClient(late, sid).ok());
  mk::Thread* late_thread = late->AddThread(1);
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(1), late).ok());
  sb::fault::FaultSpec once;
  once.nth_hit = 1;
  sb::fault::Arm(kFaultExecScan, once);
  EXPECT_TRUE(sky_->DirectServerCall(late_thread, sid, Message(1)).ok());
  EXPECT_EQ(sb::fault::StatsFor(kFaultExecScan).fires, 1u);
  sb::fault::DisarmAll();
}

// Sets (or, with nullptr, unsets) an environment variable for one scope and
// restores whatever the CI matrix had there.
class ScopedEnv {
 public:
  ScopedEnv(const char* var, const char* value) : var_(var) {
    if (const char* old = std::getenv(var)) {
      old_ = old;
    }
    if (value != nullptr) {
      setenv(var, value, 1);
    } else {
      unsetenv(var);
    }
  }
  ~ScopedEnv() {
    if (old_.has_value()) {
      setenv(var_, old_->c_str(), 1);
    } else {
      unsetenv(var_);
    }
  }

 private:
  const char* var_;
  std::optional<std::string> old_;
};

// Unset or empty selects the default; each accepted name selects its value.
TEST(EnvSpelling, AcceptedNamesSelectTheirValue) {
  {
    ScopedEnv env("SB_REGISTRATION_MODE", "lazy");
    EXPECT_EQ(DefaultRegistrationMode(), RegistrationMode::kLazy);
  }
  {
    ScopedEnv env("SB_REGISTRATION_MODE", "");
    EXPECT_EQ(DefaultRegistrationMode(), RegistrationMode::kEager);
  }
  {
    ScopedEnv env("SB_CROSSING_BACKEND", "syscall");
    EXPECT_EQ(DefaultCrossingBackend(), CrossingBackendKind::kSyscall);
  }
  {
    ScopedEnv env("SB_CROSSING_BACKEND", nullptr);
    EXPECT_EQ(DefaultCrossingBackend(), CrossingBackendKind::kEptp);
  }
}

// Any other value aborts and names the accepted values: a retired mode or a
// typo in a matrix value must not quietly run a second default leg.
TEST(EnvSpellingDeathTest, UnknownNamesAbortListingTheAcceptedOnes) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        setenv("SB_REGISTRATION_MODE", "snapshot", 1);
        (void)DefaultRegistrationMode();
      },
      "SB_REGISTRATION_MODE=\"snapshot\" is not one of: eager, lazy");
  EXPECT_DEATH(
      {
        setenv("SB_REGISTRATION_MODE", "eagre", 1);
        (void)DefaultRegistrationMode();
      },
      "SB_REGISTRATION_MODE=\"eagre\" is not one of: eager, lazy");
  EXPECT_DEATH(
      {
        setenv("SB_CROSSING_BACKEND", "eptpp", 1);
        (void)DefaultCrossingBackend();
      },
      "SB_CROSSING_BACKEND=\"eptpp\" is not one of: eptp, mpk, syscall");
}

}  // namespace
}  // namespace skybridge
