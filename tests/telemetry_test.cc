// Telemetry subsystem tests: the sharded metrics registry, the per-thread
// trace ring with its Chrome export, and the end-to-end trace of one
// SkyBridge DirectServerCall.

#include "src/base/telemetry/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <latch>
#include <semaphore>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/telemetry/span.h"
#include "src/base/telemetry/trace.h"
#include "src/skybridge/skybridge.h"

namespace sb::telemetry {
namespace {

TEST(Counter, AddAndFold) {
  Counter c("test.counter");
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(Counter, ConcurrentAddsSumExactly) {
  Counter c("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAddsPerThread; ++i) {
        c.Add();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kAddsPerThread);
}

// Threads started one after another lease and release shards in turn: three
// rounds of kMetricShards threads never exhaust the lease mask, and every
// write survives the shard changing hands.
TEST(ShardLease, SequentialThreadsReuseShardsAndTotalsStayExact) {
  Counter c("test.lease.sequential");
  LatencyHistogram h("test.lease.sequential_hist");
  constexpr uint64_t kThreads = 3 * kMetricShards;
  for (uint64_t t = 1; t <= kThreads; ++t) {
    std::thread([&c, &h, t] {
      EXPECT_LT(ThreadShardIndex(), kMetricShards);
      c.Add(t);
      h.Record(t);
    }).join();
  }
  EXPECT_EQ(c.Value(), kThreads * (kThreads + 1) / 2);
  EXPECT_EQ(h.Count(), kThreads);
  EXPECT_EQ(h.Max(), kThreads);
  EXPECT_DOUBLE_EQ(h.Mean(), static_cast<double>(kThreads + 1) / 2);
}

// kMetricShards live writers at once (this thread plus kMetricShards - 1
// others, all holding their lease at the same time): every shard has exactly
// one writer and the folded totals are exact.
TEST(ShardLease, FullHouseOfConcurrentWritersIsExact) {
  Counter c("test.lease.concurrent");
  LatencyHistogram h("test.lease.concurrent_hist");
  constexpr uint64_t kWriters = kMetricShards;
  constexpr uint64_t kOpsEach = 5000;
  std::latch all_leased(static_cast<std::ptrdiff_t>(kWriters));
  auto writer = [&](uint64_t id) {
    c.Add(0);  // Takes the lease.
    all_leased.arrive_and_wait();
    for (uint64_t i = 0; i < kOpsEach; ++i) {
      c.Add();
      h.Record(id * kOpsEach + i);
    }
  };
  std::vector<std::thread> threads;
  for (uint64_t id = 1; id < kWriters; ++id) {
    threads.emplace_back(writer, id);
  }
  writer(0);
  for (std::thread& t : threads) {
    t.join();
  }
  constexpr uint64_t kSamples = kWriters * kOpsEach;
  EXPECT_EQ(c.Value(), kSamples);
  EXPECT_EQ(h.Count(), kSamples);
  EXPECT_EQ(h.Max(), kSamples - 1);
  EXPECT_DOUBLE_EQ(h.Mean(), static_cast<double>(kSamples - 1) / 2);  // Mean of 0..N-1.
}

// One writer more than there are shards is a defined failure, not a shared
// shard: the thread that finds the mask full dies naming kMetricShards.
TEST(ShardLeaseDeathTest, OneWriterTooManyFailsNamingTheLimit) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Counter c("test.lease.exhausted");
        std::counting_semaphore<> never(0);
        std::vector<std::thread> threads;
        for (size_t i = 0; i <= kMetricShards; ++i) {
          threads.emplace_back([&] {
            c.Add();
            // Hold the lease until the process dies (bounded, so a missing
            // check fails the test instead of hanging it).
            (void)never.try_acquire_for(std::chrono::seconds(10));
          });
        }
        for (std::thread& t : threads) {
          t.join();
        }
      },
      "more than kMetricShards \\(16\\) host threads write metrics at once");
}

TEST(Gauge, SetAndSetMax) {
  Gauge g("test.gauge");
  g.Set(7);
  EXPECT_EQ(g.Value(), 7u);
  g.SetMax(3);  // Lower: high-water mark keeps 7.
  EXPECT_EQ(g.Value(), 7u);
  g.SetMax(11);
  EXPECT_EQ(g.Value(), 11u);
}

TEST(Gauge, ProviderWinsOverStoredValue) {
  Gauge g("test.provider");
  g.Set(1);
  uint64_t source = 99;
  g.SetProvider([&source] { return source; });
  EXPECT_EQ(g.Value(), 99u);
  source = 100;
  EXPECT_EQ(g.Value(), 100u);
}

TEST(LatencyHistogram, EmptyIsZero) {
  LatencyHistogram h("test.hist");
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Max(), 0u);
  EXPECT_EQ(h.Percentile(50), 0u);
}

TEST(LatencyHistogram, SingleSample) {
  LatencyHistogram h("test.hist");
  h.Record(396);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_DOUBLE_EQ(h.Mean(), 396.0);
  EXPECT_EQ(h.Max(), 396u);
  // Every percentile of a single sample is that sample (bucket midpoint
  // clamped to the observed max).
  EXPECT_EQ(h.Percentile(0), h.Percentile(100));
  EXPECT_LE(h.Percentile(50), 396u);
  EXPECT_GE(h.Percentile(50), 256u);  // Within the 2x bucket bound.
}

TEST(LatencyHistogram, ZeroValuesLandInBucketZero) {
  LatencyHistogram h("test.hist");
  h.Record(0);
  h.Record(0);
  EXPECT_EQ(h.Count(), 2u);
  EXPECT_EQ(h.Percentile(50), 0u);
  EXPECT_EQ(h.Max(), 0u);
}

TEST(LatencyHistogram, PercentilesOrderedAndClampedToMax) {
  LatencyHistogram h("test.hist");
  for (uint64_t v = 1; v <= 1000; ++v) {
    h.Record(v);
  }
  const uint64_t p0 = h.Percentile(0);
  const uint64_t p50 = h.Percentile(50);
  const uint64_t p99 = h.Percentile(99);
  const uint64_t p100 = h.Percentile(100);
  EXPECT_LE(p0, p50);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, p100);
  EXPECT_LE(p100, 1000u);  // Clamped to the observed max, not the bucket top.
  EXPECT_GE(p50, 250u);    // 2x-error bound around the true 500.
  EXPECT_LE(p50, 1000u);
}

TEST(LatencyHistogram, TailPercentilesResolveSixteenthOctaves) {
  LatencyHistogram h("test.hist");
  // 99.9% of samples at ~1000, a 0.1% tail at 100x: the tail percentiles
  // must separate the two populations, and the 16-sub-bucket octaves keep
  // the body representative within 1/16 relative error (not the 2x a pure
  // power-of-two histogram allows).
  for (int i = 0; i < 9992; ++i) {
    h.Record(1000);
  }
  for (int i = 0; i < 8; ++i) {
    h.Record(100000);
  }
  EXPECT_GE(h.Percentile(50), 992u);
  EXPECT_LE(h.Percentile(50), 1063u);  // 1000 * 17/16.
  EXPECT_LE(h.Percentile(99.9), 1063u);    // p99.9 still in the body...
  EXPECT_GE(h.Percentile(99.99), 90000u);  // ...p99.99 sees the 0.1% tail.
  EXPECT_EQ(h.OverflowCount(), 0u);
}

TEST(LatencyHistogram, OverflowBucketIsDistinctPlusInf) {
  LatencyHistogram h("test.hist");
  const uint64_t digest_before = h.Digest();
  for (int i = 0; i < 99; ++i) {
    h.Record(400);
  }
  h.Record(uint64_t{1} << 50);  // Past the 48-bit tracked range.
  EXPECT_EQ(h.Count(), 100u);
  EXPECT_EQ(h.OverflowCount(), 1u);
  // The body is unperturbed, and a percentile landing in the overflow
  // bucket reports +Inf instead of a made-up clamped value.
  EXPECT_LT(h.Percentile(50), 1000u);
  EXPECT_EQ(h.Percentile(100), LatencyHistogram::kOverflowValue);
  EXPECT_EQ(h.Max(), uint64_t{1} << 50);
  EXPECT_NE(h.Digest(), digest_before);

  // The largest tracked value is NOT overflow.
  LatencyHistogram g("test.hist");
  g.Record((uint64_t{1} << 48) - 1);
  EXPECT_EQ(g.OverflowCount(), 0u);
  EXPECT_NE(g.Percentile(100), LatencyHistogram::kOverflowValue);
}

TEST(Registry, SameNameReturnsSameMetric) {
  Registry registry;
  Counter& a = registry.GetCounter("skybridge.ipc.direct_calls");
  Counter& b = registry.GetCounter("skybridge.ipc.direct_calls");
  EXPECT_EQ(&a, &b);
  a.Add(5);
  EXPECT_EQ(b.Value(), 5u);
  // Different kinds live in different namespaces.
  Gauge& g = registry.GetGauge("skybridge.ipc.direct_calls");
  EXPECT_EQ(g.Value(), 0u);
}

TEST(Registry, SnapshotCarriesAllKinds) {
  Registry registry;
  registry.GetCounter("a.b.counter").Add(3);
  registry.GetGauge("a.b.gauge").Set(9);
  registry.GetHistogram("a.b.hist").Record(100);
  const std::vector<MetricValue> snap = registry.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  for (const MetricValue& m : snap) {
    if (m.name == "a.b.counter") {
      EXPECT_EQ(m.kind, MetricValue::Kind::kCounter);
      EXPECT_EQ(m.value, 3u);
    } else if (m.name == "a.b.gauge") {
      EXPECT_EQ(m.kind, MetricValue::Kind::kGauge);
      EXPECT_EQ(m.value, 9u);
    } else {
      EXPECT_EQ(m.kind, MetricValue::Kind::kHistogram);
      EXPECT_EQ(m.count, 1u);
      EXPECT_EQ(m.max, 100u);
    }
  }
}

TEST(Registry, SnapshotJsonIsWellFormed) {
  Registry registry;
  registry.GetCounter("x.y.calls").Add(2);
  registry.GetHistogram("x.y.lat").Record(50);
  const std::string json = registry.SnapshotJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"x.y.calls\":2"), std::string::npos);
  EXPECT_NE(json.find("\"x.y.lat\":{\"count\":1"), std::string::npos);
  // Balanced braces (no parser available; the CI job validates with python).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Registry, MachinesDoNotShareMetrics) {
  hw::MachineConfig mc;
  mc.num_cores = 1;
  mc.ram_bytes = 1ULL << 30;
  hw::Machine a(mc);
  hw::Machine b(mc);
  a.telemetry().GetCounter("test.shared.name").Add(7);
  EXPECT_EQ(b.telemetry().GetCounter("test.shared.name").Value(), 0u);
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetTraceEnabled(false);
    TraceClear();
  }
  void TearDown() override {
    SetTraceEnabled(false);
    TraceClear();
  }
};

TEST_F(TraceTest, DisabledEmitsNothing) {
  TraceEmit(TraceEventType::kCallStart, 100);
  SB_TRACE_EVENT(TraceEventType::kCallStart, 200);
  EXPECT_TRUE(TraceSnapshot().empty());
}

TEST_F(TraceTest, MacroDoesNotEvaluateArgsWhenDisabled) {
  int evaluations = 0;
  auto count = [&evaluations] { return static_cast<uint64_t>(++evaluations); };
  SB_TRACE_EVENT(TraceEventType::kCallStart, count());
  EXPECT_EQ(evaluations, 0);
  SetTraceEnabled(true);
  SB_TRACE_EVENT(TraceEventType::kCallStart, count());
  EXPECT_EQ(evaluations, 1);
}

TEST_F(TraceTest, SnapshotPreservesEmissionOrder) {
  SetTraceEnabled(true);
  TraceEmit(TraceEventType::kCallStart, 10, 0, 1, 2);
  TraceEmit(TraceEventType::kVmfuncSwitch, 20, 0, 3);
  TraceEmit(TraceEventType::kCallEnd, 30, 0, 1, 2);
  const std::vector<TraceRecord> records = TraceSnapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].type, TraceEventType::kCallStart);
  EXPECT_EQ(records[0].cycles, 10u);
  EXPECT_EQ(records[0].arg0, 1u);
  EXPECT_EQ(records[1].type, TraceEventType::kVmfuncSwitch);
  EXPECT_EQ(records[2].type, TraceEventType::kCallEnd);
  EXPECT_LT(records[0].seq, records[1].seq);
  EXPECT_LT(records[1].seq, records[2].seq);
}

TEST_F(TraceTest, RingWrapKeepsNewestRecords) {
  SetTraceEnabled(true);
  const size_t total = kTraceRingCapacity + 100;
  for (size_t i = 0; i < total; ++i) {
    TraceEmit(TraceEventType::kVmfuncSwitch, i);
  }
  const std::vector<TraceRecord> records = TraceSnapshot();
  ASSERT_EQ(records.size(), kTraceRingCapacity);
  EXPECT_EQ(records.front().cycles, 100u);  // Oldest surviving.
  EXPECT_EQ(records.back().cycles, total - 1);
}

TEST_F(TraceTest, ChromeJsonPairsSlices) {
  SetTraceEnabled(true);
  TraceEmit(TraceEventType::kCallStart, 100, 0, 1, 2);
  TraceEmit(TraceEventType::kHandlerEnter, 150, 0, 2);
  TraceEmit(TraceEventType::kHandlerExit, 250, 0, 2);
  TraceEmit(TraceEventType::kCallEnd, 300, 0, 1, 2);
  TraceEmit(TraceEventType::kEptpMiss, 310, 0, 2);
  const std::string json = TraceChromeJson(TraceSnapshot());
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("DirectServerCall"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":100"), std::string::npos);
}

TEST_F(TraceTest, DumpShowsEventNames) {
  SetTraceEnabled(true);
  TraceEmit(TraceEventType::kEptEvict, 42, 1, 7, 3);
  std::ostringstream out;
  TraceDump(out);
  EXPECT_NE(out.str().find("ept_evict"), std::string::npos);
  EXPECT_NE(out.str().find("42"), std::string::npos);
}

// The acceptance test: trace one warm DirectServerCall and assert the
// canonical fast-path event sequence with non-decreasing cycle timestamps.
class SkyBridgeTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetTraceEnabled(false);
    TraceClear();
    hw::MachineConfig mc;
    mc.num_cores = 2;
    mc.ram_bytes = 2ULL << 30;
    machine_ = std::make_unique<hw::Machine>(mc);
    kernel_ = std::make_unique<mk::Kernel>(*machine_, mk::Sel4Profile());
    ASSERT_TRUE(kernel_->Boot().ok());
    // The canonical trace sequence below is the VMFUNC fast path; pin kEptp
    // against the SB_CROSSING_BACKEND matrix.
    skybridge::SkyBridgeConfig config;
    config.crossing_backend = skybridge::CrossingBackendKind::kEptp;
    sky_ = std::make_unique<skybridge::SkyBridge>(*kernel_, config);
    client_ = kernel_->CreateProcess("client").value();
    server_ = kernel_->CreateProcess("server").value();
    sid_ = sky_->RegisterServer(server_, 4, [](mk::CallEnv& env) { return env.request; })
               .value();
    ASSERT_TRUE(sky_->RegisterClient(client_, sid_).ok());
    thread_ = client_->AddThread(0);
    ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client_).ok());
  }
  void TearDown() override {
    SetTraceEnabled(false);
    TraceClear();
  }

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<mk::Kernel> kernel_;
  std::unique_ptr<skybridge::SkyBridge> sky_;
  mk::Process* client_ = nullptr;
  mk::Process* server_ = nullptr;
  skybridge::ServerId sid_ = 0;
  mk::Thread* thread_ = nullptr;
};

// Index of the first record of `type` at or after `from`; fails if absent.
size_t IndexOf(const std::vector<TraceRecord>& records, TraceEventType type, size_t from = 0) {
  for (size_t i = from; i < records.size(); ++i) {
    if (records[i].type == type) {
      return i;
    }
  }
  ADD_FAILURE() << "event " << TraceEventName(type) << " not found from index " << from;
  return records.size();
}

TEST_F(SkyBridgeTraceTest, DirectCallEmitsCanonicalSequence) {
  // Warm call installs the binding so the traced call is the pure fast path.
  ASSERT_TRUE(sky_->DirectServerCall(thread_, sid_, mk::Message(1)).ok());

  TraceClear();
  SetTraceEnabled(true);
  ASSERT_TRUE(sky_->DirectServerCall(thread_, sid_, mk::Message(2)).ok());
  SetTraceEnabled(false);

  const std::vector<TraceRecord> records = TraceSnapshot();
  ASSERT_FALSE(records.empty());

  // lookup -> vmfunc -> handler enter -> handler exit -> vmfunc-return,
  // bracketed by the call start/end markers.
  const size_t start = IndexOf(records, TraceEventType::kCallStart);
  const size_t lookup = IndexOf(records, TraceEventType::kLookupHit, start);
  const size_t vmfunc_in = IndexOf(records, TraceEventType::kVmfuncSwitch, lookup);
  const size_t enter = IndexOf(records, TraceEventType::kHandlerEnter, vmfunc_in);
  const size_t exit = IndexOf(records, TraceEventType::kHandlerExit, enter);
  const size_t vmfunc_out = IndexOf(records, TraceEventType::kVmfuncSwitch, exit);
  const size_t end = IndexOf(records, TraceEventType::kCallEnd, vmfunc_out);
  ASSERT_LT(end, records.size());
  EXPECT_LT(start, lookup);
  EXPECT_LT(vmfunc_in, enter);
  EXPECT_LT(exit, vmfunc_out);
  EXPECT_LT(vmfunc_out, end);

  // The warm path never misses: no lookup miss, EPTP miss, or rejection.
  for (const TraceRecord& r : records) {
    EXPECT_NE(r.type, TraceEventType::kLookupMiss);
    EXPECT_NE(r.type, TraceEventType::kEptpMiss);
    EXPECT_NE(r.type, TraceEventType::kRejected);
  }

  // Timestamps are monotonically non-decreasing in emission order (one
  // core, one clock) and the call markers span the rest.
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_GE(records[i].cycles, records[i - 1].cycles)
        << "at " << TraceEventName(records[i].type);
  }
  EXPECT_EQ(records[start].arg0, static_cast<uint64_t>(client_->pid()));
  EXPECT_EQ(records[start].arg1, static_cast<uint64_t>(server_->pid()));
}

TEST_F(SkyBridgeTraceTest, TracingChargesNoSimulatedCycles) {
  // Warm up, then measure one call with tracing off and one with it on: the
  // simulated cost must be identical (instrumentation is host-side only).
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sky_->DirectServerCall(thread_, sid_, mk::Message(0)).ok());
  }
  hw::Core& core = machine_->core(0);
  uint64_t start = core.cycles();
  ASSERT_TRUE(sky_->DirectServerCall(thread_, sid_, mk::Message(0)).ok());
  const uint64_t cycles_off = core.cycles() - start;

  SetTraceEnabled(true);
  start = core.cycles();
  ASSERT_TRUE(sky_->DirectServerCall(thread_, sid_, mk::Message(0)).ok());
  const uint64_t cycles_on = core.cycles() - start;
  SetTraceEnabled(false);
  EXPECT_EQ(cycles_on, cycles_off);
}

// Every SkyBridge::Metrics handle must be the registry's own instance for its
// published name: a misspelt name in the constructor would read 0 forever.
void ExpectHandlesAreRegistryInstances(const skybridge::SkyBridge::Metrics& m, Registry& reg) {
  static_assert(sizeof(skybridge::SkyBridge::Metrics) == 29 * sizeof(void*),
                "list every handle below");
  const std::pair<const Counter*, const char*> counters[] = {
      {m.direct_calls, "skybridge.ipc.direct_calls"},
      {m.long_calls, "skybridge.ipc.long_calls"},
      {m.inplace_calls, "skybridge.ipc.inplace_calls"},
      {m.inplace_replies, "skybridge.ipc.inplace_replies"},
      {m.rejected_calls, "skybridge.ipc.rejected_calls"},
      {m.timeouts, "skybridge.ipc.timeouts"},
      {m.eptp_misses, "skybridge.ipc.eptp_misses"},
      {m.rewritten_vmfuncs, "skybridge.rewrite.vmfuncs"},
      {m.processes_rewritten, "skybridge.rewrite.processes"},
      {m.lookup_hits, "skybridge.lookup.hits"},
      {m.lookup_misses, "skybridge.lookup.misses"},
      {m.scan_pages, "skybridge.rewrite.scan_pages"},
      {m.aborted_calls, "skybridge.ipc.aborted_calls"},
      {m.gate_rejections, "skybridge.ipc.gate_rejections"},
      {m.stale_slot_retries, "skybridge.ipc.stale_slot_retries"},
      {m.revoked_rejections, "skybridge.ipc.revoked_rejections"},
      {m.bindings_revoked, "skybridge.bindings.revoked"},
      {m.slot_faults, "skybridge.eptp.slot_faults"},
      {m.migration_installs, "skybridge.eptp.migration_installs"},
      {m.batched_calls, "skybridge.ipc.batched_calls"},
      {m.batch_flushes, "skybridge.ipc.batch_flushes"},
      {m.drain_rounds, "skybridge.ipc.drain_rounds"},
      {m.exec_faults, "skybridge.registration.exec_faults"},
      {m.lazy_rewrites, "skybridge.registration.lazy_rewrites"},
      {m.cache_hits, "skybridge.registration.cache_hits"},
      {m.cache_misses, "skybridge.registration.cache_misses"},
      {m.pages_rescanned, "skybridge.registration.pages_rescanned"},
  };
  for (const auto& [handle, name] : counters) {
    EXPECT_EQ(handle, &reg.GetCounter(name)) << name;
  }
  EXPECT_EQ(m.scan_threads, &reg.GetGauge("skybridge.rewrite.scan_threads"));
  EXPECT_EQ(m.ring_depth, &reg.GetGauge("skybridge.batch.ring_depth"));
}

TEST_F(SkyBridgeTraceTest, RegistryCountsMatchStatsSnapshot) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sky_->DirectServerCall(thread_, sid_, mk::Message(0)).ok());
  }
  Registry& reg = machine_->telemetry();
  ExpectHandlesAreRegistryInstances(sky_->metrics(), reg);
  EXPECT_EQ(sky_->metrics().direct_calls->Value(), 5u);
  EXPECT_EQ(reg.GetCounter("skybridge.ipc.direct_calls").Value(), 5u);
  EXPECT_EQ(reg.GetCounter("skybridge.lookup.hits").Value() +
                reg.GetCounter("skybridge.lookup.misses").Value(),
            5u);
  // Phase histograms saw every call; the total per-call cost is near 396.
  LatencyHistogram& total = reg.GetHistogram("skybridge.phase.total");
  EXPECT_EQ(total.Count(), 5u);
  EXPECT_GT(total.Max(), 0u);
  EXPECT_LE(total.Percentile(99), 2 * total.Max());
  // The machine-level VMFUNC gauge saw the two switches per call.
  EXPECT_GE(reg.GetGauge("hw.core.vmfuncs").Value(), 10u);
}

// The staged-registration counters (DESIGN.md section 17): a lazy-mode world
// registers with every code page non-executable, so the first call exec-faults
// the client and server pages in, each fault recorded by the
// skybridge.registration.* counters and the exec-fault phase histogram.
TEST(RegistrationTelemetry, LazyFirstCallFeedsTheRegistrationCounters) {
  hw::MachineConfig mc;
  mc.num_cores = 2;
  mc.ram_bytes = 2ULL << 30;
  hw::Machine machine(mc);
  mk::Kernel kernel(machine, mk::Sel4Profile());
  ASSERT_TRUE(kernel.Boot().ok());
  skybridge::SkyBridgeConfig config;
  config.crossing_backend = skybridge::CrossingBackendKind::kEptp;
  config.registration_mode = skybridge::RegistrationMode::kLazy;
  skybridge::SkyBridge sky(kernel, config);
  mk::Process* client = kernel.CreateProcess("client").value();
  mk::Process* server = kernel.CreateProcess("server").value();
  const skybridge::ServerId sid =
      sky.RegisterServer(server, 4, [](mk::CallEnv& env) { return env.request; }).value();
  ASSERT_TRUE(sky.RegisterClient(client, sid).ok());
  mk::Thread* thread = client->AddThread(0);
  ASSERT_TRUE(kernel.ContextSwitchTo(machine.core(0), client).ok());

  Registry& reg = machine.telemetry();
  // Registration armed the pages but scanned nothing yet.
  EXPECT_EQ(reg.GetCounter("skybridge.registration.exec_faults").Value(), 0u);
  EXPECT_EQ(reg.GetCounter("skybridge.registration.lazy_rewrites").Value(), 0u);
  EXPECT_EQ(reg.GetHistogram("skybridge.phase.exec_fault").Count(), 0u);

  ASSERT_TRUE(sky.DirectServerCall(thread, sid, mk::Message(0)).ok());

  // One fault each for the client's and the server's first code page.
  EXPECT_GE(reg.GetCounter("skybridge.registration.exec_faults").Value(), 2u);
  EXPECT_GE(reg.GetCounter("skybridge.registration.lazy_rewrites").Value(), 2u);
  // The first page scanned cold; the second (identical default image)
  // replayed from the content-hashed rewrite cache.
  EXPECT_GE(reg.GetCounter("skybridge.registration.cache_misses").Value(), 1u);
  EXPECT_GE(reg.GetCounter("skybridge.registration.cache_hits").Value(), 1u);
  EXPECT_GE(reg.GetCounter("skybridge.registration.pages_rescanned").Value(), 1u);
  // Each fault's end-to-end resolution latency landed in the phase histogram.
  LatencyHistogram& fault_phase = reg.GetHistogram("skybridge.phase.exec_fault");
  EXPECT_GE(fault_phase.Count(), 2u);
  EXPECT_GT(fault_phase.Max(), 0u);
  // The rootkernel's VM-exit dispatcher saw the violations too.
  EXPECT_GE(reg.GetCounter("vmm.exits.exec_violation").Value(), 2u);

  // The facade's typed handles are these very registry counters.
  ExpectHandlesAreRegistryInstances(sky.metrics(), reg);

  // Steady state: the fault path never fires again, the counters hold still.
  const uint64_t faults = sky.metrics().exec_faults->Value();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(sky.DirectServerCall(thread, sid, mk::Message(0)).ok());
  }
  EXPECT_EQ(reg.GetCounter("skybridge.registration.exec_faults").Value(), faults);
  EXPECT_EQ(fault_phase.Count(), faults);
}

// Index of the first record of `type` with arg0 == `id` at or after `from`;
// fails if absent.
size_t IndexOfCall(const std::vector<TraceRecord>& records, TraceEventType type, uint64_t id,
                   size_t from = 0) {
  for (size_t i = from; i < records.size(); ++i) {
    if (records[i].type == type && records[i].arg0 == id) {
      return i;
    }
  }
  ADD_FAILURE() << "event " << TraceEventName(type) << " for call " << id
                << " not found from index " << from;
  return records.size();
}

TEST_F(SkyBridgeTraceTest, BatchEventsCarryTokenThroughThePipeline) {
  ASSERT_TRUE(sky_->DirectServerCall(thread_, sid_, mk::Message(1)).ok());  // Warm binding.
  TraceClear();
  SetTraceEnabled(true);
  const auto t0 = sky_->SubmitCall(thread_, sid_, mk::Message(10));
  const auto t1 = sky_->SubmitCall(thread_, sid_, mk::Message(11));
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(sky_->FlushBatch(thread_, sid_).ok());
  ASSERT_TRUE(sky_->PollCompletion(thread_, sid_, *t0).ok());
  ASSERT_TRUE(sky_->PollCompletion(thread_, sid_, *t1).ok());
  SetTraceEnabled(false);

  const std::vector<TraceRecord> records = TraceSnapshot();
  // The first enqueue names the op by (call id, ring token); the same pair
  // reappears at drain (inside the crossing) and at poll.
  const size_t enq = IndexOf(records, TraceEventType::kBatchEnqueue);
  ASSERT_LT(enq, records.size());
  const uint64_t call_id = records[enq].arg0;
  ASSERT_NE(call_id, 0u);
  EXPECT_EQ(records[enq].arg1, *t0);
  const size_t drain = IndexOfCall(records, TraceEventType::kBatchDrain, call_id, enq);
  const size_t poll = IndexOfCall(records, TraceEventType::kBatchPoll, call_id, drain);
  ASSERT_LT(poll, records.size());
  EXPECT_EQ(records[drain].arg1, *t0);
  EXPECT_EQ(records[poll].arg1, *t0);

  // Both submissions drained inside ONE flush window, which reports the
  // pending and completed counts.
  const size_t fstart = IndexOf(records, TraceEventType::kBatchFlushStart);
  const size_t fend = IndexOf(records, TraceEventType::kBatchFlushEnd, fstart);
  ASSERT_LT(fend, records.size());
  EXPECT_LT(fstart, drain);
  EXPECT_LT(drain, fend);
  EXPECT_EQ(records[fstart].arg1, 2u);  // Pending at flush.
  EXPECT_EQ(records[fend].arg1, 2u);    // Completed by the crossing.
  // The two calls got distinct ids.
  const size_t enq2 = IndexOf(records, TraceEventType::kBatchEnqueue, enq + 1);
  ASSERT_LT(enq2, records.size());
  EXPECT_NE(records[enq2].arg0, call_id);
  EXPECT_EQ(records[enq2].arg1, *t1);
}

// The section 14 acceptance test: a batched call's full span tree — arrival,
// enqueue, flush, vmfunc, drain, return, poll — reconstructs from the Chrome
// trace export alone, keyed by call id, with the crossing's legs inherited.
TEST_F(SkyBridgeTraceTest, BatchedSpanTreeReconstructsFromChromeExport) {
  ASSERT_TRUE(sky_->DirectServerCall(thread_, sid_, mk::Message(1)).ok());
  TraceClear();
  SetTraceEnabled(true);
  // The load generator's arrival hook, inlined: allocate the id at the
  // intended arrival and park it for the next submission to adopt.
  const uint64_t call_id = AllocCallId();
  TraceEmit(TraceEventType::kSpanArrival, machine_->core(0).cycles(), 0, call_id, 42);
  SetPendingCallId(call_id);
  const auto t0 = sky_->SubmitCall(thread_, sid_, mk::Message(42));
  const auto t1 = sky_->SubmitCall(thread_, sid_, mk::Message(43));  // Same crossing.
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(sky_->FlushBatch(thread_, sid_).ok());
  ASSERT_TRUE(sky_->PollCompletion(thread_, sid_, *t0).ok());
  ASSERT_TRUE(sky_->PollCompletion(thread_, sid_, *t1).ok());
  SetTraceEnabled(false);

  // Round-trip through the export: JSON out, records back, spans up.
  const std::string json = TraceChromeJson(TraceSnapshot());
  const std::vector<TraceRecord> parsed = ParseChromeTrace(json);
  ASSERT_FALSE(parsed.empty());
  const std::vector<CallSpan> spans = BuildSpans(parsed);
  const CallSpan* span = nullptr;
  for (const CallSpan& s : spans) {
    if (s.call_id == call_id) {
      span = &s;
    }
  }
  ASSERT_NE(span, nullptr);

  for (const SpanPhase phase :
       {SpanPhase::kArrival, SpanPhase::kEnqueue, SpanPhase::kFlush, SpanPhase::kVmfunc,
        SpanPhase::kDrain, SpanPhase::kReturn, SpanPhase::kPoll}) {
    EXPECT_NE(span->Find(phase), nullptr) << SpanPhaseName(phase);
  }
  // Client-side phases are the span's own; the crossing's legs are marked
  // inherited and point back to the crossing id.
  ASSERT_NE(span->Find(SpanPhase::kEnqueue), nullptr);
  ASSERT_NE(span->Find(SpanPhase::kVmfunc), nullptr);
  EXPECT_FALSE(span->Find(SpanPhase::kEnqueue)->inherited);
  EXPECT_TRUE(span->Find(SpanPhase::kVmfunc)->inherited);
  EXPECT_NE(span->crossing_id, 0u);
  EXPECT_NE(span->crossing_id, call_id);

  // Phases in pipeline order (global seq ordering survives the round-trip).
  const SpanPhase order[] = {SpanPhase::kArrival, SpanPhase::kEnqueue, SpanPhase::kFlush,
                             SpanPhase::kVmfunc,  SpanPhase::kDrain,   SpanPhase::kReturn,
                             SpanPhase::kPoll};
  for (size_t i = 1; i < std::size(order); ++i) {
    const SpanEvent* prev = span->Find(order[i - 1]);
    const SpanEvent* cur = span->Find(order[i]);
    ASSERT_NE(prev, nullptr);
    ASSERT_NE(cur, nullptr);
    EXPECT_LT(prev->seq, cur->seq) << SpanPhaseName(order[i]);
  }
  EXPECT_GT(span->TotalCycles(), 0u);

  // The batchmate correlates to the SAME crossing: N spans, one vmfunc.
  bool found_mate = false;
  for (const CallSpan& s : spans) {
    if (s.call_id != call_id && s.crossing_id != 0) {
      EXPECT_EQ(s.crossing_id, span->crossing_id);
      found_mate = true;
    }
  }
  EXPECT_TRUE(found_mate);
}

// ---- The fatal path: SB_CHECK failure dumps the flight recorder ----

// Capture-less marker hook (CheckFailureHook is a plain function pointer).
void MarkerHook() { std::fputs("HOOK-RAN\n", stderr); }

// A hook that itself dies: the fatal path must not re-enter it.
void SelfFailingHook() {
  std::fputs("HOOK-RAN\n", stderr);
  SB_CHECK(false) << "nested-fatal";
}

// Saves and restores the process-global hook so these tests compose with
// the SkyBridge fixtures (which install the trace dump hook on first boot).
class CheckFailureHookTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = SetCheckFailureHook(nullptr); }
  void TearDown() override {
    SetCheckFailureHook(saved_);
    SetTraceEnabled(false);
    TraceClear();
  }

  CheckFailureHook saved_ = nullptr;
};

TEST_F(CheckFailureHookTest, SetAndGetRoundTrip) {
  EXPECT_EQ(GetCheckFailureHook(), nullptr);
  EXPECT_EQ(SetCheckFailureHook(&MarkerHook), nullptr);
  EXPECT_EQ(GetCheckFailureHook(), &MarkerHook);
  // Set returns the previous hook; nullptr clears.
  EXPECT_EQ(SetCheckFailureHook(nullptr), &MarkerHook);
  EXPECT_EQ(GetCheckFailureHook(), nullptr);
}

TEST_F(CheckFailureHookTest, InstallTraceCrashDumpClaimsOnlyTheFreeSlot) {
  // A custom hook is never clobbered.
  SetCheckFailureHook(&MarkerHook);
  InstallTraceCrashDump();
  EXPECT_EQ(GetCheckFailureHook(), &MarkerHook);

  // With the slot free, the trace dump registers; a second install is a
  // no-op (idempotent re-registration after the fatal path self-clears).
  SetCheckFailureHook(nullptr);
  InstallTraceCrashDump();
  const CheckFailureHook installed = GetCheckFailureHook();
  ASSERT_NE(installed, nullptr);
  EXPECT_NE(installed, &MarkerHook);
  InstallTraceCrashDump();
  EXPECT_EQ(GetCheckFailureHook(), installed);
}

using CheckFailureHookDeathTest = CheckFailureHookTest;

TEST_F(CheckFailureHookDeathTest, FatalCheckDumpsTheFlightRecorder) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SetTraceEnabled(true);
        TraceClear();
        SB_TRACE_EVENT(TraceEventType::kCallStart, 100, 0, 7, 8);
        SB_TRACE_EVENT(TraceEventType::kCallEnd, 200, 0, 7, 8);
        SetCheckFailureHook(nullptr);
        InstallTraceCrashDump();
        SB_CHECK(false) << "flight-recorder-test";
      },
      "flight-recorder-test[^\r]*\r?\n[^\r]*trace flight recorder \\(2 of 2 events\\)");
}

TEST_F(CheckFailureHookDeathTest, DumpNamesTheRecordedEvents) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SetTraceEnabled(true);
        TraceClear();
        SB_TRACE_EVENT(TraceEventType::kCallAborted, 42, 1, 3, 4);
        SetCheckFailureHook(nullptr);
        InstallTraceCrashDump();
        SB_CHECK(false) << "boom";
      },
      "seq=0 cycles=42 core=1 call_aborted arg0=3 arg1=4");
}

TEST_F(CheckFailureHookDeathTest, HookRunsExactlyOnceEvenWhenItFailsACheck) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The fatal path exchanges the hook slot to nullptr before calling it, so
  // the nested SB_CHECK inside the hook aborts directly instead of
  // recursing. One marker, then the nested message, then death — a re-entry
  // would hang or overflow the stack and never match.
  EXPECT_DEATH(
      {
        SetCheckFailureHook(&SelfFailingHook);
        SB_CHECK(false) << "outer-fatal";
      },
      "outer-fatal[^\r]*\r?\nHOOK-RAN\r?\n[^\r]*nested-fatal");
}

}  // namespace
}  // namespace sb::telemetry
