// Process-wide metrics registry: named counters, gauges and log-bucketed
// latency histograms.
//
// The hot path (Counter::Add, LatencyHistogram::Record) is lock-free and
// RMW-free: each metric keeps a small array of cache-line-padded shards, and
// every live host thread that writes metrics leases one shard index for its
// lifetime (released when the thread exits, then reused). A shard therefore
// has one writer at a time, which updates it with a relaxed load and store.
// Readers fold the shards at snapshot time; a snapshot is therefore a
// consistent-enough view for reporting, never a linearization point.
//
// Naming convention: `layer.subsystem.name`, e.g. `skybridge.ipc.direct_calls`,
// `mk.sched.context_switches`, `vmm.ept.created`, `hw.tlb.dtlb_misses`.
//
// The registry is not a process singleton: each simulated machine owns one
// (hw::Machine::telemetry()), so two worlds in one test binary never share
// counters. "Process-wide" refers to the simulated machine's processes, all
// of which report into the machine's registry.

#ifndef SRC_BASE_TELEMETRY_METRICS_H_
#define SRC_BASE_TELEMETRY_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sb::telemetry {

// Shard count: the most host threads that may write metrics at once. One
// thread more is a fatal SB_CHECK, never a silently shared shard.
inline constexpr size_t kMetricShards = 16;

namespace internal {
// Leases the lowest free shard index; SB_CHECK-fails when all are leased.
size_t AcquireShard();
void ReleaseShard(size_t index);

struct ShardLease {
  ShardLease() : index(AcquireShard()) {}
  ~ShardLease() { ReleaseShard(index); }
  ShardLease(const ShardLease&) = delete;
  ShardLease& operator=(const ShardLease&) = delete;
  const size_t index;
};

// Single-writer update of a shard cell: a relaxed load and store, no RMW.
inline void ShardAdd(std::atomic<uint64_t>& cell, uint64_t delta) {
  cell.store(cell.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
}
}  // namespace internal

// The calling thread's shard, leased on its first metric write and held
// until the thread exits.
inline size_t ThreadShardIndex() {
  thread_local const internal::ShardLease lease;
  return lease.index;
}

// Monotonically increasing count.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  const std::string& name() const { return name_; }

  void Add(uint64_t delta = 1) { internal::ShardAdd(shards_[ThreadShardIndex()].v, delta); }

  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Shard& s : shards_) {
      sum += s.v.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  std::string name_;
  std::array<Shard, kMetricShards> shards_;
};

// Point-in-time value: last write wins, or a provider callback evaluated at
// snapshot time (used to surface existing tallies, e.g. TLB miss counts).
class Gauge {
 public:
  using Provider = std::function<uint64_t()>;

  explicit Gauge(std::string name) : name_(std::move(name)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  const std::string& name() const { return name_; }

  void Set(uint64_t v) { value_.store(v, std::memory_order_relaxed); }

  // Monotonic high-water mark.
  void SetMax(uint64_t v) {
    uint64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur && !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  // The provider must outlive every snapshot of the owning registry. Only
  // use it for objects with the same lifetime as the registry (e.g. a
  // machine's own cores).
  void SetProvider(Provider provider) { provider_ = std::move(provider); }

  uint64_t Value() const {
    if (provider_) {
      return provider_();
    }
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::string name_;
  std::atomic<uint64_t> value_{0};
  Provider provider_;
};

// HDR-style log-linear histogram for cycle counts: values below 16 record
// exactly; above that, each power-of-two range splits into 16 linear
// sub-buckets, so the relative error of a percentile is bounded by 1/32
// (instead of the 2x a pure power-of-two bucketing gives). Tracked range
// ends at 2^48 cycles (~ a simulated day at GHz rates); anything beyond
// lands in a distinct +Inf overflow bucket rather than silently clamping
// into the top finite bucket. Sharded like Counter.
class LatencyHistogram {
 public:
  static constexpr size_t kSubBuckets = 16;       // Linear splits per octave.
  static constexpr size_t kMaxTrackedBits = 48;   // bit_width of the last finite octave.
  // Indices [0, 16) hold values 0..15 exactly; each octave w in [5, 48]
  // contributes 16 sub-buckets at [16*(w-4), 16*(w-3)); the final index is
  // the +Inf overflow bucket.
  static constexpr size_t kOverflowBucket = kSubBuckets * (kMaxTrackedBits - 3);
  static constexpr size_t kBuckets = kOverflowBucket + 1;
  // Percentile() result when the rank lands in the overflow bucket: a
  // sentinel, deliberately not clamped to Max(), so over-range tails are
  // visible as +Inf instead of masquerading as the largest finite sample.
  static constexpr uint64_t kOverflowValue = ~uint64_t{0};

  explicit LatencyHistogram(std::string name) : name_(std::move(name)) {}
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  const std::string& name() const { return name_; }

  void Record(uint64_t v);

  uint64_t Count() const;
  double Mean() const;
  uint64_t Max() const;
  // Samples recorded beyond the tracked range (the +Inf bucket).
  uint64_t OverflowCount() const;
  // Approximate percentile from bucket midpoints, clamped to the observed
  // max — except when the rank falls into the +Inf bucket, which returns
  // kOverflowValue. p <= 0 returns the smallest populated bucket's
  // representative; p >= 100 the largest. Returns 0 when empty.
  uint64_t Percentile(double p) const;
  // FNV-1a over the folded bucket counts: a deterministic fingerprint of the
  // full distribution (not just the summary percentiles), used by replay /
  // determinism tests to compare two runs' histograms exactly.
  uint64_t Digest() const;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
  };
  void Fold(std::array<uint64_t, kBuckets>& buckets, uint64_t& count) const;

  std::string name_;
  std::array<Shard, kMetricShards> shards_;
};

// One folded metric in a snapshot.
struct MetricValue {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  uint64_t value = 0;  // Counter / gauge.
  // Histogram summary.
  uint64_t count = 0;
  double mean = 0.0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  uint64_t p999 = 0;
  uint64_t p9999 = 0;
  uint64_t max = 0;
  uint64_t overflow = 0;  // Samples in the +Inf bucket.
};

// Owns the named metrics. Get* registers on first use and returns the same
// instance thereafter (pointers are stable for the registry's lifetime);
// registration takes a lock, the returned handles' hot paths do not.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  LatencyHistogram& GetHistogram(std::string_view name);

  // Folded view of every registered metric, sorted by name within each kind.
  std::vector<MetricValue> Snapshot() const;

  // JSON object mapping metric name to value (counters/gauges) or to a
  // {count, mean, p50, p90, p99, p999, p9999, max, overflow} object
  // (histograms).
  std::string SnapshotJson() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>> histograms_;
};

}  // namespace sb::telemetry

#endif  // SRC_BASE_TELEMETRY_METRICS_H_
