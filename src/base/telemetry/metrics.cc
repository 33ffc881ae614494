#include "src/base/telemetry/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "src/base/logging.h"

namespace sb::telemetry {
namespace {

// Log-linear bucket index: values below kSubBuckets map exactly; above
// that, the top 4 bits after the leading bit pick one of 16 linear
// sub-buckets within the value's octave. Octaves past kMaxTrackedBits all
// collapse into the +Inf overflow bucket.
size_t BucketIndex(uint64_t v) {
  if (v < LatencyHistogram::kSubBuckets) {
    return static_cast<size_t>(v);
  }
  const size_t w = static_cast<size_t>(std::bit_width(v));  // >= 5 here.
  if (w > LatencyHistogram::kMaxTrackedBits) {
    return LatencyHistogram::kOverflowBucket;
  }
  const size_t sub = static_cast<size_t>((v >> (w - 5)) & 15);
  return LatencyHistogram::kSubBuckets * (w - 4) + sub;
}

// Representative value for a populated bucket: the midpoint of its
// [lo, lo + width) range (exact for the linear region, <= 1/32 relative
// error elsewhere). The overflow bucket has no finite representative.
uint64_t BucketRepresentative(size_t bucket) {
  if (bucket < LatencyHistogram::kSubBuckets) {
    return bucket;
  }
  if (bucket >= LatencyHistogram::kOverflowBucket) {
    return LatencyHistogram::kOverflowValue;
  }
  const size_t w = bucket / LatencyHistogram::kSubBuckets + 4;
  const uint64_t sub = bucket % LatencyHistogram::kSubBuckets;
  const uint64_t lo = (16 + sub) << (w - 5);
  return lo + (uint64_t{1} << (w - 5)) / 2;
}

void AppendJsonNumber(std::ostringstream& out, double v) {
  if (std::isfinite(v)) {
    out << v;
  } else {
    out << 0;
  }
}

}  // namespace

namespace internal {
namespace {

// Bit i set = shard i is leased to a live thread.
std::atomic<uint32_t> g_leased_shards{0};
static_assert(kMetricShards <= 32, "the lease mask is 32 bits wide");
constexpr uint32_t kAllShards = static_cast<uint32_t>((uint64_t{1} << kMetricShards) - 1);

}  // namespace

size_t AcquireShard() {
  uint32_t leased = g_leased_shards.load(std::memory_order_relaxed);
  for (;;) {
    const uint32_t free = ~leased & kAllShards;
    SB_CHECK(free != 0) << "more than kMetricShards (" << kMetricShards
                        << ") host threads write metrics at once";
    const uint32_t bit = free & (~free + 1);
    // Acquire pairs with the previous holder's release, so its last writes to
    // the shard happen before ours.
    if (g_leased_shards.compare_exchange_weak(leased, leased | bit, std::memory_order_acquire,
                                              std::memory_order_relaxed)) {
      return static_cast<size_t>(std::countr_zero(bit));
    }
  }
}

void ReleaseShard(size_t index) {
  g_leased_shards.fetch_and(~(uint32_t{1} << index), std::memory_order_release);
}

}  // namespace internal

void LatencyHistogram::Record(uint64_t v) {
  Shard& s = shards_[ThreadShardIndex()];
  internal::ShardAdd(s.buckets[BucketIndex(v)], 1);
  internal::ShardAdd(s.sum, v);
  if (v > s.max.load(std::memory_order_relaxed)) {
    s.max.store(v, std::memory_order_relaxed);
  }
}

void LatencyHistogram::Fold(std::array<uint64_t, kBuckets>& buckets, uint64_t& count) const {
  buckets.fill(0);
  count = 0;
  for (const Shard& s : shards_) {
    for (size_t i = 0; i < kBuckets; ++i) {
      const uint64_t b = s.buckets[i].load(std::memory_order_relaxed);
      buckets[i] += b;
      count += b;
    }
  }
}

uint64_t LatencyHistogram::Count() const {
  std::array<uint64_t, kBuckets> buckets;
  uint64_t count = 0;
  Fold(buckets, count);
  return count;
}

double LatencyHistogram::Mean() const {
  uint64_t count = 0;
  uint64_t sum = 0;
  for (const Shard& s : shards_) {
    sum += s.sum.load(std::memory_order_relaxed);
    for (const auto& b : s.buckets) {
      count += b.load(std::memory_order_relaxed);
    }
  }
  if (count == 0) {
    return 0.0;
  }
  return static_cast<double>(sum) / static_cast<double>(count);
}

uint64_t LatencyHistogram::Max() const {
  uint64_t max = 0;
  for (const Shard& s : shards_) {
    max = std::max(max, s.max.load(std::memory_order_relaxed));
  }
  return max;
}

uint64_t LatencyHistogram::OverflowCount() const {
  uint64_t overflow = 0;
  for (const Shard& s : shards_) {
    overflow += s.buckets[kOverflowBucket].load(std::memory_order_relaxed);
  }
  return overflow;
}

uint64_t LatencyHistogram::Percentile(double p) const {
  std::array<uint64_t, kBuckets> buckets;
  uint64_t count = 0;
  Fold(buckets, count);
  if (count == 0) {
    return 0;
  }
  const double clamped = std::clamp(p, 0.0, 100.0);
  // Nearest-rank over the folded buckets; rank is at least 1 so p=0 lands on
  // the smallest populated bucket instead of reading an empty prefix.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(clamped / 100.0 * static_cast<double>(count))));
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      if (i == kOverflowBucket) {
        return kOverflowValue;  // Over-range tail: +Inf, not a clamped max.
      }
      return std::min(BucketRepresentative(i), Max());
    }
  }
  return Max();
}

uint64_t LatencyHistogram::Digest() const {
  std::array<uint64_t, kBuckets> buckets;
  uint64_t count = 0;
  Fold(buckets, count);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const uint64_t b : buckets) {
    h = (h ^ b) * 0x100000001b3ULL;
  }
  return h;
}

Counter& Registry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>(std::string(name))).first;
  }
  return *it->second;
}

Gauge& Registry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>(std::string(name))).first;
  }
  return *it->second;
}

LatencyHistogram& Registry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<LatencyHistogram>(std::string(name)))
             .first;
  }
  return *it->second;
}

std::vector<MetricValue> Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricValue> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricValue v;
    v.name = name;
    v.kind = MetricValue::Kind::kCounter;
    v.value = c->Value();
    out.push_back(std::move(v));
  }
  for (const auto& [name, g] : gauges_) {
    MetricValue v;
    v.name = name;
    v.kind = MetricValue::Kind::kGauge;
    v.value = g->Value();
    out.push_back(std::move(v));
  }
  for (const auto& [name, h] : histograms_) {
    MetricValue v;
    v.name = name;
    v.kind = MetricValue::Kind::kHistogram;
    v.count = h->Count();
    v.mean = h->Mean();
    v.p50 = h->Percentile(50);
    v.p90 = h->Percentile(90);
    v.p99 = h->Percentile(99);
    v.p999 = h->Percentile(99.9);
    v.p9999 = h->Percentile(99.99);
    v.max = h->Max();
    v.overflow = h->OverflowCount();
    out.push_back(std::move(v));
  }
  return out;
}

std::string Registry::SnapshotJson() const {
  const std::vector<MetricValue> metrics = Snapshot();
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const MetricValue& m : metrics) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\"" << m.name << "\":";
    if (m.kind == MetricValue::Kind::kHistogram) {
      out << "{\"count\":" << m.count << ",\"mean\":";
      AppendJsonNumber(out, m.mean);
      out << ",\"p50\":" << m.p50 << ",\"p90\":" << m.p90 << ",\"p99\":" << m.p99
          << ",\"p999\":" << m.p999 << ",\"p9999\":" << m.p9999 << ",\"max\":" << m.max
          << ",\"overflow\":" << m.overflow << "}";
    } else {
      out << m.value;
    }
  }
  out << "}";
  return out.str();
}

}  // namespace sb::telemetry
