#include "perfbench/src/harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string_view>

#include "src/base/telemetry/metrics.h"

namespace perfbench {

int32_t SpanLog::Begin(const char* name, uint64_t op) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.op = op;
  spans_.push_back(std::move(s));
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  // Stamp last, so the span's own bookkeeping is not inside it.
  spans_.back().start_ns = NowNs();
  return index;
}

void SpanLog::End(int32_t index) {
  const int64_t now = NowNs();
  spans_[static_cast<size_t>(index)].end_ns = now;
  if (!stack_.empty() && stack_.back() == index) {
    stack_.pop_back();
  }
}

void SpanLog::Rename(int32_t index, const char* name) {
  if (index >= 0) {
    spans_[static_cast<size_t>(index)].name = name;
  }
}

std::map<std::string, SpanSummary> SummarizeSpans(const std::vector<Span>& spans, bool setup) {
  // Children are recorded after their parent and end before it, so one pass
  // charges each child's duration to its parent's child time.
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, SpanSummary> out;
  std::map<std::string, std::vector<uint64_t>> durations;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if ((s.op == kSetupOp) != setup) {
      continue;
    }
    const auto d = static_cast<double>(s.end_ns - s.start_ns);
    SpanSummary& sum = out[s.name];
    ++sum.count;
    sum.total_ns += d;
    sum.self_ns += d - child_ns[i];
    durations[s.name].push_back(static_cast<uint64_t>(s.end_ns - s.start_ns));
  }
  for (auto& [name, values] : durations) {
    out[name].p50_ns = static_cast<double>(Percentile(values, 50));
    out[name].p99_ns = static_cast<double>(Percentile(std::move(values), 99));
  }
  return out;
}

void WriteSpansChromeJson(const std::string& path, const std::vector<Span>& spans,
                          size_t max_spans) {
  std::ofstream out(path);
  if (!out) {
    return;
  }
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"traceEvents\":[\n";
  const size_t n = std::min(spans.size(), max_spans);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d,\"op\":%lld}}%s\n",
                  s.name, static_cast<double>(s.start_ns - origin) / 1000.0,
                  static_cast<double>(s.end_ns - s.start_ns) / 1000.0, i, s.parent,
                  s.op == kSetupOp ? -1LL : static_cast<long long>(s.op),
                  i + 1 < n ? "," : "");
    out << line;
  }
  out << "]}\n";
}

namespace {
// One timed yardstick pass on the reference host (the 4-vCPU container the
// nominal rates were measured on, in a quiet period).
constexpr double kYardstickReferenceNs = 750000.0;
constexpr size_t kTableEntries = 4096;
constexpr size_t kBufferPages = 16;  // 64 KiB.
constexpr size_t kSortKeys = 512;
constexpr size_t kStreamStep = size_t{1} << 20;
constexpr size_t kStreamBytes = size_t{32} << 20;
}  // namespace

Yardstick::Yardstick()
    : buffer_(kBufferPages * 4096), keys_(kSortKeys), stream_(kStreamBytes, 1) {
  table_.reserve(kTableEntries);
  for (uint64_t i = 0; i < kTableEntries; ++i) {
    table_[i * 0x9e3779b97f4a7c15ULL] = i;
  }
  for (size_t i = 0; i < buffer_.size(); ++i) {
    buffer_[i] = static_cast<uint8_t>(i * 131);
  }
}

double Yardstick::TimedPass() {
  const auto next = [this] {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 20;
  };
  const int64_t start = NowNs();
  uint64_t acc = 0;
  for (int i = 0; i < 12000; ++i) {
    // Half the probes miss: keys run over twice the table's key range.
    const auto it = table_.find((next() % (kTableEntries * 2)) * 0x9e3779b97f4a7c15ULL);
    acc += it == table_.end() ? 1 : it->second;
  }
  for (int i = 0; i < 192; ++i) {
    std::memcpy(&buffer_[(next() % kBufferPages) * 4096], &buffer_[(next() % kBufferPages) * 4096],
                4096);
  }
  for (int rep = 0; rep < 3; ++rep) {
    for (uint32_t& k : keys_) {
      k = static_cast<uint32_t>(next());
    }
    std::sort(keys_.begin(), keys_.end());
    acc += keys_[kSortKeys / 2];
  }
  // Memory bandwidth, which spawning (zero-filled heaps) leans on.
  for (int i = 0; i < 2; ++i) {
    std::memset(&stream_[stream_offset_], i, kStreamStep);
    stream_offset_ = (stream_offset_ + kStreamStep) % stream_.size();
  }
  acc += stream_[stream_offset_];
  const int64_t elapsed = NowNs() - start;
  sink_ += acc + buffer_[next() % buffer_.size()];  // Keeps the results alive.
  return kYardstickReferenceNs / static_cast<double>(elapsed > 0 ? elapsed : 1);
}

double Yardstick::Sample() {
  TimedPass();  // Warm-up: the program's work evicted the kernel's data.
  std::vector<double> passes = {TimedPass(), TimedPass(), TimedPass()};
  return Median(passes);
}

uint64_t FnvBytes(uint64_t h, std::span<const uint8_t> bytes) {
  for (const uint8_t b : bytes) {
    h = (h ^ b) * 0x100000001b3ULL;
  }
  return h;
}

uint64_t FnvWord(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (i * 8)) & 0xff)) * 0x100000001b3ULL;
  }
  return h;
}

// The widest registration-scan fan-out so far: host threads the scan pool
// happened to use, which varies from run to run. Not a simulated count.
constexpr std::string_view kHostScanThreads = "skybridge.rewrite.scan_threads";

Counts ReadMachineCounts(hw::Machine& machine) {
  Counts c;
  using Kind = sb::telemetry::MetricValue::Kind;
  for (const sb::telemetry::MetricValue& m : machine.telemetry().Snapshot()) {
    if (m.name == kHostScanThreads) {
      continue;
    }
    if (m.kind == Kind::kHistogram) {
      c[m.name + ".count"] = static_cast<double>(m.count);
      c[m.name + ".sum"] = m.mean * static_cast<double>(m.count);
    } else {
      c[m.name] = static_cast<double>(m.value);
    }
  }
  hw::PmuCounters pmu;
  double cycles = 0;
  for (int i = 0; i < machine.num_cores(); ++i) {
    const hw::PmuCounters& p = machine.core(i).pmu();
    pmu.dcache_miss += p.dcache_miss;
    pmu.l2_miss += p.l2_miss;
    pmu.l3_miss += p.l3_miss;
    pmu.dtlb_miss += p.dtlb_miss;
    pmu.mem_accesses += p.mem_accesses;
    pmu.vm_exits += p.vm_exits;
    cycles += static_cast<double>(machine.core(i).cycles());
  }
  c["pmu.dcache_miss"] = static_cast<double>(pmu.dcache_miss);
  c["pmu.l2_miss"] = static_cast<double>(pmu.l2_miss);
  c["pmu.l3_miss"] = static_cast<double>(pmu.l3_miss);
  c["pmu.dtlb_miss"] = static_cast<double>(pmu.dtlb_miss);
  c["pmu.mem_accesses"] = static_cast<double>(pmu.mem_accesses);
  c["pmu.vm_exits"] = static_cast<double>(pmu.vm_exits);
  c["hw.cycles"] = cycles;
  c["hw.resident_frames"] = static_cast<double>(machine.mem().resident_frames());
  return c;
}

Counts Subtract(const Counts& a, const Counts& b) {
  Counts out;
  for (const auto& [key, value] : a) {
    out[key] = value - Get(b, key);
  }
  return out;
}

void Accumulate(Counts& into, const Counts& add) {
  for (const auto& [key, value] : add) {
    into[key] += value;
  }
}

double Get(const Counts& counts, const std::string& key) {
  const auto it = counts.find(key);
  return it == counts.end() ? 0.0 : it->second;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

double CentralMean(std::vector<uint64_t> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t lo = values.size() * 45 / 100;
  const size_t hi = std::max(lo + 1, values.size() * 55 / 100);
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) {
    sum += static_cast<double>(values[i]);
  }
  return sum / static_cast<double>(hi - lo);
}

void RecordOp(RoundResult& r, uint64_t service, uint64_t latency,
              std::span<const uint8_t> reply) {
  r.service_cycles.push_back(service);
  r.latency_cycles.push_back(latency);
  r.digest = FnvWord(r.digest, latency);
  r.digest = FnvBytes(r.digest, reply);
}

}  // namespace perfbench
