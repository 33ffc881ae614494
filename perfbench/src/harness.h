// Measurement harness shared by the perfbench workloads: host clocks,
// benchmark-side spans, layer counter snapshots, the simulated digest and
// the per-round result every workload returns.
//
// Two currencies are kept apart on purpose. Simulated quantities (cycles,
// registry counters, PMU tallies, reply bytes) are deterministic for a seed
// and land in RoundResult::sim; host quantities (wall time, RSS, span
// durations) are noisy and land everywhere else.

#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/hw/machine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

inline double SecondsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

// ---- Benchmark-side spans ----
// One record per call into a layer's public API, made from the benchmark's
// own code. Records stay in memory until the run ends. Spans nest through an
// explicit stack (one host thread drives each workload), so every record
// knows its parent and self time is derivable afterwards.
struct Span {
  const char* name = "";  // A string literal naming the layer call.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // Index into the log, -1 for a root span.
  uint64_t op = 0;      // Workload op id (setup spans use kSetupOp).
};

inline constexpr uint64_t kSetupOp = ~uint64_t{0};

class SpanLog {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Returns the record index, or -1 when tracing is off.
  int32_t Begin(const char* name, uint64_t op);
  void End(int32_t index);
  // Renames a finished span (classification known only after the call).
  void Rename(int32_t index, const char* name);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, uint64_t op)
      : log_(log), index_(log.enabled() ? log.Begin(name, op) : -1) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Ends the span early; returns its index (-1 when tracing is off).
  int32_t End() {
    if (index_ >= 0 && !ended_) {
      log_.End(index_);
      ended_ = true;
    }
    return index_;
  }

 private:
  SpanLog& log_;
  int32_t index_;
  bool ended_ = false;
};

// Per-name aggregate over the setup spans (op == kSetupOp) or the timed-phase
// spans of a log: count, total and self host time (a span's duration minus
// the part of it its children cover), and duration percentiles.
struct SpanSummary {
  uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
  double p50_ns = 0;
  double p99_ns = 0;
};
std::map<std::string, SpanSummary> SummarizeSpans(const std::vector<Span>& spans, bool setup);

// Writes the benchmark spans as Chrome trace-event JSON (load in
// chrome://tracing or Perfetto). At most `max_spans` records are written,
// the earliest first; the summary covers every span regardless.
void WriteSpansChromeJson(const std::string& path, const std::vector<Span>& spans,
                          size_t max_spans);

// ---- Simulated digest ----
inline constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
uint64_t FnvBytes(uint64_t h, std::span<const uint8_t> bytes);
uint64_t FnvWord(uint64_t h, uint64_t v);

// ---- Layer counters ----
// Every registry counter/gauge by name (except the host-side scan fan-out
// gauge), every histogram as <name>.count and
// <name>.sum, the per-core PMU tallies summed over cores (pmu.<field>) and
// the summed core clocks (hw.cycles) and the host frames backing simulated
// memory (hw.resident_frames). Take one before and one after a phase and
// subtract.
using Counts = std::map<std::string, double>;
Counts ReadMachineCounts(hw::Machine& machine);
// a - b, key by key (keys missing from b count as 0).
Counts Subtract(const Counts& a, const Counts& b);
void Accumulate(Counts& into, const Counts& add);
double Get(const Counts& counts, const std::string& key);

// ---- Host memory ----
double PeakRssMb();  // Peak resident set of this process so far.

// Exact nearest-rank percentile of `values`; 0 if empty.
template <typename T>
T Percentile(std::vector<T> values, double p) {
  if (values.empty()) {
    return T{};
  }
  const auto n = static_cast<double>(values.size());
  const auto rank = std::clamp<size_t>(static_cast<size_t>(std::ceil(p / 100.0 * n)), 1,
                                       values.size());
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

// The middle value, or the mean of the two middle values for an even count;
// 0 if empty.
template <typename T>
double Median(std::vector<T> values) {
  if (values.empty()) {
    return 0;
  }
  const size_t n = values.size();
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(n / 2);
  std::nth_element(values.begin(), mid, values.end());
  const auto upper = static_cast<double>(*mid);
  if (n % 2 == 1) {
    return upper;
  }
  return 0.5 * (static_cast<double>(*std::max_element(values.begin(), mid)) + upper);
}

// Mean of the values ranked between the 45th and 55th percentiles: a median
// estimator that stays continuous when the values form two populations with
// a gap at the middle (YCSB-A's reads and updates), where the plain median
// jumps between the slowest reads and the fastest updates with the mix.
double CentralMean(std::vector<uint64_t> values);

// ---- Host speed yardstick ----
// A fixed kernel that never changes with the program: hash lookups, 4 KiB
// copies and a sort over a working set small enough to stay in the core's
// L2 once warmed (so the program's cache footprint cannot bias it), plus a
// streaming fill that measures memory bandwidth. That is the simulator's own
// kind of work. Timed next to the workload, its rate tracks how fast the
// shared host runs at that moment: other tenants slow it by up to 40% for
// minutes at a time. The host metrics count each timed interval at the
// speed measured next to it, so they compare program against program rather
// than hour against hour.
class Yardstick {
 public:
  Yardstick();
  Yardstick(const Yardstick&) = delete;
  Yardstick& operator=(const Yardstick&) = delete;

  // Warms the kernel's data, times three passes (a few milliseconds in all)
  // and returns the median pass's speed relative to the reference host: 1.0
  // there, 0.7 on a host running 30% slower.
  double Sample();

 private:
  double TimedPass();

  std::unordered_map<uint64_t, uint64_t> table_;
  std::vector<uint8_t> buffer_;
  std::vector<uint32_t> keys_;
  std::vector<uint8_t> stream_;
  size_t stream_offset_ = 0;
  uint64_t state_ = 0x9e3779b97f4a7c15ULL;
  uint64_t sink_ = 0;
};

// ---- One round of a workload ----
// A round is a fresh simulated world: set it up, warm it, then run a fixed,
// seeded op sequence as the timed phase.
struct RoundSpec {
  uint64_t seed = 0;           // The run's --seed.
  uint32_t round = 0;          // Round index; inputs derive from (seed, round).
  uint64_t ops = 0;            // Timed ops in this round.
  SpanLog* spans = nullptr;    // Recording only while enabled (traced twin).
  Yardstick* yardstick = nullptr;
  double start_speed = 0;      // Yardstick at the round's start.
};

struct RoundResult {
  double setup_s = 0;   // Round start to the first timed op.
  double timed_s = 0;   // The timed phase, yardstick samples excluded.
  // The same two intervals in reference-host seconds: each stretch of host
  // time multiplied by the yardstick speed measured next to it.
  double setup_ref_s = 0;
  double timed_ref_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // Failed, refused or wrong-output ops.
  std::vector<std::string> errors;  // First few failure descriptions.
  // Per timed op, simulated: cycles the issuing core spent serving it, and
  // its latency (equal to the service time in a closed loop; from the
  // intended arrival in the open loop).
  std::vector<uint64_t> service_cycles;
  std::vector<uint64_t> latency_cycles;
  uint64_t digest = kFnvBasis;  // FNV over (latency, reply bytes) per op.
  // Simulated layer counts over the timed phase (plus the benchmark's own
  // span-site cycle sums); identical for a seed, traced or not.
  Counts sim;
  // Host seconds inside the load-generator target hooks.
  double hook_s = 0;
  // Pinned configuration as the world actually ran it.
  std::string backend;
  std::string registration_mode;
  int scan_pool_threads = 0;

  void Fail(std::string what) {
    ++failed;
    if (errors.size() < 8) {
      errors.push_back(std::move(what));
    }
  }
};

// Times a round's phases. Start() ends setup and starts the timed phase;
// Tick() after every timed op closes a slice of the phase about every
// kSliceNs and samples the yardstick; Stop() closes the last slice and ends
// the phase. The yardstick runs outside every timed interval, and every
// timed op falls in exactly one slice.
class PhaseTimer {
 public:
  static constexpr int64_t kSliceNs = 100'000'000;

  PhaseTimer(const RoundSpec& spec, RoundResult& result)
      : yardstick_(*spec.yardstick), start_speed_(spec.start_speed), r_(result) {}

  void Start(int64_t round_start_ns) {
    r_.setup_s = SecondsBetween(round_start_ns, NowNs());
    r_.setup_ref_s = r_.setup_s * 0.5 * (start_speed_ + yardstick_.Sample());
    slice_start_ns_ = NowNs();
  }
  void Tick() {
    if (NowNs() - slice_start_ns_ >= kSliceNs) {
      CloseSlice();
    }
  }
  void Stop() { CloseSlice(); }

 private:
  void CloseSlice() {
    const double s = SecondsBetween(slice_start_ns_, NowNs());
    r_.timed_s += s;
    r_.timed_ref_s += s * yardstick_.Sample();
    slice_start_ns_ = NowNs();
  }

  Yardstick& yardstick_;
  double start_speed_;
  RoundResult& r_;
  int64_t slice_start_ns_ = 0;
};

// Records one finished op into the round: its cycles, and the digest over
// (latency, reply bytes).
void RecordOp(RoundResult& r, uint64_t service, uint64_t latency,
              std::span<const uint8_t> reply);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
