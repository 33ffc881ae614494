// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   sb_perfbench --workload {ycsb_sqlite,spawn_churn,mesh_zipf} --seed N
//                --seconds S --trace {0,1} [--out DIR]
//
// A run is a few rounds; each round builds a fresh simulated world from
// (seed, round), sets it up, warms it and times a fixed, seeded op sequence.
// host_ops_per_s is every round's timed ops over every round's timed
// seconds, setup_s the median round's setup, both in reference-host seconds
// (see Yardstick); simulated metrics pool every round's ops and repeat
// exactly for a seed.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs every round traced
// (benchmark spans around each layer call plus the program's own trace ring)
// plus an untraced twin of round 0, checks that the twins simulate
// identically, and prints the per-layer metrics. With --out, the traced run
// writes the spans and the trace ring there as Chrome trace JSON.
//
// Human-readable lines come first; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}. The exit code is 1
// when any op failed, returned a wrong reply, or a check failed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/base/telemetry/trace.h"
#include "src/base/units.h"

namespace perfbench {

namespace {

// Nominal rates: timed ops per reference-host second (see Yardstick),
// measured on a 4-vCPU x86-64 container.
const Workload kWorkloads[] = {
    {"ycsb_sqlite", RunYcsbSqliteRound, 36000.0, 1000000},
    // Spawns per round are bounded by memory: every worker keeps its 8 MiB
    // heap resident until the round's world is torn down.
    {"spawn_churn", RunSpawnChurnRound, 180.0, 200},
    {"mesh_zipf", RunMeshZipfRound, 95000.0, 1000000},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  int trace = 0;
  std::string out;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else if (flag == "--out") {
      args.out = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args.workload.empty() && args.seconds > 0 &&
         (args.trace == 0 || args.trace == 1);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Host throughput of the timed phases: ops completed ÷ wall seconds, over
// all rounds together. `normalized` counts the seconds at reference-host
// speed (see Yardstick).
double HostRate(std::span<const RoundResult> rounds, bool normalized) {
  double ops = 0;
  double seconds = 0;
  for (const RoundResult& r : rounds) {
    ops += static_cast<double>(r.service_cycles.size());
    seconds += normalized ? r.timed_ref_s : r.timed_s;
  }
  return Ratio(ops, seconds);
}

// Setup time is the median over rounds: each round sets up a fresh world, so
// one slow setup moves the median little.
double SetupSeconds(std::span<const RoundResult> rounds, bool normalized) {
  std::vector<double> setups;
  for (const RoundResult& r : rounds) {
    setups.push_back(normalized ? r.setup_ref_s : r.setup_s);
  }
  return Median(setups);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// The first simulated result two rounds on the same inputs disagree on, or
// "" when they agree.
std::string SimulationDiff(const RoundResult& a, const RoundResult& b) {
  if (a.digest != b.digest || a.service_cycles != b.service_cycles ||
      a.latency_cycles != b.latency_cycles) {
    return "per-op cycles or replies";
  }
  if (a.failed != b.failed) {
    return "failed ops";
  }
  for (const auto& [key, value] : a.sim) {
    if (Get(b.sim, key) != value) {
      return key + " " + FormatNumber(value) + " vs " + FormatNumber(Get(b.sim, key));
    }
  }
  return a.sim.size() == b.sim.size() ? "" : "counter sets";
}

std::vector<Metric> EndToEnd(std::span<const RoundResult> rounds, std::vector<uint64_t>& tails) {
  std::vector<uint64_t> service;
  std::vector<uint64_t> latency;
  for (const RoundResult& r : rounds) {
    service.insert(service.end(), r.service_cycles.begin(), r.service_cycles.end());
    latency.insert(latency.end(), r.latency_cycles.begin(), r.latency_cycles.end());
  }
  double service_sum = 0;
  for (const uint64_t c : service) {
    service_sum += static_cast<double>(c);
  }
  // Samples beyond each tail percentile, for the sample-count line.
  const auto beyond = [n = static_cast<double>(latency.size())](double p) {
    return static_cast<uint64_t>(n - std::ceil(p / 100.0 * n));
  };
  tails = {beyond(95), beyond(99)};
  return {
      {"host_ops_per_s", HostRate(rounds, true), "ops/s"},
      {"setup_s", SetupSeconds(rounds, true), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"sim_cycles_per_op", Ratio(service_sum, static_cast<double>(service.size())), "cycles"},
      {"sim_p50_cycles", CentralMean(latency), "cycles"},
      {"sim_p95_cycles", static_cast<double>(Percentile(latency, 95)), "cycles"},
      {"sim_p99_cycles", static_cast<double>(Percentile(latency, 99)), "cycles"},
  };
}

std::vector<Metric> PerLayer(const std::vector<RoundResult>& traced,
                             const std::vector<RoundResult>& untraced, const SpanLog& spans) {
  Counts sim;
  double ops = 0;
  double timed_s = 0;
  double hook_s = 0;
  for (const RoundResult& r : traced) {
    Accumulate(sim, r.sim);
    ops += static_cast<double>(r.service_cycles.size());
    timed_s += r.timed_s;
    hook_s += r.hook_s;
  }
  const std::span<const RoundResult> warm_traced =
      traced.size() > 1 ? std::span<const RoundResult>(traced).subspan(1) : traced;
  const auto s = [&sim](const char* key) { return Get(sim, key); };
  const double calls = s("skybridge.ipc.direct_calls");
  const double spawns = s("spawns");
  const auto per_op = [&](const char* key) { return Ratio(s(key), ops); };
  const auto per_call = [&](const char* key) { return Ratio(s(key), calls); };
  const auto per_spawn = [&](const char* key) { return Ratio(s(key), spawns); };

  // Host span durations over the timed phase, by layer call.
  const std::map<std::string, SpanSummary> timed = SummarizeSpans(spans.spans(), false);
  std::vector<uint64_t> reg_all;
  std::vector<uint64_t> reg_miss;
  std::vector<uint64_t> reg_hit;
  for (const Span& sp : spans.spans()) {
    if (sp.op == kSetupOp) {
      continue;
    }
    const auto d = static_cast<uint64_t>(sp.end_ns - sp.start_ns);
    if (std::strcmp(sp.name, "skybridge.register_client.miss") == 0) {
      reg_miss.push_back(d);
      reg_all.push_back(d);
    } else if (std::strcmp(sp.name, "skybridge.register_client.hit") == 0) {
      reg_hit.push_back(d);
      reg_all.push_back(d);
    }
  }
  const auto span_p = [&timed](const char* name, bool p99, double scale) {
    const auto it = timed.find(name);
    return it == timed.end() ? 0.0 : (p99 ? it->second.p99_ns : it->second.p50_ns) / scale;
  };
  const auto p50_us = [](const std::vector<uint64_t>& v) {
    return static_cast<double>(Percentile(v, 50)) / 1000.0;
  };
  const double lookups = s("skybridge.lookup.hits") + s("skybridge.lookup.misses");
  const double cache_lookups =
      s("skybridge.registration.cache_hits") + s("skybridge.registration.cache_misses");
  const double failed_calls = s("skybridge.ipc.rejected_calls") + s("skybridge.ipc.timeouts") +
                              s("skybridge.ipc.aborted_calls") +
                              s("skybridge.ipc.gate_rejections");

  return {
      // apps / db
      {"apps.sqlite.read.host_us_p50", span_p("apps.sqlite.read", false, 1e3), "us"},
      {"apps.sqlite.read.host_us_p99", span_p("apps.sqlite.read", true, 1e3), "us"},
      {"apps.sqlite.update.host_us_p50", span_p("apps.sqlite.update", false, 1e3), "us"},
      {"apps.sqlite.update.host_us_p99", span_p("apps.sqlite.update", true, 1e3), "us"},
      {"apps.sqlite.read.sim_cycles_mean",
       Ratio(s("sqlite.read.cycles"), s("sqlite.read.count")), "cycles"},
      {"apps.sqlite.update.sim_cycles_mean",
       Ratio(s("sqlite.update.cycles"), s("sqlite.update.count")), "cycles"},
      {"db.row_cache_hit_rate", Ratio(s("db.row_cache_hits"), s("db.queries")), "fraction"},
      // fs
      {"fs.block_reads_per_op", per_op("fs.block_reads"), "count/op"},
      {"fs.block_writes_per_op", per_op("fs.block_writes"), "count/op"},
      {"fs.cache_hit_rate", Ratio(s("fs.cache_hits"), s("fs.cache_hits") + s("fs.block_reads")),
       "fraction"},
      // skybridge call path
      {"skybridge.call.host_ns_p50", span_p("skybridge.call", false, 1), "ns"},
      {"skybridge.call.host_ns_p99", span_p("skybridge.call", true, 1), "ns"},
      {"skybridge.crossings_per_op", Ratio(calls, ops), "count/op"},
      {"skybridge.inplace_calls_per_op", per_op("skybridge.ipc.inplace_calls"), "count/op"},
      {"skybridge.lookup.hit_rate", Ratio(s("skybridge.lookup.hits"), lookups), "fraction"},
      {"skybridge.failed_calls_per_op", Ratio(failed_calls, ops), "count/op"},
      {"skybridge.phase.vmfunc.sim_cycles_per_op", per_op("skybridge.phase.vmfunc.sum"),
       "cycles/op"},
      {"skybridge.phase.trampoline.sim_cycles_per_op", per_op("skybridge.phase.trampoline.sum"),
       "cycles/op"},
      {"skybridge.phase.copy.sim_cycles_per_op", per_op("skybridge.phase.copy.sum"),
       "cycles/op"},
      {"skybridge.phase.total.sim_cycles_per_op", per_op("skybridge.phase.total.sum"),
       "cycles/op"},
      // skybridge EPTP slots
      {"skybridge.eptp.slot_faults_per_call", per_call("skybridge.eptp.slot_faults"),
       "count/call"},
      {"skybridge.eptp.slot_evictions_per_call", per_call("skybridge.eptp.slot_evictions"),
       "count/call"},
      {"skybridge.stale_slot_retries_per_call", per_call("skybridge.ipc.stale_slot_retries"),
       "count/call"},
      {"skybridge.phase.slot_fault.sim_cycles_per_call",
       per_call("skybridge.phase.slot_fault.sum"), "cycles/call"},
      // skybridge registration + x86
      {"skybridge.register_client.host_us_p50", p50_us(reg_all), "us"},
      {"skybridge.register_client.miss.host_us_p50", p50_us(reg_miss), "us"},
      {"skybridge.register_client.hit.host_us_p50", p50_us(reg_hit), "us"},
      {"skybridge.register_client.sim_cycles_mean",
       Ratio(s("skybridge.register_client.cycles"), s("skybridge.register_client.count")),
       "cycles"},
      {"skybridge.registration.cache_hit_rate",
       Ratio(s("skybridge.registration.cache_hits"), cache_lookups), "fraction"},
      {"skybridge.rewrite.scan_pages_per_spawn", per_spawn("skybridge.rewrite.scan_pages"),
       "count/spawn"},
      {"skybridge.rewrite.vmfuncs_per_spawn", per_spawn("skybridge.rewrite.vmfuncs"),
       "count/spawn"},
      // mk
      {"mk.create_process.host_us_p50", span_p("mk.create_process", false, 1e3), "us"},
      {"mk.create_process.host_us_p99", span_p("mk.create_process", true, 1e3), "us"},
      {"mk.create_process.sim_cycles_mean",
       Ratio(s("mk.create_process.cycles"), s("mk.create_process.count")), "cycles"},
      {"mk.context_switch.host_ns_p50", span_p("mk.context_switch", false, 1), "ns"},
      {"mk.context_switches_per_call", per_call("mk.sched.context_switches"), "count/call"},
      // vmm
      {"vmm.ept.created_per_spawn", per_spawn("vmm.ept.created"), "count/spawn"},
      {"vmm.ept.pages_per_spawn", per_spawn("vmm.ept.pages"), "count/spawn"},
      {"vmm.exits_per_call", per_call("pmu.vm_exits"), "count/call"},
      // hw
      {"hw.mem_accesses_per_op", per_op("pmu.mem_accesses"), "count/op"},
      {"hw.l1d_misses_per_op", per_op("pmu.dcache_miss"), "count/op"},
      {"hw.l2_misses_per_op", per_op("pmu.l2_miss"), "count/op"},
      {"hw.l3_misses_per_op", per_op("pmu.l3_miss"), "count/op"},
      {"hw.dtlb_misses_per_op", per_op("pmu.dtlb_miss"), "count/op"},
      {"hw.rss_mb_per_spawn",
       per_spawn("hw.resident_frames") * static_cast<double>(sb::kPageSize) / sb::kMiB,
       "MB/spawn"},
      // sim: host time the generator spends outside the target hooks
      {"sim.loadgen.host_share", hook_s > 0 ? Ratio(timed_s - hook_s, timed_s) : 0.0,
       "fraction"},
      // base.telemetry
      {"base.telemetry.trace_overhead_frac",
       1.0 - Ratio(HostRate(warm_traced, true), HostRate(untraced, true)), "fraction"},
  };
}

void PrintSpanTable(const char* title, const std::map<std::string, SpanSummary>& summary) {
  std::printf("%s\n", title);
  std::printf("  %-36s %10s %12s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms",
              "p50_us", "p99_us");
  for (const auto& [name, s] : summary) {
    std::printf("  %-36s %10llu %12.3f %12.3f %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(s.count), s.total_ns / 1e6, s.self_ns / 1e6,
                s.p50_ns / 1e3, s.p99_ns / 1e3);
  }
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: sb_perfbench --workload {ycsb_sqlite,spawn_churn,mesh_zipf} --seed N "
                 "--seconds S --trace {0,1} [--out DIR]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // Pin the library-wide defaults too, for worlds that build their own
  // SkyBridgeConfig.
  setenv("SB_CROSSING_BACKEND", skybridge::CrossingBackendName(kPinnedBackend), 1);
  setenv("SB_REGISTRATION_MODE", skybridge::RegistrationModeName(kPinnedRegistration), 1);

  const double budget = std::max(1.0, args.seconds * workload->nominal_ops_per_s);
  const auto rounds = std::max<uint32_t>(
      kMinRounds,
      static_cast<uint32_t>(std::ceil(budget / static_cast<double>(workload->max_ops_per_round))));
  const uint64_t ops = std::max<uint64_t>(1, static_cast<uint64_t>(budget / rounds));

  std::vector<RoundResult> untraced;
  std::vector<RoundResult> traced;
  Yardstick yardstick;
  SpanLog no_spans;
  SpanLog spans;
  std::string ring_json;
  for (uint32_t round = 0; round < rounds; ++round) {
    RoundSpec spec;
    spec.seed = args.seed;
    spec.round = round;
    spec.ops = ops;
    spec.spans = &no_spans;
    spec.yardstick = &yardstick;
    spec.start_speed = yardstick.Sample();
    if (args.trace == 0) {
      untraced.push_back(workload->run_round(spec));
      continue;
    }
    spec.spans = &spans;
    spans.set_enabled(true);
    sb::telemetry::TraceClear();
    sb::telemetry::SetTraceEnabled(true);
    traced.push_back(workload->run_round(spec));
    sb::telemetry::SetTraceEnabled(false);
    spans.set_enabled(false);
    ring_json = sb::telemetry::TraceChromeJson(sb::telemetry::TraceSnapshot());
    if (round == 0) {
      spec.spans = &no_spans;
      spec.start_speed = yardstick.Sample();
      untraced.push_back(workload->run_round(spec));
    }
  }
  // The traced run repeats round 0 untraced: both twins must simulate
  // identically. The twin runs second, so that it and the later traced
  // rounds (not the process's cold first round) give the tracing overhead.
  const std::string twin_diff =
      args.trace == 1 ? SimulationDiff(untraced.front(), traced.front()) : "";
  const bool identical = twin_diff.empty();
  const std::vector<RoundResult>& reported = args.trace == 1 ? traced : untraced;

  // ---- Correctness ----
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t digest = kFnvBasis;
  for (const std::vector<RoundResult>* list : {&untraced, &traced}) {
    for (const RoundResult& r : *list) {
      attempted += r.attempted;
      failed += r.failed;
      for (const std::string& e : r.errors) {
        std::printf("FAILED: %s\n", e.c_str());
      }
    }
  }
  for (const RoundResult& r : reported) {
    digest = FnvWord(digest, r.digest);
  }
  if (!identical) {
    std::printf("FAILED: traced round 0 simulated differently from its untraced twin: %s\n",
                twin_diff.c_str());
  }
  const bool correct = failed == 0 && identical && attempted > 0;

  // ---- Report ----
  const RoundResult& first = reported.front();
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", workload->name,
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
  std::printf("config backend=%s registration=%s scan_pool_threads=%d rewrite_cache=default "
              "rounds=%u ops_per_round=%llu\n",
              first.backend.c_str(), first.registration_mode.c_str(), first.scan_pool_threads,
              rounds, static_cast<unsigned long long>(ops));
  std::printf("build type=%s flags=%s\n", PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
  for (const std::vector<RoundResult>* list : {&untraced, &traced}) {
    for (size_t i = 0; i < list->size(); ++i) {
      const RoundResult& r = (*list)[i];
      std::printf("round %zu%s: setup %.3f s, timed %.3f s, %zu ops, host speed %.3f, "
                  "digest %016llx\n",
                  i, list == &traced ? " traced" : "", r.setup_s, r.timed_s,
                  r.service_cycles.size(), Ratio(r.timed_ref_s, r.timed_s),
                  static_cast<unsigned long long>(r.digest));
    }
  }
  std::printf("sim_digest %016llx\n", static_cast<unsigned long long>(digest));
  std::vector<uint64_t> tails;
  const std::vector<Metric> e2e = EndToEnd(reported, tails);
  std::printf("raw host figures, wall seconds not rescaled by the yardstick: host_ops_per_s "
              "%.10g ops/s, setup_s %.10g s\n",
              HostRate(reported, false), SetupSeconds(reported, false));
  std::printf("ops_failed_frac %.10g fraction (%llu of %llu)\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));
  for (const Metric& m : e2e) {
    std::printf("%s %s %s", m.name.c_str(), FormatNumber(m.value).c_str(), m.unit.c_str());
    if (m.name == "sim_p95_cycles") {
      std::printf(" (%llu samples beyond)", static_cast<unsigned long long>(tails[0]));
    } else if (m.name == "sim_p99_cycles") {
      std::printf(" (%llu samples beyond)", static_cast<unsigned long long>(tails[1]));
    }
    std::printf("\n");
  }
  std::vector<Metric> layer;
  if (args.trace == 1) {
    layer = PerLayer(traced, untraced, spans);
    for (const Metric& m : layer) {
      std::printf("%s %s %s\n", m.name.c_str(), FormatNumber(m.value).c_str(), m.unit.c_str());
    }
    PrintSpanTable("benchmark spans, timed phase (host time):",
                   SummarizeSpans(spans.spans(), false));
    PrintSpanTable("benchmark spans, setup (host time):", SummarizeSpans(spans.spans(), true));
    if (!args.out.empty()) {
      const std::string stem = args.out + "/" + workload->name + "-seed" +
                               std::to_string(args.seed);
      WriteSpansChromeJson(stem + "-spans.json", spans.spans(), 50000);
      WriteFile(stem + "-ring.json", ring_json);
      std::printf("traces %s-spans.json %s-ring.json\n", stem.c_str(), stem.c_str());
    }
  }

  const std::vector<Metric>& metrics = args.trace == 1 ? layer : e2e;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed + (identical ? 0 : 1));
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
