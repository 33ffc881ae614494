// ycsb_sqlite: YCSB-A (50% read / 50% update, zipfian theta 0.99) from one
// closed-loop client on the paper's Section 6.5 stack, minisql -> xv6fs ->
// RAM disk over nested SkyBridge calls (the Figure 9 one-thread point).
//
// db, fs, apps and the long-message (in-place shared-buffer) path do most of
// their work here. Every read is checked against a shadow map of the last
// value written to its key.

#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/apps/sqlite_stack.h"
#include "src/apps/ycsb.h"
#include "src/base/rng.h"

namespace perfbench {
namespace {

constexpr uint64_t kRecords = 2000;
constexpr uint64_t kWarmupOps = 1000;
constexpr uint32_t kValueLen = 100;

struct YcsbInputs {
  std::vector<apps::YcsbOp> warmup;
  std::vector<apps::YcsbOp> timed;
  // Value written by each update op (indexed like the op streams; empty for
  // reads).
  std::vector<std::vector<uint8_t>> warmup_values;
  std::vector<std::vector<uint8_t>> timed_values;
};

void GenerateOps(uint64_t seed, uint64_t count, std::vector<apps::YcsbOp>& ops,
                 std::vector<std::vector<uint8_t>>& values, sb::Rng& value_rng) {
  apps::YcsbConfig wl = apps::YcsbA();
  wl.record_count = kRecords;
  wl.seed = seed;
  apps::YcsbWorkload workload(wl);
  ops.reserve(count);
  values.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ops.push_back(workload.NextOp());
  }
  for (uint64_t i = 0; i < count; ++i) {
    std::vector<uint8_t> value;
    if (ops[i].type == apps::YcsbOpType::kUpdate) {
      value.resize(kValueLen);
      for (auto& byte : value) {
        byte = static_cast<uint8_t>(value_rng.Next());
      }
    }
    values.push_back(std::move(value));
  }
}

}  // namespace

RoundResult RunYcsbSqliteRound(const RoundSpec& spec) {
  const int64_t round_start = NowNs();
  SpanLog& spans = *spec.spans;
  RoundResult r;

  // ---- Inputs, all from the seed, before anything is timed ----
  YcsbInputs in;
  sb::Rng value_rng(StreamSeed(spec.seed, spec.round, 3));
  GenerateOps(StreamSeed(spec.seed, spec.round, 1), kWarmupOps, in.warmup, in.warmup_values,
              value_rng);
  GenerateOps(StreamSeed(spec.seed, spec.round, 2), spec.ops, in.timed, in.timed_values,
              value_rng);
  // The shadow starts as the stack's own preload: apps::SqliteStack inserts
  // YcsbWorkload(record_count = preload).ValueFor(key) for every key.
  std::unordered_map<uint64_t, std::vector<uint8_t>> shadow;
  {
    apps::YcsbConfig preload;
    preload.record_count = kRecords;
    const apps::YcsbWorkload preload_values(preload);
    for (uint64_t key = 0; key < kRecords; ++key) {
      shadow[key] = preload_values.ValueFor(key);
    }
  }

  // ---- World: boot, wire the three servers, preload ----
  apps::SqliteStackConfig config;
  config.kernel = mk::KernelKind::kSel4;
  config.transport = apps::StackTransport::kSkyBridge;
  config.num_client_threads = 1;
  config.preload_records = kRecords;
  // SQLite-like cache sizing (as in bench_table4 and bench_fig9_11): the
  // zipfian tail still reaches the file system and the RAM disk.
  config.db.row_cache_entries = 96;
  config.db.pager_cache_pages = 48;
  std::unique_ptr<apps::SqliteStack> stack;
  {
    ScopedSpan span(spans, "setup.sqlite_stack.create", kSetupOp);
    auto created = apps::SqliteStack::Create(config);
    if (!created.ok()) {
      r.Fail("SqliteStack::Create: " + created.status().ToString());
      return r;
    }
    stack = std::move(*created);
  }
  CheckPinnedConfig(*stack->sky(), r);
  hw::Core& core = stack->machine().core(stack->client_thread(0)->core_id());

  // One op, checked. Reads must return the shadow value; updates move it.
  struct {
    double reads = 0, read_cycles = 0, updates = 0, update_cycles = 0;
  } sums;
  const auto run_op = [&](const apps::YcsbOp& op, const std::vector<uint8_t>& value,
                          uint64_t op_id, bool timed) {
    const uint64_t c0 = core.cycles();
    if (op.type == apps::YcsbOpType::kRead) {
      sb::StatusOr<std::vector<uint8_t>> got = [&] {
        ScopedSpan span(spans, "apps.sqlite.read", op_id);
        return stack->Query(0, op.key);
      }();
      const uint64_t cycles = core.cycles() - c0;
      if (!got.ok()) {
        r.Fail("read key " + std::to_string(op.key) + ": " + got.status().ToString());
      } else if (*got != shadow[op.key]) {
        r.Fail("read key " + std::to_string(op.key) + " returned a stale or wrong value");
      }
      if (timed) {
        sums.reads += 1;
        sums.read_cycles += static_cast<double>(cycles);
        RecordOp(r, cycles, cycles,
                 got.ok() ? std::span<const uint8_t>(*got) : std::span<const uint8_t>());
      }
      return;
    }
    sb::Status status = [&] {
      ScopedSpan span(spans, "apps.sqlite.update", op_id);
      return stack->Update(0, op.key, value);
    }();
    const uint64_t cycles = core.cycles() - c0;
    if (!status.ok()) {
      r.Fail("update key " + std::to_string(op.key) + ": " + status.ToString());
    } else {
      shadow[op.key] = value;
    }
    if (timed) {
      sums.updates += 1;
      sums.update_cycles += static_cast<double>(cycles);
      RecordOp(r, cycles, cycles, {});
    }
  };

  // ---- Warm-up: fills the row cache, pager, buffer cache and TLBs ----
  {
    ScopedSpan span(spans, "setup.warmup", kSetupOp);
    for (size_t i = 0; i < in.warmup.size(); ++i) {
      run_op(in.warmup[i], in.warmup_values[i], kSetupOp, /*timed=*/false);
    }
  }

  // ---- Timed phase ----
  const Counts machine_before = ReadMachineCounts(stack->machine());
  const minisql::DbStats db_before = stack->db().stats();
  const fsys::FsStats fs_before = stack->fs().stats();
  r.service_cycles.reserve(in.timed.size());
  r.latency_cycles.reserve(in.timed.size());
  PhaseTimer timer(spec, r);
  timer.Start(round_start);
  for (size_t i = 0; i < in.timed.size(); ++i) {
    run_op(in.timed[i], in.timed_values[i], i, /*timed=*/true);
    timer.Tick();
  }
  timer.Stop();
  r.attempted = in.warmup.size() + in.timed.size();  // Every checked op.

  const sb::Status invariants = stack->sky()->CheckInvariants();
  if (!invariants.ok()) {
    r.Fail("CheckInvariants: " + invariants.ToString());
  }
  r.sim = Subtract(ReadMachineCounts(stack->machine()), machine_before);
  r.sim["sqlite.read.count"] = sums.reads;
  r.sim["sqlite.read.cycles"] = sums.read_cycles;
  r.sim["sqlite.update.count"] = sums.updates;
  r.sim["sqlite.update.cycles"] = sums.update_cycles;
  const minisql::DbStats& db = stack->db().stats();
  const fsys::FsStats& fs = stack->fs().stats();
  r.sim["db.queries"] = static_cast<double>(db.queries - db_before.queries);
  r.sim["db.row_cache_hits"] = static_cast<double>(db.row_cache_hits - db_before.row_cache_hits);
  r.sim["fs.block_reads"] = static_cast<double>(fs.block_reads - fs_before.block_reads);
  r.sim["fs.block_writes"] = static_cast<double>(fs.block_writes - fs_before.block_writes);
  r.sim["fs.cache_hits"] = static_cast<double>(fs.cache_hits - fs_before.cache_hits);
  return r;
}

}  // namespace perfbench
