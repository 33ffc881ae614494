// Table 6: inadvertent VMFUNC instructions found by the SkyBridge scanner
// across a program corpus (synthetic stand-ins sized after the paper's rows)
// plus a raw scan of this very benchmark binary (on stderr: its size differs
// between builds).

#include <cstdio>
#include <fstream>
#include <map>

#include "bench/bench_util.h"
#include "src/apps/corpus.h"
#include "src/base/table.h"
#include "src/x86/rewriter.h"
#include "src/x86/scanner.h"

int main(int argc, char** argv) {
  bench::JsonReporter reporter("bench_table6_vmfunc_scan", argc, argv);
  std::printf("== Table 6: inadvertent VMFUNC occurrences (0F 01 D4) ==\n");
  std::printf("Paper: zero across SPEC/PARSEC/servers/kernel; exactly one in\n");
  std::printf("GIMP-2.8, inside the immediate of a longer call instruction.\n\n");

  const auto corpus = apps::BuildTable6Corpus(0x5eed);

  // Group by corpus family for the table.
  std::map<std::string, std::pair<int, size_t>> groups;  // name -> {count, bytes}
  std::map<std::string, int> hits;
  std::string hit_detail;
  for (const auto& program : corpus) {
    std::string family = program.name.substr(0, program.name.find('-'));
    if (program.name.rfind("GIMP", 0) == 0 || program.name.rfind("Nginx", 0) == 0 ||
        program.name.rfind("Apache", 0) == 0 || program.name.rfind("Memcached", 0) == 0 ||
        program.name.rfind("Redis", 0) == 0 || program.name.rfind("vmlinux", 0) == 0) {
      family = program.name;
    }
    groups[family].first += 1;
    groups[family].second += program.code.size();
    const auto found = x86::ScanForVmfunc(program.code);
    hits[family] += static_cast<int>(found.size());
    for (const auto& hit : found) {
      hit_detail = program.name + ": pattern at offset " + std::to_string(hit.pattern_off) +
                   " (" + std::string(x86::VmfuncOverlapName(hit.overlap)) + ")";
    }
  }

  sb::Table table({"Program", "Count", "Avg code size (KB)", "VMFUNC count"});
  int total = 0;
  for (const auto& [family, info] : groups) {
    table.AddRow({family, sb::Table::Int(static_cast<uint64_t>(info.first)),
                  sb::Table::Int(info.second / static_cast<size_t>(info.first) / 1024),
                  sb::Table::Int(static_cast<uint64_t>(hits[family]))});
    total += hits[family];
  }
  table.Print();
  reporter.Add("corpus_programs", static_cast<uint64_t>(corpus.size()));
  reporter.Add("inadvertent_vmfuncs", static_cast<uint64_t>(total));
  std::printf("\ntotal inadvertent occurrences: %d (paper: 1)\n", total);
  if (!hit_detail.empty()) {
    std::printf("the hit: %s\n", hit_detail.c_str());
  }

  // Rewrite the offending program and confirm the pattern is gone.
  for (const auto& program : corpus) {
    if (x86::FindVmfuncBytes(program.code).empty()) {
      continue;
    }
    x86::RewriteConfig config;
    auto rewritten = x86::RewriteVmfunc(program.code, config);
    if (rewritten.ok()) {
      std::printf("after rewriting %s: %zu occurrences remain (windows relocated: %d)\n",
                  program.name.c_str(), x86::FindVmfuncBytes(rewritten->code).size(),
                  rewritten->stats.windows_relocated);
    } else {
      std::printf("rewrite of %s failed: %s\n", program.name.c_str(),
                  rewritten.status().ToString().c_str());
    }
  }

  // Bonus row: raw byte scan of this very binary.
  std::ifstream self("/proc/self/exe", std::ios::binary);
  if (self) {
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(self)),
                               std::istreambuf_iterator<char>());
    const auto raw = x86::FindVmfuncBytes(bytes);
    // On stderr: the binary's size differs between builds, and stdout stays
    // diffable across commits.
    std::fprintf(stderr, "\nraw scan of this benchmark binary (%zu KB): %zu byte-level matches\n",
                 bytes.size() / 1024, raw.size());
    std::fprintf(stderr,
                 "(byte-level matches include data sections; the paper scans code pages)\n");
  }
  return 0;
}
