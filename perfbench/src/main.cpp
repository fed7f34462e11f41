// perfbench: the end-to-end benchmark of the subsum broker network.
//
//   perfbench --workload fig7-publish|cw24-churn|sim-scale --seed N
//             --seconds S --trace 0|1 [--inject none|drop|dup|false]
//             [--work-dir DIR]
//
// Prints operations attempted/failed by kind and every metric with its
// unit, then, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run adds traced rounds and reports the per-layer metrics instead, after
// a table of the tracing overhead. Exits 1 when any output check fails,
// 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>

#include <sched.h>

#include "bench.h"

namespace {

/// Confines the process, and every thread it starts later, to the last CPU
/// it may run on; returns that CPU, or -1 if it could not.
///
/// Brokers, clients and load then share one CPU, so a thread wakes another
/// on the same run queue. Spread over the VM's CPUs, every peer hop and
/// period step woke a thread on another vCPU, and on a shared host each
/// such wake-up waited for the hypervisor whenever that vCPU had been given
/// away (steal): unpinned, fig7's wall-clock metrics moved by up to 2x and
/// its CPU time per publish by 35 % between runs of one build.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

/// Jiffies of one CPU's line of /proc/stat ("cpu" for all): {steal, total}.
std::pair<uint64_t, uint64_t> cpu_jiffies(const std::string& name) {
  std::ifstream in("/proc/stat");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string cpu;
    fields >> cpu;
    if (cpu != name) continue;
    uint64_t v = 0, total = 0, steal = 0;
    for (int i = 0; i < 8 && fields >> v; ++i) {
      total += v;
      if (i == 7) steal = v;
    }
    return {steal, total};
  }
  return {0, 0};
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload fig7-publish|cw24-churn|sim-scale --seed N"
               " --seconds S --trace 0|1 [--inject none|drop|dup|false] [--work-dir DIR]\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
      if (!(o.seconds > 0)) usage("--seconds must be positive");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--inject") {
      if (v == "none") o.inject = perfbench::Inject::kNone;
      else if (v == "drop") o.inject = perfbench::Inject::kDrop;
      else if (v == "dup") o.inject = perfbench::Inject::kDup;
      else if (v == "false") o.inject = perfbench::Inject::kFalse;
      else usage("unknown --inject " + v);
    } else if (a == "--work-dir") {
      o.work_dir = v;
    } else {
      usage("unknown argument " + a);
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  const int cpu = pin_to_one_cpu();
  std::filesystem::create_directories(opt.work_dir);
  perfbench::Report rep;
  const std::string cpu_name = cpu < 0 ? "cpu" : "cpu" + std::to_string(cpu);
  const auto jiffies0 = cpu_jiffies(cpu_name);
  std::cout << "workload " << opt.workload << ", seed " << opt.seed << ", " << opt.seconds
            << " s, trace " << (opt.trace ? 1 : 0)
            << (opt.workload == "sim-scale" ? " (in-process, no sockets)"
                                            : " (in-process brokers over loopback TCP)")
            << ", " << (cpu < 0 ? "not pinned" : "pinned to " + cpu_name) << "\n";
  try {
    if (opt.workload == "fig7-publish") {
      perfbench::run_fig7_publish(opt, rep);
    } else if (opt.workload == "cw24-churn") {
      perfbench::run_cw24_churn(opt, rep);
    } else if (opt.workload == "sim-scale") {
      perfbench::run_sim_scale(opt, rep);
    } else {
      usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    rep.error(std::string("run aborted: ") + e.what());
  }
  // Durable broker state and probe files are scratch; span logs are kept.
  for (const char* dir : {"cw24-data", "wal-probe", "snapshot-probe"}) {
    std::filesystem::remove_all(std::filesystem::path(opt.work_dir) / dir);
  }
  // Time the hypervisor gave the benchmark's CPU to others: on a shared
  // host it is the main source of run-to-run spread, so every run reports it.
  const auto jiffies1 = cpu_jiffies(cpu_name);
  if (jiffies1.second > jiffies0.second) {
    std::printf("host cpu steal during the run: %.1f%% of %s time\n",
                100.0 * static_cast<double>(jiffies1.first - jiffies0.first) /
                    static_cast<double>(jiffies1.second - jiffies0.second),
                cpu_name.c_str());
  }
  rep.print(opt.trace);
  return rep.correct() ? 0 : 1;
}
