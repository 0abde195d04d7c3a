// rfaas_bench: one workload of the rfaas-sim benchmark per process.
//
//   rfaas_bench --workload <hot-invoke|lease-churn|alloc-cycle> --seed <n>
//               --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Prints every metric by name with its unit and clock, then, as the last
// line, one JSON object {"correct","attempted","failed","metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// A failed correctness check exits with code 3 and prints the seed.
#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.hpp"

namespace rfs::perfbench {
namespace {

/// Spans written to the Perfetto file (the self-time table covers all):
/// keeps one trace file to a few MiB.
constexpr std::size_t kMaxTraceSpans = 20'000;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, emitted by every workload (BENCHMARK.json
/// "end_to_end"). "op" is the workload's unit of work: an invocation
/// (hot-invoke), an offered lease request (lease-churn), an allocation
/// cycle (alloc-cycle); op latency is invocation RTT, admitted grant
/// latency, and allocate -> ready respectively.
constexpr MetricDef kEndToEnd[] = {
    {"op_p50_us", "us"},      {"op_p99_us", "us"}, {"op_rate_hz", "1/s"},
    {"host_us_per_op", "us"}, {"setup_s", "s"},    {"peak_rss_mb", "MiB"},
};

/// Per-layer metrics (BENCHMARK.json "per_layer"), emitted with --trace 1
/// by every workload; a layer the workload does not exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    {"sim.events_per_op", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.queue_depth_p50", "count"},
    {"sim.queue_depth_max", "count"},
    {"sim.step_ns.d16", "ns"},
    {"sim.step_ns.d4096", "ns"},
    {"host.allocs_per_op", "count"},
    {"host.alloc_bytes_per_op", "B"},
    {"host.measured_us_per_op", "us"},
    {"host.calibration_us", "us"},
    {"host.measured_setup_s", "s"},
    {"fabric.rdma_rtt_us.1B", "us"},
    {"fabric.rdma_rtt_us.4KiB", "us"},
    {"fabric.post_poll_ns", "ns"},
    {"net.tcp_rtt_us.64B", "us"},
    {"net.tcp_msg_ns", "ns"},
    {"rdmalib.buffer_alloc_us", "us"},
    {"protocol.codec_ns.lease_request", "ns"},
    {"protocol.codec_ns.lease_grant", "ns"},
    {"protocol.codec_ns.extend_lease", "ns"},
    {"protocol.codec_ns.journal_record", "ns"},
    {"protocol.codec_ns.invocation_header", "ns"},
    {"protocol.allocs_per_roundtrip", "count"},
    {"invoker.noop_rtt_us", "us"},
    {"invoker.overhead_ns", "ns"},
    {"invoker.attempts_per_call", "count"},
    {"coldstart.connect_manager_ms", "ms"},
    {"coldstart.lease_ms", "ms"},
    {"coldstart.submit_allocation_ms", "ms"},
    {"coldstart.spawn_workers_ms", "ms"},
    {"coldstart.connect_workers_ms", "ms"},
    {"coldstart.submit_code_ms", "ms"},
    {"executor.warm_hit_pct", "%"},
    {"executor.warm_pool_mb", "MiB"},
    {"manager.grant_release_us", "us"},
    {"manager.sweep_us", "us"},
    {"manager.renewals_per_s", "1/s"},
    {"admission.admit_pct", "%"},
    {"admission.admit_ns", "ns"},
    {"session.retransmits", "count"},
    {"session.dup_replies", "count"},
    {"cluster.deploy_s", "s"},
    {"cluster.standby_attach_s", "s"},
    {"invoke_p50_us", "us"},
    {"invoke_p99_us", "us"},
    {"invoke_kops", "kops/s"},
    {"grant_p50_ms", "ms"},
    {"grant_p99_ms", "ms"},
    {"goodput_hz", "1/s"},
    {"alloc_p50_ms", "ms"},
    {"alloc_p99_ms", "ms"},
    {"failed_pct", "%"},
    {"samples.invoke", "count"},
    {"samples.grant", "count"},
    {"samples.alloc", "count"},
    {"trace.host_us_per_op", "us"},
    {"trace.overhead_us_per_op", "us"},
    {"trace.spans", "count"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: rfaas_bench --workload <hot-invoke|lease-churn|alloc-cycle> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      opt.seconds = static_cast<unsigned>(std::strtoul(value, &end, 10));
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--trace-dir") {
      opt.trace_dir = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("not a number: " + std::string(value)).c_str());
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (opt.seconds == 0) usage("--seconds must be at least 1");
  return opt;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// The result line's "metrics" object; every metric must be present,
/// carry its registered unit and be finite.
std::string json_metrics(const Report& report, const MetricDef* defs, std::size_t count) {
  std::string out;
  char buf[256];
  for (std::size_t i = 0; i < count; ++i) {
    const Metric* m = report.find(defs[i].name);
    check(m != nullptr, std::string("metric emitted: ") + defs[i].name);
    check(m->unit == defs[i].unit, std::string("unit of ") + defs[i].name);
    check(std::isfinite(m->value), std::string("finite value: ") + defs[i].name);
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m->name.c_str(), m->value, m->unit.c_str());
    out += buf;
  }
  return out;
}

int run_main(int argc, char** argv) {
  const std::int64_t wall0 = host_wall_ns();
  // A fixed mmap threshold turns off glibc's adaptive one, which rises
  // after the first large free: later rounds would then carve worker
  // buffers from a heap that never shrinks, so peak RSS and the page-fault
  // cost would depend on allocator history instead of the round's work.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const Options opt = parse(argc, argv);
  set_check_seed(opt.seed, opt.workload);

  RunResult run;
  if (opt.workload == "hot-invoke") {
    run = run_hot_invoke(opt);
  } else if (opt.workload == "lease-churn") {
    run = run_lease_churn(opt);
  } else if (opt.workload == "alloc-cycle") {
    run = run_alloc_cycle(opt);
  } else {
    usage(("unknown workload " + opt.workload).c_str());
  }
  check(run.ops > 0, "at least one completed op");
  // Lossless links, no injected faults: every operation must succeed.
  check(run.failed == 0, "no operation fails");

  Report report = run.virt;
  const double ops = static_cast<double>(run.ops);
  auto print_spread = [](const char* what, std::vector<double> v) {
    std::printf("%-24s n %zu  min %.6g  q1 %.6g  median %.6g  q3 %.6g  max %.6g\n", what,
                v.size(), percentile(v, 0), percentile(v, 25), percentile(v, 50),
                percentile(v, 75), percentile(v, 100));
  };
  print_spread("host_us_per_op batches:", run.host.us);
  print_spread("measured batches:", run.host.raw_us);
  print_spread("calibration us:", run.host.calib_us);
  if (opt.trace) print_spread("traced batches:", run.traced_host.us);
  std::printf("%-24s", "measured setup_s:");
  for (double s : run.setup_raw_s) std::printf(" %.6g", s);
  std::printf("\n");
  const double host_us = median(run.host.us);
  report.set("host_us_per_op", host_us, "us", Clock::Host);
  report.set("setup_s", median(run.setup_s), "s", Clock::Host);
  report.set("peak_rss_mb", peak_rss_mib(), "MiB", Clock::Host);
  report.set("host.measured_us_per_op", median(run.host.raw_us), "us", Clock::Host);
  report.set("host.calibration_us", median(run.host.calib_us), "us", Clock::Host);
  report.set("host.measured_setup_s", median(run.setup_raw_s), "s", Clock::Host);

  report.set("sim.events_per_op", static_cast<double>(run.events) / ops, "count", Clock::None);
  report.set("sim.events_per_s", static_cast<double>(run.events) / run.measure_cpu_s, "1/s",
             Clock::Host);
  report.set("sim.queue_depth_p50", run.queue_p50, "count", Clock::None);
  report.set("sim.queue_depth_max", static_cast<double>(run.queue_max), "count", Clock::None);
  report.set("host.allocs_per_op", static_cast<double>(run.allocs.calls) / ops, "count",
             Clock::None);
  report.set("host.alloc_bytes_per_op", static_cast<double>(run.allocs.bytes) / ops, "B",
             Clock::None);
  report.set("cluster.deploy_s", median(run.deploy_s), "s", Clock::Host);
  report.set("cluster.standby_attach_s",
             run.standby_attach_s.empty() ? 0.0 : median(run.standby_attach_s), "s",
             Clock::Host);

  if (opt.trace) {
    const double traced = median(run.traced_host.us);
    report.set("trace.host_us_per_op", traced, "us", Clock::Host);
    report.set("trace.overhead_us_per_op", traced - host_us, "us", Clock::Host);
    report.set("trace.spans", static_cast<double>(spans().spans().size()), "count",
               Clock::None);

    // The probes run after the workload, each under one span; then the
    // self-time table and the Perfetto trace of every span.
    spans().enable(true);
    run_probes(run, report);
    spans().enable(false);
    std::printf("\nself time per layer (%s, seed %llu):\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed));
    const auto table = spans().self_time_table();
    for (const auto& line : table) std::printf("  %s\n", line.c_str());
    std::error_code ec;
    std::filesystem::create_directories(opt.trace_dir, ec);
    const std::string stem = opt.trace_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed);
    check(spans().write_chrome_json(stem + ".trace.json", kMaxTraceSpans),
          "trace file written: " + stem + ".trace.json");
    if (std::FILE* f = std::fopen((stem + ".selftime.txt").c_str(), "w")) {
      for (const auto& line : table) std::fprintf(f, "%s\n", line.c_str());
      std::fclose(f);
    }
    std::printf("trace: %s.trace.json (open in https://ui.perfetto.dev)\n", stem.c_str());
  }
  for (const auto& def : kPerLayer) {
    if (report.find(def.name) == nullptr) report.set(def.name, 0.0, def.unit, Clock::None);
  }

  // Full precision, so two runs' virtual-clock rows can be diffed byte
  // for byte.
  std::printf("\n%-38s %24s  %-7s %s\n", "metric", "value", "unit", "clock");
  for (const auto& m : report.all()) {
    std::printf("%-38s %24.17g  %-7s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                to_string(m.clock));
  }
  std::printf("wall %.2f s, attempted %llu, ok %llu, failed %llu\n",
              static_cast<double>(host_wall_ns() - wall0) / 1e9,
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.ok),
              static_cast<unsigned long long>(run.failed));

  const std::string metrics = opt.trace
                                  ? json_metrics(report, kPerLayer, std::size(kPerLayer))
                                  : json_metrics(report, kEndToEnd, std::size(kEndToEnd));
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace rfs::perfbench

int main(int argc, char** argv) { return rfs::perfbench::run_main(argc, argv); }
