// alloc-cycle: eight client hosts each loop through allocate() (worker
// count drawn from {1, 2}), a short burst of hot invocations,
// deallocate(), and a think time drawn to straddle the executors' fixed
// keep-alive. Eight executors keep a warm sandbox pool, and each client's
// rack holds exactly one executor (locality-first placement), so a repeat
// allocation of the same shape inside the keep-alive revives a pooled
// sandbox and a later one goes cold. Sandbox spawn, worker buffers,
// registration, the warm pool and the cold-start path do the work.
#include <cmath>
#include <cstring>

#include "bench.hpp"
#include "common/rng.hpp"

namespace rfs::perfbench {
namespace {

constexpr unsigned kClients = 8;
constexpr unsigned kBurst = 16;           // hot invocations per cycle
constexpr std::size_t kMaxPayload = 4096;
constexpr Duration kKeepAlive = 1_s;  // fixed: min = max keep-alive
/// Completed allocation cycles per host-cost batch.
constexpr std::uint64_t kBatchCycles = 32;
/// Allocation cycles per second of --seconds, over all clients and rounds.
constexpr std::uint64_t kCyclesPerSecond = 700;

double log_uniform(Rng& rng, double lo, double hi) {
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

std::uint32_t draw_workers(Rng& rng) {
  const double u = rng.uniform();
  return u < 0.75 ? 1 : 2;
}

struct Shared {
  unsigned running = 0;
  std::uint32_t parent_span = 0;
  std::vector<AllocSample> allocs;
  std::vector<double> invoke_ns;
  std::uint64_t invocations = 0;
  std::uint64_t attempts = 0;
  std::uint64_t cycles_ok = 0;
  std::uint64_t cycles_failed = 0;
  std::uint64_t cycles_done = 0;
  /// Sum over clients of cycles per virtual second, each over the
  /// client's own active time (a straggler does not dilute the others).
  double cycles_per_s = 0;
};

sim::Task<void> client(rfaas::Invoker& invoker, Shared& s, std::uint64_t seed,
                       std::uint64_t cycles, std::uint32_t lane) {
  sim::Engine& engine = *sim::Engine::current();
  const Time start = engine.now();
  Rng rng(seed);
  std::vector<std::uint8_t> payload(kMaxPayload);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());

  for (std::uint64_t c = 0; c < cycles; ++c) {
    const std::uint64_t op = (static_cast<std::uint64_t>(lane) << 32) | c;
    rfaas::AllocationSpec spec;
    spec.function_name = "echo";
    spec.workers = draw_workers(rng);
    spec.policy = rfaas::InvocationPolicy::HotAlways;
    // Function packages differ in size: code shipping and installation
    // scale with it on every allocation, warm or cold.
    spec.code_size = static_cast<std::uint64_t>(log_uniform(rng, 8 << 10, 256 << 10));
    s.allocs.push_back(co_await traced_allocate(invoker, spec, s.parent_span, op, lane));

    bool ok = invoker.connected_workers() == spec.workers;
    for (unsigned i = 0; i < kBurst; ++i) {
      const auto size = static_cast<std::size_t>(log_uniform(rng, 1, kMaxPayload));
      const std::uint32_t span =
          spans().open("invoker.invoke_pooled", s.parent_span, engine.now(), op, lane);
      const auto result = co_await invoker.invoke_pooled(0, {payload.data(), size});
      spans().close(span, engine.now());
      ++s.invocations;
      s.attempts += result.attempts;
      if (result.ok && result.output_bytes == size) {
        s.invoke_ns.push_back(static_cast<double>(result.latency()));
      } else {
        ok = false;
      }
    }
    if (c + 1 == cycles) {
      // Byte-for-byte echo check on the per-call path, whose output
      // buffer the benchmark owns.
      auto in = invoker.input_buffer<std::uint8_t>(kMaxPayload);
      auto out = invoker.output_buffer<std::uint8_t>(kMaxPayload);
      std::memcpy(in.data(), payload.data(), kMaxPayload);
      const auto result = co_await invoker.invoke(0, in, kMaxPayload, out);
      check(result.ok && std::memcmp(out.data(), payload.data(), kMaxPayload) == 0,
            "echo output bytes equal the input");
    }
    const std::uint32_t span =
        spans().open("invoker.deallocate", s.parent_span, engine.now(), op, lane);
    co_await invoker.deallocate();
    spans().close(span, engine.now());
    ++(ok ? s.cycles_ok : s.cycles_failed);
    ++s.cycles_done;
    co_await sim::delay(static_cast<Duration>(log_uniform(rng, 10e6, 1.5e9)));
  }
  s.cycles_per_s += static_cast<double>(cycles) / (static_cast<double>(engine.now() - start) * 1e-9);
  --s.running;
}

}  // namespace

RunResult run_alloc_cycle(const Options& opt) {
  RunResult run;
  const std::uint64_t per_client =
      std::max<std::uint64_t>(4, opt.seconds * kCyclesPerSecond / kRounds / kClients);

  std::vector<double> invoke_ns;
  std::vector<AllocSample> allocs;
  std::uint64_t attempts = 0, invocations = 0, hits = 0, misses = 0;
  double pool_byte_ns = 0;  // integral of warm-pool bytes over virtual time
  double cycles_per_s = 0;  // mean over rounds of the clients' summed rates
  Duration measured_virtual = 0;
  Stepper stepper;

  for (unsigned r = 0; r < kRounds; ++r) {
    spans().enable(traced_round(opt, r));
    const std::int64_t cpu0 = r == 0 ? 0 : host_cpu_ns();
    const std::uint64_t seed = splitmix64(opt.seed * kSplitmix64Gamma + r);

    auto spec = cluster::ScenarioSpec::uniform(8, 36, 64ull << 30, kClients);
    spec.racks = 8;  // client i shares its rack with executor i
    spec.config.scheduling = rfaas::SchedulingPolicy::LocalityFirst;
    spec.config.warm_pool_capacity = 4;
    spec.config.warm_pool_min_keepalive = kKeepAlive;
    spec.config.warm_pool_max_keepalive = kKeepAlive;
    spec.config.warm_pool_sweep_period = 50_ms;
    std::uint32_t root = 0;
    auto hp = deploy_round(run, spec, r, root);
    cluster::Harness& h = *hp;
    std::vector<std::unique_ptr<rfaas::Invoker>> invokers;
    for (unsigned c = 0; c < kClients; ++c) {
      invokers.push_back(h.make_invoker(c, c + 1));
      ScopedSpan span(h.engine(), "invoker.reserve_slots", root, r);
      invokers.back()->reserve_slots(1, kMaxPayload, kMaxPayload);
    }
    run.add_setup(static_cast<double>(host_cpu_ns() - cpu0) / 1e9);

    // ---- timed window ----
    Shared s;
    s.running = kClients;
    s.parent_span = root;
    Time last = h.engine().now();
    std::uint64_t pool_bytes = 0;
    stepper.on_step = [&] {
      const Time now = h.engine().now();
      if (now - last < 1_ms) return;
      pool_byte_ns += static_cast<double>(pool_bytes) * static_cast<double>(now - last);
      last = now;
      pool_bytes = 0;
      for (std::size_t e = 0; e < h.executor_count(); ++e) {
        pool_bytes += h.executor(e).warm_pool_memory_bytes();
      }
    };
    const Time v0 = h.engine().now();
    stepper.start_window(kBatchCycles, v0, &s.cycles_done);
    for (unsigned c = 0; c < kClients; ++c) {
      h.spawn(client(*invokers[c], s, splitmix64(seed + c), per_client, c + 1));
    }
    check(stepper.step_until(h.engine(), [&] { return s.running == 0; }),
          "all clients finish");
    const std::uint64_t cycles = s.cycles_ok + s.cycles_failed;
    run.add_window(spans().on(), stepper.finish_window(h.engine().now(), cycles));
    stepper.on_step = nullptr;
    measured_virtual += h.engine().now() - v0;
    run.live_leases = kClients;
    run.attempted += kClients * per_client;
    run.ok += s.cycles_ok;
    run.failed += s.cycles_failed;
    run.ops += cycles;
    attempts += s.attempts;
    cycles_per_s += s.cycles_per_s / kRounds;
    invocations += s.invocations;
    for (std::size_t e = 0; e < h.executor_count(); ++e) {
      hits += h.executor(e).warm_pool_stats().hits;
      misses += h.executor(e).warm_pool_stats().misses;
    }
    invoke_ns.insert(invoke_ns.end(), s.invoke_ns.begin(), s.invoke_ns.end());
    allocs.insert(allocs.end(), s.allocs.begin(), s.allocs.end());
    spans().close(root, h.engine().now());
    invokers.clear();
    hp.reset();
  }
  spans().enable(false);

  check(run.ok + run.failed == run.attempted, "ok + failed = attempted");
  std::vector<double> alloc_ns;
  for (const auto& a : allocs) alloc_ns.push_back(static_cast<double>(a.latency));
  const std::size_t n = alloc_ns.size();
  auto& v = run.virt;
  const double p50 = percentile(alloc_ns, 50);
  const double p99 = percentile(alloc_ns, tail_percentile_for(n));
  v.set("op_p50_us", p50 / 1e3, "us", Clock::Virtual);
  v.set("op_p99_us", p99 / 1e3, "us", Clock::Virtual);
  v.set("op_rate_hz", cycles_per_s, "1/s", Clock::Virtual);
  v.set("alloc_p50_ms", p50 / 1e6, "ms", Clock::Virtual);
  v.set("alloc_p99_ms", p99 / 1e6, "ms", Clock::Virtual);
  v.set("samples.alloc", static_cast<double>(n), "count", Clock::None);
  const std::size_t ni = invoke_ns.size();
  v.set("invoke_p50_us", percentile(invoke_ns, 50) / 1e3, "us", Clock::Virtual);
  v.set("invoke_p99_us", percentile(invoke_ns, tail_percentile_for(ni)) / 1e3, "us",
        Clock::Virtual);
  v.set("samples.invoke", static_cast<double>(ni), "count", Clock::None);
  v.set("invoker.attempts_per_call",
        static_cast<double>(attempts) / static_cast<double>(invocations), "count", Clock::None);
  v.set("executor.warm_hit_pct",
        100.0 * static_cast<double>(hits) / static_cast<double>(hits + misses), "%",
        Clock::None);
  v.set("executor.warm_pool_mb",
        pool_byte_ns / static_cast<double>(measured_virtual) / (1024.0 * 1024.0), "MiB",
        Clock::Virtual);
  v.set("failed_pct", 100.0 * static_cast<double>(run.failed) / static_cast<double>(run.attempted),
        "%", Clock::None);
  report_cold_start(allocs, v);
  return run;
}

}  // namespace rfs::perfbench
