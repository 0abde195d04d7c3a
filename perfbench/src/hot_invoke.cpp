// hot-invoke: one client holds one hot 16-worker allocation on the
// two-executor paper testbed and keeps 8 invoke_pooled() calls in flight
// over reserved slots. Payloads: 90% log-uniform over 1 B - 4 KiB (across
// the 128 B inline limit), 10% log-uniform over 64 KiB - 1 MiB. After
// set-up there is no manager or TCP traffic: the data plane does the work.
#include <cmath>
#include <cstring>

#include "bench.hpp"
#include "common/rng.hpp"

namespace rfs::perfbench {
namespace {

constexpr unsigned kWorkers = 16;
constexpr unsigned kInFlight = 8;
constexpr std::size_t kMaxPayload = 1 << 20;
/// Invocations per second of --seconds (sized for ~1 s of host time per
/// round on a 2020s x86 core).
constexpr std::uint64_t kInvocationsPerSecond = 40'000;
/// Completed invocations per host-cost batch.
constexpr std::uint64_t kBatchOps = 4000;
/// Payloads whose echo is compared byte for byte on the per-call path.
constexpr unsigned kByteChecks = 32;

std::size_t draw_payload(Rng& rng) {
  auto log_uniform = [&rng](double lo, double hi) {
    return static_cast<std::size_t>(std::exp(rng.uniform(std::log(lo), std::log(hi))));
  };
  if (rng.bernoulli(0.9)) return log_uniform(1, 4096);
  return log_uniform(64 * 1024, kMaxPayload);
}

struct Shared {
  const std::vector<std::uint8_t>* source = nullptr;
  Rng rng;
  std::uint64_t next = 0;
  std::uint64_t total = 0;
  unsigned running = 0;
  std::vector<double> latency_ns;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t attempts = 0;
  std::uint32_t parent_span = 0;
};

sim::Task<void> client(rfaas::Invoker& invoker, Shared& s, std::uint32_t lane) {
  sim::Engine& engine = *sim::Engine::current();
  while (s.next < s.total) {
    const std::uint64_t op = s.next++;
    const std::size_t size = draw_payload(s.rng);
    const std::size_t offset = s.rng.uniform_int(0, s.source->size() - size);
    const std::span<const std::uint8_t> payload(s.source->data() + offset, size);
    const std::uint32_t span =
        spans().open("invoker.invoke_pooled", s.parent_span, engine.now(), op, lane);
    const auto result = co_await invoker.invoke_pooled(0, payload);
    spans().close(span, engine.now());
    s.attempts += result.attempts;
    if (result.ok && result.output_bytes == size) {
      ++s.ok;
      s.latency_ns.push_back(static_cast<double>(result.latency()));
    } else {
      ++s.failed;
    }
  }
  --s.running;
}

/// Byte-for-byte echo check on the per-call path, whose output buffer the
/// benchmark owns (pooled slots are private to the invoker).
sim::Task<void> check_echo_bytes(rfaas::Invoker& invoker, const std::vector<std::uint8_t>& src,
                                 Rng& rng) {
  auto in = invoker.input_buffer<std::uint8_t>(kMaxPayload);
  auto out = invoker.output_buffer<std::uint8_t>(kMaxPayload);
  for (unsigned i = 0; i < kByteChecks; ++i) {
    const std::size_t size = draw_payload(rng);
    const std::size_t offset = rng.uniform_int(0, src.size() - size);
    std::memcpy(in.data(), src.data() + offset, size);
    std::memset(out.data(), 0, size);
    const auto result = co_await invoker.invoke(0, in, size, out);
    check(result.ok && result.output_bytes == size, "echo invocation succeeds");
    check(std::memcmp(out.data(), src.data() + offset, size) == 0,
          "echo output bytes equal the input");
  }
}

}  // namespace

RunResult run_hot_invoke(const Options& opt) {
  RunResult run;
  const std::uint64_t per_round =
      std::max<std::uint64_t>(200, opt.seconds * kInvocationsPerSecond / kRounds);

  std::vector<double> latency_ns;
  std::vector<AllocSample> allocs;
  std::uint64_t attempts = 0;
  Duration measured_virtual = 0;
  Stepper stepper;

  for (unsigned r = 0; r < kRounds; ++r) {
    spans().enable(traced_round(opt, r));
    const std::int64_t cpu0 = r == 0 ? 0 : host_cpu_ns();  // round 0: process start
    const std::uint64_t seed = splitmix64(opt.seed * kSplitmix64Gamma + r);
    Rng data_rng(seed ^ 0xda7a);
    std::vector<std::uint8_t> source(2 * kMaxPayload);
    for (auto& b : source) b = static_cast<std::uint8_t>(data_rng.next());

    auto spec = cluster::ScenarioSpec::uniform(2, 36, 64ull << 30, 1);
    std::uint32_t root = 0;
    auto hp = deploy_round(run, spec, r, root);
    cluster::Harness& h = *hp;

    auto invoker = h.make_invoker(0, 1);
    rfaas::AllocationSpec alloc;
    alloc.function_name = "echo";
    alloc.workers = kWorkers;
    alloc.policy = rfaas::InvocationPolicy::HotAlways;
    auto allocate = [&]() -> sim::Task<void> {
      allocs.push_back(co_await traced_allocate(*invoker, alloc, root, r, 0));
    };
    stepper.run(h, allocate());
    {
      ScopedSpan span(h.engine(), "invoker.reserve_slots", root, r);
      invoker->reserve_slots(kInFlight, kMaxPayload, kMaxPayload);
    }
    run.add_setup(static_cast<double>(host_cpu_ns() - cpu0) / 1e9);

    // ---- timed window ----
    Shared s;
    s.source = &source;
    s.rng.reseed(seed);
    s.total = per_round;
    s.running = kInFlight;
    s.latency_ns.reserve(per_round);
    s.parent_span = root;
    const Time v0 = h.engine().now();
    stepper.start_window(kBatchOps, v0, &s.ok);
    for (unsigned c = 0; c < kInFlight; ++c) h.spawn(client(*invoker, s, c + 1));
    check(stepper.step_until(h.engine(), [&] { return s.running == 0; }),
          "all clients finish");
    run.add_window(spans().on(), stepper.finish_window(h.engine().now(), s.ok));
    measured_virtual += h.engine().now() - v0;
    run.attempted += per_round;
    run.ok += s.ok;
    run.failed += s.failed;
    run.ops += s.ok;
    attempts += s.attempts;
    latency_ns.insert(latency_ns.end(), s.latency_ns.begin(), s.latency_ns.end());

    // ---- untimed: byte-level echo check, release ----
    Rng check_rng(seed ^ 0xc4ec);
    stepper.run(h, check_echo_bytes(*invoker, source, check_rng));
    auto release = [&]() -> sim::Task<void> {
      const std::uint32_t span = spans().open("invoker.deallocate", root, h.engine().now(), r);
      co_await invoker->deallocate();
      spans().close(span, h.engine().now());
    };
    stepper.run(h, release());
    spans().close(root, h.engine().now());
    invoker.reset();
    hp.reset();
  }
  spans().enable(false);

  check(run.ok + run.failed == run.attempted, "ok + failed = attempted");
  const std::size_t n = latency_ns.size();
  auto& v = run.virt;
  const double p50 = percentile(latency_ns, 50) / 1e3;
  const double p99 = percentile(latency_ns, tail_percentile_for(n)) / 1e3;
  const double rate = static_cast<double>(n) / (static_cast<double>(measured_virtual) * 1e-9);
  v.set("op_p50_us", p50, "us", Clock::Virtual);
  v.set("op_p99_us", p99, "us", Clock::Virtual);
  v.set("op_rate_hz", rate, "1/s", Clock::Virtual);
  v.set("invoke_p50_us", p50, "us", Clock::Virtual);
  v.set("invoke_p99_us", p99, "us", Clock::Virtual);
  v.set("invoke_kops", rate / 1e3, "kops/s", Clock::Virtual);
  v.set("samples.invoke", static_cast<double>(n), "count", Clock::None);
  v.set("failed_pct", 100.0 * static_cast<double>(run.failed) / static_cast<double>(run.attempted),
        "%", Clock::None);
  v.set("invoker.attempts_per_call",
        static_cast<double>(attempts) / static_cast<double>(run.attempted), "count",
        Clock::None);
  report_cold_start(allocs, v);
  return run;
}

}  // namespace rfs::perfbench
