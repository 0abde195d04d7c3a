// lease-churn: a 512-executor large fleet behind 8 manager shards, with
// journaling on, one warm standby and admission capacity set. Four
// tenants: two open-loop Poisson tenants with different lease shapes, one
// open-loop heavy-tail tenant that overruns its WFQ share (so a modest
// fraction of its requests is shed), and one closed-loop
// LeaseWorkload::churn tenant whose leases outlive their TTL through
// ExtendLease renewals. No RDMA data plane: the TCP overlay, sessions, the
// control codec, admission, the sharded manager, the scheduler and the
// journal do the work, under a deep engine queue of detached coroutines.
#include "bench.hpp"
#include "common/rng.hpp"

namespace rfs::perfbench {
namespace {

constexpr const char* kHeavyTail = "heavy-tail";
/// Virtual time per host-cost batch (~2k offered requests).
constexpr Duration kBatch = 100_ms;
/// Virtual seconds of workload per second of --seconds, over all rounds.
constexpr double kVirtualSecondsPerSecond = 2.5;
/// Shortest round: the churn tenant's 1 s leases renew at least once.
constexpr double kMinHorizonS = 1.5;
/// Virtual time after the horizon for releases and expiry sweeps to land.
constexpr Duration kDrainGrace = 10_s;

std::vector<cluster::TenantWorkload> tenants(std::uint64_t seed) {
  std::vector<cluster::TenantWorkload> out;
  // Each client host holds one manager connection, which the manager
  // serves one request at a time; `hosts` keeps every connection below
  // ~3k requests/s, about half its capacity.
  auto base = [&](const char* name, std::uint32_t tenant_id, std::uint32_t weight,
                  cluster::ArrivalProcess arrivals, double rate_hz, unsigned hosts) {
    cluster::TenantWorkload w;
    w.name = name;
    w.clients = hosts;
    w.tenant_id = tenant_id;
    w.weight = weight;
    w.arrivals = arrivals;
    w.multiplex = 1000;  // simulated clients per host connection
    w.arrival_hz = rate_hz / (hosts * 1000.0);
    w.lease.memory_per_worker = 256ull << 20;
    w.lease.lease_timeout = 30_s;
    w.lease.seed = splitmix64(seed * kSplitmix64Gamma + tenant_id);
    return w;
  };
  // Small, short leases at a steady rate.
  auto a = base("poisson-small", 301, 4, cluster::ArrivalProcess::Poisson, 10000, 4);
  a.lease.workers_min = 1;
  a.lease.workers_max = 2;
  a.lease.hold_min = 20_ms;
  a.lease.hold_max = 60_ms;
  out.push_back(a);
  // Wide, equally short leases at a lower rate.
  auto b = base("poisson-wide", 302, 3, cluster::ArrivalProcess::Poisson, 8000, 3);
  b.lease.workers_min = 2;
  b.lease.workers_max = 8;
  b.lease.hold_min = 10_ms;
  b.lease.hold_max = 40_ms;
  out.push_back(b);
  // Bursty tenant above its WFQ share (weight 1 of 10): part of its
  // bursts is shed. A shed is final (no retry budget), so admitted grant
  // latencies hold no retry_after waits.
  auto c = base(kHeavyTail, 303, 1, cluster::ArrivalProcess::HeavyTail, 5000, 3);
  c.heavy_tail_sigma = 1.0;
  c.lease.workers_min = 1;
  c.lease.workers_max = 1;
  c.lease.hold_min = 20_ms;
  c.lease.hold_max = 60_ms;
  out.push_back(c);
  // Closed loop of auto-renewed leases held 3-6x their 1 s TTL.
  cluster::TenantWorkload d;
  d.name = "churn";
  d.clients = 2;
  d.arrival_hz = 20;
  d.lease = cluster::LeaseWorkload::churn(1_s, splitmix64(seed * kSplitmix64Gamma + 304));
  d.lease.workers_min = 1;
  d.lease.workers_max = 4;
  d.lease.memory_per_worker = 256ull << 20;
  out.push_back(d);
  return out;
}

/// Runs `h.run_multi_tenant_workload` while the benchmark steps the
/// engine: a spawned stepping coroutine, resumed first inside the
/// harness's own loop, steps every event up to a sentinel at the horizon
/// (counted and depth-sampled); the harness loop then finishes the events
/// at exactly the deadline. The two coroutines add three events to the
/// queue and reorder none of the workload's.
cluster::MultiTenantTrace run_stepped(cluster::Harness& h, Stepper& stepper,
                                      const std::vector<cluster::TenantWorkload>& ts,
                                      Duration horizon) {
  bool stop = false;
  auto sentinel = [](Duration d, bool* flag) -> sim::Task<void> {
    co_await sim::delay(d);
    *flag = true;
  };
  auto stepping = [](sim::Engine* e, Stepper* st, bool* flag) -> sim::Task<void> {
    st->step_until(*e, [flag] { return *flag; });
    co_return;
  };
  h.spawn(stepping(&h.engine(), &stepper, &stop));
  h.spawn(sentinel(horizon, &stop));
  auto trace = h.run_multi_tenant_workload(ts, horizon, /*sample_every=*/1_s);
  check(stop, "stepping coroutine reached the horizon");
  return trace;
}

}  // namespace

RunResult run_lease_churn(const Options& opt) {
  RunResult run;
  const Duration horizon = static_cast<Duration>(
      std::max(kMinHorizonS, kVirtualSecondsPerSecond * opt.seconds / kRounds) * 1e9);

  std::vector<double> grant_ns;
  std::uint64_t granted = 0, renewals = 0, shed_final = 0, admitted = 0, sheds = 0;
  std::uint64_t retransmits = 0, dup_replies = 0;
  Duration measured_virtual = 0;
  Stepper stepper;

  for (unsigned r = 0; r < kRounds; ++r) {
    spans().enable(traced_round(opt, r));
    const std::int64_t cpu0 = r == 0 ? 0 : host_cpu_ns();
    const std::uint64_t seed = splitmix64(opt.seed * kSplitmix64Gamma + r);

    auto spec = cluster::ScenarioSpec::large_fleet(512, /*clients=*/12, /*racks=*/8);
    spec.config.manager_shards = 8;
    spec.config.journal_enabled = true;
    spec.config.admission.capacity_hz = kLeaseChurnCapacityHz;
    spec.assert_drained = false;  // the benchmark checks leaks itself
    std::uint32_t root = 0;
    auto hp = deploy_round(run, spec, r, root);
    cluster::Harness& h = *hp;
    const std::int64_t attach0 = host_cpu_ns();
    {
      ScopedSpan span(h.engine(), "cluster.attach_standby", root, r);
      check(h.attach_standby() != nullptr, "standby attaches");
    }
    run.standby_attach_s.push_back(static_cast<double>(host_cpu_ns() - attach0) / 1e9);
    const auto ts = tenants(seed);
    run.add_setup(static_cast<double>(host_cpu_ns() - cpu0) / 1e9);

    // ---- timed window ----
    stepper.start_window(kBatch, h.engine().now());
    cluster::MultiTenantTrace trace;
    {
      ScopedSpan span(h.engine(), "cluster.run_multi_tenant_workload", root, r);
      trace = run_stepped(h, stepper, ts, horizon);
    }
    const auto& agg = trace.aggregate;
    run.add_window(spans().on(), stepper.finish_window(h.engine().now(), agg.offered));
    measured_virtual += horizon;
    run.live_leases = std::max(run.live_leases, h.rm().active_leases());

    // ---- accounting and checks ----
    // Every offered request ends granted, shed, failed on the transport,
    // or still in flight at the horizon.
    const std::uint64_t failed = agg.call_failures + agg.client_deaths;
    const std::uint64_t ok = agg.granted + agg.denied;
    check(ok + failed <= agg.offered, "ok + failed <= attempted (rest in flight)");
    check(agg.offered - ok - failed <= agg.offered / 100 + 16,
          "at most 1% of requests in flight at the horizon");
    check(agg.double_grants == 0, "no double grants");
    check(agg.client_deaths == 0, "no client dies");
    check(agg.retries == 0, "no tenant retries");
    check(agg.denied == agg.overload_denials, "every denial is an admission shed");
    for (const auto& t : trace.tenants) {
      if (t.name != kHeavyTail) {
        check(t.overload_denials * 20 <= t.offered, "tenants within their share are not shed");
      }
    }
    grant_ns.insert(grant_ns.end(), agg.grant_latency.begin(), agg.grant_latency.end());
    run.attempted += agg.offered;
    run.ok += ok;
    run.failed += failed;
    run.ops += agg.offered;
    granted += agg.granted;
    shed_final += agg.denied;
    renewals += agg.renewals;
    retransmits += agg.retransmits;
    dup_replies += agg.duplicate_replies;
    admitted += h.rm().admission().admitted();
    sheds += h.rm().admission().sheds();

    // ---- untimed: drain, leak gate ----
    const std::size_t leaked = h.leaked_leases_after(kDrainGrace);
    check(leaked == 0, "leaked_leases_after reads 0 after drain");
    spans().close(root, h.engine().now());
    hp.reset();
  }
  spans().enable(false);

  const std::size_t n = grant_ns.size();
  const double seconds = static_cast<double>(measured_virtual) * 1e-9;
  auto& v = run.virt;
  const double p50 = percentile(grant_ns, 50);
  const double p99 = percentile(grant_ns, tail_percentile_for(n));
  v.set("op_p50_us", p50 / 1e3, "us", Clock::Virtual);
  v.set("op_p99_us", p99 / 1e3, "us", Clock::Virtual);
  v.set("op_rate_hz", static_cast<double>(granted) / seconds, "1/s", Clock::Virtual);
  v.set("grant_p50_ms", p50 / 1e6, "ms", Clock::Virtual);
  v.set("grant_p99_ms", p99 / 1e6, "ms", Clock::Virtual);
  v.set("goodput_hz", static_cast<double>(granted) / seconds, "1/s", Clock::Virtual);
  v.set("samples.grant", static_cast<double>(n), "count", Clock::None);
  v.set("failed_pct",
        100.0 * static_cast<double>(shed_final + run.failed) /
            static_cast<double>(run.attempted),
        "%", Clock::None);
  v.set("manager.renewals_per_s", static_cast<double>(renewals) / seconds, "1/s",
        Clock::Virtual);
  v.set("admission.admit_pct",
        100.0 * static_cast<double>(admitted) / static_cast<double>(admitted + sheds), "%",
        Clock::None);
  v.set("session.retransmits", static_cast<double>(retransmits), "count", Clock::None);
  v.set("session.dup_replies", static_cast<double>(dup_replies), "count", Clock::None);
  return run;
}

}  // namespace rfs::perfbench
