// Single-layer probes of the traced run. They run after the workload, so
// they never perturb its end-to-end numbers. Virtual probes (raw RDMA and
// TCP round trips, the hot no-op invocation) are deterministic; host
// probes time calls into one module's public functions.
#include <array>
#include <cmath>
#include <cstring>

#include "bench.hpp"
#include "fabric/cq.hpp"
#include "fabric/fabric.hpp"
#include "fabric/qp.hpp"
#include "net/tcp.hpp"
#include "rdmalib/buffer.hpp"
#include "rfaas/admission.hpp"
#include "rfaas/protocol.hpp"
#include "rfaas/sharded_manager.hpp"

namespace rfs::perfbench {
namespace {

/// Defeats dead-code elimination of probe results.
volatile std::uint64_t g_sink = 0;

constexpr std::uint64_t kCodecIterations = 100'000;

/// Span of one probe on the host clock (probes have no virtual extent).
class ProbeSpan {
 public:
  explicit ProbeSpan(std::string_view name) : id_(spans().open_host(name)) {}
  ~ProbeSpan() { spans().close(id_, 0); }

 private:
  std::uint32_t id_;
};

template <typename Fn>
double host_ns_per_iter(std::uint64_t iterations, Fn&& body) {
  const std::int64_t t0 = host_cpu_ns();
  for (std::uint64_t i = 0; i < iterations; ++i) body(i);
  return static_cast<double>(host_cpu_ns() - t0) / static_cast<double>(iterations);
}

/// Median of `reps` repetitions of host_ns_per_iter.
template <typename Fn>
double median_ns_per_iter(unsigned reps, std::uint64_t iterations, Fn&& body) {
  std::vector<double> v;
  for (unsigned r = 0; r < reps; ++r) v.push_back(host_ns_per_iter(iterations, body));
  return median(std::move(v));
}

// ---------------------------------------------------------------------------
// sim: one schedule + step of a trivial coroutine at a given queue depth
// ---------------------------------------------------------------------------

double step_ns_at_depth(std::size_t depth) {
  sim::Engine engine;
  engine.make_current();
  auto parked = []() -> sim::Task<void> { co_await sim::delay(1ull << 62); };
  bool stop = false;
  auto ticker = [](bool* flag) -> sim::Task<void> {
    while (!*flag) co_await sim::delay(1);
  };
  for (std::size_t i = 0; i < depth; ++i) sim::spawn(engine, parked());
  sim::spawn(engine, ticker(&stop));
  for (std::size_t i = 0; i <= depth; ++i) engine.step();  // park everyone
  check(engine.pending() == depth + 1, "step probe holds its queue depth");
  const double ns = median_ns_per_iter(5, 200'000, [&](std::uint64_t) { engine.step(); });
  stop = true;
  engine.step();
  return ns;
}

// ---------------------------------------------------------------------------
// fabric: raw RDMA ping-pong (virtual) and post_send + poll (host)
// ---------------------------------------------------------------------------

/// Makes an engine current before the members built after it.
struct MakeCurrent {
  explicit MakeCurrent(sim::Engine& e) { e.make_current(); }
};

struct QpPair {
  sim::Engine engine;
  MakeCurrent current{engine};
  fabric::Fabric fab{engine};
  fabric::Device& a = fab.create_device("probe-a");
  fabric::Device& b = fab.create_device("probe-b");
  fabric::ProtectionDomain* pda = a.alloc_pd();
  fabric::ProtectionDomain* pdb = b.alloc_pd();
  fabric::CompletionQueue sa{fab.model()}, ra{fab.model()}, sb{fab.model()}, rb{fab.model()};
  fabric::QueuePair* qa = a.create_qp(pda, &sa, &ra);
  fabric::QueuePair* qb = b.create_qp(pdb, &sb, &rb);
  Bytes ba = Bytes(8192), bb = Bytes(8192);
  fabric::MemoryRegion* mra =
      pda->register_memory(ba.data(), ba.size(), fabric::LocalWrite | fabric::RemoteWrite);
  fabric::MemoryRegion* mrb =
      pdb->register_memory(bb.data(), bb.size(), fabric::LocalWrite | fabric::RemoteWrite);

  QpPair() { fabric::QueuePair::connect_pair(*qa, *qb); }

  fabric::SendWr write(bool from_a, std::size_t bytes, fabric::Opcode op, bool signaled) {
    Bytes& src = from_a ? ba : bb;
    Bytes& dst = from_a ? bb : ba;
    fabric::SendWr wr;
    wr.opcode = op;
    wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), static_cast<std::uint32_t>(bytes),
               (from_a ? mra : mrb)->lkey()}};
    wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data());
    wr.rkey = (from_a ? mrb : mra)->rkey();
    wr.inline_data = bytes <= fab.model().max_inline;
    wr.signaled = signaled;
    return wr;
  }
};

/// One ib_write_lat-style round trip, as fig08's `rdma` column.
double rdma_rtt_ns(std::size_t bytes) {
  QpPair p;
  double rtt = 0;
  auto body = [](QpPair* p, std::size_t n, double* out) -> sim::Task<void> {
    const Time start = p->engine.now();
    (void)p->qb->post_recv({1, {}});
    (void)p->qa->post_recv({2, {}});
    (void)p->qa->post_send(p->write(true, n, fabric::Opcode::WriteImm, false));
    (void)co_await p->rb.wait_polling();
    (void)p->qb->post_send(p->write(false, n, fabric::Opcode::WriteImm, false));
    (void)co_await p->ra.wait_polling();
    *out = static_cast<double>(p->engine.now() - start);
  };
  sim::spawn(p.engine, body(&p, bytes, &rtt));
  p.engine.run();
  return rtt;
}

double post_poll_ns() {
  QpPair p;
  fabric::Wc wc[4];
  return median_ns_per_iter(5, 20'000, [&](std::uint64_t) {
    (void)p.qa->post_send(p.write(true, 1, fabric::Opcode::Write, true));
    while (p.sa.empty()) p.engine.step();
    g_sink = g_sink + p.sa.poll(wc);
  });
}

// ---------------------------------------------------------------------------
// net: TCP echo round trip (virtual) and send -> recv of one message (host)
// ---------------------------------------------------------------------------

struct TcpPair {
  sim::Engine engine;
  MakeCurrent current{engine};
  fabric::Fabric fab{engine};
  fabric::Device& a = fab.create_device("tcp-a");
  fabric::Device& b = fab.create_device("tcp-b");
  net::TcpNetwork tcp{engine, fab.net()};
  std::shared_ptr<net::TcpStream> client;
  std::uint64_t received = 0;

  /// `echo`: the server sends every message back (round-trip probe).
  explicit TcpPair(bool echo) {
    auto& listener = tcp.listen(b.id(), 80);
    auto server = [](net::TcpListener* l, std::uint64_t* count, bool echo) -> sim::Task<void> {
      auto stream = co_await l->accept();
      while (true) {
        auto msg = co_await stream->recv();
        if (!msg) break;
        ++*count;
        if (echo) stream->send(std::move(*msg));
      }
    };
    sim::spawn(engine, server(&listener, &received, echo));
    auto dial = [](TcpPair* p) -> sim::Task<void> {
      auto conn = co_await p->tcp.connect(p->a.id(), p->b.id(), 80);
      check(conn.ok(), "probe TCP connect");
      p->client = conn.value();
    };
    sim::spawn(engine, dial(this));
    while (client == nullptr && engine.step()) {
    }
    check(client != nullptr, "probe TCP stream open");
  }
  ~TcpPair() {
    client->close();
    engine.drain_detached();
  }
};

double tcp_rtt_ns(std::size_t bytes) {
  TcpPair p(/*echo=*/true);
  double rtt = 0;
  bool done = false;
  auto body = [](TcpPair* p, std::size_t n, double* out, bool* flag) -> sim::Task<void> {
    const Time start = p->engine.now();
    p->client->send(Bytes(n));
    (void)co_await p->client->recv();
    *out = static_cast<double>(p->engine.now() - start);
    *flag = true;
  };
  sim::spawn(p.engine, body(&p, bytes, &rtt, &done));
  while (!done && p.engine.step()) {
  }
  return rtt;
}

double tcp_msg_ns(std::size_t bytes) {
  TcpPair p(/*echo=*/false);
  return median_ns_per_iter(5, 20'000, [&](std::uint64_t) {
    const std::uint64_t before = p.received;
    p.client->send(Bytes(bytes));
    while (p.received == before) p.engine.step();
  });
}

// ---------------------------------------------------------------------------
// rdmalib: allocate, register and free one worker buffer
// ---------------------------------------------------------------------------

double buffer_alloc_us(std::uint64_t bytes) {
  sim::Engine engine;
  engine.make_current();
  fabric::Fabric fab(engine);
  auto* pd = fab.create_device("buf").alloc_pd();
  return median_ns_per_iter(5, 8, [&](std::uint64_t) {
           rdmalib::Buffer<std::uint8_t> buf(bytes);
           (void)buf.register_memory(*pd, fabric::LocalWrite | fabric::RemoteWrite);
           g_sink = g_sink + buf.data()[bytes / 2];
           buf.deregister();
         }) /
         1e3;
}

// ---------------------------------------------------------------------------
// rfaas.protocol: encode_into + span decode per message
// ---------------------------------------------------------------------------

/// Host ns per encode_into + span decode round trip of `msg`; adds the
/// heap allocations made inside the timed loops to `allocs`.
template <typename Msg, typename Decode>
double codec_ns(const Msg& msg, Decode decode, std::uint64_t& allocs) {
  std::uint8_t buf[128];
  std::array<double, 5> reps{};
  for (auto& rep : reps) {
    const AllocCount a0 = alloc_count();
    rep = host_ns_per_iter(kCodecIterations, [&](std::uint64_t) {
      const std::size_t n = rfaas::encode_into(msg, buf, sizeof buf);
      auto out = decode(std::span<const std::uint8_t>(buf, n));
      g_sink = g_sink + (out.ok() ? n : 0);
    });
    allocs += alloc_count().calls - a0.calls;
  }
  return median(std::vector<double>(reps.begin(), reps.end()));
}

void protocol_probes(Report& out) {
  rfaas::LeaseRequestMsg request{9, 16, 256ull << 20, 60_s};
  request.request_id = (3ull << 32) | 77;
  rfaas::LeaseGrantMsg grant;
  grant.lease_id = (5ull << 48) | 12345;
  grant.device = 3;
  grant.alloc_port = 7000;
  grant.rdma_port = 7001;
  grant.workers = 4;
  grant.expires_at = 90_s;
  rfaas::ExtendLeaseMsg extend{grant.lease_id, 30_s};
  rfaas::JournalRecordMsg record;
  record.seq = 4242;
  record.op = 1;
  record.lease_id = grant.lease_id;
  record.client_id = 9;
  record.executor = 17;
  record.workers = 4;
  record.memory = 1ull << 30;
  record.time = 90_s;
  record.checksum = 0xfeedface;
  rfaas::InvocationHeader header;
  header.result_addr = 0xdeadbeef00ull;
  header.result_rkey = 77;
  header.invocation_tag = 5;

  std::uint64_t allocs = 0;
  const double lr =
      codec_ns(request, [](auto s) { return rfaas::decode_lease_request(s); }, allocs);
  const double lg = codec_ns(grant, [](auto s) { return rfaas::decode_lease_grant(s); }, allocs);
  const double el =
      codec_ns(extend, [](auto s) { return rfaas::decode_extend_lease(s); }, allocs);
  const double jr =
      codec_ns(record, [](auto s) { return rfaas::decode_journal_record(s); }, allocs);
  const double ih = codec_ns(
      header,
      [](auto s) {
        return rfaas::decode_invocation_frame(s, static_cast<std::uint32_t>(s.size()));
      },
      allocs);
  out.set("protocol.codec_ns.lease_request", lr, "ns", Clock::Host);
  out.set("protocol.codec_ns.lease_grant", lg, "ns", Clock::Host);
  out.set("protocol.codec_ns.extend_lease", el, "ns", Clock::Host);
  out.set("protocol.codec_ns.journal_record", jr, "ns", Clock::Host);
  out.set("protocol.codec_ns.invocation_header", ih, "ns", Clock::Host);
  out.set("protocol.allocs_per_roundtrip",
          static_cast<double>(allocs) / (5.0 * 5.0 * kCodecIterations), "count", Clock::None);
  check(allocs == 0, "protocol fast path allocates nothing per round trip");
}

// ---------------------------------------------------------------------------
// rfaas.invoker: hot 1 B no-op round trip (virtual), as fig08's hot column
// ---------------------------------------------------------------------------

double noop_rtt_ns() {
  cluster::Harness h(cluster::ScenarioSpec::uniform(2, 36, 64ull << 30, 1));
  h.registry().add_echo();
  h.start();
  auto invoker = h.make_invoker(0, 1);
  std::vector<double> samples;
  auto body = [](rfaas::Invoker* inv, std::vector<double>* out) -> sim::Task<void> {
    rfaas::AllocationSpec spec;
    spec.function_name = "echo";
    spec.policy = rfaas::InvocationPolicy::HotAlways;
    check((co_await inv->allocate(spec)).ok(), "noop probe allocates");
    auto in = inv->input_buffer<std::uint8_t>(8192);
    auto out_buf = inv->output_buffer<std::uint8_t>(8192);
    for (unsigned i = 0; i < 53; ++i) {
      auto r = co_await inv->invoke(0, in, 1, out_buf);
      check(r.ok, "noop probe invocation");
      if (i >= 2) out->push_back(static_cast<double>(r.latency()));  // 2 warm-up calls
    }
    co_await inv->deallocate();
  };
  Stepper stepper;
  stepper.run(h, body(invoker.get(), &samples));
  return median(std::move(samples));
}

// ---------------------------------------------------------------------------
// rfaas.sharded_manager and rfaas.admission: the cores, called directly
// ---------------------------------------------------------------------------

rfaas::ExecutorEntry big_host(std::uint32_t workers) {
  rfaas::ExecutorEntry e;
  e.info.memory_bytes = 64ull << 30;
  e.total_workers = workers;
  e.free_workers = workers;
  e.free_memory = 64ull << 30;
  e.alive = true;
  return e;
}

std::unique_ptr<rfaas::ShardedResourceManager> make_core(std::size_t live) {
  rfaas::Config config;
  config.manager_shards = 8;
  auto m = std::make_unique<rfaas::ShardedResourceManager>(config);
  const auto hosts = static_cast<std::uint32_t>(live / 1024 + 16);
  for (std::uint32_t i = 0; i < hosts; ++i) (void)m->add_executor(big_host(1024));
  return m;
}

constexpr Duration kFar = 1ull << 60;

void manager_probes(std::size_t live, Report& out) {
  rfaas::ScheduleRequest one;
  one.workers = 1;
  one.memory_per_worker = 1 << 20;
  {
    auto m = make_core(live);
    for (std::size_t i = 0; i < live; ++i) (void)m->grant(one, 1 + i % 16, kFar, 0);
    const double ns = median_ns_per_iter(5, 20'000, [&](std::uint64_t) {
      auto g = m->grant(one, 1, kFar, 0);
      check(g.has_value() && m->release(g->lease_id), "probe grant + release");
    });
    out.set("manager.grant_release_us", ns / 1e3, "us", Clock::Host);
  }
  {
    constexpr unsigned kRounds = 32, kExpiring = 64;
    auto m = make_core(live + kRounds * kExpiring);
    for (std::size_t i = 0; i < live; ++i) (void)m->grant(one, 1 + i % 16, kFar, 0);
    for (unsigned r = 0; r < kRounds; ++r) {
      for (unsigned i = 0; i < kExpiring; ++i) (void)m->grant(one, 1, (r + 1) * 1000, 0);
    }
    const double ns = host_ns_per_iter(kRounds, [&](std::uint64_t r) {
      check(m->sweep_expired((r + 1) * 1000) == kExpiring, "probe sweep reclaims its batch");
    });
    out.set("manager.sweep_us", ns / 1e3, "us", Clock::Host);
  }
}

double admit_ns(double capacity_hz) {
  rfaas::AdmissionConfig config;
  config.capacity_hz = capacity_hz;
  rfaas::Admission admission(config);
  for (std::uint32_t t = 0; t < 4; ++t) admission.set_weight(301 + t, 1 + t);
  // Offered at 1.2x capacity, so both the admit and the shed path run.
  const auto gap = static_cast<Time>(1e9 / (1.2 * capacity_hz));
  Time now = 0;
  return median_ns_per_iter(5, 100'000, [&](std::uint64_t i) {
    now += gap;
    g_sink = g_sink + admission.admit(301 + static_cast<std::uint32_t>(i % 4), now).admitted;
  });
}

}  // namespace

void run_probes(const RunResult& run, Report& out) {
  {
    ProbeSpan span("probe.sim_step");
    out.set("sim.step_ns.d16", step_ns_at_depth(16), "ns", Clock::Host);
    out.set("sim.step_ns.d4096", step_ns_at_depth(4096), "ns", Clock::Host);
  }
  double rdma_1b = 0;
  {
    ProbeSpan span("probe.fabric");
    rdma_1b = rdma_rtt_ns(1);
    out.set("fabric.rdma_rtt_us.1B", rdma_1b / 1e3, "us", Clock::Virtual);
    out.set("fabric.rdma_rtt_us.4KiB", rdma_rtt_ns(4096) / 1e3, "us", Clock::Virtual);
    out.set("fabric.post_poll_ns", post_poll_ns(), "ns", Clock::Host);
  }
  {
    ProbeSpan span("probe.net");
    out.set("net.tcp_rtt_us.64B", tcp_rtt_ns(64) / 1e3, "us", Clock::Virtual);
    std::uint8_t buf[128];
    const std::size_t lease_bytes =
        rfaas::encode_into(rfaas::LeaseRequestMsg{9, 16, 256ull << 20, 60_s}, buf, sizeof buf);
    out.set("net.tcp_msg_ns", tcp_msg_ns(lease_bytes), "ns", Clock::Host);
  }
  {
    ProbeSpan span("probe.rdmalib");
    out.set("rdmalib.buffer_alloc_us", buffer_alloc_us(rfaas::Config{}.worker_buffer_bytes), "us",
            Clock::Host);
  }
  {
    ProbeSpan span("probe.protocol");
    protocol_probes(out);
  }
  {
    ProbeSpan span("probe.invoker");
    const double noop = noop_rtt_ns();
    const double overhead = noop - rdma_1b;
    out.set("invoker.noop_rtt_us", noop / 1e3, "us", Clock::Virtual);
    out.set("invoker.overhead_ns", overhead, "ns", Clock::Virtual);
    check(noop == rdma_1b + overhead,
          "invoker.noop_rtt_us equals fabric.rdma_rtt_us.1B + invoker.overhead_ns");
  }
  {
    ProbeSpan span("probe.manager");
    manager_probes(std::max<std::size_t>(1, run.live_leases), out);
  }
  {
    ProbeSpan span("probe.admission");
    out.set("admission.admit_ns", admit_ns(kLeaseChurnCapacityHz), "ns", Clock::Host);
  }
}

}  // namespace rfs::perfbench
