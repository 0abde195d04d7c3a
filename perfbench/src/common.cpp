#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <array>
#include <map>

#include "bench.hpp"

namespace rfs::perfbench {

const char* to_string(Clock c) {
  switch (c) {
    case Clock::Virtual:
      return "virtual";
    case Clock::Host:
      return "host";
    case Clock::None:
      return "-";
  }
  return "-";
}

std::int64_t host_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t host_wall_ns() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------------

void Report::set(const std::string& name, double value, const std::string& unit, Clock clock) {
  for (auto& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      m.clock = clock;
      return;
    }
  }
  metrics_.push_back({name, value, unit, clock});
}

const Metric* Report::find(const std::string& name) const {
  for (const auto& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------

namespace {
std::uint64_t g_check_seed = 0;
std::string g_check_workload;
}  // namespace

void set_check_seed(std::uint64_t seed, const std::string& workload) {
  g_check_seed = seed;
  g_check_workload = workload;
}

void check(bool ok, const std::string& what) {
  if (ok) return;
  std::fflush(stdout);
  std::fprintf(stderr, "CHECK FAILED [%s] workload %s seed %llu\n", what.c_str(),
               g_check_workload.c_str(), static_cast<unsigned long long>(g_check_seed));
  std::fprintf(stderr, "reproduce with: python3 perfbench/run.py --workload %s --seed %llu\n",
               g_check_workload.c_str(), static_cast<unsigned long long>(g_check_seed));
  std::exit(3);
}

// ---------------------------------------------------------------------------

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return percentile(v, 50); }

double tail_percentile_for(std::size_t samples) {
  // At least ten samples must lie beyond the reported percentile.
  if (samples >= 1000) return 99;
  if (samples >= 100) return 90;
  return 50;
}

// ---------------------------------------------------------------------------

SpanLog& spans() {
  static SpanLog log;
  return log;
}

std::uint32_t SpanLog::open(std::string_view name, std::uint32_t parent, Time v0,
                            std::uint64_t op, std::uint32_t lane) {
  if (!on_) return 0;
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.lane = lane;
  s.op = op;
  s.name = name;
  s.v0 = v0;
  s.h0 = host_wall_ns();
  spans_.push_back(s);
  return s.id;
}

void SpanLog::close(std::uint32_t id, Time v1) {
  if (id == 0) return;
  Span& s = spans_[id - 1];
  s.v1 = v1;
  s.h1 = host_wall_ns();
}

void SpanLog::add_virtual(std::string_view name, std::uint32_t parent, Time v0, Time v1,
                          std::uint64_t op, std::uint32_t lane) {
  if (!on_) return;
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.lane = lane;
  s.op = op;
  s.name = name;
  s.v0 = v0;
  s.v1 = v1;
  s.host_timed = false;
  spans_.push_back(s);
}

std::uint32_t SpanLog::open_host(std::string_view name) {
  const std::uint32_t id = open(name, 0, 0);
  if (id != 0) spans_[id - 1].virtual_timed = false;
  return id;
}

namespace {

std::string_view layer_of(std::string_view name) {
  const auto dot = name.find('.');
  return dot == std::string_view::npos ? name : name.substr(0, dot);
}

/// Length of the union of [lo, hi) intervals.
double union_length(std::vector<std::pair<double, double>>& iv) {
  if (iv.empty()) return 0;
  std::sort(iv.begin(), iv.end());
  double total = 0, lo = iv[0].first, hi = iv[0].second;
  for (std::size_t i = 1; i < iv.size(); ++i) {
    if (iv[i].first > hi) {
      total += hi - lo;
      lo = iv[i].first;
      hi = iv[i].second;
    } else {
      hi = std::max(hi, iv[i].second);
    }
  }
  return total + (hi - lo);
}

}  // namespace

std::vector<std::string> SpanLog::self_time_table() const {
  struct Row {
    std::uint64_t count = 0;
    double v_total = 0, v_self = 0, h_total = 0, h_self = 0;
  };
  // Children of every span, clipped to the parent interval.
  std::vector<std::vector<std::uint32_t>> children(spans_.size() + 1);
  for (const auto& s : spans_) children[s.parent].push_back(s.id);

  std::map<std::string, Row> rows;
  std::vector<std::pair<double, double>> vi, hi;
  for (const auto& s : spans_) {
    Row& r = rows[std::string(layer_of(s.name))];
    ++r.count;
    const double vdur = static_cast<double>(s.v1 - s.v0);
    const double hdur = s.host_timed ? static_cast<double>(s.h1 - s.h0) : 0.0;
    vi.clear();
    hi.clear();
    for (auto c : children[s.id]) {
      const Span& k = spans_[c - 1];
      const double v0 = std::max<double>(static_cast<double>(k.v0), static_cast<double>(s.v0));
      const double v1 = std::min<double>(static_cast<double>(k.v1), static_cast<double>(s.v1));
      if (v1 > v0) vi.emplace_back(v0, v1);
      if (s.host_timed && k.host_timed) {
        const double h0 = std::max<double>(static_cast<double>(k.h0), static_cast<double>(s.h0));
        const double h1 = std::min<double>(static_cast<double>(k.h1), static_cast<double>(s.h1));
        if (h1 > h0) hi.emplace_back(h0, h1);
      }
    }
    r.v_total += vdur;
    r.v_self += vdur - union_length(vi);
    r.h_total += hdur;
    r.h_self += hdur - union_length(hi);
  }
  std::vector<std::string> out;
  char line[256];
  std::snprintf(line, sizeof line, "%-12s %10s %16s %16s %14s %14s", "layer", "spans",
                "virt_total_ms", "virt_self_ms", "host_total_ms", "host_self_ms");
  out.emplace_back(line);
  for (const auto& [layer, r] : rows) {
    std::snprintf(line, sizeof line, "%-12s %10llu %16.6f %16.6f %14.3f %14.3f", layer.c_str(),
                  static_cast<unsigned long long>(r.count), r.v_total / 1e6, r.v_self / 1e6,
                  r.h_total / 1e6, r.h_self / 1e6);
    out.emplace_back(line);
  }
  return out;
}

bool SpanLog::write_chrome_json(const std::string& path, std::size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":"
               "\"virtual clock\"}},\n"
               "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{\"name\":"
               "\"host clock\"}}");
  const std::size_t n = std::min(max_spans, spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    const std::string name(s.name);
    const std::string layer(layer_of(s.name));
    if (s.virtual_timed) {
      std::fprintf(f,
                   ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"name\":\"%s\",\"cat\":\"%s\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,\"op\":%llu}}",
                   s.lane, name.c_str(), layer.c_str(), static_cast<double>(s.v0) / 1e3,
                   static_cast<double>(s.v1 - s.v0) / 1e3, s.id, s.parent,
                   static_cast<unsigned long long>(s.op));
    }
    if (s.host_timed) {
      std::fprintf(f,
                   ",\n{\"ph\":\"X\",\"pid\":2,\"tid\":%u,\"name\":\"%s\",\"cat\":\"%s\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,\"op\":%llu}}",
                   s.lane, name.c_str(), layer.c_str(), static_cast<double>(s.h0) / 1e3,
                   static_cast<double>(s.h1 - s.h0) / 1e3, s.id, s.parent,
                   static_cast<unsigned long long>(s.op));
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(sim::Engine& e, std::string_view name, std::uint32_t parent,
                       std::uint64_t op)
    : e_(e), id_(spans().open(name, parent, e.now(), op)) {}

ScopedSpan::~ScopedSpan() { spans().close(id_, e_.now()); }

// ---------------------------------------------------------------------------

bool Stepper::step_until(sim::Engine& engine, const std::function<bool()>& done) {
  while (!done()) {
    if (!engine.step()) return false;
    ++events_;
    const std::uint64_t depth = engine.pending();
    if (depth >= depth_hist_.size()) depth_hist_.resize(depth + 1, 0);
    ++depth_hist_[depth];
    depth_max_ = std::max(depth_max_, depth);
    if (on_step) on_step();
    if (batch_ != 0 && (ops_ != nullptr ? *ops_ : engine.now()) >= batch_next_) {
      const std::int64_t cpu = host_cpu_ns();
      const std::uint64_t mark = ops_ != nullptr ? *ops_ : engine.now();
      const double calib = calibration_ns();
      batches_.push_back({static_cast<double>(cpu - batch_cpu_),
                          static_cast<double>(mark - batch_mark_), calib});
      calib_cpu_ += calib;
      batch_mark_ = mark;
      batch_next_ = mark + batch_;
      batch_cpu_ = host_cpu_ns();
    }
  }
  return true;
}

void Stepper::start_window(std::uint64_t batch, Time now, const std::uint64_t* ops) {
  events_ = 0;
  depth_max_ = 0;
  depth_hist_.clear();
  window_allocs_ = alloc_count();
  batch_ = batch;
  ops_ = ops;
  batches_.clear();
  calib_cpu_ = 0;
  window_cpu_ = batch_cpu_ = host_cpu_ns();
  window_virt_ = now;
  batch_mark_ = ops != nullptr ? *ops : now;
  batch_next_ = batch_mark_ + batch;
}

WindowCost Stepper::finish_window(Time now, std::uint64_t ops) {
  check(ops > 0, "timed window completed an operation");
  WindowCost out;
  out.cpu_ns = static_cast<double>(host_cpu_ns() - window_cpu_) - calib_cpu_;
  const AllocCount allocs = alloc_count();
  out.allocs = {allocs.calls - window_allocs_.calls, allocs.bytes - window_allocs_.bytes};
  out.events = events_;
  out.queue_p50 = depth_percentile(50);
  out.queue_max = depth_max_;
  // Batches counted in ops are per-op costs as they stand; batches counted
  // in virtual time are scaled by the window's virtual time per op.
  const double scale =
      ops_ != nullptr ? 1.0
                      : static_cast<double>(now - window_virt_) / static_cast<double>(ops);
  batch_ = 0;
  ops_ = nullptr;
  for (const auto& b : batches_) {
    if (b.len <= 0) continue;
    const double raw_us = b.cpu_ns / b.len * scale / 1e3;
    out.raw_us.push_back(raw_us);
    out.calib_us.push_back(b.calib_ns / 1e3);
    out.us.push_back(raw_us * kCalibrationReferenceNs / b.calib_ns);
  }
  if (out.us.size() < 4) {
    const double raw_us = out.cpu_ns / static_cast<double>(ops) / 1e3;
    const double calib = calibration_ns();
    out.raw_us = {raw_us};
    out.calib_us = {calib / 1e3};
    out.us = {raw_us * kCalibrationReferenceNs / calib};
  }
  return out;
}

double calibration_ns() {
  // A fixed discrete-event-style loop of the benchmark's own (no simulator
  // code): a 4096-entry binary heap of (time, id) pairs, popped and
  // re-pushed, with small allocations churned beside it.
  // Static storage and malloc keep it out of the operator-new counters.
  static std::array<std::pair<std::uint64_t, std::uint64_t>, 4096> heap;
  const std::int64_t t0 = host_cpu_ns();
  std::uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint64_t i = 0; i < heap.size(); ++i) heap[i] = {next(), i};
  std::make_heap(heap.begin(), heap.end());
  std::array<void*, 256> blocks{};
  for (int i = 0; i < 10'000; ++i) {
    std::pop_heap(heap.begin(), heap.end());
    heap.back().first += next() & 0xffff;
    std::push_heap(heap.begin(), heap.end());
    void*& block = blocks[next() & 255];
    std::free(block);
    block = std::malloc(64 + (next() & 255));
  }
  for (void* block : blocks) std::free(block);
  // Memory bandwidth: 8 MiB copied between two buffers larger than the
  // last-level cache, as the data plane copies payloads between worker
  // buffers.
  constexpr std::size_t kBuffer = 16u << 20, kChunk = 256u << 10;
  static auto* const src = static_cast<std::uint8_t*>(std::calloc(kBuffer, 1));
  static auto* const dst = static_cast<std::uint8_t*>(std::calloc(kBuffer, 1));
  static std::size_t offset = 0;
  for (int i = 0; i < 32; ++i) {
    std::memcpy(dst + offset, src + (kBuffer - kChunk - offset), kChunk);
    offset = (offset + kChunk) % (kBuffer - kChunk);
  }
  return static_cast<double>(host_cpu_ns() - t0);
}

void Stepper::run(cluster::Harness& h, sim::Task<void> task) {
  bool finished = false;
  auto wrapper = [](sim::Task<void> t, bool* flag) -> sim::Task<void> {
    co_await std::move(t);
    *flag = true;
  };
  h.spawn(wrapper(std::move(task), &finished));
  check(step_until(h.engine(), [&] { return finished; }), "task finished before the queue drained");
}

double Stepper::depth_percentile(double p) const {
  std::uint64_t total = 0;
  for (auto c : depth_hist_) total += c;
  if (total == 0) return 0;
  const double target = p / 100.0 * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t d = 0; d < depth_hist_.size(); ++d) {
    seen += depth_hist_[d];
    if (static_cast<double>(seen) >= target) return static_cast<double>(d);
  }
  return static_cast<double>(depth_hist_.size() - 1);
}

// ---------------------------------------------------------------------------

namespace {

constexpr std::string_view kColdStartSpanNames[6] = {
    "coldstart.connect_manager", "coldstart.lease",           "coldstart.submit_allocation",
    "coldstart.spawn_workers",   "coldstart.connect_workers", "coldstart.submit_code"};

std::array<Duration, 6> phases_of(const rfaas::ColdStartBreakdown& b) {
  return {b.connect_manager, b.lease, b.submit_allocation, b.spawn_workers, b.connect_workers,
          b.submit_code};
}

}  // namespace

sim::Task<AllocSample> traced_allocate(rfaas::Invoker& invoker, rfaas::AllocationSpec spec,
                                       std::uint32_t parent, std::uint64_t op,
                                       std::uint32_t lane) {
  sim::Engine& engine = *sim::Engine::current();
  const auto before = phases_of(invoker.cold_start());
  const Time t0 = engine.now();
  const std::uint32_t span = spans().open("invoker.allocate", parent, t0, op, lane);
  auto status = co_await invoker.allocate(spec);
  spans().close(span, engine.now());
  check(status.ok(), "allocate succeeds");

  AllocSample sample;
  sample.latency = engine.now() - t0;
  const auto after = phases_of(invoker.cold_start());
  // connect_manager is assigned per call; the other phases accumulate
  // over the invoker's lifetime, so this call's share is the delta.
  Duration sum = 0;
  Time at = t0;
  for (std::size_t i = 0; i < 6; ++i) {
    sample.phases[i] = i == 0 ? after[0] : after[i] - before[i];
    spans().add_virtual(kColdStartSpanNames[i], span, at, at + sample.phases[i], op, lane);
    at += sample.phases[i];
    sum += sample.phases[i];
  }
  check(sum == sample.latency, "coldstart phases sum exactly to the allocate latency");
  co_return sample;
}

std::unique_ptr<cluster::Harness> deploy_round(RunResult& run, const cluster::ScenarioSpec& spec,
                                               unsigned round, std::uint32_t& root) {
  const std::int64_t cpu0 = host_cpu_ns();
  const std::uint32_t span = spans().open("cluster.harness", 0, 0, round);
  auto h = std::make_unique<cluster::Harness>(spec);
  spans().close(span, h->engine().now());
  root = spans().open("bench.round", 0, h->engine().now(), round);
  h->registry().add_echo();
  {
    ScopedSpan start(h->engine(), "cluster.start", root, round);
    h->start();
  }
  run.deploy_s.push_back(static_cast<double>(host_cpu_ns() - cpu0) / 1e9);
  return h;
}

void report_cold_start(const std::vector<AllocSample>& samples, Report& out) {
  for (std::size_t i = 0; i < 6; ++i) {
    std::vector<double> v;
    v.reserve(samples.size());
    for (const auto& s : samples) v.push_back(static_cast<double>(s.phases[i]) / 1e6);
    out.set(std::string(kColdStartSpanNames[i]) + "_ms", median(std::move(v)), "ms",
            Clock::Virtual);
  }
}

}  // namespace rfs::perfbench
