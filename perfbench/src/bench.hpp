// Shared machinery of the rfaas-sim benchmark: the two clocks, the metric
// report, the engine stepper that counts events, the global allocation
// counters, the span log of the traced run, and the correctness checks.
//
// The benchmark treats every layer from outside: it drives the public API
// (cluster::Harness, rfaas::Invoker, rfaas::Session, the protocol codec,
// the sharded manager core) and records spans only around its own calls.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/harness.hpp"
#include "common/units.hpp"

namespace rfs::perfbench {

// ---------------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------------

/// Which clock a metric is on. `Virtual` is the simulated clock the paper
/// measures (deterministic for a seed); `Host` is what running the
/// simulator costs on this machine; `None` is a ratio or a count.
enum class Clock : std::uint8_t { Virtual, Host, None };

const char* to_string(Clock c);

/// Host CPU time of this (single-threaded) process, nanoseconds. User +
/// system time, so page faults of simulated buffers count.
std::int64_t host_cpu_ns();

/// Host monotonic wall time, nanoseconds since the first call.
std::int64_t host_wall_ns();

// ---------------------------------------------------------------------------
// Allocation counters (global operator new hook, alloc_hook.cpp)
// ---------------------------------------------------------------------------

struct AllocCount {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

AllocCount alloc_count();

// ---------------------------------------------------------------------------
// Metric report
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  Clock clock = Clock::None;
};

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit, Clock clock);
  [[nodiscard]] const Metric* find(const std::string& name) const;
  [[nodiscard]] const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Checks: a failed check prints the seed and exits non-zero.
// ---------------------------------------------------------------------------

void set_check_seed(std::uint64_t seed, const std::string& workload);
void check(bool ok, const std::string& what);

// ---------------------------------------------------------------------------
// Sample statistics
// ---------------------------------------------------------------------------

/// Linear-interpolated percentile of `v` (sorted in place), p in [0, 100].
double percentile(std::vector<double>& v, double p);
double median(std::vector<double> v);

/// The highest of p99/p90/p50 with at least ten samples beyond it.
double tail_percentile_for(std::size_t samples);

// ---------------------------------------------------------------------------
// Span log of the traced run
// ---------------------------------------------------------------------------

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint32_t lane = 0;    ///< timeline track (client coroutine)
  std::uint64_t op = 0;      ///< operation id (invocation, cycle, probe)
  std::string_view name;     ///< static string: "<layer>.<call>"
  Time v0 = 0, v1 = 0;       ///< virtual start/end
  std::int64_t h0 = 0, h1 = 0;  ///< host wall start/end
  bool host_timed = true;    ///< false for children derived from a breakdown
  bool virtual_timed = true; ///< false for host-only probes
};

class SpanLog {
 public:
  [[nodiscard]] bool on() const { return on_; }
  void enable(bool on) { on_ = on; }

  /// Opens a span; returns its id (0 when tracing is off).
  std::uint32_t open(std::string_view name, std::uint32_t parent, Time v0,
                     std::uint64_t op = 0, std::uint32_t lane = 0);
  void close(std::uint32_t id, Time v1);
  /// Adds a closed span with only a virtual interval (cold-start phases).
  void add_virtual(std::string_view name, std::uint32_t parent, Time v0, Time v1,
                   std::uint64_t op, std::uint32_t lane);
  /// Opens a span with only a host interval (probes); close with close().
  std::uint32_t open_host(std::string_view name);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes Chrome trace-event JSON (opens in Perfetto): one process per
  /// clock. At most `max_spans` spans are written.
  bool write_chrome_json(const std::string& path, std::size_t max_spans) const;

  /// Per-layer self time on both clocks, printed as a table; returns the
  /// rows as "<layer> <spans> <virt_total_ms> <virt_self_ms> <host_total_ms>
  /// <host_self_ms>" lines.
  std::vector<std::string> self_time_table() const;

 private:
  bool on_ = false;
  std::vector<Span> spans_;
};

SpanLog& spans();

/// RAII span around a synchronous call (host and virtual clocks).
class ScopedSpan {
 public:
  ScopedSpan(sim::Engine& e, std::string_view name, std::uint32_t parent, std::uint64_t op = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  sim::Engine& e_;
  std::uint32_t id_;
};

// ---------------------------------------------------------------------------
// Host cost under contention. On a shared machine the speed of a core
// moves with other tenants' load (by up to 2x on a shared 4-vCPU Xeon
// host). After every batch of a timed window the benchmark times a fixed
// calibration loop of its own and scales the batch's cost by
// kCalibrationReferenceNs / (that time): the cost at the reference speed.
// ---------------------------------------------------------------------------

/// Host CPU ns of one run of the calibration loop.
double calibration_ns();

/// The reference speed: the calibration loop taking 2 ms of CPU time (it
/// takes 2.0-2.6 ms on a shared 4-vCPU Xeon host).
inline constexpr double kCalibrationReferenceNs = 2.0e6;

/// Host cost of one timed window.
struct WindowCost {
  std::vector<double> us;        ///< per batch: calibrated host us per op
  std::vector<double> raw_us;    ///< per batch: measured host us per op
  std::vector<double> calib_us;  ///< per batch: calibration loop time
  double cpu_ns = 0;             ///< window CPU time without calibration
  std::uint64_t events = 0;      ///< engine events stepped
  AllocCount allocs;             ///< operator-new calls and bytes
  double queue_p50 = 0;          ///< pending events, sampled every step
  std::uint64_t queue_max = 0;
};

// ---------------------------------------------------------------------------
// Engine stepper: the benchmark drives the engine itself, one event at a
// time, so it can count events and sample the queue depth.
// ---------------------------------------------------------------------------

class Stepper {
 public:
  /// Steps `engine` until `done()` holds or the queue drains; returns
  /// false if it drained first. `on_step` runs after every event.
  bool step_until(sim::Engine& engine, const std::function<bool()>& done);

  /// Runs one task to completion on the engine.
  void run(cluster::Harness& h, sim::Task<void> task);

  /// Hook called after every step (warm-pool integrals); may be empty.
  std::function<void()> on_step;

  /// Opens a timed window at virtual time `now`. From here on the host
  /// CPU time is recorded per batch: every `batch` completed ops of the
  /// counter `ops` or, without a counter, every `batch` ns of virtual time.
  /// A per-batch median is what a burst of machine noise barely moves.
  void start_window(std::uint64_t batch, Time now, const std::uint64_t* ops = nullptr);
  /// Closes the window after `ops` completed ops; returns the host cost
  /// per op of every batch (or of the whole window when it held fewer
  /// than four batches) and the engine and allocation counts.
  WindowCost finish_window(Time now, std::uint64_t ops);

 private:
  [[nodiscard]] double depth_percentile(double p) const;

  struct Batch {
    double cpu_ns;    ///< host CPU time of the batch
    double len;       ///< ops, or virtual ns
    double calib_ns;  ///< calibration loop right after it
  };
  std::uint64_t events_ = 0;
  std::uint64_t depth_max_ = 0;
  std::vector<std::uint64_t> depth_hist_;
  std::uint64_t batch_ = 0;
  const std::uint64_t* ops_ = nullptr;
  std::uint64_t batch_next_ = 0, batch_mark_ = 0;
  Time window_virt_ = 0;
  std::int64_t batch_cpu_ = 0, window_cpu_ = 0;
  double calib_cpu_ = 0;
  std::vector<Batch> batches_;
  AllocCount window_allocs_;
};

// ---------------------------------------------------------------------------
// Allocation with cold-start children
// ---------------------------------------------------------------------------

/// One allocate() call split into the invoker's six client-observed
/// cold-start phases: connect_manager, lease, submit_allocation,
/// spawn_workers, connect_workers, submit_code.
struct AllocSample {
  Duration latency = 0;     ///< allocate() call -> ready (virtual)
  Duration phases[6] = {};  ///< this call's share of Invoker::cold_start()
};

/// allocate() under a span whose children are built from the invoker's
/// ColdStartBreakdown; checks that the phases sum exactly to the latency.
sim::Task<AllocSample> traced_allocate(rfaas::Invoker& invoker, rfaas::AllocationSpec spec,
                                       std::uint32_t parent, std::uint64_t op,
                                       std::uint32_t lane);

/// Per-phase p50 of `samples` into `out` as coldstart.<phase>_ms.
void report_cold_start(const std::vector<AllocSample>& samples, Report& out);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct RunResult;

/// Builds and starts one round's Harness (with the echo function), under
/// the cluster.harness and cluster.start spans, and files its host CPU
/// time as deploy time. `root` receives the round's bench.round span.
std::unique_ptr<cluster::Harness> deploy_round(RunResult& run, const cluster::ScenarioSpec& spec,
                                               unsigned round, std::uint32_t& root);

/// What every workload hands back to main().
struct RunResult {
  Report virt;             ///< virtual-clock and count metrics (deterministic)
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t ops = 0;   ///< completed ops the host cost is divided by
  std::vector<double> setup_s;      ///< per round: set-up host CPU s, calibrated
  std::vector<double> setup_raw_s;  ///< per round: set-up host CPU s as measured
  WindowCost host;         ///< batches of the untraced rounds
  WindowCost traced_host;  ///< batches of the traced rounds
  std::vector<double> deploy_s;       ///< per round: Harness construction + start
  std::vector<double> standby_attach_s;
  std::uint64_t events = 0;  ///< during the timed windows
  double measure_cpu_s = 0;
  AllocCount allocs;
  double queue_p50 = 0;      ///< the largest of the windows'
  std::uint64_t queue_max = 0;
  std::size_t live_leases = 0;  ///< measured live-lease count (manager probes)

  /// Files one round's set-up time (round start, or process start for
  /// round 0, to the first timed op), scaled like a batch.
  void add_setup(double raw_s) {
    setup_raw_s.push_back(raw_s);
    setup_s.push_back(raw_s * kCalibrationReferenceNs / calibration_ns());
  }

  /// Files one timed window's host cost.
  void add_window(bool traced, const WindowCost& w) {
    WindowCost& dst = traced ? traced_host : host;
    dst.us.insert(dst.us.end(), w.us.begin(), w.us.end());
    dst.raw_us.insert(dst.raw_us.end(), w.raw_us.begin(), w.raw_us.end());
    dst.calib_us.insert(dst.calib_us.end(), w.calib_us.begin(), w.calib_us.end());
    measure_cpu_s += w.cpu_ns / 1e9;
    events += w.events;
    allocs.calls += w.allocs.calls;
    allocs.bytes += w.allocs.bytes;
    queue_p50 = std::max(queue_p50, w.queue_p50);
    queue_max = std::max(queue_max, w.queue_max);
  }
};

/// Rounds per run: each builds a fresh Harness, sets it up (set-up time is
/// their median) and runs a fifth of the timed workload.
inline constexpr unsigned kRounds = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  unsigned seconds = 10;
  bool trace = false;
  std::string trace_dir = ".bench_build/traces";
};

RunResult run_hot_invoke(const Options& opt);
RunResult run_lease_churn(const Options& opt);
RunResult run_alloc_cycle(const Options& opt);

/// Admission capacity of lease-churn's manager (also sizes the admit probe).
inline constexpr double kLeaseChurnCapacityHz = 30'000;

/// Host probes and virtual probes of single layers (traced run only,
/// after the workload); `run.live_leases` sizes the manager probes.
void run_probes(const RunResult& run, Report& out);

/// True when round `r` of a traced run records spans: traced and
/// untraced rounds alternate so the overhead is measured in one process.
inline bool traced_round(const Options& opt, unsigned r) { return opt.trace && r % 2 == 1; }

}  // namespace rfs::perfbench
