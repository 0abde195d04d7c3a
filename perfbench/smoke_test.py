#!/usr/bin/env python3
"""Smoke test of the rfaas-sim benchmark: a tiny run of every workload.

    python3 perfbench/smoke_test.py

For each workload it runs run.py with --seconds 1, untraced and traced, and
checks that the run passes its correctness checks (exit code 0, "correct":
true, no failed operation), that the result line carries exactly the
metrics BENCHMARK.json registers, with their units, and that the metrics
the workload exercises are nonzero. It then checks determinism: two
untraced runs with one seed print byte-identical virtual-clock rows, and a
different seed changes them. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7

# Metrics each workload exercises (beyond the end-to-end ones, which every
# workload emits); a zero here means a layer stopped being measured.
EXERCISED = {
    "hot-invoke": ["invoke_p50_us", "invoke_p99_us", "invoke_kops", "samples.invoke",
                   "invoker.attempts_per_call", "coldstart.spawn_workers_ms"],
    "lease-churn": ["grant_p50_ms", "grant_p99_ms", "goodput_hz", "samples.grant",
                    "failed_pct", "manager.renewals_per_s", "admission.admit_pct",
                    "cluster.standby_attach_s"],
    "alloc-cycle": ["alloc_p50_ms", "alloc_p99_ms", "invoke_p50_us", "samples.alloc",
                    "executor.warm_hit_pct", "executor.warm_pool_mb",
                    "coldstart.submit_code_ms"],
}
# Per-layer metrics every traced run measures with its probes.
PROBED = ["sim.events_per_op", "sim.events_per_s", "sim.step_ns.d16", "sim.step_ns.d4096",
          "host.allocs_per_op", "fabric.rdma_rtt_us.1B", "fabric.rdma_rtt_us.4KiB",
          "fabric.post_poll_ns", "net.tcp_rtt_us.64B", "net.tcp_msg_ns",
          "rdmalib.buffer_alloc_us", "protocol.codec_ns.lease_request",
          "protocol.codec_ns.lease_grant", "protocol.codec_ns.extend_lease",
          "protocol.codec_ns.journal_record", "protocol.codec_ns.invocation_header",
          "invoker.noop_rtt_us", "invoker.overhead_ns", "manager.grant_release_us",
          "manager.sweep_us", "admission.admit_ns", "cluster.deploy_s",
          "trace.host_us_per_op", "trace.spans"]


def fail(message):
    print(f"SMOKE FAILED: {message}")
    sys.exit(1)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        fail(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
             f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def virtual_rows(lines):
    return [line for line in lines[:-1] if line.rstrip().endswith(" virtual")]


def check_result(workload, result, registered, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload}: correct/attempted/failed = {result['correct']}, "
             f"{result['attempted']}, {result['failed']}")
    metrics = result["metrics"]
    names = [m["name"] for m in registered]
    if list(metrics) != names:
        fail(f"{workload} trace {trace}: emitted {list(metrics)}, registered {names}")
    for m in registered:
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail(f"{workload}: unit of {m['name']} is {metrics[m['name']]['unit']}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if sorted(workloads) != sorted(EXERCISED):
        fail(f"BENCHMARK.json workloads {workloads}")

    for workload in workloads:
        lines, result = run(workload, SEED, 0)
        check_result(workload, result, bench["end_to_end"], 0)
        for name, metric in result["metrics"].items():
            if metric["value"] <= 0:
                fail(f"{workload}: end-to-end metric {name} reads {metric['value']}")

        again, _ = run(workload, SEED, 0)
        if virtual_rows(lines) != virtual_rows(again) or not virtual_rows(lines):
            fail(f"{workload}: virtual-clock metrics differ between two runs of seed {SEED}")
        other, _ = run(workload, SEED + 1, 0)
        if virtual_rows(lines) == virtual_rows(other):
            fail(f"{workload}: seeds {SEED} and {SEED + 1} give identical virtual metrics")

        traced_lines, traced = run(workload, SEED, 1)
        check_result(workload, traced, bench["per_layer"], 1)
        for name in EXERCISED[workload] + PROBED:
            if traced["metrics"][name]["value"] == 0:
                fail(f"{workload}: per-layer metric {name} reads 0")
        if traced["metrics"]["protocol.allocs_per_roundtrip"]["value"] != 0:
            fail(f"{workload}: protocol fast path allocates")
        trace_file = os.path.join(ROOT, ".bench_build", "traces",
                                  f"{workload}-seed{SEED}.trace.json")
        with open(trace_file) as f:
            events = json.load(f)["traceEvents"]
        if not any(e.get("ph") == "X" for e in events):
            fail(f"{workload}: trace file has no spans")
        if not any(line.strip().startswith("invoker") or line.strip().startswith("cluster")
                   for line in traced_lines):
            fail(f"{workload}: no self-time table")
        print(f"ok  {workload}: {len(result['metrics'])} end-to-end and "
              f"{len(traced['metrics'])} per-layer metrics, deterministic, "
              f"{len(events)} trace events")
    print("smoke test passed")


if __name__ == "__main__":
    main()
