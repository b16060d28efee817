#!/usr/bin/env python3
"""Benchmark of the sort service: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload serve|wire|bulk --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The script builds the `perfbench` package (its own Cargo workspace,
depending on the repository's crates by path), then starts fresh
processes of it, so every process pays local-kernel calibration once:

* `--trace 0`: set-up-only processes plus a measuring process;
  `setup_s` is the median set-up time of the SETUP_RUNS set-up processes
  the hypervisor took the least CPU from, every other metric comes from
  the measuring process.
* `--trace 1`: one untraced and one traced measuring process. The traced
  one turns on the program's own `TraceConfig`, reports the per-layer
  metrics and writes a Chrome trace under `perfbench/out/`; the tracing
  overhead is the traced run's figures minus the untraced run's.

A measuring process that ran while the host's CPU steal was above
STEAL_LIMIT_PCT is run again, within a wall-clock budget; if no attempt
gets under the limit, the least disturbed one is reported and the miss is
named on standard error.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The process exits non-zero,
without a result, when the benchmark cannot be built or run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve", "wire", "bulk")
SETUP_RUNS = 5
SETUP_ATTEMPTS = 10
MEASURE_ATTEMPTS = 3
# A process whose run saw more of the host's CPU taken by other tenants
# (`steal` in /proc/stat) than this is measured again: steal stalls every
# thread of the program at random and is no property of the program.
STEAL_LIMIT_PCT = 5.0
# Wall-clock budget of one invocation: a further measuring attempt
# starts only while it still fits.
BUDGET_S = 40
CHILD_TIMEOUT_S = 90

# name: (unit, better). Metric names carry their unit as a suffix where
# it is a time, so a value can be checked against its unit by name.
END_TO_END = {
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "latency_p99_ms": ("ms", "lower"),
    "throughput_rps": ("1/s", "higher"),
    "keys_per_s": ("1/s", "higher"),
    "ok_rate": ("ratio", "higher"),
    "slo_ok_rate": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

# name: (unit, better, layer, the end-to-end metric it should move).
PER_LAYER = {
    "admission.submit_us_p50": ("us", "lower", "service::admission", "latency_p50_ms on serve"),
    "admission.shed": ("count", "lower", "service::admission", "latency_p50_ms on serve"),
    "coalescer.requests_per_batch": ("req/batch", "higher", "service::coalescer", "latency_p50_ms on serve"),
    "coalescer.flushes": ("count", "lower", "service::coalescer", "latency_p50_ms on serve"),
    "coalescer.waits": ("count", "lower", "service::coalescer", "latency_p50_ms, throughput_rps on wire"),
    "queue.wait_us_p50": ("us", "lower", "service::server dispatcher", "latency_p50_ms on serve and wire"),
    "queue.wait_us_p99": ("us", "lower", "service::server dispatcher", "latency_p99_ms on serve"),
    "tagged.encode_us": ("us", "lower", "core::tagged", "latency_p50_ms on serve"),
    "tagged.split_us": ("us", "lower", "core::tagged", "latency_p50_ms on serve"),
    "tagged.useful_ratio": ("ratio", "higher", "core::tagged", "latency_p50_ms on serve"),
    "pool.plan_hit_rate": ("ratio", "higher", "service::pool", "latency_p50_ms on serve and bulk"),
    "pool.steady_plan_misses": ("count", "lower", "service::pool", "latency_p50_ms on serve and bulk"),
    "pool.batches_failed": ("count", "lower", "service::pool", "ok_rate on all"),
    "run.self_us_p50": ("us", "lower", "service::pool", "latency_p50_ms on serve and bulk"),
    "core.compute_ms": ("ms", "lower", "core + spmd", "keys_per_s on bulk"),
    "core.pack_ms": ("ms", "lower", "core + spmd", "keys_per_s on bulk"),
    "core.transfer_ms": ("ms", "lower", "core + spmd", "keys_per_s on bulk"),
    "core.unpack_ms": ("ms", "lower", "core + spmd", "keys_per_s on bulk"),
    "core.barrier_ms": ("ms", "lower", "core + spmd", "keys_per_s on bulk"),
    "core.remaps": ("count", "lower", "core + spmd", "keys_per_s on bulk"),
    "core.elements_sent": ("count", "lower", "core + spmd", "keys_per_s on bulk"),
    "core.messages": ("count", "lower", "core + spmd", "keys_per_s on bulk"),
    "kernels.radix": ("count", "lower", "sorts (local_sorts::dispatch)", "keys_per_s on bulk"),
    "kernels.bitonic_net": ("count", "lower", "sorts (local_sorts::dispatch)", "keys_per_s on bulk"),
    "kernels.circular_merge": ("count", "lower", "sorts (local_sorts::dispatch)", "keys_per_s on bulk"),
    "kernels.network_merge": ("count", "lower", "sorts (local_sorts::dispatch)", "keys_per_s on bulk"),
    "setup.calibrate_ms": ("ms", "lower", "sorts (local_sorts::dispatch)", "setup_s on all"),
    "split.plan_us": ("us", "lower", "service::split", "latency_p50_ms, keys_per_s on bulk"),
    "split.partitions": ("count", "lower", "service::split", "latency_p50_ms, keys_per_s on bulk"),
    "split.max_skew": ("ratio", "lower", "service::split", "latency_p50_ms, keys_per_s on bulk"),
    "merge.us_p50": ("us", "lower", "service::split", "latency_p50_ms, keys_per_s on bulk"),
    "shard.steals": ("count", "lower", "service::router + shard", "latency_p90_ms on bulk"),
    "shard.stolen_requests": ("count", "lower", "service::router + shard", "latency_p90_ms on bulk"),
    "shard.queue_wait_us_p99.narrow": ("us", "lower", "service::router + shard", "latency_p90_ms on bulk"),
    "shard.queue_wait_us_p99.wide": ("us", "lower", "service::router + shard", "latency_p90_ms on bulk"),
    "frame.encode_us": ("us", "lower", "service::net", "throughput_rps, latency_p50_ms on wire"),
    "frame.decode_us": ("us", "lower", "service::net", "throughput_rps, latency_p50_ms on wire"),
    "wire.client_write_us": ("us", "lower", "service::net", "throughput_rps, latency_p50_ms on wire"),
    "wire.client_wait_us": ("us", "lower", "service::net", "throughput_rps, latency_p50_ms on wire"),
    "wire.bytes_read": ("B", "lower", "service::net", "throughput_rps on wire"),
    "wire.bytes_written": ("B", "lower", "service::net", "throughput_rps on wire"),
    "wire.frame_errors": ("count", "lower", "service::net", "ok_rate on wire"),
    "records.payload_bytes": ("B", "higher", "service::server record plane", "keys_per_s on wire"),
    "scatter.self_us_p50": ("us", "lower", "service::server record plane", "keys_per_s on wire"),
    "setup.boot_ms": ("ms", "lower", "set-up", "setup_s on all"),
    "setup.warmup_ms": ("ms", "lower", "set-up", "setup_s on all"),
    "gen.late_p99_ms": ("ms", "lower", "generator", "validity only"),
    "gen.sent": ("count", "higher", "generator", "validity only"),
    "trace.overhead_p50_ms": ("ms", "lower", "tracing", "traced minus untraced latency_p50_ms"),
    "trace.overhead_throughput_rps": ("1/s", "higher", "tracing", "traced minus untraced throughput_rps"),
    "host.steal_pct": ("%", "lower", "host", "validity only"),
    "host.quiet_windows": ("count", "higher", "host", "validity only"),
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the benchmark in release mode; return the binary's path."""
    manifest = os.path.join(HERE, "Cargo.toml")
    proc = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        timeout=850,
    )
    if proc.returncode != 0:
        fail("build failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(target, "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"no binary at {binary}")
    return binary


def child(binary, workload, seed, seconds, *flags):
    """Run one benchmark process and return its parsed RESULT line."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), *flags]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    lines = [l for l in proc.stdout.splitlines() if l.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        fail(f"process failed ({proc.returncode}): {' '.join(cmd)}")
    result = json.loads(lines[-1][len("RESULT "):])
    for e in result["errors"]:
        print(f"perfbench: {workload} seed {seed}: {e}", file=sys.stderr)
    return result


def metrics_of(values, table):
    missing = [n for n in table if n not in values]
    if missing:
        fail(f"metrics not emitted: {', '.join(missing)}")
    return {n: {"value": values[n], "unit": table[n][0]} for n in table}


def steal(result):
    return result["values"]["host.steal_pct"]


def gated(run, deadline):
    """Start `run` until one process ran with the host's CPU steal at or
    under STEAL_LIMIT_PCT, at most MEASURE_ATTEMPTS times and only while
    another attempt fits before `deadline`; return the least disturbed."""
    results = []
    while True:
        t = time.monotonic()
        results.append(run())
        took = time.monotonic() - t
        if (steal(results[-1]) <= STEAL_LIMIT_PCT or len(results) >= MEASURE_ATTEMPTS
                or time.monotonic() + took > deadline):
            break
    best = min(results, key=steal)
    if steal(best) > STEAL_LIMIT_PCT:
        print(f"perfbench: steal gate not met: {len(results)} attempts, least steal "
              f"{steal(best):.1f}% > {STEAL_LIMIT_PCT}%; reporting that attempt", file=sys.stderr)
    return best, results


def setup_seconds(binary, workload, seed, seconds):
    """Median set-up time of the SETUP_RUNS least disturbed set-up-only
    processes; more are started, up to SETUP_ATTEMPTS, until SETUP_RUNS
    of them ran under the steal limit."""
    setups = []
    while len(setups) < SETUP_ATTEMPTS:
        setups.append(child(binary, workload, seed, seconds, "--setup-only"))
        if sum(steal(r) <= STEAL_LIMIT_PCT for r in setups) >= SETUP_RUNS:
            break
    kept = sorted(setups, key=steal)[:SETUP_RUNS]
    return statistics.median(r["values"]["setup_s"] for r in kept), setups


def measure(binary, workload, seed, seconds, trace):
    deadline = time.monotonic() + BUDGET_S
    if not trace:
        setup_s, setups = setup_seconds(binary, workload, seed, seconds)
        run, runs = gated(lambda: child(binary, workload, seed, seconds), deadline)
        results = setups + runs
        values = dict(run["values"])
        values["setup_s"] = setup_s
        table = END_TO_END
        attempted, failed = run["attempted"], run["failed"]
    else:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        trace_file = os.path.join(out_dir, f"trace-{workload}-{seed}.json")
        plain, plains = gated(lambda: child(binary, workload, seed, seconds), deadline)
        traced, traceds = gated(
            lambda: child(binary, workload, seed, seconds, "--trace", "--trace-out", trace_file),
            deadline)
        results = plains + traceds
        values = dict(traced["values"])
        for name, base in [("trace.overhead_p50_ms", "latency_p50_ms"),
                           ("trace.overhead_throughput_rps", "throughput_rps")]:
            values[name] = traced["values"][base] - plain["values"][base]
        table = PER_LAYER
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        print(f"perfbench: chrome trace: {os.path.relpath(trace_file, ROOT)}", file=sys.stderr)
    for r in results:
        print(f"perfbench: host steal {steal(r):.1f}%, "
              f"kernel table {r['notes'].get('kernel_table')}", file=sys.stderr)
    return {
        "correct": all(not r["errors"] for r in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_of(values, table),
    }


def unit_in_name(name):
    """The unit a metric's name spells out, if any."""
    tokens = name.replace(".", "_").split("_")
    if "rps" in tokens or name.endswith("per_s"):
        return "1/s"
    for token, unit in [("ms", "ms"), ("us", "us"), ("mb", "MB"), ("s", "s")]:
        if token in tokens:
            return unit
    return None


def selftest(binary):
    """Short runs of every workload: every metric in BENCHMARK.json is
    emitted with its unit, one seed always generates the same inputs,
    and every reply is correct."""
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    if declared != {n: v for n, v in END_TO_END.items()}:
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if declared != {n: v[:2] for n, v in PER_LAYER.items()}:
        problems.append("BENCHMARK.json per_layer differs from run.py")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    for name in list(END_TO_END) + list(PER_LAYER):
        unit = END_TO_END.get(name, PER_LAYER.get(name))[0]
        want = unit_in_name(name)
        if want is not None and unit != want:
            problems.append(f"{name}: unit {unit}, name says {want}")
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    for w in WORKLOADS:
        digest = child(binary, w, 7, 1, "--digest")
        for term in digest["notes"]["why_terms"].split("|"):
            if term not in whys.get(w, ""):
                problems.append(f"{w}: BENCHMARK.json why does not state {term!r}")
        a = digest["notes"]["input_digest"]
        b = child(binary, w, 7, 1, "--digest")["notes"]["input_digest"]
        c = child(binary, w, 8, 1, "--digest")["notes"]["input_digest"]
        if a != b:
            problems.append(f"{w}: seed 7 generated different inputs twice")
        if a == c:
            problems.append(f"{w}: seeds 7 and 8 generated the same inputs")
        for trace in (False, True):
            r = measure(binary, w, 7, 2, trace)
            table = PER_LAYER if trace else END_TO_END
            for name, (unit, *_rest) in table.items():
                m = r["metrics"].get(name)
                if m is None or m["unit"] != unit or not isinstance(m["value"], (int, float)):
                    problems.append(f"{w}: {name} missing or without unit {unit}")
            if not r["correct"]:
                problems.append(f"{w} (trace {int(trace)}): a check failed")
            if not trace and r["metrics"]["ok_rate"]["value"] != 1.0:
                problems.append(f"{w}: ok_rate {r['metrics']['ok_rate']['value']} != 1.0")
            if trace:
                with open(os.path.join(HERE, "out", f"trace-{w}-7.json")) as f:
                    events = json.load(f)["traceEvents"]
                if not any(e.get("cat") == "bench" for e in events):
                    problems.append(f"{w}: chrome trace has no benchmark spans")
            print(f"perfbench selftest: {w} trace {int(trace)} done", file=sys.stderr)
    for p in problems:
        print(f"perfbench selftest: {p}", file=sys.stderr)
    print(json.dumps({"selftest": "ok" if not problems else "failed", "problems": len(problems)}))
    sys.exit(1 if problems else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    binary = build()
    if args.selftest:
        selftest(binary)
    if args.workload is None:
        fail("--workload is required")
    result = measure(binary, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
