"""The triprod benchmark: verdict and decomposition throughput, latency,
soundness, set-up time and memory, one workload per child process.

    python3 perfbench/run.py --workload suite-exact-d8 --seed 42 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all              # one row per workload
    python3 perfbench/run.py --workload all --trace 1    # per-layer table
    python3 perfbench/run.py --workload all --smoke      # tiny trials, a few seconds

For a single workload the last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics named
in BENCHMARK.json with `--trace 0`, the per-layer metrics with `--trace 1`.
Run it from the root of a checkout; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("suite-exact-d8", "suite-binary64-d8", "decompose-d8", "check-mixed")
SETUP_PROBES = 12
DEADLINE_S = 170  # a run must end within 180 s


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def setup_seconds(probes: int) -> list:
    """Set-up time of `probes` fresh interpreters, one after another."""
    times = []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py")],
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_worker(workload, args, timeout):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(res, setup):
    """End-to-end metric values by their BENCHMARK.json names."""
    attempted = res["attempted"]
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": res["ops_per_s"],
        "op_ms_p50": res["op_ms_p50"],
        "op_ms_p90": res["op_ms_p90"],
        "correct_share": 1 - res["failed"] / attempted,
        "peak_rss_mb": res["peak_rss_mb"],
    }


def correct(res) -> bool:
    """No crash, and no wrong output outside a soundness probe."""
    return not res["crashed"] and res["failed"] == res["probe_failed"]


def row(workload, res, values):
    """The readable metric names for one workload: verdicts or decompositions."""
    n = res["latency_samples"]
    q90 = res["op_ms_p90_quantile"]
    if workload == "decompose-d8":
        q99 = res["op_ms_p99_quantile"]
        perf = [("decomps_per_s", values["ops_per_s"], "1/s"),
                ("decomp_us_p50", res["op_ms_p50"] * 1e3, f"us (n={n})"),
                (f"decomp_us_p{q99 * 100:.3g}", res["op_ms_p99"] * 1e3, f"us (n={n})")]
    else:
        perf = [("verdicts_per_s", values["ops_per_s"], "1/s"),
                ("verdict_ms_p50", res["op_ms_p50"], f"ms (n={n})"),
                (f"verdict_ms_p{q90 * 100:.3g}", res["op_ms_p90"], f"ms (n={n})")]
    perf += [("error_rate", res["failed"] / res["attempted"],
              f"({res['failed']}/{res['attempted']})"),
             ("setup_s", values["setup_s"], "s"),
             ("peak_rss_mb", values["peak_rss_mb"], "MB")]
    cells = "  ".join(f"{name}={value:.6g} {unit}" for name, value, unit in perf)
    return f"{workload:18s} {cells}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds from "
                             "BENCHMARK.json, 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="3 trials per identity, 1 s per workload: checks that it runs")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "triprod" / "__init__.py").is_file():
        return fail(f"no triprod source under {ROOT / 'src'}; run from a full checkout")
    if not spec_path.is_file():
        return fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text("utf-8"))
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]

    start = time.monotonic()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        if args.workload == "all":
            start = time.monotonic()
        probes = 0 if args.trace else 2 if args.smoke else SETUP_PROBES
        try:
            # The first probe is a warm-up that leaves compiled bytecode behind,
            # as a user's first run would; the rest are split around the
            # workload so that they sample the machine at different moments.
            setup = setup_seconds(probes // 2 + 1)[1:]
            res = run_worker(workload, args, DEADLINE_S - (time.monotonic() - start))
            setup += setup_seconds(probes - probes // 2)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        values = res["layers"] if args.trace else end_to_end(res, setup)
        missing = [m["name"] for m in metric_specs if m["name"] not in values]
        if missing:
            return fail(f"{workload}: no value for {', '.join(missing)}")
        results[workload] = (res, values)
        print(f"env {workload}: {json.dumps(res['env'])}")
        if "stdout_sha256" in res:
            print(f"stdout sha256 {workload}: {' '.join(res['stdout_sha256'])}")
        if args.trace:
            print(f"spans {workload}: {res['spans']} written to {res['spans_file']}")
        else:
            print(row(workload, res, values))

    if args.trace:
        print(f"{'layer metric (per operation)':34s}" + "".join(f"{w:>20s}" for w in workloads))
        for m in metric_specs:
            cells = "".join(f"{results[w][1][m['name']]:20.6g}" for w in workloads)
            print(f"{m['name'] + ' [' + m['unit'] + ']':34s}{cells}")

    if args.workload == "all":
        return 0 if all(correct(r) for r, _ in results.values()) else 1
    res, values = results[args.workload]
    print(json.dumps({
        "correct": correct(res),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
