"""Run one benchmark workload in this process and print its result as JSON.

run.py starts one of these per workload, so peak memory belongs to that
workload alone.  Load is closed-loop: one caller, no extra threads, and the
next verdict or decomposition starts only after the previous one returned.

    python3 perfbench/worker.py --workload suite-exact-d8 --seed 42 --seconds 60 --trace 0
"""

from __future__ import annotations

import argparse
import array
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shlex
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CORPUS = BENCH / "corpus"
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("suite-exact-d8", "suite-binary64-d8", "decompose-d8", "check-mixed")
DEFAULT_SEED = 42
# Trials per identity.  The CLI default is 1000, but a 1000-trial dim-8 suite
# run takes about 10 s, so a run could hold only two and their median would
# not reject the slow stretches of a shared machine.  The sampling loop is the
# same at any trial count.
TRIALS = 200
SMOKE_TRIALS = 3
DECOMP_BATCH = 200
SMOKE_DECOMP_BATCH = 20

clock = time.perf_counter


def import_triprod():
    """Import triprod from this checkout's src/, never from anywhere else."""
    if not (SRC / "triprod" / "__init__.py").is_file():
        raise SystemExit(f"error: no triprod package under {SRC}")
    sys.path.insert(0, str(SRC))
    tp = importlib.import_module("triprod")
    for name in ("core", "decomp", "oracle", "dsl", "suite", "cli"):
        importlib.import_module(f"triprod.{name}")
    if Path(tp.__file__).resolve().parent != (SRC / "triprod").resolve():
        raise SystemExit(f"error: imported triprod from {tp.__file__}, not {SRC}")
    return tp


@dataclass
class Rep:
    """One repetition: a suite run, a corpus pass or a batch of decompositions."""

    ops: int = 0
    failed: int = 0
    probe_failed: int = 0  # wrong verdicts in a soundness-probe slice
    crashed: bool = False
    wall_s: float = 0.0  # the whole repetition, verification included
    latencies: array.array = field(default_factory=lambda: array.array("d"))


class Capture:
    """Stands in for stdout; notes when each line of output completes."""

    def __init__(self):
        self.parts = []
        self.line_times = []

    def write(self, s):
        t = clock()
        self.parts.append(s)
        self.line_times.extend([t] * s.count("\n"))
        return len(s)

    def flush(self):
        pass

    def text(self):
        return "".join(self.parts)


def run_cli(tp, argv):
    """cli.main(argv) with stdout captured: (exit code, text, per-line latencies).

    A line's latency runs from the previous line (or the call) to its arrival,
    which is the time to verdict a user watching the stream sees.
    """
    cap = Capture()
    saved = sys.stdout
    sys.stdout = cap
    t0 = clock()
    try:
        code = tp.cli.main(argv)
    finally:
        sys.stdout = saved
    times = [t0] + cap.line_times
    return code, cap.text(), array.array("d", (b - a for a, b in zip(times, times[1:])))


def reported(text, fmt, numbered):
    """(line number or None, identity, status) for each report in CLI output."""
    out = []
    for raw in text.splitlines():
        if fmt == "json":
            obj = json.loads(raw)
            out.append((None, obj["identity"], obj["status"]))
            continue
        lineno = None
        if numbered:
            head, raw = raw.split(": ", 1)
            lineno = int(head.removeprefix("line "))
        status, identity = raw.split(" | ", 2)[:2]
        out.append((lineno, identity, status))
    return out


def count_wrong(expected, got):
    """Reports that differ from the known answers, or are missing or extra."""
    wrong = abs(len(expected) - len(got))
    for (lineno, identity, status), (g_lineno, g_identity, g_status) in zip(expected, got):
        if (identity, status) != (g_identity, g_status) or g_lineno not in (None, lineno):
            wrong += 1
    return wrong


def exit_code_for(command, statuses):
    """The exit code the CLI documents for the verdicts it printed."""
    if command == "check" and "PARSE_ERROR" in statuses:
        return 3
    return 0 if all(s == "PASS" for s in statuses) else 1


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_verified(tp, r, argv, expected, fmt="text"):
    """One CLI invocation, timed into `r` and checked against `expected`.

    Returns (stdout, wrong verdicts), or None if it raised; then every verdict
    it owed counts as failed.
    """
    r.ops += len(expected)
    try:
        code, text, latencies = run_cli(tp, argv)
        got = reported(text, fmt, numbered=argv[0] == "check" and fmt == "text")
    except Exception:
        traceback.print_exc()
        r.failed += len(expected)
        r.crashed = True
        return None
    r.latencies += latencies
    wrong = count_wrong(expected, got)
    r.failed += wrong + (code != exit_code_for(argv[0], [g[2] for g in got]))
    return text, wrong


# ---------------------------------------------------------------------------
# Workloads


class SuiteWorkload:
    """`triprod suite` at dim 8, stdout captured; one repetition is one run."""

    min_reps = 2

    def __init__(self, tp, name, backend, seed, trials):
        self.tp = tp
        self.argv = ["suite", "--dim", "8", "--backend", backend,
                     "--seed", str(seed), "--trials", str(trials)]
        self.expected = [(None, line, "PASS") for line in tp.builtin_lines(8)]
        self.pinned = None
        if seed == DEFAULT_SEED and trials == TRIALS:
            pins = json.loads((BENCH / "digests.json").read_text("utf-8"))
            self.pinned = pins[name]
        self.digests = []

    def rep(self, tracer):
        r = Rep()
        out = run_verified(self.tp, r, self.argv, self.expected)
        if out is not None:
            digest = sha256(out[0])
            self.digests.append(digest)
            r.failed += digest != self.digests[0]
            r.failed += self.pinned is not None and digest != self.pinned
        return r


@dataclass
class CorpusGroup:
    path: Path
    command: str
    dim: int
    backend: str
    argv: list  # CLI options from the file's `# run:` line
    fmt: str
    probe: bool
    expect_all: str | None
    lines: list  # (lineno, identity, expected status)


def load_group(path: Path) -> CorpusGroup:
    run_args, expect_all, probe, lines = None, None, False, []
    for lineno, raw in enumerate(path.read_text("utf-8").splitlines(), start=1):
        body, _, comment = raw.partition("#")
        comment = comment.strip()
        if body.strip():
            status = comment.split(":", 1)[0].split()[0]
            lines.append((lineno, body.strip(), status))
        elif comment.startswith("run:"):
            run_args = shlex.split(comment.removeprefix("run:"))
        elif comment.startswith("expect-all:"):
            expect_all = comment.removeprefix("expect-all:").strip()
        elif comment.startswith("probe:"):
            probe = True
    opts = argparse.ArgumentParser(add_help=False)
    opts.add_argument("--dim", type=int, default=8)
    opts.add_argument("--backend", default="exact")
    opts.add_argument("--format", default="text")
    known, _ = opts.parse_known_args(run_args[1:])
    return CorpusGroup(path, run_args[0], known.dim, known.backend, run_args[1:],
                       known.format, probe, expect_all, lines)


class CheckMixedWorkload:
    """The checker on the committed corpus; one repetition is one pass over it.

    Groups run in file-name order: basis checks through the library API, the
    others through `triprod check FILE` or `triprod suite`.
    """

    min_reps = 2

    def __init__(self, tp, seed, trials):
        self.tp = tp
        self.seed = seed
        self.trials = trials
        self.groups = [load_group(p) for p in sorted(CORPUS.glob("*.txt"))]

    def rep(self, tracer):
        r = Rep()
        for group in self.groups:
            if group.command == "basis":
                self._basis(group, r)
            else:
                self._cli(group, r)
        return r

    def _cli(self, group, r):
        argv = [group.command]
        if group.command == "check":
            argv.append(str(group.path))
            expected = group.lines
        else:
            expected = [(None, line, group.expect_all)
                        for line in self.tp.builtin_lines(group.dim)]
        argv += group.argv + ["--seed", str(self.seed), "--trials", str(self.trials)]
        out = run_verified(self.tp, r, argv, expected, group.fmt)
        if out is not None and group.probe:
            r.probe_failed += out[1]

    def _basis(self, group, r):
        dsl = self.tp.dsl
        for _, identity, status in group.lines:
            r.ops += 1
            t0 = clock()
            try:
                report = dsl.check_identity_basis(identity, dim=group.dim, backend=group.backend)
                json.dumps(dsl.report_json_obj(report))
            except Exception:
                traceback.print_exc()
                r.failed += 1
                r.crashed = True
                continue
            t1 = clock()
            r.latencies.append(t1 - t0)
            r.failed += report.status != status


class DecomposeWorkload:
    """Seeded random integer triples in [-9, 9] at dim 8.

    One operation is decompose_triple followed by the three closed-form
    squared lengths; one repetition is a batch of operations.  Each result
    is then checked, untimed, through the independent oracle path.
    """

    min_reps = 10

    def __init__(self, tp, seed, batch):
        self.tp = tp
        self.rng = random.Random(seed)
        self.batch = batch
        self.table = tp.oracle.build_table(8)

    def triple(self):
        randint = self.rng.randint
        return tuple(self.tp.hnum([randint(-9, 9) for _ in range(8)]) for _ in range(3))

    def op(self, u1, u2, u3):
        decomp = self.tp.decomp
        return (decomp.decompose_triple(u1, u2, u3),
                decomp.norm_sq_acomm3(u1, u2, u3),
                decomp.norm_sq_cross3(u1, u2, u3),
                decomp.norm_sq_assoc3(u1, u2, u3))

    def check(self, u1, u2, u3, result) -> bool:
        """Product via oracle.mul_table equals the sum of the parts; the parts
        are pairwise orthogonal; the closed forms equal the parts' squared
        lengths and sum to the norm product."""
        tp = self.tp
        parts, n_acomm, n_cross, n_assoc = result
        a, c, s = parts.anticommutator, parts.cross, parts.associator
        product = tp.mul_table(tp.mul_table(u1, tp.conj(u2), self.table), u3, self.table)
        total = tp.add(tp.add(a, c), s)
        return (product.coeffs == total.coeffs == parts.product.coeffs
                and tp.inner(a, c) == 0 and tp.inner(a, s) == 0 and tp.inner(c, s) == 0
                and n_acomm == tp.norm_sq(a) and n_cross == tp.norm_sq(c)
                and n_assoc == tp.norm_sq(s)
                and n_acomm + n_cross + n_assoc
                == tp.norm_sq(u1) * tp.norm_sq(u2) * tp.norm_sq(u3))

    def rep(self, tracer):
        r = Rep(ops=self.batch)
        for _ in range(self.batch):
            u = self.triple()
            try:
                if tracer is None:
                    t0 = clock()
                    result = self.op(*u)
                    t1 = clock()
                else:
                    tracer.active = True
                    try:
                        t0 = clock()
                        result = tracer.span("decompose", self.op, *u)
                        t1 = clock()
                    finally:
                        tracer.active = False
                ok = self.check(*u, result)
            except Exception:
                traceback.print_exc()
                r.failed += 1
                r.crashed = True
                continue
            r.latencies.append(t1 - t0)
            r.failed += not ok
        return r


def make_workload(tp, name, seed, smoke):
    trials = SMOKE_TRIALS if smoke else TRIALS
    if name == "suite-exact-d8":
        return SuiteWorkload(tp, name, "exact", seed, trials)
    if name == "suite-binary64-d8":
        return SuiteWorkload(tp, name, "binary64", seed, trials)
    if name == "decompose-d8":
        return DecomposeWorkload(tp, seed, SMOKE_DECOMP_BATCH if smoke else DECOMP_BATCH)
    return CheckMixedWorkload(tp, seed, trials)


# ---------------------------------------------------------------------------
# Measurement


def traced_rep(workload, tracer):
    """One repetition with every library layer wrapped.

    Suite and corpus repetitions trace everything they call; the decompose
    workload switches tracing on around each operation itself, so that its
    untimed check stays out of the layers.
    """
    tracer.install()
    try:
        tracer.active = not isinstance(workload, DecomposeWorkload)
        t0 = clock()
        rep = workload.rep(tracer)
        rep.wall_s = clock() - t0
    finally:
        tracer.active = False
        tracer.uninstall()
    return rep


def timed_rep(workload):
    t0 = clock()
    rep = workload.rep(None)
    rep.wall_s = clock() - t0
    return rep


def measure(workload, seconds, min_reps):
    """Untraced repetitions until the next would overrun `seconds`."""
    reps = []
    start = clock()
    while True:
        reps.append(timed_rep(workload))
        if len(reps) >= min_reps and clock() - start + reps[-1].wall_s > seconds:
            return reps


def measure_traced(workload, tracer, seconds):
    """Alternate untraced and traced repetitions of the same work."""
    plain, traced = [], []
    start = clock()
    while True:
        plain.append(timed_rep(workload))
        traced.append(traced_rep(workload, tracer))
        pair = plain[-1].wall_s + traced[-1].wall_s
        if clock() - start + pair > seconds:
            return plain, traced


def tail(sorted_values, q):
    """(quantile used, value): the nearest-rank q-quantile if at least 10
    samples lie above it, else the highest quantile that has 10 above it."""
    n = len(sorted_values)
    rank = math.ceil(round(q * n, 9))
    if rank > n - 10:
        rank = max(n - 10, 1)
        q = rank / n
    return q, sorted_values[rank - 1]


def summarize(reps):
    """Counts and timing statistics over the repetitions of one run.

    Every repetition runs the same sequence of operations (the same verdicts,
    or a batch of the same size), so throughput is taken from the typical
    repetition: the i-th operation's time is its median over repetitions.  A
    slow stretch of a shared machine that hits part of one repetition is then
    rejected operation by operation.
    """
    latencies = sorted(x for r in reps for x in r.latencies) or [0.0]
    typical = [statistics.median(times) for times in zip(*(r.latencies for r in reps))]
    out = {
        "reps": len(reps),
        "attempted": sum(r.ops for r in reps),
        "failed": sum(r.failed for r in reps),
        "probe_failed": sum(r.probe_failed for r in reps),
        "crashed": any(r.crashed for r in reps),
        "ops_per_s": len(typical) / sum(typical) if typical else 0.0,
        "latency_samples": len(latencies),
        "op_ms_p50": statistics.median(latencies) * 1e3,
    }
    for label, q in (("p90", 0.90), ("p99", 0.99)):
        q_used, value = tail(latencies, q)
        out[f"op_ms_{label}"] = value * 1e3
        out[f"op_ms_{label}_quantile"] = q_used
    return out


def layer_metrics(tracer, plain, traced):
    """Per-operation layer counts and self times from the traced repetitions."""
    ops = sum(r.ops for r in traced)
    wall = sum(r.wall_s for r in traced)
    plain_wall = sum(r.wall_s for r in plain) / sum(r.ops for r in plain)
    out = {}
    for layer, (calls, self_s) in tracer.acc.items():
        calls_name = "dsl.evaluate.nodes" if layer == "dsl.evaluate" else f"{layer}.calls"
        out[calls_name] = calls / ops
        out[f"{layer}.self_s"] = self_s / ops
    mul_calls, mul_self = tracer.acc["core.mul"]
    out["core.mul.us_per_call"] = mul_self / mul_calls * 1e6 if mul_calls else 0.0
    out["core.mul.fraction_share"] = tracer.mul_fraction_calls[0] / mul_calls if mul_calls else 0.0
    book = tracer.bookkeeping[0]
    out["trace.traced_wall_s"] = wall / ops
    out["trace.untraced_wall_s"] = plain_wall
    out["trace.overhead_s"] = wall / ops - plain_wall
    out["trace.bookkeeping_s"] = book / ops
    out["bench.loop_self_s"] = (wall - tracer.self_total() - book) / ops
    return out


def environment(seed, trials):
    loc = sum(len(p.read_text("utf-8").splitlines()) for p in (SRC / "triprod").glob("*.py"))
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "trials_per_identity": trials,
        "src_triprod_loc": loc,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_TRIALS} trials per identity, at least one repetition")
    args = parser.parse_args(argv)

    tp = import_triprod()
    trials = SMOKE_TRIALS if args.smoke else TRIALS
    workload = make_workload(tp, args.workload, args.seed, args.smoke)
    min_reps = 1 if args.smoke else workload.min_reps

    result = {"workload": args.workload, "env": environment(args.seed, trials)}
    if args.trace:
        tracer = Tracer(tp)
        plain, traced = measure_traced(workload, tracer, args.seconds)
        reps = plain + traced
        result["layers"] = layer_metrics(tracer, plain, traced)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["spans"] = len(tracer.spans)
    else:
        reps = measure(workload, args.seconds, min_reps)
        # Read before summarizing, which holds every latency as a float object.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(summarize(reps))
    if isinstance(workload, SuiteWorkload):
        result["stdout_sha256"] = sorted(set(workload.digests))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
