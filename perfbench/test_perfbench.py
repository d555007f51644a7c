"""Self-test of the benchmark, in smoke mode (3 trials per identity, ~1 s a workload).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace,
               "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    specs = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    if workload != "check-mixed":
        assert result["failed"] == 0


def test_table_names_every_end_to_end_metric():
    proc = run("--workload", "all", "--smoke")
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines()
            if not line.startswith(("env ", "stdout sha256 "))]
    assert [r.split()[0] for r in rows] == list(worker.WORKLOADS)
    for name in ("verdicts_per_s", "verdict_ms_p50", "error_rate", "setup_s", "peak_rss_mb"):
        assert name in rows[0]
    assert "decomps_per_s" in rows[2] and "decomp_us_p50" in rows[2]


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "decompose-d8",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_corpus_lines_all_carry_a_known_answer():
    groups = [worker.load_group(p) for p in sorted(worker.CORPUS.glob("*.txt"))]
    assert {g.command for g in groups} == {"check", "basis", "suite"}
    for g in groups:
        assert g.lines or g.expect_all == "PASS"
        for _, identity, status in g.lines:
            assert status in ("PASS", "FAIL", "PARSE_ERROR"), (g.path.name, identity)
    assert [g.path.name for g in groups if g.probe] == ["suite-d8-binary64-wide.txt"]


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 129))
    assert worker.tail(values, 0.90) == (0.90, 116)
    q, value = worker.tail(list(range(1, 51)), 0.90)
    assert value == 40 and q == 0.8


def test_count_wrong_counts_mismatched_missing_and_extra_reports():
    expected = [(1, "a == a", "PASS"), (2, "b == c", "FAIL")]
    assert worker.count_wrong(expected, [(1, "a == a", "PASS"), (2, "b == c", "FAIL")]) == 0
    assert worker.count_wrong(expected, [(1, "a == a", "PASS"), (2, "b == c", "PASS")]) == 1
    assert worker.count_wrong(expected, [(1, "a == a", "PASS")]) == 1
    assert worker.count_wrong(expected[:1], [(1, "a == a", "PASS")] * 2) == 1
