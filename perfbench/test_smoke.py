"""Smoke test of the benchmark itself at toy dimensions.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload untraced and traced, checks that the last stdout line
is the contract's JSON with every named metric, that the gates ran and
passed, that compare mode reads the result set, and that the benchmark
fails without printing a result when the rismf sources are missing.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GATES = {
    "am-loop": {"records-finite", "objective-monotone"},
    "su-sweep-t2": {"records-finite", "mf-am-most-accurate"},
    "uplink-sweep": {"records-finite", "mf-decreasing-in-k"},
}


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.fixture(scope="module")
def result_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("results")
    runs = {}
    for workload in GATES:
        for trace in (0, 1):
            proc = run(["perfbench/run.py", "--workload", workload, "--seed", "3",
                        "--seconds", "0.2", "--trace", str(trace), "--dims", "toy",
                        "--out", str(out)])
            runs[workload, trace] = proc
    return out, runs


@pytest.mark.parametrize("workload", sorted(GATES))
@pytest.mark.parametrize("trace", (0, 1))
def test_run_prints_every_metric(result_set, workload, trace):
    proc = result_set[1][workload, trace]
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        entry = last["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"])
        assert f"{metric['name']} " in proc.stdout  # printed by name too


@pytest.mark.parametrize("workload", sorted(GATES))
def test_gates_ran(result_set, workload):
    out = result_set[0]
    summaries = [json.loads(p.read_text()) for p in out.rglob("result.json")]
    traced = [s for s in summaries if s["workload"] == workload and s["trace"] == 1]
    assert len(traced) == 1
    assert list(out.glob(f"{workload}-s3-t1-*/traced.spans.jsonl.gz"))
    names = {name.split(".", 1)[-1] for name in traced[0]["gates"]}
    assert names == GATES[workload] | {"csv-identical-traced", "metrics-finite"}
    assert all(gate["passed"] for gate in traced[0]["gates"].values())
    provenance = traced[0]["provenance"]
    assert provenance["nproc"] >= 1 and provenance["src_lines"] > 0
    assert set(provenance["blas_thread_env"]) >= {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}


def test_compare_reads_a_result_set(result_set):
    out = str(result_set[0])
    proc = run(["perfbench/compare.py", out, out])
    assert proc.returncode == 0, proc.stderr
    for workload in GATES:
        assert f"{workload} " in proc.stdout
    assert "no worse" in proc.stdout


def test_compare_refuses_other_environments(result_set, tmp_path):
    other = tmp_path / "other"
    path = next(result_set[0].rglob("result.json"))
    summary = json.loads(path.read_text())
    summary["provenance"]["blas_thread_env"]["OPENBLAS_NUM_THREADS"] = "7"
    (other / "run").mkdir(parents=True)
    (other / "run" / "result.json").write_text(json.dumps(summary))
    proc = run(["perfbench/compare.py", str(result_set[0]), str(other)])
    assert proc.returncode == 2
    assert "refusing to compare" in proc.stderr


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(["perfbench/run.py", "--workload", "am-loop", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
