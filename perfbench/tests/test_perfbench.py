"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest -q perfbench/tests

Each benchmark run here is a real one at --seconds 1 (one pass), so the
whole file takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, workload: str, seed: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines[:-1], json.loads(lines[-1]) if lines else None


@pytest.fixture(scope="module", params=[w["name"] for w in SPEC["workloads"]])
def runs(request):
    return {trace: bench(ROOT, request.param, 1, trace) for trace in (0, 1)}


def test_every_metric_is_printed_with_its_unit(runs):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc, lines, result = runs[trace]
        assert proc.returncode == 0, proc.stderr
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        printed = {line.split()[1]: line.split()[3] for line in lines}
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
        for name, unit in expected.items():
            assert printed[name] == unit
    values = {line.split()[1]: float(line.split()[2]) for line in runs[0][1]}
    assert values["error_rate"] == 0


def test_corrupted_reference_fails_the_run(tmp_path):
    root = tmp_path / "checkout"
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src", root / "src", ignore=ignore)
    shutil.copytree(BENCH, root / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    ref_file = root / "perfbench" / "refs" / "schur_table.json"
    ref = json.loads(ref_file.read_text())
    key = sorted(ref["products"])[0]
    ref["products"][key] = "0" * 24
    ref_file.write_text(json.dumps(ref))

    proc, lines, result = bench(root, "schur-table", 1, 0)
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] >= 1
    values = {line.split()[1]: float(line.split()[2]) for line in lines}
    assert values["error_rate"] > 0


def test_missing_package_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, lines, result = bench(tmp_path, "hecke-eps", 1, 0)
    assert proc.returncode != 0 and result is None


def _inputs(seed: int, tmp_path: Path) -> list[str]:
    return [f"{x} | {y}" for x, y in workloads.HeckeEps(seed, tmp_path).pairs]


def test_hecke_eps_inputs_follow_the_seed(tmp_path):
    assert _inputs(1, tmp_path) == _inputs(1, tmp_path)
    assert _inputs(1, tmp_path) != _inputs(2, tmp_path)


def test_end_to_end_run_installs_no_wrapper():
    plain = run.spawn("schur-table", 0, "--passes", "1")
    traced = run.spawn("schur-table", 0, "--passes", "1", "--trace")
    assert plain["wrappers"] == []
    assert "cycloschur.ring.RingElem.__mul__" in traced["wrappers"]
    assert "cycloschur.verify.epsilon_u" in traced["wrappers"]
