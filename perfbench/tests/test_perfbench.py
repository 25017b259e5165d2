"""The benchmark's own tests: metric tables, seeding, short runs of every
workload, and process/scratch hygiene under SIGTERM.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import procs  # noqa: E402
import metrics  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS, ServiceMix, service_sequence  # noqa: E402


def bench(*args, cwd=ROOT, timeout=175):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(metrics.GATED)
    assert set(metrics.GATED) <= set(WORKLOADS)
    assert list(WORKLOADS) == list(metrics.WORKLOADS)
    names = [n for n, _ in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    assert all(name and unit for name, unit in END_TO_END + PER_LAYER)


@pytest.mark.parametrize("name", ["fd2d_fine", "lb2d_coarse",
                                  "distrib_fd"])
def test_seed_sets_the_initial_fields(tmp_path, name):
    cls = WORKLOADS[name]
    a = cls(1, tmp_path / "a").fields(0)
    b = cls(1, tmp_path / "b").fields(0)
    c = cls(2, tmp_path / "c").fields(0)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert not np.array_equal(a["rho"], c["rho"])


def test_seed_sets_the_service_submissions(tmp_path):
    assert service_sequence(1, 400) == service_sequence(1, 400)
    assert service_sequence(1, 400) != service_sequence(2, 400)
    seq = service_sequence(3, 4000)
    # one new problem per block of four: three in four are repeats
    assert len(set(seq)) == pytest.approx(len(seq) / 4, abs=2)
    one, two = ServiceMix(1, tmp_path / "a"), ServiceMix(2, tmp_path / "b")
    assert one.spec(0).init != two.spec(0).init
    assert one.spec(0).init == ServiceMix(1, tmp_path / "c").spec(0).init


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_short_run_completes_without_failures(name):
    proc = bench("--workload", name, "--seed", "5", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        dict(END_TO_END)
    assert all(v["value"] > 0 for v in out["metrics"].values())
    assert "fail_ratio = 0 " in proc.stdout


def test_traced_run_prints_every_per_layer_metric():
    proc = bench("--workload", "fd2d_fine", "--seed", "5", "--seconds",
                 "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc.stdout)
    assert out["correct"] and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        dict(PER_LAYER)
    for name, unit in PER_LAYER:
        assert f"  {name} = " in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "fd2d_fine", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def _alive(pid: int) -> bool:
    st = procs._stat(pid)
    return st is not None and st[0] != "Z"


@pytest.mark.parametrize("name", ["service_mix", "distrib_fd"])
def test_sigterm_mid_run_leaves_nothing_behind(name):
    """Kill the benchmark while pool or rank workers are running."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "30", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    seen: set[int] = set()
    try:
        # the child, plus two pool workers or two rank workers
        deadline = time.monotonic() + 60
        while len(procs.descendants(proc.pid)) < 3:
            assert proc.poll() is None, proc.communicate()
            assert time.monotonic() < deadline, "workers never started"
            time.sleep(0.02)
        seen = set(procs.descendants(proc.pid))
        sessions = {procs._stat(p)[2] for p in seen if procs._stat(p)}
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 128 + signal.SIGTERM, err
    assert not out.strip().endswith("}")
    assert not [p for p in seen if _alive(p)]
    assert not procs.session_members(sessions - {0})
    assert not (ROOT / ".perfbench_work" / f"run-{proc.pid}").exists()
