"""The repository benchmark: ``repro.run`` time-to-solution.

Usage::

    python3 perfbench/run.py                      # all four workloads
    python3 perfbench/run.py --workload fd2d_fine --seed 1 \\
        --seconds 20 --trace 0

One workload per invocation prints its end-to-end metrics (``--trace
0``) or the per-layer metrics of a traced run (``--trace 1``); with no
``--workload`` every workload runs both ways.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``).

Each workload runs in a child process in a new session.  Whatever
happens — success, an exception, a timeout, SIGINT or SIGTERM — the
session is killed and reaped and the scratch directory removed; before
exiting, the benchmark checks that no process it started is alive and
that no directory it created remains, and fails loudly otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# bytecode goes to a build cache, never into the source tree
sys.pycache_prefix = str(ROOT / ".bench_build" / "pycache")

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import procs  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

#: One invocation must end within this many seconds.
BUDGET = 170.0
#: Set-ups per run (the median is ``setup_s``); one for short runs.
SETUPS = 5
SHORT_RUN = 5.0
#: Scratch space for every child, inside the checkout.
SCRATCH = ROOT / ".perfbench_work"


class BenchError(RuntimeError):
    """The benchmark could not produce a valid result."""


class Interrupted(BaseException):
    """SIGINT or SIGTERM arrived."""


def _on_signal(signum, frame):
    raise Interrupted(signum)


class Supervisor:
    """Starts children, and owns their sessions and scratch space."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.sessions: list[int] = []
        self.scratch = SCRATCH / f"run-{os.getpid()}"
        self._n = 0

    def child(self, workload, mode, seed, seconds) -> tuple[dict, float]:
        """Run one child to completion; ``(result, setup seconds)``."""
        self._n += 1
        workdir = self.scratch / f"{self._n:02d}-{workload}-{mode}"
        tmp = workdir / "tmp"
        tmp.mkdir(parents=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        # compiled bytecode is a build cache: reused, so set-up time
        # does not depend on how the caller's environment is configured
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix
        # anything the program puts in a temporary directory lands here
        env["TMPDIR"] = str(tmp)
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--mode", mode,
               "--workdir", str(workdir)]
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=sys.stderr.fileno(),
                                start_new_session=True)
        self.sessions.append(proc.pid)
        try:
            rc = proc.wait(timeout=max(self.deadline - time.monotonic(), 1))
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            proc.wait()
        left = procs.kill_session(proc.pid)
        if rc is None:
            raise BenchError(f"{workload} ({mode}) ran out of time")
        if rc != 0:
            raise BenchError(f"{workload} ({mode}) exited with {rc}")
        if left:
            raise BenchError(f"{workload} ({mode}): processes {left} "
                             "survived SIGKILL")
        leftovers = sorted(p.name for p in tmp.iterdir())
        if leftovers:
            raise BenchError(f"{workload} ({mode}) left {leftovers} in "
                             "its temporary directory")
        result = json.loads((workdir / "result.json").read_text())
        shutil.rmtree(workdir)
        return result, result["t_ready"] - t_spawn

    def cleanup(self) -> list[str]:
        """Kill and reap every session, remove scratch; report leftovers."""
        problems = []
        for sid in self.sessions:
            left = procs.kill_session(sid)
            if left:
                problems.append(f"session {sid}: {left} still alive")
        procs.reap_zombies()
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # missing, or another run's scratch is inside
        alive = sorted(set(procs.session_members(set(self.sessions))
                           + procs.descendants(os.getpid())))
        if alive:
            problems.append(f"processes still alive: {alive}")
        if self.scratch.exists():
            problems.append(f"directory still present: {self.scratch}")
        return problems


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_failures(res: dict) -> None:
    for kind, detail in res.get("failures", {}).items():
        print(f"  first {kind} failure: {detail}", file=sys.stderr)
    print(f"  fail_ratio = {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']}/{res['attempted']} ops failed)")


def measure(sup: Supervisor, name: str, seed: int, seconds: float,
            trace: bool) -> dict:
    """One workload, untraced or traced; the result JSON object."""
    print(f"== {name}  seed={seed}  seconds={seconds:g}  "
          f"trace={int(trace)}")
    if trace:
        res, _ = sup.child(name, "trace", seed, seconds)
        metrics = {}
        for metric, unit in PER_LAYER:
            value = res["metrics"].get(metric)
            if value is None:
                raise BenchError(f"{name}: no value for {metric}")
            metrics[metric] = {"value": value, "unit": unit}
            print(f"  {metric} = {_fmt(value)} {unit}")
        print(f"  spans recorded: {res['spans']}")
    else:
        n_setups = SETUPS if seconds >= SHORT_RUN else 1
        setups = [sup.child(name, "setup", seed, seconds)[1]
                  for _ in range(n_setups - 1)]
        res, setup = sup.child(name, "run", seed, seconds)
        setups.append(setup)
        if res["run_s_p50"] is None:
            raise BenchError(f"{name}: no op succeeded")
        res["setup_s"] = statistics.median(setups)
        metrics = {m: {"value": res[m], "unit": u} for m, u in END_TO_END}
        notes = {
            "setup_s": f"(median of {len(setups)} set-ups)",
            "run_s_p50": f"(n={res['ops']} ops)",
        }
        for metric, unit in END_TO_END:
            print(f"  {metric} = {_fmt(res[metric])} {unit} "
                  f"{notes.get(metric, '')}".rstrip())
        if res["run_s_p90"] is None:
            print(f"  run_s_p90 not reported: {res['ops']} ops < 100")
        else:
            print(f"  run_s_p90 = {_fmt(res['run_s_p90'])} s "
                  f"(n={res['ops']} ops)")
        if name == "service_mix":
            print(f"  cache-hit share achieved = {res['hit_ratio']:.4f}")
    print("  host: " + json.dumps(res["host"], sort_keys=True))
    report_failures(res)
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="repro.run time-to-solution benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source ({ROOT / 'src' / 'repro'})"
              " is missing", file=sys.stderr)
        return 2
    procs.become_subreaper()
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, _on_signal)
    t0 = time.monotonic()
    sup = Supervisor(t0 + BUDGET if args.workload != "all" else
                     t0 + BUDGET * 2 * len(WORKLOADS))
    rc = 0
    try:
        if args.workload == "all":
            out = {"correct": True, "attempted": 0, "failed": 0,
                   "metrics": {}}
            for name in WORKLOADS:
                for trace in (False, True):
                    one = measure(sup, name, args.seed, args.seconds, trace)
                    out["correct"] &= one["correct"]
                    out["attempted"] += one["attempted"]
                    out["failed"] += one["failed"]
                    out["metrics"].update(
                        {f"{name}.{k}": v for k, v in
                         one["metrics"].items()})
        else:
            out = measure(sup, args.workload, args.seed, args.seconds,
                          bool(args.trace))
    except Interrupted as exc:
        print(f"perfbench: interrupted by signal {exc.args[0]}",
              file=sys.stderr)
        rc = 128 + exc.args[0]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        rc = 1
    finally:
        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, signal.SIG_IGN)
        problems = sup.cleanup()
    if problems:
        for p in problems:
            print(f"perfbench: left behind: {p}", file=sys.stderr)
        return 1
    if rc:
        return rc
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
