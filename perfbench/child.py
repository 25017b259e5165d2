"""One workload in a fresh process: set up, measure, check, report.

Started by ``run.py`` in a session of its own, with ``--mode``:

``setup``  import, program-side set-up, report readiness, exit;
``run``    the same, then the timed closed loop (untraced) and the
           end-to-end metrics;
``trace``  an untraced and a traced loop, then every layer probe.

Results go to ``<workdir>/result.json``; ``run.py`` prints them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.distrib.initprog import initial_fields  # noqa: E402

import layers  # noqa: E402
from layers import median  # noqa: E402
from spans import Spans  # noqa: E402
from workloads import WORKLOADS, DistribFd, ServiceMix, channel_spec, \
    closed_loop  # noqa: E402

#: Share of ``--seconds`` given to each of the trace run's two loops.
TRACE_LOOP_SHARE = 0.3
#: Seconds of traced service load when service_mix is not the workload.
SERVE_PROBE_SECONDS = 2.0


def failures(records) -> dict:
    """First failure detail of each kind."""
    out: dict[str, str] = {}
    for r in records:
        if r.error and r.error not in out:
            out[r.error] = r.detail
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def end_to_end(wl, records, wall) -> dict:
    ok = [r for r in records if r.error is None]
    lat = sorted(r.latency for r in ok)
    return {
        "ops": len(records),
        "run_s_p50": median(lat) if lat else None,
        # only with ten samples beyond it
        "run_s_p90": lat[int(0.9 * len(lat))] if len(lat) >= 100 else None,
        "mlups": len(ok) * wl.nodes_per_op / wall / 1e6,
        "hit_ratio": sum(r.cached for r in ok) / max(len(ok), 1),
    }


def steps_for(grid) -> int:
    """Walk/runner steps: about 2e6 node-updates, 2 to 40 steps."""
    return max(2, min(40, 2_000_000 // (grid[0] * grid[1])))


def traced_loop(wl, spans: Spans, seconds: float, first: int = 0):
    """The workload's closed loop with its traced op."""
    op = layers.TRACED_OPS[wl.name]
    records, _ = closed_loop(
        lambda i: wl.run_op(i, partial(op, spans, wl, i)),
        seconds, wl.callers, first=first)
    return records


def loop_probe(cls, seed, workdir, seconds, probes):
    """Set up a workload, run its traced op for ``seconds``, check it."""
    wl = cls(seed, workdir)
    sp = probes.setdefault(cls.name, Spans())
    try:
        wl.setup()
        records = traced_loop(wl, sp, seconds)
    finally:
        wl.teardown()
    wl.verify(records)
    return wl, sp, records


def trace_run(wl, seconds, workdir: Path, probes: dict) -> tuple:
    """The traced run: returns (metrics, records)."""
    share = seconds * TRACE_LOOP_SHARE
    m: dict = {}
    try:
        untraced, _ = closed_loop(wl.run_op, share, wl.callers)
        sp = probes.setdefault(wl.name, Spans())
        traced = traced_loop(wl, sp, share, first=len(untraced))
        if isinstance(wl, ServiceMix):
            m.update(layers.serve_metrics(sp, untraced + traced,
                                          wl.gateway))
    finally:
        wl.teardown()
    records = untraced + traced
    wl.verify(records)

    def p50(recs):
        return median(r.latency for r in recs if r.error is None)

    m["trace.overhead_ratio"] = p50(traced) / p50(untraced)
    fixed = [r for r in untraced if r.error is None and not r.cached]
    fixed = fixed or [r for r in untraced if r.error is None]
    m["facade.fixed_ms"] = median(r.latency - r.elapsed
                                  for r in fixed) * 1e3

    # distrib_fd: its own loop, or one traced op of it
    if isinstance(wl, DistribFd):
        dist_wl = wl
        dist_sp = sp
    else:
        dist_wl, dist_sp, recs = loop_probe(
            DistribFd, wl.seed, workdir / "distrib", 0.0, probes)
        records += recs
    dist, t_step_max = layers.distrib_metrics(dist_sp)
    m.update(dist)

    if not isinstance(wl, ServiceMix):
        serve_wl, serve_sp, recs = loop_probe(
            ServiceMix, wl.seed, workdir / "serve", SERVE_PROBE_SECONDS,
            probes)
        records += recs
        m.update(layers.serve_metrics(serve_sp, recs, serve_wl.gateway))

    # net, at distrib_fd's ghost-strip size, and the paper's model
    d_spec, d_fields = dist_wl.spec(0), dist_wl.fields(0)
    strip = layers.strip_bytes(d_spec, d_fields)
    net, small_rtt = layers.net_metrics(workdir, strip,
                                        probes.setdefault("net", Spans()))
    m.update(net)
    d_serial = layers.serial_s_per_step(d_spec, d_fields, 20)
    m.update(layers.model_metrics(d_spec, d_fields, d_serial, net,
                                  small_rtt, t_step_max, dist_wl.steps))

    # in-process layers on this workload's own problem
    spec, fields = wl.spec(0), wl.fields(0)
    steps = steps_for(wl.grid)
    own = probes.setdefault("walk", Spans())
    sim = layers.walk_schedule(spec, fields, steps, own)
    other_method = "fd" if wl.method == "lb" else "lb"
    other_spec = channel_spec(other_method, wl.grid, wl.blocks)
    other_fields = initial_fields(other_spec, "random",
                                  seed=wl.input_seed(0))
    other = probes.setdefault("walk_other", Spans())
    layers.walk_schedule(other_spec, other_fields, steps, other)
    m.update(layers.walk_metrics(own, steps, sim))
    m.update(layers.runner_metrics(spec, fields, steps))
    if wl.backend == "threaded":
        driver = "graph" if wl.execution == "graph" else "threaded"
        cores = min(os.cpu_count() or 1, len(sim.subs))
    else:
        driver, cores = "serial", 1
    m.update(layers.runner_summary(m, driver, cores))

    host = layers.copy_probe(layers.cache_bytes(3))
    m.update(host)
    copy_bps = host["host.copy_gbps"] * 1e9
    m.update(layers.kernel_metrics(own, copy_bps))
    m.update(layers.kernel_metrics(other, copy_bps))
    return m, records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "run", "trace"))
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    workdir = Path(args.workdir)
    wl = WORKLOADS[args.workload](args.seed, workdir / "wl")
    result: dict = {}
    try:
        wl.setup()
    except BaseException:
        wl.teardown()
        raise
    result["t_ready"] = time.monotonic()
    if args.mode == "setup":
        wl.teardown()
    elif args.mode == "run":
        try:
            for key in wl.setup_keys():
                wl.reference(key)
            records, wall = closed_loop(wl.run_op, args.seconds,
                                        wl.callers)
        finally:
            wl.teardown()
        wl.verify(records)
        result.update(end_to_end(wl, records, wall))
        result["peak_rss_mb"] = peak_rss_mb()
        result["host"] = layers.host_record()
    else:
        probes: dict[str, Spans] = {}
        try:
            for key in wl.setup_keys():
                wl.reference(key)
        except BaseException:
            wl.teardown()
            raise
        metrics, records = trace_run(wl, args.seconds, workdir, probes)
        result["metrics"] = metrics
        result["host"] = layers.host_record()
        with open(workdir / "spans.jsonl", "w") as fh:
            result["spans"] = sum(sp.write(fh, probe)
                                  for probe, sp in probes.items())
    if args.mode != "setup":
        result["attempted"] = len(records)
        result["failed"] = sum(1 for r in records if r.error)
        result["failures"] = failures(records)
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
