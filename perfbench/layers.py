"""Per-layer metrics of the traced run, one probe per layer.

Layers are named after the program's modules.  Every probe records
spans from the benchmark's own code around calls into a layer's public
functions; nothing inside ``src/`` is instrumented.  The in-process
layers are measured on a *walked schedule*: the probe runs one serial
step itself (``compute_phase``, ``exchanger.exchange``,
``finalize_step``) and checks that the state is bitwise equal to
``Simulation.step`` on a twin, so the layer times belong to the same
program the workloads run.
"""

from __future__ import annotations

import os
import platform
import statistics
import threading
import time
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.core import Simulation, ThreadedSimulation
from repro.core.efficiency import OverheadEfficiencyModel
from repro.graph import GraphExecutor, plan_graph
from repro.net import PortRegistry
from repro.net.channels import ChannelSet
from repro.net.udp import UdpChannelSet

from metrics import KERNELS
from spans import Spans
from workloads import KERNEL_BACKEND, OP_TIMEOUT, fields_digest


def median(values) -> float:
    return float(statistics.median(values))


def _region_nodes(region, shape) -> int:
    n = 1
    for sl, size in zip(region, shape):
        n *= len(range(*sl.indices(size)))
    return n


# ----------------------------------------------------------------------
# host
# ----------------------------------------------------------------------
def cache_bytes(level: int) -> int:
    """Size of the CPU's level-``level`` cache (0 when unknown)."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            if int((idx / "level").read_text()) != level:
                continue
            raw = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(raw[-1:], 1)
        return int(raw.rstrip("KMG")) * scale
    return 0


def host_record() -> dict:
    """What the numbers were measured on."""
    from repro.fluids.backends import available_backends

    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "l2_bytes": cache_bytes(2),
        "l3_bytes": cache_bytes(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "available_backends": list(available_backends()),
        "kernel_backend": KERNEL_BACKEND,
    }


#: Copy-probe array size when the L3 size cannot be read.
_FALLBACK_L3 = 128 << 20


def copy_probe(l3_bytes: int, repeats: int = 5) -> dict:
    """Streaming-copy bandwidth on arrays at least 4× the L3 cache.

    Counts the bytes read plus the bytes written per copy.
    """
    nbytes = 4 * (l3_bytes or _FALLBACK_L3)
    nbytes = -(-nbytes // (1 << 20)) << 20  # whole MiB
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault every page in before timing
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    del src, dst
    return {
        "host.copy_gbps": 2 * nbytes / median(times) / 1e9,
        "host.copy_array_mib": nbytes / (1 << 20),
        "host.l3_mib": (l3_bytes or _FALLBACK_L3) / (1 << 20),
    }


# ----------------------------------------------------------------------
# fluids, backends, exchange: the walked schedule
# ----------------------------------------------------------------------
def instrument_kernels(backend, spans: Spans) -> None:
    """Record a span, with nodes and computed bytes, per kernel call.

    Bytes are computed from array footprints: every input read once and
    every output written once (8-byte floats), not measured traffic.
    """
    method = backend.method
    q = getattr(getattr(method, "lattice", None), "q", 0)
    nd = method.ndim
    values = {
        "lb_relax": 2 * q + nd + 2,     # f in/out, rho, velocity, mask
        "lb_stream": 2 * q,             # f in, f out
        "lb_moments": q + nd + 2,       # f, mask in; rho, velocity out
        "fd_velocity": 1 + 2 * nd,      # rho, velocity in; velocity out
        "fd_density": 2 + nd,           # rho, velocity in; rho out
    }

    def wrap(kernel, attr, region_of, values_of):
        orig = getattr(backend, attr)

        def wrapper(*args):
            region, shape = region_of(args)
            nodes = _region_nodes(region, shape)
            with spans.span("backends." + kernel, nodes=nodes,
                            bytes=8 * nodes * values_of(args)):
                orig(*args)

        setattr(backend, attr, wrapper)

    for k in ("lb_relax", "fd_velocity", "fd_density"):
        wrap(k, k, lambda a: (a[0].interior, a[0].padded_shape),
             lambda a, k=k: values[k])
    for k in ("lb_stream", "lb_moments"):
        wrap(k, k, lambda a: (a[1], a[0].padded_shape),
             lambda a, k=k: values[k])
    wrap("filter", "filter_fields", lambda a: (a[3], a[1].padded_shape),
         lambda a: 2 * len(a[2]))


def build_sim(spec, fields, cls=Simulation):
    solid, _, _ = spec.build_geometry()
    return cls(spec.build_method(backend=KERNEL_BACKEND),
               spec.build_decomposition(), fields, solid)


def exchange_bytes_per_step(sim) -> int:
    """Bytes every rank sends per step (``LocalExchanger.message_bytes``)."""
    total = 0
    for names in sim.method.exchange_phases:
        for sub in sim.subs:
            nodes = int(np.prod(sub.padded_shape))
            vpn = sum(sub.fields[n].size // nodes for n in names)
            total += sum(sim.exchanger.message_bytes(
                sub.block.rank, vpn).values())
    return total


def walk_schedule(spec, fields, steps: int, spans: Spans):
    """Walk ``steps`` serial steps by hand, spans around every call.

    Step 0 is a warm-up (first-use scratch allocation) and its spans
    are dropped.  Raises if the walked state is not bitwise equal to
    ``Simulation.step`` on a twin.
    """
    sim, twin = build_sim(spec, fields), build_sim(spec, fields)
    method = sim.method
    instrument_kernels(method.backend, spans)
    for step in range(steps + 1):
        with spans.span("runner.walk_step", op=step):
            for phase, names in enumerate(method.exchange_phases):
                for sub in sim.subs:
                    with spans.span("fluids.compute"):
                        method.compute_phase(sub, phase)
                with spans.span("exchange.exchange"):
                    sim.exchanger.exchange(names)
            for sub in sim.subs:
                with spans.span("fluids.finalize"):
                    method.finalize_step(sub)
                sub.step += 1
    twin.step(steps + 1)
    if fields_digest(sim.global_state()) != fields_digest(
            twin.global_state()):
        raise AssertionError(
            "walked schedule is not bitwise equal to Simulation.step")
    spans.spans = [s for s in spans.spans if s.op >= 1]
    return sim


def kernel_metrics(spans: Spans, copy_bps: float) -> dict:
    out = {}
    for k in KERNELS:
        name = "backends." + k
        t = spans.self_time(name)
        nodes = spans.count(name, "nodes")
        if nodes:
            out[f"{name}.ns_per_node"] = t / nodes * 1e9
            out[f"{name}.copy_ratio"] = (spans.count(name, "bytes") / t
                                         / copy_bps)
    return out


def walk_metrics(spans: Spans, steps: int, sim) -> dict:
    def ms(name):
        return sum(s.duration for s in spans.named(name)) / steps * 1e3

    return {
        "fluids.compute_ms_per_step": ms("fluids.compute"),
        "fluids.finalize_ms_per_step": ms("fluids.finalize"),
        "exchange.ms_per_step":
            spans.self_time("exchange.exchange") / steps * 1e3,
        "exchange.calls_per_step":
            len(spans.named("exchange.exchange")) / steps,
        "exchange.bytes_per_step": exchange_bytes_per_step(sim),
    }


# ----------------------------------------------------------------------
# runners and the task graph
# ----------------------------------------------------------------------
def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def serial_s_per_step(spec, fields, steps: int, repeats: int = 3) -> float:
    """Seconds per step of ``Simulation.step`` after a warm-up step."""
    sim = build_sim(spec, fields)
    sim.step(1)
    return median(timed(partial(sim.step, steps))
                  for _ in range(repeats)) / steps


def runner_metrics(spec, fields, steps: int, repeats: int = 3) -> dict:
    """ms/step of the serial, threaded and graph drivers (after one
    warm-up step each), the graph's plan cost and per-node dispatch."""
    serial = serial_s_per_step(spec, fields, steps, repeats)
    with build_sim(spec, fields, ThreadedSimulation) as tsim:
        tsim.step(1)
        threaded = median(timed(partial(tsim.step, steps))
                          for _ in range(repeats)) / steps

    def graph_run(n_workers):
        times, plans = [], []
        for _ in range(repeats):
            g_sim = build_sim(spec, fields)
            g_sim.step(1)
            t0 = time.perf_counter()
            graph = plan_graph(g_sim.decomp, g_sim.methods, steps)
            plans.append(time.perf_counter() - t0)
            ex = GraphExecutor(g_sim, graph, n_workers=n_workers)
            times.append(timed(ex.run))
        return median(times) / steps, median(plans), len(graph) / steps

    graph, plan, nodes_per_step = graph_run(None)
    graph1, _, _ = graph_run(1)
    return {
        "runner.serial.ms_per_step": serial * 1e3,
        "runner.threaded.ms_per_step": threaded * 1e3,
        "runner.graph.ms_per_step": graph * 1e3,
        "graph.plan_ms": plan * 1e3,
        "graph.nodes_per_step": nodes_per_step,
        # one worker: no overlap, so the excess over serial is dispatch
        "graph.dispatch_us_per_node":
            (graph1 - serial) / nodes_per_step * 1e6,
    }


# ----------------------------------------------------------------------
# net: ping-pong at distrib_fd's ghost-strip size
# ----------------------------------------------------------------------
def strip_bytes(spec, fields) -> int:
    """Bytes of one first-phase ghost message of rank 0."""
    sim = build_sim(spec, fields)
    sub = sim.subs[0]
    nodes = int(np.prod(sub.padded_shape))
    vpn = sum(sub.fields[n].size // nodes
              for n in sim.method.exchange_phases[0])
    per_peer = sim.exchanger.message_bytes(sub.block.rank, vpn)
    n_msgs = len(sim.exchanger.plans[sub.block.rank].recv_ops())
    return sum(per_peer.values()) // n_msgs


def pingpong(cls, workdir: Path, payload: bytes, rounds: int,
             spans: Spans, name: str) -> float:
    """Median round trip of ``payload`` between two channel sets."""
    reg = PortRegistry(workdir / f"{name}-ports.txt")
    a, b = cls(0, [1], reg), cls(1, [0], reg)
    opener = threading.Thread(target=b.open, args=(0,))
    opener.start()
    a.open(0)
    opener.join()

    def echo():
        for i in range(rounds):
            got = b.recv_data({(i, 0, 0, 0, 0)}, timeout=OP_TIMEOUT)
            b.send_data(0, got[(i, 0, 0, 0, 0)], step=i, phase=0,
                        axis=0, side=1)

    echoer = threading.Thread(target=echo)
    echoer.start()
    rtts = []
    try:
        for i in range(rounds):
            with spans.span(f"net.{name}.roundtrip", op=i,
                            bytes=2 * len(payload)) as sp:
                a.send_data(1, payload, step=i, phase=0, axis=0, side=0)
                a.recv_data({(i, 0, 0, 1, 1)}, timeout=OP_TIMEOUT)
            rtts.append(sp.duration)
    finally:
        echoer.join(OP_TIMEOUT)
        a.close()
        b.close()
    return median(rtts[rounds // 10:])  # first tenth warms the path


def net_metrics(workdir: Path, strip: int, spans: Spans,
                rounds: int = 300) -> tuple[dict, float]:
    """TCP and UDP metrics at ``strip`` bytes, and the 8-byte TCP round
    trip (the per-message latency the model needs)."""
    out = {"net.strip_bytes": strip}
    for name, cls in (("tcp", ChannelSet), ("udp", UdpChannelSet)):
        rtt = pingpong(cls, workdir, bytes(strip), rounds, spans, name)
        out[f"net.{name}.rtt_us"] = rtt * 1e6
        out[f"net.{name}.mbps"] = 2 * strip * 8 / rtt / 1e6
    small = pingpong(ChannelSet, workdir, bytes(8), rounds, spans,
                     "tcp_small")
    return out, small


# ----------------------------------------------------------------------
# traced ops of the loop workloads
# ----------------------------------------------------------------------
def facade_op(spans: Spans, wl, index, key, workdir):
    """One ``repro.run`` with a span around it."""
    with spans.span("facade.run", op=index):
        return wl.call(key, workdir)


def distrib_op(spans: Spans, wl, index, key, workdir):
    """``DistributedRun.start/wait/collect`` walked, program trace on."""
    from repro.distrib import DistributedRun
    from repro.trace import summarize

    with spans.span("op", op=index) as op:
        with spans.span("distrib.init"):
            dist = DistributedRun(wl.spec(key), wl.fields(key), workdir,
                                  wl.settings(trace=True))
        with spans.span("distrib.start"):
            dist.start()
        with spans.span("distrib.wait"):
            dist.wait()
        with spans.span("distrib.collect"):
            out = dist.collect()
    summary = summarize(Path(workdir) / "trace")
    mon = dist.monitor
    ranks = max(summary.n_ranks, 1)
    op.counts.update(
        t_comp=summary.t_comp / ranks,
        t_comm=summary.t_comm / ranks,
        t_step_max=max((r.t_comp + r.t_comm for r in summary.ranks),
                       default=0.0),
        restarts=mon.restarts + mon.migrations + mon.rebalances,
    )
    return SimpleNamespace(fields=out, cached=False, elapsed=op.duration)


def service_op(spans: Spans, wl, index, key, workdir):
    """The facade's service path walked: submit, wait, result+fields."""
    from repro.serve import ServeClient

    client = ServeClient(wl.gateway.address)
    with spans.span("op", op=index) as op:
        with spans.span("serve.submit"):
            job = client.submit(wl.spec(key), settings=wl.settings())
        with spans.span("serve.wait"):
            rec = client.wait(job["job_id"], timeout=wl.op_timeout)
        if rec["state"] != "done":
            raise RuntimeError(
                f"service job {job['job_id']} ended {rec['state']}")
        with spans.span("serve.fetch"):
            client.result(job["job_id"])
            fields = client.fields(job["job_id"])
    op.counts["cached"] = int(bool(rec.get("cached")))
    return SimpleNamespace(fields=fields, cached=bool(rec.get("cached")),
                           elapsed=float(rec.get("elapsed") or 0.0))


TRACED_OPS = {
    "fd2d_fine": facade_op,
    "lb2d_coarse": facade_op,
    "distrib_fd": distrib_op,
    "service_mix": service_op,
}


def distrib_metrics(spans: Spans) -> tuple[dict, float]:
    """The distrib layer's metrics, and the slowest rank's traced
    t_comp + t_comm per op (the measured efficiency needs it)."""
    ops = [s for s in spans.named("op") if "t_comp" in s.counts]

    def med(name):
        return median(s.duration for s in spans.named(name))

    return {
        "distrib.start_s": med("distrib.start"),
        "distrib.wait_s": med("distrib.wait"),
        "distrib.collect_s": med("distrib.collect"),
        "distrib.t_comp_s": median(s.counts["t_comp"] for s in ops),
        "distrib.t_comm_s": median(s.counts["t_comm"] for s in ops),
        "distrib.restarts": sum(s.counts["restarts"] for s in ops),
    }, median(s.counts["t_step_max"] for s in ops)


def serve_metrics(spans: Spans, records, gateway) -> dict:
    """``records`` are every service op of the run, traced or not."""
    ok = [r for r in records if r.error is None]
    distinct = {r.key for r in ok}
    computed = sum(1 for r in ok if not r.cached)
    return {
        "serve.submit_ms": median(s.duration for s in
                                  spans.named("serve.submit")) * 1e3,
        "serve.wait_ms": median(s.duration for s in
                                spans.named("serve.wait")) * 1e3,
        "serve.fetch_ms": median(s.duration for s in
                                 spans.named("serve.fetch")) * 1e3,
        "serve.hit_ratio": sum(r.cached for r in ok) / max(len(ok), 1),
        "serve.computed_per_distinct": computed / max(len(distinct), 1),
        "serve.pool_deaths": gateway.pool.deaths,
    }


# ----------------------------------------------------------------------
# the paper's model (eqs. 5-21) fed this host's measured constants
# ----------------------------------------------------------------------
def model_metrics(spec, fields, serial_s: float, net: dict,
                  small_rtt: float, t_step_max: float, steps: int) -> dict:
    """Predicted efficiency of ``spec``'s decomposition against the
    efficiency the distributed run measured.

    ``u_calc`` is the serial node rate; the message latency ``t_msg``
    is half the small-message TCP round trip; ``V_com`` comes from the
    strip-size round trip with that latency taken out.
    """
    sim = build_sim(spec, fields)
    sub = sim.subs[0]
    p = len(sim.subs)
    n_total = spec.grid_shape[0] * spec.grid_shape[1]
    u_calc = n_total / serial_s
    n_sub = n_total / p
    pad = sim.method.pad
    ops = sim.exchanger.plans[sub.block.rank].recv_ops()
    # communicating surface: strip nodes over the strip depth
    n_c = sum(op.strip_nodes(sub.padded_shape) for op in ops) / pad
    bytes_step = exchange_bytes_per_step(sim) / p
    t_msg = small_rtt / 2
    strip = net["net.strip_bytes"]
    t_payload = max(net["net.tcp.rtt_us"] * 1e-6 / 2 - t_msg, 1e-9)
    v_com = (strip / t_payload) / (bytes_step / n_c)  # surface nodes/s
    model = OverheadEfficiencyModel(
        ratio=u_calc / v_com, u_calc=u_calc, t_msg=t_msg,
        messages=len(ops) * len(sim.method.exchange_phases),
    )
    return {
        "model.efficiency_predicted":
            float(model.efficiency(n_sub, n_c / n_sub ** 0.5, p)),
        "distrib.efficiency_measured":
            serial_s * steps / (p * t_step_max),
    }


def runner_summary(metrics: dict, driver: str, cores: int) -> dict:
    """Residual and efficiency of the workload's in-process driver."""
    drv = metrics[f"runner.{driver}.ms_per_step"]
    layers = (metrics["fluids.compute_ms_per_step"]
              + metrics["fluids.finalize_ms_per_step"]
              + metrics["exchange.ms_per_step"])
    return {
        "runner.residual_ms_per_step": drv - layers,
        "runner.efficiency":
            metrics["runner.serial.ms_per_step"] / (drv * cores),
    }
