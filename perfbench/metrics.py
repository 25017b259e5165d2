"""Workload names, and names and units of every metric printed.

``BENCHMARK.json`` lists the same names; a test keeps the two in step.
This module imports nothing from the program, so the supervisor can
load it before it knows whether the program is there.
"""

#: in run order; ``workloads.WORKLOADS`` defines them
WORKLOADS = ("fd2d_fine", "lb2d_coarse", "distrib_fd", "service_mix")
#: The workloads ``BENCHMARK.json`` lists, whose runs gate a change.
#: ``service_mix`` is left out while the service loses about one job in
#: 900 misses (see README.md, "Known program defect"): its runs would
#: report failures at random, whatever the change under test.
GATED = WORKLOADS[:3]

KERNELS = ("lb_relax", "lb_stream", "lb_moments", "fd_velocity",
           "fd_density", "filter")

#: (name, unit) of every end-to-end metric (untraced runs).
END_TO_END = (
    ("setup_s", "s"),
    ("run_s_p50", "s"),
    ("mlups", "MLUPS"),
    ("peak_rss_mb", "MiB"),
)

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = tuple(
    [(f"backends.{k}.{m}", u) for k in KERNELS
     for m, u in (("ns_per_node", "ns"), ("copy_ratio", "ratio"))]
    + [
        ("host.copy_gbps", "GB/s"),
        ("host.copy_array_mib", "MiB"),
        ("host.l3_mib", "MiB"),
        ("fluids.compute_ms_per_step", "ms"),
        ("fluids.finalize_ms_per_step", "ms"),
        ("exchange.ms_per_step", "ms"),
        ("exchange.calls_per_step", "count"),
        ("exchange.bytes_per_step", "B"),
        ("runner.serial.ms_per_step", "ms"),
        ("runner.threaded.ms_per_step", "ms"),
        ("runner.graph.ms_per_step", "ms"),
        ("runner.residual_ms_per_step", "ms"),
        ("runner.efficiency", "ratio"),
        ("graph.plan_ms", "ms"),
        ("graph.nodes_per_step", "count"),
        ("graph.dispatch_us_per_node", "us"),
        ("facade.fixed_ms", "ms"),
        ("net.strip_bytes", "B"),
        ("net.tcp.rtt_us", "us"),
        ("net.tcp.mbps", "Mbit/s"),
        ("net.udp.rtt_us", "us"),
        ("net.udp.mbps", "Mbit/s"),
        ("distrib.start_s", "s"),
        ("distrib.wait_s", "s"),
        ("distrib.collect_s", "s"),
        ("distrib.t_comp_s", "s"),
        ("distrib.t_comm_s", "s"),
        ("distrib.restarts", "count"),
        ("distrib.efficiency_measured", "ratio"),
        ("model.efficiency_predicted", "ratio"),
        ("serve.submit_ms", "ms"),
        ("serve.wait_ms", "ms"),
        ("serve.fetch_ms", "ms"),
        ("serve.hit_ratio", "ratio"),
        ("serve.computed_per_distinct", "ratio"),
        ("serve.pool_deaths", "count"),
        ("trace.overhead_ratio", "ratio"),
    ]
)
