"""The four workloads: seeded inputs, one timed op each, and its check.

An op is one call to the public entry point ``repro.run``.  A workload
is a closed loop of ops: each caller sends its next op only after the
previous one returned.  Inputs come from ``--seed`` alone: the seed
picks the random initial densities and, for the service mix, the
submission sequence.  The program sees only the generated inputs.

Every op's final fields are hashed and compared, after the timed loop,
with a serial ``repro.run`` of the same (spec, seed) — so a cache hit
that returned the wrong problem, or a parallel runner that drifted by
one bit, is a failed op.
"""

from __future__ import annotations

import hashlib
import itertools
import shutil
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro
from repro.distrib import ProblemSpec, RunSettings
from repro.distrib.initprog import initial_fields

#: Kernel backend pinned for every run, so a later numba install
#: cannot silently change what the workloads measure.
KERNEL_BACKEND = "numpy"
#: A channel flow driven by a body force, filtered (paper §6).
PARAMS = {"nu": 0.05, "gravity": (1e-5, 0.0), "filter_eps": 0.02}
#: Default op timeout (seconds); an op slower than its workload's
#: ``op_timeout`` counts as timed out.
OP_TIMEOUT = 60.0


def channel_spec(method, grid, blocks, init=None) -> ProblemSpec:
    """A 2D channel, periodic along x, walls along y."""
    return ProblemSpec(
        method=method, grid_shape=grid, blocks=blocks,
        periodic=(True, False), params=dict(PARAMS),
        geometry={"kind": "channel"}, init=init,
    )


def derive_seed(seed: int, *salt) -> int:
    """A reproducible sub-seed of the benchmark seed."""
    words = [zlib.crc32(str(s).encode()) for s in salt]
    return int(np.random.default_rng([seed, *words]).integers(1, 2**31))


def fields_digest(fields) -> str:
    """SHA-256 over names, dtypes, shapes and bytes of every field."""
    h = hashlib.sha256()
    for name in sorted(fields):
        a = np.ascontiguousarray(fields[name])
        h.update(f"{name}:{a.dtype}:{a.shape};".encode())
        h.update(memoryview(a).cast("B"))
    return h.hexdigest()


def classify(exc: BaseException) -> str:
    """The failure kind of an exception raised by an op."""
    if isinstance(exc, TimeoutError):
        return "timeout"
    if isinstance(exc, RuntimeError) and " ended " in str(exc):
        return "state"  # a service job that ended other than done
    return "exception"


@dataclass
class OpRecord:
    """One attempted op."""

    index: int
    key: int
    start: float
    end: float
    error: str | None = None      # exception|timeout|state|mismatch
    detail: str = ""
    digest: str = ""
    cached: bool = False
    elapsed: float = 0.0          # RunResult.elapsed

    @property
    def latency(self) -> float:
        return self.end - self.start


def closed_loop(op, seconds: float, callers: int = 1, first: int = 0):
    """Run ``op(index)`` from ``callers`` closed-loop callers.

    Indices count up from ``first``.  Each caller starts ops until
    ``seconds`` have passed and always completes at least one.  Returns
    ``(records, wall)``, where wall runs from the loop's start to the
    last op's end.
    """
    lock = threading.Lock()
    counter = iter(range(first, 1 << 62))
    records: list[OpRecord] = []
    t0 = time.perf_counter()
    deadline = t0 + seconds

    def caller() -> None:
        while True:
            with lock:
                index = next(counter)
            rec = op(index)
            with lock:
                records.append(rec)
            if time.perf_counter() >= deadline:
                return

    if callers == 1:
        caller()
    else:
        threads = [threading.Thread(target=caller) for _ in range(callers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    records.sort(key=lambda r: r.index)
    return records, max(r.end for r in records) - t0


class Workload:
    """A problem set, the runtime that solves it, and its references."""

    name = ""
    method = ""
    grid: tuple[int, int] = (0, 0)
    blocks: tuple[int, int] = (1, 1)
    backend = "serial"
    execution = "phased"
    steps = 1
    n_inputs = 1
    callers = 1
    op_timeout = OP_TIMEOUT

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self._fields: dict[int, dict] = {}
        self._refs: dict[int, str] = {}
        self._opdirs = self.workdir / "ops"
        self._opdirs.mkdir(parents=True, exist_ok=True)

    # -- inputs ---------------------------------------------------------
    @property
    def nodes_per_op(self) -> int:
        """Grid nodes × steps one completed op delivers."""
        return self.grid[0] * self.grid[1] * self.steps

    def key(self, index: int) -> int:
        """Which input op ``index`` solves."""
        return index % self.n_inputs

    def input_seed(self, key: int) -> int:
        return derive_seed(self.seed, self.name, key)

    def spec(self, key: int) -> ProblemSpec:
        return channel_spec(self.method, self.grid, self.blocks)

    def fields(self, key: int) -> dict:
        """The initial fields of input ``key`` (seeded random density)."""
        if key not in self._fields:
            self._fields[key] = initial_fields(
                self.spec(key), "random", seed=self.input_seed(key)
            )
        return self._fields[key]

    def settings(self, trace: bool = False) -> RunSettings:
        return RunSettings(
            steps=self.steps, backend=KERNEL_BACKEND,
            execution=self.execution, run_timeout=self.op_timeout,
            trace=trace,
        )

    # -- lifecycle ------------------------------------------------------
    def setup(self) -> None:
        """Program-side set-up; by default one untimed warm-up op."""
        rec = self.run_op(-1)
        if rec.error:
            raise RuntimeError(f"warm-up op failed: {rec.detail}")

    def setup_keys(self) -> list[int]:
        """Inputs whose references are computed during set-up."""
        return list(range(self.n_inputs))

    def teardown(self) -> None:
        """Release what :meth:`setup` started."""

    def opdir(self, index: int) -> Path:
        return self._opdirs / f"op{index + 1:07d}"

    # -- one op -----------------------------------------------------------
    def call(self, key: int, workdir: Path):
        return repro.run(
            self.spec(key), self.backend, self.settings(),
            fields=self.fields(key), workdir=workdir,
        )

    def run_op(self, index: int, op=None) -> OpRecord:
        """Time one op (``op`` defaults to :meth:`call`)."""
        key = self.key(max(index, 0))
        workdir = self.opdir(index)
        start = time.perf_counter()
        try:
            res = (op or self.call)(key, workdir)
            end = time.perf_counter()
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            return OpRecord(index, key, start, time.perf_counter(),
                            error=classify(exc),
                            detail=f"{type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        rec = OpRecord(index, key, start, end,
                       digest=fields_digest(res.fields),
                       cached=bool(getattr(res, "cached", False)),
                       elapsed=float(getattr(res, "elapsed", 0.0)))
        if rec.latency > self.op_timeout:
            rec.error = "timeout"
            rec.detail = f"op took {rec.latency:.1f} s"
        return rec

    # -- correctness ------------------------------------------------------
    def reference(self, key: int) -> str:
        """Digest of the serial reference run of input ``key``."""
        if key not in self._refs:
            spec = self.spec(key)
            workdir = self._opdirs / f"ref{key:07d}"
            try:
                res = repro.run(
                    spec, "serial",
                    RunSettings(steps=self.steps, backend=KERNEL_BACKEND),
                    fields=self.fields(key), workdir=workdir,
                )
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            self._refs[key] = fields_digest(res.fields)
        return self._refs[key]

    def verify(self, records: list[OpRecord]) -> None:
        """Mark every op whose fields differ from its reference."""
        for rec in records:
            if rec.error is None and rec.digest != self.reference(rec.key):
                rec.error = "mismatch"
                rec.detail = (f"op {rec.index} (input {rec.key}) fields "
                              "differ from the serial reference")


class Fd2dFine(Workload):
    """32x32 subregions: graph dispatch, exchange and facade cost dominate."""

    name = "fd2d_fine"
    method, grid, blocks = "fd", (64, 64), (2, 2)
    backend, execution = "threaded", "graph"
    steps, n_inputs = 10, 4


class Lb2dCoarse(Workload):
    """256x256 subregions: the numpy kernels dominate; BSP runner kept."""

    name = "lb2d_coarse"
    method, grid, blocks = "lb", (512, 512), (2, 2)
    backend, execution = "threaded", "phased"
    steps, n_inputs = 2, 2


class DistribFd(Workload):
    """The paper's system: spawn, TCP exchange, monitoring, dump collection."""

    name = "distrib_fd"
    method, grid, blocks = "fd", (128, 128), (2, 1)
    backend = "distributed"
    steps, n_inputs = 200, 2


#: Submissions come in blocks of this many: one new problem and the
#: rest repeats, so three in four submissions are cache hits.
REPEAT_BLOCK = 4


def service_draws(seed: int):
    """Problem index of each service submission, in order, forever.

    Each block of :data:`REPEAT_BLOCK` submissions holds one new problem
    at a seeded position; the others repeat an earlier problem drawn
    log-uniformly (``j = floor((pool+1)**u) - 1``, weight about
    ``1/(j+1)``), so old problems stay hot.  Past the first blocks the
    two newest problems are not repeated, so a repeat rarely meets its
    original still in flight with the other caller.
    """
    rng = np.random.default_rng([seed, zlib.crc32(b"service_sequence")])
    yield 0
    n_new = 1
    while True:
        new_at = int(rng.integers(REPEAT_BLOCK))
        for slot in range(REPEAT_BLOCK):
            if slot == new_at:
                yield n_new
                n_new += 1
            else:
                pool = max(1, n_new - 2)
                yield int((pool + 1) ** rng.random()) - 1


def service_sequence(seed: int, n: int) -> list[int]:
    """The first ``n`` of :func:`service_draws`."""
    return list(itertools.islice(service_draws(seed), n))


class ServiceMix(Workload):
    """Hits use HTTP, cache and field fetch; misses the pool and compute."""

    name = "service_mix"
    method, grid, blocks = "lb", (64, 64), (1, 1)
    backend = "service"
    steps = 20
    callers = 2
    workers = 2
    #: the service's latency limit, about 12x a miss's p90: a job the
    #: service loses costs its caller 2 s, not the rest of the run
    op_timeout = 2.0

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self._draws = service_draws(seed)
        self._sequence: list[int] = []
        self._lock = threading.Lock()
        self.gateway = None

    def key(self, index: int) -> int:
        # drawn in index order, so the callers' interleaving cannot
        # change which problem an index names
        with self._lock:
            while len(self._sequence) <= index:
                self._sequence.append(next(self._draws))
            return self._sequence[index]

    def spec(self, key: int) -> ProblemSpec:
        # the service builds its fields from the spec's declared init
        return channel_spec(
            self.method, self.grid, self.blocks,
            init={"kind": "random", "seed": self.input_seed(key)},
        )

    def fields(self, key: int) -> dict:
        # only the reference needs them: not kept, one per distinct job
        return initial_fields(self.spec(key), None)

    def setup(self) -> None:
        """Gateway plus pool, up to every worker's first heartbeat."""
        from repro.serve import Gateway

        self.gateway = Gateway(self.workdir / "serve",
                               workers=self.workers)
        self.gateway.start_background()
        deadline = time.monotonic() + OP_TIMEOUT
        while any(self.gateway.pool.heartbeat(i) is None
                  for i in range(self.workers)):
            if time.monotonic() > deadline:
                raise TimeoutError("serve pool never became ready")
            time.sleep(0.005)

    def setup_keys(self) -> list[int]:
        return []  # distinct problems are known only after the loop

    def teardown(self) -> None:
        if self.gateway is not None:
            self.gateway.shutdown()

    def call(self, key: int, workdir: Path):
        return repro.run(
            self.spec(key), "service", self.settings(),
            workdir=workdir, server=self.gateway.address,
        )


WORKLOADS = {w.name: w for w in (Fd2dFine, Lb2dCoarse, DistribFd,
                                 ServiceMix)}
