"""Workloads, phase sequence and span recorder of the starangles benchmark.

One repetition ("rep") of a workload drives the library's public API in
the order the CLI's ``lattice`` / ``exterior-angle`` commands use it:
enumerate the intermediate subgroups, build the algebras, take the
trace-preserving expectation, make every intermediate compatible, force
the ``AngleContext`` caches, then compute and check one angle per pair
``i <= j``. Every call into the library sits inside one span named after
the layer it enters, so the per-layer times come from outside the
library, with no change to it.
"""

from __future__ import annotations

import contextlib
import json
import math
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import starangles as sa

REFERENCE_PATH = Path(__file__).resolve().parent / "reference" / "exterior_cosines.json"


# -- spans -----------------------------------------------------------------


def rss_high_water_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int
    rss_mb: float  # RSS high-water when the span ended

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; ``dump`` writes them out when the run ends."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.run_id = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        slot = len(self.spans)
        self.spans.append(None)
        self._stack.append(slot)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[slot] = Span(name, start, end, parent, self.run_id, rss_high_water_mb())

    def of_run(self, run_id: int) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in enumerate(self.spans) if s.run_id == run_id]

    def dump(self, path: Path, meta: dict):
        rows = [
            {
                "id": i,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "run_id": s.run_id,
                "rss_mb": s.rss_mb,
            }
            for i, s in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"meta": meta, "spans": rows}) + "\n")


class NullTracer:
    """Same calls as ``Tracer``, recording nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


def self_times(spans: list[tuple[int, Span]]) -> dict[str, float]:
    """Summed self time per span name: duration minus the children's."""
    child_time: dict[int, float] = {}
    for _, s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out: dict[str, float] = {}
    for i, s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.duration - child_time.get(i, 0.0)
    return out


def phase_coverage(spans: list[tuple[int, Span]]) -> float:
    """Share of the rep's wall time covered by the spans inside its phases."""
    root = next(s for _, s in spans if s.name == "rep")
    phases = {i for i, s in spans if s.name in ("setup", "angles")}
    covered = sum(s.duration for _, s in spans if s.parent in phases)
    return covered / root.duration


# -- workloads -------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    group: Callable[[], sa.PermGroup]
    tensor_factor: int
    exterior: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lattice_s4", lambda: sa.symmetric(4), 1, exterior=False),
        Workload("exterior_d4", lambda: sa.dihedral(4), 1, exterior=True),
        Workload("tower_d4_t2", lambda: sa.dihedral(4), 2, exterior=False),
        # fast inputs for the benchmark's own test
        Workload("smoke_s3", lambda: sa.symmetric(3), 1, exterior=False),
        Workload("smoke_s3_exterior", lambda: sa.symmetric(3), 1, exterior=True),
    )
}


def proper_intermediates(g: sa.PermGroup, h: sa.PermGroup) -> list[sa.PermGroup]:
    return [m for m in sa.intermediate_subgroups(g, h) if len(h) < len(m) < len(g)]


def ambient_dim(work: Workload) -> int:
    return len(work.group()) * work.tensor_factor


def haar_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-random unitary from the QR of a complex Ginibre matrix."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def load_reference(name: str) -> list[list[float]]:
    table = json.loads(REFERENCE_PATH.read_text())
    return table[name]["cos"]


# -- one repetition ----------------------------------------------------------


@dataclass
class Rep:
    """State and measurements of one repetition of a workload."""

    work: Workload
    tol: sa.Tolerances
    expected: list[list[float]] | None
    exp: sa.CondExpectation | None = None
    cis: list = field(default_factory=list)
    floors: list = field(default_factory=list)
    ctx: sa.AngleContext | None = None
    setup_s: float = 0.0
    wall_s: float = 0.0
    angle_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    max_oracle_err: float = 0.0
    max_path_disagreement: float = 0.0

    @property
    def pairs(self) -> list[tuple[int, int]]:
        n = len(self.cis)
        return [(i, j) for i in range(n) for j in range(i, n)]

    def dims(self) -> dict:
        bc = self.ctx.bc
        out = {
            "dim_a": self.exp.big.dim,
            "dim_b": self.exp.small.dim,
            "intermediates": len(self.cis),
            "pairs": len(self.pairs),
            "module_size": len(bc.module_basis),
            "dim_m1": bc.dim_m1,
            "span_columns": len(bc.module_basis) ** 2 * self.exp.small.dim,
        }
        if self.work.exterior:
            upper = self.ctx.upper.bc
            out["upper_module_size"] = len(upper.module_basis)
            out["upper_dim_m1"] = upper.dim_m1
            out["upper_span_columns"] = len(upper.module_basis) ** 2 * upper.source.small.dim
        return out

    # -- angles and their checks -----------------------------------------

    def angle(self, i: int, j: int, path: str | None = None) -> sa.AngleReport:
        """One angle through the public API; ``path`` picks a single route."""
        if self.work.exterior:
            if path is None:
                return sa.exterior_angle(
                    self.exp, self.cis[i], self.cis[j], tol=self.tol, ctx=self.ctx,
                    second_floor=True,
                )
            upper = self.ctx.upper
            return sa.interior_angle(
                upper.expectation, self.floors[i], self.floors[j], path=path,
                tol=self.tol, ctx=upper,
            )
        return sa.interior_angle(
            self.exp, self.cis[i], self.cis[j], path=path or "both", tol=self.tol,
            ctx=self.ctx,
        )

    def release(self):
        """Drop the built objects, keeping the measurements."""
        self.exp, self.cis, self.floors, self.ctx = None, [], [], None

    def check(self, i: int, j: int, report: sa.AngleReport):
        """Count the angle failed if it misses its check by ``angle_tol``."""
        if self.expected is None:  # recording the reference table
            return
        err = abs(report.cos_value - self.expected[i][j])
        if self.work.exterior and i == j:
            err = max(err, abs(report.cos_value - 1.0))  # beta(P, P) = 0
        disagreement = report.path_disagreement or 0.0
        self.max_oracle_err = max(self.max_oracle_err, err)
        self.max_path_disagreement = max(self.max_path_disagreement, disagreement)
        if err >= self.tol.angle_tol or disagreement >= self.tol.angle_tol:
            self.fail(i, j, f"cos {report.cos_value!r}, expected {self.expected[i][j]!r}, "
                            f"path disagreement {disagreement:.3e}")

    def fail(self, i: int, j: int, why: str):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{self.work.name} pair ({i}, {j}): {why}")

    def timed_angle(self, tracer, i: int, j: int, path: str | None = None) -> float | None:
        """Compute and check one angle; its latency in ms, or None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with tracer.span("angle.pair"):
                report = self.angle(i, j, path)
        except Exception as err:  # noqa: BLE001 - a raising angle counts as failed
            self.fail(i, j, f"{type(err).__name__}: {err}")
            return None
        elapsed_ms = (time.perf_counter() - start) * 1e3
        with tracer.span("check"):
            self.check(i, j, report)
        return elapsed_ms

    def angle_pass(self, tracer, path: str | None = None) -> list[float]:
        """One angle per pair; the latencies of those that did not raise."""
        times = []
        for i, j in self.pairs:
            ms = self.timed_angle(tracer, i, j, path)
            if ms is not None:
                times.append(ms)
        return times


def conjugate(algebra: sa.StarAlgebra, u: np.ndarray, tol: sa.Tolerances) -> sa.StarAlgebra:
    return sa.StarAlgebra(algebra.ambient_dim, u @ algebra.basis @ u.conj().T, tol)


def run_rep(
    work: Workload,
    unitary: np.ndarray,
    expected: list[list[float]] | None,
    tracer,
    tol: sa.Tolerances = sa.DEFAULT_TOLERANCES,
) -> Rep:
    """Set the workload up from scratch, then compute and check every pair."""
    rep = Rep(work, tol, expected)
    span = tracer.span
    start = time.perf_counter()
    with span("rep"):
        with span("setup"):
            with span("groups.enumerate"):
                g = work.group()
                h = sa.trivial(g.degree)
                subs = proper_intermediates(g, h)
            with span("algebra.build"):
                ga = sa.group_algebra(g, tol)
                algebras = [ga.algebra, ga.subalgebra(h, tol)]
                algebras += [ga.subalgebra(m, tol) for m in subs]
                algebras = [sa.tensor_by_factor(a, work.tensor_factor, tol) for a in algebras]
                big, small, *mids = [conjugate(a, unitary, tol) for a in algebras]
                inclusion = sa.Inclusion(big=big, small=small)
            with span("expectation.trace_preserving"):
                rep.exp = sa.trace_preserving(inclusion, tol)
            for m in mids:
                with span("expectation.make_compatible"):
                    rep.cis.append(sa.make_compatible(rep.exp, m, tol))
            ctx = rep.ctx = sa.AngleContext(rep.exp, tol)
            with span("basic.build"):
                ctx.bc
            with span("basic.dual_expectation"):
                ctx.dual
            _force_intermediates(ctx, rep.cis, span)
            if work.exterior:
                for ci in rep.cis:
                    with span("angle.first_floor"):
                        rep.floors.append(ctx.first_floor(ci))
                with span("basic.upper_build"):
                    ctx.upper.bc
                with span("basic.upper_dual"):
                    ctx.upper.dual
                _force_intermediates(ctx.upper, rep.floors, span)
        rep.setup_s = time.perf_counter() - start
        with span("angles"):
            rep.angle_ms = rep.angle_pass(tracer)
    rep.wall_s = time.perf_counter() - start
    return rep


def _force_intermediates(ctx: sa.AngleContext, cis: list, span):
    for ci in cis:
        with span("pimsner.restricted_basis"):
            ctx.restricted_basis(ci)
        with span("pimsner.watatani_index"):
            ctx.restricted_index(ci)
        with span("basic.jones_projection"):
            ctx.jones_projection(ci)


def expected_cosines(work: Workload) -> list[list[float]]:
    """Group closed form for interior workloads, recorded table for exterior."""
    if work.exterior:
        return load_reference(work.name)
    g = work.group()
    h = sa.trivial(g.degree)
    subs = proper_intermediates(g, h)
    return [[sa.group_oracle_cosine(g, h, k, l) for l in subs] for k in subs]


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else math.nan
