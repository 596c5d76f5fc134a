"""BatchStudyRunner: execute a scenario stream against one analysis engine.

Each scenario realises a fresh network copy and runs one of six
analyses: AC power flow, linear DC screening, DCOPF, ACOPF, two-stage
contingency screening, or preventive SCOPF.  Scenarios are independent,
so a study is cut into chunks and evaluated either in-process or on a
:class:`~repro.scenarios.executor.StudyExecutor` process pool — a shared
one injected by the service layer, or an ephemeral one the run owns when
``n_jobs > 1``.  :meth:`BatchStudyRunner.chunk_stream` is that one
dispatch path; batch studies and the telemetry watch both fold it.
Either way each chunk runs through one
:class:`_WorkerState`, which amortises the expensive shared state across
every scenario it processes:

* the compiled DC and AC kernels and PTDF/LODF sensitivity factors, keyed
  by an electrical-topology digest (load-only perturbations reuse one
  factorisation for the whole ensemble), and
* the composite-key contingency cache, so identical (content, outage,
  limits) evaluations are never repeated within a worker.

Every one of these caches evicts by the rule of
:class:`~repro.cache.BoundedStore`.

Chunks, not scenarios, are the worker's unit of work, and
:meth:`_WorkerState.run_chunk` is the one seam where the fast paths
engage.  Each is a :class:`_FastPath`: the batched DC kernels
(:mod:`repro.powerflow.batch`, one stacked multi-RHS solve per chunk,
bit-identical to the scalar loop) for injection-only ``dc`` and
``screening`` rows, and the warm AC kernel's injection and branch-outage
solves for ``powerflow``.  The seam opens each group's span, builds its
base kernel, times it, counts every row handed back by reason, and bills
every record once; rows no fast path solved take the scalar
per-scenario loop, which the fast paths are tested against.

Results are plain-data :class:`ScenarioResult` records — cheap to pickle
back — and the chunked dispatch preserves scenario order, so serial,
pooled, and streamed runs aggregate identically (a property the test
suite asserts).

The execution pipeline is *streaming*: chunks are drawn lazily from the
scenario stream, at most a bounded window of chunks is in flight at once
(backpressure against the pool), and completed chunks are folded straight
into an online :class:`~repro.scenarios.aggregate.StudyReducer` plus a
capped worst-K heap instead of accumulating every result.  ``run(...,
keep_results=True)`` (the default) still materialises the full result
list for persistence and bit-identical determinism checks; large
ensembles opt out and hold O(window x chunk + K) results at peak.
"""

from __future__ import annotations

import functools
import heapq
import logging
import os
import time
from collections import Counter
from contextlib import closing, nullcontext
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from ..cache import BoundedStore
from ..instrumentation.accounting import record_chunk, record_study
from ..instrumentation.metrics import ITERATION_BUCKETS, get_metrics
from ..instrumentation.probes import record_fallbacks
from ..instrumentation.trace import get_tracer
from ..contingency.cache import ContingencyCache
from ..contingency.lodf import compute_factors
from ..contingency.nminus1 import run_n_minus_1
from ..contingency.ranking import rank_critical_elements
from ..contingency.screening import screen_dc, screen_dc_many
from ..grid import graph as gridgraph
from ..grid.network import Network
from ..powerflow.ac_batch import AcKernel
from ..powerflow.batch import DcKernel, topology_digest
from .aggregate import (
    DEFAULT_SLICE_MAX_VALUES,
    SlicedReducer,
    SliceSpec,
    StudyAggregate,
    aggregate_study,
)
from .executor import ChunkOutcome, StudyExecutor, default_chunk_size, iter_chunks
from .spec import BranchOutage, Scenario, ScenarioError
from .stream import as_stream, stream_length

ANALYSES = ("powerflow", "dc", "dcopf", "acopf", "screening", "scopf")

#: Default cap on the worst-scenario heap a streamed study retains.
DEFAULT_WORST_K = 20

log = logging.getLogger(__name__)


@dataclass
class ScenarioResult:
    """Per-scenario outcome, reduced to picklable plain data."""

    name: str
    tags: dict
    converged: bool
    objective_cost: float | None = None
    max_loading_percent: float = 0.0
    min_voltage_pu: float | None = None
    max_voltage_pu: float | None = None
    losses_mw: float | None = None
    overloaded_branches: list[int] = field(default_factory=list)
    n_voltage_violations: int = 0
    critical_branches: list[int] | None = None
    n_contingency_violations: int | None = None
    security_cost: float | None = None  # SCOPF premium over economic dispatch
    solve_time_s: float = 0.0
    error: str = ""

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "converged": self.converged,
            "max_loading_percent": round(self.max_loading_percent, 2),
        }
        if self.objective_cost is not None:
            out["objective_cost"] = round(self.objective_cost, 2)
        if self.min_voltage_pu is not None:
            out["min_voltage_pu"] = round(self.min_voltage_pu, 4)
        if self.overloaded_branches:
            out["overloaded_branches"] = list(self.overloaded_branches)
        if self.critical_branches is not None:
            out["critical_branches"] = list(self.critical_branches)
        if self.n_contingency_violations is not None:
            out["n_contingency_violations"] = self.n_contingency_violations
        if self.security_cost is not None:
            out["security_cost"] = round(self.security_cost, 2)
        if self.error:
            out["error"] = self.error
        return out


@dataclass(frozen=True)
class StudyProgress:
    """One incremental checkpoint of a running study (per completed chunk).

    ``chunk_wall_s`` and ``worker_pid`` describe the chunk that produced
    this event (wall-clock inside the worker, and which process served
    it) — the per-chunk timing trail that makes the service's progress
    feed useful even without full tracing enabled.
    """

    n_done: int
    n_total: int | None  # None when the stream length is unknown
    n_chunks: int
    n_converged: int
    n_errors: int
    violation_rate: float  # over converged scenarios so far
    elapsed_s: float
    chunk_wall_s: float = 0.0  # wall time of this event's chunk
    worker_pid: int = 0  # process that evaluated this event's chunk

    @property
    def fraction(self) -> float | None:
        if not self.n_total:
            return None
        return self.n_done / self.n_total

    def to_dict(self) -> dict:
        out = {
            "n_done": self.n_done,
            "n_total": self.n_total,
            "n_chunks": self.n_chunks,
            "n_converged": self.n_converged,
            "n_errors": self.n_errors,
            "violation_rate": round(self.violation_rate, 4),
            "elapsed_s": round(self.elapsed_s, 3),
            "chunk_wall_s": round(self.chunk_wall_s, 4),
            "worker_pid": self.worker_pid,
        }
        if self.fraction is not None:
            out["fraction"] = round(self.fraction, 4)
        return out


class _WorstK:
    """Bounded min-heap keeping the K most stressed scenarios.

    Replicates the historical ``sorted(results, key=-loading)[:k]``
    ordering exactly (ties resolve to earlier scenarios) while holding
    only K results, so a streamed study's ``worst_scenarios`` slice
    matches the materialised one for any request ``n <= k``.
    """

    def __init__(self, k: int) -> None:
        self.k = max(0, int(k))
        self._heap: list[tuple[float, int, ScenarioResult]] = []
        self._seq = 0

    def push(self, result: ScenarioResult) -> None:
        if self.k == 0:
            return
        # Min-heap on (loading, -seq): among equal loadings the *latest*
        # scenario is evicted first, preserving stable-sort semantics.
        entry = (result.max_loading_percent, -self._seq, result)
        self._seq += 1
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
        elif entry > self._heap[0]:
            heapq.heapreplace(self._heap, entry)

    def __len__(self) -> int:
        return len(self._heap)

    def worst(self) -> list[ScenarioResult]:
        """Most stressed first; ties in original scenario order."""
        return [
            r
            for _, _, r in sorted(self._heap, key=lambda t: (-t[0], -t[1]))
        ]


@dataclass
class StudyResult:
    """Everything one batch study produced.

    ``results`` holds the full per-scenario record list when the study
    ran with ``keep_results=True`` (the default, required for store
    persistence and exact determinism diffs) and is empty for streamed
    studies, which retain only the aggregate, the capped worst-K slice
    (``worst_results``), and the progress/residency instrumentation.
    """

    case_name: str
    analysis: str
    results: list[ScenarioResult]
    runtime_s: float
    n_jobs: int = 1
    n_scenarios: int = -1  # -1 -> len(results) (set in __post_init__)
    worst_results: list[ScenarioResult] | None = None
    n_progress_events: int = 0
    peak_resident_results: int | None = None
    slice_spec: SliceSpec | None = None  # dimensional aggregation, if any
    _aggregate: StudyAggregate | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.n_scenarios < 0:
            self.n_scenarios = len(self.results)

    def aggregate(self) -> StudyAggregate:
        if self._aggregate is None:
            self._aggregate = aggregate_study(
                self.results, slice_spec=self.slice_spec
            )
        return self._aggregate

    def worst(self, n: int = 5) -> list[ScenarioResult]:
        """Most stressed scenarios first (by post-analysis peak loading)."""
        if self.results:
            return sorted(self.results, key=lambda r: -r.max_loading_percent)[:n]
        return (self.worst_results or [])[:n]

    def to_dict(self, max_scenarios: int = 20) -> dict:
        """JSON-ready study summary (what the agent tools return)."""
        out = {
            "case_name": self.case_name,
            "analysis": self.analysis,
            "n_scenarios": self.n_scenarios,
            "n_jobs": self.n_jobs,
            "runtime_s": round(self.runtime_s, 3),
            "aggregate": self.aggregate().to_dict(),
            "worst_scenarios": [r.to_dict() for r in self.worst(max_scenarios)],
        }
        if self.n_progress_events:
            out["n_progress_events"] = self.n_progress_events
        if self.peak_resident_results is not None:
            out["peak_resident_results"] = self.peak_resident_results
        return out


@dataclass(frozen=True)
class StudyConfig:
    """The one definition of a batch study, validated on construction.

    Front ends (service requests, the CLI, the study agent) build one;
    :class:`BatchStudyRunner` runs it and ships it once to each worker.
    ``metadata["hash"]`` on a field declares whether the store's spec
    hash covers it: absent means always, ``False`` never, an analysis
    name only for that analysis.  Only knobs that cannot change the
    per-scenario records stay out, so re-running the same physics
    addresses the same store entry.
    """

    analysis: str = "powerflow"
    overload_threshold: float = 100.0
    vmin: float = 0.94
    vmax: float = 1.06
    ac_budget: int = 20
    top_n: int = 5
    #: Dimensional aggregation (see :class:`SliceSpec`).  It shapes the
    #: derived aggregate index, never the records: re-slicing refreshes
    #: one store entry, and keys minted before slicing keep matching.
    slice_by: tuple[str, ...] = field(default=(), metadata={"hash": False})
    slice_max_values: int = field(default=DEFAULT_SLICE_MAX_VALUES, metadata={"hash": False})
    #: "warm" routes injection-only and branch-outage powerflow chunks
    #: through the topology-cached AC kernel; "cold" forces the exact
    #: legacy per-scenario solve.  The two agree only under the parity
    #: contract (aggregates within 1e-6), so powerflow keys hash it.
    ac_mode: str = field(default="warm", metadata={"hash": "powerflow"})
    #: Fast-decoupled sweeps the warm AC path runs before its Newton
    #: polish (0 disables them); enough by default that the polish is
    #: usually a single mismatch check.
    ac_fd_sweeps: int = field(default=8, metadata={"hash": "powerflow"})

    def __post_init__(self) -> None:
        if self.analysis not in ANALYSES:
            raise ValueError(
                f"unknown analysis {self.analysis!r}; use one of {ANALYSES}"
            )
        if self.ac_mode not in ("warm", "cold"):
            raise ValueError(
                f"unknown ac_mode {self.ac_mode!r}; use 'warm' or 'cold'"
            )
        # SliceSpec sees the raw value first: it rejects a bare string,
        # which tuple() would split into one-letter dimensions.
        object.__setattr__(self, "slice_by", self.slice_spec().by)

    def slice_spec(self) -> SliceSpec:
        return SliceSpec(by=self.slice_by, max_values=self.slice_max_values)

    def hashed_fields(self) -> dict:
        """The fields the store's spec hash covers, by name."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.metadata.get("hash", True) in (True, self.analysis)
        }


def _failed(scenario: Scenario, error: str) -> ScenarioResult:
    """The record of a scenario that produced no converged answer."""
    return ScenarioResult(
        name=scenario.name, tags=dict(scenario.tags), converged=False, error=error
    )


def _error_message(exc: Exception) -> str:
    """A perturbation error's own message; any other exception's type too."""
    if isinstance(exc, ScenarioError):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


def _injection_only(scenario: Scenario) -> bool:
    return scenario.injection_only


def _branch_outages(scenario: Scenario) -> frozenset[int]:
    """Branch ids of a pure branch-outage scenario (empty otherwise)."""
    perts = scenario.perturbations
    if perts and all(isinstance(p, BranchOutage) for p in perts):
        return frozenset(p.branch_id for p in perts)
    return frozenset()


def _replay(
    scenarios: list[Scenario], replay: Callable[[Scenario], object]
) -> tuple[list[ScenarioResult | None], list[int], list]:
    """Run each scenario's vectorized replay; perturbation errors become
    the scalar path's error records.

    Returns ``(results, live, values)``: ``results`` holds the error
    records (``None`` elsewhere), ``live`` the indices that replayed and
    ``values`` their replay outputs, in order.
    """
    results: list[ScenarioResult | None] = [None] * len(scenarios)
    live: list[int] = []
    values: list = []
    for i, scenario in enumerate(scenarios):
        try:
            values.append(replay(scenario))
            live.append(i)
        except Exception as exc:
            results[i] = _failed(scenario, _error_message(exc))
    return results, live, values


class TopologyCache(BoundedStore[bytes, object]):
    """Objects built once per electrical topology, under the shared
    eviction rule of :class:`~repro.cache.BoundedStore`.

    Keyed on :func:`~repro.powerflow.batch.topology_digest`, which covers
    everything a factorization depends on but *not* loads — so a whole
    load-perturbation ensemble maps onto one entry.  Outage ensembles
    mint a new digest per scenario, so they are what fills it.
    """

    def __init__(self, cap: int, build: Callable[[Network], object]) -> None:
        super().__init__(cap)
        self.build = build

    def get(self, net: Network):
        """The object built for ``net``'s topology, built on a miss."""
        key = topology_digest(net.compile())
        value = super().get(key)
        return value if value is not None else self.put(key, self.build(net))


class _FastPath(NamedTuple):
    """One fast tier of :meth:`_WorkerState.run_chunk`.

    The rows ``accepts`` takes form the group, which engages from
    ``min_rows`` rows on.  ``kernels`` builds the kernel for the base,
    and ``solve(kernel, group)`` returns the group's records (``None``
    for each row handed back to the scalar loop) and the handback counts
    by reason.  ``label`` names the path in fallback counts; ``span`` is
    the group span's name.
    """

    label: str
    span: str
    accepts: Callable[[Scenario], object]
    min_rows: int
    kernels: TopologyCache
    solve: Callable[[object, list[Scenario]], tuple[list, Mapping[str, int]]]


class _WorkerState:
    """One worker's long-lived state: base network plus reusable caches.

    The base never changes for the state's lifetime (the executor
    unpickles a private copy, the serial path copies it), so answers that
    depend on it alone are computed once: :attr:`base_connected` and the
    kernels keyed by its topology.
    """

    def __init__(self, base: Network, config: StudyConfig) -> None:
        self.base = base
        self.config = config
        # Kernels hold SuperLU objects (heavy, unpicklable, so strictly
        # worker-local); factors hold dense PTDF/LODF matrices and reuse
        # the DC kernel's LU.  No build closes over ``self``: a reference
        # cycle would keep every dropped state (network copy, kernels,
        # factors) alive until the cyclic collector runs.
        dc_kernels = TopologyCache(64, lambda net: DcKernel(net.compile()))
        self.dc_kernels = dc_kernels
        self.ac_kernels = TopologyCache(64, AcKernel)
        self.factors = TopologyCache(
            256, lambda net: compute_factors(net, kernel=dc_kernels.get(net))
        )
        self.ca_cache = ContingencyCache()

    @functools.cached_property
    def base_connected(self) -> bool:
        """Whether the base is one island: one graph build per state."""
        return gridgraph.is_connected(self.base)

    # ------------------------------------------------------------------
    def _fast_paths(self) -> tuple[_FastPath, ...]:
        """The fast paths the config selects, in the order they run.

        Built per chunk rather than stored: the bound solves refer back
        to the state, and a stored cycle would outlive a dropped state.
        """
        cfg = self.config
        if cfg.analysis in ("dc", "screening"):
            return (
                _FastPath("batch", "chunk.batch", _injection_only, 2,
                          self.dc_kernels, self._solve_batched),
            )
        if cfg.analysis == "powerflow" and cfg.ac_mode == "warm":
            # The warm paths solve rows independently (the screen, the
            # multi-RHS sweeps, and the Newton polish never mix rows), so
            # they engage even for singleton groups: a scenario's iterate
            # path then depends only on the base case and its own
            # injection or outage set, never on chunking — which is what
            # keeps serial, pooled, and executor dispatch producing
            # identical records.
            return (
                _FastPath("ac", "chunk.ac_batch", _injection_only, 1,
                          self.ac_kernels, self._solve_ac),
                _FastPath("outage", "chunk.ac_batch", _branch_outages, 1,
                          self.ac_kernels, self._solve_outages),
            )
        return ()

    def run_chunk(self, scenarios: list[Scenario]) -> list[ScenarioResult]:
        """Chunk-level entry point every execution path funnels through.

        The one fast-path seam.  Each fast path the config selects takes
        the rows it accepts as one group under its span: the batched DC
        kernels for the injection-only rows of ``dc`` and ``screening``
        (bit-identical to the scalar path), and for ``powerflow`` with
        ``ac_mode="warm"`` the warm-start AC kernel for injection-only
        rows and its compensated outage solve for pure branch-outage
        rows (parity contract, not bit-identity — the iterates are
        path-dependent).  A group whose base kernel is unavailable hands
        all its rows back, a group solve may hand back single rows, and
        either way the handoff is counted by reason.  Rows no fast path
        solved — other topology changers, handbacks, and every scenario
        of the other analyses — take the scalar :meth:`run_scenario`.
        Each record is billed once, here, and the chunk's records come
        back in submission order.
        """
        cfg = self.config
        tracer = get_tracer()
        out: list[ScenarioResult | None] = [None] * len(scenarios)
        for path in self._fast_paths():
            idx = [i for i, s in enumerate(scenarios) if path.accepts(s)]
            if len(idx) < path.min_rows:
                continue
            with tracer.span(
                path.span, analysis=cfg.analysis, n_scenarios=len(idx)
            ) as span:
                kernel, reason = self._base_kernel(path.kernels.get, path.label, len(idx))
                if reason is not None:
                    record_fallbacks(span, path.label, {reason: len(idx)})
                    continue
                tick = time.perf_counter()
                solved, handbacks = path.solve(kernel, [scenarios[i] for i in idx])
                elapsed = time.perf_counter() - tick
                record_fallbacks(span, path.label, handbacks)
            done = [(i, r) for i, r in zip(idx, solved) if r is not None]
            for i, r in done:
                r.solve_time_s = elapsed / len(done)
                out[i] = r
        results = [
            r if r is not None else self.run_scenario(s)
            for s, r in zip(scenarios, out)
        ]
        billed = get_metrics().counter(
            "gridmind_scenarios_total", "Scenario evaluations by outcome"
        )
        for r in results:
            billed.inc(analysis=cfg.analysis, converged=r.converged)
        return results

    def _base_kernel(self, build: Callable, path: str, n_rows: int):
        """``(build(base), None)`` for a group solve, or ``(None, reason)``
        naming why the whole group takes the scalar loop instead.

        A disconnected base needs each realized network for the scalar
        path's per-scenario stranded-MW message; an unconverged base has
        no voltage to warm-start from; a build error is a kernel bug and
        is logged with its traceback.  Connectivity is read from
        :attr:`base_connected`, so no chunk builds a graph.
        """
        if not self.base_connected:
            return None, "disconnected-base"
        try:
            kernel = build(self.base)
        except Exception:
            log.exception(
                "%s kernel build failed; %d rows take the scalar loop",
                path, n_rows,
            )
            return None, "build-error"
        if isinstance(kernel, AcKernel) and not kernel.usable:
            return None, "base-diverged"
        return kernel, None

    def _solve_batched(self, kernel: DcKernel, scenarios: list[Scenario]):
        """An injection-only ``dc`` or ``screening`` group in one stacked
        multi-RHS solve.

        Per-scenario perturbation errors do *not* sink the group: the
        offending scenario gets the same error record the scalar path
        would produce and the rest still batch.  Screening batches only
        the DC estimate and AC-verifies each row through
        :meth:`run_scenario`.
        """
        cfg = self.config
        base = self.base
        metrics = get_metrics()
        results, live, vectors = _replay(
            scenarios, lambda s: s.injection_vector(base)
        )
        if live:
            p_inj = np.vstack(vectors)
            if cfg.analysis == "dc":
                batch = kernel.solve_many(p_inj)
                for j, i in enumerate(live):
                    results[i] = self._dc_result(
                        scenarios[i], kernel.arr, batch.loading_percent[j]
                    )
            else:
                estimates = screen_dc_many(kernel, self.factors.get(base), p_inj)
                for j, i in enumerate(live):
                    results[i] = self.run_scenario(
                        scenarios[i], estimate=estimates[j]
                    )
            metrics.counter(
                "gridmind_batch_solves_total",
                "Multi-RHS batched kernel solve calls",
            ).inc(analysis=cfg.analysis)
            metrics.counter(
                "gridmind_batch_rows_total",
                "Scenario rows solved through the batched kernels",
            ).inc(len(live), analysis=cfg.analysis)
        return results, {}

    def _dc_result(
        self, scenario: Scenario, arr, loading: np.ndarray
    ) -> ScenarioResult:
        """Reduce one DC loading vector to a result record — the single
        reduction both the scalar and batched dc paths run, so their
        records are bit-identical by construction."""
        cfg = self.config
        over_rows = np.flatnonzero(loading > cfg.overload_threshold)
        # DC holds every voltage at 1.0 p.u. flat by construction.
        n_volt = arr.n_bus if (1.0 < cfg.vmin or 1.0 > cfg.vmax) else 0
        return ScenarioResult(
            name=scenario.name,
            tags=dict(scenario.tags),
            converged=True,
            max_loading_percent=float(loading.max()) if loading.size else 0.0,
            min_voltage_pu=1.0,
            max_voltage_pu=1.0,
            losses_mw=0.0,
            overloaded_branches=[int(arr.branch_ids[r]) for r in over_rows],
            n_voltage_violations=n_volt,
        )

    def _solve_ac(self, kernel: AcKernel, scenarios: list[Scenario]):
        """An injection-only AC group through the warm kernel.

        A perturbation error gets the same error record the scalar path
        would produce, and a row whose warm Newton polish fails is handed
        back so it reruns through the exact cold ladder
        (``solve_newton`` then ``solve_with_recovery``), making error
        records byte-identical on both paths.
        """
        base = self.base
        metrics = get_metrics()
        results, live, injections = _replay(scenarios, lambda s: s.ac_injection(base))
        if not live:
            return results, {}
        sol = kernel.solve_chunk(
            np.vstack([sbus for sbus, _pd, _qd in injections]),
            fd_sweeps=self.config.ac_fd_sweeps,
        )
        iters_hist = metrics.histogram(
            "gridmind_ac_newton_iterations",
            "Newton iterations per AC ensemble scenario",
            buckets=ITERATION_BUCKETS,
        )
        n_warm = 0
        n_skipped = 0
        stalled = 0
        for j, i in enumerate(live):
            if not sol.converged[j]:
                stalled += 1
                continue  # leave None: the scalar loop runs the cold ladder
            _sbus, pd, qd = injections[j]
            res = kernel.finalize_row(
                sol.v[j], pd, qd,
                converged=True,
                iterations=int(sol.iterations[j]),
                norm=float(sol.norms[j]),
            )
            results[i] = self._pf_record(scenarios[i], res)
            iters_hist.observe(float(sol.iterations[j]), mode="warm")
            if sol.skipped[j]:
                n_skipped += 1
            else:
                n_warm += 1
        if n_warm:
            metrics.counter(
                "gridmind_ac_warm_solves_total",
                "AC ensemble rows solved warm through the kernel",
            ).inc(n_warm)
        if n_skipped:
            metrics.counter(
                "gridmind_ac_skipped_converged_total",
                "AC ensemble rows already converged at the warm start",
            ).inc(n_skipped)
        return results, {"polish-diverged": stalled}

    def _solve_outages(self, kernel: AcKernel, scenarios: list[Scenario]):
        """A branch-outage AC group through the base kernel.

        Every row is a set of outaged base branches at base injections,
        solved stacked by :meth:`AcKernel.solve_outages` (compensated
        warm fast-decoupled sweeps, no Ybus rebuild or refactorization).
        Rows it hands back (islanded, stalled) rerun through
        :meth:`run_scenario`, so their records are the scalar records
        byte for byte; so do rows naming a branch the base does not have
        in service, counted as ``not-in-service``.
        """
        results: list[ScenarioResult | None] = [None] * len(scenarios)
        in_service = set(kernel.arr.branch_ids.tolist())
        sets = [_branch_outages(s) for s in scenarios]
        live = [i for i, ids in enumerate(sets) if ids <= in_service]
        reasons = Counter({"not-in-service": len(scenarios) - len(live)})
        if not live:
            return results, reasons
        sol = kernel.solve_outages([sets[i] for i in live])
        for i, row in zip(live, sol.rows):
            if row is not None:
                results[i] = self._pf_record(scenarios[i], row)
        solved = sum(r is not None for r in results)
        if solved:
            get_metrics().counter(
                "gridmind_ac_outage_solves_total",
                "Branch-outage rows solved through the compensated AC kernel",
            ).inc(solved, path="study")
        reasons.update(r for r in sol.reasons if r is not None)
        return results, reasons

    # ------------------------------------------------------------------
    def run_scenario(self, scenario: Scenario, **hints) -> ScenarioResult:
        with get_tracer().span("scenario.run", scenario=scenario.name) as span:
            result = self._run_scenario(scenario, **hints)
            span.tags["converged"] = result.converged
            if result.error:
                span.status = "error"
                span.error = result.error
        return result

    def _run_scenario(self, scenario: Scenario, **hints) -> ScenarioResult:
        tick = time.perf_counter()
        try:
            net = scenario.realize(self.base)
            # An injection-only scenario keeps the base's topology, so
            # only topology changers need a graph of their own.
            connected = (
                self.base_connected
                if scenario.injection_only
                else gridgraph.is_connected(net)
            )
            if not connected:
                # Outage combinations can island the system (N-2 over a
                # bridge); no solver can run, but the study must record
                # the scenario rather than die on a singular matrix.
                result = _failed(
                    scenario,
                    "scenario islands the network "
                    f"({gridgraph.stranded_load_mw(net, frozenset()):.1f} MW stranded)",
                )
            else:
                runner = getattr(self, f"_run_{self.config.analysis}")
                result = runner(net, scenario, **hints)
        except Exception as exc:  # solver edge cases must not kill the batch
            result = _failed(scenario, _error_message(exc))
        result.solve_time_s = time.perf_counter() - tick
        return result

    # ------------------------------------------------------------------
    def _solve_pf(self, net: Network):
        from ..powerflow.newton import solve_newton
        from ..powerflow.recovery import solve_with_recovery

        res = solve_newton(net)
        if not res.converged:
            res, _trace = solve_with_recovery(net)
        return res

    def _pf_record(self, scenario: Scenario, res) -> ScenarioResult:
        """Reduce one converged AC result to a record — the single
        reduction the scalar and warm-kernel paths share, so their
        violation sets and aggregate fields agree by construction."""
        cfg = self.config
        overloads = res.overloaded_branches(cfg.overload_threshold)
        violations = res.voltage_violations(cfg.vmin, cfg.vmax)
        return ScenarioResult(
            name=scenario.name,
            tags=dict(scenario.tags),
            converged=True,
            max_loading_percent=res.max_loading_percent,
            min_voltage_pu=res.min_voltage_pu,
            max_voltage_pu=res.max_voltage_pu,
            losses_mw=res.losses_mw,
            overloaded_branches=[b for b, _pct in overloads],
            n_voltage_violations=len(violations),
        )

    def _run_powerflow(self, net: Network, scenario: Scenario) -> ScenarioResult:
        res = self._solve_pf(net)
        if res.method == "newton":
            get_metrics().histogram(
                "gridmind_ac_newton_iterations",
                "Newton iterations per AC ensemble scenario",
                buckets=ITERATION_BUCKETS,
            ).observe(float(res.iterations), mode="cold")
        if not res.converged:
            return _failed(scenario, res.message or "power flow diverged")
        return self._pf_record(scenario, res)

    def _reduce_opf(self, scenario: Scenario, res) -> ScenarioResult:
        """Shared OPF-result reduction (DCOPF / ACOPF / SCOPF master)."""
        cfg = self.config
        over_rows = np.flatnonzero(res.loading_percent > cfg.overload_threshold)
        n_volt = int(
            np.count_nonzero((res.vm < cfg.vmin) | (res.vm > cfg.vmax))
        )
        return ScenarioResult(
            name=scenario.name,
            tags=dict(scenario.tags),
            converged=True,
            objective_cost=float(res.objective_cost),
            max_loading_percent=res.max_loading_percent,
            min_voltage_pu=res.min_voltage_pu,
            max_voltage_pu=res.max_voltage_pu,
            losses_mw=float(res.losses_mw),
            overloaded_branches=[int(res.branch_ids[r]) for r in over_rows],
            n_voltage_violations=n_volt,
        )

    def _run_opf(self, net: Network, scenario: Scenario, solve) -> ScenarioResult:
        res = solve(net)
        if not res.converged:
            return _failed(scenario, res.message or "OPF did not converge")
        return self._reduce_opf(scenario, res)

    def _run_dc(self, net: Network, scenario: Scenario) -> ScenarioResult:
        """Linear DC screening solve — the scalar side of the batched
        kernels' fast path (chunks of injection-only scenarios route
        through :meth:`run_chunk` / ``solve_many`` instead)."""
        from ..powerflow.dc import solve_dc

        res = solve_dc(net, kernel=self.dc_kernels.get(net))
        return self._dc_result(scenario, net.compile(), res.loading_percent)

    def _run_dcopf(self, net: Network, scenario: Scenario) -> ScenarioResult:
        from ..opf.dcopf import solve_dcopf

        return self._run_opf(net, scenario, solve_dcopf)

    def _run_acopf(self, net: Network, scenario: Scenario) -> ScenarioResult:
        from ..opf.acopf import solve_acopf

        return self._run_opf(net, scenario, solve_acopf)

    def _run_scopf(self, net: Network, scenario: Scenario) -> ScenarioResult:
        """Preventive SCOPF: the study reports *secured* cost distributions."""
        from ..opf.scopf import solve_scopf

        res = solve_scopf(net)
        if not res.converged:
            return _failed(scenario, res.opf.message or "SCOPF master did not converge")
        out = self._reduce_opf(scenario, res.opf)
        out.security_cost = float(res.security_cost)
        # Pairs no preventive redispatch can secure — the honest residual.
        out.n_contingency_violations = len(res.unattainable)
        return out

    def _run_screening(
        self, net: Network, scenario: Scenario, estimate=None
    ) -> ScenarioResult:
        cfg = self.config
        base = self._solve_pf(net)
        if not base.converged:
            return _failed(scenario, base.message or "base power flow diverged")

        if estimate is None:
            # ``estimate`` arrives precomputed from the chunk fast path
            # (one stacked solve + LODF product for the whole group);
            # the scalar path computes the identical estimate here.
            estimate = screen_dc(net, factors=self.factors.get(net))
        candidates = sorted(
            set(estimate.top(cfg.ac_budget))
            | set(int(b) for b in estimate.islanding)
        )

        # AC verification only for the outages this worker has not seen.
        report = run_n_minus_1(
            net,
            branch_ids=candidates,
            base_result=base,
            vmin=cfg.vmin,
            vmax=cfg.vmax,
            overload_threshold=cfg.overload_threshold,
            cache=self.ca_cache,
        )
        ranked = rank_critical_elements(report, top_n=cfg.top_n)

        post_overloads = sorted(
            {int(b) for o in report.outcomes if o.converged for b, _pct in o.overloads}
        )
        return ScenarioResult(
            name=scenario.name,
            tags=dict(scenario.tags),
            converged=True,
            max_loading_percent=report.max_overload_percent,
            min_voltage_pu=base.min_voltage_pu,
            max_voltage_pu=base.max_voltage_pu,
            losses_mw=base.losses_mw,
            overloaded_branches=post_overloads,
            n_voltage_violations=len(base.voltage_violations(cfg.vmin, cfg.vmax)),
            critical_branches=ranked.critical_branch_ids,
            n_contingency_violations=report.n_violations,
        )


@dataclass
class BatchStudyRunner:
    """Run a :class:`StudyConfig` in-process or on a process pool.

    The runner owns dispatch only; ``config`` is the study.  Pooled
    chunks always go through a
    :class:`~repro.scenarios.executor.StudyExecutor`.  ``executor``
    injects a long-lived shared one (the service layer's), so
    back-to-back studies amortise worker start-up; it decides its own
    worker count and ``n_jobs`` is ignored.  Without one, ``n_jobs > 1``
    creates an ephemeral executor owned by the ``run()`` call and shut
    down when it ends, and ``n_jobs <= 1`` runs in-process.  Every path
    evaluates chunks with the same worker-state code, so pooled and
    serial studies produce identical results.  ``chunk_size`` controls
    dispatch granularity (default: ~4 chunks per worker, balancing load
    against per-chunk pickling overhead).

    Streaming controls:

    * ``window`` — max chunks in flight at once (backpressure; default
      2x the worker count),
    * ``worst_k`` — how many most-stressed scenarios a study retains when
      the full result list is dropped,
    * ``run(..., keep_results=False)`` — stream-reduce without
      materialising results; ``run(..., progress=cb)`` — invoke ``cb``
      with a :class:`StudyProgress` after every completed chunk.
    """

    config: StudyConfig = field(default_factory=StudyConfig)
    n_jobs: int = 1
    chunk_size: int | None = None
    executor: StudyExecutor | None = None  # shared pool (service layer)
    window: int | None = None  # max in-flight chunks (pooled studies)
    worst_k: int = DEFAULT_WORST_K

    # ------------------------------------------------------------------
    def _plan(
        self, total: int | None
    ) -> tuple[StudyExecutor | None, bool, int, int]:
        """``(executor, owned, chunk, window)`` for ``total`` scenarios;
        ``executor`` is ``None`` (and ``window`` 1) for in-process runs."""
        executor, owned = None, False
        if total is None or total >= 2:
            if self.executor is not None:
                executor = self.executor
            elif self.n_jobs > 1:
                executor, owned = StudyExecutor(
                    max_workers=self.n_jobs if total is None else min(self.n_jobs, total)
                ), True
        if executor is None:
            return None, False, self.chunk_size or default_chunk_size(total, 1), 1
        chunk, window = executor.dispatch_plan(
            total, chunk_size=self.chunk_size, window=self.window
        )
        return executor, owned, chunk, window

    def _serial_chunks(
        self, base: Network, scenarios, chunk: int
    ) -> Iterator[ChunkOutcome]:
        # Generator bodies run in the *caller's* context, so these live
        # ``worker.chunk`` spans parent under whatever span the fold loop
        # holds open when it draws the next chunk — same tree shape as
        # the pooled path, without serialising anything.
        tracer = get_tracer()
        state = _WorkerState(base.copy(), self.config)
        for chunk_scns in iter_chunks(scenarios, chunk):
            tick = time.perf_counter()
            with tracer.span("worker.chunk", n_scenarios=len(chunk_scns)):
                results = state.run_chunk(chunk_scns)
            yield ChunkOutcome(
                results=results,
                worker_pid=os.getpid(),
                wall_s=time.perf_counter() - tick,
            )

    def chunk_stream(
        self, base: Network, scenarios: Iterable[Scenario], plan=None
    ) -> Iterator[ChunkOutcome]:
        """Evaluated chunks of ``scenarios`` in order: the one dispatch
        path batch studies (:meth:`run`) and the telemetry watch fold.

        Each outcome is billed before it is yielded: worker spans
        adopted, worker metrics merged, wall time observed.  The dispatch
        span stays open while the consumer folds, so the consumer's spans
        and the pooled chunks' worker spans parent under it.  Close the
        stream (``contextlib.closing``): that cancels queued chunks and
        shuts down an executor the stream owns.
        """
        executor, owned, chunk, window = plan or self._plan(stream_length(scenarios))
        if executor is not None:
            dispatch_name, jobs = "executor.dispatch", executor.max_workers
            outcomes = executor.run_study_chunks(
                base, self.config, scenarios, chunk_size=chunk, window=window
            )
        else:
            dispatch_name, jobs = "serial.dispatch", 1
            outcomes = self._serial_chunks(base, scenarios, chunk)
        tracer = get_tracer()
        metrics = get_metrics()
        # Worker-side chunk wall: the latency signal the chunk_wall_p95
        # health rule watches, and the executor occupancy billed to the
        # session.
        chunk_wall = metrics.histogram(
            "gridmind_chunk_wall_seconds", "Worker-side study chunk wall time"
        )
        # On any exit the chunk iterator closes first (cancelling queued
        # chunks), then an executor this stream owns shuts down.
        with (
            tracer.span(dispatch_name, n_jobs=jobs),
            executor if owned else nullcontext(),
            closing(outcomes),
        ):
            for outcome in outcomes:
                tracer.adopt(outcome.spans)
                metrics.merge_state(outcome.metrics)
                chunk_wall.observe(outcome.wall_s)
                record_chunk(len(outcome.results), outcome.wall_s)
                yield outcome

    # ------------------------------------------------------------------
    def run(
        self,
        base: Network,
        scenarios: Iterable[Scenario],
        *,
        progress: Callable[[StudyProgress], None] | None = None,
        keep_results: bool = True,
    ) -> StudyResult:
        config = self.config
        tracer = get_tracer()
        metrics = get_metrics()
        start = time.perf_counter()
        # One-shot iterators are materialised up front (lists and
        # ScenarioStreams pass through lazily): the stream is re-read
        # after execution by store persistence (spec hashing), and a
        # consumed generator would silently hash as an empty study.
        scenarios = as_stream(scenarios)
        total = stream_length(scenarios)
        plan = self._plan(total)
        executor, _owned, chunk, window = plan
        jobs = executor.max_workers if executor is not None else 1
        # The residency bound below accounts for undrained futures.
        in_flight_extra = (window - 1) * chunk

        # The dimensional reducer degenerates to the plain global one for
        # an empty slice spec, so every study takes the same path.
        reducer = SlicedReducer(config.slice_spec())
        heap = _WorstK(self.worst_k)
        kept: list[ScenarioResult] | None = [] if keep_results else None
        n_done = 0
        n_chunks = 0
        n_events = 0
        peak_resident = 0

        with tracer.span("study.run", analysis=config.analysis, case=base.name) as root:
            with closing(self.chunk_stream(base, scenarios, plan)) as outcomes:
                for outcome in outcomes:
                    chunk_results = outcome.results
                    n_done += len(chunk_results)
                    n_chunks += 1
                    with tracer.span("study.reduce", n_results=len(chunk_results)):
                        reducer.add_many(chunk_results)
                        for r in chunk_results:
                            heap.push(r)
                    if kept is not None:
                        kept.extend(chunk_results)
                    # Parent-resident records right now: the kept list (or just
                    # this chunk when dropping), the worst-K slice, plus the
                    # worst-case results buffered in completed-but-undrained
                    # futures of the in-flight window.
                    resident = (len(kept) if kept is not None else len(chunk_results))
                    peak_resident = max(
                        peak_resident, resident + len(heap) + in_flight_extra
                    )
                    if progress is not None:
                        snap = reducer.snapshot()
                        n_events += 1
                        progress(
                            StudyProgress(
                                n_done=n_done,
                                n_total=total,
                                n_chunks=n_chunks,
                                n_converged=snap["n_converged"],
                                n_errors=snap["n_errors"],
                                violation_rate=snap["violation_rate"],
                                elapsed_s=time.perf_counter() - start,
                                chunk_wall_s=outcome.wall_s,
                                worker_pid=outcome.worker_pid,
                            )
                        )
            root.tags["n_scenarios"] = n_done
            root.tags["n_chunks"] = n_chunks

        metrics.counter(
            "gridmind_studies_total", "Batch studies by analysis"
        ).inc(analysis=config.analysis)
        record_study()
        metrics.histogram(
            "gridmind_study_seconds", "End-to-end study wall time"
        ).observe(time.perf_counter() - start)

        return StudyResult(
            case_name=base.name,
            analysis=config.analysis,
            results=kept if kept is not None else [],
            runtime_s=time.perf_counter() - start,
            n_jobs=jobs,
            n_scenarios=n_done,
            worst_results=heap.worst(),
            n_progress_events=n_events,
            peak_resident_results=peak_resident,
            slice_spec=config.slice_spec() if config.slice_by else None,
            _aggregate=reducer.result(),
        )
