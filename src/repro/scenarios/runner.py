"""BatchStudyRunner: execute a scenario stream against one analysis engine.

Each scenario realises a fresh network copy and runs one of six
analyses: AC power flow, linear DC screening, DCOPF, ACOPF, two-stage
contingency screening, or preventive SCOPF.  Scenarios are independent,
so a study is cut into chunks and evaluated either in-process or on a
:class:`~repro.scenarios.executor.StudyExecutor` process pool — a shared
one injected by the service layer, or an ephemeral one the run owns when
``n_jobs > 1``.  Either way each chunk runs through one
:class:`_WorkerState`, which amortises the expensive shared state across
every scenario it processes:

* the compiled DC and AC kernels and PTDF/LODF sensitivity factors, keyed
  by an electrical-topology digest (load-only perturbations reuse one
  factorisation for the whole ensemble), and
* the composite-key contingency cache, so identical (content, outage)
  evaluations are never repeated within a worker.

Chunks, not scenarios, are the worker's unit of work: injection-only
chunks of the linear analyses route through the batched physics kernels
(:mod:`repro.powerflow.batch`) — one stacked multi-RHS solve per chunk,
bit-identical to the scalar loop — while mixed or topology-changing
chunks degrade gracefully to per-scenario evaluation.

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

import heapq
import logging
import os
import time
from collections import Counter
from contextlib import closing, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from ..instrumentation.accounting import record_chunk, record_study
from ..instrumentation.metrics import ITERATION_BUCKETS, get_metrics
from ..instrumentation.probes import record_fallbacks
from ..instrumentation.trace import get_tracer
from ..contingency.cache import ContingencyCache
from ..contingency.lodf import SensitivityFactors, compute_factors
from ..contingency.nminus1 import NMinus1Report, run_n_minus_1
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
    """Per-study analysis knobs, shipped once to each worker.

    ``slice_by``/``slice_max_values`` declare the study's dimensional
    aggregation (see :class:`~repro.scenarios.aggregate.SliceSpec`); the
    parent-side reducer consumes them.  They ride along here so one
    validated bundle carries the whole study definition, but the store's
    spec hash deliberately excludes them — slicing shapes the derived
    aggregate index, not the per-scenario results.
    """

    analysis: str = "powerflow"
    overload_threshold: float = 100.0
    vmin: float = 0.94
    vmax: float = 1.06
    ac_budget: int = 20
    top_n: int = 5
    slice_by: tuple[str, ...] = ()
    slice_max_values: int = DEFAULT_SLICE_MAX_VALUES
    #: Route injection-only chunks of the linear analyses ("dc",
    #: "screening") through the batched kernels.  Results are
    #: bit-identical either way (the ablation's point), so the store's
    #: spec hash excludes this knob exactly like the ``slice_*`` pair.
    batch_kernels: bool = True
    #: AC ensemble mode for ``analysis="powerflow"``: "warm" routes
    #: injection-only chunks through the topology-cached AC kernel
    #: (vectorized warm-start screen, fast-decoupled correctors,
    #: warm-started Newton polish); "cold" forces the exact legacy
    #: per-scenario solve.  Excluded from the store's spec hash like
    #: ``batch_kernels`` — the parity contract (identical converged
    #: flags and violation sets, aggregates within 1e-6) means toggling
    #: it must not mint a second store entry.
    ac_mode: str = "warm"
    #: Fast-decoupled corrector half-iteration sweeps the warm AC path
    #: runs before the Newton polish (0 disables the corrector tier).
    #: Sweeps are multi-RHS triangular solves — near-free next to a
    #: Jacobian build — so the default runs enough of them that the
    #: Newton polish usually reduces to a single mismatch check.
    ac_fd_sweeps: int = 8

    def slice_spec(self) -> SliceSpec:
        return SliceSpec(by=tuple(self.slice_by), max_values=self.slice_max_values)


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
        except ScenarioError as exc:
            results[i] = ScenarioResult(
                name=scenario.name, tags=dict(scenario.tags),
                converged=False, error=str(exc),
            )
        except Exception as exc:
            results[i] = ScenarioResult(
                name=scenario.name, tags=dict(scenario.tags),
                converged=False,
                error=f"{type(exc).__name__}: {exc}",
            )
    return results, live, values


class TopologyCache:
    """Objects built once per electrical topology, capped and cleared.

    Keyed on :func:`~repro.powerflow.batch.topology_digest`, which covers
    everything a factorization depends on but *not* loads — so a whole
    load-perturbation ensemble maps onto one entry.  Outage ensembles
    mint a new digest per scenario, so past ``cap`` entries the cache is
    simply dropped (reuse is an optimisation, not state).
    """

    def __init__(self, cap: int, build: Callable[[Network], object]) -> None:
        self.cap = cap
        self.build = build
        self._entries: dict[bytes, object] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, net: Network):
        key = topology_digest(net.compile())
        value = self._entries.get(key)
        if value is None:
            if len(self._entries) >= self.cap:
                self._entries.clear()
            value = self._entries[key] = self.build(net)
        return value


class _WorkerState:
    """One worker's long-lived state: base network plus reusable caches."""

    #: Entry cap for the per-worker contingency cache.  Load-perturbation
    #: ensembles give every scenario a distinct content hash, so the cache
    #: would otherwise grow without bound while never hitting; past the
    #: cap it is simply dropped (reuse is an optimisation, not state).
    CA_CACHE_MAX_ENTRIES = 20_000

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

    def kernel_for(self, net: Network) -> DcKernel:
        """Compiled :class:`DcKernel`: one factorization per topology."""
        return self.dc_kernels.get(net)

    def ac_kernel_for(self, net: Network) -> AcKernel:
        """Warm-start :class:`AcKernel`: one base solve and one B'/B''
        factorization pair per topology."""
        return self.ac_kernels.get(net)

    def factors_for(self, net: Network) -> SensitivityFactors:
        """PTDF/LODF factors through the same LU the kernel cache holds."""
        return self.factors.get(net)

    # ------------------------------------------------------------------
    def run_chunk(self, scenarios: list[Scenario]) -> list[ScenarioResult]:
        """Chunk-level entry point every execution path funnels through.

        Scenarios are grouped by whether they keep the base electrical
        topology: for the linear analyses, the injection-only group maps
        onto one topology digest (the base's) and is solved through the
        batched kernels in one multi-RHS pass (bit-identical to the
        scalar path); for ``analysis="powerflow"`` with ``ac_mode="warm"``
        the injection-only group routes through the warm-start AC kernel
        and the pure branch-outage group through the same kernel's
        compensated outage solve (parity contract, not bit-identity —
        the iterates are path-dependent).  Other topology changers, rows
        a fast path hands back, and every scenario of the other nonlinear
        analyses take the scalar per-scenario loop.  Chunk results come
        back in submission order either way.
        """
        cfg = self.config
        groups: list[tuple[list[int], Callable]] = []
        if (
            cfg.batch_kernels
            and cfg.analysis in ("dc", "screening")
            and len(scenarios) >= 2
        ):
            batch_idx = [i for i, s in enumerate(scenarios) if s.injection_only]
            if len(batch_idx) >= 2:
                groups.append((batch_idx, self._run_chunk_batched))
        elif cfg.analysis == "powerflow" and cfg.ac_mode == "warm":
            # The warm paths solve rows independently (the screen, the
            # multi-RHS sweeps, and the Newton polish never mix rows), so
            # they engage even for singleton groups: a scenario's iterate
            # path then depends only on the base case and its own
            # injection or outage set, never on chunking — which is what
            # keeps serial, pooled, and executor dispatch producing
            # identical records.
            groups.append(
                ([i for i, s in enumerate(scenarios) if s.injection_only],
                 self._run_chunk_ac)
            )
            groups.append(
                ([i for i, s in enumerate(scenarios) if _branch_outages(s)],
                 self._run_chunk_outages)
            )
        out: list[ScenarioResult | None] = [None] * len(scenarios)
        for idx, solve_group in groups:
            if idx:
                solved = solve_group([scenarios[i] for i in idx])
                for i, r in zip(idx, solved or ()):
                    out[i] = r
        return [
            r if r is not None else self.run_scenario(s)
            for s, r in zip(scenarios, out)
        ]

    def _base_kernel(self, build: Callable, span, path: str, n_rows: int):
        """``build(base)`` for a group solve, or ``None`` after counting
        why the whole group takes the scalar loop instead.

        A disconnected base needs each realized network for the scalar
        path's per-scenario stranded-MW message; an unconverged base has
        no voltage to warm-start from; a build error is a kernel bug and
        is logged with its traceback.
        """
        reason = None
        kernel = None
        if not gridgraph.is_connected(self.base):
            reason = "disconnected-base"
        else:
            try:
                kernel = build(self.base)
                if isinstance(kernel, AcKernel) and not kernel.usable:
                    reason = "base-diverged"
            except Exception:
                log.exception(
                    "%s kernel build failed; %d rows take the scalar loop",
                    path, n_rows,
                )
                reason = "build-error"
        if reason is not None:
            record_fallbacks(span, path, {reason: n_rows})
            return None
        return kernel

    def _run_chunk_batched(
        self, scenarios: list[Scenario]
    ) -> list[ScenarioResult] | None:
        """Evaluate an injection-only group through the batched kernels.

        Returns ``None`` to signal "degrade to the scalar loop" when the
        base kernel is unavailable (see :meth:`_base_kernel`).
        Per-scenario perturbation errors do *not* sink the group: the
        offending scenario gets the same error record the scalar path
        would produce and the rest still batch.
        """
        cfg = self.config
        base = self.base
        metrics = get_metrics()
        with get_tracer().span(
            "chunk.batch", analysis=cfg.analysis, n_scenarios=len(scenarios)
        ) as span:
            kernel = self._base_kernel(self.kernel_for, span, "batch", len(scenarios))
            if kernel is None:
                return None
            tick = time.perf_counter()
            results, live, vectors = _replay(
                scenarios, lambda s: s.injection_vector(base)
            )
            if live:
                p_inj = np.vstack(vectors)
                if cfg.analysis == "dc":
                    batch = kernel.solve_many(p_inj)
                    per_scn = (time.perf_counter() - tick) / len(live)
                    for j, i in enumerate(live):
                        results[i] = self._dc_result(
                            scenarios[i], kernel.arr, batch.loading_percent[j]
                        )
                        results[i].solve_time_s = per_scn
                else:  # screening: batch the DC estimate, AC-verify per scenario
                    factors = self.factors_for(base)
                    estimates = screen_dc_many(kernel, factors, p_inj)
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

        # Screening rows already went through run_scenario; the dc rows
        # (and error records) have not.
        if cfg.analysis == "dc":
            self._bill(results)
        return results  # type: ignore[return-value]

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

    def _run_chunk_ac(
        self, scenarios: list[Scenario]
    ) -> list[ScenarioResult | None] | None:
        """Evaluate an injection-only AC group through the warm kernel.

        Returns ``None`` to signal "degrade the whole group to the scalar
        loop" when the base kernel is unavailable (see
        :meth:`_base_kernel`).  Individual rows degrade too: a
        perturbation error gets the same error record the scalar path
        would produce, and a row whose warm Newton polish fails comes
        back as ``None`` so the caller reruns it through the exact cold
        ladder (``solve_newton`` then ``solve_with_recovery``), making
        error records byte-identical on both paths.
        """
        cfg = self.config
        base = self.base
        metrics = get_metrics()
        with get_tracer().span(
            "chunk.ac_batch", analysis=cfg.analysis, n_scenarios=len(scenarios)
        ) as span:
            kernel = self._base_kernel(self.ac_kernel_for, span, "ac", len(scenarios))
            if kernel is None:
                return None
            tick = time.perf_counter()
            results, live, injections = _replay(scenarios, lambda s: s.ac_injection(base))
            if live:
                sol = kernel.solve_chunk(
                    np.vstack([sbus for sbus, _pd, _qd in injections]),
                    fd_sweeps=cfg.ac_fd_sweeps,
                )
                per_scn = (time.perf_counter() - tick) / len(live)
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
                        continue  # leave None: caller runs the cold ladder
                    _sbus, pd, qd = injections[j]
                    res = kernel.finalize_row(
                        sol.v[j], pd, qd,
                        converged=True,
                        iterations=int(sol.iterations[j]),
                        norm=float(sol.norms[j]),
                    )
                    results[i] = self._pf_record(scenarios[i], res)
                    results[i].solve_time_s = per_scn
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
                record_fallbacks(span, "ac", {"polish-diverged": stalled})

        self._bill(results)
        return results

    def _run_chunk_outages(
        self, scenarios: list[Scenario]
    ) -> list[ScenarioResult | None] | None:
        """Evaluate a branch-outage AC group through the base kernel.

        Every row is a set of outaged base branches at base injections,
        solved stacked by :meth:`AcKernel.solve_outages` (compensated
        warm fast-decoupled sweeps, no Ybus rebuild or refactorization).
        Rows it hands back (islanded, stalled) come back ``None`` and the
        caller runs them through :meth:`run_scenario`, so their records
        are the scalar records byte for byte; so do rows naming a branch
        the base does not have in service.  Returns ``None`` when the
        base kernel is unavailable (see :meth:`_base_kernel`).
        """
        cfg = self.config
        metrics = get_metrics()
        results: list[ScenarioResult | None] = [None] * len(scenarios)
        with get_tracer().span(
            "chunk.ac_batch", analysis=cfg.analysis, n_scenarios=len(scenarios)
        ) as span:
            kernel = self._base_kernel(
                self.ac_kernel_for, span, "outage", len(scenarios)
            )
            if kernel is None:
                return None
            tick = time.perf_counter()
            in_service = set(kernel.arr.branch_ids.tolist())
            sets = [_branch_outages(s) for s in scenarios]
            live = [i for i, ids in enumerate(sets) if ids <= in_service]
            if live:
                sol = kernel.solve_outages([sets[i] for i in live])
                per_scn = (time.perf_counter() - tick) / len(live)
                for i, row in zip(live, sol.rows):
                    if row is not None:
                        results[i] = self._pf_record(scenarios[i], row)
                        results[i].solve_time_s = per_scn
                solved = sum(r is not None for r in results)
                if solved:
                    metrics.counter(
                        "gridmind_ac_outage_solves_total",
                        "Branch-outage rows solved through the compensated AC kernel",
                    ).inc(solved, path="study")
                record_fallbacks(
                    span, "outage", Counter(r for r in sol.reasons if r is not None)
                )

        self._bill(results)
        return results

    def _bill(self, results: Iterable[ScenarioResult | None]) -> None:
        """Metric parity with the scalar loop: count each record once.

        Every path bills the records it produced; ``None`` rows are
        handed back to :meth:`run_scenario`, which bills them itself.
        """
        counter = get_metrics().counter(
            "gridmind_scenarios_total", "Scenario evaluations by outcome"
        )
        for r in results:
            if r is not None:
                counter.inc(analysis=self.config.analysis, converged=r.converged)

    # ------------------------------------------------------------------
    def run_scenario(self, scenario: Scenario, **hints) -> ScenarioResult:
        with get_tracer().span("scenario.run", scenario=scenario.name) as span:
            result = self._run_scenario(scenario, **hints)
            span.tags["converged"] = result.converged
            if result.error:
                span.status = "error"
                span.error = result.error
        self._bill((result,))
        return result

    def _run_scenario(self, scenario: Scenario, **hints) -> ScenarioResult:
        tick = time.perf_counter()
        try:
            net = scenario.realize(self.base)
            if not gridgraph.is_connected(net):
                # Outage combinations can island the system (N-2 over a
                # bridge); no solver can run, but the study must record
                # the scenario rather than die on a singular matrix.
                result = ScenarioResult(
                    name=scenario.name, tags=dict(scenario.tags),
                    converged=False,
                    error=(
                        "scenario islands the network "
                        f"({gridgraph.stranded_load_mw(net, frozenset()):.1f} MW stranded)"
                    ),
                )
            else:
                runner = getattr(self, f"_run_{self.config.analysis}")
                result = runner(net, scenario, **hints)
        except ScenarioError as exc:
            result = ScenarioResult(
                name=scenario.name, tags=dict(scenario.tags),
                converged=False, error=str(exc),
            )
        except Exception as exc:  # solver edge cases must not kill the batch
            result = ScenarioResult(
                name=scenario.name, tags=dict(scenario.tags),
                converged=False,
                error=f"{type(exc).__name__}: {exc}",
            )
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
            return ScenarioResult(
                name=scenario.name, tags=dict(scenario.tags),
                converged=False, error=res.message or "power flow diverged",
            )
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
            return ScenarioResult(
                name=scenario.name, tags=dict(scenario.tags),
                converged=False, error=res.message or "OPF did not converge",
            )
        return self._reduce_opf(scenario, res)

    def _run_dc(self, net: Network, scenario: Scenario) -> ScenarioResult:
        """Linear DC screening solve — the scalar side of the batched
        kernels' fast path (chunks of injection-only scenarios route
        through :meth:`run_chunk` / ``solve_many`` instead)."""
        from ..powerflow.dc import solve_dc

        kernel = self.kernel_for(net)
        res = solve_dc(net, kernel=kernel)
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
            return ScenarioResult(
                name=scenario.name, tags=dict(scenario.tags),
                converged=False,
                error=res.opf.message or "SCOPF master did not converge",
            )
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
            return ScenarioResult(
                name=scenario.name, tags=dict(scenario.tags),
                converged=False,
                error=base.message or "base power flow diverged",
            )

        if estimate is None:
            # ``estimate`` arrives precomputed from the chunk fast path
            # (one stacked solve + LODF product for the whole group);
            # the scalar path computes the identical estimate here.
            factors = self.factors_for(net)
            estimate = screen_dc(net, factors=factors)
        candidates = sorted(
            set(estimate.top(cfg.ac_budget))
            | set(int(b) for b in estimate.islanding)
        )

        # One content hash for the whole sweep (lookup + put), then AC
        # verification only for the outages this worker has not seen.
        cached, missing = self.ca_cache.lookup_sweep(net, candidates)
        fresh = []
        if missing:
            fresh = run_n_minus_1(
                net,
                branch_ids=missing,
                base_result=base,
                vmin=cfg.vmin,
                vmax=cfg.vmax,
                overload_threshold=cfg.overload_threshold,
            ).outcomes
            if self.ca_cache.size >= self.CA_CACHE_MAX_ENTRIES:
                self.ca_cache.clear()
            self.ca_cache.put_many(net, fresh)
        outcomes = sorted([*cached.values(), *fresh], key=lambda o: o.branch_id)

        report = NMinus1Report(
            case_name=net.name, base=base, outcomes=outcomes,
            runtime_s=0.0, vmin=cfg.vmin, vmax=cfg.vmax,
        )
        ranked = rank_critical_elements(report, top_n=cfg.top_n)

        post_overloads = sorted(
            {int(b) for o in outcomes if o.converged for b, _pct in o.overloads}
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
    """Execute scenario streams in-process or on a process pool.

    Pooled chunks always go through a
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

    analysis: str = "powerflow"
    n_jobs: int = 1
    chunk_size: int | None = None
    overload_threshold: float = 100.0
    vmin: float = 0.94
    vmax: float = 1.06
    ac_budget: int = 20
    top_n: int = 5
    executor: StudyExecutor | None = None  # shared pool (service layer)
    window: int | None = None  # max in-flight chunks (pooled studies)
    worst_k: int = DEFAULT_WORST_K
    #: Tag dimensions for sliced aggregation: a tuple of tag names, or a
    #: comma-separated string of names/aliases ("hour, zone") which is
    #: parsed through :func:`~repro.scenarios.generators.resolve_slice_by`.
    slice_by: tuple[str, ...] | str = ()
    slice_max_values: int = DEFAULT_SLICE_MAX_VALUES
    #: Batched-kernel fast path for injection-only chunks of the linear
    #: analyses; off forces the scalar loop (the ablation baseline).
    batch_kernels: bool = True
    #: Warm AC fast path for injection-only ``powerflow`` chunks
    #: ("warm", the default) vs the exact legacy per-scenario solve
    #: ("cold", the ablation baseline).
    ac_mode: str = "warm"
    #: Fast-decoupled corrector sweeps before the warm Newton polish.
    ac_fd_sweeps: int = 8

    def config(self) -> StudyConfig:
        """The validated per-study knob bundle shipped to every worker."""
        if self.analysis not in ANALYSES:
            raise ValueError(
                f"unknown analysis {self.analysis!r}; use one of {ANALYSES}"
            )
        if self.ac_mode not in ("warm", "cold"):
            raise ValueError(
                f"unknown ac_mode {self.ac_mode!r}; use 'warm' or 'cold'"
            )
        slice_by = self.slice_by
        if isinstance(slice_by, str):
            from .generators import resolve_slice_by

            slice_by = resolve_slice_by(slice_by)
        config = StudyConfig(
            analysis=self.analysis,
            overload_threshold=self.overload_threshold,
            vmin=self.vmin,
            vmax=self.vmax,
            ac_budget=self.ac_budget,
            top_n=self.top_n,
            slice_by=tuple(slice_by),
            slice_max_values=self.slice_max_values,
            batch_kernels=self.batch_kernels,
            ac_mode=self.ac_mode,
            ac_fd_sweeps=self.ac_fd_sweeps,
        )
        config.slice_spec()  # validate dimensions/cap before dispatch
        return config

    # ------------------------------------------------------------------
    def _serial_chunks(
        self, base: Network, config: StudyConfig, scenarios, chunk: int
    ) -> Iterator[ChunkOutcome]:
        # Generator bodies run in the *caller's* context, so these live
        # ``worker.chunk`` spans parent under whatever span the fold loop
        # holds open when it draws the next chunk — same tree shape as
        # the pooled path, without serialising anything.
        tracer = get_tracer()
        state = _WorkerState(base.copy(), config)
        for chunk_scns in iter_chunks(scenarios, chunk):
            tick = time.perf_counter()
            with tracer.span("worker.chunk", n_scenarios=len(chunk_scns)):
                results = state.run_chunk(chunk_scns)
            yield ChunkOutcome(
                results=results,
                worker_pid=os.getpid(),
                wall_s=time.perf_counter() - tick,
            )

    # ------------------------------------------------------------------
    def run(
        self,
        base: Network,
        scenarios: Iterable[Scenario],
        *,
        progress: Callable[[StudyProgress], None] | None = None,
        keep_results: bool = True,
    ) -> StudyResult:
        config = self.config()
        tracer = get_tracer()
        metrics = get_metrics()
        start = time.perf_counter()
        # One-shot iterators are materialised up front (lists and
        # ScenarioStreams pass through lazily): the stream is re-read
        # after execution by store persistence (spec hashing), and a
        # consumed generator would silently hash as an empty study.
        scenarios = as_stream(scenarios)
        total = stream_length(scenarios)

        executor = owned = None
        if total is None or total >= 2:
            if self.executor is not None:
                executor = self.executor
            elif self.n_jobs > 1:
                executor = owned = StudyExecutor(
                    max_workers=self.n_jobs if total is None else min(self.n_jobs, total)
                )
        if executor is not None:
            jobs = executor.max_workers
            dispatch_name = "executor.dispatch"
            chunk, window = executor.dispatch_plan(
                total, chunk_size=self.chunk_size, window=self.window
            )
            # The residency bound below accounts for undrained futures.
            in_flight_extra = (window - 1) * chunk
            chunk_iter = executor.run_study_chunks(
                base, config, scenarios,
                chunk_size=self.chunk_size, window=self.window,
            )
        else:
            jobs = 1
            dispatch_name = "serial.dispatch"
            chunk = self.chunk_size or default_chunk_size(total, 1)
            in_flight_extra = 0
            chunk_iter = self._serial_chunks(base, config, scenarios, chunk)

        # The dimensional reducer degenerates to the plain global one for
        # an empty slice spec, so every study takes the same path.
        reducer = SlicedReducer(config.slice_spec())
        heap = _WorstK(self.worst_k)
        kept: list[ScenarioResult] | None = [] if keep_results else None
        n_done = 0
        n_chunks = 0
        n_events = 0
        peak_resident = 0

        # The dispatch span is held open by *this* consumer loop: chunk
        # iterators are generators, so every submission they make while
        # being drained captures this span as the remote parent — which
        # is how worker-chunk spans end up parented under it.  On any exit
        # the chunk iterator closes first (cancelling queued chunks), then
        # an executor this run owns shuts down with its workers.
        with tracer.span("study.run", analysis=self.analysis, case=base.name) as root:
            with (
                tracer.span(dispatch_name, n_jobs=jobs),
                owned or nullcontext(),
                closing(chunk_iter),
            ):
                for outcome in chunk_iter:
                    chunk_results = outcome.results
                    n_done += len(chunk_results)
                    n_chunks += 1
                    tracer.adopt(outcome.spans)
                    metrics.merge_state(outcome.metrics)
                    # Worker-side chunk wall: the latency signal the
                    # chunk_wall_p95 health rule watches, and the
                    # executor occupancy billed to the session.
                    metrics.histogram(
                        "gridmind_chunk_wall_seconds",
                        "Worker-side study chunk wall time",
                    ).observe(outcome.wall_s)
                    record_chunk(len(chunk_results), outcome.wall_s)
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
        ).inc(analysis=self.analysis)
        record_study()
        metrics.histogram(
            "gridmind_study_seconds", "End-to-end study wall time"
        ).observe(time.perf_counter() - start)

        return StudyResult(
            case_name=base.name,
            analysis=self.analysis,
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
