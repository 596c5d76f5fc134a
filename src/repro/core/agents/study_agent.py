"""The study agent: batch scenario analysis through function tools.

Where the ACOPF and CA agents answer questions about *one* operating
point, the study agent answers questions about *families* of them:
"sweep load 80–120 %", "run a 200-draw Monte Carlo load study", "which
contingencies stay critical across the day".  Each tool expands a
compact description into scenarios via :mod:`repro.scenarios.generators`,
executes them with the :class:`~repro.scenarios.runner.BatchStudyRunner`
(process-parallel when asked), and deposits the aggregated summary into
the shared context for follow-up questions and narration.

Service-layer wiring (both optional, both duck-typed so this module
never imports :mod:`repro.service`):

* ``executor`` — a shared :class:`~repro.scenarios.executor.StudyExecutor`;
  when present every study runs on the long-lived shared pool instead of
  a per-run one,
* ``store`` — a :class:`~repro.service.store.ResultStore`; when present
  every study's full result set is persisted under its content-hash key
  and two extra tools appear: ``compare_studies`` (diff two stored
  studies, defaulting to the most recent pair) and
  ``list_stored_studies`` — so any session, including a fresh one, can
  answer "compare today's sweep with yesterday's".
"""

from __future__ import annotations

import time

from pydantic import BaseModel, Field

from ...llm.base import LLMBackend
from ...scenarios import (
    BatchStudyRunner,
    StudyConfig,
    daily_profile,
    load_sweep,
    monte_carlo_ensemble,
    outage_combinations,
    resolve_slice_by,
    uniform_correlation,
)
from ..context import AgentContext
from ..tools import ToolError, ToolRegistry
from .base import Agent

STUDY_SYSTEM_PROMPT = """\
You are an expert power-system study agent for batch operating-point
analysis.  Your capabilities include load sweeps, Monte Carlo load
ensembles, N-2 outage combination studies, and daily load-profile
studies over the standard IEEE test cases, each evaluated with power
flow, batched linear DC screening, DCOPF, ACOPF, two-stage contingency
screening, or preventive SCOPF (secured cost distributions).  Large
ensembles stream through an
online reducer with incremental progress, so scale is not a reason to
refuse.  Studies can be *sliced* by scenario tags (hour of day, sweep
scale, hot zone) so answers break down per factor, and Monte Carlo
ensembles support zonal load correlation.  Report ensemble statistics
(violation frequencies, cost percentiles, per-slice tables,
critical-ranking stability), never single-scenario anecdotes, and never
fabricate numbers; every figure must come from structured study
results.  You can also watch a simulated live telemetry feed, folding
device frames into rolling-window studies with anomaly alerts."""

_SLICE_BY_DESCRIPTION = (
    "comma-separated tag dimensions to slice aggregates by ('hour', "
    "'scale', 'zone' ...); empty infers the family's natural dimension, "
    "'none' disables slicing"
)


class LoadSweepArgs(BaseModel):
    case_name: str = Field(description="IEEE case identifier, e.g. 'ieee118'")
    lo_percent: float = Field(default=80.0, gt=0.0, description="low end, % of base load")
    hi_percent: float = Field(default=120.0, gt=0.0, description="high end, % of base load")
    steps: int = Field(default=9, ge=2, le=201)
    analysis: str = Field(default="acopf")
    n_jobs: int = Field(default=1, ge=1, le=64)
    slice_by: str = Field(default="", description=_SLICE_BY_DESCRIPTION)


class MonteCarloArgs(BaseModel):
    case_name: str = Field(description="IEEE case identifier, e.g. 'ieee118'")
    n_scenarios: int = Field(default=200, ge=1, le=20_000)
    sigma_percent: float = Field(default=5.0, ge=0.0, le=100.0)
    seed: int = Field(default=0, ge=0)
    analysis: str = Field(default="powerflow")
    n_jobs: int = Field(default=1, ge=1, le=64)
    slice_by: str = Field(default="", description=_SLICE_BY_DESCRIPTION)
    n_zones: int = Field(
        default=0,
        ge=0,
        le=32,
        description="zonal correlated draws: partition buses into this many "
        "zones (0 = independent per-load noise)",
    )
    rho_percent: float = Field(
        default=0.0,
        ge=-100.0,
        le=100.0,
        description="inter-zone load correlation, % (used when n_zones >= 2)",
    )


class OutageStudyArgs(BaseModel):
    case_name: str = Field(description="IEEE case identifier, e.g. 'ieee118'")
    depth: int = Field(default=2, ge=1, le=3, description="outages per scenario (N-k)")
    limit: int = Field(default=50, ge=1, le=5000, description="max combinations")
    analysis: str = Field(default="powerflow")
    n_jobs: int = Field(default=1, ge=1, le=64)
    slice_by: str = Field(default="", description=_SLICE_BY_DESCRIPTION)


class CompareStudiesArgs(BaseModel):
    study_a: str = Field(
        default="",
        description="key/label of the earlier study (default: second-newest stored)",
    )
    study_b: str = Field(
        default="",
        description="key/label of the later study (default: newest stored)",
    )


class WatchTelemetryArgs(BaseModel):
    case_name: str = Field(description="IEEE case identifier, e.g. 'ieee14'")
    n_devices: int = Field(
        default=200, ge=1, le=2_000_000,
        description="simulated meters/DERs attached to the case's buses",
    )
    n_windows: int = Field(
        default=6, ge=1, le=1000, description="tumbling windows to stream"
    )
    window_ticks: int = Field(default=4, ge=1, le=288)
    anomaly_tick: int = Field(
        default=-1, ge=-1,
        description="inject a load-spike anomaly at this tick (-1 = clean feed)",
    )
    analysis: str = Field(default="powerflow")
    seed: int = Field(default=0, ge=0)


class ProfileStudyArgs(BaseModel):
    case_name: str = Field(description="IEEE case identifier, e.g. 'ieee118'")
    steps: int = Field(default=24, ge=1, le=288)
    trough_percent: float = Field(default=65.0, gt=0.0)
    peak_percent: float = Field(default=100.0, gt=0.0)
    analysis: str = Field(default="powerflow")
    n_jobs: int = Field(default=1, ge=1, le=64)
    slice_by: str = Field(default="", description=_SLICE_BY_DESCRIPTION)


def _study_config(**knobs) -> StudyConfig:
    """The tool call's :class:`StudyConfig`; invalid knobs are tool errors."""
    try:
        return StudyConfig(**knobs)
    except ValueError as exc:
        raise ToolError(str(exc)) from exc


def build_study_registry(
    context: AgentContext, *, executor=None, store=None
) -> ToolRegistry:
    """Register the study agent's function tools over the shared context.

    ``executor``/``store`` are the optional service-layer collaborators
    (shared study pool, persistent result store) described in the module
    docstring; with ``store`` unset the comparison tools report that no
    store is configured instead of disappearing, so tool discovery stays
    stable across deployments.
    """
    registry = ToolRegistry()
    if store is None:
        store = context.result_store

    def _execute(
        case_name: str,
        scenarios,
        analysis: str,
        n_jobs: int,
        kind: str,
        slice_by: str = "",
        n_zones: int = 0,
    ) -> dict:
        # "" infers the family's natural slice dimension ('hour' for
        # profiles, 'scale' for sweeps, 'hot_zone' for zonal draws),
        # "none" disables slicing, and anything else names dimensions.
        config = _study_config(
            analysis=analysis,
            slice_by=resolve_slice_by(slice_by or None, kind, n_zones=n_zones),
        )
        t0 = time.perf_counter()
        net = context.activate_case(case_name)
        runner = BatchStudyRunner(config, n_jobs=n_jobs, executor=executor)
        # Results stream through the online reducer chunk by chunk; the
        # full record list is retained only when a store will persist it.
        # The no-op callback turns on per-chunk progress accounting, so
        # the payload (and narration) report the streaming checkpoints.
        study = runner.run(
            net, scenarios, progress=lambda _p: None, keep_results=store is not None
        )
        payload = study.to_dict(max_scenarios=5)
        payload["study_kind"] = kind
        if config.slice_by:
            payload["slice_by"] = list(config.slice_by)
        if store is not None:
            payload["study_key"] = store.put(
                net, config, scenarios, study, study_kind=kind
            )
        context.study_summary = payload
        context.record_provenance(
            f"run_{kind}_study",
            solver=analysis,
            ok=True,
            duration_s=time.perf_counter() - t0,
            n_scenarios=study.n_scenarios,
            n_jobs=study.n_jobs,
        )
        return payload

    def _require_store():
        if store is None:
            raise ToolError(
                "no result store is configured for this session; start it "
                "through GridMindService (or pass result_store=) to persist "
                "and compare studies"
            )
        return store

    def run_load_sweep_study(
        case_name: str,
        lo_percent: float = 80.0,
        hi_percent: float = 120.0,
        steps: int = 9,
        analysis: str = "acopf",
        n_jobs: int = 1,
        slice_by: str = "",
    ) -> dict:
        if hi_percent < lo_percent:
            raise ToolError(
                f"sweep range is inverted: {lo_percent}% .. {hi_percent}%"
            )
        scenarios = load_sweep(lo_percent / 100.0, hi_percent / 100.0, steps)
        return _execute(case_name, scenarios, analysis, n_jobs, "load_sweep", slice_by)

    def run_monte_carlo_study(
        case_name: str,
        n_scenarios: int = 200,
        sigma_percent: float = 5.0,
        seed: int = 0,
        analysis: str = "powerflow",
        n_jobs: int = 1,
        slice_by: str = "",
        n_zones: int = 0,
        rho_percent: float = 0.0,
    ) -> dict:
        correlation = None
        if n_zones >= 2:
            net = context.activate_case(case_name)
            if n_zones > net.n_bus:
                raise ToolError(
                    f"n_zones={n_zones} exceeds {case_name}'s {net.n_bus} "
                    "buses; every zone must contain at least one bus"
                )
            rho = rho_percent / 100.0
            if rho < -1.0 / (n_zones - 1):
                raise ToolError(
                    f"rho {rho:g} is infeasible for {n_zones} zones (the "
                    f"equicorrelation matrix needs rho >= {-1.0 / (n_zones - 1):.3f})"
                )
            correlation = uniform_correlation(n_zones, rho)
        elif "zone" in slice_by:
            raise ToolError(
                "slicing by hot_zone requires zonal correlated draws: set "
                "n_zones >= 2 (e.g. n_zones=4, rho_percent=60) so each "
                "scenario is tagged with the zone driving its stress"
            )
        scenarios = monte_carlo_ensemble(
            n=n_scenarios,
            sigma=sigma_percent / 100.0,
            seed=seed,
            correlation=correlation,
        )
        return _execute(
            case_name, scenarios, analysis, n_jobs, "monte_carlo", slice_by, n_zones
        )

    def run_outage_study(
        case_name: str,
        depth: int = 2,
        limit: int = 50,
        analysis: str = "powerflow",
        n_jobs: int = 1,
        slice_by: str = "",
    ) -> dict:
        # activate_case is idempotent, so _execute's repeat call is free.
        net = context.activate_case(case_name)
        scenarios = outage_combinations(net, depth=depth, limit=limit)
        payload = _execute(case_name, scenarios, analysis, n_jobs, "outage", slice_by)
        payload["outage_depth"] = depth
        return payload

    def run_daily_profile_study(
        case_name: str,
        steps: int = 24,
        trough_percent: float = 65.0,
        peak_percent: float = 100.0,
        analysis: str = "powerflow",
        n_jobs: int = 1,
        slice_by: str = "",
    ) -> dict:
        if peak_percent < trough_percent:
            raise ToolError(
                f"profile band is inverted: {trough_percent}% .. {peak_percent}%"
            )
        scenarios = daily_profile(
            steps=steps, trough=trough_percent / 100.0, peak=peak_percent / 100.0
        )
        return _execute(
            case_name, scenarios, analysis, n_jobs, "daily_profile", slice_by
        )

    def watch_telemetry(
        case_name: str,
        n_devices: int = 200,
        n_windows: int = 6,
        window_ticks: int = 4,
        anomaly_tick: int = -1,
        analysis: str = "powerflow",
        seed: int = 0,
    ) -> dict:
        # Imported lazily: the telemetry layer is optional for agents that
        # never watch a feed, mirroring the service's lazy wiring.
        from ...telemetry import AnomalySpec, run_watch

        _study_config(analysis=analysis)  # validate before the watch starts
        t0 = time.perf_counter()
        net = context.activate_case(case_name)
        anomaly = None
        if anomaly_tick >= 0:
            anomaly = AnomalySpec(start_tick=anomaly_tick, duration_ticks=2)
        payload = run_watch(
            net,
            n_devices=n_devices,
            n_ticks=n_windows * window_ticks,
            window_ticks=window_ticks,
            seed=seed,
            anomaly=anomaly,
            analysis=analysis,
            executor=executor,
        )
        context.study_summary = payload
        context.record_provenance(
            "watch_telemetry",
            solver=analysis,
            ok=True,
            duration_s=time.perf_counter() - t0,
            n_scenarios=payload["n_ticks"],
            n_jobs=executor.max_workers if executor is not None else 1,
        )
        return payload

    def get_study_status() -> dict:
        summary = context.latest_study_summary()
        if summary is None:
            return {
                "case_name": context.case_name or None,
                "study": None,
                "message": "no study has been run in this session",
            }
        return {
            "case_name": context.case_name or summary.get("case_name"),
            "study": summary,
        }

    def compare_studies(study_a: str = "", study_b: str = "") -> dict:
        t0 = time.perf_counter()
        resolved = _require_store()
        try:
            payload = resolved.compare(study_a or None, study_b or None)
        except KeyError as exc:
            raise ToolError(exc.args[0] if exc.args else str(exc)) from exc
        context.record_provenance(
            "compare_studies",
            ok=True,
            duration_s=time.perf_counter() - t0,
            study_a=payload["a"].get("key"),
            study_b=payload["b"].get("key"),
        )
        return payload

    def list_stored_studies() -> dict:
        resolved = _require_store()
        entries = resolved.list_studies()
        return {
            "n_studies": len(entries),
            # Newest first: the likelier comparison targets lead.
            "studies": [m.to_dict() for m in reversed(entries[-10:])],
        }

    registry.register(
        "run_load_sweep_study",
        "Sweep uniform load scaling across a range and analyse every point.",
        run_load_sweep_study,
        LoadSweepArgs,
    )
    registry.register(
        "run_monte_carlo_study",
        "Run a Monte Carlo load ensemble (Gaussian per-load draws) study.",
        run_monte_carlo_study,
        MonteCarloArgs,
    )
    registry.register(
        "run_outage_study",
        "Evaluate N-k branch outage combinations as a batch study.",
        run_outage_study,
        OutageStudyArgs,
    )
    registry.register(
        "run_daily_profile_study",
        "Step through a daily load profile and analyse every time point.",
        run_daily_profile_study,
        ProfileStudyArgs,
    )
    registry.register(
        "watch_telemetry",
        "Stream a simulated telemetry fleet through rolling-window studies "
        "and report per-window aggregates, anomalies, and alerts.",
        watch_telemetry,
        WatchTelemetryArgs,
    )
    registry.register(
        "get_study_status",
        "Summarise the most recent batch study (this session or the store).",
        get_study_status,
    )
    registry.register(
        "compare_studies",
        "Diff two persisted studies' ensemble aggregates (default: the "
        "two most recent in the result store).",
        compare_studies,
        CompareStudiesArgs,
    )
    registry.register(
        "list_stored_studies",
        "List studies persisted in the cross-session result store.",
        list_stored_studies,
    )
    return registry


def make_study_agent(
    backend: LLMBackend, context: AgentContext, *, executor=None, store=None
) -> Agent:
    """Assemble the study agent over a backend and shared context."""
    return Agent(
        name="study",
        system_prompt=STUDY_SYSTEM_PROMPT,
        backend=backend,
        registry=build_study_registry(context, executor=executor, store=store),
        context=context,
    )
