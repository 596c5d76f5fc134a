"""The study agent: batch scenario analysis through function tools.

Where the ACOPF and CA agents answer questions about *one* operating
point, the study agent answers questions about *families* of them:
"sweep load 80–120 %", "run a 200-draw Monte Carlo load study", "which
contingencies stay critical across the day".  Each family tool maps its
argument schema onto one :class:`~repro.scenarios.request.StudyRequest`
and runs it through :func:`~repro.scenarios.request.run_study_request`,
the step the service and the ``gridmind study`` CLI run too, so the same
parameters give the same scenarios, store key and aggregate from every
front end; the watch tool likewise builds a
:class:`~repro.telemetry.watch.WatchRequest` for
:func:`~repro.telemetry.watch.run_watch`.  Whatever the request or its
expansion rejects comes back as a tool error.  The aggregated summary
lands in the shared context for follow-up questions and narration.

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
from ...scenarios import StudyRequest, run_study_request
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

    def _execute(tool: str, n_jobs: int, **fields) -> dict:
        # One study request per tool call; every invalid knob the request
        # or its expansion rejects comes back as a tool error.
        t0 = time.perf_counter()
        try:
            request = StudyRequest(**fields)
            net = context.activate_case(request.case_name)
            study, payload = run_study_request(
                request, net, executor=executor, n_jobs=n_jobs, store=store
            )
        except ValueError as exc:
            raise ToolError(str(exc)) from exc
        context.study_summary = payload
        context.record_provenance(
            tool,
            solver=request.analysis,
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
        return _execute(
            "run_load_sweep_study", n_jobs, case_name=case_name, kind="sweep",
            lo_percent=lo_percent, hi_percent=hi_percent, n_scenarios=steps,
            analysis=analysis, slice_by=slice_by,
        )

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
        return _execute(
            "run_monte_carlo_study", n_jobs, case_name=case_name,
            kind="monte_carlo", n_scenarios=n_scenarios,
            sigma_percent=sigma_percent, seed=seed, analysis=analysis,
            slice_by=slice_by, n_zones=n_zones, rho_percent=rho_percent,
        )

    def run_outage_study(
        case_name: str,
        depth: int = 2,
        limit: int = 50,
        analysis: str = "powerflow",
        n_jobs: int = 1,
        slice_by: str = "",
    ) -> dict:
        payload = _execute(
            "run_outage_study", n_jobs, case_name=case_name, kind="outage",
            depth=depth, n_scenarios=limit, analysis=analysis, slice_by=slice_by,
        )
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
        return _execute(
            "run_daily_profile_study", n_jobs, case_name=case_name,
            kind="profile", n_scenarios=steps, lo_percent=trough_percent,
            hi_percent=peak_percent, analysis=analysis, slice_by=slice_by,
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
        from ...telemetry import WatchRequest, run_watch

        t0 = time.perf_counter()
        try:
            request = WatchRequest(
                case_name=case_name,
                n_devices=n_devices,
                n_ticks=n_windows * window_ticks,
                window_ticks=window_ticks,
                anomaly_tick=anomaly_tick if anomaly_tick >= 0 else None,
                analysis=analysis,
                seed=seed,
            )
            net = context.activate_case(case_name)
            payload = run_watch(net, request, executor=executor)
        except ValueError as exc:
            raise ToolError(str(exc)) from exc
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
