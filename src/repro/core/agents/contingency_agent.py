"""The contingency-analysis agent: N-1 reliability through function tools.

Tools follow the paper's Appendix B.3.2 (``solve_base_case``,
``run_n1_contingency_analysis``, ``analyze_specific_contingency``,
``get_contingency_status``).  The sweep consults the shared composite-key
cache first (case + content hash + outage), computes only the missing
outages, and deposits a validated ``ContingencyAnalysisResult`` that the
narration layer quotes.  Ranking emphasis (``weights_profile``) is a tool
argument so different model profiles can rank with different evidence
weights — the mechanism behind Table 1's divergent row.
"""

from __future__ import annotations

import time

from pydantic import BaseModel, Field

from ...contingency import (
    BALANCED_WEIGHTS,
    THERMAL_WEIGHTS,
    NMinus1Report,
    analyze_single_outage,
    rank_critical_elements,
    run_n_minus_1,
)
from ...grid import graph as gridgraph
from ...llm.base import LLMBackend
from ...powerflow import solve_newton, solve_with_recovery
from ..context import AgentContext
from ..schemas import ContingencyAnalysisResult, ContingencyRecord
from ..tools import ToolError, ToolRegistry
from ..validation import sanity_check_modification, validate_power_flow
from .base import Agent

# Paper Figure 5, abridged to its operative clauses.
CA_SYSTEM_PROMPT = """\
You are an expert Contingency Analysis agent for power system reliability
assessment. Your capabilities include solving base case problems for standard
IEEE test cases, running comprehensive N-1 contingency analysis, analysing
specific element outages, identifying critical contingencies and system
vulnerabilities, and providing recommendations for system reinforcement.
When users ask to analyse contingencies, first ensure a base case is solved.
Never fabricate numbers; anchor every metric to structured solver outputs.
Be professional, accurate, and focus on system reliability and security."""

_WEIGHTS = {"balanced": BALANCED_WEIGHTS, "thermal": THERMAL_WEIGHTS}


class BaseCaseArgs(BaseModel):
    case_name: str = Field(description="IEEE case identifier, e.g. 'ieee118'")


class RunN1Args(BaseModel):
    top_n: int = Field(default=5, ge=1, le=50)
    weights_profile: str = Field(default="balanced")
    overload_threshold: float = Field(default=100.0, gt=0.0)
    ranking_metric: str = Field(default="severity")


class SpecificArgs(BaseModel):
    branch_id: int | None = Field(default=None, ge=0)
    from_bus: int | None = Field(default=None, ge=0)
    to_bus: int | None = Field(default=None, ge=0)


def build_ca_registry(context: AgentContext) -> ToolRegistry:
    """Register the CA agent's function tools over the shared context."""
    registry = ToolRegistry()

    def solve_base_case(case_name: str) -> dict:
        t0 = time.perf_counter()
        context.activate_case(case_name)
        net = context.require_network()
        if context.base_pf_fresh():
            res = context.base_pf
            message = "reused fresh base case from shared context"
        else:
            res = solve_newton(net)
            if not res.converged:
                res, _trace = solve_with_recovery(net)
            context.deposit_base_pf(res)
            message = res.message
        report = validate_power_flow(res)
        context.record_provenance(
            "solve_base_case",
            solver=res.method,
            ok=report.ok,
            duration_s=time.perf_counter() - t0,
        )
        if not report.ok:
            raise ToolError(f"base case invalid: {report.describe()}")
        return {
            "case_name": context.case_name,
            "solved": True,
            "method": res.method,
            "iterations": res.iterations,
            "max_mismatch_pu": res.max_mismatch_pu,
            "min_voltage_pu": res.min_voltage_pu,
            "max_voltage_pu": res.max_voltage_pu,
            "max_loading_percent": res.max_loading_percent,
            "losses_mw": res.losses_mw,
            "objective_cost": (
                context.acopf_solution.objective_cost
                if context.acopf_fresh()
                else None
            ),
            "convergence_message": message,
        }

    def run_n1_contingency_analysis(
        top_n: int = 5,
        weights_profile: str = "balanced",
        overload_threshold: float = 100.0,
        ranking_metric: str = "severity",
    ) -> dict:
        net = context.require_network()
        if weights_profile not in _WEIGHTS:
            raise ToolError(
                f"unknown weights profile {weights_profile!r}; "
                f"use one of {sorted(_WEIGHTS)}"
            )
        if ranking_metric not in ("severity", "peak_overload"):
            raise ToolError(
                f"unknown ranking metric {ranking_metric!r}; "
                "use 'severity' or 'peak_overload'"
            )
        if not context.base_pf_fresh():
            solve_base_case(context.case_name)
        t0 = time.perf_counter()

        cache = context.contingency_cache
        candidates = net.in_service_branch_ids()
        cached, missing = cache.lookup_sweep(net, candidates)
        fresh_outcomes = []
        if missing:
            report = run_n_minus_1(
                net,
                branch_ids=missing,
                overload_threshold=overload_threshold,
                base_result=context.base_pf,
            )
            fresh_outcomes = report.outcomes
            cache.put_many(net, fresh_outcomes)
        outcomes = sorted(
            [*cached.values(), *fresh_outcomes], key=lambda o: o.branch_id
        )
        merged = NMinus1Report(
            case_name=context.case_name,
            base=context.base_pf,
            outcomes=outcomes,
            runtime_s=time.perf_counter() - t0,
        )
        ranked = rank_critical_elements(
            merged,
            top_n=top_n,
            weights=_WEIGHTS[weights_profile],
            metric=ranking_metric,
        )

        result = ContingencyAnalysisResult(
            case_name=context.case_name,
            base_objective_cost=(
                context.acopf_solution.objective_cost
                if context.acopf_fresh()
                else None
            ),
            n_contingencies=merged.n_contingencies,
            n_violations=merged.n_violations,
            max_overload_percent=ranked.max_overload_percent,
            critical=[
                ContingencyRecord(
                    rank=r.rank,
                    branch_id=r.outcome.branch_id,
                    from_bus=r.outcome.from_bus,
                    to_bus=r.outcome.to_bus,
                    is_transformer=r.outcome.is_transformer,
                    severity=round(r.severity, 3),
                    converged=r.outcome.converged,
                    islanded=r.outcome.islanded,
                    stranded_load_mw=round(r.outcome.stranded_load_mw, 3),
                    n_overloads=r.outcome.n_overloads,
                    max_loading_percent=round(r.outcome.max_loading_percent, 2),
                    min_voltage_pu=round(r.outcome.min_voltage_pu, 4),
                    n_voltage_violations=r.outcome.n_voltage_violations,
                    estimated_curtailment_mw=round(
                        r.outcome.estimated_curtailment_mw, 2
                    ),
                    justification=r.justification,
                )
                for r in ranked.ranked
            ],
            recommendations=ranked.recommendations,
            recurring_bottlenecks=ranked.recurring_bottlenecks,
            weights_profile=weights_profile,
            overload_threshold=overload_threshold,
            runtime_s=merged.runtime_s,
            cache_hits=len(cached),
            cache_misses=len(fresh_outcomes),
        )
        context.deposit_ca(result)
        context.record_provenance(
            "run_n1_contingency_analysis",
            solver="newton+recovery",
            ok=True,
            duration_s=result.runtime_s,
            weights_profile=weights_profile,
            cache_hits=len(cached),
        )
        payload = result.model_dump()
        payload["critical"] = payload["critical"][:top_n]
        return payload

    def analyze_specific_contingency(
        branch_id: int | None = None,
        from_bus: int | None = None,
        to_bus: int | None = None,
    ) -> dict:
        net = context.require_network()
        if branch_id is None:
            if from_bus is None or to_bus is None:
                raise ToolError("give either branch_id or both from_bus and to_bus")
            try:
                branch_id = net.find_branch(from_bus, to_bus)
            except KeyError as exc:
                raise ToolError(str(exc)) from exc
        check = sanity_check_modification(net, branch_id=branch_id)
        if not check.ok:
            raise ToolError(check.describe())
        if not context.base_pf_fresh():
            solve_base_case(context.case_name)

        cache = context.contingency_cache
        outcome = cache.get(net, branch_id)
        if outcome is None:
            v_base = (
                context.base_pf.extras.get("v_complex") if context.base_pf else None
            )
            outcome = analyze_single_outage(net, branch_id, v_base=v_base)
            cache.put(net, outcome)
        return {
            "case_name": context.case_name,
            "branch_id": outcome.branch_id,
            "from_bus": outcome.from_bus,
            "to_bus": outcome.to_bus,
            "is_transformer": outcome.is_transformer,
            "converged": outcome.converged,
            "islanded": outcome.islanded,
            "stranded_load_mw": outcome.stranded_load_mw,
            "max_loading_percent": outcome.max_loading_percent,
            "overloads": outcome.overloads,
            "min_voltage_pu": outcome.min_voltage_pu,
            "max_voltage_pu": outcome.max_voltage_pu,
            "voltage_violations": outcome.voltage_violations,
            "estimated_curtailment_mw": outcome.estimated_curtailment_mw,
            "severity": outcome.severity(),
            "summary_line": outcome.summary_line(),
        }

    def get_contingency_status() -> dict:
        out: dict = {
            "case_name": context.case_name,
            "base_case_solved": context.base_pf_fresh(),
            "cache": context.contingency_cache.stats(),
        }
        out.update(context.summary())
        out["case_name"] = context.case_name
        if context.network is not None:
            model = context.system_model()
            out.update(
                {
                    "n_bus": model.n_bus,
                    "n_gen": model.n_gen,
                    "n_load": model.n_load,
                    "n_branch": model.n_branch,
                }
            )
            out["n_bridges"] = len(gridgraph.bridge_branches(context.network))
        if context.ca_result is not None:
            out["last_analysis"] = {
                "n_contingencies": context.ca_result.n_contingencies,
                "n_violations": context.ca_result.n_violations,
                "max_overload_percent": context.ca_result.max_overload_percent,
                "fresh": context.ca_fresh(),
            }
        out["modifications"] = [m.description for m in context.modifications]
        return out

    registry.register(
        "solve_base_case",
        "Load and solve the base case power flow before contingency analysis.",
        solve_base_case,
        BaseCaseArgs,
    )
    registry.register(
        "run_n1_contingency_analysis",
        "Run comprehensive N-1 analysis with caching and criticality ranking.",
        run_n1_contingency_analysis,
        RunN1Args,
    )
    registry.register(
        "analyze_specific_contingency",
        "Analyse a specific branch (line or transformer) outage.",
        analyze_specific_contingency,
        SpecificArgs,
    )
    registry.register(
        "get_contingency_status",
        "Get current analysis status, cache statistics, and results summary.",
        get_contingency_status,
    )
    return registry


def make_contingency_agent(backend: LLMBackend, context: AgentContext) -> Agent:
    """Assemble the CA agent over a backend and shared context."""
    return Agent(
        name="contingency",
        system_prompt=CA_SYSTEM_PROMPT,
        backend=backend,
        registry=build_ca_registry(context),
        context=context,
    )
