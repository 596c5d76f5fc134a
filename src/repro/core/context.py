"""Shared, versioned agent context (paper Sections 3.3-3.4).

One :class:`AgentContext` instance is shared by every agent in a session.
It tracks the active network, the latest validated artefacts
(ACOPF solution, base power flow, contingency result set), a chronological
diff log of modifications, provenance records, and the contingency cache.
Freshness is decided by comparing the network's version counter against
the version each artefact was computed at — the mechanism that lets the
CA agent "inspect freshness against the diff log to decide whether it can
reuse that base point".

``save`` / ``load`` persist the whole session state as JSON for seamless
resumption.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..contingency.cache import ContingencyCache
from ..grid.cases import load_case
from ..grid.io import from_matpower, to_matpower
from ..grid.network import Network
from ..opf.result import OPFResult
from ..powerflow.solution import PowerFlowResult
from .schemas import (
    ACOPFSolution,
    ContingencyAnalysisResult,
    Modification,
    PowerSystemModel,
    ProvenanceRecord,
)
from .tools import ToolError


@dataclass
class AgentContext:
    """Structured session state shared across agents."""

    network: Network | None = None
    acopf_solution: ACOPFSolution | None = None
    acopf_raw: OPFResult | None = None
    acopf_version: int = -1  # network version the solution belongs to
    base_pf: PowerFlowResult | None = None
    base_pf_version: int = -1
    ca_result: ContingencyAnalysisResult | None = None
    ca_version: int = -1
    modifications: list[Modification] = field(default_factory=list)
    provenance: list[ProvenanceRecord] = field(default_factory=list)
    contingency_cache: ContingencyCache = field(default_factory=ContingencyCache)
    study_summary: dict | None = None  # last batch-study payload (JSON-ready)
    #: Optional cross-session result store (duck-typed to
    #: :class:`repro.service.store.ResultStore`; kept loose so core never
    #: imports the service layer).  Runtime wiring only — not persisted.
    result_store: object | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    # case management
    # ------------------------------------------------------------------
    @property
    def case_name(self) -> str:
        return self.network.metadata.case_name if self.network else ""

    def activate_case(self, name: str) -> Network:
        """Load a case, resetting per-case artefacts if the case changes.

        Every agent loads cases here, so an unknown name becomes one
        :class:`~repro.core.tools.ToolError` listing the available cases.
        """
        if self.network is not None and self.case_name == name:
            return self.network
        try:
            network = load_case(name)
        except KeyError as exc:
            raise ToolError(exc.args[0]) from exc
        self.network = network
        self.acopf_solution = None
        self.acopf_raw = None
        self.acopf_version = -1
        self.base_pf = None
        self.base_pf_version = -1
        self.ca_result = None
        self.ca_version = -1
        self.study_summary = None
        self.modifications.clear()
        return self.network

    def require_network(self) -> Network:
        if self.network is None:
            raise ValueError("no case loaded; solve or load a case first")
        return self.network

    # ------------------------------------------------------------------
    # artefact freshness
    # ------------------------------------------------------------------
    def acopf_fresh(self) -> bool:
        return (
            self.network is not None
            and self.acopf_solution is not None
            and self.acopf_solution.solved
            and self.acopf_version == self.network.version
        )

    def base_pf_fresh(self) -> bool:
        return (
            self.network is not None
            and self.base_pf is not None
            and self.base_pf.converged
            and self.base_pf_version == self.network.version
        )

    def ca_fresh(self) -> bool:
        return (
            self.network is not None
            and self.ca_result is not None
            and self.ca_version == self.network.version
        )

    def deposit_acopf(self, solution: ACOPFSolution, raw: OPFResult) -> None:
        self.acopf_solution = solution
        self.acopf_raw = raw
        self.acopf_version = self.require_network().version

    def deposit_base_pf(self, result: PowerFlowResult) -> None:
        self.base_pf = result
        self.base_pf_version = self.require_network().version

    def deposit_ca(self, result: ContingencyAnalysisResult) -> None:
        self.ca_result = result
        self.ca_version = self.require_network().version

    # ------------------------------------------------------------------
    # study retrieval (in-memory first, then the cross-session store)
    # ------------------------------------------------------------------
    def latest_study_summary(self) -> dict | None:
        """The most recent study payload this context can see.

        Prefers the in-memory summary (this session's last study); when a
        result store is attached, falls back to the newest *persisted*
        study — so a brand-new session can answer "what did the last
        study find?" about work another session ran.
        """
        if self.study_summary is not None:
            return self.study_summary
        if self.result_store is None:
            return None
        try:
            return self.result_store.latest_summary()
        except Exception:
            # A corrupt/unreadable store must degrade to "no study", not
            # break status questions.
            return None

    # ------------------------------------------------------------------
    # diff log & provenance
    # ------------------------------------------------------------------
    def record_modification(self, kind: str, description: str, **params) -> None:
        self.modifications.append(
            Modification(
                kind=kind,
                description=description,
                params=params,
                network_version=self.require_network().version,
            )
        )

    def record_provenance(
        self, tool: str, solver: str = "", ok: bool = True, duration_s: float = 0.0, **options
    ) -> None:
        self.provenance.append(
            ProvenanceRecord(
                tool=tool, solver=solver, ok=ok, duration_s=duration_s, options=options
            )
        )

    # ------------------------------------------------------------------
    # summaries (what the simulated model reads; CONTEXT_MARKER payload)
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        out: dict = {
            "case": self.case_name or None,
            "solved": bool(self.acopf_solution and self.acopf_solution.solved),
            "fresh": self.acopf_fresh(),
            "base_pf_fresh": self.base_pf_fresh(),
            "n_modifications": len(self.modifications),
        }
        if self.acopf_solution is not None:
            out["objective_cost"] = self.acopf_solution.objective_cost
            out["min_voltage_pu"] = self.acopf_solution.min_voltage_pu
            out["max_thermal_loading"] = self.acopf_solution.max_loading_percent
        if self.ca_result is not None:
            out["ca_fresh"] = self.ca_fresh()
            out["ca_max_overload_percent"] = self.ca_result.max_overload_percent
        if self.study_summary is not None:
            out["study_kind"] = self.study_summary.get("study_kind")
            out["study_n_scenarios"] = self.study_summary.get("n_scenarios")
        return out

    def system_model(self) -> PowerSystemModel:
        net = self.require_network()
        return PowerSystemModel(
            case_name=net.metadata.case_name,
            n_bus=net.n_bus,
            n_gen=net.n_gen,
            n_load=net.n_load,
            n_branch=net.n_branch,
            n_line=net.n_line,
            n_transformer=net.n_transformer,
            base_mva=net.base_mva,
            total_load_mw=net.total_load_mw(),
            total_load_mvar=net.total_load_mvar(),
            gen_capacity_mw=net.total_gen_capacity_mw(),
            description=net.metadata.description,
            source=net.metadata.source,
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Serialise session state (network, artefacts, diff log) to JSON."""
        payload: dict = {
            "format": "gridmind-session-v1",
            "case_name": self.case_name,
            "network": to_matpower(self.network) if self.network else None,
            "network_meta": {
                "name": self.case_name,
                "description": self.network.metadata.description if self.network else "",
                "source": self.network.metadata.source if self.network else "",
            },
            "acopf_solution": (
                self.acopf_solution.model_dump() if self.acopf_solution else None
            ),
            "acopf_is_fresh": self.acopf_fresh(),
            "ca_result": self.ca_result.model_dump() if self.ca_result else None,
            "ca_is_fresh": self.ca_fresh(),
            "study_summary": self.study_summary,
            "modifications": [m.model_dump() for m in self.modifications],
            "provenance": [p.model_dump() for p in self.provenance],
        }
        Path(path).write_text(json.dumps(payload, indent=1, default=str))

    @classmethod
    def load(cls, path: str | Path) -> "AgentContext":
        payload = json.loads(Path(path).read_text())
        if payload.get("format") != "gridmind-session-v1":
            raise ValueError(f"{path}: not a gridmind-session-v1 file")
        ctx = cls()
        if payload.get("network") is not None:
            meta = payload.get("network_meta", {})
            ctx.network = from_matpower(
                payload["network"],
                name=meta.get("name", ""),
                source=meta.get("source", ""),
            )
            ctx.network.metadata.description = meta.get("description", "")
        if payload.get("acopf_solution"):
            ctx.acopf_solution = ACOPFSolution(**payload["acopf_solution"])
            if payload.get("acopf_is_fresh") and ctx.network is not None:
                ctx.acopf_version = ctx.network.version
        if payload.get("ca_result"):
            ctx.ca_result = ContingencyAnalysisResult(**payload["ca_result"])
            if payload.get("ca_is_fresh") and ctx.network is not None:
                ctx.ca_version = ctx.network.version
        ctx.study_summary = payload.get("study_summary")
        ctx.modifications = [
            Modification(**m) for m in payload.get("modifications", [])
        ]
        ctx.provenance = [
            ProvenanceRecord(**p) for p in payload.get("provenance", [])
        ]
        return ctx
