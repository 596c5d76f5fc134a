"""The one flat description of a family study, and the one function that runs it.

Every front end describes a family study the same way: the service takes
a :class:`StudyRequest` envelope, the ``gridmind study`` CLI builds one
from its flags, and the study agent's family tools map their argument
schemas onto one.  :func:`expand_study_kind` turns a request into its
scenario stream, :meth:`StudyRequest.config` into its
:class:`~repro.scenarios.runner.StudyConfig` (resolving ``slice_by`` in
that one place), and :func:`run_study_request` runs it, persists it when
a store is attached and builds the summary every front end replies with.
The same parameters therefore give the same scenarios, store key and
aggregate whichever front end asked.
"""

from __future__ import annotations

from typing import Callable

from pydantic import BaseModel, ConfigDict, Field, field_validator

from ..grid.network import Network
from .aggregate import DEFAULT_SLICE_MAX_VALUES
from .generators import (
    daily_profile,
    latin_hypercube,
    load_sweep,
    monte_carlo_ensemble,
    outage_combinations,
    resolve_slice_by,
    uniform_correlation,
)
from .runner import BatchStudyRunner, StudyConfig, StudyProgress, StudyResult
from .stream import ScenarioStream

#: The study kinds :func:`expand_study_kind` builds; a ``-`` in a
#: requested kind is read as ``_``.
STUDY_FAMILY_KINDS = ("sweep", "monte_carlo", "lhs", "outage", "profile")

#: Each banded family's load band in % of base, used where a request
#: leaves ``lo_percent``/``hi_percent`` unset.
FAMILY_BANDS: dict[str, tuple[float, float]] = {
    "sweep": (80.0, 120.0),
    "lhs": (80.0, 120.0),
    "profile": (65.0, 100.0),
}


class StudyRequest(BaseModel):
    """A declarative family study: kind plus percent-scaled knobs.

    ``n_scenarios`` means draws (monte_carlo/lhs), steps (sweep/profile),
    or the combination cap (outage), matching each family's natural
    count.  ``n_zones >= 2`` switches Monte Carlo to zonal correlated
    draws (equicorrelation ``rho_percent`` across zones, each scenario
    tagged with its stress-driving ``hot_zone``).
    """

    model_config = ConfigDict(extra="forbid")

    case_name: str = Field(description="IEEE case identifier, e.g. 'ieee118'")
    kind: str = Field(default="monte_carlo", description=f"one of {STUDY_FAMILY_KINDS}")
    session_id: str | None = Field(
        default=None,
        description="session to bill this study's resource usage to "
        "(None = the unattributed '_direct' bucket)",
    )
    analysis: str = Field(default="powerflow")
    n_scenarios: int | None = Field(
        default=None,
        ge=1,
        le=20_000,
        description="draws (monte_carlo/lhs), steps (sweep/profile), cap (outage)",
    )
    lo_percent: float | None = Field(
        default=None, gt=0.0,
        description="low end of the load band, % of base (None = the family's)",
    )
    hi_percent: float | None = Field(
        default=None, gt=0.0,
        description="high end of the load band, % of base (None = the family's)",
    )
    sigma_percent: float = Field(default=5.0, ge=0.0, le=100.0)
    depth: int = Field(default=2, ge=1, le=3)
    seed: int = Field(default=0, ge=0)
    label: str = Field(default="", description="free-text tag kept in the store")
    n_zones: int = Field(
        default=0,
        ge=0,
        le=32,
        description="monte_carlo only: zonal correlated draws over this many "
        "contiguous bus zones (0 = independent per-load noise)",
    )
    rho_percent: float = Field(
        default=0.0,
        ge=-100.0,
        le=100.0,
        description="inter-zone load correlation, % (with n_zones >= 2)",
    )
    slice_by: list[str] | str | None = Field(
        default=None,
        description=(
            "tag dimensions for sliced aggregation ('hour_of_day', 'scale', "
            "'hot_zone' ...; aliases like 'hour'/'zone' and comma lists "
            "accepted); None infers the family's natural dimension, [] or "
            "'none' disables slicing"
        ),
    )
    slice_max_values: int = Field(
        default=DEFAULT_SLICE_MAX_VALUES,
        ge=1,
        le=512,
        description="per-dimension cardinality cap (overflow folds into __other__)",
    )

    @field_validator("kind")
    @classmethod
    def _underscore_kind(cls, kind: str) -> str:
        return kind.replace("-", "_")

    def config(self) -> StudyConfig:
        """The validated :class:`StudyConfig` this request runs under,
        with ``slice_by`` resolved to canonical dimensions."""
        dims = resolve_slice_by(self.slice_by, self.kind, n_zones=self.n_zones)
        if "hot_zone" in dims and self.n_zones < 2:
            raise ValueError(
                "slicing by hot_zone requires zonal correlated draws: set "
                "n_zones >= 2 (e.g. n_zones=4, rho_percent=60) so each "
                "scenario is tagged with the zone driving its stress"
            )
        return StudyConfig(
            analysis=self.analysis,
            slice_by=dims,
            slice_max_values=self.slice_max_values,
        )


def expand_study_kind(request: StudyRequest, net: Network) -> ScenarioStream:
    """The scenario stream a :class:`StudyRequest` describes on ``net``.

    The one place a flat request becomes a family, for every front end.
    Banded families fill an unset ``lo_percent``/``hi_percent`` from
    :data:`FAMILY_BANDS`; every other family ignores the band.
    """
    kind, n = request.kind, request.n_scenarios
    n_zones = request.n_zones
    if n_zones >= 2 and kind != "monte_carlo":
        raise ValueError(
            f"zonal correlated draws (n_zones={n_zones}) apply to "
            "monte_carlo studies only"
        )
    if n_zones > net.n_bus:
        # More zones than buses would leave empty bus bands whose drawn
        # factors scale nothing yet could still win the hot_zone argmax.
        raise ValueError(
            f"n_zones={n_zones} exceeds the case's {net.n_bus} buses; "
            "every zone must contain at least one bus"
        )
    if kind in FAMILY_BANDS:
        default_lo, default_hi = FAMILY_BANDS[kind]
        lo = (default_lo if request.lo_percent is None else request.lo_percent) / 100.0
        hi = (default_hi if request.hi_percent is None else request.hi_percent) / 100.0
    if kind == "sweep":
        return load_sweep(lo, hi, n or 9)
    if kind == "profile":
        return daily_profile(steps=n or 24, trough=lo, peak=hi)
    if kind == "lhs":
        return latin_hypercube(n=n or 100, lo=lo, hi=hi, seed=request.seed)
    if kind == "outage":
        return outage_combinations(net, depth=request.depth, limit=n or 50)
    if kind == "monte_carlo":
        correlation = None
        if n_zones >= 2:
            rho = request.rho_percent / 100.0
            if rho < -1.0 / (n_zones - 1):
                raise ValueError(
                    f"rho {rho:g} is infeasible for {n_zones} zones (the "
                    f"equicorrelation matrix needs rho >= {-1.0 / (n_zones - 1):.3f})"
                )
            correlation = uniform_correlation(n_zones, rho)
        return monte_carlo_ensemble(
            n=n or 200,
            sigma=request.sigma_percent / 100.0,
            seed=request.seed,
            correlation=correlation,
        )
    raise ValueError(
        f"unknown study kind {kind!r}; use one of {STUDY_FAMILY_KINDS}"
    )


def run_study_request(
    request: StudyRequest,
    net: Network,
    *,
    executor=None,
    n_jobs: int = 1,
    store=None,
    progress: Callable[[StudyProgress], None] | None = None,
) -> tuple[StudyResult, dict]:
    """Run a request's study on ``net``; return ``(study, summary)``.

    The one run-and-persist step behind every front end: the study runs
    on ``executor`` when one is given (else ``n_jobs`` as in
    :class:`BatchStudyRunner`), streams through the online reducer, and,
    when ``store`` (a :class:`~repro.service.store.ResultStore`) is
    given, keeps its records and persists them.  ``progress`` sees every
    chunk; without one a no-op still turns on the per-chunk checkpoint
    count, so every front end's summary reports it.  The summary is the
    study's 5-worst ``to_dict`` plus ``study_kind``, ``slice_by`` (when
    slicing) and ``study_key`` (when stored).
    """
    config = request.config()
    scenarios = expand_study_kind(request, net)
    study = BatchStudyRunner(config, n_jobs=n_jobs, executor=executor).run(
        net,
        scenarios,
        progress=progress or (lambda _p: None),
        keep_results=store is not None,
    )
    summary = study.to_dict(max_scenarios=5)
    summary["study_kind"] = request.kind
    if config.slice_by:
        summary["slice_by"] = list(config.slice_by)
    if store is not None:
        summary["study_key"] = store.put(
            net, config, scenarios, study,
            study_kind=request.kind, label=request.label,
        )
    return study, summary
