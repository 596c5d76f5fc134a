"""Scenario engine: declarative operating-point studies at ensemble scale.

The study workflow the paper motivates ("adjust load levels, re-solve,
inspect impacts") made batch-first:

* :mod:`repro.scenarios.spec` — perturbation records and :class:`Scenario`,
* :mod:`repro.scenarios.stream` — :class:`ScenarioStream`, the lazy
  re-iterable ensemble representation with per-index child seeds,
* :mod:`repro.scenarios.generators` — families (sweep, Monte Carlo, LHS,
  N-2 combinations, daily profile, factorial crosses) expanded lazily
  from compact descriptions,
* :mod:`repro.scenarios.request` — :class:`StudyRequest`, the one flat
  description of a family study every front end builds, with
  :func:`expand_study_kind` and :func:`run_study_request` reading it,
* :mod:`repro.scenarios.runner` — :class:`StudyConfig`, the one
  validated definition of a study, and :class:`BatchStudyRunner`, which
  runs it with bounded-window streaming dispatch and per-worker cache
  reuse,
* :mod:`repro.scenarios.executor` — ``StudyExecutor``, the one
  process-pool dispatcher (shared by the service or ephemeral per run),
* :mod:`repro.scenarios.aggregate` — online :class:`StudyReducer`
  ensemble statistics (violation frequencies, exact-or-P²-sketched cost
  percentiles, critical-ranking stability).

Quickstart::

    from repro import load_case
    from repro.scenarios import BatchStudyRunner, StudyConfig, monte_carlo_ensemble

    runner = BatchStudyRunner(StudyConfig(analysis="powerflow"), n_jobs=4)
    study = runner.run(
        load_case("ieee118"), monte_carlo_ensemble(n=200, sigma=0.05, seed=1)
    )
    print(study.aggregate().to_dict())
"""

from .aggregate import (
    DEFAULT_SLICE_MAX_VALUES,
    EXACT_STATS_CAP,
    OTHER_SLICE,
    P2Quantile,
    SlicedReducer,
    SliceSpec,
    StreamingStats,
    StudyAggregate,
    StudyReducer,
    aggregate_study,
    percentile_stats,
    slice_key,
)
from .generators import (
    FAMILY_SLICE_TAGS,
    correlation_transform,
    daily_profile,
    default_slice_by,
    factorial,
    latin_hypercube,
    load_sweep,
    monte_carlo_ensemble,
    outage_combinations,
    resolve_slice_by,
    uniform_correlation,
    with_branch_outage,
)
from .request import (
    STUDY_FAMILY_KINDS,
    StudyRequest,
    expand_study_kind,
    run_study_request,
)
from .runner import (
    ANALYSES,
    BatchStudyRunner,
    ScenarioResult,
    StudyConfig,
    StudyProgress,
    StudyResult,
)
from .spec import (
    BranchOutage,
    GaussianLoadNoise,
    GeneratorOutage,
    LoadVector,
    PerBusLoadScale,
    Perturbation,
    RenewableInjection,
    Scenario,
    ScenarioError,
    UniformLoadScale,
    ZonalLoadScale,
)
from .stream import ScenarioStream, as_stream, child_seed, stream_length

__all__ = [
    "ANALYSES",
    "DEFAULT_SLICE_MAX_VALUES",
    "EXACT_STATS_CAP",
    "FAMILY_SLICE_TAGS",
    "OTHER_SLICE",
    "BatchStudyRunner",
    "BranchOutage",
    "GaussianLoadNoise",
    "GeneratorOutage",
    "LoadVector",
    "P2Quantile",
    "PerBusLoadScale",
    "Perturbation",
    "RenewableInjection",
    "Scenario",
    "ScenarioError",
    "ScenarioResult",
    "ScenarioStream",
    "STUDY_FAMILY_KINDS",
    "SlicedReducer",
    "SliceSpec",
    "StreamingStats",
    "StudyAggregate",
    "StudyConfig",
    "StudyProgress",
    "StudyReducer",
    "StudyRequest",
    "StudyResult",
    "UniformLoadScale",
    "ZonalLoadScale",
    "aggregate_study",
    "as_stream",
    "child_seed",
    "correlation_transform",
    "daily_profile",
    "default_slice_by",
    "expand_study_kind",
    "factorial",
    "latin_hypercube",
    "load_sweep",
    "monte_carlo_ensemble",
    "outage_combinations",
    "percentile_stats",
    "resolve_slice_by",
    "run_study_request",
    "slice_key",
    "stream_length",
    "uniform_correlation",
    "with_branch_outage",
]
