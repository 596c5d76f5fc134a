"""Scenario family generators: compact study descriptions -> lazy streams.

Each generator expands a few parameters into the N scenarios a study
needs, with deterministic naming and tagging.  Families are emitted as
:class:`~repro.scenarios.stream.ScenarioStream` — re-iterable lazy
iterables with a known length where one exists — so a 10k-draw ensemble
never materialises as a list unless a caller explicitly asks
(``stream.materialize()``).  Stochastic families derive one child seed
per scenario *index* from the family seed (:func:`~repro.scenarios
.stream.child_seed`), so the ensemble is reproducible and independent of
execution order (serial, chunked, process-parallel, or streamed).
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator

import numpy as np

from ..grid.network import Network
from .spec import (
    BranchOutage,
    GaussianLoadNoise,
    Scenario,
    UniformLoadScale,
    ZonalLoadScale,
)
from .stream import ScenarioStream, as_stream, child_seed, stream_length


def load_sweep(lo: float = 0.8, hi: float = 1.2, steps: int = 9) -> ScenarioStream:
    """Uniform load scaling swept over ``steps`` points in [lo, hi]."""
    if steps < 2:
        raise ValueError(f"a sweep needs at least 2 steps, got {steps}")
    if lo < 0 or hi < lo:
        raise ValueError(f"invalid sweep range [{lo}, {hi}]")

    def gen() -> Iterator[Scenario]:
        for i, f in enumerate(np.linspace(lo, hi, steps)):
            yield Scenario(
                name=f"sweep_{int(round(f * 100)):03d}",
                perturbations=(UniformLoadScale(float(f)),),
                tags={"family": "sweep", "scale": float(f), "index": i},
            )

    return ScenarioStream(gen, length=steps, family="sweep")


def uniform_correlation(n_zones: int, rho: float) -> list[list[float]]:
    """Equicorrelation matrix: ``rho`` between every zone pair, 1 on the
    diagonal.  PSD for ``-1/(Z-1) <= rho <= 1`` (validated downstream by
    :func:`correlation_transform`)."""
    if n_zones < 1:
        raise ValueError(f"need at least one zone, got {n_zones}")
    return [
        [1.0 if i == j else float(rho) for j in range(n_zones)]
        for i in range(n_zones)
    ]


def correlation_transform(correlation) -> np.ndarray:
    """Validate a zonal load correlation matrix and return its transform.

    Checks square shape, a unit diagonal, symmetry, and positive
    semi-definiteness, then returns the matrix ``L`` (Cholesky-style,
    eigen-based so exactly-singular PSD matrices work too) with
    ``L @ L.T == correlation`` — correlated zone draws are ``L @ z`` for
    i.i.d. standard normals ``z``.
    """
    corr = np.asarray(correlation, dtype=float)
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
        raise ValueError(
            f"correlation must be a square matrix, got shape {corr.shape}"
        )
    if not np.allclose(np.diag(corr), 1.0, atol=1e-8):
        raise ValueError("correlation matrix must have a unit diagonal")
    if not np.allclose(corr, corr.T, atol=1e-8):
        raise ValueError("correlation matrix must be symmetric")
    eigvals, eigvecs = np.linalg.eigh(corr)
    if eigvals.min() < -1e-8 * max(1.0, float(eigvals.max())):
        raise ValueError(
            "correlation matrix must be positive semi-definite "
            f"(min eigenvalue {eigvals.min():.3g})"
        )
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def monte_carlo_ensemble(
    n: int = 200,
    sigma: float = 0.05,
    seed: int = 0,
    correlation=None,
) -> ScenarioStream:
    """``n`` independent Gaussian load draws around the base point.

    Child seeds are hash-derived per draw index, so draw ``i`` realises
    the same network whether the ensemble has 10 or 10 000 members and
    wherever in the stream it is consumed.

    ``correlation`` (optional) switches to *zonal correlated* draws: a
    ``Z x Z`` load correlation matrix (validated PSD) is Cholesky-
    transformed so each scenario draws one factor per zone, correlated
    across zones, applied through :class:`~repro.scenarios.spec
    .ZonalLoadScale` (buses partitioned into ``Z`` contiguous bands).
    Scenarios are tagged with ``n_zones`` and ``hot_zone`` — the zone
    with the largest realised factor — so sliced aggregation can answer
    "how do violations split by the zone driving the stress".
    """
    if n < 1:
        raise ValueError(f"ensemble size must be >= 1, got {n}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    width = max(3, len(str(n - 1)))

    if correlation is None:

        def gen() -> Iterator[Scenario]:
            for i in range(n):
                cseed = child_seed(seed, i)
                yield Scenario(
                    name=f"mc_{i:0{width}d}",
                    perturbations=(GaussianLoadNoise(float(sigma), cseed),),
                    tags={"family": "monte_carlo", "draw": i, "seed": cseed, "index": i},
                )

        return ScenarioStream(gen, length=n, family="monte_carlo")

    transform = correlation_transform(correlation)
    n_zones = transform.shape[0]

    def gen_correlated() -> Iterator[Scenario]:
        for i in range(n):
            cseed = child_seed(seed, i)
            rng = np.random.default_rng(cseed)
            draw = transform @ rng.standard_normal(n_zones)
            factors = np.maximum(0.0, 1.0 + sigma * draw)
            yield Scenario(
                name=f"mc_{i:0{width}d}",
                perturbations=(
                    ZonalLoadScale(tuple(float(f) for f in factors)),
                ),
                tags={
                    "family": "monte_carlo",
                    "draw": i,
                    "seed": cseed,
                    "index": i,
                    "n_zones": n_zones,
                    "hot_zone": int(np.argmax(factors)),
                },
            )

    return ScenarioStream(gen_correlated, length=n, family="monte_carlo")


def latin_hypercube(
    n: int = 100, lo: float = 0.8, hi: float = 1.2, seed: int = 0
) -> ScenarioStream:
    """Latin-hypercube load sampling: one draw per stratum of [lo, hi].

    Divides the scale range into ``n`` equal strata, draws one uniform
    sample inside each, and shuffles the stratum order — space-filling
    coverage a plain Monte Carlo ensemble only approaches at much larger
    N.  Deterministic in ``seed``; emitted lazily with ``family``/
    ``index`` tags like every other family.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    if lo < 0 or hi < lo:
        raise ValueError(f"invalid sampling range [{lo}, {hi}]")
    width = max(3, len(str(n - 1)))

    def gen() -> Iterator[Scenario]:
        # One small vectorised draw up front (2n floats), scenarios lazy.
        rng = np.random.default_rng(seed)
        strata = rng.permutation(n)
        offsets = rng.random(n)
        span = hi - lo
        for i in range(n):
            factor = lo + span * (float(strata[i]) + float(offsets[i])) / n
            yield Scenario(
                name=f"lhs_{i:0{width}d}",
                perturbations=(UniformLoadScale(round(factor, 9)),),
                tags={
                    "family": "lhs",
                    "index": i,
                    "scale": factor,
                    "stratum": int(strata[i]),
                },
            )

    return ScenarioStream(gen, length=n, family="lhs")


def outage_combinations(
    net: Network,
    *,
    depth: int = 2,
    limit: int | None = None,
    branch_ids: list[int] | None = None,
) -> ScenarioStream:
    """N-k outage scenarios: every ``depth``-element combination of branches.

    The combination count explodes quickly (118-bus N-2 is ~15k pairs), so
    ``limit`` caps the expansion; combinations are enumerated in a fixed
    lexicographic order, so a capped study is a deterministic prefix —
    and the stream never holds more than one combination at a time.
    """
    if depth < 1:
        raise ValueError(f"outage depth must be >= 1, got {depth}")
    candidates = branch_ids if branch_ids is not None else net.in_service_branch_ids()
    total = math.comb(len(candidates), depth)
    if limit is not None:
        total = min(total, limit)

    def gen() -> Iterator[Scenario]:
        combos = itertools.combinations(candidates, depth)
        for i, combo in enumerate(itertools.islice(combos, total)):
            yield Scenario(
                name="out_" + "_".join(str(b) for b in combo),
                perturbations=tuple(BranchOutage(b) for b in combo),
                tags={"family": "outage", "branches": list(combo), "index": i},
            )

    return ScenarioStream(gen, length=total, family="outage")


def daily_profile(
    steps: int = 24, trough: float = 0.65, peak: float = 1.0
) -> ScenarioStream:
    """A daily load curve: cosine shape with a 4 am trough and 4 pm peak.

    ``steps`` samples one day uniformly (24 -> hourly); each step scales
    all loads by a factor in [trough, peak].  Each scenario carries an
    integer ``hour_of_day`` tag (0..23) alongside the exact fractional
    ``hour``, so sub-hourly profiles still slice into 24 hourly buckets.
    """
    if steps < 1:
        raise ValueError(f"profile needs at least 1 step, got {steps}")
    if trough < 0 or peak < trough:
        raise ValueError(f"invalid profile band [{trough}, {peak}]")

    def gen() -> Iterator[Scenario]:
        for i in range(steps):
            hour = 24.0 * i / steps
            shape = 0.5 * (1.0 - math.cos(2.0 * math.pi * (hour - 4.0) / 24.0))
            factor = trough + (peak - trough) * shape
            yield Scenario(
                name=f"hour_{hour:04.1f}".replace(".", "h"),
                perturbations=(UniformLoadScale(round(factor, 6)),),
                tags={
                    "family": "profile",
                    "hour": hour,
                    "hour_of_day": int(hour) % 24,
                    "scale": factor,
                    "index": i,
                },
            )

    return ScenarioStream(gen, length=steps, family="profile")


def with_branch_outage(
    scenarios: Iterable[Scenario], branch_id: int
) -> ScenarioStream:
    """Cross an existing family with a fixed branch outage (study composition)."""
    source = as_stream(scenarios)

    def gen() -> Iterator[Scenario]:
        for s in source:
            yield Scenario(
                name=f"{s.name}_out{branch_id}",
                perturbations=(*s.perturbations, BranchOutage(branch_id)),
                tags={**s.tags, "outage_branch": branch_id},
            )

    return ScenarioStream(gen, length=source.length, family=source.family)


#: Natural bounded-cardinality slice dimension per family tag schema.
#: Families without one (Monte Carlo draws, LHS strata, outage pairs are
#: all per-scenario-distinct) infer no slicing; correlated Monte Carlo
#: ensembles carry a ``hot_zone`` tag that must be requested explicitly.
FAMILY_SLICE_TAGS: dict[str, tuple[str, ...]] = {
    "sweep": ("scale",),
    "profile": ("hour_of_day",),
}

#: Conversational aliases -> canonical scenario-tag names.
SLICE_TAG_ALIASES: dict[str, str] = {
    "hour": "hour_of_day",
    "hour-of-day": "hour_of_day",
    "hour of day": "hour_of_day",
    "zone": "hot_zone",
    "hot zone": "hot_zone",
    "load level": "scale",
    "load-level": "scale",
    "level": "scale",
    "factor": "scale",
}


def default_slice_by(kind: str, *, n_zones: int = 0) -> tuple[str, ...]:
    """The slice dimensions a study family implies (possibly none).

    A Monte Carlo family with zonal correlated draws (``n_zones >= 2``)
    naturally slices by the stress-driving ``hot_zone`` tag; this is the
    one place that rule lives for every front end.
    """
    inferred = FAMILY_SLICE_TAGS.get(kind, ())
    if not inferred and kind == "monte_carlo" and n_zones >= 2:
        return ("hot_zone",)
    return inferred


def resolve_slice_by(spec, kind: str = "", *, n_zones: int = 0) -> tuple[str, ...]:
    """Normalise any front end's slice request into canonical tag names.

    ``spec`` may be ``None`` (infer from the family via
    :func:`default_slice_by`), a comma-separated string, or a sequence of
    tag names; ``"none"``/``"off"`` (or an empty sequence) disables
    slicing explicitly.  Aliases like ``hour`` or ``zone`` map to the
    canonical scenario tags.
    """
    if spec is None:
        return default_slice_by(kind, n_zones=n_zones)
    if isinstance(spec, str):
        lowered = spec.strip().lower()
        if lowered in ("", "auto"):
            return default_slice_by(kind, n_zones=n_zones)
        if lowered in ("none", "off"):
            return ()
        parts = [p.strip() for p in spec.split(",")]
    else:
        parts = [str(p).strip() for p in spec]
    out: list[str] = []
    for part in parts:
        if not part:
            continue
        tag = SLICE_TAG_ALIASES.get(part.lower(), part)
        if tag not in out:
            out.append(tag)
    return tuple(out)


def factorial(*families: Iterable[Scenario]) -> ScenarioStream:
    """Full-factorial cross of any scenario families' perturbation tuples.

    Every combination concatenates one scenario from each family (in
    argument order) into a single operating point: names join with ``"x"``,
    perturbations concatenate, and tags merge (later families win on
    collisions) under fresh ``family="factorial"`` / ``index`` coordinates.
    The cross product is enumerated lazily — ``factorial(sweep, outages)``
    over a 9-point sweep and 200 outages never holds 1800 scenarios.
    """
    if not families:
        raise ValueError("factorial() needs at least one scenario family")
    streams = [as_stream(f) for f in families]
    lengths = [stream_length(s) for s in streams]
    total: int | None = 1
    for n in lengths:
        total = None if (total is None or n is None) else total * n

    def gen() -> Iterator[Scenario]:
        # itertools.product buffers each input family (small) while the
        # product itself — the big object — stays lazy.
        for i, combo in enumerate(itertools.product(*streams)):
            tags: dict = {}
            for s in combo:
                tags.update(s.tags)
            tags.update({"family": "factorial", "index": i})
            yield Scenario(
                name="x".join(s.name for s in combo),
                perturbations=tuple(
                    p for s in combo for p in s.perturbations
                ),
                tags=tags,
            )

    return ScenarioStream(gen, length=total, family="factorial")
