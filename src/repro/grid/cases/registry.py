"""Case registry: the paper's five IEEE systems plus user registration.

``load_case`` accepts the many spellings that show up in conversation
("IEEE 118", "case118", "the 118-bus system") and always returns a *fresh
copy*, so agent-side mutations never leak between sessions.  Table 2 of
the paper is reproduced by :func:`case_inventory`.

Synthetic cases are expensive to calibrate (the 300-bus system runs
repeated N-1 sweeps during generation).  No snapshots are committed: each
process generates a synthetic case live on its first ``load_case`` and
caches the master copy.  ``python scripts/generate_cases.py`` can bake
snapshots into ``cases/data/`` as JSON, and the registry then loads
those instead; both paths produce the same network (generation is
seeded by case name), and ``tests/test_cases.py`` pins every generated
case's digest.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from functools import lru_cache
from pathlib import Path

from ..network import Network
from . import ieee14
from .synthetic import build_synthetic

_DATA_DIR = Path(__file__).parent / "data"

# Component counts from the paper's Table 2 (bus, gen, load, line, trafo).
TABLE2_COUNTS: dict[str, tuple[int, int, int, int, int]] = {
    "ieee14": (14, 5, 11, 17, 3),
    "ieee30": (30, 6, 21, 41, 4),
    "ieee57": (57, 7, 42, 63, 17),
    "ieee118": (118, 54, 99, 175, 11),
    "ieee300": (300, 68, 193, 283, 128),
}

# Mean bus load chosen so the synthetic systems land near realistic total
# demand for their scale (case118 ~4.2 GW, case300 ~20+ GW pre-calibration).
_MEAN_LOAD_MW = {
    "ieee30": 14.0,
    "ieee57": 30.0,
    "ieee118": 43.0,
    "ieee300": 60.0,
}

_BUILDERS: dict[str, Callable[[], Network]] = {}


def register_case(name: str, builder: Callable[[], Network]) -> None:
    """Add (or override) a named case builder."""
    _BUILDERS[name.lower()] = builder


def _synthetic_builder(name: str) -> Callable[[], Network]:
    nb, ng, nl, nline, ntr = TABLE2_COUNTS[name]

    def build() -> Network:
        snapshot = _DATA_DIR / f"{name}.json"
        if snapshot.exists():
            from ..io import load_json

            return load_json(snapshot)
        return generate_synthetic_case(name)

    build.__name__ = f"build_{name}"
    return build


def generate_synthetic_case(name: str, max_seed_tries: int = 5) -> Network:
    """Run the full (slow) calibrated generation for a paper case.

    Case *design* includes a deterministic seed search: a topology draw
    that resists calibration (e.g. an interior-point-hostile reactive
    profile) is discarded and the next seed tried — planners iterate on
    designs too.  The search order is fixed, so output stays reproducible.
    """
    import zlib

    nb, ng, nl, nline, ntr = TABLE2_COUNTS[name]
    base_seed = zlib.crc32(name.encode("utf-8"))
    last_error: Exception | None = None
    for bump in range(max_seed_tries):
        try:
            net = build_synthetic(
                name,
                n_bus=nb,
                n_gen=ng,
                n_load=nl,
                n_line=nline,
                n_trafo=ntr,
                mean_load_mw=_MEAN_LOAD_MW[name],
                seed=base_seed + bump,
            )
            net.metadata.extras["design_seed_bump"] = bump
            return net
        except RuntimeError as exc:
            last_error = exc
    raise RuntimeError(
        f"could not design a calibrated {name} in {max_seed_tries} seed tries"
    ) from last_error


register_case("ieee14", ieee14.build)
for _name in ("ieee30", "ieee57", "ieee118", "ieee300"):
    register_case(_name, _synthetic_builder(_name))


@lru_cache(maxsize=None)
def _cached_master(name: str) -> Network:
    return _BUILDERS[name]()


def canonical_case_name(text: str) -> str | None:
    """Map free-form case mentions onto a registry key.

    Handles "IEEE 118", "case118", "118-bus", "the 118 bus system", and
    the bare number.  Returns ``None`` when nothing matches.
    """
    lowered = text.lower().strip()
    if lowered in _BUILDERS:
        return lowered
    m = re.search(r"(?:ieee|case)?[\s_\-]*(\d+)(?:[\s\-]*bus)?", lowered)
    if m:
        candidate = f"ieee{m.group(1)}"
        if candidate in _BUILDERS:
            return candidate
    return None


def available_cases() -> list[str]:
    """Registered case names, smallest system first."""
    return sorted(_BUILDERS, key=lambda n: (len(n), n))


def load_case(name: str) -> Network:
    """Return a fresh, independently mutable copy of a registered case."""
    key = canonical_case_name(name)
    if key is None:
        raise KeyError(
            f"unknown case {name!r}; available: {', '.join(available_cases())}"
        )
    return _cached_master(key).copy()


def case_inventory() -> list[dict]:
    """Component counts for every registered paper case (Table 2)."""
    return [load_case(name).summary() for name in TABLE2_COUNTS]
