"""Declarative scenario specifications for operating-point studies.

A :class:`Scenario` is a named, ordered bundle of :class:`Perturbation`
records.  Perturbations are small frozen dataclasses — pure *descriptions*
of an edit (scale loads, outage a branch, inject a renewable) — so a whole
study is just data: picklable across process boundaries, hashable into
audit trails, and reproducible by construction.  Stochastic perturbations
carry their own integer seed; realising the same scenario twice always
yields the same network.

``Scenario.realize(base)`` applies the perturbations to a *fresh copy* of
the base network, never to the base itself — the isolation guarantee the
batch runner relies on when it fans scenarios out across workers.

Perturbations that only move *bus injections* (load scales, noise draws,
renewable infeed) additionally carry an ``injection_only`` flag and a
vectorized form, :meth:`Perturbation.apply_to_loads`, operating on a
plain per-load array view instead of component objects.  A whole chunk
of such scenarios shares the base network's electrical topology, so
:meth:`Scenario.injection_vector` can produce the exact DC injection
vector a realized copy would compile to — bit-identical, including the
per-load draw counts and accumulation order — without ever paying
``net.copy()`` + ``compile()``.  That is what feeds the batched physics
kernels (:mod:`repro.powerflow.batch`).  Topology-changing perturbations
(:class:`BranchOutage`, :class:`GeneratorOutage`) keep
``injection_only = False`` and take the per-scenario path.

Realizing an injection-only scenario edits load records only, through
:meth:`~repro.grid.network.Network.touch_loads` and the load editors, so
the realized copy keeps the base's admittances: a scalar solve of it
(a cold watch tick, a scalar fallback row) builds no ``Ybus``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ..grid.network import Network


class ScenarioError(ValueError):
    """A perturbation could not be applied to the target network."""


class LoadVector:
    """Mutable per-load array view for vectorized perturbation replay.

    Rows mirror ``net.loads`` in list order (including out-of-service
    loads, which scale operations touch exactly like the object path);
    :class:`RenewableInjection` appends rows the way ``add_load`` appends
    components, so stochastic perturbations that draw one variate per
    load row see the same row count at the same point in the sequence.

    Both the active (``pd_mw``) and reactive (``qd_mvar``) columns are
    tracked: the DC fast path consumes only ``pd``, the AC ensemble
    kernel needs the full complex injection.
    """

    __slots__ = ("bus", "pd_mw", "qd_mvar", "in_service")

    def __init__(
        self,
        bus: np.ndarray,
        pd_mw: np.ndarray,
        qd_mvar: np.ndarray,
        in_service: np.ndarray,
    ) -> None:
        self.bus = bus
        self.pd_mw = pd_mw
        self.qd_mvar = qd_mvar
        self.in_service = in_service

    @classmethod
    def from_network(cls, net: Network) -> "LoadVector":
        """A fresh view of ``net``'s loads.

        The columns are copies of the network's cached
        :meth:`~repro.grid.network.Network.load_table`, built once per
        snapshot: perturbations scale them in place and
        :class:`RenewableInjection` appends rows, so no replay may alias
        the shared table.
        """
        bus, pd_mw, qd_mvar, in_service = net.load_table()
        return cls(bus.copy(), pd_mw.copy(), qd_mvar.copy(), in_service.copy())

    def __len__(self) -> int:
        return len(self.pd_mw)

    def append(self, bus: int, pd_mw: float, qd_mvar: float = 0.0) -> None:
        self.bus = np.append(self.bus, np.int64(bus))
        self.pd_mw = np.append(self.pd_mw, float(pd_mw))
        self.qd_mvar = np.append(self.qd_mvar, float(qd_mvar))
        self.in_service = np.append(self.in_service, True)

    def bus_pd_pu(self, n_bus: int, base_mva: float) -> np.ndarray:
        """Aggregate to per-bus load (p.u.) the way ``Network.compile``
        does: per-row division, then in-order accumulation."""
        pd = np.zeros(n_bus)
        live = self.in_service
        np.add.at(pd, self.bus[live], self.pd_mw[live] / base_mva)
        return pd

    def bus_qd_pu(self, n_bus: int, base_mva: float) -> np.ndarray:
        """Reactive counterpart of :meth:`bus_pd_pu` (same accumulation)."""
        qd = np.zeros(n_bus)
        live = self.in_service
        np.add.at(qd, self.bus[live], self.qd_mvar[live] / base_mva)
        return qd


@dataclass(frozen=True)
class Perturbation:
    """Base record: subclasses implement :meth:`apply` (mutating ``net``)."""

    #: True when the perturbation moves only bus power injections and
    #: therefore admits the vectorized :meth:`apply_to_loads` replay; the
    #: batched DC fast path requires every perturbation in a scenario to
    #: set this.
    injection_only: ClassVar[bool] = False

    def apply(self, net: Network) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def apply_to_loads(self, net: Network, loads: LoadVector) -> None:
        """Vectorized replay of :meth:`apply` against a load-array view.

        Must perform the same validation (raising the same
        :class:`ScenarioError`) and the same per-load floating-point
        operations as :meth:`apply`, so the aggregated injection vector
        is bit-identical to realizing the scenario.  Only meaningful when
        ``injection_only`` is True.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no vectorized injection form"
        )

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class UniformLoadScale(Perturbation):
    """Multiply every load in the system by ``factor``."""

    factor: float
    injection_only: ClassVar[bool] = True

    def apply(self, net: Network) -> None:
        if self.factor < 0:
            raise ScenarioError(f"load scale factor must be >= 0, got {self.factor}")
        net.scale_loads(self.factor)

    def apply_to_loads(self, net: Network, loads: LoadVector) -> None:
        if self.factor < 0:
            raise ScenarioError(f"load scale factor must be >= 0, got {self.factor}")
        loads.pd_mw *= self.factor
        loads.qd_mvar *= self.factor

    def describe(self) -> str:
        return f"scale all loads x{self.factor:g}"


@dataclass(frozen=True)
class PerBusLoadScale(Perturbation):
    """Scale the loads at specific buses: ``factors`` is ((bus, factor), ...)."""

    factors: tuple[tuple[int, float], ...]
    injection_only: ClassVar[bool] = True

    def apply(self, net: Network) -> None:
        # One pass over the loads indexes them by bus, in list order.
        at_bus: dict[int, list] = {}
        for ld in net.loads:
            at_bus.setdefault(ld.bus, []).append(ld)
        for bus, factor in self.factors:
            if not 0 <= bus < net.n_bus:
                raise ScenarioError(f"bus {bus} does not exist in {net.name!r}")
            if factor < 0:
                raise ScenarioError(f"bus {bus}: scale factor must be >= 0")
            for ld in at_bus.get(bus, ()):
                ld.pd_mw *= factor
                ld.qd_mvar *= factor
        net.touch_loads()

    def apply_to_loads(self, net: Network, loads: LoadVector) -> None:
        for bus, factor in self.factors:
            if not 0 <= bus < net.n_bus:
                raise ScenarioError(f"bus {bus} does not exist in {net.name!r}")
            if factor < 0:
                raise ScenarioError(f"bus {bus}: scale factor must be >= 0")
            rows = loads.bus == bus
            loads.pd_mw[rows] *= factor
            loads.qd_mvar[rows] *= factor

    def describe(self) -> str:
        inner = ", ".join(f"bus {b} x{f:g}" for b, f in self.factors)
        return f"scale loads ({inner})"


@dataclass(frozen=True)
class GaussianLoadNoise(Perturbation):
    """Monte Carlo draw: each load scaled by ``max(0, 1 + N(0, sigma))``.

    The draw is seeded per perturbation, so a scenario realises the same
    load vector in every process and on every run.  One normal variate is
    drawn per load row (in one vectorised call), keeping the draw count —
    and therefore the ensemble — independent of load service status.
    """

    sigma: float
    seed: int
    injection_only: ClassVar[bool] = True

    def apply(self, net: Network) -> None:
        if self.sigma < 0:
            raise ScenarioError(f"sigma must be >= 0, got {self.sigma}")
        rng = np.random.default_rng(self.seed)
        factors = np.maximum(0.0, 1.0 + rng.normal(0.0, self.sigma, len(net.loads)))
        for ld, f in zip(net.loads, factors):
            ld.pd_mw *= f
            ld.qd_mvar *= f
        net.touch_loads()

    def apply_to_loads(self, net: Network, loads: LoadVector) -> None:
        if self.sigma < 0:
            raise ScenarioError(f"sigma must be >= 0, got {self.sigma}")
        rng = np.random.default_rng(self.seed)
        # len(loads), not len(net.loads): an earlier RenewableInjection in
        # the same scenario appends a row, and the draw count must track
        # the row count exactly as the object path does.
        factors = np.maximum(0.0, 1.0 + rng.normal(0.0, self.sigma, len(loads)))
        loads.pd_mw *= factors
        loads.qd_mvar *= factors

    def describe(self) -> str:
        return f"gaussian load noise sigma={self.sigma:g} seed={self.seed}"


@dataclass(frozen=True)
class ZonalLoadScale(Perturbation):
    """Scale loads per *zone*: one multiplier per network zone.

    Zone membership comes from :meth:`~repro.grid.network.Network.zone_index`:
    explicit feeder labels when the network carries them
    (``set_bus_zones``), otherwise the historical partition of bus
    indices into ``len(factors)`` contiguous, near-equal bands (bus ``b``
    belongs to zone ``b * Z // n_bus``) — the deterministic stand-in for
    real zone metadata the IEEE cases don't carry.  Correlated Monte
    Carlo draws bake their realised zone factors into this record, so the
    scenario stays plain data: picklable, spec-hashable, and identical
    wherever it is realised.
    """

    factors: tuple[float, ...]
    injection_only: ClassVar[bool] = True

    def apply(self, net: Network) -> None:
        z = len(self.factors)
        if z < 1:
            raise ScenarioError("zonal scale needs at least one zone factor")
        for f in self.factors:
            if f < 0:
                raise ScenarioError(f"zone factors must be >= 0, got {f}")
        for ld in net.loads:
            f = self.factors[net.zone_index(ld.bus, z)]
            ld.pd_mw *= f
            ld.qd_mvar *= f
        net.touch_loads()

    def apply_to_loads(self, net: Network, loads: LoadVector) -> None:
        z = len(self.factors)
        if z < 1:
            raise ScenarioError("zonal scale needs at least one zone factor")
        for f in self.factors:
            if f < 0:
                raise ScenarioError(f"zone factors must be >= 0, got {f}")
        per_row = np.array(
            [self.factors[net.zone_index(int(b), z)] for b in loads.bus], dtype=float
        )
        loads.pd_mw *= per_row
        loads.qd_mvar *= per_row

    def describe(self) -> str:
        inner = ", ".join(f"{f:g}" for f in self.factors)
        return f"zonal load scale ({inner})"


@dataclass(frozen=True)
class BranchOutage(Perturbation):
    """Take one branch out of service."""

    branch_id: int

    def apply(self, net: Network) -> None:
        if not 0 <= self.branch_id < net.n_branch:
            raise ScenarioError(
                f"branch {self.branch_id} does not exist in {net.name!r}"
            )
        net.set_branch_status(self.branch_id, False)

    def describe(self) -> str:
        return f"outage branch {self.branch_id}"


@dataclass(frozen=True)
class GeneratorOutage(Perturbation):
    """Take one generating unit out of service."""

    gen_id: int

    def apply(self, net: Network) -> None:
        if not 0 <= self.gen_id < net.n_gen:
            raise ScenarioError(f"generator {self.gen_id} does not exist in {net.name!r}")
        net.gens[self.gen_id].in_service = False
        net.touch()

    def describe(self) -> str:
        return f"outage generator {self.gen_id}"


@dataclass(frozen=True)
class RenewableInjection(Perturbation):
    """Model renewable infeed as a negative load at ``bus``."""

    bus: int
    p_mw: float
    q_mvar: float = 0.0
    injection_only: ClassVar[bool] = True

    def apply(self, net: Network) -> None:
        if not 0 <= self.bus < net.n_bus:
            raise ScenarioError(f"bus {self.bus} does not exist in {net.name!r}")
        if self.p_mw < 0:
            raise ScenarioError(f"injection must be >= 0 MW, got {self.p_mw}")
        net.add_load(
            self.bus,
            pd_mw=-self.p_mw,
            qd_mvar=-self.q_mvar,
            name=f"renewable_b{self.bus}",
        )

    def apply_to_loads(self, net: Network, loads: LoadVector) -> None:
        if not 0 <= self.bus < net.n_bus:
            raise ScenarioError(f"bus {self.bus} does not exist in {net.name!r}")
        if self.p_mw < 0:
            raise ScenarioError(f"injection must be >= 0 MW, got {self.p_mw}")
        loads.append(self.bus, -self.p_mw, -self.q_mvar)

    def describe(self) -> str:
        return f"inject {self.p_mw:g} MW renewable at bus {self.bus}"


@dataclass
class Scenario:
    """One named operating point: a perturbation list plus labelling tags.

    ``tags`` carry the generator's coordinates (sweep factor, Monte Carlo
    draw index, profile hour, outage pair ...) so aggregation can slice
    the ensemble without re-parsing scenario names.
    """

    name: str
    perturbations: tuple[Perturbation, ...] = ()
    tags: dict = field(default_factory=dict)

    def realize(self, base: Network) -> Network:
        """Apply the perturbations to a fresh copy of ``base``.

        An injection-only scenario's copy keeps the base's admittances,
        built here once per base version if they are not yet.
        """
        if self.perturbations and self.injection_only:
            base.admittances()
        net = base.copy()
        for pert in self.perturbations:
            try:
                pert.apply(net)
            except ScenarioError:
                raise
            except (IndexError, ValueError) as exc:
                raise ScenarioError(
                    f"scenario {self.name!r}: {pert.describe()} failed: {exc}"
                ) from exc
        return net

    @property
    def injection_only(self) -> bool:
        """True when every perturbation admits the vectorized replay —
        i.e. the scenario keeps the base electrical topology."""
        return all(p.injection_only for p in self.perturbations)

    def _replay_loads(self, base: Network) -> LoadVector:
        """Run every perturbation's vectorized form against a load view.

        The view starts as a copy of the base's per-snapshot load table
        (:meth:`LoadVector.from_network`), so a row costs its own draws
        and not a walk over the base's load records.
        """
        loads = LoadVector.from_network(base)
        for pert in self.perturbations:
            try:
                pert.apply_to_loads(base, loads)
            except ScenarioError:
                raise
            except (IndexError, ValueError) as exc:
                raise ScenarioError(
                    f"scenario {self.name!r}: {pert.describe()} failed: {exc}"
                ) from exc
        return loads

    def injection_vector(self, base: Network) -> np.ndarray:
        """DC injection vector (p.u.) of the realized scenario, without
        realizing it.

        Bit-identical to ``dc_injections(self.realize(base).compile())``
        for injection-only scenarios: the perturbations replay against a
        per-load array in list order, aggregation divides then
        accumulates exactly as ``Network.compile`` does, and generator
        dispatch is untouched by construction.
        """
        arr = base.compile()
        loads = self._replay_loads(base)
        p = -loads.bus_pd_pu(arr.n_bus, base.base_mva)
        np.add.at(p, arr.gen_bus, arr.pg0)
        return p

    def ac_injection(self, base: Network) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Complex AC injection of the realized scenario, without realizing it.

        Returns ``(sbus, pd, qd)`` in p.u.: the scheduled complex bus
        injections plus the per-bus load vectors the compiled snapshot
        would carry.  Bit-identical to ``bus_power_injections`` (and
        ``arr.pd`` / ``arr.qd``) of the realized network for
        injection-only scenarios — the AC ensemble kernel solves against
        ``sbus`` and finalizes against ``pd``/``qd`` with no
        ``net.copy()`` + ``compile()`` anywhere.
        """
        arr = base.compile()
        loads = self._replay_loads(base)
        pd = loads.bus_pd_pu(arr.n_bus, base.base_mva)
        qd = loads.bus_qd_pu(arr.n_bus, base.base_mva)
        sbus = -(pd + 1j * qd)
        np.add.at(sbus, arr.gen_bus, arr.pg0 + 1j * arr.qg0)
        return sbus, pd, qd

    def describe(self) -> str:
        if not self.perturbations:
            return f"{self.name}: base case"
        return f"{self.name}: " + "; ".join(p.describe() for p in self.perturbations)
