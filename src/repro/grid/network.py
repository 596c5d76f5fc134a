"""Mutable network container plus the compiled, solver-facing array view.

Two layers on purpose:

* :class:`Network` holds component dataclasses and is what agents mutate —
  load edits, branch outages, limit changes.  Every mutation bumps a
  version counter.
* :class:`NetworkArrays` is the vectorised per-unit snapshot the numerical
  code consumes (packed NumPy arrays for in-service elements only), and
  :meth:`Network.admittances` the ``(Ybus, Yf, Yt)`` operators built on
  it.  Both live in one snapshot cache that every mutation clears, with
  the per-load table scenario replays start from
  (:meth:`Network.load_table`) and the content digest cache keys use
  (:meth:`Network.content_hash`), so the solvers never touch
  Python-object component lists in their hot loops.  Two kinds of edit
  are cheaper:

  * a load-only edit (:meth:`Network.set_load`,
    :meth:`Network.scale_loads`, :meth:`Network.add_load`,
    :meth:`Network.touch_loads`) keeps the admittances, which read no
    load field, and :meth:`Network.copy` hands them to the copy; every
    tick or draw realized from one base therefore solves on the base's
    own ``(Ybus, Yf, Yt)``;
  * taking a single branch out of a network whose snapshot is complete
    *derives* the outage snapshot from it — delete the branch's rows,
    patch four Ybus entries — bit for bit what a rebuild gives, and
    switching the branch back in restores the parent, digest included.
    A contingency sweep therefore pays one full build, not one per
    outage.
"""

from __future__ import annotations

import copy as _copy
import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import ybus as _ybus
from .components import Branch, Bus, BusType, Generator, Load, NetworkMetadata
from .units import DEFAULT_BASE_MVA, deg_to_rad

#: Default zone-band count for cases that carry no explicit feeder
#: metadata: buses are split into this many contiguous, near-equal index
#: bands (the same partition rule :class:`~repro.scenarios.spec.ZonalLoadScale`
#: has always used), labelled ``feeder_0`` .. ``feeder_{N-1}``.
DEFAULT_ZONE_BANDS = 4


@dataclass
class NetworkArrays:
    """Read-only per-unit snapshot of a :class:`Network` for solvers.

    All powers are per-unit on ``base_mva``; angles are radians.  Gen and
    branch arrays cover *in-service* elements only; ``gen_ids`` /
    ``branch_ids`` map rows back to positions in the owning network's
    component lists.
    """

    base_mva: float
    n_bus: int
    bus_type: np.ndarray  # (n_bus,) int, BusType values
    pd: np.ndarray  # (n_bus,) aggregated in-service load, p.u.
    qd: np.ndarray
    gs: np.ndarray  # (n_bus,) shunt conductance, p.u.
    bs: np.ndarray
    vm0: np.ndarray  # (n_bus,) initial voltage magnitude
    va0: np.ndarray  # (n_bus,) initial angle, rad
    vmin: np.ndarray
    vmax: np.ndarray
    base_kv: np.ndarray

    n_gen: int
    gen_ids: np.ndarray  # (n_gen,) positions in Network.gens
    gen_bus: np.ndarray  # (n_gen,) bus index
    pg0: np.ndarray  # (n_gen,) initial dispatch, p.u.
    qg0: np.ndarray
    pmin: np.ndarray
    pmax: np.ndarray
    qmin: np.ndarray
    qmax: np.ndarray
    vg: np.ndarray

    n_branch: int
    branch_ids: np.ndarray  # (n_branch,) positions in Network.branches
    f_bus: np.ndarray
    t_bus: np.ndarray
    r: np.ndarray
    x: np.ndarray
    b_charge: np.ndarray
    tap: np.ndarray  # effective turns ratio (1.0 for lines)
    shift: np.ndarray  # rad
    rate_a: np.ndarray  # p.u. (0 => unlimited)

    #: Memo of :func:`repro.powerflow.solution.generation_plan`: units
    #: grouped by bus.  It reads only the bus types and the generator
    #: arrays, so snapshots that share those (derived outages, per-row
    #: load rebinds through :func:`dataclasses.replace`) share the plan.
    gen_plan: object = field(default=None, repr=False, compare=False)

    @property
    def slack_buses(self) -> np.ndarray:
        return np.flatnonzero(self.bus_type == int(BusType.SLACK))

    @property
    def pv_buses(self) -> np.ndarray:
        return np.flatnonzero(self.bus_type == int(BusType.PV))

    def gen_connection_matrix(self):
        """Sparse (n_bus, n_gen) incidence matrix Cg with Cg[b, g] = 1."""
        from scipy import sparse

        data = np.ones(self.n_gen)
        return sparse.csr_matrix(
            (data, (self.gen_bus, np.arange(self.n_gen))),
            shape=(self.n_bus, self.n_gen),
        )

    def without_branch(self, row: int) -> "NetworkArrays":
        """This snapshot with branch row ``row`` out of service.

        Equal, field for field and bit for bit, to compiling the network
        after that outage: only the branch arrays lose a row; the bus and
        generator arrays (and the generation plan) are shared.
        """
        def drop(a: np.ndarray) -> np.ndarray:
            return np.delete(a, row)

        return replace(
            self,
            n_branch=self.n_branch - 1,
            branch_ids=drop(self.branch_ids),
            f_bus=drop(self.f_bus),
            t_bus=drop(self.t_bus),
            r=drop(self.r),
            x=drop(self.x),
            b_charge=drop(self.b_charge),
            tap=drop(self.tap),
            shift=drop(self.shift),
            rate_a=drop(self.rate_a),
        )


class _Snapshot:
    """The compiled state of one network version.

    ``arrays``, ``adm``, ``loads`` (the per-load table of
    :meth:`Network.load_table`) and ``digest`` (of
    :meth:`Network.content_hash`) fill lazily; ``adm`` may also be
    carried over from the previous version by a load-only edit or a
    copy.  A snapshot with a ``parent`` is that parent with branch
    ``outage`` switched out: it derives ``arrays`` and ``adm`` from the
    parent instead of rebuilding them, and computes its own digest.
    """

    __slots__ = ("arrays", "adm", "loads", "digest", "parent", "outage")

    def __init__(
        self,
        parent: "_Snapshot | None" = None,
        outage: int = -1,
        adm: "_ybus.AdmittanceMatrices | None" = None,
    ) -> None:
        self.arrays: NetworkArrays | None = None
        self.adm = adm
        self.loads: tuple[np.ndarray, ...] | None = None
        self.digest: str | None = None
        self.parent = parent
        self.outage = outage


def _row_of(arr: NetworkArrays, branch_id: int) -> int:
    """Row of in-service branch ``branch_id`` in ``arr``'s branch arrays."""
    return int(np.searchsorted(arr.branch_ids, branch_id))


def _clone(record):
    """Field-for-field copy of one component record, without ``__init__``."""
    twin = object.__new__(type(record))
    twin.__dict__.update(record.__dict__)
    return twin


class Network:
    """A mutable power network: buses, generators, loads, branches.

    The builder methods (:meth:`add_bus` etc.) assign contiguous indices so
    downstream array code can use bus ids as positions directly.
    """

    def __init__(
        self,
        base_mva: float = DEFAULT_BASE_MVA,
        metadata: NetworkMetadata | None = None,
    ) -> None:
        if base_mva <= 0:
            raise ValueError(f"base_mva must be positive, got {base_mva}")
        self.base_mva = float(base_mva)
        self.metadata = metadata or NetworkMetadata()
        self.buses: list[Bus] = []
        self.gens: list[Generator] = []
        self.loads: list[Load] = []
        self.branches: list[Branch] = []
        self._version = 0
        # Optional feeder/zone metadata: bus index -> label.  Empty means
        # "use the contiguous-band default" (see bus_zone); the IEEE test
        # cases ship without real feeder topology, so the default keeps
        # zonal studies meaningful while letting importers or operators
        # attach real labels via set_bus_zones.
        self._bus_zones: dict[int, str] = {}
        # Compiled arrays, admittances and digest of the current version
        # (None: nothing compiled since the last mutation).  Repeated
        # solves of an unmodified network — recovery-ladder rungs,
        # warm-started ensembles, N-1 base solves — share one build.
        self._snapshot: _Snapshot | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_bus(self, **kwargs) -> Bus:
        """Append a bus; its index is assigned automatically."""
        kwargs.pop("index", None)
        bus = Bus(index=len(self.buses), **kwargs)
        self.buses.append(bus)
        self.touch()
        return bus

    def add_gen(self, bus: int, **kwargs) -> Generator:
        self._check_bus(bus)
        gen = Generator(bus=bus, **kwargs)
        self.gens.append(gen)
        self.touch()
        return gen

    def add_load(self, bus: int, **kwargs) -> Load:
        self._check_bus(bus)
        load = Load(bus=bus, **kwargs)
        self.loads.append(load)
        self.touch_loads()
        return load

    def add_branch(self, from_bus: int, to_bus: int, **kwargs) -> Branch:
        self._check_bus(from_bus)
        self._check_bus(to_bus)
        branch = Branch(from_bus=from_bus, to_bus=to_bus, **kwargs)
        self.branches.append(branch)
        self.touch()
        return branch

    def _check_bus(self, bus: int) -> None:
        if not 0 <= bus < len(self.buses):
            raise IndexError(
                f"bus {bus} does not exist (network has {len(self.buses)} buses)"
            )

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def n_gen(self) -> int:
        return len(self.gens)

    @property
    def n_load(self) -> int:
        return len(self.loads)

    @property
    def n_branch(self) -> int:
        return len(self.branches)

    @property
    def n_line(self) -> int:
        """Count of non-transformer branches (paper Table 2's "AC line")."""
        return sum(1 for br in self.branches if not br.is_transformer)

    @property
    def n_transformer(self) -> int:
        return sum(1 for br in self.branches if br.is_transformer)

    @property
    def version(self) -> int:
        """Monotone counter; bumps on any mutation through this API."""
        return self._version

    @property
    def name(self) -> str:
        return self.metadata.case_name

    def slack_bus(self) -> int:
        """Index of the (single expected) slack bus."""
        slacks = [b.index for b in self.buses if b.bus_type == BusType.SLACK]
        if not slacks:
            raise ValueError("network has no slack bus")
        return slacks[0]

    def total_load_mw(self) -> float:
        return sum(ld.pd_mw for ld in self.loads if ld.in_service)

    def total_load_mvar(self) -> float:
        return sum(ld.qd_mvar for ld in self.loads if ld.in_service)

    def total_gen_capacity_mw(self) -> float:
        return sum(g.pmax_mw for g in self.gens if g.in_service)

    def loads_at_bus(self, bus: int) -> list[Load]:
        return [ld for ld in self.loads if ld.bus == bus]

    def in_service_branch_ids(self) -> list[int]:
        return [i for i, br in enumerate(self.branches) if br.in_service]

    # ------------------------------------------------------------------
    # zone / feeder metadata
    # ------------------------------------------------------------------
    def set_bus_zones(self, zones: dict[int, str]) -> None:
        """Attach explicit feeder/zone labels (bus index -> label).

        Partial mappings are allowed: unlabelled buses keep the
        contiguous-band default.  Labels also mirror into each
        :class:`~repro.grid.components.Bus`'s ``zone`` field (as the
        label's ordinal) so array-level consumers see the same grouping;
        that field is exported, so the edit counts as a mutation.
        """
        clean: dict[int, str] = {}
        for bus, label in zones.items():
            self._check_bus(bus)
            if not label or not isinstance(label, str):
                raise ValueError(
                    f"bus {bus}: zone label must be a non-empty string, got {label!r}"
                )
            clean[int(bus)] = label
        self._bus_zones = clean
        ordinals: dict[str, int] = {}
        for bus in sorted(clean):
            label = clean[bus]
            ordinal = ordinals.setdefault(label, len(ordinals) + 1)
            self.buses[bus].zone = ordinal
        self.touch()

    def bus_zone(self, bus: int, n_default: int = DEFAULT_ZONE_BANDS) -> str:
        """Feeder label for ``bus``: explicit if set, banded otherwise.

        The default partitions bus indices into ``n_default`` contiguous,
        near-equal bands (bus ``b`` -> band ``b * n // n_bus``) — the same
        deterministic stand-in for missing feeder topology that
        :class:`~repro.scenarios.spec.ZonalLoadScale` uses, so telemetry
        feeder tags and zonal study slices line up by construction.
        """
        self._check_bus(bus)
        label = self._bus_zones.get(bus)
        if label is not None:
            return label
        n = max(1, min(int(n_default), self.n_bus))
        return f"feeder_{bus * n // self.n_bus}"

    def bus_zones(self, n_default: int = DEFAULT_ZONE_BANDS) -> dict[int, str]:
        """Feeder label per bus (explicit labels over banded defaults)."""
        return {b: self.bus_zone(b, n_default) for b in range(self.n_bus)}

    def zone_index(self, bus: int, n_zones: int) -> int:
        """Map ``bus`` to a zone ordinal in ``[0, n_zones)``.

        With explicit labels, distinct labels get ordinals in first-seen
        bus order (wrapped modulo ``n_zones`` if there are more labels
        than zones); without them this is the contiguous-band rule
        ``bus * n_zones // n_bus`` unchanged.
        """
        self._check_bus(bus)
        if n_zones < 1:
            raise ValueError(f"n_zones must be >= 1, got {n_zones}")
        if not self._bus_zones:
            return bus * n_zones // self.n_bus
        label = self.bus_zone(bus, n_zones)
        ordinals: dict[str, int] = {}
        for b in range(self.n_bus):
            ordinals.setdefault(self.bus_zone(b, n_zones), len(ordinals))
        return ordinals[label] % n_zones

    # ------------------------------------------------------------------
    # mutation (agent-facing edits)
    # ------------------------------------------------------------------
    def touch(self) -> None:
        """Invalidate compiled views after an out-of-band component edit."""
        self._version += 1
        self._snapshot = None

    def touch_loads(self) -> None:
        """Invalidate compiled views after an edit of load records only.

        Like :meth:`touch`, except that the admittances survive: they
        read branches and bus shunts, never a load, so the next version
        would rebuild the same bits.  Any other edit must call
        :meth:`touch`.
        """
        snap = self._snapshot
        self.touch()
        if snap is not None and snap.adm is not None:
            self._snapshot = _Snapshot(adm=snap.adm)

    def set_load(self, bus: int, pd_mw: float, qd_mvar: float | None = None) -> Load:
        """Set the total load at ``bus``, creating a load if none exists.

        When multiple loads share the bus, the first is set to the target
        and the rest are zeroed, so the bus total equals the request — the
        semantics of the paper's ``modify_bus_load`` tool.
        """
        self._check_bus(bus)
        existing = self.loads_at_bus(bus)
        if qd_mvar is None:
            # Preserve the current power factor if there is one.
            pd_old = sum(ld.pd_mw for ld in existing)
            qd_old = sum(ld.qd_mvar for ld in existing)
            qd_mvar = qd_old * (pd_mw / pd_old) if pd_old else 0.0
        if not existing:
            return self.add_load(bus, pd_mw=pd_mw, qd_mvar=qd_mvar)
        first, *rest = existing
        first.pd_mw = pd_mw
        first.qd_mvar = qd_mvar
        for ld in rest:
            ld.pd_mw = 0.0
            ld.qd_mvar = 0.0
        self.touch_loads()
        return first

    def scale_loads(self, factor: float) -> None:
        """Multiply every in-service load by ``factor`` (what-if studies)."""
        if factor < 0:
            raise ValueError(f"load scale factor must be non-negative, got {factor}")
        for ld in self.loads:
            ld.pd_mw *= factor
            ld.qd_mvar *= factor
        self.touch_loads()

    def set_branch_status(self, branch_id: int, in_service: bool) -> Branch:
        """Switch a branch in or out of service (contingency application).

        Taking an in-service branch out while the snapshot holds both
        arrays and admittances leaves a pending derivation, which the
        next :meth:`compile` / :meth:`admittances` carries out; switching
        that same branch back in restores the parent snapshot.  Any other
        status change clears the snapshot like :meth:`touch`.
        """
        if not 0 <= branch_id < len(self.branches):
            raise IndexError(
                f"branch {branch_id} does not exist "
                f"(network has {len(self.branches)} branches)"
            )
        br = self.branches[branch_id]
        snap = self._snapshot
        self.touch()
        if snap is not None:
            complete = snap.arrays is not None and snap.adm is not None
            if br.in_service and not in_service and complete:
                self._snapshot = _Snapshot(parent=snap, outage=branch_id)
            elif in_service and not br.in_service and snap.outage == branch_id:
                self._snapshot = snap.parent
        br.in_service = in_service
        return br

    def find_branch(self, from_bus: int, to_bus: int) -> int:
        """Locate a branch by its endpoints (either orientation)."""
        for i, br in enumerate(self.branches):
            if {br.from_bus, br.to_bus} == {from_bus, to_bus}:
                return i
        raise KeyError(f"no branch between buses {from_bus} and {to_bus}")

    def copy(self) -> "Network":
        """Deep copy: edits to the copy never reach this network.

        Every component record is cloned on its own.  Each one is a
        shallow clone, which is a full copy because every component field
        holds an immutable value (number, string, enum or tuple of
        floats); ``metadata`` is deep-copied.  The copy starts with a
        fresh compile cache that holds only this network's admittances,
        if they are built: they are read-only, and every edit that could
        change them drops them (see :meth:`touch_loads`).
        """
        clone = Network(self.base_mva, _copy.deepcopy(self.metadata))
        clone.buses = [_clone(b) for b in self.buses]
        clone.gens = [_clone(g) for g in self.gens]
        clone.loads = [_clone(ld) for ld in self.loads]
        clone.branches = [_clone(br) for br in self.branches]
        clone._bus_zones = dict(self._bus_zones)
        snap = self._snapshot
        if snap is not None and snap.adm is not None:
            clone._snapshot = _Snapshot(adm=snap.adm)
        return clone

    # ------------------------------------------------------------------
    # compiled view
    # ------------------------------------------------------------------
    def compile(self) -> NetworkArrays:
        """Return the per-unit array snapshot: built once per version, or
        derived from the parent snapshot after one outage."""
        snap = self._snapshot
        if snap is None:
            snap = self._snapshot = _Snapshot()
        if snap.arrays is None:
            parent = snap.parent
            snap.arrays = (
                self._build_arrays()
                if parent is None
                else parent.arrays.without_branch(_row_of(parent.arrays, snap.outage))
            )
        return snap.arrays

    def admittances(self) -> _ybus.AdmittanceMatrices:
        """``(Ybus, Yf, Yt)`` of the compiled snapshot: built once per
        version, or derived from the parent snapshot after one outage."""
        arr = self.compile()
        snap = self._snapshot
        if snap.adm is None:
            parent = snap.parent
            if parent is not None:
                snap.adm = _ybus.outage_admittances(
                    parent.arrays, parent.adm, _row_of(parent.arrays, snap.outage)
                )
            if snap.adm is None:
                snap.adm = _ybus.build_admittances(arr)
        return snap.adm

    def load_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(bus, pd_mw, qd_mvar, in_service)`` per load, in list order.

        Built once per version, like :meth:`compile`.  The arrays are
        shared by every caller and read-only: copy them before editing.
        """
        snap = self._snapshot
        if snap is None:
            snap = self._snapshot = _Snapshot()
        if snap.loads is None:
            loads = self.loads
            table = (
                np.array([ld.bus for ld in loads], dtype=np.int64),
                np.array([ld.pd_mw for ld in loads], dtype=float),
                np.array([ld.qd_mvar for ld in loads], dtype=float),
                np.array([ld.in_service for ld in loads], dtype=bool),
            )
            for column in table:
                column.flags.writeable = False
            snap.loads = table
        return snap.loads

    def content_hash(self) -> str:
        """Stable digest of everything a solve can depend on.

        The first 16 hex digits of the SHA-256 of the network's MATPOWER
        export (loads, topology, dispatch, limits) as canonical JSON.
        Serialising dominates its cost, so it is computed once per
        version, like :meth:`compile`; direct component edits that
        bypass this API must call :meth:`touch`.
        """
        snap = self._snapshot
        if snap is None:
            snap = self._snapshot = _Snapshot()
        if snap.digest is None:
            from . import io

            blob = json.dumps(io.to_matpower(self), sort_keys=True, separators=(",", ":"))
            snap.digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
        return snap.digest

    def _build_arrays(self) -> NetworkArrays:
        nb = self.n_bus
        if nb == 0:
            raise ValueError("cannot compile an empty network")
        base = self.base_mva

        bus_type = np.array([int(b.bus_type) for b in self.buses], dtype=np.int64)
        pd = np.zeros(nb)
        qd = np.zeros(nb)
        for ld in self.loads:
            if ld.in_service:
                pd[ld.bus] += ld.pd_mw / base
                qd[ld.bus] += ld.qd_mvar / base
        gs = np.array([b.gs_mw / base for b in self.buses])
        bs = np.array([b.bs_mvar / base for b in self.buses])
        vm0 = np.array([b.vm_pu for b in self.buses])
        va0 = np.array([deg_to_rad(b.va_deg) for b in self.buses])
        vmin = np.array([b.vmin_pu for b in self.buses])
        vmax = np.array([b.vmax_pu for b in self.buses])
        base_kv = np.array([b.base_kv for b in self.buses])

        gen_rows = [(i, g) for i, g in enumerate(self.gens) if g.in_service]
        gen_ids = np.array([i for i, _ in gen_rows], dtype=np.int64)
        gen_bus = np.array([g.bus for _, g in gen_rows], dtype=np.int64)
        pg0 = np.array([g.pg_mw / base for _, g in gen_rows])
        qg0 = np.array([g.qg_mvar / base for _, g in gen_rows])
        pmin = np.array([g.pmin_mw / base for _, g in gen_rows])
        pmax = np.array([g.pmax_mw / base for _, g in gen_rows])
        qmin = np.array([g.qmin_mvar / base for _, g in gen_rows])
        qmax = np.array([g.qmax_mvar / base for _, g in gen_rows])
        vg = np.array([g.vg_pu for _, g in gen_rows])

        # Seed voltage setpoints: PV/slack buses start at their gen's vg.
        for _, g in gen_rows:
            if bus_type[g.bus] in (int(BusType.PV), int(BusType.SLACK)):
                vm0[g.bus] = g.vg_pu

        br_rows = [(i, br) for i, br in enumerate(self.branches) if br.in_service]
        branch_ids = np.array([i for i, _ in br_rows], dtype=np.int64)
        f_bus = np.array([br.from_bus for _, br in br_rows], dtype=np.int64)
        t_bus = np.array([br.to_bus for _, br in br_rows], dtype=np.int64)
        r = np.array([br.r_pu for _, br in br_rows])
        x = np.array([br.x_pu for _, br in br_rows])
        b_charge = np.array([br.b_pu for _, br in br_rows])
        tap = np.array([br.effective_tap for _, br in br_rows])
        shift = np.array([deg_to_rad(br.shift_deg) for _, br in br_rows])
        rate_a = np.array([br.rate_a_mva / base for _, br in br_rows])

        return NetworkArrays(
            base_mva=base,
            n_bus=nb,
            bus_type=bus_type,
            pd=pd,
            qd=qd,
            gs=gs,
            bs=bs,
            vm0=vm0,
            va0=va0,
            vmin=vmin,
            vmax=vmax,
            base_kv=base_kv,
            n_gen=len(gen_rows),
            gen_ids=gen_ids,
            gen_bus=gen_bus,
            pg0=pg0,
            qg0=qg0,
            pmin=pmin,
            pmax=pmax,
            qmin=qmin,
            qmax=qmax,
            vg=vg,
            n_branch=len(br_rows),
            branch_ids=branch_ids,
            f_bus=f_bus,
            t_bus=t_bus,
            r=r,
            x=x,
            b_charge=b_charge,
            tap=tap,
            shift=shift,
            rate_a=rate_a,
        )

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Component counts in the shape of the paper's Table 2."""
        return {
            "case": self.metadata.case_name,
            "bus": self.n_bus,
            "gen": self.n_gen,
            "load": self.n_load,
            "ac_line": self.n_line,
            "transformer": self.n_transformer,
            "total_load_mw": round(self.total_load_mw(), 3),
            "gen_capacity_mw": round(self.total_gen_capacity_mw(), 3),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network({self.metadata.case_name or 'unnamed'}: "
            f"{self.n_bus} buses, {self.n_gen} gens, {self.n_load} loads, "
            f"{self.n_branch} branches)"
        )
