"""Network container: construction, mutation, compiled views."""

import dataclasses
import enum

import numpy as np
import pytest

from repro.grid.cases import load_case
from repro.grid.components import BusType
from repro.grid.io import to_matpower
from repro.grid.network import Network


def test_add_bus_assigns_contiguous_indices():
    net = Network()
    for _ in range(5):
        net.add_bus()
    assert [b.index for b in net.buses] == [0, 1, 2, 3, 4]


def test_add_gen_to_missing_bus_rejected():
    net = Network()
    net.add_bus()
    with pytest.raises(IndexError):
        net.add_gen(3)


def test_add_branch_to_missing_bus_rejected():
    net = Network()
    net.add_bus()
    with pytest.raises(IndexError):
        net.add_branch(0, 9)


def test_counts(tiny_net):
    assert tiny_net.n_bus == 3
    assert tiny_net.n_gen == 2
    assert tiny_net.n_load == 2
    assert tiny_net.n_branch == 3
    assert tiny_net.n_line == 3
    assert tiny_net.n_transformer == 0


def test_total_load(tiny_net):
    assert tiny_net.total_load_mw() == pytest.approx(80.0)
    assert tiny_net.total_load_mvar() == pytest.approx(25.0)


def test_slack_bus(tiny_net):
    assert tiny_net.slack_bus() == 0


def test_slack_bus_missing_raises():
    net = Network()
    net.add_bus()
    with pytest.raises(ValueError, match="no slack"):
        net.slack_bus()


def test_version_bumps_on_mutation(tiny_net):
    v0 = tiny_net.version
    tiny_net.set_load(1, 70.0)
    assert tiny_net.version > v0


def test_set_load_creates_when_absent(tiny_net):
    tiny_net.set_load(0, 5.0, 1.0)
    assert tiny_net.loads_at_bus(0)[0].pd_mw == pytest.approx(5.0)


def test_set_load_preserves_power_factor(tiny_net):
    # bus1 has 60 MW / 20 MVAr; doubling P should double Q.
    tiny_net.set_load(1, 120.0)
    loads = tiny_net.loads_at_bus(1)
    assert sum(ld.pd_mw for ld in loads) == pytest.approx(120.0)
    assert sum(ld.qd_mvar for ld in loads) == pytest.approx(40.0)


def test_set_load_zeroes_extra_loads():
    net = Network()
    net.add_bus()
    net.add_bus()
    net.buses[0].bus_type = BusType.SLACK
    net.add_load(1, pd_mw=10.0)
    net.add_load(1, pd_mw=20.0)
    net.set_load(1, 12.0, 3.0)
    loads = net.loads_at_bus(1)
    assert sum(ld.pd_mw for ld in loads) == pytest.approx(12.0)


def test_scale_loads(tiny_net):
    tiny_net.scale_loads(0.5)
    assert tiny_net.total_load_mw() == pytest.approx(40.0)


def test_scale_loads_negative_rejected(tiny_net):
    with pytest.raises(ValueError):
        tiny_net.scale_loads(-1.0)


def test_set_branch_status(tiny_net):
    tiny_net.set_branch_status(0, False)
    assert not tiny_net.branches[0].in_service
    assert tiny_net.in_service_branch_ids() == [1, 2]
    tiny_net.set_branch_status(0, True)
    assert tiny_net.branches[0].in_service


def test_set_branch_status_bad_id(tiny_net):
    with pytest.raises(IndexError):
        tiny_net.set_branch_status(99, False)


def test_find_branch_either_orientation(tiny_net):
    assert tiny_net.find_branch(0, 1) == 0
    assert tiny_net.find_branch(1, 0) == 0


def test_find_branch_missing(tiny_net):
    net = tiny_net
    with pytest.raises(KeyError):
        net.find_branch(0, 99)


def test_copy_is_independent(tiny_net):
    clone = tiny_net.copy()
    clone.set_load(1, 999.0)
    assert tiny_net.loads_at_bus(1)[0].pd_mw == pytest.approx(60.0)


_COMPONENT_LISTS = ("buses", "gens", "loads", "branches")


def _records(net):
    return [c for name in _COMPONENT_LISTS for c in getattr(net, name)]


def _other(value):
    """A different value of the same immutable kind."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, enum.Enum):
        return next(m for m in type(value) if m is not value)
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "_edited"
    if isinstance(value, tuple):
        return value + (1.0,)
    raise TypeError(f"no edit rule for {type(value).__name__}")


@pytest.fixture(params=["tiny", "ieee14", "ieee30", "ieee118"])
def any_net(request, tiny_net):
    return tiny_net if request.param == "tiny" else load_case(request.param)


def test_copy_serializes_identically(any_net):
    before = to_matpower(any_net)
    clone = any_net.copy()
    assert to_matpower(clone) == before
    assert to_matpower(any_net) == before
    assert clone.bus_zones() == any_net.bus_zones()


def test_copy_edits_never_reach_the_original(any_net):
    snapshot = [dataclasses.asdict(c) for c in _records(any_net)]
    meta = dataclasses.asdict(any_net.metadata)
    clone = any_net.copy()
    clone.metadata.extras["edited"] = True
    clone.set_bus_zones({0: "edited"})
    for original, twin in zip(_records(any_net), _records(clone)):
        assert twin is not original and type(twin) is type(original)
        for f in dataclasses.fields(twin):
            setattr(twin, f.name, _other(getattr(twin, f.name)))
    assert [dataclasses.asdict(c) for c in _records(any_net)] == snapshot
    assert dataclasses.asdict(any_net.metadata) == meta
    assert any_net.bus_zones()[0] != "edited"


def test_component_fields_are_immutable(any_net):
    """``Network.copy`` clones records shallowly, which is a full copy
    only while every field holds an immutable value: a mutable field
    added later must fail here instead of leaking edits between copies."""
    for record in _records(any_net):
        for f in dataclasses.fields(record):
            value = getattr(record, f.name)
            assert isinstance(value, (bool, int, float, str, enum.Enum, tuple)), (
                type(record).__name__, f.name, type(value).__name__
            )
            if isinstance(value, tuple):
                assert all(isinstance(v, (int, float)) for v in value)


def test_compile_caches_until_touch(tiny_net):
    arr1 = tiny_net.compile()
    arr2 = tiny_net.compile()
    assert arr1 is arr2
    tiny_net.touch()
    assert tiny_net.compile() is not arr1


def test_compile_per_unit_loads(tiny_net):
    arr = tiny_net.compile()
    assert arr.pd[1] == pytest.approx(0.6)
    assert arr.qd[1] == pytest.approx(0.2)


def test_compile_excludes_out_of_service_branch(tiny_net):
    tiny_net.set_branch_status(1, False)
    arr = tiny_net.compile()
    assert arr.n_branch == 2
    assert 1 not in arr.branch_ids


def test_compile_excludes_out_of_service_gen(tiny_net):
    tiny_net.gens[1].in_service = False
    tiny_net.touch()
    arr = tiny_net.compile()
    assert arr.n_gen == 1


def test_compile_pv_bus_voltage_seeded_from_vg(tiny_net):
    arr = tiny_net.compile()
    assert arr.vm0[2] == pytest.approx(1.01)


def test_compile_empty_network_raises():
    with pytest.raises(ValueError, match="empty"):
        Network().compile()


def test_gen_connection_matrix(tiny_net):
    arr = tiny_net.compile()
    cg = arr.gen_connection_matrix().toarray()
    assert cg.shape == (3, 2)
    assert cg[0, 0] == 1.0
    assert cg[2, 1] == 1.0
    assert np.count_nonzero(cg) == 2


def test_summary_matches_components(case14):
    s = case14.summary()
    assert s["bus"] == 14
    assert s["gen"] == 5
    assert s["load"] == 11
    assert s["ac_line"] == 17
    assert s["transformer"] == 3
    assert s["total_load_mw"] == pytest.approx(259.0)
