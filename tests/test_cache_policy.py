"""One cache policy: the cached N-1 sweep, the snapshot's content digest,
and the one eviction rule every in-process cache shares."""

import itertools
import json
import pickle

import pytest

from repro.cache import BoundedStore
from repro.contingency import ContingencyCache, nminus1, run_n_minus_1
from repro.core.agents.acopf_agent import build_acopf_registry
from repro.core.agents.contingency_agent import build_ca_registry
from repro.core.agents.study_agent import build_study_registry
from repro.core.context import AgentContext
from repro.grid import graph as gridgraph
from repro.grid import io as gridio
from repro.grid.cases import available_cases
from repro.scenarios import BranchOutage, Scenario, StudyConfig
from repro.scenarios import executor as executor_mod
from repro.scenarios.runner import TopologyCache, _WorkerState


def _ca(case_name):
    context = AgentContext()
    registry = build_ca_registry(context)
    registry.call("solve_base_case", {"case_name": case_name})
    return context, registry


def _call(registry, tool, **arguments):
    return json.loads(registry.call(tool, arguments))


@pytest.fixture
def counted_serialisations(monkeypatch):
    calls = {"n": 0}
    real = gridio.to_matpower

    def counting(net):
        calls["n"] += 1
        return real(net)

    monkeypatch.setattr(gridio, "to_matpower", counting)
    return calls


# ----------------------------------------------------------------------
# the cached sweep keys its outcomes on the limits they were judged by
# ----------------------------------------------------------------------


class TestCachedSweep:
    def test_second_threshold_matches_a_fresh_context(self):
        _, registry = _ca("ieee30")
        first = _call(registry, "run_n1_contingency_analysis", overload_threshold=100)
        second = _call(registry, "run_n1_contingency_analysis", overload_threshold=60)
        _, fresh_registry = _ca("ieee30")
        fresh = _call(fresh_registry, "run_n1_contingency_analysis", overload_threshold=60)
        assert first["n_violations"] < fresh["n_violations"] == 45
        assert second["n_violations"] == 45
        assert (second["cache_hits"], second["cache_misses"]) == (0, 45)
        assert second["critical"] == fresh["critical"]
        again = _call(registry, "run_n1_contingency_analysis", overload_threshold=60)
        assert (again["cache_hits"], again["cache_misses"]) == (45, 0)
        assert again["critical"] == fresh["critical"]

    def test_specific_outage_after_a_lower_threshold_sweep(self):
        _, registry = _ca("ieee118")
        _call(registry, "run_n1_contingency_analysis", overload_threshold=97)
        after = _call(registry, "analyze_specific_contingency", branch_id=8)
        _, fresh_registry = _ca("ieee118")
        fresh = _call(fresh_registry, "analyze_specific_contingency", branch_id=8)
        assert {b for b, _ in after["overloads"]} == {b for b, _ in fresh["overloads"]}
        assert all(pct > 100.0 for _, pct in after["overloads"])

    def test_all_hit_sweep_builds_nothing(self, case30, monkeypatch):
        cache = ContingencyCache()
        first = run_n_minus_1(case30, cache=cache)
        assert (first.cache_hits, first.cache_misses) == (0, first.n_contingencies)

        def forbidden(*args, **kwargs):
            raise AssertionError("an all-hit sweep must not build this")

        monkeypatch.setattr(nminus1, "AcKernel", forbidden)
        monkeypatch.setattr(gridgraph, "bridge_branches", forbidden)
        second = run_n_minus_1(case30, base_result=first.base, cache=cache)
        assert (second.cache_hits, second.cache_misses) == (first.n_contingencies, 0)
        assert second.outcomes == first.outcomes

    def test_other_limits_miss(self, case30):
        cache = ContingencyCache()
        base = run_n_minus_1(case30, cache=cache)
        for limits in ({"overload_threshold": 90.0}, {"vmin": 0.95}, {"vmax": 1.05}):
            again = run_n_minus_1(case30, base_result=base.base, cache=cache, **limits)
            assert again.cache_hits == 0, limits

    def test_outcomes_follow_the_requested_order(self, case30):
        cache = ContingencyCache()
        run_n_minus_1(case30, branch_ids=[5, 9], cache=cache)
        report = run_n_minus_1(case30, branch_ids=[9, 3, 5], cache=cache)
        assert [o.branch_id for o in report.outcomes] == [9, 3, 5]
        assert (report.cache_hits, report.cache_misses) == (2, 1)


# ----------------------------------------------------------------------
# the content digest lives in the network's snapshot
# ----------------------------------------------------------------------


class TestContentDigest:
    def test_one_serialisation_per_version(self, case30, counted_serialisations):
        first = case30.content_hash()
        case30.compile()
        assert case30.content_hash() == first
        assert counted_serialisations["n"] == 1
        case30.touch()
        assert case30.content_hash() == first
        assert counted_serialisations["n"] == 2

    def test_outage_digest_equals_a_fresh_copy(self, case30, counted_serialisations):
        parent = case30.content_hash()
        case30.admittances()  # a complete snapshot: the outage derives from it
        case30.set_branch_status(4, False)
        outage = case30.content_hash()
        assert outage != parent
        assert outage == case30.copy().content_hash()
        case30.set_branch_status(4, True)
        calls = counted_serialisations["n"]
        assert case30.content_hash() == parent
        assert counted_serialisations["n"] == calls

    def test_zone_labels_reach_the_digest(self, case30):
        before = case30.content_hash()
        case30.set_bus_zones({0: "north", 5: "south"})
        assert case30.content_hash() != before
        assert case30.content_hash() == case30.copy().content_hash()

    def test_digest_is_byte_identical_to_the_export(self, case30):
        import hashlib

        blob = json.dumps(gridio.to_matpower(case30), sort_keys=True, separators=(",", ":"))
        assert case30.content_hash() == hashlib.sha256(blob.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# one eviction rule
# ----------------------------------------------------------------------


class TestEvictionRule:
    def test_full_store_drops_every_entry_and_keeps_counts(self):
        store = BoundedStore(3)
        for k in "abc":
            store.put(k, k.upper())
        assert store.get("a") == "A" and store.get("z") is None
        store.put("a", "A2")  # a known key never evicts
        assert len(store) == 3
        store.put("d", "D")
        assert len(store) == 1 and store.get("a") is None
        assert (store.hits, store.misses) == (1, 2)
        store.clear()
        assert (len(store), store.hits, store.misses) == (0, 0, 0)

    def test_topology_cache_drops_every_entry(self, case14):
        cache = TopologyCache(64, lambda net: object())
        pairs = itertools.islice(itertools.combinations(range(case14.n_branch), 2), 65)
        nets = [
            Scenario("o", (BranchOutage(a), BranchOutage(b))).realize(case14)
            for a, b in pairs
        ]
        kept = [cache.get(net) for net in nets[:64]]
        assert len(cache) == 64 and cache.get(nets[0]) is kept[0]
        cache.get(nets[64])
        assert len(cache) == 1
        assert cache.get(nets[0]) is not kept[0]
        assert (cache.hits, cache.misses) == (1, 66)

    def test_worker_caps(self, case14):
        state = _WorkerState(case14, StudyConfig(analysis="screening"))
        assert (state.dc_kernels.cap, state.ac_kernels.cap, state.factors.cap) == (64, 64, 256)
        assert state.ca_cache.cap == ContingencyCache.MAX_ENTRIES == 20_000

    def test_fifth_study_drops_all_resident_states(self, case14, monkeypatch):
        assert executor_mod._STATES.cap == 4
        monkeypatch.setattr(executor_mod, "_STATES", BoundedStore(4))
        blob = pickle.dumps(case14)
        configs = [StudyConfig(analysis="dc", top_n=n) for n in range(1, 6)]
        keys = [executor_mod.study_state_key(case14, c) for c in configs]
        for key, config in zip(keys[:4], configs):
            executor_mod._run_shared_chunk(key, blob, config, [])
        states = executor_mod._STATES
        resident = states.get(keys[0])
        executor_mod._run_shared_chunk(keys[0], blob, configs[0], [])
        assert len(states) == 4 and states.get(keys[0]) is resident
        executor_mod._run_shared_chunk(keys[4], blob, configs[4], [])
        assert len(states) == 1
        assert all(states.get(k) is None for k in keys[:4])


# ----------------------------------------------------------------------
# an unknown case stays inside the tool registry
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "build, tool, arguments",
    [
        (build_acopf_registry, "solve_acopf_case", {}),
        (build_ca_registry, "solve_base_case", {}),
        (build_study_registry, "run_load_sweep_study", {}),
        (build_study_registry, "run_monte_carlo_study", {}),
        (build_study_registry, "run_outage_study", {}),
        (build_study_registry, "run_daily_profile_study", {}),
        (build_study_registry, "watch_telemetry", {}),
    ],
)
def test_unknown_case_is_a_tool_error(build, tool, arguments):
    registry = build(AgentContext())
    payload = _call(registry, tool, case_name="ieee999", **arguments)
    assert "unknown case 'ieee999'" in payload["error"]
    assert all(name in payload["error"] for name in available_cases())
    (entry,) = registry.failures()
    assert entry.tool == tool and not entry.ok
