"""Critical-element ranking and the composite-key contingency cache."""

import dataclasses

import pytest

from repro.contingency import (
    ContingencyCache,
    network_content_hash,
    rank_critical_elements,
    run_n_minus_1,
)


@pytest.fixture
def report118(case118):
    return run_n_minus_1(case118)


class TestRanking:
    def test_rank_order_by_severity(self, report118):
        cr = rank_critical_elements(report118, top_n=5)
        sevs = [r.severity for r in cr.ranked]
        assert sevs == sorted(sevs, reverse=True)
        assert [r.rank for r in cr.ranked] == [1, 2, 3, 4, 5]

    def test_top_n_respected(self, report118):
        assert len(rank_critical_elements(report118, top_n=3).ranked) == 3

    def test_justifications_are_comparative(self, report118):
        cr = rank_critical_elements(report118, top_n=5)
        assert "Ranks #1" in cr.ranked[0].justification
        assert "vs" in cr.ranked[0].justification

    def test_recommendations_nonempty(self, report118):
        cr = rank_critical_elements(report118)
        assert cr.recommendations

    def test_recurring_bottlenecks_counted(self, report118):
        cr = rank_critical_elements(report118)
        if cr.recurring_bottlenecks:
            bid, count = cr.recurring_bottlenecks[0]
            assert count >= 1

    def test_peak_metric_differs_from_severity(self, report118):
        bal = rank_critical_elements(report118, metric="severity")
        peak = rank_critical_elements(report118, metric="peak_overload")
        # Peak ranking leads with the single largest overload.
        worst = max(
            (o for o in report118.outcomes if o.converged and not o.islanded),
            key=lambda o: o.max_loading_percent,
        )
        assert peak.critical_branch_ids[0] == worst.branch_id
        assert peak.max_overload_percent >= bal.max_overload_percent

    def test_unknown_metric_rejected(self, report118):
        with pytest.raises(ValueError, match="metric"):
            rank_critical_elements(report118, metric="nonsense")

    def test_islanding_excludable(self, case14):
        rep = run_n_minus_1(case14)
        with_isl = rank_critical_elements(rep, include_islanding=True)
        without = rank_critical_elements(rep, include_islanding=False)
        assert all(not r.outcome.islanded for r in without.ranked)
        assert len(with_isl.ranked) == len(without.ranked) == 5

    def test_secure_system_recommendation(self, tiny_net):
        rep = run_n_minus_1(tiny_net)
        cr = rank_critical_elements(rep)
        assert cr.recommendations  # always says *something* actionable


class TestContentHash:
    def test_stable_for_copies(self, case30):
        assert network_content_hash(case30) == network_content_hash(case30.copy())

    def test_changes_on_load_edit(self, case30):
        h0 = network_content_hash(case30)
        case30.set_load(3, 55.0)
        assert network_content_hash(case30) != h0

    def test_changes_on_topology_edit(self, case30):
        h0 = network_content_hash(case30)
        case30.set_branch_status(2, False)
        assert network_content_hash(case30) != h0

    def test_restores_after_revert(self, case30):
        h0 = network_content_hash(case30)
        case30.set_branch_status(2, False)
        case30.set_branch_status(2, True)
        assert network_content_hash(case30) == h0


class TestCache:
    def test_miss_then_hit(self, case30):
        from repro.contingency import analyze_single_outage

        cache = ContingencyCache()
        assert cache.get(case30, 4) is None
        out = analyze_single_outage(case30, 4)
        cache.put(case30, out)
        assert cache.get(case30, 4) is out
        assert cache.hits == 1
        assert cache.misses == 1

    def test_invalidated_by_modification(self, case30):
        from repro.contingency import analyze_single_outage

        cache = ContingencyCache()
        cache.put(case30, analyze_single_outage(case30, 4))
        case30.set_load(3, 123.0)
        assert cache.get(case30, 4) is None

    def test_lookup_sweep_partition(self, case30):
        from repro.contingency import analyze_single_outage

        cache = ContingencyCache()
        for bid in (1, 2):
            cache.put(case30, analyze_single_outage(case30, bid))
        found, missing = cache.lookup_sweep(case30, [1, 2, 3, 4])
        assert set(found) == {1, 2}
        assert missing == [3, 4]

    def test_stats(self, case30):
        cache = ContingencyCache()
        cache.get(case30, 0)
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.0

    def test_clear(self, case30):
        from repro.contingency import analyze_single_outage

        cache = ContingencyCache()
        cache.put(case30, analyze_single_outage(case30, 1))
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0

    def test_full_cache_drops_every_entry(self, case30):
        from repro.contingency import analyze_single_outage

        cap = ContingencyCache.MAX_ENTRIES
        out = analyze_single_outage(case30, 4)

        def outcomes(ids):
            return [dataclasses.replace(out, branch_id=b) for b in ids]

        cache = ContingencyCache()
        cache.put_many(case30, outcomes(range(cap)))
        assert len(cache) == cap
        assert cache.get(case30, 0) is not None
        # A put that finds the cache full drops every entry first.
        cache.put(case30, outcomes([cap])[0])
        assert len(cache) == 1
        assert cache.get(case30, 0) is None
        assert cache.get(case30, cap).branch_id == cap
        cache.put_many(case30, outcomes(range(cap - 1)))
        assert len(cache) == cap
        cache.put_many(case30, outcomes([cap + 1, cap + 2]))
        assert len(cache) == 2
        # The drop is not a reset: hit and miss counts keep running.
        assert (cache.hits, cache.misses) == (2, 1)


class TestContentHashMemo:
    """The digest is memoised behind the network's mutation counter."""

    def test_memo_skips_reserialization(self, case30, monkeypatch):
        import repro.grid.io as io_mod

        calls = {"n": 0}
        real = io_mod.to_matpower

        def counting(net):
            calls["n"] += 1
            return real(net)

        monkeypatch.setattr(io_mod, "to_matpower", counting)
        first = network_content_hash(case30)
        for _ in range(5):
            assert network_content_hash(case30) == first
        assert calls["n"] == 1

    def test_memo_invalidated_by_touch(self, case30, monkeypatch):
        import repro.grid.io as io_mod

        calls = {"n": 0}
        real = io_mod.to_matpower

        def counting(net):
            calls["n"] += 1
            return real(net)

        monkeypatch.setattr(io_mod, "to_matpower", counting)
        before = network_content_hash(case30)
        case30.set_load(3, 55.0)
        after = network_content_hash(case30)
        assert calls["n"] == 2
        assert before != after

    def test_memo_not_shared_across_copies(self, case30):
        a = network_content_hash(case30)
        clone = case30.copy()
        assert network_content_hash(clone) == a
        clone.set_load(3, 77.0)
        assert network_content_hash(clone) != a
        # The original's memo still matches its unchanged content.
        assert network_content_hash(case30) == a

    def test_sweep_lookup_single_hash(self, case30, monkeypatch):
        import repro.grid.io as io_mod

        calls = {"n": 0}
        real = io_mod.to_matpower

        def counting(net):
            calls["n"] += 1
            return real(net)

        monkeypatch.setattr(io_mod, "to_matpower", counting)
        cache = ContingencyCache()
        cache.lookup_sweep(case30, list(range(20)))
        cache.lookup_sweep(case30, list(range(20)))
        assert calls["n"] == 1
