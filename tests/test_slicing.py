"""Dimensional (tag-sliced) study analytics, end to end.

Covers the sliced-aggregation vertical: the :class:`SlicedReducer`'s
grouping and bounded-cardinality overflow, bit-identical per-slice
aggregates across serial / pooled / streamed execution, correlated
zonal Monte Carlo draws (PSD validation, prefix-stable determinism,
``hot_zone`` tagging), the store's aggregate-index sidecars (index-only
``compare``/``latest_summary``, ``verify`` staleness reporting and
rebuild, ``prune`` cleanup), and the conversational surface (NLU
``slice_by`` extraction, sliced narration, the service API, the CLI).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.scenarios import (
    OTHER_SLICE,
    BatchStudyRunner,
    Scenario,
    SlicedReducer,
    SliceSpec,
    StudyConfig,
    StudyReducer,
    ZonalLoadScale,
    aggregate_study,
    daily_profile,
    default_slice_by,
    load_sweep,
    monte_carlo_ensemble,
    resolve_slice_by,
    slice_key,
    uniform_correlation,
)
from repro.scenarios.runner import ScenarioResult
from repro.service import StudyExecutor
from repro.service.store import ResultStore


def synth_results(n: int, *, tag: str = "hour_of_day", n_values: int = 24):
    """Deterministic synthetic per-scenario records with a slice tag."""
    out = []
    for i in range(n):
        value = i % n_values
        out.append(
            ScenarioResult(
                name=f"s{i:05d}",
                tags={"family": "profile", tag: value, "index": i},
                converged=True,
                objective_cost=1000.0 + 10.0 * value + 0.1 * i,
                max_loading_percent=50.0 + value + (i % 7),
                min_voltage_pu=1.0 - 0.001 * value,
                n_voltage_violations=1 if value >= 18 else 0,
            )
        )
    return out


# ----------------------------------------------------------------------
# SliceSpec and slice keys
# ----------------------------------------------------------------------


class TestSliceSpec:
    def test_validates_cardinality_cap(self):
        with pytest.raises(ValueError, match="cardinality cap"):
            SliceSpec(by=("hour",), max_values=0)

    def test_rejects_duplicate_dimensions(self):
        with pytest.raises(ValueError, match="duplicate"):
            SliceSpec(by=("hour", "hour"))

    def test_rejects_empty_dimension_names(self):
        with pytest.raises(ValueError, match="non-empty"):
            SliceSpec(by=("",))

    def test_rejects_bare_string_dimensions(self):
        # tuple("scale") would mean five one-letter dimensions.
        with pytest.raises(ValueError, match="did you mean"):
            SliceSpec(by="scale")

    def test_study_config_rejects_bare_string_slice_by(self):
        # Front ends parse strings through resolve_slice_by (covered by
        # test_aliases_and_comma_lists); the config itself takes names.
        with pytest.raises(ValueError, match="did you mean"):
            StudyConfig(analysis="powerflow", slice_by="hour, zone")

    def test_truthiness_tracks_dimensions(self):
        assert not SliceSpec()
        assert SliceSpec(by=("scale",))

    def test_slice_key_formats(self):
        assert slice_key(3) == "3"
        assert slice_key("peak") == "peak"
        assert slice_key(0.8) == "0.8"
        # %g keeps linspace artefacts readable and stable.
        assert slice_key(0.8500000000000001) == "0.85"


class TestResolveSliceBy:
    def test_none_infers_from_family(self):
        assert resolve_slice_by(None, "profile") == ("hour_of_day",)
        # One spelling per family: the agent's old tool-name kinds are gone.
        assert resolve_slice_by(None, "daily_profile") == ()
        assert resolve_slice_by(None, "sweep") == ("scale",)
        assert resolve_slice_by(None, "monte_carlo") == ()

    def test_explicit_none_disables(self):
        assert resolve_slice_by("none", "profile") == ()
        assert resolve_slice_by([], "profile") == ()

    def test_aliases_and_comma_lists(self):
        assert resolve_slice_by("hour", "monte_carlo") == ("hour_of_day",)
        assert resolve_slice_by("zone, scale") == ("hot_zone", "scale")
        assert resolve_slice_by(["hour", "hour"]) == ("hour_of_day",)

    def test_default_slice_by_unknown_family_is_empty(self):
        assert default_slice_by("outage") == ()
        assert default_slice_by("nonsense") == ()

    def test_zonal_monte_carlo_implies_hot_zone(self):
        assert default_slice_by("monte_carlo", n_zones=4) == ("hot_zone",)
        assert default_slice_by("monte_carlo", n_zones=0) == ()
        assert default_slice_by("outage", n_zones=4) == ()
        assert resolve_slice_by(None, "monte_carlo", n_zones=3) == ("hot_zone",)
        # An explicit request always wins over the zone inference.
        assert resolve_slice_by("none", "monte_carlo", n_zones=3) == ()

    def test_expand_rejects_more_zones_than_buses(self, case14):
        from repro.scenarios import StudyRequest, expand_study_kind

        request = StudyRequest(
            case_name="ieee14", kind="monte_carlo", n_scenarios=4,
            n_zones=case14.n_bus + 1,
        )
        with pytest.raises(ValueError, match="at least one bus"):
            expand_study_kind(request, case14)


# ----------------------------------------------------------------------
# SlicedReducer semantics
# ----------------------------------------------------------------------


class TestSlicedReducer:
    def test_empty_spec_degenerates_to_global_reducer(self):
        results = synth_results(100)
        sliced = SlicedReducer()
        plain = StudyReducer()
        sliced.add_many(results)
        plain.add_many(results)
        assert sliced.result().to_dict() == plain.result().to_dict()
        assert "slices" not in sliced.result().to_dict()

    def test_cells_match_manual_groupby(self):
        results = synth_results(200)
        sliced = SlicedReducer(SliceSpec(by=("hour_of_day",)))
        sliced.add_many(results)
        block = sliced.result().slices["hour_of_day"]
        assert block["n_cells"] == 24
        assert block["n_unsliced"] == 0
        assert block["n_overflow_values"] == 0
        for cell in block["cells"]:
            value = int(cell["value"])
            subset = [r for r in results if r.tags["hour_of_day"] == value]
            expected = aggregate_study(subset)
            assert cell["n"] == expected.n_scenarios
            assert cell["n_converged"] == expected.n_converged
            assert cell["violation_rate"] == round(expected.violation_rate, 4)
            assert cell["cost_stats"] == expected.cost_stats
            assert cell["loading_stats"] == expected.loading_stats

    def test_cells_keep_first_seen_order(self):
        results = synth_results(48)
        sliced = SlicedReducer(SliceSpec(by=("hour_of_day",)))
        sliced.add_many(results)
        values = [c["value"] for c in sliced.result().slices["hour_of_day"]["cells"]]
        assert values == [str(v) for v in range(24)]

    def test_cardinality_overflow_folds_into_other(self):
        results = synth_results(100, n_values=50)
        sliced = SlicedReducer(SliceSpec(by=("hour_of_day",), max_values=8))
        sliced.add_many(results)
        block = sliced.result().slices["hour_of_day"]
        values = [c["value"] for c in block["cells"]]
        # First 8 observed values get cells; the other 42 share __other__.
        assert values == [str(v) for v in range(8)] + [OTHER_SLICE]
        assert block["n_overflow_values"] == 42
        assert sum(c["n"] for c in block["cells"]) == 100
        other = block["cells"][-1]
        assert other["n"] == sum(1 for r in results if r.tags["hour_of_day"] >= 8)

    def test_overflow_value_tracking_is_bounded(self):
        from repro.scenarios import aggregate as agg_mod

        # Slicing by an unbounded tag (the draw index) must not grow the
        # reducer with the ensemble: the distinct-overflow diagnostic
        # saturates at its cap instead.
        results = synth_results(agg_mod.OVERFLOW_VALUE_TRACK_CAP + 200, tag="draw",
                                n_values=agg_mod.OVERFLOW_VALUE_TRACK_CAP + 200)
        sliced = SlicedReducer(SliceSpec(by=("draw",), max_values=8))
        sliced.add_many(results)
        block = sliced.result().slices["draw"]
        assert block["n_overflow_values"] == agg_mod.OVERFLOW_VALUE_TRACK_CAP
        assert block["overflow_values_saturated"] is True
        assert len(sliced._overflow["draw"]) == agg_mod.OVERFLOW_VALUE_TRACK_CAP

    def test_overflow_split_is_deterministic(self):
        results = synth_results(150, n_values=40)
        dicts = []
        for _ in range(2):
            sliced = SlicedReducer(SliceSpec(by=("hour_of_day",), max_values=5))
            sliced.add_many(results)
            dicts.append(sliced.result().to_dict())
        assert dicts[0] == dicts[1]

    def test_missing_tag_counts_as_unsliced(self):
        results = synth_results(10)
        for r in results[:4]:
            del r.tags["hour_of_day"]
        sliced = SlicedReducer(SliceSpec(by=("hour_of_day",)))
        sliced.add_many(results)
        block = sliced.result().slices["hour_of_day"]
        assert block["n_unsliced"] == 4
        assert sum(c["n"] for c in block["cells"]) == 6
        # The global aggregate still sees every result.
        assert sliced.result().n_scenarios == 10

    def test_multiple_dimensions(self):
        results = synth_results(60)
        for r in results:
            r.tags["parity"] = r.tags["index"] % 2
        sliced = SlicedReducer(SliceSpec(by=("hour_of_day", "parity")))
        sliced.add_many(results)
        slices = sliced.result().slices
        assert set(slices) == {"hour_of_day", "parity"}
        assert slices["parity"]["n_cells"] == 2

    def test_aggregate_study_slice_spec_wrapper(self):
        results = synth_results(80)
        sliced = SlicedReducer(SliceSpec(by=("hour_of_day",)))
        sliced.add_many(results)
        agg = aggregate_study(results, slice_spec=SliceSpec(by=("hour_of_day",)))
        assert agg.to_dict() == sliced.result().to_dict()


# ----------------------------------------------------------------------
# execution-path identity (the tentpole acceptance property)
# ----------------------------------------------------------------------


class TestSliceExecutionIdentity:
    def test_serial_pooled_streamed_bit_identical(self, case14):
        scenarios = daily_profile(steps=36)
        config = StudyConfig(analysis="powerflow", slice_by=("hour_of_day",))
        serial = BatchStudyRunner(config, n_jobs=1).run(case14, scenarios)
        pooled = BatchStudyRunner(config, n_jobs=2).run(case14, scenarios)
        streamed = BatchStudyRunner(config, n_jobs=2).run(
            case14, scenarios, keep_results=False
        )
        agg_serial = serial.aggregate().to_dict()
        assert agg_serial == pooled.aggregate().to_dict()
        assert agg_serial == streamed.aggregate().to_dict()
        assert list(agg_serial["slices"]) == ["hour_of_day"]
        assert agg_serial["slices"]["hour_of_day"]["n_cells"] == 24
        # JSON round-trip equality (what the store index persists).
        assert json.loads(json.dumps(agg_serial)) == json.loads(
            json.dumps(streamed.aggregate().to_dict())
        )

    def test_shared_executor_matches_serial(self, case14):
        scenarios = load_sweep(0.9, 1.1, 12)
        config = StudyConfig(analysis="powerflow", slice_by=("scale",))
        serial = BatchStudyRunner(config).run(case14, scenarios)
        with StudyExecutor(max_workers=2) as executor:
            shared = BatchStudyRunner(config, executor=executor).run(
                case14, scenarios, keep_results=False
            )
        assert serial.aggregate().to_dict() == shared.aggregate().to_dict()

    def test_streamed_slices_keep_residency_bounded(self, case14):
        scenarios = daily_profile(steps=120)
        study = BatchStudyRunner(
            StudyConfig(analysis="powerflow", slice_by=("hour_of_day",)),
            n_jobs=1,
            chunk_size=10,
            worst_k=5,
        ).run(case14, scenarios, keep_results=False)
        assert study.results == []
        assert study.peak_resident_results <= 10 + 5
        assert study.aggregate().slices["hour_of_day"]["n_cells"] == 24

    def test_kept_results_reaggregate_with_slices(self, case14):
        scenarios = daily_profile(steps=12)
        study = BatchStudyRunner(
            StudyConfig(analysis="powerflow", slice_by=("hour_of_day",)),
        ).run(case14, scenarios)
        stream_agg = study.aggregate().to_dict()
        # Recompute from the materialised records through the wrapper.
        recomputed = aggregate_study(
            study.results, slice_spec=SliceSpec(by=("hour_of_day",))
        )
        assert recomputed.to_dict() == stream_agg

    def test_invalid_slice_spec_rejected_before_dispatch(self):
        with pytest.raises(ValueError, match="duplicate"):
            StudyConfig(slice_by=("hour", "hour"))


# ----------------------------------------------------------------------
# correlated Monte Carlo draws
# ----------------------------------------------------------------------


class TestCorrelatedMonteCarlo:
    def test_uniform_correlation_shape(self):
        corr = uniform_correlation(3, 0.5)
        assert corr == [[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]]

    def test_rejects_non_psd_matrix(self):
        with pytest.raises(ValueError, match="positive semi-definite"):
            monte_carlo_ensemble(n=4, correlation=[[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_asymmetric_and_bad_diagonal(self):
        with pytest.raises(ValueError, match="symmetric"):
            monte_carlo_ensemble(n=4, correlation=[[1.0, 0.2], [0.4, 1.0]])
        with pytest.raises(ValueError, match="unit diagonal"):
            monte_carlo_ensemble(n=4, correlation=[[2.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ValueError, match="square"):
            monte_carlo_ensemble(n=4, correlation=[[1.0, 0.0]])

    def test_singular_psd_matrix_accepted(self):
        # Perfectly correlated zones: PSD but singular.
        stream = monte_carlo_ensemble(n=3, correlation=uniform_correlation(3, 1.0))
        for s in stream:
            factors = s.perturbations[0].factors
            assert max(factors) == pytest.approx(min(factors))

    def test_draws_are_prefix_stable_and_deterministic(self):
        corr = uniform_correlation(4, 0.6)
        small = list(monte_carlo_ensemble(n=5, sigma=0.1, seed=9, correlation=corr))
        large = list(monte_carlo_ensemble(n=40, sigma=0.1, seed=9, correlation=corr))
        for a, b in zip(small, large):
            assert a.perturbations == b.perturbations
            assert a.tags == b.tags
        again = list(monte_carlo_ensemble(n=5, sigma=0.1, seed=9, correlation=corr))
        assert [s.perturbations for s in again] == [s.perturbations for s in small]

    def test_tags_carry_zone_coordinates(self):
        stream = monte_carlo_ensemble(
            n=6, sigma=0.2, seed=1, correlation=uniform_correlation(3, 0.4)
        )
        for s in stream:
            factors = s.perturbations[0].factors
            assert len(factors) == 3
            assert s.tags["n_zones"] == 3
            assert s.tags["hot_zone"] == int(np.argmax(factors))

    def test_zonal_scale_partitions_buses(self, case14):
        pert = ZonalLoadScale(factors=(2.0, 0.5))
        net = Scenario(name="z", perturbations=(pert,)).realize(case14)
        half = case14.n_bus / 2
        for before, after in zip(case14.loads, net.loads):
            factor = 2.0 if before.bus < half else 0.5
            assert after.pd_mw == pytest.approx(before.pd_mw * factor)

    def test_zonal_scale_rejects_negative_factor(self, case14):
        from repro.scenarios import ScenarioError

        with pytest.raises(ScenarioError, match=">= 0"):
            Scenario(
                name="bad", perturbations=(ZonalLoadScale(factors=(-1.0,)),)
            ).realize(case14)

    def test_correlated_study_slices_by_hot_zone(self, case14):
        scenarios = monte_carlo_ensemble(
            n=30, sigma=0.15, seed=3, correlation=uniform_correlation(4, 0.3)
        )
        study = BatchStudyRunner(
            StudyConfig(analysis="powerflow", slice_by=("hot_zone",)),
        ).run(case14, scenarios)
        block = study.aggregate().slices["hot_zone"]
        assert 1 <= block["n_cells"] <= 4
        assert sum(c["n"] for c in block["cells"]) == 30

    def test_correlation_changes_draws(self):
        base = list(monte_carlo_ensemble(n=3, sigma=0.1, seed=0))
        corr = list(
            monte_carlo_ensemble(
                n=3, sigma=0.1, seed=0, correlation=uniform_correlation(2, 0.9)
            )
        )
        assert all(
            type(a.perturbations[0]) is not type(b.perturbations[0])
            for a, b in zip(base, corr)
        )


class TestProfileHourTags:
    def test_hourly_steps_tag_each_hour(self):
        tags = [s.tags for s in daily_profile(steps=24)]
        assert [t["hour_of_day"] for t in tags] == list(range(24))

    def test_subhourly_steps_bucket_into_24_hours(self):
        tags = [s.tags["hour_of_day"] for s in daily_profile(steps=96)]
        assert set(tags) == set(range(24))
        assert all(tags.count(h) == 4 for h in range(24))


# ----------------------------------------------------------------------
# store: aggregate-index sidecars
# ----------------------------------------------------------------------


@pytest.fixture
def sliced_store(tmp_path, case14):
    """A store holding two sliced daily-profile studies."""
    store = ResultStore(tmp_path / "store")
    runner = BatchStudyRunner(StudyConfig(analysis="powerflow", slice_by=("hour_of_day",)))
    keys = []
    for label, trough in (("day1", 0.65), ("day2", 0.75)):
        scenarios = daily_profile(steps=30, trough=trough)
        study = runner.run(case14, scenarios)
        keys.append(
            store.put(
                case14,
                runner.config,
                list(scenarios),
                study,
                study_kind="profile",
                label=label,
            )
        )
    return store, keys


class TestAggregateIndexSidecars:
    def test_put_writes_index_sidecar(self, sliced_store):
        store, keys = sliced_store
        for key in keys:
            index = json.loads(store._index_path(key).read_text())
            assert index["format"] == "gridmind-study-index-v1"
            assert index["key"] == key
            assert index["aggregate"]["slices"]["hour_of_day"]["n_cells"] == 24
            assert len(index["worst_scenarios"]) == 5

    def test_index_matches_payload_aggregate(self, sliced_store):
        store, keys = sliced_store
        index = store.aggregate_index(keys[0])
        rebuilt = store.rebuild_index(keys[0])
        assert index["aggregate"] == rebuilt["aggregate"]
        # And both match re-aggregating the loaded result set.
        assert (
            store.load_result(keys[0]).aggregate().to_dict()
            == index["aggregate"]
        )

    def test_compare_answers_without_reading_payloads(self, sliced_store):
        store, keys = sliced_store
        expected = store.compare(keys[0], keys[1])
        # Destroy every payload: only the meta + index sidecars survive.
        for path in store.root.glob("*.json"):
            path.write_text("NOT JSON")
        cmp = store.compare(keys[0], keys[1])
        assert cmp["aggregate_a"] == expected["aggregate_a"]
        assert cmp["delta"] == expected["delta"]
        assert "slices" in cmp["delta"]
        rows = cmp["delta"]["slices"]["hour_of_day"]
        assert len(rows) == 24
        assert all("violation_rate" in row for row in rows)

    def test_latest_summary_answers_from_index(self, sliced_store):
        store, keys = sliced_store
        expected = store.latest_summary()
        for path in store.root.glob("*.json"):
            path.write_text("NOT JSON")
        summary = store.latest_summary()
        assert summary == expected
        assert summary["study_key"] == keys[1]
        assert summary["aggregate"]["slices"]["hour_of_day"]["n_cells"] == 24
        assert summary["source"] == "result_store"

    def test_missing_index_rebuilt_on_demand(self, sliced_store):
        store, keys = sliced_store
        before = store.aggregate_index(keys[0])
        store._index_path(keys[0]).unlink()
        after = store.aggregate_index(keys[0])
        assert after["aggregate"] == before["aggregate"]
        assert store._index_path(keys[0]).exists()

    def test_verify_reports_missing_and_stale_indexes(self, sliced_store):
        store, keys = sliced_store
        report = store.verify()
        assert report["index_issues"] == []
        store._index_path(keys[0]).unlink()
        index = json.loads(store._index_path(keys[1]).read_text())
        index["results_digest"] = "0" * 16
        store._index_path(keys[1]).write_text(json.dumps(index))
        report = store.verify()
        issues = {i["key"]: i["issue"] for i in report["index_issues"]}
        assert issues == {keys[0]: "missing_index", keys[1]: "stale_index"}
        assert report["n_ok"] == 2  # payloads themselves are healthy

    def test_verify_rebuilds_indexes_on_demand(self, sliced_store):
        store, keys = sliced_store
        store._index_path(keys[0]).unlink()
        store._index_path(keys[1]).write_text("corrupt")
        report = store.verify(rebuild_indexes=True)
        assert report["n_indexes_rebuilt"] == 2
        assert all(i.get("rebuilt") for i in report["index_issues"])
        assert store.verify()["index_issues"] == []

    def test_prune_deletes_index_sidecars(self, sliced_store):
        store, keys = sliced_store
        report = store.prune(max_bytes=0)
        assert report["n_removed"] == 2
        assert list(store.root.glob("*.index")) == []
        assert list(store.root.glob("*.meta")) == []

    def test_orphan_indexes_reported(self, sliced_store):
        store, keys = sliced_store
        store._path(keys[0]).unlink()
        report = store.verify()
        assert report["orphan_indexes"] == [keys[0]]

    def test_predigest_payload_verifies_clean_after_rebuild(self, sliced_store):
        # PR-3-era payloads carry no results_digest; a rebuilt index must
        # verify as healthy, not report stale_index forever.
        store, keys = sliced_store
        for key in keys:
            payload = json.loads(store._path(key).read_text())
            payload.pop("results_digest", None)
            store._write_atomic(store._path(key), json.dumps(payload))
            store._index_path(key).unlink()
        first = store.verify(rebuild_indexes=True)
        assert first["n_indexes_rebuilt"] == 2
        assert store.verify()["index_issues"] == []

    def test_compare_survives_unwritable_store(self, sliced_store, monkeypatch):
        # A store this process cannot write to (foreign-owned, read-only
        # mount) with payloads but no indexes: compare/latest_summary are
        # read paths and must answer from in-memory recomputation.
        store, keys = sliced_store
        expected = store.compare(keys[0], keys[1])
        for key in keys:
            store._index_path(key).unlink()

        def refuse_writes(path, text):
            raise OSError("read-only store")

        monkeypatch.setattr(store, "_write_atomic", refuse_writes)
        cmp = store.compare(keys[0], keys[1])
        assert cmp["delta"] == expected["delta"]
        assert store.latest_summary()["study_key"] == keys[1]
        # verify(rebuild_indexes=True) must surface the failure instead.
        with pytest.raises(OSError, match="read-only"):
            store.verify(rebuild_indexes=True)

    def test_slice_declaration_does_not_fork_store_keys(self, tmp_path, case14):
        # Same physics, different slicing -> one payload, index refreshed
        # with the latest slice spec (slicing shapes the derived index,
        # not the per-scenario results).
        store = ResultStore(tmp_path / "store")
        scenarios = daily_profile(steps=10)
        plain = BatchStudyRunner(StudyConfig(analysis="powerflow"))
        sliced = BatchStudyRunner(StudyConfig(analysis="powerflow", slice_by=("hour_of_day",)))
        key_plain = store.put(
            case14, plain.config, list(scenarios), plain.run(case14, scenarios)
        )
        key_sliced = store.put(
            case14, sliced.config, list(scenarios), sliced.run(case14, scenarios)
        )
        assert key_plain == key_sliced
        assert len(store.list_studies()) == 1
        index = store.aggregate_index(key_sliced)
        assert index["aggregate"]["slices"]["hour_of_day"]["n_cells"] == 10

    def test_unsliced_legacy_payload_indexes_cleanly(self, tmp_path, case14):
        # A pre-slicing store entry: no index, no slice_by in its config.
        store = ResultStore(tmp_path / "legacy")
        runner = BatchStudyRunner(StudyConfig(analysis="powerflow"))
        scenarios = load_sweep(0.95, 1.05, 5)
        key = store.put(case14, runner.config, list(scenarios), runner.run(case14, scenarios))
        store._index_path(key).unlink()
        payload = json.loads(store._path(key).read_text())
        payload["config"].pop("slice_by")
        payload["config"].pop("slice_max_values")
        store._write_atomic(store._path(key), json.dumps(payload))
        index = store.aggregate_index(key)
        assert "slices" not in index["aggregate"]


# ----------------------------------------------------------------------
# conversational + service surfaces
# ----------------------------------------------------------------------


class TestSliceNLU:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("sweep load from 80% to 120% on ieee14 and slice by hour", "hour_of_day"),
            ("run a daily profile study sliced by hour of day on ieee30", "hour_of_day"),
            ("monte carlo study on ieee14 broken down by zone", "hot_zone"),
            ("run a load sweep study per load level on ieee57", "scale"),
            ("run a load study on ieee14 grouped by scale", "scale"),
        ],
    )
    def test_slice_by_extracted(self, text, expected):
        from repro.llm.nlu import Intent, classify

        parsed = classify(text)
        assert parsed.intent is Intent.RUN_STUDY
        assert parsed.entities["slice_by"] == expected

    def test_no_false_positive_on_plain_studies(self):
        from repro.llm.nlu import classify

        parsed = classify("run a 200-draw monte carlo study on ieee118")
        assert "slice_by" not in parsed.entities

    @pytest.mark.parametrize(
        "text",
        [
            "run a monte carlo ensemble on ieee14 and report the cost per hour",
            "run a monte carlo ensemble on ieee14, what are the costs per hour",
            "monte carlo study on ieee14 — what price per hour do we pay",
        ],
    )
    def test_no_false_positive_on_rate_phrasing(self, text):
        from repro.llm.nlu import classify

        assert "slice_by" not in classify(text).entities

    def test_zonal_entities_extracted(self):
        from repro.llm.nlu import classify

        parsed = classify(
            "run a monte carlo study on ieee14 with 4 zones correlated 60% "
            "and slice by zone"
        )
        assert parsed.entities["n_zones"] == 4
        assert parsed.entities["rho_percent"] == 60.0
        assert parsed.entities["slice_by"] == "hot_zone"

    def test_bare_correlation_coefficient_read_as_fraction(self):
        from repro.llm.nlu import classify

        parsed = classify(
            "run a monte carlo study on ieee14 with 4 zones correlated 0.6"
        )
        assert parsed.entities["rho_percent"] == 60.0

    def test_plan_implies_zones_for_hot_zone_slices(self):
        from repro.llm.nlu import classify
        from repro.llm.simulated import SimulatedLLM

        llm = SimulatedLLM("gpt-5-mini")
        plan = llm._plan(
            classify("run a monte carlo study on ieee14 broken down by zone"),
            {},
            {"run_monte_carlo_study"},
        )
        args = plan[0].arguments
        assert args["slice_by"] == "hot_zone"
        assert args["n_zones"] == 4  # implied so the draws carry the tag

    def test_plan_carries_slice_by(self):
        from repro.llm.nlu import classify
        from repro.llm.simulated import SimulatedLLM

        llm = SimulatedLLM("gpt-5-mini")
        parsed = classify("run a daily profile study on ieee14 sliced by hour")
        plan = llm._plan(parsed, {}, {"run_daily_profile_study"})
        assert plan[0].tool == "run_daily_profile_study"
        assert plan[0].arguments["slice_by"] == "hour_of_day"

    def test_plan_omits_slice_by_when_not_asked(self):
        from repro.llm.nlu import classify
        from repro.llm.simulated import SimulatedLLM

        llm = SimulatedLLM("gpt-5-mini")
        parsed = classify("run a daily profile study on ieee14")
        plan = llm._plan(parsed, {}, {"run_daily_profile_study"})
        assert "slice_by" not in plan[0].arguments


class TestSlicedNarration:
    def test_study_narration_renders_slice_table(self, case14):
        from repro.llm.narration import narrate_study

        study = BatchStudyRunner(
            StudyConfig(analysis="powerflow", slice_by=("hour_of_day",)),
        ).run(case14, daily_profile(steps=24))
        payload = study.to_dict(max_scenarios=3)
        payload["study_kind"] = "profile"
        text = narrate_study(payload, verbosity=1)
        assert "Sliced by hour of day (24 buckets):" in text
        assert "hour of day 0:" in text

    def test_full_verbosity_renders_every_cell(self, case14):
        from repro.llm.narration import narrate_study

        study = BatchStudyRunner(
            StudyConfig(analysis="powerflow", slice_by=("hour_of_day",)),
        ).run(case14, daily_profile(steps=24))
        payload = study.to_dict()
        payload["study_kind"] = "profile"
        text = narrate_study(payload, verbosity=2)
        for hour in range(24):
            assert f"hour of day {hour}:" in text

    def test_session_end_to_end_sliced_study(self):
        from repro.core.session import GridMindSession

        session = GridMindSession(model="gpt-5-mini", seed=1)
        reply = session.ask(
            "Run a daily profile study with 24 steps on ieee14 and slice by hour"
        )
        assert "Sliced by hour of day" in reply.text
        summary = session.context.study_summary
        assert summary["slice_by"] == ["hour_of_day"]
        assert summary["aggregate"]["slices"]["hour_of_day"]["n_cells"] == 24

    def test_empty_slice_block_is_reported_not_hidden(self):
        from repro.llm.narration import narrate_slices

        slices = {
            "hot_zone": {
                "by": "hot_zone",
                "n_cells": 0,
                "max_values": 32,
                "n_overflow_values": 0,
                "n_unsliced": 50,
                "cells": [],
            }
        }
        lines = narrate_slices(slices, verbosity=1)
        assert lines == [
            "Sliced by hot zone: no scenarios carried this tag (50 untagged)."
        ]

    def test_monte_carlo_tool_guards_hot_zone_without_zones(self):
        from repro.core.agents.study_agent import build_study_registry
        from repro.core.context import AgentContext

        registry = build_study_registry(AgentContext())
        payload = json.loads(
            registry.call(
                "run_monte_carlo_study",
                {"case_name": "ieee14", "n_scenarios": 2, "slice_by": "zone"},
            )
        )
        assert "n_zones >= 2" in payload["error"]

    def test_comparison_narration_mentions_slice_shift(self):
        from repro.llm.narration import narrate_study_comparison

        res = {
            "a": {"n_scenarios": 10, "study_kind": "profile", "label": "day1"},
            "b": {"n_scenarios": 10, "study_kind": "profile", "label": "day2"},
            "aggregate_a": {"violation_rate": 0.1},
            "aggregate_b": {"violation_rate": 0.3},
            "delta": {
                "violation_rate": 0.2,
                "slices": {
                    "hour_of_day": [
                        {"value": "0", "violation_rate": 0.0},
                        {"value": "17", "violation_rate": 0.5, "cost_p50": 12.5},
                    ]
                },
            },
        }
        text = narrate_study_comparison(res, verbosity=1)
        assert "hour of day 17" in text
        assert "+50 points" in text


class TestServiceSliceAPI:
    def test_run_study_infers_and_reports_slices(self, tmp_path):
        import asyncio

        from repro.service import GridMindService
        from repro.service.api import StudyRequest

        async def scenario():
            async with GridMindService(
                max_workers=1, store_dir=str(tmp_path / "svc")
            ) as service:
                reply = await service.run_study(
                    StudyRequest(case_name="ieee14", kind="profile", n_scenarios=12)
                )
                assert reply.slice_by == ["hour_of_day"]
                agg = reply.summary["aggregate"]
                assert agg["slices"]["hour_of_day"]["n_cells"] == 12
                # The stored index carries the same sliced aggregate.
                index = service.store.aggregate_index(reply.study_key)
                assert index["aggregate"] == agg
                # Explicit opt-out.
                plain = await service.run_study(
                    StudyRequest(
                        case_name="ieee14",
                        kind="profile",
                        n_scenarios=12,
                        lo_percent=85.0,
                        slice_by=[],
                    )
                )
                assert plain.slice_by == []
                assert "slices" not in plain.summary["aggregate"]
                # Zonal correlated Monte Carlo through the service API.
                zonal = await service.run_study(
                    StudyRequest(
                        case_name="ieee14",
                        kind="monte_carlo",
                        n_scenarios=10,
                        n_zones=3,
                        rho_percent=50.0,
                    )
                )
                assert zonal.slice_by == ["hot_zone"]
                cells = zonal.summary["aggregate"]["slices"]["hot_zone"]["cells"]
                assert sum(c["n"] for c in cells) == 10

        asyncio.run(scenario())

    def test_cli_study_slice_by_flag(self, capsys):
        from repro.core.cli import main

        rc = main(
            [
                "study",
                "--case",
                "ieee14",
                "--kind",
                "profile",
                "-n",
                "12",
                "--slice-by",
                "hour",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "sliced by hour_of_day (12 buckets):" in out

    def test_cli_rejects_zones_for_non_monte_carlo(self, capsys):
        from repro.core.cli import main

        rc = main(
            ["study", "--case", "ieee14", "--kind", "outage", "--zones", "4"]
        )
        assert rc == 2
        assert "monte_carlo studies only" in capsys.readouterr().err

    def test_cli_study_zonal_monte_carlo(self, capsys):
        from repro.core.cli import main

        rc = main(
            [
                "study",
                "--case",
                "ieee14",
                "--kind",
                "monte-carlo",
                "-n",
                "10",
                "--zones",
                "3",
                "--rho",
                "0.5",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "sliced by hot_zone" in out
