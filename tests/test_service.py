"""Service layer: concurrency semantics, shared executor, result store."""

from __future__ import annotations

import asyncio
import dataclasses
import json

import pytest
from pydantic import ValidationError

from repro.core.session import GridMindSession
from repro.core.tools import ToolRegistry
from repro.scenarios import (
    BatchStudyRunner,
    StudyConfig,
    load_sweep,
    monte_carlo_ensemble,
    outage_combinations,
)
from repro.service import (
    AskRequest,
    GridMindService,
    ResultStore,
    SessionNotFound,
    StudyExecutor,
    StudyNotFound,
    StudyRequest,
    WatchRequest,
    derive_session_seed,
)


def _strip_timing(results):
    return [dataclasses.replace(r, solve_time_s=0.0) for r in results]


# ----------------------------------------------------------------------
# request envelopes
# ----------------------------------------------------------------------


class TestRequestEnvelopes:
    def test_removed_ac_mode_is_rejected(self):
        # ac_mode is an ablation knob on StudyConfig only; a client still
        # sending it must hear so rather than silently get "warm".
        with pytest.raises(ValidationError):
            StudyRequest(case_name="ieee14", ac_mode="cold")

    @pytest.mark.parametrize(
        "build",
        [
            lambda: AskRequest(session_id="a", text="hi", bogus=1),
            lambda: StudyRequest(case_name="ieee14", bogus=1),
            lambda: WatchRequest(case_name="ieee14", bogus=1),
        ],
    )
    def test_unknown_fields_are_rejected(self, build):
        with pytest.raises(ValidationError, match="bogus"):
            build()


# ----------------------------------------------------------------------
# seed derivation
# ----------------------------------------------------------------------


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        a = derive_session_seed(0, "alice")
        assert a == derive_session_seed(0, "alice")
        assert a != derive_session_seed(0, "bob")
        assert a != derive_session_seed(1, "alice")

    def test_creation_order_does_not_matter(self):
        async def seeds(order):
            async with GridMindService(seed=7) as svc:
                for sid in order:
                    svc.create_session(sid)
                return {i.session_id: i.seed for i in svc.sessions()}

        forward = asyncio.run(seeds(["a", "b", "c"]))
        backward = asyncio.run(seeds(["c", "b", "a"]))
        assert forward == backward


# ----------------------------------------------------------------------
# concurrency semantics
# ----------------------------------------------------------------------

_TURNS = {
    "alice": [
        "Solve the IEEE 14 bus case",
        "Increase the load at bus 9 by 10 MW",
        "what's the network status?",
    ],
    "bob": [
        "Solve the IEEE 30 bus case",
        "what's the network status?",
        "Increase the load at bus 7 by 5 MW",
    ],
    "carol": [
        "Solve the IEEE 14 bus case",
        "what's the most critical contingencies in this network",
        "what's the network status?",
    ],
}


class TestInterleavedDeterminism:
    def test_interleaved_equals_serial(self):
        """The acceptance gate: N concurrent sessions through the service
        reply byte-identically to the same turns run serially through
        stand-alone ``GridMindSession`` cores with the derived seeds."""

        async def interleaved():
            async with GridMindService(seed=0) as svc:
                out = {sid: [] for sid in _TURNS}
                for round_idx in range(3):
                    replies = await asyncio.gather(
                        *[
                            svc.ask(sid, turns[round_idx])
                            for sid, turns in _TURNS.items()
                        ]
                    )
                    for reply in replies:
                        out[reply.session_id].append(reply)
                return out

        service_replies = asyncio.run(interleaved())

        for sid, turns in _TURNS.items():
            session = GridMindSession(seed=derive_session_seed(0, sid))
            for turn_idx, text in enumerate(turns):
                serial = session.ask(text)
                concurrent = service_replies[sid][turn_idx]
                assert concurrent.text == serial.text, (sid, turn_idx)
                assert concurrent.latency_virtual_s == pytest.approx(
                    serial.latency_s
                )
                assert concurrent.agents == serial.agents_involved

    def test_same_session_turns_are_serialised(self):
        async def run():
            async with GridMindService(seed=0) as svc:
                r1, r2 = await asyncio.gather(
                    svc.ask("a", "Solve the IEEE 14 bus case"),
                    svc.ask("a", "what's the network status?"),
                )
                return r1, r2

        r1, r2 = asyncio.run(run())
        # gather preserves submission order under the per-session lock,
        # so the status question sees the solved case.
        assert (r1.turn, r2.turn) == (1, 2)
        assert "8,081" in r1.text
        assert "ieee14" in r2.text

    def test_unknown_session_without_create_raises(self):
        async def run():
            async with GridMindService() as svc:
                await svc.ask(
                    AskRequest(session_id="ghost", text="hi", create=False)
                )

        with pytest.raises(SessionNotFound):
            asyncio.run(run())

    def test_session_directory_and_close(self):
        async def run():
            async with GridMindService() as svc:
                svc.create_session("a")
                await svc.ask("b", "Solve the IEEE 14 bus case")
                ids = [i.session_id for i in svc.sessions()]
                svc.close_session("a")
                remaining = [i.session_id for i in svc.sessions()]
                return ids, remaining

        ids, remaining = asyncio.run(run())
        assert ids == ["a", "b"]
        assert remaining == ["b"]


# ----------------------------------------------------------------------
# shared executor
# ----------------------------------------------------------------------


def _fold(executor, base, config, scenarios):
    """The executor's chunk stream folded into one ordered record list."""
    return [
        r
        for outcome in executor.run_study_chunks(base, config, scenarios)
        for r in outcome.results
    ]


class TestStudyExecutor:
    def test_back_to_back_studies_reuse_one_pool(self, case14):
        scenarios = load_sweep(0.9, 1.1, 8)
        config = StudyConfig(analysis="powerflow")
        with StudyExecutor(max_workers=2) as executor:
            first = _fold(executor, case14, config, scenarios)
            pids_after_first = set(executor.worker_pids)
            second = _fold(executor, case14, config, scenarios)
            stats = executor.stats()
        assert stats["pools_started"] == 1  # the acceptance signal
        assert stats["n_studies"] == 2
        # The second study ran on the same warm workers.
        assert executor.worker_pids == pids_after_first
        assert _strip_timing(first) == _strip_timing(second)

    def test_broken_pool_is_replaced_on_next_study(self, case14):
        import os
        import signal
        from concurrent.futures.process import BrokenProcessPool

        scenarios = load_sweep(0.9, 1.1, 4)
        config = StudyConfig(analysis="powerflow")
        with StudyExecutor(max_workers=1) as executor:
            _fold(executor, case14, config, scenarios)
            (pid,) = executor.worker_pids
            os.kill(pid, signal.SIGKILL)
            with pytest.raises(BrokenProcessPool):
                _fold(executor, case14, config, scenarios)
            # The broken pool was dropped; the next study restarts fresh.
            results = _fold(executor, case14, config, scenarios)
            assert len(results) == 4
            assert executor.stats()["pools_started"] == 2

    def test_executor_results_match_serial_runner(self, case14):
        scenarios = monte_carlo_ensemble(n=6, sigma=0.05, seed=3)
        serial = BatchStudyRunner(StudyConfig(analysis="powerflow"), n_jobs=1).run(
            case14, scenarios
        )
        with StudyExecutor(max_workers=2) as executor:
            shared = BatchStudyRunner(
                StudyConfig(analysis="powerflow"),
                executor=executor,
            ).run(case14, scenarios)
        assert _strip_timing(shared.results) == _strip_timing(serial.results)
        assert shared.aggregate().to_dict() == serial.aggregate().to_dict()

    def test_sessions_share_the_service_executor(self, tmp_path):
        async def run():
            async with GridMindService(
                seed=0, max_workers=2, store_dir=str(tmp_path)
            ) as svc:
                await svc.ask(
                    "a", "Run a load sweep study from 95% to 105% in 3 steps "
                    "on ieee14 using power flow"
                )
                await svc.ask(
                    "b", "Run a load sweep study from 90% to 110% in 4 steps "
                    "on ieee14 using power flow"
                )
                return svc.executor.stats()

        stats = asyncio.run(run())
        assert stats["n_studies"] == 2
        assert stats["pools_started"] == 1


# ----------------------------------------------------------------------
# result store
# ----------------------------------------------------------------------


class TestResultStore:
    def test_roundtrip_bit_identical(self, tmp_path, case14):
        scenarios = load_sweep(0.85, 1.15, 4)
        runner = BatchStudyRunner(StudyConfig(analysis="dcopf"))
        study = runner.run(case14, scenarios)
        store = ResultStore(tmp_path)
        key = store.put(
            case14, runner.config, scenarios, study, study_kind="sweep"
        )

        reloaded = store.load_result(key)
        assert reloaded.results == study.results  # bit-identical records
        assert reloaded.case_name == study.case_name
        assert reloaded.aggregate().to_dict() == study.aggregate().to_dict()

    def test_key_is_content_addressed(self, tmp_path, case14, case30):
        scenarios = load_sweep(0.9, 1.1, 3)
        config = StudyConfig(analysis="powerflow")
        store = ResultStore(tmp_path)
        key14 = store.key_for(case14, config, scenarios)
        assert key14 == store.key_for(case14, config, scenarios)
        # Different base network, different spec, different config -> new keys.
        assert key14 != store.key_for(case30, config, scenarios)
        assert key14 != store.key_for(case14, config, load_sweep(0.9, 1.1, 4))
        other = StudyConfig(analysis="dcopf")
        assert key14 != store.key_for(case14, other, scenarios)

    def test_list_resolve_and_labels(self, tmp_path, case14):
        store = ResultStore(tmp_path)
        runner = BatchStudyRunner(StudyConfig(analysis="powerflow"))
        for label, (lo, hi) in (("yesterday", (0.9, 1.1)), ("today", (0.8, 1.2))):
            scenarios = load_sweep(lo, hi, 3)
            store.put(
                case14, runner.config, scenarios,
                runner.run(case14, scenarios),
                study_kind="sweep", label=label,
            )
        entries = store.list_studies()
        assert [m.label for m in entries] == ["yesterday", "today"]
        assert store.resolve("today") == entries[-1].key
        # Prefix resolution needs uniqueness: both keys share the network
        # hash (same base case), so the prefix must reach the spec hash.
        assert store.resolve(entries[0].key[:20]) == entries[0].key
        with pytest.raises(StudyNotFound):
            store.resolve("no-such-study")

    def test_compare_defaults_to_latest_pair(self, tmp_path, case14):
        store = ResultStore(tmp_path)
        runner = BatchStudyRunner(StudyConfig(analysis="powerflow"))
        for lo, hi in ((0.95, 1.05), (0.8, 1.25)):
            scenarios = load_sweep(lo, hi, 4)
            store.put(
                case14, runner.config, scenarios,
                runner.run(case14, scenarios), study_kind="sweep",
            )
        cmp = store.compare()
        assert cmp["same_base_network"] is True
        assert cmp["aggregate_a"]["n_scenarios"] == 4
        assert "violation_rate" in cmp["delta"]

    def test_compare_needs_two_studies(self, tmp_path):
        with pytest.raises(StudyNotFound):
            ResultStore(tmp_path).compare()

    def test_listing_survives_missing_sidecar(self, tmp_path, case14):
        store = ResultStore(tmp_path)
        runner = BatchStudyRunner(StudyConfig(analysis="powerflow"))
        scenarios = load_sweep(0.9, 1.1, 3)
        key = store.put(
            case14, runner.config, scenarios,
            runner.run(case14, scenarios), study_kind="sweep",
        )
        (tmp_path / f"{key}.meta").unlink()  # older store / interrupted put
        entries = store.list_studies()
        assert [m.key for m in entries] == [key]
        assert entries[0].study_kind == "sweep"

    #: Keys recorded before spec_hash read hash membership from the
    #: StudyConfig field metadata; stores minted earlier must keep
    #: addressing the same entries.
    GOLDEN_SPEC_HASHES = [
        ({}, "e34643b1753c3f48"),
        ({"ac_mode": "cold"}, "f1b4378fbc8336ba"),
        ({"ac_fd_sweeps": 2}, "7e81bfb61e7bf699"),
        ({"analysis": "dc"}, "8b6cb0a09603643d"),
        ({"analysis": "dc", "ac_mode": "cold"}, "8b6cb0a09603643d"),
        ({"analysis": "screening", "ac_budget": 4}, "c3786dc62c7fe840"),
        ({"slice_by": ("scale",), "slice_max_values": 7}, "e34643b1753c3f48"),
        ({"analysis": "scopf", "vmin": 0.95, "top_n": 3}, "d61b031c70d2d405"),
        ({"analysis": "acopf", "overload_threshold": 90.0}, "13cfbbac2a4ee54c"),
    ]

    def test_spec_hash_golden_keys(self, case14):
        from repro.service.store import spec_hash

        scenarios = list(load_sweep(0.9, 1.1, 3)) + list(
            outage_combinations(case14, depth=1, limit=3)
        )
        got = [
            (knobs, spec_hash(StudyConfig(**knobs), scenarios))
            for knobs, _ in self.GOLDEN_SPEC_HASHES
        ]
        assert got == self.GOLDEN_SPEC_HASHES

    #: Store keys of each family's default StudyRequest on ieee14, recorded
    #: before the request became the one description every front end
    #: builds: a default request must keep expanding to the same scenarios.
    GOLDEN_DEFAULT_STUDY_KEYS = {
        "sweep": "29324118bfa390d9-a94fc49bd9d6bb4f",
        "monte_carlo": "29324118bfa390d9-5b7184a6761ccf4b",
        "lhs": "29324118bfa390d9-a9fa711b666e1ef7",
        "outage": "29324118bfa390d9-0fbaa2781c3bc5d7",
        "profile": "29324118bfa390d9-0187dc100f6fbd73",
    }

    def test_default_request_golden_store_keys(self, tmp_path, case14):
        from repro.scenarios import expand_study_kind

        store = ResultStore(tmp_path)
        got = {}
        for kind in self.GOLDEN_DEFAULT_STUDY_KEYS:
            request = StudyRequest(case_name="ieee14", kind=kind)
            scenarios = list(expand_study_kind(request, case14))
            got[kind] = store.key_for(case14, request.config(), scenarios)
        assert got == self.GOLDEN_DEFAULT_STUDY_KEYS

    @pytest.mark.parametrize(
        "text",
        [
            "compare the last two studies",
            "compare the last two sweeps",
            "compare today's sweep with yesterday's",
            "compare the two Monte Carlo ensembles",
        ],
    )
    def test_compare_phrasings_parse_as_comparison(self, text):
        from repro.llm.nlu import Intent, classify

        parsed = classify(text)
        assert parsed.intent == Intent.RUN_STUDY
        assert parsed.entities.get("study_compare") is True


# ----------------------------------------------------------------------
# cross-session study flows
# ----------------------------------------------------------------------


class TestCrossSessionStudies:
    def test_fresh_session_compares_stored_studies(self, tmp_path):
        """Acceptance: a study persisted by one session is retrieved and
        compared by a brand-new session via the result store."""

        async def run():
            async with GridMindService(
                seed=0, max_workers=2, store_dir=str(tmp_path)
            ) as svc:
                await svc.run_study(
                    StudyRequest(
                        case_name="ieee14", kind="sweep", n_scenarios=3,
                        lo_percent=95, hi_percent=105, label="yesterday",
                    )
                )
                await svc.run_study(
                    StudyRequest(
                        case_name="ieee14", kind="sweep", n_scenarios=4,
                        lo_percent=80, hi_percent=120, label="today",
                    )
                )
                return await svc.ask("fresh", "compare the last two studies")

        reply = asyncio.run(run())
        assert reply.agents == ["study"]
        assert "Compared" in reply.text
        assert "violation" in reply.text

    def test_fresh_session_sees_stored_study_status(self, tmp_path):
        async def run():
            async with GridMindService(
                seed=0, store_dir=str(tmp_path)
            ) as svc:
                await svc.run_study(
                    StudyRequest(case_name="ieee14", kind="profile", n_scenarios=4)
                )
                return await svc.ask("fresh", "What are the results of the study?")

        reply = asyncio.run(run())
        assert "4-scenario" in reply.text

    def test_compare_without_store_is_a_tool_error(self):
        session = GridMindSession(seed=0)
        reply = session.ask("compare the last two studies")
        assert reply.tool_calls and not reply.tool_calls[0].ok
        assert "result store" in reply.text

    def test_direct_study_reply_has_key_and_summary(self, tmp_path):
        async def run():
            async with GridMindService(store_dir=str(tmp_path)) as svc:
                return await svc.run_study(
                    StudyRequest(case_name="ieee14", kind="monte_carlo",
                                 n_scenarios=3, sigma_percent=3.0)
                )

        reply = asyncio.run(run())
        assert reply.study_key is not None
        assert reply.n_scenarios == 3
        assert reply.summary["aggregate"]["n_scenarios"] == 3


# ----------------------------------------------------------------------
# ring-buffer tool log (satellite)
# ----------------------------------------------------------------------


class TestToolLogRingBuffer:
    def _registry(self, cap):
        reg = ToolRegistry(max_log_entries=cap)
        reg.register("echo", "echo the value", lambda value=0: {"value": value})
        return reg

    def test_log_capped_but_count_monotonic(self):
        reg = self._registry(5)
        for i in range(12):
            reg.call("echo", {"value": i})
        assert reg.call_count == 12
        assert len(reg.log) == 5
        assert [e.arguments["value"] for e in reg.log] == list(range(7, 12))

    def test_entries_since_survives_eviction(self):
        reg = self._registry(5)
        for i in range(8):
            reg.call("echo", {"value": i})
        recent = reg.entries_since(6)
        assert [e.seq for e in recent] == [6, 7]

    def test_export_log_writes_retained_window(self, tmp_path):
        reg = self._registry(3)
        for i in range(5):
            reg.call("echo", {"value": i})
        path = tmp_path / "tools.jsonl"
        reg.export_log(path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["seq"] for r in rows] == [2, 3, 4]

    def test_uncapped_by_default_none(self):
        reg = ToolRegistry(max_log_entries=None)
        reg.register("echo", "echo", lambda: {})
        for _ in range(10):
            reg.call("echo", {})
        assert len(reg.log) == 10

    def test_agent_turns_unaffected_by_tiny_cap(self):
        session = GridMindSession(seed=0)
        session.agents["acopf"].registry.max_log_entries = 2
        session.agents["acopf"].registry.__post_init__()
        reply = session.ask("Solve the IEEE 14 bus case")
        assert "8,081" in reply.text
        assert len(reply.tool_calls) >= 1

    def test_run_logger_cap(self):
        session = GridMindSession(seed=0, max_log_records=2)
        for text in ("Solve IEEE 14", "network status?", "Solve IEEE 14"):
            session.ask(text)
        assert len(session.logger.records) == 2
        assert session.last_record is not None
