"""One request per study and per watch: every front end gives one answer.

The service takes a ``StudyRequest``/``WatchRequest`` envelope, the
``gridmind study``/``gridmind watch`` CLI builds one from its flags, and
the study agent's tools map their argument schemas onto one; each kind
of request is read by one function.  These tests hold the front ends to
that: the same parameters give the same store key, aggregate, study
kind and watch digest, and the same validation errors.
"""

from __future__ import annotations

import asyncio
import json

import pytest

import repro.scenarios
from repro.core.agents.study_agent import build_study_registry
from repro.core.cli import main
from repro.core.context import AgentContext
from repro.grid.cases import load_case
from repro.scenarios import expand_study_kind
from repro.service import (
    GridMindService,
    ResultStore,
    StudyRequest,
    WatchRequest,
)

#: Per family: the service request's fields, the CLI flags, and the
#: agent tool with its arguments (None where the agent has no tool).
#: The CLI and the Monte Carlo service request spell the kind with a
#: dash, which every front end reads as an underscore.
FAMILIES = {
    "sweep": (
        dict(kind="sweep", n_scenarios=3, lo_percent=90, hi_percent=110),
        ["--kind", "sweep", "-n", "3", "--lo", "90", "--hi", "110"],
        ("run_load_sweep_study", dict(steps=3, lo_percent=90, hi_percent=110)),
    ),
    "monte_carlo": (
        dict(kind="monte-carlo", n_scenarios=4, seed=3),
        ["--kind", "monte-carlo", "-n", "4", "--seed", "3"],
        ("run_monte_carlo_study", dict(n_scenarios=4, seed=3)),
    ),
    "lhs": (
        dict(kind="lhs", n_scenarios=4, seed=3),
        ["--kind", "lhs", "-n", "4", "--seed", "3"],
        None,
    ),
    "outage": (
        dict(kind="outage", n_scenarios=4, depth=1),
        ["--kind", "outage", "-n", "4", "--depth", "1"],
        ("run_outage_study", dict(limit=4, depth=1)),
    ),
    "profile": (
        dict(kind="profile", n_scenarios=4, lo_percent=90, hi_percent=95),
        ["--kind", "profile", "-n", "4", "--lo", "90", "--hi", "95"],
        ("run_daily_profile_study", dict(steps=4, trough_percent=90, peak_percent=95)),
    ),
}


def _serve_studies(store_dir, requests: dict) -> dict:
    """Run each request through one service; ``{name: reply or error}``."""

    async def go():
        out = {}
        async with GridMindService(
            max_workers=1, store_dir=str(store_dir), health=False
        ) as svc:
            for name, request in requests.items():
                try:
                    out[name] = await svc.run_study(request)
                except ValueError as exc:
                    out[name] = exc
        return out

    return asyncio.run(go())


def _tool(store, name: str, args: dict) -> dict:
    registry = build_study_registry(AgentContext(), store=store)
    return json.loads(
        registry.call(name, {"case_name": "ieee14", "analysis": "powerflow", **args})
    )


def _cli_study(capsys, flags: list[str]) -> dict:
    """The payload of ``gridmind study --json`` on ieee14."""
    code = main(["study", "--case", "ieee14", *flags, "--json"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    requests = {
        kind: StudyRequest(case_name="ieee14", **fields)
        for kind, (fields, _, _) in FAMILIES.items()
    }
    return _serve_studies(tmp_path_factory.mktemp("served"), requests)


class TestStudyFrontEndsAgree:
    @pytest.mark.parametrize("kind", sorted(FAMILIES))
    def test_same_key_aggregate_and_kind(
        self, kind, served, tmp_path, capsys, monkeypatch
    ):
        _, flags, tool = FAMILIES[kind]
        reply = served[kind]
        assert reply.study_kind == kind
        assert reply.summary["study_kind"] == kind
        assert reply.study_key

        # The CLI persists nothing; its key is that of the request it built.
        built = []
        run = repro.scenarios.run_study_request

        def spy(request, net, **kw):
            built.append(request)
            return run(request, net, **kw)

        monkeypatch.setattr(repro.scenarios, "run_study_request", spy)
        payload = _cli_study(capsys, flags)
        request = built[0]
        net = load_case("ieee14")
        cli_key = ResultStore(tmp_path / "cli").key_for(
            net, request.config(), list(expand_study_kind(request, net))
        )
        assert cli_key == reply.study_key
        assert payload["study_kind"] == kind
        assert payload["aggregate"] == reply.summary["aggregate"]

        if tool is not None:
            out = _tool(ResultStore(tmp_path / "agent"), *tool)
            assert out["study_kind"] == kind
            assert out["study_key"] == reply.study_key
            assert out["aggregate"] == reply.summary["aggregate"]


def _scales(summary: dict) -> list[float]:
    """The load factors a study ran, from its by-scale slice table."""
    cells = summary["aggregate"]["slices"]["scale"]["cells"]
    assert sum(c["n"] for c in cells) == summary["n_scenarios"]
    return sorted(float(c["value"]) for c in cells)


class TestProfileBand:
    def test_every_front_end_honours_the_band(self, tmp_path, capsys):
        fields = dict(kind="profile", n_scenarios=24, lo_percent=90, hi_percent=95)
        reply = _serve_studies(
            tmp_path / "svc",
            {"p": StudyRequest(case_name="ieee14", slice_by=["scale"], **fields)},
        )["p"]
        cli = _cli_study(
            capsys,
            ["--kind", "profile", "-n", "24", "--lo", "90", "--hi", "95",
             "--slice-by", "scale"],
        )
        agent = _tool(
            None, "run_daily_profile_study",
            dict(steps=24, trough_percent=90, peak_percent=95, slice_by="scale"),
        )
        for summary in (reply.summary, cli, agent):
            assert summary["n_scenarios"] == 24
            scales = _scales(summary)
            assert scales[0] == pytest.approx(0.90)
            assert scales[-1] == pytest.approx(0.95)

    def test_default_bands_are_the_family_bands(self):
        net = load_case("ieee14")
        profile = list(expand_study_kind(StudyRequest(case_name="ieee14", kind="profile"), net))
        sweep = list(expand_study_kind(StudyRequest(case_name="ieee14", kind="sweep"), net))
        assert min(s.tags["scale"] for s in profile) == pytest.approx(0.65)
        assert max(s.tags["scale"] for s in profile) == pytest.approx(1.0)
        assert [s.tags["scale"] for s in (sweep[0], sweep[-1])] == [0.8, 1.2]


class TestZonalSliceRule:
    MESSAGE = "n_zones >= 2"

    def test_service_rejects_zone_slices_without_zones(self, tmp_path):
        request = StudyRequest(
            case_name="ieee14", kind="monte_carlo", n_scenarios=8, slice_by=["zone"]
        )
        error = _serve_studies(tmp_path, {"z": request})["z"]
        assert isinstance(error, ValueError)
        assert self.MESSAGE in str(error)

    def test_agent_returns_a_tool_error(self):
        out = _tool(None, "run_monte_carlo_study", dict(n_scenarios=8, slice_by="zone"))
        assert self.MESSAGE in out["error"]

    def test_cli_exits_2(self, capsys):
        code = main(
            ["study", "--case", "ieee14", "--kind", "monte-carlo", "-n", "8",
             "--slice-by", "zone"]
        )
        assert code == 2
        assert self.MESSAGE in capsys.readouterr().err

    def test_zonal_draws_still_slice_by_zone(self):
        request = StudyRequest(
            case_name="ieee14", kind="monte_carlo", n_zones=3, slice_by="zone"
        )
        assert request.config().slice_by == ("hot_zone",)


class TestWatchFrontEndsAgree:
    def test_agent_and_service_anomaly_digests_match(self, capsys):
        request = WatchRequest(
            case_name="ieee14", n_devices=30, n_ticks=8, window_ticks=4,
            seed=0, anomaly_tick=1,
        )

        async def go():
            async with GridMindService(max_workers=1, health=False) as svc:
                return await svc.watch(request)

        served = asyncio.run(go())
        agent = _tool(
            None, "watch_telemetry",
            dict(n_devices=30, n_windows=2, window_ticks=4, seed=0, anomaly_tick=1),
        )
        assert main(
            ["watch", "--case", "ieee14", "--devices", "30", "--ticks", "8",
             "--window", "4", "--seed", "0", "--anomaly-tick", "1", "--json"]
        ) == 0
        cli = json.loads(capsys.readouterr().out)
        # The service's digest is the one it gave before the agent's
        # anomaly took the request's defaults (duration 2, magnitude 1.8).
        assert served.digest.startswith("f8dc81f0")
        assert agent["digest"] == served.digest == cli["digest"]
        assert agent["anomaly"] == cli["anomaly"]
        assert agent["anomaly"]["magnitude"] == 1.8
