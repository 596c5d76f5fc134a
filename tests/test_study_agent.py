"""Study agent: tools, planner routing, end-to-end asks, CLI subcommand."""

import json

import pytest

from repro.core.cli import build_parser, main
from repro.core.context import AgentContext
from repro.core.agents.study_agent import build_study_registry
from repro.core.session import GridMindSession
from repro.llm.nlu import Intent, classify
from repro.scenarios.executor import StudyExecutor


@pytest.fixture
def registry():
    return build_study_registry(AgentContext())


class TestStudyTools:
    def test_monte_carlo_tool(self, registry):
        payload = json.loads(
            registry.call(
                "run_monte_carlo_study",
                {"case_name": "ieee14", "n_scenarios": 5, "sigma_percent": 5.0},
            )
        )
        assert payload["study_kind"] == "monte_carlo"
        assert payload["n_scenarios"] == 5
        assert payload["aggregate"]["n_converged"] == 5

    def test_load_sweep_tool_dcopf(self, registry):
        payload = json.loads(
            registry.call(
                "run_load_sweep_study",
                {
                    "case_name": "ieee14",
                    "lo_percent": 90,
                    "hi_percent": 110,
                    "steps": 3,
                    "analysis": "dcopf",
                },
            )
        )
        assert payload["analysis"] == "dcopf"
        assert payload["aggregate"]["cost_stats"] is not None

    def test_outage_tool(self, registry):
        payload = json.loads(
            registry.call(
                "run_outage_study",
                {"case_name": "ieee14", "depth": 2, "limit": 6},
            )
        )
        assert payload["study_kind"] == "outage"
        assert payload["outage_depth"] == 2
        assert payload["n_scenarios"] == 6

    def test_profile_tool(self, registry):
        payload = json.loads(
            registry.call(
                "run_daily_profile_study",
                {"case_name": "ieee14", "steps": 6},
            )
        )
        assert payload["study_kind"] == "profile"
        assert payload["n_scenarios"] == 6

    def test_bad_analysis_surfaces_tool_error(self, registry):
        payload = json.loads(
            registry.call(
                "run_monte_carlo_study",
                {"case_name": "ieee14", "n_scenarios": 2, "analysis": "magic"},
            )
        )
        assert "error" in payload

    def test_status_before_and_after(self, registry):
        before = json.loads(registry.call("get_study_status", {}))
        assert before["study"] is None
        registry.call(
            "run_monte_carlo_study", {"case_name": "ieee14", "n_scenarios": 2}
        )
        after = json.loads(registry.call("get_study_status", {}))
        assert after["study"]["n_scenarios"] == 2


class TestWatchTool:
    ARGS = {"case_name": "ieee14", "n_devices": 30, "n_windows": 2, "window_ticks": 4}

    def test_watch_runs_on_the_session_executor(self):
        context = AgentContext()
        with StudyExecutor(max_workers=2) as executor:
            pooled = json.loads(
                build_study_registry(context, executor=executor).call(
                    "watch_telemetry", self.ARGS
                )
            )
            stats = executor.stats()
        assert stats["n_chunks"] == 2  # one chunk per window
        assert context.provenance[-1].tool == "watch_telemetry"
        assert context.provenance[-1].options["n_jobs"] == 2
        serial_context = AgentContext()
        serial = json.loads(
            build_study_registry(serial_context).call("watch_telemetry", self.ARGS)
        )
        assert serial_context.provenance[-1].options["n_jobs"] == 1
        assert pooled["digest"] == serial["digest"]


class TestRoutingAndNLU:
    @pytest.mark.parametrize(
        "text",
        [
            "Run a 200-draw Monte Carlo load study on the 118-bus case",
            "sweep load 80-120% on ieee118 and tell me which contingencies stay critical",
            "run a 24-hour load profile study on case30",
            "evaluate N-2 outage combinations for ieee14",
        ],
    )
    def test_classified_as_study(self, text):
        assert classify(text).intent == Intent.RUN_STUDY

    def test_entities_extracted(self):
        p = classify("Run a 200-draw Monte Carlo load study on the 118-bus case")
        assert p.entities["case"] == "ieee118"
        assert p.entities["study"] == "monte_carlo"
        assert p.entities["n_scenarios"] == 200

    def test_sweep_range_extracted(self):
        p = classify("sweep the load from 85% to 115% on ieee14")
        assert p.entities["study"] == "sweep"
        assert p.entities["sweep_lo_percent"] == 85.0
        assert p.entities["sweep_hi_percent"] == 115.0

    def test_planner_routes_to_study_agent(self):
        session = GridMindSession(model="gpt-5-mini", seed=0)
        wf = session.planner.plan("Run a Monte Carlo load study on ieee14")
        assert [s.agent for s in wf.steps] == ["study"]

    def test_solve_request_still_routes_to_acopf(self):
        session = GridMindSession(model="gpt-5-mini", seed=0)
        wf = session.planner.plan("Solve the IEEE 14 bus case")
        assert [s.agent for s in wf.steps] == ["acopf"]


class TestEndToEnd:
    def test_monte_carlo_ask(self):
        session = GridMindSession(model="gpt-5-mini", seed=0)
        reply = session.ask(
            "Run a 10-draw Monte Carlo load study on the IEEE 14 bus case"
        )
        assert reply.agents_involved == ["study"]
        assert "10-scenario Monte Carlo" in reply.text
        assert session.context.study_summary is not None
        assert session.context.study_summary["n_scenarios"] == 10
        assert all(c.ok for c in reply.tool_calls)

    def test_sweep_with_screening_ask(self):
        session = GridMindSession(model="gpt-5-mini", seed=0)
        reply = session.ask(
            "Sweep load 90% to 110% in 3 steps on ieee14 and tell me "
            "which contingencies stay critical"
        )
        assert reply.agents_involved == ["study"]
        assert session.context.study_summary["analysis"] == "screening"
        assert "critical" in reply.text.lower()

    def test_study_status_followup(self):
        session = GridMindSession(model="gpt-5-mini", seed=0)
        session.ask("Run a 4-draw Monte Carlo load study on ieee14")
        reply = session.ask("What are the results of the study?")
        assert reply.agents_involved == ["study"]
        assert "4-scenario" in reply.text

    def test_status_followup_naming_kind_does_not_rerun(self):
        session = GridMindSession(model="gpt-5-mini", seed=0)
        session.ask("Run a 4-draw Monte Carlo load study on ieee14")
        reply = session.ask("What are the results of the Monte Carlo study?")
        assert [c.tool for c in reply.tool_calls] == ["get_study_status"]
        assert "4-scenario" in reply.text

    def test_study_without_case_asks_for_clarification(self):
        session = GridMindSession(model="gpt-5-mini", seed=0)
        reply = session.ask("Run a Monte Carlo load study")
        assert reply.agents_involved == ["study"]
        assert not reply.tool_calls

    def test_study_summary_survives_save_resume(self, tmp_path):
        session = GridMindSession(model="gpt-5-mini", seed=0)
        session.ask("Run a 3-draw Monte Carlo load study on ieee14")
        path = tmp_path / "state.json"
        session.save(path)
        fresh = GridMindSession(model="gpt-5-mini", seed=0)
        fresh.resume(path)
        assert fresh.context.study_summary["n_scenarios"] == 3
        reply = fresh.ask("What are the results of the study?")
        assert "3-scenario" in reply.text


class TestStudyCLI:
    def test_parser_study_defaults(self):
        args = build_parser().parse_args(["study", "--case", "ieee14"])
        assert args.command == "study"
        assert args.kind == "monte-carlo"
        assert args.analysis == "powerflow"

    def test_chat_flags_still_parse(self):
        args = build_parser().parse_args(["--model", "gpt-o3", "--seed", "7"])
        assert args.model == "gpt-o3"
        assert getattr(args, "command", None) is None

    def test_cli_sweep_study(self, capsys):
        rc = main(
            ["study", "--case", "ieee14", "--kind", "sweep", "-n", "3",
             "--lo", "90", "--hi", "110"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 scenarios" in out
        assert "converged 3/3" in out

    def test_cli_json_output(self, capsys):
        rc = main(
            ["study", "--case", "ieee14", "--kind", "monte-carlo", "-n", "2",
             "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_scenarios"] == 2
        assert payload["aggregate"]["n_converged"] == 2
