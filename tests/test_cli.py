"""CLI interface: argument parsing and non-interactive mode."""

import json

import pytest

from repro.core.cli import build_parser, main


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.model == "gpt-5-mini"
    assert args.seed == 0


def test_parser_custom_model():
    args = build_parser().parse_args(["--model", "gpt-o3", "--seed", "7"])
    assert args.model == "gpt-o3"
    assert args.seed == 7


def test_noninteractive_ask(capsys):
    rc = main(["--model", "gpt-o4-mini", "--ask", "Solve IEEE 14"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "8,081" in out
    assert "gpt-o4-mini" in out


def test_noninteractive_multiple_asks(capsys):
    rc = main([
        "--model", "gpt-o4-mini",
        "--ask", "Solve IEEE 14",
        "--ask", "what is the network status?",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "14 buses" in out


def test_unknown_model_raises():
    with pytest.raises(KeyError):
        main(["--model", "gpt-fake", "--ask", "Solve IEEE 14"])


def test_parser_serve_defaults():
    args = build_parser().parse_args(["serve"])
    assert args.command == "serve"
    assert args.workers == 2
    assert args.store is None
    assert not args.demo


def test_serve_turn_routes_named_sessions(tmp_path, capsys):
    rc = main([
        "serve",
        "--store", str(tmp_path),
        "--turn", "alice: Solve IEEE 14",
        "--turn", "bob: what can you do?",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[alice] Solved ACOPF for ieee14" in out
    assert "8,081" in out
    assert "[bob]" in out


def test_serve_turn_defaults_to_main_session(tmp_path, capsys):
    rc = main(["serve", "--store", str(tmp_path), "--turn", "Solve IEEE 14"])
    assert rc == 0
    assert "[main]" in capsys.readouterr().out


def test_study_pooled_aggregate_matches_serial(capsys):
    """``--jobs 2`` runs on an ephemeral executor and aggregates like serial."""
    argv = ["study", "--case", "ieee14", "--kind", "monte-carlo", "-n", "24", "--json"]
    payloads = []
    for jobs in ("1", "2"):
        assert main([*argv, "--jobs", jobs]) == 0
        payloads.append(json.loads(capsys.readouterr().out))
    serial, pooled = payloads
    assert (serial["n_jobs"], pooled["n_jobs"]) == (1, 2)
    assert pooled["aggregate"] == serial["aggregate"]
