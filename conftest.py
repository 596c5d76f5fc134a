"""Command-line options shared by the whole pytest run.

pytest only reads ``pytest_addoption`` from the conftest files it loads at
start-up, and a run from the repository root loads ``benchmarks/conftest.py``
too late, so the benchmark suite's option is declared here.
"""


def pytest_addoption(parser):
    parser.addoption(
        "--update-results",
        action="store_true",
        help="rewrite the tables under benchmarks/results/ (they hold "
        "timings, so they are left alone unless asked)",
    )
