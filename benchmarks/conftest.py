"""Benchmark harness helpers.

Every bench regenerates one table or figure from the paper's §7 and
emits the rows/series both to stdout (live, bypassing capture) and to
``benchmarks/results/<name>.txt`` so runs leave artifacts behind.

``--workers N`` fans the scenario grids of every bench out over N
processes through the campaign engine, and ``--cache-dir DIR`` reuses
previously computed scenario results across runs.  Both are numerically
transparent — see :mod:`repro.experiments.campaign`.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.campaign import CampaignEngine, set_default_engine

RESULTS_DIR = Path(__file__).parent / "results"


def pytest_addoption(parser):
    group = parser.getgroup("campaign")
    group.addoption(
        "--workers",
        type=int,
        default=1,
        help="fan scenario grids out over N worker processes",
    )
    group.addoption(
        "--cache-dir",
        default=None,
        help="content-addressed scenario result cache directory",
    )


@pytest.fixture(scope="session", autouse=True)
def campaign_engine(request):
    """Install the benchmarks' process-wide campaign engine."""
    engine = CampaignEngine(
        workers=request.config.getoption("--workers"),
        cache_dir=request.config.getoption("--cache-dir"),
    )
    set_default_engine(engine)
    yield engine
    set_default_engine(None)
    engine.close()


@pytest.fixture()
def emit(capsys):
    """Return a function that prints a report and persists it."""

    def _emit(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        with capsys.disabled():
            print(f"\n===== {name} =====")
            print(text)

    return _emit
