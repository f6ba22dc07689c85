"""docs/api.md and docs/architecture.md must not drift from the code.

Every dotted ``repro.*`` symbol the API reference and the architecture
map name is imported and resolved; a rename or removal that orphans
the docs fails here.  The telemetry package's docstring examples run
as doctests for the same reason, and the README must keep linking to
the architecture document.
"""

from __future__ import annotations

import doctest
import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
API_DOC = REPO_ROOT / "docs" / "api.md"
ARCHITECTURE_DOC = REPO_ROOT / "docs" / "architecture.md"
README = REPO_ROOT / "README.md"

#: Dotted references: repro.<pkg>[.<mod>...].Symbol or a module path.
_SYMBOL_RE = re.compile(r"`(repro(?:\.\w+)+)`")


def documented_symbols(doc: Path = API_DOC) -> list[str]:
    text = doc.read_text(encoding="utf-8")
    return sorted(set(_SYMBOL_RE.findall(text)))


def _resolve(dotted: str) -> object:
    """Import ``dotted`` as a module, or as module attribute(s)."""
    parts = dotted.split(".")
    # Longest importable module prefix, then getattr the rest.
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            obj: object = importlib.import_module(module_name)
        except ImportError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(f"no importable prefix of {dotted!r}")


class TestApiDocs:
    def test_the_reference_names_a_useful_number_of_symbols(self):
        assert len(documented_symbols()) >= 15

    @pytest.mark.parametrize("dotted", documented_symbols())
    def test_documented_symbol_resolves(self, dotted):
        _resolve(dotted)  # raises ImportError/AttributeError on drift

    def test_core_telemetry_surface_is_documented(self):
        symbols = set(documented_symbols())
        for required in (
            "repro.telemetry.Telemetry",
            "repro.telemetry.activation",
            "repro.telemetry.current",
            "repro.telemetry.accounting.build_accounting",
            "repro.experiments.campaign.CampaignEngine",
            "repro.experiments.report.render_accounting",
        ):
            assert required in symbols, f"{required} missing from docs/api.md"


class TestArchitectureDoc:
    def test_the_map_names_a_useful_number_of_symbols(self):
        assert len(documented_symbols(ARCHITECTURE_DOC)) >= 15

    @pytest.mark.parametrize(
        "dotted", documented_symbols(ARCHITECTURE_DOC)
    )
    def test_documented_symbol_resolves(self, dotted):
        _resolve(dotted)

    def test_shard_surface_is_documented(self):
        symbols = set(documented_symbols(ARCHITECTURE_DOC))
        for required in (
            "repro.experiments.sharding",
            "repro.experiments.scheduler.StealingScheduler",
            "repro.experiments.scheduler.run_stealing_scenario",
            "repro.telemetry.merge.merge_snapshots",
            "repro.telemetry.accounting.AccountingTable.merged",
            "repro.charging.merge.ChargingAggregate",
        ):
            assert required in symbols, (
                f"{required} missing from docs/architecture.md"
            )

    def test_readme_links_to_the_architecture_map(self):
        text = README.read_text(encoding="utf-8")
        assert "docs/architecture.md" in text, (
            "README.md lost its link to docs/architecture.md"
        )

    def test_api_doc_links_to_the_architecture_map(self):
        text = API_DOC.read_text(encoding="utf-8")
        assert "architecture.md" in text, (
            "docs/api.md lost its cross-link to architecture.md"
        )


class TestDoctests:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.telemetry",
            "repro.telemetry.metrics",
            "repro.telemetry.merge",
            "repro.telemetry.trace",
        ],
    )
    def test_docstring_examples_run(self, module_name):
        module = importlib.import_module(module_name)
        result = doctest.testmod(module, verbose=False)
        assert result.attempted > 0, (
            f"{module_name} lost its doctest examples"
        )
        assert result.failed == 0
