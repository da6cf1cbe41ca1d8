"""Smoke-run every example script (deliverable b stays green)."""

import pathlib
import runpy

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script.name} produced no output"


def test_all_examples_discovered():
    names = {p.name for p in EXAMPLES}
    assert {
        "quickstart.py",
        "household_dashboard.py",
        "parental_controls.py",
        "hwdb_tour.py",
        "coverage_heatmap.py",
    } <= names
