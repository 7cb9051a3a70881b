"""The scripts load against the package as it is: every name they import
resolves.  Each runs under its own stem as run_name, not "__main__", so
its main does not run."""

import runpy
from pathlib import Path

import pytest

from liechart.numdiff import DiffConfig
from liechart.suites import run_suite

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_script_imports_resolve(script):
    namespace = runpy.run_path(str(script), run_name=script.stem)
    assert callable(namespace["main"])


def test_report_digest_shows_a_moved_tolerance_by_id_only(capsys):
    # the per-id row digests leave the tolerance out, so only its own line moves
    digest = runpy.run_path(str(SCRIPTS[0].parent / "report_digest.py"), run_name="report_digest")
    rows, tols = [], []
    for scale in (1.0, 10.0):
        pairs = [("label", run_suite("translation:1", "pde", DiffConfig(sample_count=2),
                                     tol_scale=scale).to_json())]
        digest["_print_per_id"](pairs)
        rows.append(capsys.readouterr().out)
        digest["_print_tolerances"](pairs)
        tols.append(capsys.readouterr().out)
    assert tols[0].endswith("  1 tolerances essential_count_group_family\n")
    assert rows[0] == rows[1] and tols[0] != tols[1]
