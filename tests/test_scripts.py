"""The scripts load against the package as it is: every name they import
resolves.  Each runs under its own stem as run_name, not "__main__", so
its main does not run."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_script_imports_resolve(script):
    namespace = runpy.run_path(str(script), run_name=script.stem)
    assert callable(namespace["main"])
