"""The scripts load against the package as it is: every name they import
resolves.  Each runs under its own stem as run_name, not "__main__", so
its main does not run.  The two light scripts' mains then run at two
samples, and report_digest's, a few seconds, prints every line of
golden/report_digest.txt: every report, flow path and PDE result it
covers keeps its bytes."""

import importlib
import importlib.util
import runpy
import sys
from pathlib import Path

import pytest

from liechart import catalog, suites
from liechart.catalog import GROUP_NAMES
from liechart.numdiff import DiffConfig
from liechart.pde import bundled_families
from liechart.suites import run_suite

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_script_imports_resolve(script):
    namespace = runpy.run_path(str(script), run_name=script.stem)
    assert callable(namespace["main"])


def _perfbench_module(monkeypatch, name: str):
    """perfbench/<name>.py, loaded as it is, for as long as the test runs."""
    path = SCRIPTS[0].parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_perfbench_span_names_a_package_function(monkeypatch):
    # perfbench's tracer rebinds each span by name, so a span whose function
    # is gone stops `perfbench/run.py --trace 1` on every workload
    tracing = _perfbench_module(monkeypatch, "tracing")
    for layer, (module, attr) in tracing.SPANS.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), layer
    for module in tracing.MODULE_SPANS:
        importlib.import_module(f"liechart.{module}")


# the benchmark's compose_evals at seed 42, its pass over each workload's
# units: a change to the work of the timed passes shows here first
BENCH_EVALS = {"structure_gl3": 27_885, "cli_sweep": 83_992, "custom_newton": 65_704}


@pytest.mark.parametrize("name", BENCH_EVALS)
def test_perfbench_pass_makes_its_evaluations_at_seed_42(name, tmp_path, monkeypatch,
                                                         law_counter):
    # counted as perfbench counts: every catalog law and the workload's own
    # charts, once the workload is built
    workloads = _perfbench_module(monkeypatch, "workloads")
    workload = workloads.BUILDERS[name](tmp_path)
    for chart in [*map(catalog.get_group, GROUP_NAMES), *workload.charts.values()]:
        monkeypatch.setattr(chart, "compose", law_counter.wrap(chart.compose))
    done = workloads.run_pass(workload, 42, law_counter)
    assert done.errors == [] and None not in done.reports
    assert done.evals == BENCH_EVALS[name]


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


def run_main(script: str, monkeypatch, capsys, *argv: str) -> tuple[int, list[str]]:
    """The exit code and printed lines of a script's main run with argv."""
    main = runpy.run_path(str(SCRIPTS[0].parent / script), run_name=Path(script).stem)["main"]
    monkeypatch.setattr(sys, "argv", [script, *argv])
    code = main()
    return code, capsys.readouterr().out.splitlines()


def test_report_digest_keeps_every_golden_line(monkeypatch, capsys):
    _, lines = run_main("report_digest.py", monkeypatch, capsys)
    golden = (Path(__file__).resolve().parent / "golden" / "report_digest.txt").read_text()
    assert lines == golden.splitlines()


def test_run_catalog_sweeps_every_group_without_a_failure(monkeypatch, capsys):
    code, lines = run_main("run_catalog.py", monkeypatch, capsys, "--samples", "2")
    assert code == 0
    assert [line.split()[0] for line in lines[1:1 + len(GROUP_NAMES)]] == list(GROUP_NAMES)
    assert lines[1 + len(GROUP_NAMES)] == ""
    assert lines[-1].endswith(" 0 failed checks")


def test_run_catalog_json_dir_naming_a_file_exits_two_before_any_run(tmp_path, monkeypatch,
                                                                     capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a suite ran before --json-dir was checked")

    monkeypatch.setattr(suites, "run_suite", must_not_run)
    taken = tmp_path / "taken"
    taken.write_text("")
    main = runpy.run_path(str(SCRIPTS[0].parent / "run_catalog.py"), run_name="run_catalog")["main"]
    monkeypatch.setattr(sys, "argv", ["run_catalog.py", "--json-dir", str(taken)])
    assert main() == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_run_catalog_json_dir_files_are_the_reports_bytes(tmp_path, monkeypatch, capsys):
    # a stale longer file at one report's name is overwritten to the exact bytes
    out = tmp_path / "reports"
    out.mkdir()
    (out / "affine_pde.json").write_text("x" * 100_000)
    code, _ = run_main("run_catalog.py", monkeypatch, capsys, "--samples", "2",
                       "--json-dir", str(out))
    catalog_rep = runpy.run_path(str(SCRIPTS[0].parent / "run_catalog.py"),
                                 run_name="run_catalog")["catalog_rep"]
    cfg = DiffConfig(sample_count=2, rng_seed=42)
    expected = {}
    for group in GROUP_NAMES:
        for suite in suites.SUITES:
            rep = catalog_rep(group) if suite == "rep" else None
            if suite != "rep" or rep is not None:
                report = run_suite(group, suite, cfg, rep_name=rep)
                expected[f"{group.replace(':', '_')}_{suite}.json"] = report.to_json().encode()
    assert code == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == expected


def test_essential_params_counts_every_family_as_expected(monkeypatch, capsys):
    code, lines = run_main("essential_params.py", monkeypatch, capsys, "--samples", "2")
    counts = [line for line in lines if " ranks " in line]
    assert code == 0
    assert len(counts) == len(bundled_families()) + len(GROUP_NAMES)
    assert all(line.endswith("  ok") for line in counts)
