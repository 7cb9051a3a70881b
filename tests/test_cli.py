import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import liechart.cli as cli
from liechart import catalog
from liechart.errors import SingularMatrix
from liechart.group import TOLERANCES, GroupChart
from liechart.report import CheckReport
from liechart.suites import SUITE_NAMES, SUITES


def run_cli(*argv):
    return cli.main(list(argv))


def test_shift_suite_passes(capsys):
    code = run_cli("run", "--group", "translation:2", "--suite", "shift",
                   "--samples", "4")
    out = capsys.readouterr().out
    assert code == 0
    assert "suite=shift group=translation:2" in out
    assert "0 failed" in out


def test_all_suite_small_group(capsys):
    code = run_cli("run", "--group", "translation:2", "--suite", "all",
                   "--rep", "trivial", "--samples", "4")
    assert code == 0
    out = capsys.readouterr().out
    # every family of checks shows up in the combined run (a 1-d group has
    # no structure row)
    for marker in ("cocycle_left", "maurer_left", "flow_homomorphism",
                   "rep_homomorphism", "essential_count_group_family"):
        assert marker in out, marker


def test_failed_check_returns_one(capsys):
    code = run_cli("run", "--group", "affine", "--suite", "shift",
                   "--samples", "4", "--tol-scale", "1e-12")
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_unknown_group_returns_two(capsys):
    assert run_cli("run", "--group", "so:3", "--suite", "shift") == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("alias", ["gl: 2", "gl:02", "translation:+02", "translation:1_0"])
def test_group_alias_returns_two(alias, tmp_path, capsys):
    target = tmp_path / "out.json"
    assert run_cli("run", "--group", alias, "--suite", "pde", "--json", str(target)) == 2
    assert repr(alias) in capsys.readouterr().err
    assert not target.exists()


def test_unknown_suite_returns_two(capsys):
    assert run_cli("run", "--group", "affine", "--suite", "everything") == 2


def test_unknown_rep_returns_two(capsys):
    assert run_cli("run", "--group", "gl:2", "--suite", "rep",
                   "--rep", "bogus", "--samples", "4") == 2


@pytest.mark.parametrize("suite", ["shift", "structure", "flows", "pde"])
def test_unknown_rep_returns_two_whatever_the_suite(suite, monkeypatch, capsys):
    def must_not_run(*args):
        raise AssertionError("the suite ran before --rep was looked up")

    monkeypatch.setitem(SUITES, suite, must_not_run)
    assert run_cli("run", "--group", "affine", "--suite", suite, "--rep", "bogus") == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("rep", ["tensor:standard,conjugate", "sum:conjugate,standard"])
def test_mixed_side_composite_returns_two(rep, capsys):
    # a left- and a right-sided half cannot be combined
    assert run_cli("run", "--group", "gl:2", "--suite", "rep",
                   "--rep", rep, "--samples", "4") == 2
    assert "matching sides" in capsys.readouterr().err


def test_breakdown_returns_three(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise SingularMatrix("synthetic failure")

    monkeypatch.setattr(cli, "run_suite", explode)
    assert run_cli("run", "--group", "affine", "--suite", "shift") == 3
    assert "numerical breakdown" in capsys.readouterr().err


@pytest.mark.parametrize("marked", [True, False])
def test_breakdown_names_its_check(marked, monkeypatch, capsys):
    # translation that breaks down (NaN) wherever the product exceeds 0.22:
    # sampled points (|a| <= 0.2) and their inverses compose finitely, but
    # the shift Jacobian at some product ab of two samples cannot be taken
    def law(a, b):
        ab = a + b
        return np.where(ab > 0.22, np.nan, ab)

    law.broadcasts = marked
    chart = GroupChart(n=1, compose=law, identity=np.zeros(1),
                       inverse_hint=lambda a: -a, name="brittle")
    monkeypatch.setattr(catalog, "get_group", lambda _: chart)
    assert run_cli("run", "--group", "translation:1", "--suite", "shift") == 3
    err = capsys.readouterr().err
    assert "numerical breakdown: NonFiniteEvaluation: cocycle_left: jacobian point" in err


def test_bad_fd_step_rejected():
    with pytest.raises(SystemExit):
        run_cli("run", "--group", "affine", "--fd-step", "nope")
    with pytest.raises(SystemExit):
        run_cli("run", "--group", "affine", "--fd-step", "2.0")


@pytest.mark.parametrize("flag, value", [
    ("--samples", "0"),
    ("--tol-scale", "-1"),
    ("--tol-scale", "nan"),
])
def test_bad_flag_value_is_usage_error(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--group", "affine", "--suite", "shift", flag, value)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and flag in err


def test_json_report_written(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = run_cli("run", "--group", "affine", "--suite", "structure",
                   "--samples", "4", "--json", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert list(doc.keys()) == [
        "suite", "group", "rep", "seed", "fd_step", "tol", "checks", "wall_time_ms"]
    assert doc["suite"] == "structure"
    assert doc["group"] == "affine"
    assert doc["seed"] == 42
    assert doc["wall_time_ms"] is None
    ids = [c["id"] for c in doc["checks"]]
    # at n = 2 the Jacobi row is fixed at 0.0, so the suite does not yield it
    assert "maurer_left" in ids and "jacobi_left" not in ids


def test_empty_report_is_valid_json(tmp_path, capsys):
    # a 1-d group yields no structure row
    target = tmp_path / "empty.json"
    assert run_cli("run", "--group", "translation:1", "--suite", "structure",
                   "--json", str(target)) == 0
    assert "0 checks, 0 failed" in capsys.readouterr().out
    doc = json.loads(target.read_text())
    assert doc["tol"] == {} and doc["checks"] == []


@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_unwritable_json_path_returns_two_before_running(where, tmp_path, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the suite ran before the --json path was checked")

    monkeypatch.setattr(cli, "run_suite", must_not_run)
    target = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    assert run_cli("run", "--group", "translation:1", "--suite", "pde",
                   "--json", str(target)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_json_write_failure_returns_two(tmp_path, monkeypatch, capsys):
    # the path checks out, but the write itself fails
    def refuse(self, path):
        raise PermissionError("read-only")

    monkeypatch.setattr(CheckReport, "write_json", refuse)
    assert run_cli("run", "--group", "translation:1", "--suite", "pde",
                   "--json", str(tmp_path / "x.json")) == 2
    assert "error: cannot write" in capsys.readouterr().err


LONG = ("run", "--group", "affine", "--suite", "structure", "--samples", "4")
SHORT = ("run", "--group", "translation:1", "--suite", "structure")


@pytest.mark.parametrize("first, second", [(LONG, SHORT), (SHORT, LONG)],
                         ids=["long-then-short", "short-then-long"])
def test_json_rewrite_of_one_path_holds_only_the_last_report(first, second, tmp_path, capsys):
    # the report is written in place: a shorter one must cut the old tail off
    same, fresh = tmp_path / "same.json", tmp_path / "fresh.json"
    assert run_cli(*first, "--json", str(same)) == 0
    assert run_cli(*second, "--json", str(same)) == 0
    assert run_cli(*second, "--json", str(fresh)) == 0
    assert same.read_bytes() == fresh.read_bytes()
    assert json.loads(same.read_text())["group"] == second[2]


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null here")
def test_json_to_a_non_regular_file_is_written_untruncated(capsys):
    # /dev/null takes the bytes but cannot be truncated
    assert run_cli("run", "--group", "translation:1", "--suite", "pde",
                   "--json", "/dev/null") == 0
    assert "report written to /dev/null" in capsys.readouterr().out


def test_json_to_the_file_stdout_is_redirected_to_returns_two_before_running(tmp_path):
    # `--json /dev/stdout > out.txt` would write the report and the console
    # lines over each other in out.txt
    out = tmp_path / "out.txt"
    argv = [sys.executable, "-m", "liechart.cli", "run", "--group", "translation:1",
            "--suite", "pde", "--json"]
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    for target in (["/dev/stdout"] if os.path.exists("/dev/stdout") else []) + [str(out)]:
        with out.open("w") as stdout:
            done = subprocess.run(argv + [target], env=env, stdout=stdout, stderr=subprocess.PIPE,
                                  text=True, timeout=60)
        assert done.returncode == 2, target
        assert done.stderr.startswith("error: --json path") and "stdout" in done.stderr
        assert out.read_text() == ""


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout here")
def test_json_to_stdout_through_a_pipe_is_written(tmp_path):
    done = subprocess.run([sys.executable, "-m", "liechart.cli", "run", "--group",
                           "translation:1", "--suite", "pde", "--json", "/dev/stdout"],
                          env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    report = done.stdout[done.stdout.index("{"):done.stdout.rindex("}") + 1]
    assert json.loads(report)["group"] == "translation:1"
    assert done.stdout.endswith("report written to /dev/stdout\n")


def test_json_byte_identical_across_runs(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    flags = ["run", "--group", "multiplicative", "--suite", "flows",
             "--samples", "5", "--seed", "9"]
    assert run_cli(*flags, "--json", str(a)) == 0
    assert run_cli(*flags, "--json", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    # two calls in one process share the parser, yet each writes the report
    # of a fresh interpreter: flags of the first (--samples, --fd-step,
    # --tol-scale) leave no default behind for the second
    assert cli.build_parser() is cli.build_parser()
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    calls = [["run", "--group", "affine", "--suite", "shift", "--seed", "3", "--samples", "4",
              "--fd-step", "1e-5", "--tol-scale", "2"],
             ["run", "--group", "gl:2", "--suite", "flows", "--seed", "8"]]
    for i, argv in enumerate(calls):
        here, fresh = tmp_path / f"here{i}.json", tmp_path / f"fresh{i}.json"
        assert run_cli(*argv, "--json", str(here)) == 0
        done = subprocess.run([sys.executable, "-m", "liechart.cli", *argv, "--json", str(fresh)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert here.read_bytes() == fresh.read_bytes()
    assert json.loads((tmp_path / "here1.json").read_text())["fd_step"] != 1e-5


def test_a_run_imports_numpy_only(tmp_path):
    # a fresh interpreter: this one has imported scipy for test references
    target = tmp_path / "run.json"
    code = ("import sys\n"
            "from liechart import cli\n"
            "code = cli.main(['run', '--group', 'translation:1', '--suite', 'all',\n"
            f"                 '--json', {str(target)!r}])\n"
            "print(code, 'scipy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-2:] == ["0", "False"]
    assert json.loads(target.read_text())["checks"]


def test_seed_changes_samples_not_verdicts(tmp_path, capsys):
    docs = []
    for seed in (1, 2):
        target = tmp_path / f"s{seed}.json"
        run_cli("run", "--group", "affine", "--suite", "shift",
                "--samples", "5", "--seed", str(seed), "--json", str(target))
        docs.append(json.loads(target.read_text()))
    verdicts = [[c["pass"] for c in d["checks"]] for d in docs]
    assert verdicts[0] == verdicts[1]
    residuals = [[c["max_residual"] for c in d["checks"]] for d in docs]
    assert residuals[0] != residuals[1]


def test_rep_field_only_set_for_rep_suites(tmp_path, capsys):
    shift = tmp_path / "shift.json"
    rep = tmp_path / "rep.json"
    run_cli("run", "--group", "gl:2", "--suite", "shift", "--samples", "4",
            "--json", str(shift))
    run_cli("run", "--group", "gl:2", "--suite", "rep", "--rep", "standard",
            "--samples", "4", "--json", str(rep))
    assert json.loads(shift.read_text())["rep"] is None
    assert json.loads(rep.read_text())["rep"] == "standard"


def test_rep_suite_without_rep_has_no_rows(tmp_path, capsys):
    target = tmp_path / "no-rep.json"
    code = run_cli("run", "--group", "affine", "--suite", "rep",
                   "--samples", "4", "--json", str(target))
    assert code == 0
    assert "0 checks, 0 failed" in capsys.readouterr().out
    doc = json.loads(target.read_text())
    assert doc["rep"] is None and doc["checks"] == []


def test_fd_step_recorded_in_report(tmp_path, capsys):
    target = tmp_path / "step.json"
    run_cli("run", "--group", "affine", "--suite", "structure", "--samples", "4",
            "--fd-step", "1e-5", "--json", str(target))
    assert json.loads(target.read_text())["fd_step"] == 1e-5


def test_tolerance_table_covers_all_suites():
    assert set(SUITE_NAMES) == {"shift", "structure", "flows", "rep", "pde", "all"}
    for check_id, tol in TOLERANCES.items():
        assert tol > 0.0, check_id


REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,samples", [
    ("run_catalog.py", "0"), ("essential_params.py", "-3"),
])
def test_demo_scripts_reject_bad_samples(script, samples):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, str(REPO / "scripts" / script),
                           "--samples", samples],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "--samples" in done.stderr
    assert "Traceback" not in done.stderr
