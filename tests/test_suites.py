import dataclasses
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from conftest import captured_table
from liechart import catalog, group, pde, reps, structure, suites
from liechart.errors import NonFiniteEvaluation, SingularMatrix, UnknownEntry
from liechart.group import (SHIFT_CHECK_IDS, TOLERANCES, check_chart_axioms,
                            verify_shift_identities)
from liechart.numdiff import DiffConfig
from liechart.reps import RepChart
from liechart.suites import SUITE_NAMES, SUITES, run_suite

GOLDEN = Path(__file__).parent / "golden"

CFG = DiffConfig(sample_count=4)

AXIOM_IDS = (
    "chart_identity_left", "chart_identity_right", "chart_associativity",
    "inverse_left", "inverse_roundtrip",
    "basic_ops_at_identity",
)

STRUCTURE_IDS = (
    "jacobi_left",
    "maurer_left", "field_commutators_left",
    "maurer_right", "field_commutators_right",
)

FLOW_IDS = ("flow_homomorphism", "flow_homomorphism_left")

CANONICAL_IDS = ("canonical_additivity",)

REP_IDS = (
    "rep_identity", "rep_homomorphism", "rep_inverse",
    "rep_pde_map", "rep_integrability", "rep_mixed_identity",
)

PDE_IDS = ("essential_count_group_family",)


def ids_of(report):
    return [c.check_id for c in report.checks]


def test_shift_suite_roster():
    report = run_suite("affine", "shift", CFG)
    assert ids_of(report) == list(AXIOM_IDS) + list(SHIFT_CHECK_IDS)
    assert report.all_passed


def test_structure_suite_roster():
    # the Jacobiator of antisymmetric constants is an alternating 3-form,
    # which vanishes on a 2-d space, so affine gets no jacobi_left row
    report = run_suite("affine", "structure", CFG)
    assert ids_of(report) == list(STRUCTURE_IDS[1:])
    assert report.all_passed


@pytest.mark.parametrize("group, ids", [
    ("translation:3", STRUCTURE_IDS),
    ("gl:2", STRUCTURE_IDS),
    # a 1-d algebra is abelian: its constants read 0.0 for any law
    ("multiplicative", ()),
])
def test_structure_suite_roster_follows_the_dimension(group, ids):
    report = run_suite(group, "structure", CFG)
    assert ids_of(report) == list(ids)
    assert report.all_passed


def test_flows_suite_roster_multidim():
    report = run_suite("affine", "flows", CFG)
    assert ids_of(report) == list(FLOW_IDS)
    assert report.all_passed


def test_flows_suite_adds_canonical_checks_in_1d():
    report = run_suite("multiplicative", "flows", CFG)
    assert ids_of(report) == list(FLOW_IDS) + list(CANONICAL_IDS)
    assert report.all_passed


def test_rep_suite_roster():
    report = run_suite("gl:2", "rep", CFG, rep_name="standard")
    assert ids_of(report) == list(REP_IDS)
    assert report.rep == "standard"
    assert report.all_passed


def test_pde_suite_roster():
    report = run_suite("translation:2", "pde", CFG)
    assert ids_of(report) == list(PDE_IDS)
    assert report.all_passed


def test_all_suite_concatenates_in_order():
    # a 1-d group runs no structure row and no rep_integrability
    report = run_suite("multiplicative", "all", CFG, rep_name="trivial")
    expected = (list(AXIOM_IDS) + list(SHIFT_CHECK_IDS) + list(FLOW_IDS)
                + list(CANONICAL_IDS) + [i for i in REP_IDS if i != "rep_integrability"]
                + list(PDE_IDS))
    assert ids_of(report) == expected
    assert report.rep == "trivial"
    assert report.all_passed


@pytest.mark.parametrize("suite", ["rep", "all"])
def test_no_rep_rows_without_a_named_rep(suite):
    report = run_suite("translation:3", suite, CFG)
    assert report.rep is None
    assert not set(ids_of(report)) & set(REP_IDS)


def test_rep_suite_measures_the_generators_once(monkeypatch):
    calls = []
    measure = reps.rep_generators
    monkeypatch.setattr(reps, "rep_generators", lambda *a: calls.append(1) or measure(*a))
    run_suite("gl:2", "rep", CFG, rep_name="standard")
    assert len(calls) == 1


# composition-law evaluations of `all` at seed 42 and the default 20
# samples; the structure and rep suites share one measurement of the
# generator tensor, which costs 4n² + 1 = 325 evaluations on gl:3
ALL_GL3_STANDARD_EVALS = 59_117


def test_all_suite_measures_the_group_generators_once(monkeypatch, law_counter):
    chart = law_counter.chart(catalog.get_group("gl:3"))
    monkeypatch.setattr(catalog, "get_group", lambda _: chart)
    calls = []
    measure = structure.group_generators
    monkeypatch.setattr(structure, "group_generators", lambda *a: calls.append(1) or measure(*a))
    run_suite("gl:3", "all", DiffConfig(), rep_name="standard")
    assert len(calls) == 1
    assert law_counter.evals == ALL_GL3_STANDARD_EVALS
    # the measurement is kept for one run only: the next run measures again
    run_suite("gl:3", "structure", CFG)
    assert len(calls) == 2


# law calls of that run; a reversed-side representation, one of the
# opposite group, costs what standard does, its rep_integrability taking
# the measured tensor with its lower slots swapped
ALL_GL3_CALLS = 528


@pytest.mark.parametrize("rep_name", ["standard", "conjugate"])
def test_all_suite_law_calls_on_either_side(rep_name, monkeypatch, law_counter):
    chart = law_counter.chart(catalog.get_group("gl:3"))
    monkeypatch.setattr(catalog, "get_group", lambda _: chart)
    assert run_suite("gl:3", "all", DiffConfig(), rep_name=rep_name).all_passed
    assert (law_counter.evals, law_counter.calls) == (ALL_GL3_STANDARD_EVALS, ALL_GL3_CALLS)


# law calls and evaluations of the seed-42 rep suite on each group's catalog
# representation, and on gl:2's reversed-side ones, which run on the
# opposite group: one table, so one vetting per sampler round for all its rows
REP_SUITE_CALLS = {("affine", "matrix"): 9, ("gl:2", "standard"): 9, ("gl:3", "standard"): 9,
                   ("gl:2", "conjugate"): 9, ("gl:2", "tensor:conjugate,conjugate"): 9}
REP_SUITE_EVALS = {("affine", "matrix"): 497, ("gl:2", "standard"): 785,
                   ("gl:3", "standard"): 1_645, ("gl:2", "conjugate"): 785,
                   ("gl:2", "tensor:conjugate,conjugate"): 785}


@pytest.mark.parametrize("group_name, rep_name", sorted(REP_SUITE_CALLS))
def test_rep_suite_law_calls(group_name, rep_name, monkeypatch, law_counter):
    chart = law_counter.chart(catalog.get_group(group_name))
    monkeypatch.setattr(catalog, "get_group", lambda _: chart)
    assert run_suite(group_name, "rep", DiffConfig(), rep_name=rep_name).all_passed
    assert law_counter.calls == REP_SUITE_CALLS[group_name, rep_name]
    assert law_counter.evals == REP_SUITE_EVALS[group_name, rep_name]


def test_rep_suite_rejects_a_representation_of_another_chart(law_counter):
    # the report would mix two groups: translation:2 rows and affine matrices
    chart = law_counter.chart(catalog.get_group("translation:2"))
    matrix = catalog.get_rep("affine", "matrix")
    rep = dataclasses.replace(matrix, group=law_counter.chart(matrix.group))
    for other in (rep, dataclasses.replace(rep, group=group._opposite(rep.group))):
        with pytest.raises(ValueError, match="'affine' cannot run on chart 'translation:2'"):
            list(SUITES["rep"](chart, other, CFG, structure.group_generators))
    assert (law_counter.evals, law_counter.calls) == (0, 0)


def _planted(*pts):
    raise SingularMatrix("planted")


@pytest.mark.parametrize("suite, group_name, rep_name", [
    ("structure", "gl:3", None), ("rep", "affine", "matrix"), ("rep", "gl:2", "conjugate"),
])
def test_a_breakdown_in_each_sampled_row_is_named_by_that_row(suite, group_name, rep_name,
                                                                monkeypatch):
    chart = catalog.get_group(group_name)
    rep = catalog.get_rep(group_name, rep_name) if rep_name else None
    rows = captured_table(monkeypatch, lambda: SUITES[suite](chart, rep, CFG,
                                                             structure.group_generators))
    sampled = [check_id for check_id, arity, _, _ in rows if arity]
    assert len(sampled) == {"structure": 4, "rep": 4}[suite]
    for planted in sampled:
        table = [(check_id, arity, count, _planted if check_id == planted else fn)
                 for check_id, arity, count, fn in rows]
        with pytest.raises(SingularMatrix) as caught:
            list(group.sampled_checks(chart, CFG, table))
        assert str(caught.value) == f"{planted}: planted"


@pytest.mark.parametrize("group_name, rep_name", [
    ("gl:1", "standard"), ("affine", "matrix"), ("gl:3", "standard"),
])
def test_every_sampled_row_draws_from_the_stream_of_its_id(group_name, rep_name, monkeypatch):
    streams, check_rng = [], group.check_rng

    def spy(cfg, check_id):
        streams.append(check_id)
        return check_rng(cfg, check_id)

    for module in (group, suites, pde):
        monkeypatch.setattr(module, "check_rng", spy)
    ids = [c.check_id for c in run_suite(group_name, "all", CFG, rep_name=rep_name).checks]
    unsampled = {"flow_homomorphism", "flow_homomorphism_left", "essential_count_group_family"}
    # the flows share one direction, and the parameter count samples a box, not the group
    others = ["flow_direction", f"essential_params_compose_{group_name}"]
    assert sorted(streams) == sorted([i for i in ids if i not in unsampled] + others)


def test_rep_identity_breakdown_names_its_row():
    # finite at every stencil point around the identity, NaN at the identity itself
    chart = catalog.get_group("affine")

    def f(a):
        return np.full((1, 1), np.nan if np.array_equal(a, chart.identity) else 1.0)

    rep = RepChart(group=chart, m=1, f=f, name="hole")
    with pytest.raises(NonFiniteEvaluation, match="^rep_identity: representation value"):
        list(SUITES["rep"](chart, rep, CFG, structure.group_generators))


@cache
def _all_records():
    # the 1-d roster runs canonical_additivity, the 3-d one jacobi_left and
    # rep_integrability; trivial is the one representation of both groups
    return [c for group in ("multiplicative", "translation:3")
            for c in run_suite(group, "all", CFG, rep_name="trivial").checks]


def test_every_roster_id_has_a_tolerance():
    for rec in _all_records():
        assert rec.tolerance > 0.0, rec.check_id
    assert set(TOLERANCES) == {c.check_id for c in _all_records()}
    assert len(TOLERANCES) == 40


def test_tolerance_table_has_no_orphans():
    orphans = set(TOLERANCES) - {c.check_id for c in _all_records()}
    assert not orphans, f"tolerances without a check: {sorted(orphans)}"


def test_unknown_names_raise_before_work():
    with pytest.raises(UnknownEntry):
        run_suite("so:3", "shift", CFG)
    with pytest.raises(UnknownEntry):
        run_suite("affine", "everything", CFG)
    with pytest.raises(UnknownEntry):
        run_suite("gl:2", "rep", CFG, rep_name="bogus")


def test_tol_scale_applies_to_records():
    base = run_suite("affine", "structure", CFG)
    scaled = run_suite("affine", "structure", CFG, tol_scale=10.0)
    for a, b in zip(base.checks, scaled.checks):
        assert b.tolerance == pytest.approx(10.0 * a.tolerance)


@pytest.mark.parametrize("group, rep, name", [
    ("affine", "matrix", "all_affine_matrix.json"),
    ("gl:2", "conjugate", "all_gl2_conjugate.json"),        # reversed side
    ("multiplicative", None, "all_multiplicative.json"),    # canonical checks
])
def test_all_suite_matches_golden_report(group, rep, name):
    report = run_suite(group, "all", CFG, rep_name=rep)
    assert report.to_json() == (GOLDEN / name).read_text()


@pytest.mark.parametrize("check, name", [
    (check_chart_axioms, "chart_axioms_gl2_newton.json"),
    (verify_shift_identities, "shift_identities_gl2_newton.json"),
])
def test_hint_free_reports_match_golden(check, name):
    # a user's copy of the gl:2 law without an inverse hint, so every
    # inverse is a damped Newton solve
    chart = dataclasses.replace(catalog.get_group("gl:2"), inverse_hint=None, name="gl:2-newton")
    assert check(chart, DiffConfig(rng_seed=42)).to_json() == (GOLDEN / name).read_text()


@pytest.mark.parametrize("group", ["affine", "gl:2"])
def test_chart_checks_match_shift_suite(group):
    chart = catalog.get_group(group)
    via_suite = run_suite(group, "shift", CFG, tol_scale=2.0).checks
    direct = (check_chart_axioms(chart, CFG, 2.0).checks
              + verify_shift_identities(chart, CFG, 2.0).checks)
    assert direct == via_suite


def test_suite_names_come_from_the_suite_table():
    assert SUITE_NAMES == (*SUITES, "all")


def test_unknown_rep_raises_before_any_evaluation(monkeypatch):
    chart = catalog.get_group("affine")
    calls = []
    law = chart.compose
    monkeypatch.setattr(chart, "compose", lambda a, b: calls.append(1) or law(a, b))
    with pytest.raises(UnknownEntry):
        run_suite("affine", "all", CFG, rep_name="bogus")
    assert calls == []
