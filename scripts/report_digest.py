"""SHA-256 digests over fixed JSON reports and PDE results, to show a change keeps their bytes.

Usage: PYTHONPATH=src python scripts/report_digest.py

Run it before and after a change that must not move any residual: equal
digests mean every report below is byte-identical.  The tier-1 tests
compare its lines with tests/golden/report_digest.txt; a change meant to
move a digest writes that file again from this script's output.  The set, at seeds 42
and 7 with the default sample count:

* every catalog group through every suite (`all` included);
* the `rep` and `all` suites for the representations in REPS;
* the same two suites for those in MORE_REPS, which reach a direct sum, a
  right-sided tensor product and the trivial representation;
* `check_chart_axioms` and `verify_shift_identities` on hint-free copies of
  the affine and gl:2 laws (every inverse a Newton solve) and on a plain
  ax+b law written for single points (lifted by `numdiff.rowwise`).

A second digest covers the PDE library, by the repr of each result at the
same seeds: `integrability_residual` of both fixtures, the
`essential_param_ranks` of every bundled family and every catalog
composition family, and the `taylor_solve` and `solve_along_path`
endpoints of `exponential_system`.  It calls only functions whose
signatures predate the stacked PDE layer, so it runs on either side of
that change.

Then one digest per check id, over the label and row of every report row
with that id, so a change meant to move one check shows which ids moved.
The MORE_REPS reports come next, with a report digest and per-id digests
of their own, so the lines above them keep the values recorded before
those representations were added.

The flow line covers the flows themselves, which the suites reach only
through their reports: the bytes of every `flows.one_param_subgroups`
result (each path array, or the type and message of the error that
stopped it), both flavors in one stack, on every catalog group and the
ax+b law, step-doubled to t_end 1.0 and in 7 fixed steps to t_end 0.7,
in the direction the flows suite draws at each seed.

The per-id digests above hash each row without its tolerance, which a
report keeps in its "tol" table, so a moved tolerance shows there only in
the report digests.  The last lines are one digest per check id over the
label and tolerance of every report, MORE_REPS included, that has it.
"""

import dataclasses
import hashlib
import json
from typing import Iterator

import numpy as np

from liechart.catalog import GROUP_NAMES, get_group
from liechart.flows import one_param_subgroups
from liechart.group import GroupChart, check_chart_axioms, check_rng, verify_shift_identities
from liechart.numdiff import DiffConfig
from liechart.pde import (
    bundled_families,
    essential_param_ranks,
    exponential_system,
    group_composition_family,
    integrability_residual,
    shear_system,
    solve_along_path,
    taylor_solve,
)
from liechart.suites import SUITE_NAMES, run_suite

SEEDS = (42, 7)
REPS = (
    ("gl:2", "standard"),
    ("gl:2", "conjugate"),
    ("gl:2", "tensor:standard,standard"),
    ("affine", "matrix"),
    ("gl:3", "standard"),
)
MORE_REPS = (
    ("gl:2", "sum:standard,trivial"),
    ("gl:2", "tensor:conjugate,conjugate"),
    ("affine", "trivial"),
)


def _charts() -> tuple[GroupChart, ...]:
    hint_free = tuple(dataclasses.replace(get_group(g), inverse_hint=None, name=f"{g}-newton")
                      for g in ("affine", "gl:2"))
    return (*hint_free, _ax_b())


def _ax_b() -> GroupChart:
    return GroupChart(n=2, compose=lambda a, b: np.array([a[0] * b[0], a[0] * b[1] + a[1]]),
                      identity=np.array([1.0, 0.0]), name="ax+b")


def reports() -> Iterator[tuple[str, str]]:
    """(label, JSON report) pairs, in digest order."""
    charts = _charts()
    for seed in SEEDS:
        cfg = DiffConfig(rng_seed=seed)
        for group in GROUP_NAMES:
            for suite in SUITE_NAMES:
                yield f"{seed} {group} {suite}", run_suite(group, suite, cfg).to_json()
        yield from rep_reports(cfg, REPS)
        for chart in charts:
            for check in (check_chart_axioms, verify_shift_identities):
                yield f"{seed} {chart.name} {check.__name__}", check(chart, cfg).to_json()


def rep_reports(cfg: DiffConfig, reps) -> Iterator[tuple[str, str]]:
    """(label, JSON report) pairs of the `rep` and `all` suites for each (group, rep)."""
    for group, rep in reps:
        for suite in ("rep", "all"):
            yield (f"{cfg.rng_seed} {group} {suite} {rep}",
                   run_suite(group, suite, cfg, rep_name=rep).to_json())


def pde_results() -> Iterator[tuple[str, str]]:
    """(label, repr of a PDE library result) pairs, in digest order."""
    for seed in SEEDS:
        cfg = DiffConfig(rng_seed=seed)
        for make in (exponential_system, shear_system):
            yield f"{seed} {make.__name__} integrability", repr(integrability_residual(make(), cfg))
        families = [item.family for item in bundled_families()]
        families += [group_composition_family(get_group(g)) for g in GROUP_NAMES]
        for fam in families:
            yield f"{seed} {fam.name} ranks", repr(essential_param_ranks(fam, cfg))
        sys = exponential_system()
        end = taylor_solve(sys, [1.0], [0.0, 0.0], [0.3, 0.1], cfg)
        yield f"{seed} taylor_solve", repr(end.tolist())
        end = solve_along_path(sys, [1.0], [[0.0, 0.0], [0.2, 0.0], [0.3, 0.1]], cfg)
        yield f"{seed} solve_along_path", repr(end.tolist())


def flow_results() -> Iterator[tuple[str, str]]:
    """(label, bytes of a flow or its error) pairs, in digest order."""
    flavors = ("right", "left")
    for seed in SEEDS:
        cfg = DiffConfig(rng_seed=seed)
        for chart in (*map(get_group, GROUP_NAMES), _ax_b()):
            alpha = check_rng(cfg, "flow_direction").uniform(-0.2, 0.2, chart.n)
            for t_end, steps in ((1.0, None), (0.7, 7)):
                stack = one_param_subgroups(chart, alpha, t_end, flavors, steps, cfg)
                for flavor, path in zip(flavors, stack):
                    text = (f"{type(path).__name__}: {path}" if isinstance(path, Exception)
                            else f"{path.shape} {path.tobytes().hex()}")
                    yield f"{seed} {chart.name} {flavor} t_end={t_end} steps={steps}", text


def _digest(pairs: Iterator[tuple[str, str]]) -> tuple[str, int]:
    digest = hashlib.sha256()
    count = 0
    for label, text in pairs:
        digest.update(f"{label}\n{text}\n".encode())
        count += 1
    return digest.hexdigest(), count


def _print_per_id(pairs: list[tuple[str, str]]) -> None:
    rows: dict[str, list[tuple[str, str]]] = {}
    for label, text in pairs:
        for row in json.loads(text)["checks"]:
            rows.setdefault(row["id"], []).append((label, json.dumps(row)))
    for check_id in sorted(rows):
        print("%s  %d rows" % _digest(iter(rows[check_id])), check_id)


def _print_tolerances(pairs: list[tuple[str, str]]) -> None:
    tols: dict[str, list[tuple[str, str]]] = {}
    for label, text in pairs:
        for check_id, tol in json.loads(text)["tol"].items():
            tols.setdefault(check_id, []).append((label, json.dumps(tol)))
    for check_id in sorted(tols):
        print("%s  %d tolerances" % _digest(iter(tols[check_id])), check_id)


def main() -> None:
    pairs = list(reports())
    print("%s  %d reports" % _digest(iter(pairs)))
    print("%s  %d PDE results" % _digest(pde_results()))
    _print_per_id(pairs)
    more = [pair for seed in SEEDS for pair in rep_reports(DiffConfig(rng_seed=seed), MORE_REPS)]
    print("%s  %d MORE_REPS reports" % _digest(iter(more)))
    _print_per_id(more)
    print("%s  %d flow results" % _digest(flow_results()))
    _print_tolerances(pairs + more)


if __name__ == "__main__":
    main()
