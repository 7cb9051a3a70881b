import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from liechart import group, suites
from liechart.group import _opposite, check_rng, sample_points
from liechart.numdiff import broadcasting, invert
from liechart.reps import RepChart

settings.register_profile(
    "default",
    deadline=None,
    max_examples=25,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def check_points(chart, cfg, check_id, count=None, arity=1):
    """The arity (count, n) stacks a check table hands check_id's residual:
    count * arity points of the check's own stream, count None meaning
    cfg.sample_count, row i of stack j being point i * arity + j."""
    count = cfg.sample_count if count is None else count
    pts = sample_points(chart, cfg, check_rng(cfg, check_id), count * arity)
    return [np.ascontiguousarray(pts[j::arity]) for j in range(arity)]


def conjugate_of(rep: RepChart) -> RepChart:
    """The pointwise matrix inverse of rep, a representation of the opposite
    group, as the catalog's `conjugate` of gl:n is that of its `standard`."""
    return RepChart(group=_opposite(rep.group), m=rep.m,
                    f=broadcasting(lambda a: invert(rep(a))), name=f"conjugate({rep.name})")


def captured_table(monkeypatch, checks):
    """The rows that `checks()` hands `sampled_checks`, in order, none of them run."""
    rows = []
    with monkeypatch.context() as patched:
        for module in (group, suites):
            patched.setattr(module, "sampled_checks",
                            lambda chart, cfg, table: rows.extend(table) or iter(()))
        list(checks())
    return rows


def counted_calls(monkeypatch, owner, name: str) -> list:
    """A list that grows by one entry at each call of owner.name."""
    calls, fn = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(None) or fn(*args))
    return calls


class LawCounter:
    """Composition-law evaluations, one per row of a stacked call, and law
    calls, one per call whatever its rows."""

    def __init__(self) -> None:
        self.evals = 0
        self.calls = 0

    def wrap(self, law):
        def counted(a, b):
            lead = np.broadcast_shapes(np.shape(a)[:-1], np.shape(b)[:-1])
            self.evals += int(np.prod(lead, dtype=np.int64))
            self.calls += 1
            return law(a, b)

        # keep the law's broadcast marker: a counted chart's law, already
        # lifted if it needed to be, is not lifted again, so its calls are
        # those of the uncounted chart
        counted.broadcasts = getattr(law, "broadcasts", False)
        return counted

    def chart(self, chart, **changes):
        """A copy of chart whose law is counted, with any other field changes."""
        return dataclasses.replace(chart, compose=self.wrap(chart.compose), **changes)


@pytest.fixture
def law_counter() -> LawCounter:
    return LawCounter()
