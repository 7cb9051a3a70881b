"""Exception types raised by the numeric kernel and the chart operations."""

from __future__ import annotations


class LieChartError(Exception):
    """Base class for everything this package raises on purpose."""


class NonFiniteEvaluation(LieChartError):
    """A user-supplied map produced NaN or Inf at a probed point."""


class SingularMatrix(LieChartError):
    """A pivot fell below the rank tolerance during elimination."""


class NoConvergence(LieChartError):
    """An iterative solve (Newton inverse, sampler) ran out of iterations."""


class LeftChart(LieChartError):
    """A flow escaped the chart trust region before reaching t_end."""


class ZeroPsi(LieChartError):
    """The scalar basic operator vanished on an integration path."""


class NotIntegrable(LieChartError):
    """A PDE system failed its integrability precondition."""


class UnknownEntry(LieChartError):
    """Requested catalog group or representation does not exist."""


# a numerical breakdown while checking: the CLI's exit code 3
BREAKDOWN = (NonFiniteEvaluation, SingularMatrix, NoConvergence, LeftChart, ZeroPsi,
             NotIntegrable)
