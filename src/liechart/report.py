"""Check records and byte-stable report serialization."""

from __future__ import annotations

import json
import math
import os
import stat
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one named residual check."""

    check_id: str
    max_residual: float
    tolerance: float
    samples: int
    passed: bool

    @staticmethod
    def from_residual(check_id: str, residual: float, tolerance: float, samples: int) -> "CheckRecord":
        r = float(residual)
        return CheckRecord(check_id, r, float(tolerance), int(samples),
                           bool(np.isfinite(r) and r <= tolerance))


@dataclass
class CheckReport:
    """A batch of check records plus the context they ran under.

    wall_time_ms is measured for the console summary but serialized as
    null: the JSON artifact must be byte-identical across reruns with the
    same seed and flags, and a timing can never be.
    """

    suite: str
    group: str
    rep: str | None = None
    seed: int = 42
    fd_step: float = 0.0
    checks: list[CheckRecord] = field(default_factory=list)
    wall_time_ms: float | None = None

    def add(self, record: CheckRecord) -> None:
        self.checks.append(record)

    def extend(self, records) -> None:
        for r in records:
            self.checks.append(r)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def tol(self) -> dict[str, float]:
        return {c.check_id: c.tolerance for c in self.checks}

    def to_json(self) -> str:
        """Render with fixed field order and 17-significant-digit reals."""
        lines = ["{"]
        lines.append(f'  "suite": {json.dumps(self.suite)},')
        lines.append(f'  "group": {json.dumps(self.group)},')
        lines.append(f'  "rep": {json.dumps(self.rep)},')
        lines.append(f'  "seed": {int(self.seed)},')
        lines.append(f'  "fd_step": {_jf(self.fd_step)},')
        if self.tol:
            lines.append('  "tol": {')
            entries = [f'    {json.dumps(k)}: {_jf(v)}' for k, v in self.tol.items()]
            lines.append(",\n".join(entries))
            lines.append("  },")
        else:
            lines.append('  "tol": {},')
        if self.checks:
            lines.append('  "checks": [')
            rows = []
            for c in self.checks:
                rows.append(
                    "    {"
                    + f'"id": {json.dumps(c.check_id)}, '
                    + f'"max_residual": {_jf(c.max_residual)}, '
                    + f'"samples": {int(c.samples)}, '
                    + f'"pass": {"true" if c.passed else "false"}'
                    + "}"
                )
            lines.append(",\n".join(rows))
            lines.append("  ],")
        else:
            lines.append('  "checks": [],')
        lines.append('  "wall_time_ms": null')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def write_json(self, path) -> None:
        """Write to_json() to path: the one writer of a report file.

        The file is overwritten in place and then cut to the report's
        length, not truncated to zero first: on ext4 a truncate-to-zero
        rewrite costs about ten times as much.  A target that is not a
        regular file (/dev/null, a pipe, a terminal) is written but never
        truncated.  An OSError reaches the caller.
        """
        data = self.to_json().encode()
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
            f.write(data)
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                f.truncate(len(data))

    def table(self) -> str:
        """Fixed-width console summary, one row per check."""
        w = max([len(c.check_id) for c in self.checks] + [8])
        head = f"{'check':<{w}}  {'max residual':>13}  {'tolerance':>10}  {'n':>4}  result"
        rows = [head, "-" * len(head)]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            rows.append(
                f"{c.check_id:<{w}}  {c.max_residual:>13.4e}  {c.tolerance:>10.1e}"
                f"  {c.samples:>4d}  {status}"
            )
        n_fail = sum(not c.passed for c in self.checks)
        tail = f"{len(self.checks)} checks, {n_fail} failed"
        if self.wall_time_ms is not None:
            tail += f", {self.wall_time_ms:.0f} ms"
        rows.append(tail)
        return "\n".join(rows)


def _jf(x: float) -> str:
    """Format a real with 17 significant digits, stable across runs.

    JSON has no NaN or Infinity, so a non-finite value is written as null;
    a record holding one never passes.
    """
    v = float(x)
    if not math.isfinite(v):
        return "null"
    if v == int(v) and abs(v) < 1e16:
        return f"{v:.1f}"
    return format(v, ".17g")
