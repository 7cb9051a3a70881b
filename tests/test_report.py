import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from liechart.report import CheckRecord, CheckReport


def demo_report():
    rpt = CheckReport(suite="structure", group="affine", seed=7, fd_step=1e-5)
    rpt.add(CheckRecord.from_residual("alpha", 1.25e-9, 1e-6, 20))
    rpt.add(CheckRecord.from_residual("beta", 0.5, 1e-3, 20))
    rpt.add(CheckRecord.from_residual("gamma", 1.0 / 3.0, 1.0, 5))
    return rpt


def test_from_residual_pass_fail():
    assert CheckRecord.from_residual("x", 1e-9, 1e-6, 3).passed
    assert not CheckRecord.from_residual("x", 1e-3, 1e-6, 3).passed
    assert CheckRecord.from_residual("x", 1e-6, 1e-6, 3).passed  # boundary counts


def test_from_residual_nonfinite_fails():
    assert not CheckRecord.from_residual("x", float("nan"), 1e-6, 3).passed
    assert not CheckRecord.from_residual("x", float("inf"), 1e-6, 3).passed


def test_all_passed_property():
    rpt = demo_report()
    assert not rpt.all_passed
    good = CheckReport(suite="s", group="g")
    good.add(CheckRecord.from_residual("a", 0.0, 1.0, 1))
    assert good.all_passed


def test_json_is_valid_and_ordered():
    doc = json.loads(demo_report().to_json())
    assert list(doc.keys()) == [
        "suite", "group", "rep", "seed", "fd_step", "tol", "checks", "wall_time_ms"]
    assert doc["suite"] == "structure"
    assert doc["group"] == "affine"
    assert doc["rep"] is None
    assert doc["seed"] == 7
    assert doc["fd_step"] == 1e-5
    assert list(doc["tol"].keys()) == ["alpha", "beta", "gamma"]
    assert [c["id"] for c in doc["checks"]] == ["alpha", "beta", "gamma"]
    assert [list(c.keys()) for c in doc["checks"]] == [
        ["id", "max_residual", "samples", "pass"]] * 3
    assert doc["checks"][0]["pass"] is True
    assert doc["checks"][1]["pass"] is False


def test_json_roundtrips_floats_exactly():
    doc = json.loads(demo_report().to_json())
    assert doc["checks"][0]["max_residual"] == 1.25e-9
    assert doc["checks"][2]["max_residual"] == 1.0 / 3.0


def test_json_measured_time_never_serialized():
    rpt = demo_report()
    rpt.wall_time_ms = 123.456
    doc = json.loads(rpt.to_json())
    assert doc["wall_time_ms"] is None
    assert '"wall_time_ms": null' in rpt.to_json()


def test_json_byte_stable_across_calls():
    a = demo_report()
    b = demo_report()
    b.wall_time_ms = 999.0  # timing must not leak into the bytes
    assert a.to_json() == b.to_json()


def test_empty_report_serializes():
    doc = json.loads(CheckReport(suite="s", group="g").to_json())
    assert doc["checks"] == []
    assert doc["tol"] == {}


def test_table_summary():
    rpt = demo_report()
    rpt.wall_time_ms = 250.0
    text = rpt.table()
    assert "alpha" in text and "beta" in text
    assert "FAIL" in text and "pass" in text
    assert "3 checks, 1 failed, 250 ms" in text


def test_string_escaping():
    rpt = CheckReport(suite='s"q', group="g\\h")
    doc = json.loads(rpt.to_json())
    assert doc["suite"] == 's"q'
    assert doc["group"] == "g\\h"
    # a raw tab or newline in a name must still give valid JSON
    name = 'line\tchart\n"quoted" back\\slash \u00e9\u03bb'
    rpt = CheckReport(suite=name, group=name, rep=name)
    rpt.add(CheckRecord.from_residual(name, 0.5, 1.0, 3))
    doc = json.loads(rpt.to_json())
    assert doc["suite"] == doc["group"] == doc["rep"] == name
    assert doc["checks"][0]["id"] == name and list(doc["tol"]) == [name]


@given(st.floats(min_value=1e-300, max_value=1e300))
def test_float_format_roundtrip(x):
    doc = json.loads(CheckReport(suite="s", group="g", fd_step=x).to_json())
    assert doc["fd_step"] == x


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_residual_roundtrip_through_json(x):
    rpt = CheckReport(suite="s", group="g")
    rpt.add(CheckRecord.from_residual("r", x, 1.0, 1))
    doc = json.loads(rpt.to_json())
    back = doc["checks"][0]["max_residual"]
    assert back == x or (math.isnan(back) and math.isnan(x))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_residual_serializes_as_null(bad):
    rpt = demo_report()
    rpt.add(CheckRecord.from_residual("delta", bad, 1e-3, 4))
    text = rpt.to_json()
    assert '{"id": "delta", "max_residual": null, "samples": 4, "pass": false}' in text
    assert json.loads(text)["checks"][-1]["max_residual"] is None
    # the finite rows keep their exact bytes
    for row in demo_report().to_json().splitlines():
        if '"max_residual"' in row:
            assert row.rstrip(",") in text
