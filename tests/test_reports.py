import json
import math

import numpy as np

from bicone.reports import SCHEMA_VERSION, CheckResult, VerificationReport


def test_a_check_row_coerces_its_verdict_and_constant():
    row = CheckResult("c", np.bool_(True), measured_constant=np.float64(2.5))
    assert row.passed is True and type(row.measured_constant) is float
    assert CheckResult("c", 0).passed is False
    assert CheckResult("c", True).measured_constant is None


def test_the_json_form_writes_passed_as_pass_and_non_finite_floats_as_strings():
    report = VerificationReport("t", seed=3, sample_count=10,
                                metadata={"M": math.inf, "radii": [np.float64(0.5)]})
    row = report.add("a", np.bool_(False), measured_constant=math.nan,
                     grid_size=7, tolerance=-math.inf, detail="d")
    report.add("b", True)
    assert row is report.checks[0]
    assert row.to_dict() == {"condition": "a", "pass": False, "measured_constant": "nan",
                             "grid_size": 7, "tolerance": "-inf", "detail": "d"}
    doc = json.loads(report.to_json())
    assert doc == {"schema_version": SCHEMA_VERSION, "title": "t", "pass": False,
                   "seed": 3, "sample_count": 10,
                   "metadata": {"M": "inf", "radii": [0.5]},
                   "checks": [row.to_dict(),
                              {"condition": "b", "pass": True, "measured_constant": None,
                               "grid_size": None, "tolerance": None, "detail": ""}]}
