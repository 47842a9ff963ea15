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
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc == {"schema_version": SCHEMA_VERSION, "title": "t", "pass": False,
                   "seed": 3, "sample_count": 10,
                   "metadata": {"M": "inf", "radii": [0.5]},
                   "checks": [{"condition": "a", "pass": False, "measured_constant": "nan",
                               "grid_size": 7, "tolerance": "-inf", "detail": "d"},
                              {"condition": "b", "pass": True, "measured_constant": None,
                               "grid_size": None, "tolerance": None, "detail": ""}]}


def test_numpy_scalars_keep_their_json_type():
    # np.int64 and np.bool_ subclass neither int nor bool; a row built with
    # grid_size=np.int64(4096) used to print 4096.0, and np.bool_(True) 1.0
    row = CheckResult("c", True, grid_size=np.int64(4096), tolerance=np.float32(0.5))
    report = VerificationReport("t", checks=[row], metadata={
        "flag": np.bool_(True), "top": np.float32(math.inf)})
    doc = report.to_dict()
    got = [doc["checks"][0]["grid_size"], doc["checks"][0]["tolerance"],
           doc["metadata"]["flag"], doc["metadata"]["top"]]
    assert [(type(v), v) for v in got] == [(int, 4096), (float, 0.5), (bool, True),
                                           (str, "inf")]
    assert '"grid_size": 4096,' in json.dumps(doc)
