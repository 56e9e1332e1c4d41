"""The package's five records are plain tuples with names: equal, hashed,
copied and pickled as the tuple of their fields, in a fixed field order."""
import copy
import math
import pickle

import pytest

from diracrates import TwoLevelAtom, rate_total
from diracrates.correlators import WorldlineParams
from diracrates.oracle import OracleReport, verify_rates
from diracrates.selfcheck import CheckResult


def records():
    """One instance of each record, built the way the package builds it."""
    return [
        TwoLevelAtom(2.0, "excited"),
        rate_total(TwoLevelAtom(2.0, "excited"), 3.0, 0.5),
        WorldlineParams(2.0, 1.0),
        verify_rates(1.0, 3.0, 1.0, ["ground"], tol=1e-3)[0],
        CheckResult("suite", 4, 1e-16, 1e-12),
    ]


FIELDS = {
    "TwoLevelAtom": ("omega0", "level"),
    "RateBreakdown": ("accel", "vf", "cross", "total", "poly_factor", "planck_n",
                      "effective_temperature"),
    "WorldlineParams": ("accel", "epsilon"),
    "OracleReport": ("numeric_vf", "closed_vf", "numeric_cross", "closed_cross",
                     "rel_err_vf", "rel_err_cross", "quadrature", "passed"),
    "CheckResult": ("name", "cases", "max_deviation", "tolerance"),
}


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
class TestRecord:
    def test_fields_in_order(self, record):
        fields = FIELDS[type(record).__name__]
        assert record._fields == fields
        assert list(record._asdict()) == list(fields)
        assert record.__match_args__ == fields

    def test_repr_names_each_field(self, record):
        name = type(record).__name__
        inner = ", ".join(f"{f}={v!r}" for f, v in zip(record._fields, record))
        assert repr(record) == f"{name}({inner})"

    def test_a_tuple_with_no_instance_dict(self, record):
        assert record == tuple(record)
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.x = 1

    def test_hash_copy_and_pickle(self, record):
        if type(record) is not OracleReport:  # its quadrature is a dict
            assert hash(record) == hash(tuple(record))
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(twin) is type(record)
            assert twin == record


def test_check_result_passed():
    assert CheckResult("s", 1, 1e-13, 1e-12).passed
    assert not CheckResult("s", 1, 1e-11, 1e-12).passed
    assert not CheckResult("s", 1, math.nan, 1e-12).passed
