import json
import math
from dataclasses import dataclass

import pytest

from schaudermat.jsonfmt import dumps

FLOATS = [0.1, 1.0, -0.0, 5e-324, 1e-05, 1.7976931348623157e308, 1 / 3]

PAYLOAD = {
    "name": 'tab\there "quoted" \\ é',
    "empty": [],
    "none": {},
    "flags": (True, False, None),
    "count": 7,
    "floats": FLOATS,
    "nested": {"level": [[1, 2.5]]},
}

GOLDEN = """\
{
  "name": "tab\\there \\"quoted\\" \\\\ \\u00e9",
  "empty": [],
  "none": {},
  "flags": [
    true,
    false,
    null
  ],
  "count": 7,
  "floats": [
    0.1,
    1.0,
    -0.0,
    5e-324,
    1e-05,
    1.7976931348623157e+308,
    0.3333333333333333
  ],
  "nested": {
    "level": [
      [
        1,
        2.5
      ]
    ]
  }
}
"""


def test_golden_bytes():
    assert dumps(PAYLOAD) == GOLDEN


def test_floats_round_trip_bit_exact():
    back = json.loads(dumps(FLOATS))
    assert [x.hex() for x in back] == [x.hex() for x in FLOATS]
    assert math.copysign(1.0, back[2]) == -1.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_raises(value):
    with pytest.raises(ValueError):
        dumps({"x": [value]})


def test_unknown_type_raises():
    with pytest.raises(TypeError):
        dumps({"x": object()})


@dataclass(frozen=True)
class Inner:
    max_ratio: float


@dataclass(frozen=True)
class Report:
    section_sizes: tuple
    condition_numbers: tuple
    inner_report: Inner
    upper_bound: float


REPORT_GOLDEN = """\
{
  "sectionSizes": [
    4,
    16
  ],
  "conditionNumbers": [
    2.5,
    "inf"
  ],
  "innerReport": {
    "maxRatio": "inf"
  },
  "upperBound": 0.1
}
"""


def test_report_golden_bytes():
    report = Report(section_sizes=(4, 16), condition_numbers=(2.5, math.inf),
                    inner_report=Inner(max_ratio=math.inf), upper_bound=0.1)
    assert dumps(report) == REPORT_GOLDEN


@pytest.mark.parametrize("report", [
    Inner(max_ratio=-math.inf),
    Inner(max_ratio=math.nan),
    Report(section_sizes=((1, math.inf),), condition_numbers=(), inner_report=Inner(1.0),
           upper_bound=1.0),
], ids=["minus-inf", "nan", "nested-inf"])
def test_report_non_finite_raises(report):
    with pytest.raises(ValueError):
        dumps(report)
