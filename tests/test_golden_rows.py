import json

import numpy as np
import pytest
from make_golden_rows import PATH, cases, rows

GOLDEN = json.loads(PATH.read_text(encoding="utf-8"))


def test_golden_cases_are_the_committed_ones():
    assert list(cases()) == list(GOLDEN)
    assert sum(len(rows) for rows in GOLDEN.values()) == 38


@pytest.mark.parametrize("name", list(GOLDEN))
def test_rows_match_golden(name):
    # integers and strings exactly, floats (scalars and the P_me / P_id
    # lists) within a few ulps, so that another numpy build still passes
    got = rows(*cases()[name])
    assert len(got) == len(GOLDEN[name])
    for i, (row, want) in enumerate(zip(got, GOLDEN[name])):
        assert list(row) == list(want), i
        for key, value in want.items():
            if isinstance(value, (int, str)):
                assert type(row[key]) is type(value), (i, key)
                assert row[key] == value, (i, key)
            else:
                np.testing.assert_array_max_ulp(
                    np.asarray(row[key], dtype=float),
                    np.asarray(value, dtype=float), maxulp=4)
