import json

import pytest

from qbernstein.tables import render_rows

HEADER = ["n", "E"]
ROWS = [(0, "1"), (1, "-2/3"), (2, "-4/15")]


def test_csv_frozen():
    assert render_rows(HEADER, ROWS, "csv") == b"n,E\n0,1\n1,-2/3\n2,-4/15\n"


def test_json():
    data = render_rows(HEADER, ROWS, "json")
    assert data.endswith(b"]\n")
    assert json.loads(data) == [
        {"n": 0, "E": "1"},
        {"n": 1, "E": "-2/3"},
        {"n": 2, "E": "-4/15"},
    ]


def test_unknown_format():
    with pytest.raises(ValueError, match="unknown format: 'yaml'"):
        render_rows(HEADER, ROWS, "yaml")
