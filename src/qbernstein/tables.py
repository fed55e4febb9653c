"""Deterministic CSV/JSON emission of value tables.

Rational cells use the canonical ``a/b`` literal format, rows are generated
in a fixed order, and no metadata (timestamps, hostnames) is embedded, so
output is byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import csv
import io
import json

from .bernstein import basis_upoly
from .euler import euler_table
from .kernel import DomainError, format_rational, to_rational
from .qcore import stirling2
from .stirling import q_stirling2

__all__ = ["emit_table"]

TABLE_KINDS = ("euler", "bernstein", "stirling")


def emit_table(kind: str, params: dict, fmt: str = "csv") -> bytes:
    """Render one table as bytes.

    kinds: ``euler`` (params q, nmax), ``bernstein`` (params k, n; monomial
    coefficients of one basis member), ``stirling`` (params nmax and an
    optional q; classical values when q is absent).
    """
    if kind == "euler":
        header, rows = _euler_rows(params)
    elif kind == "bernstein":
        header, rows = _bernstein_rows(params)
    elif kind == "stirling":
        header, rows = _stirling_rows(params)
    else:
        raise ValueError(f"unknown table kind: {kind!r}")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue().encode()
    if fmt == "json":
        objs = [dict(zip(header, row)) for row in rows]
        return (json.dumps(objs, indent=2) + "\n").encode()
    raise ValueError(f"unknown format: {fmt!r}")


def _euler_rows(params):
    q = to_rational(params["q"])
    nmax = int(params["nmax"])
    table = euler_table(q, nmax)
    return ["n", "E"], [(n, format_rational(v)) for n, v in enumerate(table.values)]


def _bernstein_rows(params):
    k = int(params["k"])
    n = int(params["n"])
    if k < 0 or n < 0:
        raise DomainError("k and n must be nonnegative")
    poly = basis_upoly((k, n))
    return ["power", "coeff"], [
        (i, format_rational(poly.coeff(i))) for i in range(n + 1)
    ]


def _stirling_rows(params):
    nmax = int(params["nmax"])
    if nmax < 0:
        raise DomainError("nmax must be nonnegative")
    q = params.get("q")
    rows = []
    if q is None:
        for n in range(nmax + 1):
            for k in range(n + 1):
                rows.append((n, k, format_rational(stirling2(n, k))))
    else:
        q = to_rational(q)
        for n in range(nmax + 1):
            for k in range(n + 1):
                rows.append((n, k, format_rational(q_stirling2(n, k, q))))
    return ["n", "k", "value"], rows
