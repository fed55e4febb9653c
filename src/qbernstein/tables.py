"""Deterministic CSV/JSON emission of value tables.

Callers pass rows in a fixed order with rational cells already in the
canonical ``a/b`` literal format; no metadata (timestamps, hostnames) is
embedded, so output is byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import io
import json

__all__ = ["render_rows"]


def render_rows(header, rows, fmt: str = "csv") -> bytes:
    """Render a header and its rows as CSV, or as a JSON list of objects
    keyed by the header."""
    if fmt == "csv":
        import csv  # here, not above: every `qb` command imports this module

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue().encode()
    if fmt == "json":
        objs = [dict(zip(header, row)) for row in rows]
        return (json.dumps(objs, indent=2) + "\n").encode()
    raise ValueError(f"unknown format: {fmt!r}")
