"""CsvReport, the writer of every CSV report in the package.

It lives apart from harness so that modules harness imports (orbits,
through moments) can write their reports through it too.
"""

from __future__ import annotations

import io

import numpy as np

__all__ = ["CsvReport"]


class CsvReport:
    """Schema-validated CSV accumulation: every row is checked against the
    declared column types before it is written.  A bool is an int
    subclass, so bools (Python or numpy) are refused in int and float
    columns instead of rendering as True or 0."""

    def __init__(self, columns: tuple[str, ...], types: tuple[type, ...]):
        if len(columns) != len(types):
            raise ValueError("columns and types must align")
        self.columns = columns
        self.types = types
        self._rows: list[tuple] = []

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} fields, got {len(values)}")
        for v, t in zip(values, self.types):
            if t in (int, float) and isinstance(v, (bool, np.bool_)):
                raise TypeError(f"field {v!r} is a bool, not of type {t.__name__}")
            if t is float and isinstance(v, (int, np.integer)):
                continue
            if not isinstance(v, t):
                raise TypeError(f"field {v!r} is not of type {t.__name__}")
        self._rows.append(values)

    def text(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(self.columns) + "\n")
        for row in self._rows:
            rendered = []
            for v, t in zip(row, self.types):
                if t is float:
                    rendered.append(f"{float(v):.10g}")
                elif t is bool:
                    rendered.append("true" if v else "false")
                else:
                    rendered.append(str(v))
            buf.write(",".join(rendered) + "\n")
        return buf.getvalue()
