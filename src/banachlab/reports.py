"""Tabular experiment reports and their serializations.

Every experiment driver produces an ExperimentReport: named numeric
columns, rows, and a metadata block echoing the configuration (seed,
tolerances, wall time).  CSV and plotdata emit only the table (so two
runs with the same seed are byte-identical); JSON carries the metadata
as well.  Numbers print at 12 significant digits and each format parses
back losslessly at that precision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .errors import ValidationError

__all__ = ["ExperimentReport", "format_number"]


def format_number(v: Any) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _parse_cell(text: str) -> Any:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


@dataclass
class ExperimentReport:
    columns: List[str]
    rows: List[List[Any]] = field(default_factory=list)
    metadata: Dict[str, Any] = field(default_factory=dict)

    def add_row(self, *cells: Any) -> None:
        if len(cells) != len(self.columns):
            raise ValidationError(
                f"row has {len(cells)} cells, report has {len(self.columns)} columns"
            )
        self.rows.append(list(cells))

    # -- emission -------------------------------------------------------

    def _delimited(self, head: str, sep: str) -> str:
        """The header line, `head` then the columns, and one line per row."""
        lines = [head + sep.join(self.columns)]
        lines += [sep.join(format_number(c) for c in row) for row in self.rows]
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        return self._delimited("", ",")

    def to_json(self) -> str:
        payload = {
            "metadata": self.metadata,
            "columns": self.columns,
            "rows": [[c for c in row] for row in self.rows],
        }
        return json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"

    def to_plotdata(self) -> str:
        return self._delimited("# ", " ")

    def emit(self, fmt: str) -> str:
        try:
            return {"csv": self.to_csv, "json": self.to_json, "plotdata": self.to_plotdata}[fmt]()
        except KeyError:
            raise ValidationError(f"unknown report format {fmt!r}") from None

    # -- parsing (round-trip checks) --------------------------------------

    @classmethod
    def _from_delimited(cls, text: str, head: str, sep: Optional[str]) -> "ExperimentReport":
        """Parse `_delimited` output; sep None splits on whitespace."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith(head):
            raise ValidationError(f"a report starts with a header line that begins with {head!r}")
        columns = lines[0][len(head):].split(sep)
        rows = [[_parse_cell(c) for c in ln.split(sep)] for ln in lines[1:]]
        return cls(columns, rows)

    @classmethod
    def from_csv(cls, text: str) -> "ExperimentReport":
        return cls._from_delimited(text, "", ",")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        payload = json.loads(text)
        return cls(payload["columns"], payload["rows"], payload.get("metadata", {}))

    @classmethod
    def from_plotdata(cls, text: str) -> "ExperimentReport":
        return cls._from_delimited(text, "#", None)

    def write(self, path: str, fmt: str) -> None:
        try:
            with open(path, "w") as fh:
                fh.write(self.emit(fmt))
        except OSError as exc:
            raise IOError(f"cannot write report to {path}: {exc}") from exc
