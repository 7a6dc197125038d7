"""Plain-text and CSV rendering for experiment results.

Each experiment returns a list of dict rows; these helpers print them in
a shape comparable to the paper's tables/figures so EXPERIMENTS.md can
be regenerated mechanically.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, List, Optional, Sequence


def _union_columns(rows: List[Dict[str, object]]) -> List[str]:
    """Ordered union of keys across rows, so ragged row sets (e.g.
    tenant rows followed by per-shard rows) keep every column."""
    seen: Dict[str, None] = {}
    for row in rows:
        for key in row:
            seen.setdefault(key)
    return list(seen)


def format_table(
    rows: List[Dict[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: str = "",
) -> str:
    """Render rows as an aligned text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = _union_columns(rows)
    rendered: List[List[str]] = [[_cell(row.get(col)) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), *(len(r[i]) for r in rendered))
        for i, col in enumerate(columns)
    ]
    out = io.StringIO()
    if title:
        out.write(title + "\n")
    header = "  ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    out.write(header + "\n")
    out.write("  ".join("-" * w for w in widths) + "\n")
    for r in rendered:
        out.write("  ".join(r[i].ljust(widths[i]) for i in range(len(columns))) + "\n")
    return out.getvalue().rstrip("\n")


def rows_to_csv(rows: List[Dict[str, object]], columns: Optional[Sequence[str]] = None) -> str:
    """Render rows as CSV text; a cell holding a comma, a quote or a
    newline is quoted, so no value can shift the columns after it."""
    if not rows:
        return ""
    if columns is None:
        columns = _union_columns(rows)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([str(col) for col in columns])
    writer.writerows([_cell(row.get(col)) for col in columns] for row in rows)
    return out.getvalue()[:-1]  # no trailing newline


def _cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
