"""Small shared helpers, and the one writer and reader of every artifact.

Artifacts share one format: CSV files with a header row, ``\r\n`` line ends
and floats by ``repr``, so they read back exactly; JSON documents with
``indent=1`` and sorted keys.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ThreadPoolExecutor

from .errors import ConfigError


def worker_count() -> int:
    """Worker cap from the SGNN_THREADS environment variable (default 1)."""
    raw = os.environ.get("SGNN_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ConfigError(f"SGNN_THREADS must be an integer >= 1, got {raw!r}")
    return count


def parallel_map(fn, items):
    """Map preserving input order; uses threads only when SGNN_THREADS > 1.

    Each item must carry its own derived random stream, so results are
    identical whatever the schedule.
    """
    items = list(items)
    workers = worker_count()
    if workers == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def write_csv(path, columns, rows, append=False) -> None:
    """Write the header ``columns`` and ``rows`` to ``path``; with ``append``,
    add the rows to the file without a header.  A row is a sequence of cells
    or a mapping keyed by the columns."""
    with open(path, "a" if append else "w", newline="") as f:
        writer = csv.writer(f)
        if not append:
            writer.writerow(columns)
        for row in rows:
            cells = [row[c] for c in columns] if isinstance(row, dict) else row
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in cells])


def read_csv(path) -> list:
    """The rows of a CSV file with a header, as dicts of strings."""
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def write_json(path, doc) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
