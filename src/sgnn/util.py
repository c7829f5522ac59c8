"""Small shared helpers."""

from __future__ import annotations

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
