"""Thread budget and deterministic chunked evaluation.

FCC_TRIG_THREADS caps the worker count for the interpolation Lebesgue
scan, ``lebesgue_interp`` (0 or unset means one worker per CPU);
map_chunks never starts more workers than there are CPUs.  Chunks are
always combined in submission order, so results do not depend on
scheduling.
"""

from __future__ import annotations

import os


def thread_count() -> int:
    raw = os.environ.get("FCC_TRIG_THREADS", "0").strip() or "0"
    try:
        k = int(raw)
    except ValueError:
        raise ValueError("FCC_TRIG_THREADS must be an integer") from None
    if k <= 0:
        return os.cpu_count() or 1
    return k


def map_chunks(fn, chunks) -> list:
    """Apply fn to every chunk, returning results in chunk order."""
    chunks = list(chunks)
    workers = min(thread_count(), os.cpu_count() or 1, max(len(chunks), 1))
    if workers <= 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    # imported here, so importing the package loads no executor machinery
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, chunks))
