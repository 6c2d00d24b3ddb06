import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fcctrig import _parallel, interpolation
from fcctrig._parallel import map_chunks, thread_count
from fcctrig.interpolation import lebesgue_interp


def test_thread_count_env(monkeypatch):
    monkeypatch.setenv("FCC_TRIG_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.setenv("FCC_TRIG_THREADS", "0")
    assert thread_count() >= 1
    monkeypatch.delenv("FCC_TRIG_THREADS")
    assert thread_count() >= 1
    monkeypatch.setenv("FCC_TRIG_THREADS", "  ")
    assert thread_count() >= 1


def test_thread_count_rejects_garbage(monkeypatch):
    monkeypatch.setenv("FCC_TRIG_THREADS", "many")
    with pytest.raises(ValueError):
        thread_count()


def test_map_chunks_preserves_order(monkeypatch):
    monkeypatch.setenv("FCC_TRIG_THREADS", "4")
    chunks = list(range(37))
    assert map_chunks(lambda c: c * c, chunks) == [c * c for c in chunks]
    # serial path
    monkeypatch.setenv("FCC_TRIG_THREADS", "1")
    assert map_chunks(lambda c: -c, chunks) == [-c for c in chunks]
    assert map_chunks(lambda c: c, []) == []


def test_map_chunks_caps_workers_at_cpu_count(monkeypatch):
    # the stub pool runs the map inline, so no thread is ever started;
    # map_chunks imports the pool class from concurrent.futures when it needs it
    requested = []

    class StubPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return map(fn, chunks)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", StubPool)
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("FCC_TRIG_THREADS", "64")
    chunks = list(range(10))
    assert map_chunks(lambda c: c + 1, chunks) == [c + 1 for c in chunks]
    assert requested == [2]
    # one CPU: the serial path, no pool at all
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 1)
    assert map_chunks(lambda c: c + 1, chunks) == [c + 1 for c in chunks]
    assert requested == [2]


def test_importing_the_cli_loads_no_executor():
    # a fresh interpreter pays for concurrent.futures (and the logging and
    # queue modules it pulls in) only once a scan really starts threads
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, fcctrig.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_lebesgue_scans_do_not_depend_on_thread_count(monkeypatch):
    # lebesgue_interp is the one scan that threads; each scan below splits
    # into several chunks, so two workers (on a host with two CPUs or more)
    # really share them; the results must agree to the last bit
    chunks = []

    def spy(fn, parts):
        parts = list(parts)
        chunks.append(len(parts))
        return map_chunks(fn, parts)

    monkeypatch.setattr(interpolation, "map_chunks", spy)
    scans = [
        lambda: lebesgue_interp(16, "lnstar", grid_per_axis=7),
        lambda: lebesgue_interp(16, "in", grid_per_axis=5),
        lambda: lebesgue_interp(16, "instar", grid_per_axis=12),
        lambda: lebesgue_interp(16, "ln", grid_per_axis=7),
    ]
    for scan in scans:
        monkeypatch.setenv("FCC_TRIG_THREADS", "1")
        serial = scan()
        monkeypatch.setenv("FCC_TRIG_THREADS", "2")
        assert scan() == serial
    assert len(chunks) == 8 and min(chunks) >= 2, chunks
