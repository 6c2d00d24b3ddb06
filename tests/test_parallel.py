import pytest

from fcctrig import _parallel
from fcctrig._parallel import map_chunks, thread_count
from fcctrig.interpolation import lebesgue_interp
from fcctrig.transforms import lebesgue_Sn


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
    # the stub pool runs the map inline, so no thread is ever started
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

    monkeypatch.setattr(_parallel, "ThreadPoolExecutor", StubPool)
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("FCC_TRIG_THREADS", "64")
    chunks = list(range(10))
    assert map_chunks(lambda c: c + 1, chunks) == [c + 1 for c in chunks]
    assert requested == [2]
    # one CPU: the serial path, no pool at all
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 1)
    assert map_chunks(lambda c: c + 1, chunks) == [c + 1 for c in chunks]
    assert requested == [2]


def test_lebesgue_scans_do_not_depend_on_thread_count(monkeypatch):
    # each scan splits into several chunks (16, 3 and 2), so two workers
    # (on a host with two CPUs or more) really share them; the results
    # must agree to the last bit
    scans = [
        lambda: lebesgue_Sn(2, grid_per_axis=4, quad_order=64),
        lambda: lebesgue_interp(16, "lnstar", grid_per_axis=7),
        lambda: lebesgue_interp(16, "in", grid_per_axis=5),
    ]
    for scan in scans:
        monkeypatch.setenv("FCC_TRIG_THREADS", "1")
        serial = scan()
        monkeypatch.setenv("FCC_TRIG_THREADS", "2")
        assert scan() == serial
