"""Thread-count probes: how many threads one read open adds.

Run once per traced run, after the timed loop, in a world of their own.
A thread counts when the reading thread itself starts it during the
open or any read up to EOF.  The in-process servers' worker threads are
started from the server's event loop, not from the reader, so they are
not counted: a real deployment runs those on other hosts.
"""

from __future__ import annotations

import threading

from workloads import CALL_BYTES, Remote5ms, Stream5ms


def _threads_started_by_read(fm, path: str) -> int:
    """Threads the calling thread starts while it opens ``path`` and reads it to EOF."""
    me = threading.current_thread()
    started = []
    original = threading.Thread.start

    def start(thread):
        if threading.current_thread() is me:
            started.append(thread.name)
        return original(thread)

    threading.Thread.start = start
    try:
        f = fm.open(path, "rb")
        try:
            while f.read(CALL_BYTES):
                pass
        finally:
            f.close()
    finally:
        threading.Thread.start = original
    return len(started)


def _proxy_read(wl: Remote5ms, index: str) -> int:
    world = wl.setup(index)
    try:
        return _threads_started_by_read(world["fms"]["reader"], next(iter(wl.READS)))
    finally:
        wl.teardown(world)


def _buffer_read(wl: Stream5ms, index: str) -> int:
    """One BUFFER read open on a stream whose writer has already closed."""
    world = wl.setup(index)
    try:
        # Pinning the stream's location lets the writer open (and finish)
        # before any reader announces, so only reader threads are new.
        world["ns"].pin_stream(f"stream-{index}", *world["server"].address)
        w = world["fms"]["producer"].open(wl.PATH, "wb")
        w.write(wl.data[: 64 * CALL_BYTES])
        w.close()
        return _threads_started_by_read(world["fms"]["consumer"], wl.PATH)
    finally:
        wl.teardown(world)


def thread_probes(wl) -> dict:
    """Probe the open kind the workload uses; the other reads 0 (not loaded)."""
    out = {"core.proxy_reader_threads": 0.0, "gridbuffer.reader_threads": 0.0}
    if isinstance(wl, Remote5ms):
        out["core.proxy_reader_threads"] = float(_proxy_read(wl, "probe"))
    else:
        latency = wl.latency if isinstance(wl, Stream5ms) else 0.0
        probe = Stream5ms(0, wl.work / "probe", latency=latency)
        out["gridbuffer.reader_threads"] = float(_buffer_read(probe, "probe"))
    return out
