"""The benchmark's clocks, and call wrappers for measured and traced runs.

Both wrappers have the signature ``call(layer, name, fn, *args)`` and
return ``fn(*args)``, so the benchmark's op code is the same with tracing
on and off. The recorder keeps spans in memory; :meth:`Tracer.dump` writes
them out when the run ends.
"""

from __future__ import annotations

import gc
import json
from pathlib import Path
from time import perf_counter, process_time


class Stopwatch:
    """Elapsed time as the smaller of wall time and the process's CPU time.

    The library runs single-threaded here (native thread pools are pinned
    to one thread), so on an idle machine the two agree. On a shared virtual
    machine wall time also holds the time other tenants took the CPU away;
    CPU time leaves that out. If work ever runs on several threads at
    once, wall time is the smaller one and is used.
    """

    __slots__ = ("wall", "cpu")

    def __init__(self) -> None:
        self.wall = perf_counter()
        self.cpu = process_time()

    def elapsed(self) -> float:
        return min(perf_counter() - self.wall, process_time() - self.cpu)


_CALIBRATION_ITEMS = [((i * 7919) % 10007, str(i)) for i in range(40_000)]


def calibrate() -> float:
    """Seconds the machine takes right now for a fixed piece of work.

    On a shared virtual machine the same code runs up to twice as slow in
    phases that last seconds to minutes, and everything in the process
    slows together. Dividing an op's time by this sample, taken close by,
    cancels much of that. The work builds a dict of lists of (int, str)
    tuples, then sorts 40k such pairs by a key function, like the
    library's hashing, grouping and sorting; over a run, the two together
    followed the library's ops better than either alone. The sample is the
    median of three; the collector is off, so its cost does not depend on
    how much the library keeps alive.
    """
    gc.disable()
    try:
        samples = []
        for _ in range(3):
            watch = Stopwatch()
            table: dict[int, list] = {}
            for i in range(40_000):
                table.setdefault((i * 7919) % 10007, []).append((i, str(i)))
            sorted(_CALIBRATION_ITEMS, key=lambda t: (t[1], t[0]))
            samples.append(watch.elapsed())
        return sorted(samples)[1]
    finally:
        gc.enable()


def plain(layer, name, fn, *args):
    return fn(*args)


class Tracer:
    """Records one span per call: op id, layer, name, wall start, and the
    :class:`Stopwatch` duration.

    The op itself is recorded as a span of layer ``bench``; every call
    span made while it runs carries its op id, so the op is their parent.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int | None, str, str, float, float]] = []
        self.op_id: int | None = None

    def __call__(self, layer, name, fn, *args):
        watch = Stopwatch()
        try:
            return fn(*args)
        finally:
            self.spans.append((self.op_id, layer, name, watch.wall, watch.elapsed()))

    def busy(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Seconds per ``layer.name`` over spans ``first:last``, bench ops excluded."""
        out: dict[str, float] = {}
        for _, layer, name, _, dur in self.spans[first:last]:
            if layer != "bench":
                key = f"{layer}.{name}"
                out[key] = out.get(key, 0.0) + dur
        return out

    def self_times(self) -> dict[int, float]:
        """Per op: its span's duration minus the time its call spans cover.

        Call spans inside one op never overlap, the benchmark being a
        single-threaded closed loop, so covered time is their sum.
        """
        total: dict[int, float] = {}
        for op_id, layer, _, _, dur in self.spans:
            if op_id is None:
                continue
            sign = 1.0 if layer == "bench" else -1.0
            total[op_id] = total.get(op_id, 0.0) + sign * dur
        return total

    def dump(self, path: Path) -> None:
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for op_id, layer, name, start, dur in self.spans:
                rec = {"op": op_id, "layer": layer, "name": name, "start": start, "seconds": dur}
                if layer == "bench":
                    rec["self"] = selfs.get(op_id, 0.0)
                fh.write(json.dumps(rec) + "\n")
