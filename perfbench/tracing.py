"""Harness-side span tracing of the service's layers.

Nothing here edits the program.  :func:`instrument` replaces public
methods on the objects the harness built (the service, its slot
directory, executor, journal and rebalancer; each shard's table and
disk, via the harness's shard factory) with timing wrappers, and
patches the two module-level functions the coordinator calls
(``build_epochs`` and ``apply_moves``) for the duration of a traced
repetition.

Every wrapper records a span: name, start, end and the span that caused
it.  A layer's *self* time is its spans' duration minus the part their
child spans cover, so the self times of all layers add up to the time
the outermost (``client``) spans cover.  Calls that re-enter a layer
already on the stack (a table method calling another, a disk method
calling another) pass through untraced, so each layer is counted once.
Table and disk calls made while a slot migration runs are booked to
``rebalance.*``, not ``table.*``/``em.disk``.

Spans are kept in memory; :meth:`Tracer.write` writes them out once the
run is over.  Disk calls are too many to keep one span each: they are
aggregated per name and never written as spans.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

import repro.service.service as service_module

#: Disk methods that are bookkeeping rather than I/O paths.
_DISK_SKIP = {"describe"}


class Tracer:
    """In-memory span recorder with per-name inclusive and self time."""

    def __init__(self) -> None:
        self.active = False
        #: Open frames: ``[span_id, child_seconds]``.
        self._stack: list[list] = []
        self._depth: Counter[str] = Counter()
        self._next_id = 0
        #: Finished spans: ``(id, parent_id, name, start, end)``.
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        #: Work counts measured at the same boundaries (keys, batches, …).
        self.counts: Counter[str] = Counter()
        #: Charged I/O per table kind, ``name -> [reads, writes, combined,
        #: allocations]``, read from the shard's own ledger around the call.
        self.io: defaultdict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])

    def book_io(self, name: str, delta) -> None:
        """Add one ledger delta (an ``IOSnapshot``) to ``name``'s I/O."""
        io = self.io[name]
        io[0] += delta.reads
        io[1] += delta.writes
        io[2] += delta.combined
        io[3] += delta.allocations

    def in_layer(self, layer: str) -> bool:
        return self._depth[layer] > 0

    def call(self, name: str, layer: str, fn, args, kwargs, *, record=True):
        """Run ``fn`` inside a span named ``name`` of ``layer``."""
        with _Span(self, name, layer, record):
            return fn(*args, **kwargs)

    def span(self, name: str) -> "_Span":
        """A span around a block of harness code (its own layer)."""
        return _Span(self, name, name, True)

    def wrap(self, fn, name: str, layer: str, *, record=True, count=None):
        """A wrapper that traces ``fn`` while the tracer is active.

        ``count(args, result)`` may return ``{counter: increment}`` to
        tally work done at this boundary.  Calls made while a slot
        migration runs are booked under ``rebalance.<name>``.
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active or tracer.in_layer(layer):
                return fn(*args, **kwargs)
            prefix = "rebalance." if tracer.in_layer("migrate") else ""
            result = tracer.call(prefix + name, layer, fn, args, kwargs, record=record)
            if count is not None:
                for key, inc in count(args, result).items():
                    tracer.counts[prefix + key] += inc
            return result

        return traced

    def write(self, path: Path) -> None:
        """Write the recorded spans as JSON lines (times in µs from start)."""
        origin = min((s[3] for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span_id, parent, name, t0, t1 in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start_us": round((t0 - origin) * 1e6, 3),
                            "dur_us": round((t1 - t0) * 1e6, 3),
                        }
                    )
                    + "\n"
                )


class _Span:
    """One open span: pushes a frame on enter, books the times on exit."""

    __slots__ = ("tracer", "name", "layer", "record", "frame", "parent", "t0")

    def __init__(self, tracer: Tracer, name: str, layer: str, record: bool) -> None:
        self.tracer = tracer
        self.name = name
        self.layer = layer
        self.record = record

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.parent = tracer._stack[-1][0] if tracer._stack else -1
        self.frame = [tracer._next_id, 0.0]
        tracer._next_id += 1
        tracer._stack.append(self.frame)
        tracer._depth[self.layer] += 1
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        t1 = time.perf_counter()
        tracer = self.tracer
        tracer._depth[self.layer] -= 1
        tracer._stack.pop()
        dt = t1 - self.t0
        tracer.inclusive[self.name] += dt
        tracer.self_time[self.name] += dt - self.frame[1]
        tracer.calls[self.name] += 1
        if tracer._stack:
            tracer._stack[-1][1] += dt
        if self.record:
            tracer.spans.append((self.frame[0], self.parent, self.name, self.t0, t1))
        return False


# ---------------------------------------------------------------------------
# Per-shard instrumentation (installed by the harness's shard factory)
# ---------------------------------------------------------------------------


def instrument_shard(tracer: Tracer, table, ctx) -> None:
    """Trace a shard table's batch API and its disk's public methods."""
    stats = ctx.stats
    for kind in ("insert", "delete", "lookup"):
        method = f"{kind}_batch"
        traced = _traced_batch(tracer, getattr(table, method), kind, stats)
        setattr(table, method, traced)
    disk = ctx.disk
    for attr in dir(type(disk)):
        if attr.startswith("_") or attr in _DISK_SKIP:
            continue
        if not inspect.isfunction(inspect.getattr_static(type(disk), attr, None)):
            continue
        traced = tracer.wrap(getattr(disk, attr), "em.disk", "disk", record=False)
        setattr(disk, attr, traced)


def _traced_batch(tracer: Tracer, fn, kind: str, stats):
    def traced(keys, *args, **kwargs):
        if not tracer.active or tracer.in_layer("table"):
            return fn(keys, *args, **kwargs)
        name = ("rebalance." if tracer.in_layer("migrate") else "") + f"table.{kind}"
        before = stats.snapshot()
        try:
            return tracer.call(name, "table", fn, (keys, *args), kwargs)
        finally:
            tracer.book_io(name, stats.delta_since(before))
            tracer.counts[f"{name}.keys"] += len(keys)

    return traced


# ---------------------------------------------------------------------------
# Coordinator-side instrumentation
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def instrument(tracer: Tracer, svc, shard_stats):
    """Trace the coordinator's layers for the duration of the block.

    ``shard_stats`` are the shard ledgers (shard order) the migration
    wrapper reads to book migration I/O.  Instance wrappers are removed
    and module functions restored on exit.
    """
    originals = {
        "build_epochs": service_module.build_epochs,
        "apply_moves": service_module.apply_moves,
    }

    def epoch_counts(args, epochs):
        return {"epochs": len(epochs), "epoch_ops": sum(e.ops for e in epochs)}

    def migrate(*args, **kwargs):
        before = [s.snapshot() for s in shard_stats]
        try:
            return originals["apply_moves"](*args, **kwargs)
        finally:
            for stats, mark in zip(shard_stats, before):
                tracer.book_io("rebalance.migrate", stats.delta_since(mark))

    service_module.build_epochs = tracer.wrap(
        originals["build_epochs"], "epochs.build", "epochs", count=epoch_counts
    )
    service_module.apply_moves = tracer.wrap(migrate, "rebalance.migrate", "migrate")
    patched = [
        (svc, "run", tracer.wrap(svc.run, "service.run", "service")),
        (
            svc.directory,
            "slots_of",
            tracer.wrap(
                svc.directory.slots_of,
                "route",
                "route",
                count=lambda args, _: {"route.keys": len(args[0])},
            ),
        ),
        (
            svc.executor,
            "run",
            tracer.wrap(
                svc.executor.run,
                "executor",
                "executor",
                count=lambda args, _: {"executor.batches": len(args[0])},
            ),
        ),
    ]
    journal = svc.journal
    if journal is not None:
        fsync = 1 if journal.fsync else 0
        patched += [
            (
                journal,
                "append_epoch",
                tracer.wrap(journal.append_epoch, "journal.append", "journal"),
            ),
            (
                journal,
                "commit",
                tracer.wrap(
                    journal.commit,
                    "journal.commit",
                    "journal",
                    count=lambda *_: {"journal.fsyncs": fsync},
                ),
            ),
            (
                journal,
                "append_rebalance",
                tracer.wrap(
                    journal.append_rebalance,
                    "journal.append",
                    "journal",
                    count=lambda *_: {"journal.fsyncs": fsync},
                ),
            ),
        ]
    if svc.rebalancer is not None:
        patched.append(
            (
                svc.rebalancer,
                "decide",
                tracer.wrap(svc.rebalancer.decide, "rebalance.decide", "decide"),
            )
        )
    for obj, attr, wrapper in patched:
        setattr(obj, attr, wrapper)
    try:
        yield tracer
    finally:
        for obj, attr, _ in patched:
            delattr(obj, attr)
        service_module.build_epochs = originals["build_epochs"]
        service_module.apply_moves = originals["apply_moves"]
