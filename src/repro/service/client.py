"""Client simulators: closed-loop capacity and open-loop user experience.

Two load models drive a :class:`DictionaryService`:

* :class:`ClosedLoopClient` — a fixed amount of work in flight: submit
  one window, wait, submit the next.  Offered load adapts to service
  speed, so it measures *capacity* (kops, service-time latency), never
  overload.
* :class:`OpenLoopClient` — requests arrive on a **virtual clock** from
  a seeded :class:`~repro.service.traffic.ArrivalProcess`, whether or
  not the service is keeping up.  Latency is queueing delay **plus**
  service time, and when offered load exceeds capacity the
  :class:`~repro.service.admission.AdmissionController` decides what to
  reject, shed, or expire — every op ends in exactly one accounted
  outcome.

Both report through :class:`ClientReport`; the overload columns
(``goodput_kops``, ``queue_p99``, ``shed``, ``rejected``,
``deadline_exceeded``) are zero for closed-loop runs.

**Determinism.** Arrival times are seeded, the admission policy is a
pure function of (queue state, op kind), and with ``service_rate`` set
the service-time model is the deterministic virtual rate — so an
open-loop run is exactly reproducible.  With the controller left
*transparent* (unbounded queue, no deadline, no breaker) the client
dispatches epoch-grid-aligned slices, making the executed trace and all
ledgers **bit-identical** to a plain ``run()`` of the same ops — the
correctness contract the overload tests pin.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..em.cache import CacheStats
from ..em.errors import StorageFault
from ..em.iostats import IOSnapshot
from ..workloads.trace import OP_DELETE, OP_INSERT, OP_LOOKUP
from .admission import (
    EXECUTED,
    EXPIRED,
    PENDING,
    REJECTED,
    SHED,
    AdmissionController,
    AdmissionQueue,
)
from .epochs import conflict_bounds
from .service import DictionaryService, ServiceLedger
from .traffic import ArrivalProcess

__all__ = ["ClientReport", "ClosedLoopClient", "OpenLoopClient"]


def _weighted_percentile(pairs: list[tuple[float, int]], q: float) -> float:
    """Exact percentile of a sample given as ``(value, multiplicity)``.

    Robust for degenerate samples: an empty list, zero total mass, or a
    single pair must yield a well-defined number (0.0 for no mass, the
    lone value otherwise) — a 0- or 1-op run reports honest percentiles
    instead of raising or returning garbage.
    """
    pairs = sorted((value, count) for value, count in pairs if count > 0)
    if not pairs:
        return 0.0
    q = min(max(q, 0.0), 100.0)
    total = sum(count for _, count in pairs)
    threshold = q / 100.0 * total
    cum = 0
    for value, count in pairs:
        cum += count
        if cum >= threshold:
            return value
    return pairs[-1][0]


def _array_percentile(values: np.ndarray, q: float) -> float:
    """Same cum-mass-≥-threshold percentile, for a per-op float array."""
    n = len(values)
    if n == 0:
        return 0.0
    q = min(max(q, 0.0), 100.0)
    rank = int(np.ceil(q / 100.0 * n)) - 1
    return float(np.sort(values)[max(rank, 0)])


def _imbalance(before, after) -> float:
    """Worst-shard/mean-shard charged I/O over the run (0 when idle).

    ``before``/``after`` are ``shard_io_snapshots()`` lists; the ratio
    is over each shard's delta, so it measures *this run's* skew, not
    history's.
    """
    deltas = [b.total - a.total for a, b in zip(before, after)]
    total = sum(deltas)
    if total <= 0 or len(deltas) <= 1:
        return 0.0
    return max(deltas) * len(deltas) / total


@dataclass(frozen=True)
class _ServiceMarks:
    """Start-of-run marks of the service-side ledgers a report summarises.

    One :meth:`capture`/:meth:`settle` pair shared by both load models:
    every service-derived report column (cache delta, run imbalance,
    migrated slots) is computed — and therefore zero-filled for
    configurations where it doesn't apply — in exactly one place.
    Before this helper each client zero-filled the columns separately,
    and ``hit_rate``/``imbalance`` each had to be patched at two sites
    when they were added.
    """

    ledger: ServiceLedger
    shard_io: list[IOSnapshot]

    @classmethod
    def capture(cls, service: "DictionaryService") -> "_ServiceMarks":
        return cls(
            ledger=service.ledger.snapshot(),
            shard_io=service.shard_io_snapshots(),
        )

    def settle(self, service: "DictionaryService") -> dict:
        """The service-derived ``ClientReport`` fields for the run since
        :meth:`capture` — pass as ``**marks.settle(service)``."""
        run = service.ledger.delta_since(self.ledger)
        return {
            "hit_rate": CacheStats.of(run).hit_rate,
            "negative_hits": run.negative_hits,
            "imbalance": _imbalance(self.shard_io, service.shard_io_snapshots()),
            "migrated_slots": run.migrated_slots,
        }


@dataclass(frozen=True)
class ClientReport:
    """One client run: throughput, latency distribution, and accounting.

    ``executed`` is ``None`` for closed-loop runs (everything executes);
    the overload counters then default to zero, so one row schema serves
    both load models — see ``service/README.md`` for the column glossary.

    The cache columns (``hit_rate``, ``negative_hits``) summarise the
    cluster :class:`~repro.em.cache.CacheStats` delta over the run; an
    uncached cluster reports them zero-filled, keeping one schema for
    every configuration.
    """

    ops: int
    inserts: int
    lookups: int
    deletes: int
    epochs: int
    seconds: float
    io_total: int
    p50_ms: float
    p99_ms: float
    max_ms: float
    executed: int | None = None
    shed: int = 0
    rejected: int = 0
    deadline_exceeded: int = 0
    queue_p50_ms: float = 0.0
    queue_p99_ms: float = 0.0
    hit_rate: float = 0.0
    negative_hits: int = 0
    #: Worst-shard/mean-shard charged-I/O ratio over the run and slots
    #: migrated during it — zero-filled for static (non-rebalancing)
    #: runs, so one row schema serves both routers.
    imbalance: float = 0.0
    migrated_slots: int = 0

    @property
    def kops(self) -> float:
        """Offered throughput in thousands of ops per second."""
        return self.ops / self.seconds / 1e3 if self.seconds else 0.0

    @property
    def executed_ops(self) -> int:
        """Ops that actually ran (everything, for a closed-loop run)."""
        return self.ops if self.executed is None else self.executed

    @property
    def goodput_kops(self) -> float:
        """Executed (not merely offered) kops — the SLO sweep's y-axis."""
        return self.executed_ops / self.seconds / 1e3 if self.seconds else 0.0

    @property
    def amortized_io(self) -> float:
        return self.io_total / self.ops if self.ops else 0.0

    #: ``row()`` schema: (column, source attribute, round digits).  One
    #: table instead of a hand-built dict, so adding a column is one
    #: line and closed-loop/uncached/static rows zero-fill through the
    #: dataclass defaults — no per-site fill to drift.
    ROW_SCHEMA = (
        ("ops", "ops", None),
        ("epochs", "epochs", None),
        ("kops", "kops", 1),
        ("goodput_kops", "goodput_kops", 1),
        ("p50_ms", "p50_ms", 3),
        ("p99_ms", "p99_ms", 3),
        ("queue_p99", "queue_p99_ms", 3),
        ("io/op", "amortized_io", 4),
        ("shed", "shed", None),
        ("rejected", "rejected", None),
        ("deadline_exceeded", "deadline_exceeded", None),
        ("hit_rate", "hit_rate", 4),
        ("negative_hits", "negative_hits", None),
        ("imbalance", "imbalance", 2),
        ("migrated_slots", "migrated_slots", None),
    )

    def row(self) -> dict[str, float | int]:
        out: dict[str, float | int] = {}
        for column, attr, digits in self.ROW_SCHEMA:
            value = getattr(self, attr)
            out[column] = round(value, digits) if digits is not None else value
        return out


class ClosedLoopClient:
    """Drives a :class:`DictionaryService` one request window at a time.

    Parameters
    ----------
    service:
        The service under load.
    window:
        Requests submitted per round trip.  Latency includes the
        queueing delay behind earlier epochs of the same window, so a
        larger window trades latency for throughput — the classic
        closed-loop knob.
    """

    def __init__(self, service: DictionaryService, *, window: int = 65536) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.service = service
        self.window = window

    def drive(
        self,
        kinds: np.ndarray,
        keys: np.ndarray,
        *,
        check: bool = False,
    ) -> ClientReport:
        """Feed the whole stream through the service, window by window.

        With ``check``, assert the stream's semantic expectations: every
        delete must remove a key (the bulk generator only emits deletes
        of live keys), which catches routing or batching bugs in situ.
        """
        kinds = np.ascontiguousarray(kinds, dtype=np.uint8)
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        n = len(kinds)
        latencies: list[tuple[float, int]] = []
        epochs = 0
        io_total = 0
        marks = _ServiceMarks.capture(self.service)
        t_start = time.perf_counter()
        for lo in range(0, n, self.window):
            hi = min(lo + self.window, n)
            run = self.service.run(kinds[lo:hi], keys[lo:hi])
            elapsed = 0.0
            for report in run.epochs:
                elapsed += report.seconds
                latencies.append((elapsed, report.ops))
            epochs += len(run.epochs)
            io_total += run.io_total
            if check:
                dmask = kinds[lo:hi] == OP_DELETE
                if not bool(run.delete_removed[dmask].all()):
                    # Not an assert: the in-situ bug detector must stay
                    # armed under ``python -O`` too.
                    raise RuntimeError(
                        "closed-loop check: a delete targeted a non-live key"
                    )
        seconds = time.perf_counter() - t_start
        return ClientReport(
            ops=n,
            inserts=int(np.count_nonzero(kinds == OP_INSERT)),
            lookups=int(np.count_nonzero(kinds == OP_LOOKUP)),
            deletes=int(np.count_nonzero(kinds == OP_DELETE)),
            epochs=epochs,
            seconds=seconds,
            io_total=io_total,
            p50_ms=_weighted_percentile(latencies, 50) * 1e3,
            p99_ms=_weighted_percentile(latencies, 99) * 1e3,
            max_ms=(max(v for v, _ in latencies) * 1e3) if latencies else 0.0,
            **marks.settle(self.service),
        )


class OpenLoopClient:
    """Open-loop driver: virtual-clock arrivals through admission control.

    The simulation advances a virtual clock ``now``.  Each round, every
    op whose arrival time has passed is offered to the
    :class:`AdmissionController` (which admits, rejects, or sheds it);
    the client then dispatches the globally oldest admitted ops — up to
    the (possibly adaptively shrunk) batch cap — as one ``service.run``
    call, and advances ``now`` by the batch's service time.  An op's
    latency is ``completion − arrival``: queueing delay plus service
    time.

    **Program order.**  Dispatch merges the admission queue, the retry
    queue, and any breaker-held ops by global op index, so the executed
    subset of each shard's stream is always in program order — shedding
    and quarantine only *delete or delay* ops, never reorder same-key
    work (same-key ops route to the same shard).

    **Degradation.**  With a ``breaker``
    (:class:`~repro.service.faults.ShardBreakerBoard`), a
    :class:`~repro.em.errors.StorageFault` escaping a shard records a
    failure against it; while the shard's breaker is open its ops are
    held aside (healthy shards keep executing), and once the cooldown
    elapses a half-open probe re-dispatches them.  A faulted batch is
    requeued in order and re-executed — *at-least-once* under faults
    (membership ops are idempotent), exactly-once without.  Without a
    breaker, storage faults propagate to the caller.

    Parameters
    ----------
    service:
        The service under load (serial executor for full determinism).
    arrivals:
        Seeded :class:`~repro.service.traffic.ArrivalProcess`.
    controller:
        Admission policy; default is a transparent controller
        (unbounded, no deadline).  Transparent + no breaker enables the
        bit-identical epoch-grid fast path.
    breaker:
        Optional per-shard circuit-breaker board.
    service_rate:
        Deterministic service model: a batch of ``k`` ops takes
        ``k / service_rate`` virtual seconds.  ``None`` uses measured
        wall time (realistic, but not bit-reproducible in time).
    batch_ops:
        Dispatch-batch cap (default: the service's ``epoch_ops``).
    """

    def __init__(
        self,
        service: DictionaryService,
        arrivals: ArrivalProcess,
        *,
        controller: AdmissionController | None = None,
        breaker=None,
        service_rate: float | None = None,
        batch_ops: int | None = None,
    ) -> None:
        if service_rate is not None and not service_rate > 0:
            raise ValueError(f"service_rate must be positive, got {service_rate}")
        if batch_ops is not None and batch_ops <= 0:
            raise ValueError(f"batch_ops must be positive, got {batch_ops}")
        self.service = service
        self.arrivals = arrivals
        self.controller = (
            controller if controller is not None else AdmissionController()
        )
        self.breaker = breaker
        self.service_rate = service_rate
        self.batch_ops = batch_ops if batch_ops is not None else service.epoch_ops
        #: Per-op outcome codes after :meth:`drive` (admission constants).
        self.outcomes: np.ndarray = np.zeros(0, dtype=np.uint8)
        #: Op indices in the order they were executed (invariant tests).
        self.executed_order: list[int] = []
        self._epochs = 0
        self._io = 0

    def drive(self, kinds: np.ndarray, keys: np.ndarray) -> ClientReport:
        """Simulate the whole arrival stream; account every op."""
        kinds = np.ascontiguousarray(kinds, dtype=np.uint8)
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        n = len(kinds)
        if len(keys) != n:
            raise ValueError(f"kinds and keys must align: {n} vs {len(keys)}")
        t = self.arrivals.times(n)
        self.outcomes = outcomes = np.full(n, PENDING, dtype=np.uint8)
        self.executed_order = []
        self._epochs = 0
        self._io = 0
        lat = np.zeros(n, dtype=np.float64)
        qdel = np.zeros(n, dtype=np.float64)
        marks = _ServiceMarks.capture(self.service)
        recorder = self.service.recorder
        breaker_marks = (
            (self.breaker.trips, self.breaker.recoveries)
            if self.breaker is not None
            else (0, 0)
        )
        if (
            self.breaker is not None
            and recorder is not None
            and self.breaker.on_transition is None
        ):
            # Every breaker transition becomes a trace point event,
            # stamped with the board's own (virtual) clock.
            def _on_transition(shard, old, new, clock):
                recorder.emit(
                    "breaker",
                    **{"shard": shard, "from": old, "to": new, "clock": clock},
                )

            self.breaker.on_transition = _on_transition
        if n == 0:
            makespan = 0.0
        elif self.controller.transparent and self.breaker is None:
            makespan = self._drive_transparent(kinds, keys, t, outcomes, lat, qdel)
        else:
            makespan = self._drive_queued(kinds, keys, t, outcomes, lat, qdel)
        if recorder is not None:
            recorder.vt = None
        exec_mask = outcomes == EXECUTED
        executed = int(np.count_nonzero(exec_mask))
        elat = lat[exec_mask]
        equeue = qdel[exec_mask]
        shed = int(np.count_nonzero(outcomes == SHED))
        rejected = int(np.count_nonzero(outcomes == REJECTED))
        expired = int(np.count_nonzero(outcomes == EXPIRED))
        self._fold_drive_metrics(executed, shed, rejected, expired, breaker_marks)
        return ClientReport(
            ops=n,
            inserts=int(np.count_nonzero(kinds == OP_INSERT)),
            lookups=int(np.count_nonzero(kinds == OP_LOOKUP)),
            deletes=int(np.count_nonzero(kinds == OP_DELETE)),
            epochs=self._epochs,
            seconds=makespan,
            io_total=self._io,
            p50_ms=_array_percentile(elat, 50) * 1e3,
            p99_ms=_array_percentile(elat, 99) * 1e3,
            max_ms=float(elat.max()) * 1e3 if executed else 0.0,
            executed=executed,
            shed=shed,
            rejected=rejected,
            deadline_exceeded=expired,
            queue_p50_ms=_array_percentile(equeue, 50) * 1e3,
            queue_p99_ms=_array_percentile(equeue, 99) * 1e3,
            **marks.settle(self.service),
        )

    def _fold_drive_metrics(
        self,
        executed: int,
        shed: int,
        rejected: int,
        expired: int,
        breaker_marks: tuple[int, int],
    ) -> None:
        """Fold this drive's admission/breaker outcomes into the
        service's metrics registry (deterministic counts only)."""
        metrics = self.service.metrics()
        metrics.inc("repro_admission_total", executed, outcome="executed")
        metrics.inc("repro_admission_total", shed, outcome="shed")
        metrics.inc("repro_admission_total", rejected, outcome="rejected")
        metrics.inc("repro_admission_total", expired, outcome="expired")
        if self.breaker is not None:
            trips_mark, recoveries_mark = breaker_marks
            metrics.inc(
                "repro_breaker_trips_total", self.breaker.trips - trips_mark
            )
            metrics.inc(
                "repro_breaker_recoveries_total",
                self.breaker.recoveries - recoveries_mark,
            )

    # -- transparent fast path ----------------------------------------------

    def _drive_transparent(
        self,
        kinds: np.ndarray,
        keys: np.ndarray,
        t: np.ndarray,
        outcomes: np.ndarray,
        lat: np.ndarray,
        qdel: np.ndarray,
    ) -> float:
        """Admission can never refuse: dispatch the exact epoch grid.

        Each dispatched slice is one precomputed conflict-free window of
        at most ``epoch_ops`` ops, so ``service.run`` re-segments it
        into exactly one epoch with the same bounds a single ``run()``
        over the whole stream would cut — epochs, ledgers, layouts and
        results are bit-identical to the closed-loop/run_trace execution
        (group-commit semantics: an epoch starts once its last op has
        arrived and the service is free).
        """
        svc = self.service
        recorder = svc.recorder
        bounds = conflict_bounds(kinds, keys, max_ops=svc.epoch_ops)
        now = 0.0
        for lo, hi in zip(bounds, bounds[1:]):
            start = max(now, float(t[hi - 1]))
            if recorder is not None:
                # Epoch spans emitted inside run() carry the dispatch's
                # virtual time — deterministic with a service_rate.
                recorder.vt = start
            run = svc.run(kinds[lo:hi], keys[lo:hi])
            elapsed = (
                (hi - lo) / self.service_rate
                if self.service_rate is not None
                else run.seconds
            )
            now = start + elapsed
            outcomes[lo:hi] = EXECUTED
            qdel[lo:hi] = start - t[lo:hi]
            lat[lo:hi] = now - t[lo:hi]
            self.executed_order.extend(range(lo, hi))
            self._epochs += len(run.epochs)
            self._io += run.io_total
        return now

    # -- queued simulation ---------------------------------------------------

    def _drive_queued(
        self,
        kinds: np.ndarray,
        keys: np.ndarray,
        t: np.ndarray,
        outcomes: np.ndarray,
        lat: np.ndarray,
        qdel: np.ndarray,
    ) -> float:
        svc = self.service
        ctrl = self.controller
        breaker = self.breaker
        recorder = svc.recorder
        last_admission: tuple | None = None

        def _note_admission(now: float, queue_len: int) -> None:
            # One trace point event whenever the admission picture
            # changed: cumulative shed/reject/expiry counts + the queue
            # depth at virtual time ``now``.  Recorder-on only — the
            # counting scans are skipped entirely when untraced.
            nonlocal last_admission
            shed = int(np.count_nonzero(outcomes == SHED))
            rejected = int(np.count_nonzero(outcomes == REJECTED))
            expired = int(np.count_nonzero(outcomes == EXPIRED))
            state = (shed, rejected, expired, queue_len)
            if state == last_admission:
                return
            last_admission = state
            recorder.vt = now
            recorder.emit(
                "admission",
                epoch=max(svc.epochs_run - 1, 0),
                queue=queue_len,
                shed=shed,
                rejected=rejected,
                expired=expired,
            )
            svc.metrics().set_gauge("repro_queue_depth", queue_len)

        n = len(kinds)
        def _shard_map() -> np.ndarray:
            if svc.shards == 1:
                return np.zeros(n, dtype=np.int64)
            return svc.directory.shards_of(keys)

        if breaker is not None:
            shard_of = _shard_map()
            dir_version = svc.directory.version
            held: list[deque[int]] = [deque() for _ in range(svc.shards)]
        else:
            shard_of = None
            dir_version = None
            held = []
        queue = AdmissionQueue()
        ai = 0
        now = 0.0
        cap = self.batch_ops

        while ai < n or len(queue) or any(held):
            # A migration between epochs repoints slots; refresh the
            # breaker's shard map so quarantine tracks the live route.
            if breaker is not None and svc.directory.version != dir_version:
                shard_of = _shard_map()
                dir_version = svc.directory.version
            # Open loop: everything that has arrived by now hits admission,
            # in arrival (= program) order.
            while ai < n and t[ai] <= now:
                ctrl.offer(queue, ai, int(kinds[ai]), outcomes)
                ai += 1
            cap = ctrl.batch_cap(len(queue), self.batch_ops, cap)
            batch = self._next_batch(queue, held, shard_of, t, outcomes, now, cap)
            if not batch:
                # Idle: jump to the next event — an arrival, or a
                # quarantined shard's cooldown expiring (both strictly
                # in the future, or the merge would have dispatched).
                nxt = [float(t[ai])] if ai < n else []
                if breaker is not None:
                    nxt += [
                        breaker.reopen_at(s)
                        for s in range(len(held))
                        if held[s] and breaker.state(s) == "open"
                    ]
                if not nxt:
                    break
                now = max(now, min(nxt))
                continue
            barr = np.asarray(batch, dtype=np.int64)
            start = now
            if recorder is not None:
                recorder.vt = start
            t0 = time.perf_counter()
            try:
                run = svc.run(kinds[barr], keys[barr])
            except StorageFault as exc:
                shard = getattr(exc, "shard", None)
                if breaker is None or shard is None:
                    raise
                now = start + (
                    len(batch) / self.service_rate
                    if self.service_rate is not None
                    else time.perf_counter() - t0
                )
                breaker.record_failure(shard, now)
                # Requeue the attempt at the *front* of each shard's hold:
                # every shard in the batch was admissible at dispatch, so
                # anything still parked for it carries a larger index —
                # prepending in reverse keeps each hold ascending and the
                # re-dispatch in program order (at-least-once under faults).
                for idx in reversed(batch):
                    held[int(shard_of[idx])].appendleft(idx)
                continue
            now = start + (
                len(batch) / self.service_rate
                if self.service_rate is not None
                else run.seconds
            )
            outcomes[barr] = EXECUTED
            qdel[barr] = start - t[barr]
            lat[barr] = now - t[barr]
            self.executed_order.extend(batch)
            self._epochs += len(run.epochs)
            self._io += run.io_total
            if breaker is not None:
                for s in np.unique(shard_of[barr]).tolist():
                    breaker.record_success(int(s), now)
            if recorder is not None:
                _note_admission(now, len(queue))
        if recorder is not None:
            _note_admission(now, len(queue))
        return now

    def _next_batch(
        self,
        queue: AdmissionQueue,
        held: list[deque],
        shard_of: np.ndarray | None,
        t: np.ndarray,
        outcomes: np.ndarray,
        now: float,
        cap: int,
    ) -> list[int]:
        """Up to ``cap`` dispatchable ops, globally oldest first.

        Two sources merge by op index: per-shard holds (faulted-batch
        requeues and breaker-parked ops) whose shard is currently
        admissible, and the admission queue.  Pops are lazily expired
        against their deadline; ops for a quarantined shard are parked
        in that shard's hold, which stays ascending by construction.
        """
        ctrl = self.controller
        breaker = self.breaker
        _QUEUE = -1
        batch: list[int] = []
        while len(batch) < cap:
            best, src = None, None
            if breaker is not None:
                for s, bucket in enumerate(held):
                    if (
                        bucket
                        and (best is None or bucket[0] < best)
                        and not breaker.blocked(s, now)
                    ):
                        best, src = bucket[0], s
            peeked = queue.peek_next()
            if peeked is not None and (best is None or peeked[0] < best):
                best, src = peeked[0], _QUEUE
            if src is None:
                break
            idx = queue.pop_next()[0] if src == _QUEUE else held[src].popleft()
            if ctrl.expired(float(t[idx]), now):
                outcomes[idx] = EXPIRED
                continue
            if (
                src == _QUEUE
                and breaker is not None
                and breaker.blocked(int(shard_of[idx]), now)
            ):
                held[int(shard_of[idx])].append(idx)
                continue
            batch.append(idx)
        return batch
