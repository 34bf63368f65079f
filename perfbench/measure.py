"""Build the service, drive it closed-loop, and turn repetitions into metrics.

One *repetition* builds a fresh :class:`DictionaryService` (timed as
set-up; for ``skewed-reads`` the preload is part of it), then sends the
workload's stream one window at a time, waiting for each
``service.run`` call to return before sending the next — a closed loop
with one client.  Every repetition of a run replays the same stream on a
fresh service, so its exact counts (charged I/O, cache hits/misses,
migrations) must repeat; :func:`run_reps` checks that they do.
"""

from __future__ import annotations

import contextlib
import gc
import mmap
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.buffered import BufferedHashTable
from repro.core.config import RebalanceConfig
from repro.em import make_context
from repro.hashing.family import MULTIPLY_SHIFT
from repro.service import DictionaryService, EpochJournal
from repro.workloads.trace import OP_DELETE, OP_INSERT, OP_LOOKUP

from tracing import Tracer, instrument, instrument_shard
from workloads import B, M, SHARDS, U, Inputs, WorkloadSpec

#: Epoch cap: above every window, so each window is coalesced by the
#: service's own conflict rule, never cut by the cap.
EPOCH_OPS = 65536
#: Preload windows for ``skewed-reads`` (set-up, not measured traffic).
PRELOAD_WINDOW = 65536
#: Seed of every shard table's hash function.
TABLE_HASH_SEED = 61
#: At least this many measured repetitions per run, whatever the budget.
MIN_REPS = 3
#: The speed probe's time at the nominal machine speed.  A fixed
#: constant: about the probe's median on the 2-CPU x86_64 host the
#: benchmark was tuned on.  It sets the scale, not the comparison.
NOMINAL_PROBE_S = 0.008
#: Window time between two speed probes.
PROBE_EVERY_S = 0.05
#: The file probe's time at the nominal machine speed (about its median
#: on the same host).
NOMINAL_FILE_PROBE_S = 0.0012


@dataclass
class Rep:
    """What one repetition measured."""

    setup_s: float
    wall_s: float
    #: Wall seconds of each successful window's ``service.run`` call.
    latencies: np.ndarray
    attempted: int
    failed: int
    completed: int
    #: Exact, repeatable counts: the determinism fingerprint.
    counts: dict
    #: The same times scaled to the nominal machine speed.
    norm_setup_s: float
    norm_wall_s: float
    norm_latencies: np.ndarray
    #: Traced repetitions only: per-layer metrics, the span recorder,
    #: and any failure of the I/O partition check.
    layers: dict = field(default_factory=dict)
    tracer: Tracer | None = None
    problems: list[str] = field(default_factory=list)


def build_service(spec: WorkloadSpec, workdir: Path, tracer: Tracer | None = None):
    """A fresh service configured for ``spec``; shard contexts in order."""
    contexts = []

    def shard_factory(ctx):
        hash_fn = MULTIPLY_SHIFT.sample(ctx.u, seed=TABLE_HASH_SEED)
        table = BufferedHashTable(ctx, hash_fn)
        contexts.append(ctx)
        if tracer is not None:
            instrument_shard(tracer, table, ctx)
        return table

    ctx = make_context(
        b=B, m=M, u=U, backend=spec.backend, cache_blocks=spec.cache_blocks
    )
    journal = EpochJournal(workdir / "epochs.journal") if spec.journal else None
    svc = DictionaryService(
        ctx,
        shard_factory,
        shards=SHARDS,
        epoch_ops=EPOCH_OPS,
        journal=journal,
        rebalance=RebalanceConfig() if spec.rebalance else None,
    )
    return svc, contexts


def _preload(svc, keys: np.ndarray) -> None:
    for lo in range(0, len(keys), PRELOAD_WINDOW):
        chunk = keys[lo : lo + PRELOAD_WINDOW]
        svc.run(np.full(len(chunk), OP_INSERT, dtype=np.uint8), chunk)


def _exact_counts(svc, io0, cache0, migrated0, keys_moved0) -> dict:
    """The timed phase's exact counts; ``io0`` is the ledger after set-up."""
    io = svc.io_snapshot() - io0
    cache = svc.cache_snapshot().delta_since(cache0)
    return {
        "setup_io": [io0.reads, io0.writes, io0.combined, io0.allocations],
        "io": [io.reads, io.writes, io.combined, io.allocations],
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "cache_evictions": cache.evictions,
        "migrated_slots": svc.migrated_slots - migrated0,
        "keys_moved": svc.keys_moved - keys_moved0,
        "epochs": svc.epochs_run,
        "journal_bytes": svc.journal.bytes_written if svc.journal is not None else 0,
    }


class SpeedProbe:
    """A fixed CPU kernel whose time tracks the machine's current speed.

    The kernel mixes what the service spends its time on — interpreter
    loops, a numpy sort, gathers from an array larger than most caches,
    dict inserts — so contention from outside the process slows it about
    as much as it slows the service.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(1)
        self._table = rng.integers(0, 2**60, 2**20, dtype=np.uint64)
        self._index = rng.integers(0, 2**20, 2**17)
        self._keys = rng.integers(0, 2**60, 2**16, dtype=np.uint64)

    nominal_s = NOMINAL_PROBE_S

    def __call__(self) -> float:
        """Seconds the kernel takes now."""
        t0 = time.perf_counter()
        x = 0
        for i in range(40_000):
            x += i * i % 7
        np.sort(self._keys)
        x += int(self._table[self._index].sum() % 7)
        table = {int(v): x for v in self._keys[:10_000]}
        del table
        return time.perf_counter() - t0


class FileProbe:
    """A fixed file-system kernel: the speed of set-up on file-backed storage.

    Building a ``durable-arena`` service is mostly directory and file
    creation, truncation and ``mmap`` calls, whose speed drifts with the
    host's I/O load apart from its CPU speed: over twelve samples taken
    within minutes on a 2-CPU x86_64 host, set-up time divided by the CPU
    probe's ranged over 43% of its median, divided by this probe's over
    16%.  The kernel makes the same calls in the directory the arenas
    live in.
    """

    nominal_s = NOMINAL_FILE_PROBE_S
    FILES = 16
    FILE_BYTES = 1 << 20

    def __call__(self) -> float:
        """Seconds the kernel takes now."""
        t0 = time.perf_counter()
        workdir = tempfile.mkdtemp(prefix="probe-")
        maps = []
        for i in range(self.FILES):
            path = os.path.join(workdir, f"f{i}")
            with open(path, "ab") as fh:
                fh.truncate(self.FILE_BYTES)
            with open(path, "r+b") as fh:
                maps.append(mmap.mmap(fh.fileno(), self.FILE_BYTES))
        for mm in maps:
            mm.close()
        shutil.rmtree(workdir)
        return time.perf_counter() - t0


def one_rep(
    spec: WorkloadSpec,
    inputs: Inputs,
    *,
    probe: SpeedProbe,
    setup_probe: SpeedProbe | FileProbe,
    traced: bool = False,
    stop: int | None = None,
) -> Rep:
    """Set up a fresh service and drive ``inputs`` (its first ``stop`` ops).

    ``setup_probe`` runs before and after set-up, the speed probe after
    set-up and after every ``PROBE_EVERY_S`` of windows; each timed
    interval is scaled by its probe's ``nominal_s`` over the mean of the
    probes around it.  Probe time is outside every timed interval.
    """
    kinds, keys = inputs.kinds[:stop], inputs.keys[:stop]
    n = len(kinds)
    window = spec.window
    n_windows = -(-n // window)
    tracer = Tracer() if traced else None
    workdir = Path(tempfile.mkdtemp(prefix="rep-"))
    gc.collect()
    try:
        setup_before = setup_probe()
        t0 = time.perf_counter()
        svc, contexts = build_service(spec, workdir, tracer)
        if len(inputs.preload):
            _preload(svc, inputs.preload)
        setup_s = time.perf_counter() - t0
        setup_after = setup_probe()
        setup_scale = setup_probe.nominal_s / ((setup_before + setup_after) / 2)
        last = setup_after if setup_probe is probe else probe()
        io0, cache0 = svc.io_snapshot(), svc.cache_snapshot()
        migrated0, keys_moved0 = svc.migrated_slots, svc.keys_moved
        migration_io0 = svc.migration_io

        found = np.zeros(n, dtype=bool)
        removed = np.zeros(n, dtype=bool)
        raised = np.zeros(n, dtype=bool)
        # Per window: wall of the whole client iteration, of the
        # ``service.run`` call alone, and the speed scale.
        iter_s = np.zeros(n_windows)
        call_s = np.zeros(n_windows)
        scale = np.zeros(n_windows)
        window_ok = np.ones(n_windows, dtype=bool)
        no_span = contextlib.nullcontext()
        segment_start, segment_s = 0, 0.0
        with (
            instrument(tracer, svc, [c.stats for c in contexts])
            if tracer is not None
            else no_span
        ):
            for w in range(n_windows):
                lo, hi = w * window, min((w + 1) * window, n)
                if tracer is not None:
                    tracer.active = True
                t_iter = time.perf_counter()
                with tracer.span("client") if tracer is not None else no_span:
                    t_call = time.perf_counter()
                    try:
                        res = svc.run(kinds[lo:hi], keys[lo:hi])
                    except Exception:  # noqa: BLE001 - counted, then reported
                        res = None
                        traceback.print_exc(file=sys.stderr)
                    call_s[w] = time.perf_counter() - t_call
                    if res is None:
                        raised[lo:hi] = True
                        window_ok[w] = False
                    else:
                        found[lo:hi] = res.lookup_found
                        removed[lo:hi] = res.delete_removed
                iter_s[w] = time.perf_counter() - t_iter
                if tracer is not None:
                    tracer.active = False
                segment_s += iter_s[w]
                if segment_s >= PROBE_EVERY_S or w == n_windows - 1:
                    now = probe()
                    scale[segment_start : w + 1] = NOMINAL_PROBE_S / ((last + now) / 2)
                    last, segment_start, segment_s = now, w + 1, 0.0

        expected = inputs.live_before[:stop]
        ok = ~raised
        wrong = (
            ((kinds == OP_LOOKUP) & ok & (found != expected)).sum()
            + ((kinds == OP_DELETE) & ok & (removed != expected)).sum()
        )
        counts = _exact_counts(svc, io0, cache0, migrated0, keys_moved0)
        wall_s = float(iter_s.sum())
        rep = Rep(
            setup_s=setup_s,
            wall_s=wall_s,
            latencies=call_s[window_ok],
            attempted=n,
            failed=int(wrong) + int(raised.sum()),
            completed=n - int(raised.sum()),
            counts=counts,
            norm_setup_s=setup_s * setup_scale,
            norm_wall_s=float((iter_s * scale).sum()),
            norm_latencies=(call_s * scale)[window_ok],
        )
        if tracer is not None:
            rep.tracer = tracer
            rep.layers, rep.problems = layer_metrics(
                tracer, svc, n, wall_s, counts, svc.migration_io - migration_io0
            )
        svc.close()
        if svc.journal is not None:
            svc.journal.close()
        return rep
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_reps(spec, inputs, seconds, *, traced_pairs=False):
    """Warm up, then repeat until ``seconds`` of measuring are spent.

    With ``traced_pairs`` each step is an untraced repetition followed by
    a traced one (their wall ratio is the tracing overhead).  Returns
    ``(untraced reps, traced reps, fingerprint mismatches)``.
    """
    warm_stop = max(spec.window, len(inputs.kinds) // 8 // spec.window * spec.window)
    probe = SpeedProbe()
    setup_probe = FileProbe() if spec.backend == "durable-arena" else probe
    step = dict(probe=probe, setup_probe=setup_probe)
    one_rep(spec, inputs, **step, stop=warm_stop)
    plain: list[Rep] = []
    traced: list[Rep] = []
    mismatches: list[str] = []
    t0 = time.perf_counter()
    while True:
        plain.append(one_rep(spec, inputs, **step))
        if traced_pairs:
            traced.append(one_rep(spec, inputs, **step, traced=True))
        for rep in (plain[-1], *traced[-1:]):
            if rep.counts != plain[0].counts:
                mismatches.append(
                    f"repetition counts differ: {rep.counts} != {plain[0].counts}"
                )
        elapsed = time.perf_counter() - t0
        per_step = elapsed / len(plain)
        enough = len(plain) >= (1 if traced_pairs else MIN_REPS)
        if enough and elapsed + per_step > seconds:
            break
    return plain, traced, mismatches


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(reps: list[Rep], peak_rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics (name -> (value, unit)) and sample notes.

    Times are the speed-scaled ones (see :class:`SpeedProbe`).
    Throughput and set-up are medians over repetitions; the latency
    percentiles are taken over every window of every repetition.
    """
    kops = [r.completed / r.norm_wall_s / 1e3 for r in reps]
    lat_ms = np.concatenate([r.norm_latencies for r in reps]) * 1e3
    rep0 = reps[0]
    io_total = rep0.counts["io"][0] + rep0.counts["io"][1]
    p99 = float(np.percentile(lat_ms, 99))
    metrics = {
        "throughput_kops": (statistics.median(kops), "kops"),
        "latency_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "latency_p99_ms": (p99, "ms"),
        "io_per_op": (io_total / rep0.attempted, "I/Os"),
        "setup_s": (statistics.median(r.norm_setup_s for r in reps), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw_ms = np.concatenate([r.latencies for r in reps]) * 1e3
    notes = {
        "reps": len(reps),
        "latency_samples": int(len(lat_ms)),
        "latency_samples_beyond_p99": int((lat_ms > p99).sum()),
        "per_rep": {
            "throughput_kops": kops,
            "setup_s": [r.norm_setup_s for r in reps],
            "latencies_ms": [np.round(r.norm_latencies * 1e3, 4).tolist() for r in reps],
        },
        "raw": {
            "throughput_kops": statistics.median(
                r.completed / r.wall_s / 1e3 for r in reps
            ),
            "latency_p50_ms": float(np.percentile(raw_ms, 50)),
            "latency_p99_ms": float(np.percentile(raw_ms, 99)),
            "setup_s": statistics.median(r.setup_s for r in reps),
        },
    }
    return metrics, notes


#: Per-layer metric name -> unit, in report order.
LAYER_UNITS = {
    "service.run_s": "s",
    "service.self_s": "s",
    "client.self_s": "s",
    "epochs.build_s": "s",
    "epochs.count": "count",
    "epochs.ops_mean": "ops",
    "route.s": "s",
    "route.keys": "count",
    "executor.s": "s",
    "executor.self_s": "s",
    "executor.batches": "count",
    **{
        f"table.{kind}.{what}": unit
        for kind in ("insert", "delete", "lookup")
        for what, unit in (("s", "s"), ("us_per_op", "us"), ("io_per_op", "I/Os"))
    },
    "table.self_s": "s",
    "em.disk.s": "s",
    "em.reads_per_op": "I/Os",
    "em.writes_per_op": "I/Os",
    "em.combined_per_op": "I/Os",
    "cache.hit_rate": "ratio",
    "cache.misses_per_op": "1/op",
    "cache.evictions_per_op": "1/op",
    "mem.high_water_words": "words",
    "journal.append.s": "s",
    "journal.commit.s": "s",
    "journal.fsyncs": "count",
    "journal.bytes_per_op": "B/op",
    "rebalance.decide.s": "s",
    "rebalance.migrate.s": "s",
    "rebalance.migrated_slots": "count",
    "rebalance.keys_moved": "count",
    "rebalance.io_per_op": "I/Os",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}


def layer_metrics(
    tracer: Tracer, svc, n: int, wall_s: float, counts: dict, migration_io: int
) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced repetition, and I/O partition failures."""
    inc, own, cnt = tracer.inclusive, tracer.self_time, tracer.counts
    io = counts["io"]
    hits, misses = counts["cache_hits"], counts["cache_misses"]
    out = {
        "service.run_s": inc["service.run"],
        "service.self_s": own["service.run"],
        "client.self_s": own["client"],
        "epochs.build_s": inc["epochs.build"],
        "epochs.count": cnt["epochs"],
        "epochs.ops_mean": cnt["epoch_ops"] / max(cnt["epochs"], 1),
        "route.s": inc["route"],
        "route.keys": cnt["route.keys"],
        "executor.s": inc["executor"],
        "executor.self_s": own["executor"],
        "executor.batches": cnt["executor.batches"],
        "table.self_s": sum(own[f"table.{k}"] for k in ("insert", "delete", "lookup")),
        "em.disk.s": own["em.disk"],
        "em.reads_per_op": io[0] / n,
        "em.writes_per_op": io[1] / n,
        "em.combined_per_op": io[2] / n,
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "cache.misses_per_op": misses / n,
        "cache.evictions_per_op": counts["cache_evictions"] / n,
        "mem.high_water_words": svc.memory_high_water(),
        "journal.append.s": inc["journal.append"],
        "journal.commit.s": inc["journal.commit"],
        "journal.fsyncs": cnt["journal.fsyncs"],
        "journal.bytes_per_op": counts["journal_bytes"] / n,
        "rebalance.decide.s": inc["rebalance.decide"],
        "rebalance.migrate.s": inc["rebalance.migrate"],
        "rebalance.migrated_slots": counts["migrated_slots"],
        "rebalance.keys_moved": counts["keys_moved"],
        "rebalance.io_per_op": sum(tracer.io["rebalance.migrate"][:2]) / n,
        "trace.coverage": sum(own.values()) / wall_s,
    }
    for kind in ("insert", "delete", "lookup"):
        name = f"table.{kind}"
        keys = cnt[f"{name}.keys"]
        out[f"{name}.s"] = inc[name]
        out[f"{name}.us_per_op"] = inc[name] / keys * 1e6 if keys else 0.0
        out[f"{name}.io_per_op"] = sum(tracer.io[name][:2]) / keys if keys else 0.0
    # The I/O partition: per-kind table I/O (outside migrations) plus
    # migration I/O must add up to the cluster ledger, field by field.
    parts = [tracer.io[f"table.{k}"] for k in ("insert", "delete", "lookup")]
    parts.append(tracer.io["rebalance.migrate"])
    summed = [sum(p[i] for p in parts) for i in range(4)]
    problems = []
    if summed != io:
        problems.append(f"table+migration I/O {summed} != cluster ledger {io}")
    migrated = sum(tracer.io["rebalance.migrate"][:2])
    if migrated != migration_io:
        problems.append(f"traced migration I/O {migrated} != service's {migration_io}")
    return out, problems
