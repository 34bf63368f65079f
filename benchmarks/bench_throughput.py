"""THROUGHPUT — scalar vs. batch, backends, and shard fan-out.

The paper's quantities are exact I/O counts, but producing them at the
ROADMAP's target scales is wall-clock-bound.  PR 1 added the batch
engine (one ``hash_array`` call, argsort partitioning, bulk charging
per batch); this harness grew two system axes with the storage-backend
PR:

* ``--backend``: the block store behind the disk — ``mapping``
  (dict-of-Block) vs. ``arena`` (contiguous numpy record arenas).  The
  backend is a representation choice: **I/O totals are asserted
  bit-identical across backends for every configuration, under both
  the paper and the strict I/O policy** (the parity suite pins the full
  counter/layout identity at small scale).
* ``--shards``: the sharded dictionary router — N independent
  ``BufferedHashTable`` shards (own disk namespace, own ``m``-word
  memory, shared I/O ledger), the data-distributed scaling step.  A
  shard of n/N keys runs fewer doubling rounds than one table of n
  keys, so the cluster moves each record fewer times — both wall-clock
  *and* cluster-wide I/O drop.

Measured artifact: keys/sec for inserts + successful lookups of n
uniform keys at n ∈ {10⁴, 10⁵, 10⁶} for the (backend × shards)
configurations, plus the PR 1 scalar-vs-batch reference on the
unsharded mapping config.  Config: b = 1024 words (an 8 KiB block of
8-byte words), m = 4096 words per machine.

Asserted shape: the batch path stays well clear of the scalar path at
n = 10⁵ (typical pair speedup 5–6×; the gate is 4× because the
reference VM's scheduler swings the measured ratio by ±20% run to run
— a real engine regression reads as 1–2×, far below the gate); the
sharded (N=8) arena config reaches ≥ 1.5× PR 1's recorded batch
keys/sec at n = 10⁶ (564 kops → the row must clear 846; observed
0.9–1.2k) and must beat this run's own unsharded baseline.

The service PR adds a third axis, the **mixed-workload service rows**
(``test_service_mixed_throughput``, also runnable alone via
``make service-bench``): a 70/25/5 lookup/insert/delete stream driven
through :class:`~repro.service.DictionaryService` by the closed-loop
client, per executor (``serial`` / ``threads``) on the sharded(8)
arena config, with the in-run unsharded-mapping batch loop on the same
mix as reference.  Rows carry throughput *and* p50/p99 per-op latency.
Asserted: the ``threads`` executor is bit-identical to ``serial``
(cluster I/O counters, per-shard ledgers, memory peaks, shard sizes,
per-op results) and sustains at least PR 4's recorded unsharded
mapping batch rate at n = 10⁶ (699.3 kops) on the mixed stream.

The durability PR adds the **journal-overhead row**: the same mixed
stream through durable-arena shards with a fsync'd epoch write-ahead
journal attached, serial executor, compared against this run's own
serial in-memory-arena leg at n = 10⁶.  The charged I/O totals are
asserted bit-identical (durability is a representation + logging
choice, invisible to the model's ledgers); wall-clock must stay within
15% (kops ratio ≥ 0.85).

The cache PR adds the **cold-vs-warm cache rows**
(``test_cache_throughput``, also runnable alone via
``make cache-bench``): a lookup-heavy mix (24k scalar probes + 2k bulk
inserts per round, six rounds) on the buffered table and the
Bloom-filtered LSM, each run uncached and with a 256-block
:class:`~repro.em.cache.BufferPool` (``cache_blocks=256``), pool
cleared after the build so round 0 is a true cold start.  Per-round
rows carry both legs' keys/sec plus the cached leg's hit rate and
Bloom ``negative_hits``; with ``$REPRO_PLOT_DIR`` set the per-table
curves also land as ``.dat`` series (``plotdata.py``).  Asserted
in-run: results bit-identical, the relabelling contract — per round
and in total, ``hits + misses == uncached charged reads``, cached
reads equal the misses, ``writes + combined`` and allocations
unchanged — and the warm cached rounds beat the uncached leg's best
keys/sec.

Run via ``make bench`` (writes ``BENCH_throughput.json`` at the repo
root) — the perf trajectory future PRs regress against.
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines.lsm import LSMTree
from repro.core.buffered import BufferedHashTable
from repro.core.config import KEY_DISTS
from repro.em import STRICT_POLICY, make_context
from repro.hashing.family import MULTIPLY_SHIFT
from repro.service import ClosedLoopClient, DictionaryService, EpochJournal
from repro.tables import ShardedDictionary
from repro.tables.sharded import _ROUTER_SEED
from repro.workloads.generators import make_generator
from repro.workloads.trace import (
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    BulkMixedWorkload,
)

from conftest import emit, once
from plotdata import series_payload, write_series

B, M, U = 1024, 4096, 2**61 - 1
SIZES = (10_000, 100_000, 1_000_000)
#: (backend, shards) configurations recorded per size.
CONFIGS = (("mapping", 1), ("arena", 1), ("mapping", 8), ("arena", 8))
#: Observed 4.6–6.4 across runs on the reference VM (PR 1 recorded
#: 5.19); gated below the noise floor, far above any real regression.
REQUIRED_SPEEDUP_AT_1E5 = 4.0
#: Acceptance floor: sharded(8) arena vs. unsharded mapping at n=1e6.
REQUIRED_SHARDED_SPEEDUP_AT_1E6 = 1.5
#: PR 1's recorded batch keys/sec at n=1e6 (unsharded mapping).
PR1_BATCH_KOPS_1E6 = 564.3

#: PR 4's recorded batch keys/sec at n=1e6 (unsharded mapping reference
#: row) — the floor the threaded service must sustain on mixed traffic.
PR4_BATCH_KOPS_1E6 = 699.3
#: 70/25/5 lookup/insert/delete as (insert, hit, miss, delete) weights.
SERVICE_MIX = (0.25, 0.60, 0.10, 0.05)
#: Client window == generator chunk == epoch cap: chunks are
#: key-disjoint across kinds, so conflict cuts happen only at chunk
#: crossings and epochs stay window-sized.
SERVICE_WINDOW = 65536
SERVICE_SHARDS = 8
SERVICE_SIZES = (100_000, 1_000_000)
#: Journal-overhead gate: durable-arena + fsync'd journal must keep
#: >= this fraction of the in-memory serial arena leg's kops at n=1e6.
REQUIRED_DURABLE_KOPS_RATIO = 0.85

#: Cache-axis leg: per-shard BufferPool capacity in blocks.
CACHE_BLOCKS = 256
#: Keys loaded before the rounds (the working set the probes hit).
CACHE_N = 100_000
CACHE_ROUNDS = 6
#: Per-round mix: scalar lookups (the hot path the pool serves) plus a
#: bulk-insert tail that grows the table and drops resident ids.
CACHE_PROBES = 24_000
CACHE_GROW = 2_000
#: The last rounds, after growth churn settles, count as "warm".
CACHE_WARM_ROUNDS = 2
#: Warm cached keys/sec vs the uncached leg's best round.  Observed
#: 1.7-2.7x on the reference VM; gated well below the noise floor.
REQUIRED_WARM_CACHED_SPEEDUP = 1.15
#: (name, table memory m): the LSM leg needs room for its memtable,
#: fences and per-run Bloom filters (4 bits/key at n ~ 1.1e5).
CACHE_TABLES = (("buffered", M), ("lsm-bloom", 32_768))


def _table_factory(ctx):
    return BufferedHashTable(ctx, MULTIPLY_SHIFT.sample(ctx.u, seed=61))


def _fresh_table(backend="mapping", shards=1, policy=None):
    ctx = make_context(b=B, m=M, u=U, backend=backend, policy=policy)
    if shards == 1:
        return ctx, _table_factory(ctx)
    return ctx, ShardedDictionary(ctx, _table_factory, shards=shards)


def _keys(n: int) -> list[int]:
    # UniformKeys dedup bookkeeping is driver overhead, not table work;
    # generate the key set once, outside the timed region.
    from repro.workloads.generators import UniformKeys

    return UniformKeys(U, seed=62).take(n)


def _run_scalar(keys) -> tuple[float, float, int]:
    ctx, table = _fresh_table()
    t0 = time.perf_counter()
    table.insert_many(keys)
    t1 = time.perf_counter()
    ok = all(table.lookup(k) for k in keys)
    t2 = time.perf_counter()
    assert ok, "scalar path lost keys"
    return t1 - t0, t2 - t1, ctx.stats.total


def _run_batch(keys, backend="mapping", shards=1, policy=None) -> tuple[float, float, int]:
    ctx, table = _fresh_table(backend, shards, policy)
    t0 = time.perf_counter()
    table.insert_batch(keys)
    t1 = time.perf_counter()
    ok = bool(table.lookup_batch(keys).all())
    t2 = time.perf_counter()
    assert ok, "batch path lost keys"
    return t1 - t0, t2 - t1, ctx.stats.total


def _measure_reference(n: int) -> dict:
    """PR 1's scalar-vs-batch pair on the unsharded mapping config."""
    keys = _keys(n)
    # Best-of-5 below 1e6 to damp scheduler noise around the asserted
    # ratio; the 1e6 point is single-shot (its bound has ample margin).
    reps = 5 if n < 1_000_000 else 1
    s_ins, s_look, s_io = min(
        (_run_scalar(keys) for _ in range(reps)), key=lambda r: r[0] + r[1]
    )
    b_ins, b_look, b_io = min(
        (_run_batch(keys) for _ in range(reps)), key=lambda r: r[0] + r[1]
    )
    assert s_io == b_io, (
        f"I/O parity violated at n={n}: scalar={s_io} batch={b_io}"
    )
    pair = (s_ins + s_look) / (b_ins + b_look)
    return {
        "n": n,
        "scalar_kops": round(2 * n / (s_ins + s_look) / 1e3, 1),
        "batch_kops": round(2 * n / (b_ins + b_look) / 1e3, 1),
        "insert_x": round(s_ins / b_ins, 2),
        "lookup_x": round(s_look / b_look, 2),
        "pair_x": round(pair, 2),
        "ios": s_io,
    }


def _measure_configs(n: int) -> list[dict]:
    """Batch keys/sec per (backend × shards) config; backend-invariant I/O.

    Best-of-k everywhere (k=2 even at n=1e6): single-shot wall-clock on
    the reference VM swings ±30% with scheduler load, which is noise,
    not signal — the I/O totals, which are the model's actual output,
    are asserted exactly."""
    keys = _keys(n)
    reps = 3 if n < 1_000_000 else 2
    rows = []
    ios_by_shards: dict[int, int] = {}
    for backend, shards in CONFIGS:
        ins, look, io = min(
            (_run_batch(keys, backend, shards) for _ in range(reps)),
            key=lambda r: r[0] + r[1],
        )
        # The backend must never change the I/O total of a config.
        expected = ios_by_shards.setdefault(shards, io)
        assert io == expected, (
            f"backend changed I/O totals at n={n}, shards={shards}: "
            f"{backend}={io} expected={expected}"
        )
        rows.append(
            {
                "n": n,
                "backend": backend,
                "shards": shards,
                "batch_kops": round(2 * n / (ins + look) / 1e3, 1),
                "ios": io,
            }
        )
    return rows


def _assert_strict_policy_invariance(n: int) -> None:
    """Backend I/O identity must hold under the strict policy too."""
    keys = _keys(n)
    for shards in (1, 8):
        totals = {
            backend: _run_batch(keys, backend, shards, policy=STRICT_POLICY)[2]
            for backend in ("mapping", "arena")
        }
        assert totals["mapping"] == totals["arena"], (
            f"strict-policy I/O diverged at n={n}, shards={shards}: {totals}"
        )


def _service_stream(n: int):
    """The mixed request stream every service leg replays (one build)."""
    wl = BulkMixedWorkload(
        _uniform_gen(), mix=SERVICE_MIX, seed=63, chunk=SERVICE_WINDOW
    )
    return wl.take_arrays(n)


def _uniform_gen():
    from repro.workloads.generators import UniformKeys

    return UniformKeys(U, seed=62)


def _run_service(kinds, keys, executor: str) -> dict:
    """One closed-loop run on the sharded(8) arena config."""
    ctx = make_context(b=B, m=M, u=U, backend="arena")
    with DictionaryService(
        ctx,
        _table_factory,
        shards=SERVICE_SHARDS,
        executor=executor,
        epoch_ops=SERVICE_WINDOW,
    ) as svc:
        report = ClosedLoopClient(svc, window=SERVICE_WINDOW).drive(
            kinds, keys, check=True
        )
        io = svc.io_snapshot()
        return {
            "report": report,
            "io": (io.reads, io.writes, io.combined, io.allocations),
            "shard_ledgers": [
                (s.reads, s.writes, s.combined, s.allocations)
                for s in svc.shard_io_snapshots()
            ],
            "peak": svc.memory_high_water(),
            "sizes": svc.shard_sizes(),
        }


def _run_durable_service(kinds, keys) -> dict:
    """The durability leg: durable-arena shards + fsync'd epoch journal."""
    import os
    import shutil
    import tempfile

    workdir = tempfile.mkdtemp(prefix="repro-bench-journal-")
    try:
        ctx = make_context(b=B, m=M, u=U, backend="durable-arena")
        journal = EpochJournal(os.path.join(workdir, "epochs.journal"))
        with DictionaryService(
            ctx,
            _table_factory,
            shards=SERVICE_SHARDS,
            executor="serial",
            epoch_ops=SERVICE_WINDOW,
            journal=journal,
        ) as svc:
            report = ClosedLoopClient(svc, window=SERVICE_WINDOW).drive(
                kinds, keys, check=True
            )
            io = svc.io_snapshot()
            out = {
                "report": report,
                "io": (io.reads, io.writes, io.combined, io.allocations),
                "journal_bytes": journal.bytes_written,
                "journal_epochs": journal.committed_epochs,
            }
        journal.close()
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_mixed_reference(kinds, keys) -> tuple[float, int]:
    """The same mix through the bare unsharded mapping table's batch API."""
    ctx, table = _fresh_table("mapping", 1)
    n = len(kinds)
    t0 = time.perf_counter()
    for lo in range(0, n, SERVICE_WINDOW):
        k = kinds[lo : lo + SERVICE_WINDOW]
        q = keys[lo : lo + SERVICE_WINDOW]
        table.insert_batch(q[k == OP_INSERT])
        table.delete_batch(q[k == OP_DELETE])
        table.lookup_batch(q[k == OP_LOOKUP])
    return time.perf_counter() - t0, ctx.stats.total


def test_service_mixed_throughput(benchmark):
    def sweep():
        rows = []
        gate = {}
        for n in SERVICE_SIZES:
            kinds, keys = _service_stream(n)
            reps = 3 if n < 1_000_000 else 2
            legs = {
                executor: min(
                    (_run_service(kinds, keys, executor) for _ in range(reps)),
                    key=lambda r: r["report"].seconds,
                )
                for executor in ("serial", "threads")
            }
            serial, threads = legs["serial"], legs["threads"]
            # Executor determinism: charge-for-charge, shard-for-shard.
            assert serial["io"] == threads["io"], (
                f"threads changed cluster I/O at n={n}: "
                f"{threads['io']} != {serial['io']}"
            )
            assert serial["shard_ledgers"] == threads["shard_ledgers"]
            assert serial["peak"] == threads["peak"]
            assert serial["sizes"] == threads["sizes"]
            # The durable leg is gated as a *ratio*, and single-machine
            # throughput drifts run to run — so each durable rep is
            # paired with an adjacent serial arena rep and the ratio is
            # taken within the pair (best pair wins); comparing two
            # best-ofs measured minutes apart reads drift as overhead.
            pair_ratios = []
            durable = None
            for _ in range(reps):
                base = _run_service(kinds, keys, "serial")
                cand = _run_durable_service(kinds, keys)
                pair_ratios.append(
                    cand["report"].kops / base["report"].kops
                )
                if durable is None or (
                    cand["report"].seconds < durable["report"].seconds
                ):
                    durable = cand
            # Durability is representation + logging: the charged I/O
            # ledgers must not notice the memmap arenas or the journal.
            assert durable["io"] == serial["io"], (
                f"durable-arena+journal changed cluster I/O at n={n}: "
                f"{durable['io']} != {serial['io']}"
            )
            ref_seconds, ref_io = _run_mixed_reference(kinds, keys)
            for executor, leg in legs.items():
                rep = leg["report"]
                rows.append(
                    {
                        "n": n,
                        "config": f"service/{executor}/arena x{SERVICE_SHARDS}",
                        "kops": rep.row()["kops"],
                        "p50_ms": rep.row()["p50_ms"],
                        "p99_ms": rep.row()["p99_ms"],
                        "epochs": rep.epochs,
                        "ios": sum(leg["io"][:2]),
                    }
                )
            rep = durable["report"]
            rows.append(
                {
                    "n": n,
                    "config": (
                        f"service/serial+journal/durable-arena x{SERVICE_SHARDS}"
                    ),
                    "kops": rep.row()["kops"],
                    "p50_ms": rep.row()["p50_ms"],
                    "p99_ms": rep.row()["p99_ms"],
                    "epochs": rep.epochs,
                    "ios": sum(durable["io"][:2]),
                }
            )
            rows.append(
                {
                    "n": n,
                    "config": "batch-loop/mapping x1 (reference)",
                    "kops": round(n / ref_seconds / 1e3, 1),
                    "p50_ms": "",
                    "p99_ms": "",
                    "epochs": "",
                    "ios": ref_io,
                }
            )
            if n == 1_000_000:
                gate["threads_kops"] = legs["threads"]["report"].kops
                gate["reference_kops"] = n / ref_seconds / 1e3
                gate["cluster_ios"] = sum(serial["io"][:2])
                gate["reference_ios"] = ref_io
                gate["durable_kops"] = durable["report"].kops
                gate["serial_kops"] = serial["report"].kops
                gate["durable_ratio"] = max(pair_ratios)
                gate["journal_bytes"] = durable["journal_bytes"]
                gate["journal_epochs"] = durable["journal_epochs"]
        return rows, gate

    rows, gate = once(benchmark, sweep)
    emit(
        "Service: 70/25/5 lookup/insert/delete mix, closed-loop client "
        f"(window {SERVICE_WINDOW})",
        rows,
    )
    benchmark.extra_info["service_rows"] = rows
    benchmark.extra_info["service_threads_kops_1e6"] = round(
        gate["threads_kops"], 1
    )

    # The acceptance gate: the threaded sharded(8)-arena service must
    # sustain PR 4's recorded unsharded mapping batch rate on mixed
    # traffic at n=1e6.
    assert gate["threads_kops"] >= PR4_BATCH_KOPS_1E6, (
        f"service(threads, arena x{SERVICE_SHARDS}) must sustain "
        f">= {PR4_BATCH_KOPS_1E6} kops at n=1e6, got {gate['threads_kops']:.1f}"
    )
    # And it must stay within noise of this run's own unsharded mixed
    # reference (recorded ratio typically 0.95-1.1 on the reference VM;
    # a tight in-run gate would pair two noisy measurements — cf. the
    # sharded_x sanity gate below — so only a clear loss fails).
    ratio = gate["threads_kops"] / gate["reference_kops"]
    benchmark.extra_info["service_vs_reference_1e6"] = round(ratio, 2)
    assert ratio >= 0.9, (
        f"service clearly lost to the in-run unsharded reference: "
        f"{gate['threads_kops']:.1f} vs {gate['reference_kops']:.1f}"
    )
    # Sharding still pays in cluster I/O on mixed traffic.
    assert gate["cluster_ios"] <= gate["reference_ios"]

    # The durability acceptance: memmap arenas plus the fsync'd epoch
    # journal must cost at most 15% of the in-memory serial arena leg's
    # throughput at n=1e6 (best adjacent pair; see the pairing note in
    # the sweep).
    durable_ratio = gate["durable_ratio"]
    benchmark.extra_info["durable_vs_arena_1e6"] = round(durable_ratio, 2)
    benchmark.extra_info["journal_bytes_1e6"] = gate["journal_bytes"]
    benchmark.extra_info["journal_epochs_1e6"] = gate["journal_epochs"]
    assert durable_ratio >= REQUIRED_DURABLE_KOPS_RATIO, (
        f"durable-arena+journal overhead exceeds 15% at n=1e6: "
        f"{gate['durable_kops']:.1f} vs {gate['serial_kops']:.1f} kops "
        f"(best paired ratio {durable_ratio:.2f})"
    )


#: Key-distribution axis scale (report rows; the adversarial deep-dive
#: with the adaptive-routing gates lives in ``bench_skew.py``).
KEY_DIST_N = 200_000


def _key_dist_generator(dist: str):
    """A ``--key-dist`` generator exactly as the CLI builds it."""
    if dist == "zipf":
        return make_generator("zipf", U, 62, theta=1.2)
    if dist == "adversarial":
        router = MULTIPLY_SHIFT.sample(U, seed=_ROUTER_SEED)
        return make_generator(
            "adversarial", U, 62, hash_fn=router, buckets=SERVICE_SHARDS, hot=1
        )
    return make_generator(dist, U, 62)


def test_service_key_dist_throughput(benchmark):
    """The ``--key-dist`` axis: the service under every key distribution.

    One serial closed-loop run per distribution on the sharded(8) arena
    config — the same mixed stream recipe as the main service rows, with
    only the key generator swapped (exactly what ``repro serve
    --key-dist ...`` does).  The recorded shape documents the routing
    story the skew matrix digs into: hash-uniform *distinct* keys are
    balanced whatever the distribution looks like over key space, so
    every leg except the router-correlated adversarial one shows a
    worst/mean charged-I/O ratio near 1; the adversarial leg pins the
    whole stream on one shard (ratio ≈ SHARDS under static routing).
    """

    def sweep():
        rows = []
        for dist in KEY_DISTS:
            wl = BulkMixedWorkload(
                _key_dist_generator(dist),
                mix=SERVICE_MIX,
                seed=63,
                chunk=SERVICE_WINDOW,
            )
            kinds, keys = wl.take_arrays(KEY_DIST_N)
            leg = _run_service(kinds, keys, "serial")
            shard_io = [r + w for r, w, _, _ in leg["shard_ledgers"]]
            rep = leg["report"]
            rows.append(
                {
                    "key_dist": dist,
                    "n": KEY_DIST_N,
                    "kops": rep.row()["kops"],
                    "p99_ms": rep.row()["p99_ms"],
                    "ios": sum(leg["io"][:2]),
                    "worst/mean": round(
                        max(shard_io) * SERVICE_SHARDS / sum(shard_io), 2
                    ),
                }
            )
        return rows

    rows = once(benchmark, sweep)
    emit(
        f"Service key-dist axis (serial, arena x{SERVICE_SHARDS}, "
        f"static routing, n={KEY_DIST_N})",
        rows,
    )
    by_dist = {r["key_dist"]: r for r in rows}
    assert set(by_dist) == set(KEY_DISTS)
    # Hash-uniform distinct keys balance regardless of distribution
    # shape; only router-correlated skew concentrates.
    for dist in KEY_DISTS:
        if dist == "adversarial":
            assert by_dist[dist]["worst/mean"] >= 0.8 * SERVICE_SHARDS, rows
        else:
            assert by_dist[dist]["worst/mean"] < 1.5, rows
    benchmark.extra_info["key_dist_rows"] = rows


def test_batch_throughput(benchmark):
    def sweep():
        reference = [_measure_reference(n) for n in SIZES]
        configs = [row for n in SIZES for row in _measure_configs(n)]
        _assert_strict_policy_invariance(100_000)
        return reference, configs

    reference, configs = once(benchmark, sweep)
    emit("Throughput: scalar vs batch on BufferedHashTable (mapping, unsharded)",
         reference)
    emit("Throughput: batch path per backend x shards", configs)

    by_n = {row["n"]: row for row in reference}
    by_cfg = {(r["n"], r["backend"], r["shards"]): r for r in configs}
    sharded_x = round(
        by_cfg[(1_000_000, "arena", 8)]["batch_kops"]
        / by_cfg[(1_000_000, "mapping", 1)]["batch_kops"],
        2,
    )
    benchmark.extra_info["rows"] = reference
    benchmark.extra_info["config_rows"] = configs
    benchmark.extra_info["pair_speedup_1e5"] = by_n[100_000]["pair_x"]
    benchmark.extra_info["sharded_arena_speedup_1e6"] = sharded_x

    assert by_n[100_000]["pair_x"] >= REQUIRED_SPEEDUP_AT_1E5, (
        f"batch path must be >= {REQUIRED_SPEEDUP_AT_1E5}x at n=1e5, "
        f"got {by_n[100_000]['pair_x']}x"
    )
    # At n=1e6 the shared merge record-movement floor compresses the
    # ratio; it must still be a clear win.
    assert by_n[1_000_000]["pair_x"] >= 2.0
    # Every size must at least break even on both legs.
    for row in reference:
        assert row["insert_x"] > 1.0 and row["lookup_x"] > 1.0, row

    # The sharded acceptance: N=8 over the arena reaches >= 1.5x PR 1's
    # recorded batch keys/sec at n=1e6.  The in-run ratio vs. this run's
    # own unsharded baseline is recorded (typically 1.4-2x) and sanity-
    # gated loosely — pairing two noisy single-machine measurements
    # makes a tight in-run ratio gate flaky.
    assert (
        by_cfg[(1_000_000, "arena", 8)]["batch_kops"]
        >= REQUIRED_SHARDED_SPEEDUP_AT_1E6 * PR1_BATCH_KOPS_1E6
    ), (
        f"sharded(8) arena must clear {REQUIRED_SHARDED_SPEEDUP_AT_1E6}x "
        f"PR 1's {PR1_BATCH_KOPS_1E6} kops at n=1e6, "
        f"got {by_cfg[(1_000_000, 'arena', 8)]['batch_kops']}"
    )
    assert sharded_x >= 1.1, (
        f"sharding must beat the in-run unsharded baseline, got {sharded_x}x"
    )
    # Sharding must not *increase* cluster I/O: each shard runs fewer
    # doubling rounds, so the N=8 total is at most the unsharded one.
    for n in SIZES:
        assert by_cfg[(n, "arena", 8)]["ios"] <= by_cfg[(n, "mapping", 1)]["ios"]


def _cache_table(name, ctx):
    if name == "buffered":
        return _table_factory(ctx)
    return LSMTree(ctx, bloom_bits_per_key=4.0)


def _cache_workload():
    keys = _keys(CACHE_N + CACHE_ROUNDS * CACHE_GROW)
    base = keys[:CACHE_N]
    grow = [
        keys[CACHE_N + r * CACHE_GROW : CACHE_N + (r + 1) * CACHE_GROW]
        for r in range(CACHE_ROUNDS)
    ]
    # One fixed probe sequence (present keys, uniform with repetition)
    # replayed every round: the warm rounds re-touch the same blocks.
    rng = np.random.default_rng(64)
    probes = [int(base[i]) for i in rng.integers(0, CACHE_N, size=CACHE_PROBES)]
    return base, grow, probes


def _run_cache_leg(name, m, cache_blocks, base, grow, probes) -> dict:
    """One config: build, cold-start the pool, then the timed rounds."""
    ctx = make_context(b=B, m=m, u=U, cache_blocks=cache_blocks)
    table = _cache_table(name, ctx)
    table.insert_batch(base)
    if ctx.disk.cache is not None:
        # Nothing is ever written back (mutators drop the id first), so
        # discarding build-time residency charges nothing: round 0 pays
        # true compulsory misses.
        ctx.disk.cache.clear()
    rounds = []
    found_sig = []
    for r in range(CACHE_ROUNDS):
        reads0 = ctx.stats.reads
        cs = ctx.cache_stats()
        mark = cs.snapshot() if cs is not None else None
        t0 = time.perf_counter()
        table.insert_batch(grow[r])
        found = 0
        lookup = table.lookup
        for k in probes:
            found += lookup(k)
        seconds = time.perf_counter() - t0
        delta = cs.delta_since(mark) if cs is not None else None
        rounds.append(
            {
                "round": r,
                "kops": round((CACHE_PROBES + CACHE_GROW) / seconds / 1e3, 1),
                "reads": ctx.stats.reads - reads0,
                "hits": delta.hits if delta else 0,
                "misses": delta.misses if delta else 0,
                "negative_hits": delta.negative_hits if delta else 0,
            }
        )
        found_sig.append(found)
    io = ctx.stats
    return {
        "rounds": rounds,
        "found": found_sig,
        "io": (io.reads, io.writes, io.combined, io.allocations),
        "cache": ctx.cache_stats(),
    }


def test_cache_throughput(benchmark):
    def sweep():
        base, grow, probes = _cache_workload()
        legs = {}
        for name, m in CACHE_TABLES:
            uncached = _run_cache_leg(name, m, 0, base, grow, probes)
            cached = _run_cache_leg(name, m, CACHE_BLOCKS, base, grow, probes)
            # Caching must be invisible to results...
            assert cached["found"] == uncached["found"], name
            # ...and to the ledgers, up to the relabelling contract:
            # every charged uncached read is exactly one hit or one
            # miss, cached reads are the misses, and the write side is
            # unchanged in total (a hit before a store merely turns a
            # combined RMW into a plain write).
            cs = cached["cache"]
            u_io, c_io = uncached["io"], cached["io"]
            assert cs.hits + cs.misses == u_io[0], name
            assert c_io[0] == cs.misses, name
            assert c_io[1] + c_io[2] == u_io[1] + u_io[2], name
            assert c_io[3] == u_io[3], name
            for ur, cr in zip(uncached["rounds"], cached["rounds"]):
                assert cr["hits"] + cr["misses"] == ur["reads"], (name, ur, cr)
            legs[name] = (uncached, cached)
        return legs

    legs = once(benchmark, sweep)
    rows = []
    curves = {}
    cache_columns = (
        "round",
        "phase",
        "uncached_kops",
        "cached_kops",
        "hit_rate",
        "uncached_reads",
        "cached_reads",
        "negative_hits",
    )
    for name, (uncached, cached) in legs.items():
        series = []
        for ur, cr in zip(uncached["rounds"], cached["rounds"]):
            accesses = cr["hits"] + cr["misses"]
            series.append(
                {
                    "table": name,
                    "round": ur["round"],
                    "phase": "cold" if ur["round"] == 0 else "warm",
                    "uncached_kops": ur["kops"],
                    "cached_kops": cr["kops"],
                    "hit_rate": round(cr["hits"] / accesses, 4) if accesses else 0.0,
                    "uncached_reads": ur["reads"],
                    "cached_reads": cr["reads"],
                    "negative_hits": cr["negative_hits"],
                }
            )
        rows.extend(series)
        curves[name] = series
        write_series(f"cache_{name}", series, columns=cache_columns)
    emit(
        f"Cache: cold-vs-warm rounds, {CACHE_PROBES // 1000}k scalar probes "
        f"+ {CACHE_GROW // 1000}k inserts/round, pool={CACHE_BLOCKS} blocks",
        rows,
    )
    benchmark.extra_info["cache_rows"] = rows
    # Stashed so `make plots` rebuilds plots/cache_*.dat from the record.
    benchmark.extra_info["series"] = {
        f"cache_{name}": series_payload(series, columns=cache_columns)
        for name, series in curves.items()
    }

    for name, series in curves.items():
        warm = max(r["cached_kops"] for r in series[-CACHE_WARM_ROUNDS:])
        best_uncached = max(r["uncached_kops"] for r in series)
        ratio = round(warm / best_uncached, 2)
        benchmark.extra_info[f"cache_warm_speedup_{name}"] = ratio
        benchmark.extra_info[f"cache_warm_hit_rate_{name}"] = series[-1][
            "hit_rate"
        ]
        # The acceptance gate: once warm, serving the hot path from the
        # pool must beat the uncached leg's best round outright.
        assert ratio >= REQUIRED_WARM_CACHED_SPEEDUP, (
            f"warm cached {name} must clear "
            f"{REQUIRED_WARM_CACHED_SPEEDUP}x the uncached best, got {ratio}x"
        )
        # The curve must actually warm: steady state at least matches
        # the cold round's hit rate and charges fewer reads.
        assert series[-1]["hit_rate"] >= series[0]["hit_rate"], series
        assert series[-1]["cached_reads"] <= series[0]["cached_reads"], series
    # Bloom rejections are the LSM's negative cache — free in both
    # configs, counted only where a pool is attached.
    assert sum(r["negative_hits"] for r in curves["lsm-bloom"]) > 0
    assert all(r["negative_hits"] == 0 for r in curves["buffered"])
