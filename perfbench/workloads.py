"""The benchmark's four traffic mixes: specs, input generation, oracle.

Each workload is a fixed request stream made from ``--seed`` alone.  The
service under test only ever receives the generated ``(kinds, keys)``
arrays (plus, for ``skewed-reads``, the preload keys); the expected
lookup/delete results are computed here, outside every timed phase, by
an oracle that knows nothing about the tables.

Generation runs in a short-lived child process (see ``run.py``), so the
generators' Python-level dedup sets never count toward the measured
process's peak resident memory.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.hashing.family import MULTIPLY_SHIFT
from repro.tables.sharded import _ROUTER_SEED
from repro.workloads.generators import AdversarialBucketKeys, KeyGenerator, UniformKeys
from repro.workloads.trace import OP_INSERT, OP_LOOKUP, BulkMixedWorkload

#: The paper's Theorem-2 geometry every shard table is built with.
B, M, U = 1024, 4096, 2**61 - 1
SHARDS = 8


@dataclass(frozen=True)
class WorkloadSpec:
    """One traffic mix and the service configuration it runs against."""

    name: str
    why: str
    #: Ops per client window: one ``service.run`` call per window.
    window: int
    #: Ops per repetition at full size (a whole number of windows).
    ops: int
    backend: str
    journal: bool = False
    cache_blocks: int = 0
    rebalance: bool = False
    preload: int = 0
    #: (insert, hit-lookup, miss-lookup, delete) weights for the bulk
    #: generator; ``None`` for the Zipf read stream.
    mix: tuple[float, float, float, float] | None = None
    #: Fresh keys: ``"uniform"`` over the universe, or ``"router-bucket"``
    #: (only keys the service's static router sends to shard 0).
    keys: str = "uniform"
    zipf_theta: float = 0.0
    insert_share: float = 0.0


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="bulk-mixed",
            why=(
                "70/25/5 lookup/insert/delete in 65536-op windows: shard-table "
                "batch work dominates; no cache, journal or rebalancer runs"
            ),
            window=65536,
            ops=16 * 65536,
            backend="arena",
            mix=(0.25, 0.60, 0.10, 0.05),
        ),
        WorkloadSpec(
            name="small-window-durable",
            why=(
                "write-heavy 1024-op windows on durable-arena with an fsync'd "
                "journal: per-epoch fixed costs and the journal dominate"
            ),
            window=1024,
            ops=256 * 1024,
            backend="durable-arena",
            journal=True,
            mix=(0.50, 0.20, 0.05, 0.25),
        ),
        WorkloadSpec(
            name="skewed-reads",
            why=(
                "Zipf(1.1) lookups over 400k preloaded keys in 512-op windows: "
                "a 64-block pool per shard holds the hot set but not the table"
            ),
            window=512,
            ops=256 * 512,
            backend="arena",
            cache_blocks=64,
            preload=400_000,
            zipf_theta=1.1,
            insert_share=0.05,
        ),
        WorkloadSpec(
            name="router-hotspot",
            why=(
                "70/25/5 mix whose keys all route to shard 0 in 4096-op "
                "windows: the rebalancer must move 56 of its 64 slots"
            ),
            window=4096,
            ops=64 * 4096,
            backend="arena",
            rebalance=True,
            mix=(0.25, 0.60, 0.10, 0.05),
            keys="router-bucket",
        ),
    )
}

#: ``--size tiny`` divisor: the smoke test's stream sizes.
TINY_DIVISOR = 64


@dataclass
class Inputs:
    """A workload's generated stream plus its oracle answers."""

    kinds: np.ndarray
    keys: np.ndarray
    preload: np.ndarray
    #: Whether each op's key is live just before the op executes.
    live_before: np.ndarray
    digest: str


def _subseed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def sizes(spec: WorkloadSpec, size: str) -> tuple[int, int]:
    """``(ops, preload)`` for ``size`` in ``{"full", "tiny"}``."""
    if size == "full":
        return spec.ops, spec.preload
    ops = spec.ops // TINY_DIVISOR // spec.window * spec.window
    return max(spec.window, ops), spec.preload // TINY_DIVISOR


def generate(name: str, seed: int, size: str = "full") -> Inputs:
    """The workload's inputs for ``seed`` (same seed, same arrays)."""
    spec = WORKLOADS[name]
    n, n_pre = sizes(spec, size)
    keygen = _key_generator(spec.keys, _subseed(seed, 0))
    preload = np.asarray(keygen.take(n_pre), dtype=np.uint64)
    if spec.mix is not None:
        stream = BulkMixedWorkload(
            keygen, mix=spec.mix, seed=_subseed(seed, 1), chunk=spec.window
        )
        kinds, keys = stream.take_arrays(n)
    else:
        kinds, keys = _zipf_reads(spec, keygen, preload, n, _subseed(seed, 1))
    return Inputs(
        kinds=kinds,
        keys=keys,
        preload=preload,
        live_before=live_before(kinds, keys, preload),
        digest=stream_digest(kinds, keys, preload),
    )


def _key_generator(kind: str, seed: int) -> KeyGenerator:
    if kind == "uniform":
        return UniformKeys(U, seed=seed)
    # The service's own default router (same hash, same seed): the
    # static split sends every one of these keys to shard 0.
    router = MULTIPLY_SHIFT.sample(U, seed=_ROUTER_SEED)
    return AdversarialBucketKeys(U, seed=seed, hash_fn=router, buckets=SHARDS, hot=1)


def _zipf_reads(
    spec: WorkloadSpec,
    keygen: KeyGenerator,
    preload: np.ndarray,
    n: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Lookups Zipf-distributed over the preloaded keys; fresh-key inserts.

    Rank ``r`` (1-based) is drawn with probability proportional to
    ``r^-theta`` over exactly the preloaded keys, then mapped through a
    seeded permutation so the hot keys are scattered over the shards.
    """
    rng = np.random.default_rng(seed)
    is_insert = rng.random(n) < spec.insert_share
    weights = np.arange(1, len(preload) + 1, dtype=np.float64) ** -spec.zipf_theta
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ranks = np.minimum(
        np.searchsorted(cdf, rng.random(n), side="right"), len(preload) - 1
    )
    keys = preload[rng.permutation(len(preload))[ranks]]
    keys[is_insert] = np.asarray(
        keygen.take(int(is_insert.sum())), dtype=np.uint64
    )
    kinds = np.where(is_insert, OP_INSERT, OP_LOOKUP).astype(np.uint8)
    return kinds, keys


def live_before(
    kinds: np.ndarray, keys: np.ndarray, preload: np.ndarray
) -> np.ndarray:
    """Dictionary oracle: is op ``i``'s key present just before op ``i``?

    Program-order set semantics, vectorised: sort the ops by (key,
    position); an op's key is live iff the last insert/delete of the same
    key before it was an insert, or — with none — the key was preloaded.
    A lookup's expected answer and a delete's expected "removed" flag are
    both this value.
    """
    n = len(kinds)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((np.arange(n), keys))
    k = keys[order]
    kd = kinds[order]
    idx = np.arange(n)
    group_start = np.maximum.accumulate(
        np.where(np.r_[True, k[1:] != k[:-1]], idx, 0)
    )
    last_mut = np.maximum.accumulate(np.where(kd != OP_LOOKUP, idx, -1))
    prev_mut = np.r_[-1, last_mut[:-1]]
    has_prev = prev_mut >= group_start
    state = np.where(
        has_prev,
        kd[np.maximum(prev_mut, 0)] == OP_INSERT,
        np.isin(k, preload),
    )
    out = np.empty(n, dtype=bool)
    out[order] = state
    return out


def stream_digest(kinds: np.ndarray, keys: np.ndarray, preload: np.ndarray) -> str:
    """sha256 over the exact input bytes the service receives."""
    h = hashlib.sha256()
    for arr in (preload, kinds, keys):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()
