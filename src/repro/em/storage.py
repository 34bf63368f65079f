"""The external-memory context: model parameters + disk + memory budget.

Every structure in this library is constructed against an
:class:`EMContext`, which bundles the Aggarwal--Vitter parameters

* ``b`` — words per block (one item = one word, so also items/block),
* ``m`` — words of main memory,
* ``u`` — universe size; keys are drawn from ``U = {0, ..., u-1}``,

with a shared :class:`~repro.em.disk.Disk`, a shared
:class:`~repro.em.iostats.IOStats`, and a shared
:class:`~repro.em.memory.MemoryBudget`.

The paper's parameter regime (Section 1) is
``Ω(b^{1+2c}) < n/m < 2^{o(b)}`` with ``b > log u``;
:meth:`EMContext.validate_regime` checks a concrete instantiation
against it and is used by the lower-bound experiment drivers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .cache import CachedDisk
from .disk import Disk
from .errors import ConfigurationError
from .iostats import IOPolicy, IOStats, PAPER_POLICY
from .memory import MemoryBudget


@dataclass(frozen=True)
class ModelParams:
    """The triple ``(b, m, u)`` of the external-memory model.

    ``b`` and ``m`` are in words; ``u`` is the universe size, so a word
    has ``log2(u)`` bits.  The model requires ``b > log u`` ("each block
    is not too small").
    """

    b: int
    m: int
    u: int

    def __post_init__(self) -> None:
        if self.b <= 0:
            raise ConfigurationError(f"b must be positive, got {self.b}")
        if self.m <= 0:
            raise ConfigurationError(f"m must be positive, got {self.m}")
        if self.u <= 1:
            raise ConfigurationError(f"u must exceed 1, got {self.u}")

    @property
    def word_bits(self) -> float:
        """Bits per word, ``log2 u``."""
        return math.log2(self.u)

    @property
    def memory_blocks(self) -> int:
        """How many whole blocks fit in memory, ``m // b``."""
        return self.m // self.b

    def block_not_too_small(self) -> bool:
        """The paper's assumption ``b > log u``."""
        return self.b > self.word_bits

    def regime_ok(self, n: int, c: float, *, constant: float = 1.0) -> bool:
        """Check ``constant * b^{1+2c} < n/m < 2^{o(b)}``.

        ``2^{o(b)}`` is asymptotic; concretely we accept
        ``n/m < 2^{b / log2(b)}`` (a canonical ``o(b)`` exponent) capped
        to avoid overflow for big ``b``.
        """
        ratio = n / self.m
        lower = constant * self.b ** (1 + 2 * c)
        exponent = min(self.b / max(math.log2(self.b), 1.0), 60.0)
        upper = 2.0 ** exponent
        return lower < ratio < upper


@dataclass
class EMContext:
    """Shared machinery for one experiment: parameters, disk, memory, stats.

    ``backend`` selects the block store behind the disk by registry name
    (see :mod:`repro.em.backends`): ``"mapping"`` for the dict-of-Block
    store, ``"arena"`` for contiguous numpy record arenas.  The choice
    never changes I/O accounting — the backend-parity suite pins the
    counters bit-for-bit across backends.

    ``cache_blocks`` is the third I/O-policy axis (caching, see
    :mod:`repro.em.cache`): ``0`` builds a plain uncached
    :class:`~repro.em.disk.Disk`; a positive value builds a
    :class:`~repro.em.cache.CachedDisk` whose ``cache_blocks``-block
    pool is charged against this context's memory budget.  The budget is
    provisioned with ``m + cache_blocks * b`` words — the structures
    still see ``m`` (``ctx.m`` is unchanged), modelling a machine with
    ``m`` structure words plus a dedicated cache, so cached and uncached
    runs lay blocks out identically and differ only in I/O labelling.
    """

    params: ModelParams
    policy: IOPolicy = field(default_factory=lambda: PAPER_POLICY)
    record_words: int = 1
    backend: str = "mapping"
    cache_blocks: int = 0
    #: First block id the built disk hands out; sharded dictionaries use
    #: a strided ``first_id`` per shard so id namespaces stay disjoint.
    first_id: int = 0
    #: Stats, disk and memory are built from the parameters when left
    #: ``None``; passing them in shares or replaces the machinery (the
    #: sharded router injects a shared stats ledger and a per-shard
    #: strided ``first_id``).
    stats: IOStats | None = None
    disk: Disk | None = None
    memory: MemoryBudget | None = None
    hard_memory: bool = True

    def __post_init__(self) -> None:
        if self.cache_blocks < 0:
            raise ConfigurationError(
                f"cache_blocks must be non-negative, got {self.cache_blocks}"
            )
        if self.stats is None:
            self.stats = IOStats(policy=self.policy)
        if self.memory is None:
            capacity = self.params.m + self.cache_blocks * self.params.b
            self.memory = MemoryBudget(capacity, hard=self.hard_memory)
        if self.disk is None:
            if self.cache_blocks > 0:
                self.disk = CachedDisk(
                    self.params.b,
                    cache_blocks=self.cache_blocks,
                    budget=self.memory,
                    stats=self.stats,
                    record_words=self.record_words,
                    backend=self.backend,
                    first_id=self.first_id,
                )
            else:
                self.disk = Disk(
                    self.params.b,
                    stats=self.stats,
                    record_words=self.record_words,
                    backend=self.backend,
                    first_id=self.first_id,
                )
        elif self.cache_blocks > 0:
            raise ConfigurationError(
                "cache_blocks requires a context-built disk; "
                "pass first_id= instead of an explicit disk="
            )

    # -- convenience accessors ---------------------------------------------

    @property
    def b(self) -> int:
        return self.params.b

    @property
    def m(self) -> int:
        return self.params.m

    @property
    def u(self) -> int:
        return self.params.u

    def io_total(self) -> int:
        return self.stats.total

    def cache_stats(self):
        """The disk's :class:`~repro.em.cache.CacheStats`, or ``None`` uncached."""
        return self.disk.cache.stats if self.disk.cache is not None else None

    def reset_stats(self) -> None:
        self.stats.reset()

    def validate_regime(self, n: int, c: float) -> None:
        """Raise if ``(n, c)`` falls outside the paper's parameter regime."""
        if not self.params.block_not_too_small():
            raise ConfigurationError(
                f"model requires b > log u: b={self.b}, log2 u={self.params.word_bits:.1f}"
            )
        if not self.params.regime_ok(n, c):
            raise ConfigurationError(
                f"(n={n}, c={c}) outside regime b^(1+2c) < n/m < 2^o(b) "
                f"for b={self.b}, m={self.m}"
            )

    def load_factor(self, n: int) -> float:
        """Load factor α = ceil(n/b) / blocks-in-use (paper footnote 1)."""
        used = self.disk.nonempty_blocks()
        if used == 0:
            return 0.0
        return math.ceil(n / self.b) / used


def make_context(
    b: int = 128,
    m: int = 4096,
    u: int = 2**61 - 1,
    *,
    policy: IOPolicy | None = None,
    record_words: int = 1,
    backend: str = "mapping",
    cache_blocks: int = 0,
    hard_memory: bool = True,
) -> EMContext:
    """Build an :class:`EMContext` with sensible experiment defaults.

    Defaults model a 1 KiB block of 8-byte words (``b = 128``), a 32 KiB
    memory (``m = 4096`` words), 61-bit keys (a Mersenne-prime-sized
    universe that the Carter--Wegman family likes), the mapping storage
    backend, and no cache (``cache_blocks=0`` keeps the disk uncached
    and the accounting bit-identical to the pre-cache ledgers).
    """
    return EMContext(
        params=ModelParams(b=b, m=m, u=u),
        policy=policy if policy is not None else PAPER_POLICY,
        record_words=record_words,
        backend=backend,
        cache_blocks=cache_blocks,
        hard_memory=hard_memory,
    )
