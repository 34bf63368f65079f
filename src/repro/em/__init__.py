"""External-memory substrate: the Aggarwal--Vitter model, simulated.

Public surface:

* :class:`~repro.em.storage.ModelParams`, :class:`~repro.em.storage.EMContext`,
  :func:`~repro.em.storage.make_context` — model parameters and shared context.
* :class:`~repro.em.disk.Disk`, :class:`~repro.em.block.Block` — storage.
* :class:`~repro.em.iostats.IOStats`, :class:`~repro.em.iostats.IOPolicy` —
  the I/O complexity measure; :class:`~repro.em.iostats.Ledger` is the
  counter bookkeeping every ledger type shares.
* :class:`~repro.em.memory.MemoryBudget` — the ``m``-word memory.
* :class:`~repro.em.cache.BufferPool`, :class:`~repro.em.cache.CachedDisk`
  — the caching policy axis (``cache_blocks=`` on :func:`make_context`):
  an LRU of resident block ids whose hits the disk answers, uncharged,
  from the block store.
* :class:`~repro.em.backends.StorageBackend` and friends — pluggable
  block stores behind the disk (``"mapping"`` / ``"arena"``).
"""

from .backends import (
    BACKENDS,
    ArenaBackend,
    DurableArenaBackend,
    MappingBackend,
    StorageBackend,
    make_backend,
)
from .block import Block
from .cache import BufferPool, CachedDisk, CacheStats
from .disk import Disk
from .errors import (
    BlockOverflowError,
    ConfigurationError,
    EMError,
    InvalidBlockError,
    MemoryBudgetExceededError,
    RetryExhausted,
    SimulatedCrash,
    StorageFault,
)
from .iostats import IOPolicy, IOSnapshot, IOStats, Ledger, PAPER_POLICY, STRICT_POLICY
from .memory import MemoryBudget
from .storage import EMContext, ModelParams, make_context

__all__ = [
    "ArenaBackend",
    "BACKENDS",
    "Block",
    "DurableArenaBackend",
    "MappingBackend",
    "StorageBackend",
    "make_backend",
    "BufferPool",
    "CachedDisk",
    "CacheStats",
    "Disk",
    "EMContext",
    "EMError",
    "BlockOverflowError",
    "ConfigurationError",
    "InvalidBlockError",
    "MemoryBudgetExceededError",
    "RetryExhausted",
    "SimulatedCrash",
    "StorageFault",
    "IOPolicy",
    "IOSnapshot",
    "IOStats",
    "Ledger",
    "PAPER_POLICY",
    "STRICT_POLICY",
    "MemoryBudget",
    "ModelParams",
    "make_context",
]
