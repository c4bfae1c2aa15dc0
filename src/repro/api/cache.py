"""Deduplicating result cache shared by the runner backends.

Every cell of a sweep grid is keyed by
``(trace fingerprint, carrier key, policy key)`` — see
:attr:`~repro.api.spec.RunSpec.cache_key` — or, for cell-scale sweeps,
``(population fingerprint, carrier, device policy, dormancy policy)`` — see
:attr:`~repro.api.cells.CellRunSpec.cache_key`.  Because the status-quo baseline
appears in every scheme comparison, a sweep that would naively simulate it
once per driver (or once per scheme column) instead simulates it exactly
once per (trace, carrier) pair and serves every further request from here.
The hit/miss counters make that claim testable: a correct sweep shows zero
duplicate status-quo simulations.

Two tiers:

* **Memory** — a plain LRU-bounded mapping.  Simulation results are
  immutable, so sharing them between callers is safe, and the
  process-pool runner deduplicates *before* submitting work so this tier
  never needs to be shared across processes.
* **Disk** (optional, :class:`DiskCacheTier`) — content-addressed files
  keyed by the spec fingerprint, so repeated sweeps across *sessions*
  (or across cooperating processes) load results instead of
  re-simulating.  Each file is a small JSON header ahead of raw
  columns (:mod:`repro.api.resultfile`): a warm hit reads the header and
  maps the columns, and nothing is unpickled.  Writes are atomic (temp
  file + ``os.replace``) and version-stamped; any unreadable, truncated
  or mismatched file is a clean miss that re-simulates and overwrites.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Hashable, Iterator, Union

from ..sim.results import SimulationResult
from .resultfile import (
    FORMAT,
    keyed_path,
    load_file,
    read_result,
    store_file,
    write_result,
)

if TYPE_CHECKING:  # avoid a basestation import at runtime for type hints only
    from ..basestation.cell import CellResult
    from ..metro.execution import MetroResult

    CachedResult = Union[SimulationResult, "CellResult", "MetroResult"]
else:
    CachedResult = SimulationResult

__all__ = ["CacheStats", "DiskCacheTier", "ResultCache", "default_cache_dir"]

#: Environment variable that both names the default cache directory and
#: opts the CLI into the persistent tier without a ``--cache-dir`` flag.
CACHE_DIR_ENV = "REPRO_RRC_CACHE_DIR"


def default_cache_dir() -> Path:
    """The persistent tier's default directory.

    ``$REPRO_RRC_CACHE_DIR`` when set, else ``$XDG_CACHE_HOME/repro-rrc``,
    else ``~/.cache/repro-rrc``.
    """
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-rrc"


class CacheStats:
    """A point-in-time snapshot of a cache's counters.

    ``disk_hits`` counts lookups the memory tier missed but the
    persistent tier served (they are *also* counted in ``hits`` — a disk
    hit is still a lookup served without simulating).
    """

    __slots__ = ("hits", "misses", "size", "disk_hits")

    def __init__(self, hits: int, misses: int, size: int,
                 disk_hits: int = 0) -> None:
        self.hits = hits
        self.misses = misses
        self.size = size
        self.disk_hits = disk_hits

    @property
    def lookups(self) -> int:
        """Total lookups served (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 with no lookups)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def __repr__(self) -> str:
        disk = f", disk_hits={self.disk_hits}" if self.disk_hits else ""
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"size={self.size}{disk})"
        )


class DiskCacheTier:
    """Content-addressed persistent result files under one directory.

    Filenames are the SHA-256 of the cache key's canonical ``repr`` —
    the same nested-primitive-tuple fingerprints the memory tier hashes —
    so cooperating processes (and later sessions) address the same file
    for the same spec without coordination.  Each file is a format-3
    result file (:mod:`repro.api.resultfile`): a JSON header carrying the
    format version, the full key repr and every number a records query
    reads, then the result's columns.  :meth:`load` treats *any*
    irregularity — wrong magic, format or key, a length the header does
    not imply — as a clean miss and deletes the offender so the slot
    heals on the next store.

    Writes go to a temp file in the same directory followed by
    ``os.replace``, so concurrent writers are safe: readers only ever see
    a complete file (the atomicity the disk-cache tests exercise), and a
    result loaded before its file is replaced or removed keeps reading
    the old file's mapping.
    """

    #: The file layout's version: files of any other format (format 2
    #: pickled the result) read as clean misses.
    FORMAT_VERSION = FORMAT

    def __init__(self, directory: str | Path | None = None) -> None:
        self._dir = Path(directory) if directory is not None else default_cache_dir()
        self._loads = 0
        self._stores = 0

    @property
    def directory(self) -> Path:
        """The directory holding the result files."""
        return self._dir

    @property
    def loads(self) -> int:
        """Results served from disk so far."""
        return self._loads

    @property
    def stores(self) -> int:
        """Results written to disk so far."""
        return self._stores

    def _path(self, key_repr: str) -> Path:
        return keyed_path(self._dir, key_repr, ".pkl")

    def path_for(self, key: Hashable) -> Path:
        """The content-addressed file path of ``key``."""
        return self._path(repr(key))

    def load(self, key: Hashable) -> CachedResult | None:
        """Return the stored result for ``key``, or ``None`` on any miss.

        Corruption of any kind never propagates: a file that fails
        validation is removed (best effort) and the caller re-simulates.
        A file that cannot be opened or mapped (permissions, descriptors
        exhausted) is a miss that leaves the file alone.
        """
        key_repr = repr(key)
        result = load_file(self._path(key_repr),
                           lambda path: read_result(path, key_repr))
        if result is not None:
            self._loads += 1
        return result

    def store(self, key: Hashable, result: CachedResult) -> None:
        """Persist ``result`` under ``key`` atomically (best effort).

        A filesystem that refuses the write (read-only, full, ...) fails
        quietly: the disk tier is an accelerator, never a correctness
        dependency.  Only ``SimulationResult``, ``CellResult`` and
        ``MetroResult`` values are stored; anything else raises
        ``TypeError``.
        """
        key_repr = repr(key)
        if store_file(self._path(key_repr),
                      lambda handle: write_result(handle, key_repr, result)):
            self._stores += 1


class ResultCache:
    """Two-tier map from run cache keys to simulation results, with counters.

    A *miss* is recorded when a result is first computed and stored; a *hit*
    whenever a later lookup is served without simulating — from memory or,
    failing that, from the optional persistent tier.  The cache is read
    and written through ``lookup`` / ``put`` only: both runners look each
    unique cell of a plan up once, batch the misses, and ``put`` each
    result as it arrives.

    ``max_entries`` bounds the in-memory tier with LRU eviction (least
    recently *used*, so a long sweep's hot baselines survive), keeping
    long-running sessions bounded; evicted entries remain reachable
    through the disk tier when one is attached, because every ``put``
    writes through.  ``None`` (the default) keeps everything in memory.
    """

    def __init__(self, max_entries: int | None = None,
                 disk: DiskCacheTier | str | Path | None = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._entries: dict[Hashable, CachedResult] = {}
        self._max_entries = max_entries
        if disk is not None and not isinstance(disk, DiskCacheTier):
            disk = DiskCacheTier(disk)
        self._disk = disk
        self._hits = 0
        self._misses = 0
        self._disk_hits = 0

    def _evict_overflow(self) -> None:
        if self._max_entries is None:
            return
        while len(self._entries) > self._max_entries:
            self._entries.pop(next(iter(self._entries)))

    def _touch(self, key: Hashable) -> None:
        """Move ``key`` to the most-recently-used end of the LRU order."""
        self._entries[key] = self._entries.pop(key)

    def _disk_load(self, key: Hashable) -> CachedResult | None:
        if self._disk is None:
            return None
        result = self._disk.load(key)
        if result is not None:
            # Promote to memory so repeated lookups stay O(1); the
            # promotion counts toward the LRU bound like any entry.
            self._entries[key] = result
            self._evict_overflow()
        return result

    # -- counters --------------------------------------------------------------------

    @property
    def hits(self) -> int:
        """Lookups served from the cache so far (either tier)."""
        return self._hits

    @property
    def misses(self) -> int:
        """Results that had to be simulated and stored so far."""
        return self._misses

    @property
    def disk_hits(self) -> int:
        """Lookups the memory tier missed but the disk tier served."""
        return self._disk_hits

    @property
    def disk(self) -> DiskCacheTier | None:
        """The attached persistent tier, if any."""
        return self._disk

    @property
    def stats(self) -> CacheStats:
        """Snapshot of the current counters and size."""
        return CacheStats(self._hits, self._misses, len(self._entries),
                          self._disk_hits)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._entries)

    # -- access ----------------------------------------------------------------------

    def lookup(self, key: Hashable) -> CachedResult | None:
        """Return the cached result and count a hit, or ``None`` without counting."""
        result = self._entries.get(key)
        if result is not None:
            self._hits += 1
            self._touch(key)
            return result
        result = self._disk_load(key)
        if result is not None:
            self._hits += 1
            self._disk_hits += 1
        return result

    def put(self, key: Hashable, result: CachedResult) -> None:
        """Store a freshly computed result, counting one miss."""
        self._entries[key] = result
        self._misses += 1
        if self._disk is not None:
            self._disk.store(key, result)
        self._evict_overflow()

    def clear(self) -> None:
        """Drop all in-memory entries and reset the counters.

        The persistent tier is left untouched — its whole point is
        surviving the in-memory lifecycle; delete its directory to
        really forget.
        """
        self._entries.clear()
        self._hits = 0
        self._misses = 0
        self._disk_hits = 0
