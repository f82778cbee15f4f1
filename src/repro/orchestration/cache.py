"""On-disk result cache for orchestrated tasks.

Layout: one pickle file per result under the cache directory
(default ``.repro_cache/``, overridable via ``$REPRO_CACHE_DIR``),
**sharded** by entry-key prefix into 256 fan-out directories::

    <cache-dir>/ab/<ab...sha256...>.pkl

where the hash covers::

    (task.key, fingerprint, code_version)

Sharding keeps every directory small.  A cache shared by many sweeps
grows without bound, and a queue submitter rescans it on every
collection pass (as does ``runner queue status``); one flat directory
of that size brings out the worst in every filesystem's per-directory
scaling, NFS above all.  256-way fan-out keeps each shard at ~1/256th
of the entries while the full scan stays one pass: one top-level
``scandir`` plus one per shard directory, no per-entry ``stat``
calls.  Shard directories are exactly the two-character
subdirectories of the cache dir; everything else (``queue/``) is
ignored by scans.

``fingerprint`` is the experiment-level context -- by convention the
full :class:`~repro.experiments.common.ExperimentScale` plus the
:class:`~repro.sim.config.SystemConfig` -- so an entry written under
one scale is *never* served for another.  ``code_version``
fingerprints the ``repro`` source tree, so editing the code
invalidates every cached result instead of replaying stale values.

Each file stores a small header next to the payload and is verified
on load; a truncated, corrupted, or mismatched file is deleted and
treated as a miss (the task is simply recomputed).  Writes go through
a temporary file and :func:`os.replace`, so concurrent runs sharing a
cache directory never observe half-written entries.

Entries also carry a **provenance** stamp -- which worker
(``host:pid``) stored the result, when, and under which code version.
Provenance is outside the content hash and outside the payload: it
never influences results, it only makes them attributable (the CLI
folds the per-worker counts into ``meta.provenance`` and the HTML
report renders them per section).

Executions that went through the profiled path extend the stamp with
a **profile**: ``{setup_s, run_s, store_s, result_bytes, chunk_size}``
(see :data:`PROFILE_FIELDS`).  Like the rest of provenance it is
outside the content hash, so profiled and unprofiled stores of the
same task are interchangeable cache entries with byte-identical
payloads.  ``runner profile`` and ``runner queue status --profile``
aggregate these stamps into per-experiment timing distributions.

Cache files are ordinary pickles: they are a *local* artifact, not an
interchange format -- do not load cache directories from untrusted
sources.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import socket
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.orchestration.hashing import TaskKey, canonicalize, code_version

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the current working directory).
DEFAULT_CACHE_DIR = ".repro_cache"

#: Bumped when the on-disk entry format changes.
_FORMAT = 1

#: Entry-key prefix length naming a shard directory: 2 hex chars =
#: 256-way fan-out.  Changing this would orphan existing sharded
#: entries (they would only be found by a full scan, not by
#: ``path_for``), so treat it as part of the on-disk format.
SHARD_WIDTH = 2

_MISS = object()


def default_cache_dir() -> Path:
    return Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))


def shard_name(entry_key: str) -> str:
    """The shard directory holding ``entry_key`` (its first 2 chars)."""
    return entry_key[:SHARD_WIDTH]


def is_shard_dir(name: str) -> bool:
    """Whether a cache subdirectory name is a shard directory.

    The contract is purely structural -- exactly ``SHARD_WIDTH``
    characters, not hidden -- so sibling directories the cache shares
    its home with (``queue/``, dot-prefixed scratch) are never
    mistaken for shards.
    """
    return len(name) == SHARD_WIDTH and not name.startswith(".")


def _scandir(directory: Union[str, Path]) -> List[os.DirEntry]:
    try:
        with os.scandir(directory) as entries:
            return list(entries)
    except FileNotFoundError:
        return []


def scan_cache_entry_keys(directory: Union[str, Path]) -> set:
    """Entry keys of every cache file in ``directory``, in ONE pass.

    The single home of the cache layout contract (``<key>.pkl`` under
    a ``<key[:2]>/`` shard, dot-prefixed temp files excluded) --
    shared by the queue submitter's collection pass and ``runner
    queue status``.  One top-level ``scandir`` plus one per shard
    directory; no per-entry ``stat`` calls.
    """
    keys = set()
    for shard in _scandir(directory):
        if is_shard_dir(shard.name) and shard.is_dir(follow_symlinks=False):
            keys.update(
                entry.name[: -len(".pkl")]
                for entry in _scandir(shard.path)
                if entry.name.endswith(".pkl")
                and not entry.name.startswith(".")
            )
    return keys


def result_provenance(version: str) -> Dict[str, Any]:
    """The provenance stamp for a result computed by THIS process."""
    return {
        "worker": f"{socket.gethostname()}:{os.getpid()}",
        "stored_at": time.time(),
        "code_version": version,
    }


#: Profiling keys a profiled execution merges into the provenance
#: stamp.  ``setup_s``/``run_s`` are measured around the task function,
#: ``store_s``/``result_bytes`` around result serialization, and
#: ``chunk_size`` records the transport batch the task travelled in.
PROFILE_FIELDS = ("setup_s", "run_s", "store_s", "result_bytes", "chunk_size")


def profile_from_provenance(provenance: Any) -> Optional[Dict[str, Any]]:
    """The profile stamp embedded in a provenance dict, if any.

    ``None`` for entries stored by unprofiled code paths (including
    every pre-profiling cache entry) -- aggregation simply skips them.
    """
    if not isinstance(provenance, dict) or "run_s" not in provenance:
        return None
    return {
        name: provenance[name]
        for name in PROFILE_FIELDS
        if name in provenance
    }


@dataclass
class CacheStats:
    """Counters for one cache instance (cumulative across runs)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt_discarded: int = 0


class ResultCache:
    """Content-addressed pickle store for task results."""

    def __init__(
        self,
        directory: Union[str, Path, None] = None,
        *,
        version: Optional[str] = None,
    ) -> None:
        #: ``version`` defaults to the live source fingerprint; tests
        #: inject fixed strings to exercise invalidation.
        self.directory = Path(directory) if directory else default_cache_dir()
        self.version = version if version is not None else code_version()
        self.stats = CacheStats()
        #: ``entry_key -> worker label`` for every entry this instance
        #: stored or served.  Keyed by entry so a store immediately
        #: re-read (the participating queue submitter does this)
        #: counts once, and so the queue backend can blank entries it
        #: executed on behalf of a *foreign* submitter.
        self.provenance_seen: Dict[str, Optional[str]] = {}
        #: Append-only log of every provenance observation, one entry
        #: key per load or store.  Unlike ``provenance_seen`` this
        #: grows on *every* observation -- including a cache hit on an
        #: already-seen key -- so the CLI's per-experiment length
        #: snapshots still delimit a repeated experiment; the CLI
        #: dedups keys within a slice and resolves worker labels
        #: through ``provenance_seen`` when folding the slice into
        #: ``meta.provenance`` so reports can say *which workers*
        #: computed a figure.
        self.provenance_events: List[str] = []
        #: ``entry_key -> profile stamp`` for every profiled entry this
        #: instance stored or served; the sweep engine aggregates the
        #: slice it touched into ``meta.provenance``.
        self.profile_seen: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------------

    def entry_key(self, task_key: TaskKey, fingerprint: Any) -> str:
        """The content hash addressing one result on disk."""
        return self.entry_keys([task_key], fingerprint)[0]

    def entry_keys(
        self, task_keys: Sequence[TaskKey], fingerprint: Any
    ) -> List[str]:
        """:meth:`entry_key` of every task key of one group.

        The fingerprint and the code version are canonicalized once for
        the whole group, not once per task.  Each key hashes the string
        ``stable_hash((tuple(key), fingerprint, version))`` hashes, since
        a tuple canonicalizes to its items' forms joined by commas
        inside parentheses.  Nothing is memoized by value across calls:
        ``36 == 36.0`` and they hash alike, yet canonicalize differently.
        """
        suffix = f",{canonicalize(fingerprint)},{canonicalize(self.version)})"
        return [
            hashlib.sha256(
                f"({canonicalize(tuple(key))}{suffix}".encode("utf-8")
            ).hexdigest()
            for key in task_keys
        ]

    def path_for(self, entry_key: str) -> Path:
        """Where ``entry_key`` lives (and is written): its shard."""
        return self.directory / shard_name(entry_key) / f"{entry_key}.pkl"

    def exists(self, entry_key: str) -> bool:
        """Whether a stored entry exists (no read)."""
        return self.path_for(entry_key).exists()

    def scan_entry_keys(self) -> set:
        """Every entry key currently on disk, from ONE scan pass.

        The queue submitter polls outstanding entries each pass; doing
        so with per-entry ``stat`` calls is O(N) metadata round-trips
        per pass -- O(N^2) over a draining sweep, ruinous on NFS.  One
        pass over the shard fan-out answers the whole poll.
        """
        return scan_cache_entry_keys(self.directory)

    # ------------------------------------------------------------------

    def load(self, entry_key: str) -> Tuple[bool, Any]:
        """``(hit, value)`` for an entry; corrupt files become misses."""
        path = self.path_for(entry_key)
        try:
            with open(path, "rb") as handle:
                entry = pickle.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return False, None
        except Exception:
            entry = None  # unreadable: discarded below like a mismatch
        value = self._validate(entry, entry_key)
        if value is _MISS:
            self._discard(path)
            self.stats.misses += 1
            return False, None
        self.stats.hits += 1
        self._note_provenance(entry_key, entry.get("provenance"))
        return True, value

    def load_provenance(self, entry_key: str) -> Optional[Dict[str, Any]]:
        """The provenance stamp of one stored entry, if readable.

        Purely observational (``runner queue status``, tests): does not
        touch hit/miss statistics and never deletes anything.
        """
        try:
            with open(self.path_for(entry_key), "rb") as handle:
                entry = pickle.load(handle)
        except Exception:
            return None
        if isinstance(entry, dict) and isinstance(
            entry.get("provenance"), dict
        ):
            return entry["provenance"]
        return None

    def store(
        self,
        entry_key: str,
        task_key: TaskKey,
        value: Any,
        *,
        provenance: Optional[Dict[str, Any]] = None,
        profile: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Atomically persist one result.

        ``provenance`` defaults to a stamp for *this* process (worker
        label, wall-clock store time, code version); queue workers thus
        sign their results without any extra plumbing.

        ``profile`` (``setup_s``/``run_s`` from the executor, plus an
        optional ``chunk_size``) is merged flat into the provenance
        stamp, completed here with ``store_s`` and ``result_bytes``
        from a timed serialization of the payload.  The payload is
        pickled once extra for the measurement -- results are small
        (lists of floats), and the profile must live *inside* the
        entry being written, so measuring the publishing write itself
        is not possible.
        """
        if provenance is None:
            provenance = result_provenance(self.version)
        if profile is not None:
            measure_started = time.perf_counter()
            result_bytes = len(
                pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            )
            provenance = dict(provenance)
            provenance.update(profile)
            provenance.setdefault("chunk_size", 1)
            provenance["result_bytes"] = result_bytes
            provenance["store_s"] = time.perf_counter() - measure_started
        entry = {
            "format": _FORMAT,
            "entry_key": entry_key,
            "task_key": tuple(task_key),
            "version": self.version,
            "provenance": provenance,
            "payload": value,
        }
        destination = self.path_for(entry_key)
        destination.parent.mkdir(parents=True, exist_ok=True)
        # The temp file lives in the shard directory itself so the
        # publishing os.replace stays a same-directory rename (atomic
        # on every filesystem that matters, including NFS).
        fd, tmp_name = tempfile.mkstemp(
            dir=destination.parent, prefix=".tmp-", suffix=".pkl"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(entry, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, destination)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        self._note_provenance(entry_key, provenance)

    # ------------------------------------------------------------------

    def _note_provenance(self, entry_key: str, provenance: Any) -> None:
        worker = (
            provenance.get("worker") if isinstance(provenance, dict) else None
        )
        self.provenance_events.append(entry_key)
        if entry_key not in self.provenance_seen or worker is not None:
            self.provenance_seen[entry_key] = worker
        profile = profile_from_provenance(provenance)
        if profile is not None:
            self.profile_seen[entry_key] = profile

    def _validate(self, entry: Any, entry_key: str) -> Any:
        if (
            isinstance(entry, dict)
            and entry.get("format") == _FORMAT
            and entry.get("entry_key") == entry_key
            and entry.get("version") == self.version
            and "payload" in entry
        ):
            return entry["payload"]
        return _MISS

    def _discard(self, path: Path) -> None:
        self.stats.corrupt_discarded += 1
        try:
            path.unlink()
        except OSError:
            pass
