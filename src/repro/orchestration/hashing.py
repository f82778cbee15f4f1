"""Stable hashing for cache keys and derived task seeds.

Cache keys must survive process restarts, so they cannot rely on
Python's randomized ``hash()``.  :func:`stable_hash` canonicalizes a
value (dataclasses, dicts, sequences, enums, primitives) into a
deterministic string and SHA-256 hashes it.

:func:`code_version` fingerprints the source of the installed
``repro`` package; the on-disk cache folds it into every key so that
editing any source file invalidates previously cached results rather
than serving values computed by older code.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from pathlib import Path
from typing import Optional, Tuple

TaskKey = Tuple[object, ...]

#: Dataclass field metadata flag: a field marked
#: ``field(metadata={OMIT_IF_NONE: True})`` is left out of the
#: canonical form while its value is ``None``.  This lets a dataclass
#: grow an *optional* dimension (e.g. ``ExperimentScale.device``)
#: without renaming every cache entry keyed under the old shape: the
#: default-``None`` rendering is byte-identical to the pre-field one,
#: and only runs that actually set the field get fresh keys.
OMIT_IF_NONE = "canonicalize_omit_if_none"


def canonicalize(value: object) -> str:
    """A deterministic, repr-like rendering of ``value``.

    Supports the types experiment parameters are made of: dataclasses
    (rendered as sorted field maps), mappings, sequences, sets, enums,
    and primitives.  Floats use ``repr``, which round-trips exactly.
    Fields flagged with :data:`OMIT_IF_NONE` are skipped while unset.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: getattr(value, f.name)
            for f in dataclasses.fields(value)
            if not (
                f.metadata.get(OMIT_IF_NONE)
                and getattr(value, f.name) is None
            )
        }
        body = ",".join(
            f"{name}={canonicalize(fields[name])}" for name in sorted(fields)
        )
        return f"{type(value).__qualname__}({body})"
    if isinstance(value, enum.Enum):
        return f"{type(value).__qualname__}.{value.name}"
    if isinstance(value, dict):
        body = ",".join(
            f"{canonicalize(k)}:{canonicalize(v)}"
            for k, v in sorted(value.items(), key=lambda kv: canonicalize(kv[0]))
        )
        return "{" + body + "}"
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(canonicalize(v) for v in value) + ")"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(canonicalize(v) for v in value)) + "}"
    if isinstance(value, (str, bytes, int, float, bool, complex)) or value is None:
        return f"{type(value).__name__}:{value!r}"
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} for a cache key; "
        "task keys and fingerprints must be built from dataclasses, "
        "mappings, sequences, enums, and primitives"
    )


def stable_hash(value: object) -> str:
    """Hex SHA-256 of the canonical form of ``value``."""
    return hashlib.sha256(canonicalize(value).encode("utf-8")).hexdigest()


def derive_task_seed(base_seed: int, key: TaskKey) -> int:
    """A deterministic per-task seed from ``(base_seed, task key)``.

    Distinct keys (or base seeds) yield independent 63-bit seeds; the
    same pair always yields the same seed, regardless of submission
    order or worker placement.
    """
    digest = hashlib.sha256(
        canonicalize((int(base_seed), tuple(key))).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1


_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Fingerprint of the ``repro`` package source (cached per process)."""
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode("utf-8"))
            digest.update(b"\x00")
            digest.update(path.read_bytes())
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION
