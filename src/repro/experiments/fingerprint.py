"""Content fingerprints for simulation requests.

Experiment results used to be cached under ad-hoc string labels, which had
two failure modes: two *different* configurations passed under one label
silently returned the first result, and one configuration passed under two
labels (e.g. ``"bl"`` in Fig. 9 and ``"bl-fb8"`` in Fig. 14) re-simulated.
A fingerprint is a stable digest of the *content* of the objects that
determine a simulation's outcome — workload, :class:`SystemConfig`,
:class:`DlaConfig`, trace window — so structurally identical requests share
one cache slot no matter what they are called.

Fingerprints are also the on-disk cache key.  To guarantee a stale cache can
never resurface results computed by older simulator code, every key is
salted with a digest of the ``repro`` package sources (:func:`code_salt`):
any source change invalidates the whole disk cache automatically.

A campaign keys the same few configs and workloads thousands of times, so
for each instance of a class in :data:`MEMOISED_TYPES` the canonical form
and JSON text are computed once, on first use.  The memo is keyed by
``id()`` and every entry leaves it (through :func:`weakref.finalize`)
before its object is freed, so a later object that reuses the id can never
read a stale entry; the memo holds only live objects.  Equality is not a
usable key: ``3 == 3.0`` and ``True == 1``, but their canonical forms
differ.

Memoising by identity is sound only for objects whose compared content
never changes after the first key is taken.  The config classes are frozen
dataclasses.  :class:`~repro.workloads.suites.Workload` is not frozen (it
memoises its program and traces in ``compare=False`` fields, which the
canonical form skips), but the registry builds each one once and nothing
reassigns its compared fields or mutates its ``params`` afterwards.  Two
workloads that share a name but differ in ``params`` are two objects, so
they keep two entries and two keys.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import weakref
from pathlib import Path
from typing import Any, Dict, Tuple

from repro.core.config import CoreConfig, SystemConfig
from repro.dla.config import DlaConfig
from repro.memory.cache import CacheConfig
from repro.memory.dram import DramConfig
from repro.memory.hierarchy import MemoryHierarchyConfig
from repro.memory.resources import WriteBufferConfig
from repro.memory.tlb import TlbConfig
from repro.workloads.suites import Workload

#: The classes whose canonical form is memoised per instance (exact types,
#: not subclasses).  Each config is a frozen dataclass whose fields are
#: scalars or members of this set, so an instance's content never changes
#: once built; a ``Workload``'s compared fields are never reassigned after
#: the registry builds it (see the module docstring).  Other frozen
#: dataclasses stay out: ``TraceColumns`` holds mutable arrays.
MEMOISED_TYPES = frozenset({
    CoreConfig, SystemConfig, DlaConfig, CacheConfig, DramConfig,
    MemoryHierarchyConfig, WriteBufferConfig, TlbConfig, Workload,
})

#: ``id(obj)`` -> (canonical form, its JSON text), for live objects only.
_MEMO: Dict[int, Tuple[Any, str]] = {}


def _memo_entry(obj: Any) -> Tuple[Any, str]:
    key = id(obj)
    entry = _MEMO.get(key)
    if entry is None:
        form = _canonical_dataclass(obj)
        entry = (form, json.dumps(form, sort_keys=True))
        _MEMO[key] = entry
        # CPython runs weakref callbacks before it frees the object, so the
        # entry is gone before its id can be reused.
        weakref.finalize(obj, _MEMO.pop, key, None)
    return entry


def _canonical_dataclass(obj: Any) -> Dict[str, Any]:
    out = {"__type__": type(obj).__name__}
    for f in dataclasses.fields(obj):
        if not f.compare:
            continue
        out[f.name] = canonicalize(getattr(obj, f.name))
    return out


def canonicalize(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-serialisable canonical form.

    Dataclasses become ``{"__type__": name, field: value, ...}`` using only
    their comparison fields (derived/cached fields marked ``compare=False``
    are excluded); enums become their type and member name; sets are sorted.
    Unknown objects fall back to ``repr``, which is stable for everything
    this codebase configures simulations with.  The form of a memoised
    object is shared between calls: read it, never mutate it.
    """
    if type(obj) in MEMOISED_TYPES:
        return _memo_entry(obj)[0]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _canonical_dataclass(obj)
    if isinstance(obj, enum.Enum):
        return [type(obj).__name__, obj.name]
    if isinstance(obj, dict):
        return {
            "__dict__": sorted(
                (json.dumps(canonicalize(k), sort_keys=True), canonicalize(v))
                for k, v in obj.items()
            )
        }
    if isinstance(obj, (set, frozenset)):
        return {"__set__": sorted(json.dumps(canonicalize(v), sort_keys=True) for v in obj)}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return {"__repr__": repr(obj)}


def _text(obj: Any) -> str:
    if type(obj) in MEMOISED_TYPES:
        return _memo_entry(obj)[1]
    return json.dumps(canonicalize(obj), sort_keys=True)


def fingerprint(*objects: Any) -> str:
    """A hex digest identifying the content of ``objects``."""
    # Byte-for-byte what json.dumps(list_of_forms, sort_keys=True) writes.
    payload = "[" + ", ".join(_text(o) for o in objects) + "]"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


_CODE_SALT: str = ""


def code_salt() -> str:
    """Digest of every ``repro`` source file, computed once per process.

    Folding this into disk-cache keys means a cached result can only ever be
    returned to the exact simulator code that produced it.
    """
    global _CODE_SALT
    if not _CODE_SALT:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        sources = sorted(root.rglob("*.py")) + sorted(root.rglob("*.c"))
        for path in sources:
            digest.update(path.relative_to(root).as_posix().encode("utf-8"))
            digest.update(path.read_bytes())
        _CODE_SALT = digest.hexdigest()[:16]
    return _CODE_SALT
