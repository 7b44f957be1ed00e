"""Deterministic fault injection for campaign execution (chaos harness).

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries, each naming an
instrumented *site* in the execution stack and a fault *kind* to inject
there.  Code under test calls :func:`probe` at its sites; with no plan
active (the default) a probe is a cheap no-op, so production runs carry
zero injected faults and near-zero overhead.

Sites (the instrumented seams)
------------------------------

``cell.simulate``
    Probed immediately before a campaign cell simulates (inline or in a
    child process).  Kinds: ``raise`` (throw :class:`InjectedFault` — a
    transient, retryable failure), ``hang`` (sleep ``seconds`` — a stuck
    simulation for ``--cell-timeout`` to kill).

``cache.write``
    Probed by the disk cache on every result write.  Kinds: ``truncate``
    (the entry is written with its tail cut off, so the checksum verify on
    the next read quarantines it — a partial-transfer/crash-mid-write
    simulation) and ``kill`` (``os._exit(137)`` before the write: the
    process dies with its group's staged entries not yet committed).

``worker.kill``
    Probed by the lease-driven worker loop before each claimed cell.
    Kind: ``kill`` (``os._exit(137)`` — an impolite SIGKILL-style death
    that releases nothing; recovery is lease TTL expiry).

Determinism
-----------

Nothing here consults the wall clock or Python's salted ``hash()``:

* *which* probes a spec matches is decided by ``match`` (substring of the
  probe key, normally a cell content key) and/or ``pct`` — a deterministic
  CRC-32 gate over ``(seed, site, key)`` (:func:`stable_fraction`), so the
  same plan selects the same cells on every host and every run;
* *when* a spec stops firing is decided by ``attempts`` (fire only while
  the cell's attempt counter is below it — this is what makes injected
  faults transient, so retries converge) and ``times``, a total fire budget
  accounted in a durable on-disk ledger shared by every process of a
  campaign (a killed-and-restarted worker does not re-fire its kill fault).

Activation: programmatically via :func:`activate`, or through the
``REPRO_FAULTS`` environment variable (inherited by worker subprocesses),
which takes either a JSON list of spec dicts or the compact form
``site:kind[:key=value,...]`` joined with ``;`` — e.g.::

    REPRO_FAULTS='cell.simulate:raise:times=1;cache.write:truncate:times=1'
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional

#: Environment variable carrying the active fault plan.
FAULTS_ENV = "REPRO_FAULTS"
#: Environment variable overriding the durable fire-ledger directory
#: (default: ``<cache dir>/faults``).
LEDGER_ENV = "REPRO_FAULTS_LEDGER"

SITE_CELL_SIMULATE = "cell.simulate"
SITE_CACHE_WRITE = "cache.write"
SITE_WORKER_KILL = "worker.kill"

KNOWN_SITES = (SITE_CELL_SIMULATE, SITE_CACHE_WRITE, SITE_WORKER_KILL)
KNOWN_KINDS = ("raise", "hang", "truncate", "kill")


def default_ledger_dir() -> Path:
    """The fire-ledger directory the environment resolves to right now.

    Shared with the campaign store's open-path hygiene sweep, which removes
    aged ledger markers (finished chaos runs) from the same location the
    active plan would write to.
    """
    root = os.environ.get(LEDGER_ENV)
    if root:
        return Path(root)
    cache = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
    return Path(cache) / "faults"


class FaultPlanError(ValueError):
    """A fault-plan spec string/dict could not be parsed or validated."""


class InjectedFault(RuntimeError):
    """The exception thrown by ``raise``-kind faults (transient by design)."""


def stable_fraction(*parts: object) -> float:
    """A deterministic value in ``[0, 1)`` derived from ``parts`` via CRC-32.

    The project-wide substitute for ``random.random()`` wherever an outcome
    must be reproducible across processes and hosts (fault selection, retry
    jitter): CRC-32 of the joined parts, never the salted ``hash()``.
    """
    text = "|".join(str(part) for part in parts)
    return (zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF) / 2.0 ** 32


@dataclass
class FaultSpec:
    """One injected fault: where (site/match/pct), what (kind), how often."""

    site: str
    kind: str
    #: Total fires allowed across *all* processes (durable ledger);
    #: ``None`` = unlimited.
    times: Optional[int] = 1
    #: Fire only while the probe's attempt counter is below this — attempt
    #: 0 is a cell's first execution, so the default injects on first
    #: attempts only and lets every retry succeed.
    attempts: int = 1
    #: Substring filter on the probe key ("" matches everything).
    match: str = ""
    #: Deterministic percentage gate over (seed, site, key); 100 = always.
    pct: float = 100.0
    seed: int = 0
    #: ``hang`` kind: how long to sleep.
    seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in KNOWN_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r} (known: {KNOWN_KINDS})"
            )
        if not self.site:
            raise FaultPlanError("fault spec needs a site")
        if self.times is not None and self.times < 1:
            raise FaultPlanError(f"times must be >= 1 or None (got {self.times})")
        if self.attempts < 1:
            raise FaultPlanError(f"attempts must be >= 1 (got {self.attempts})")

    # ------------------------------------------------------------------
    def matches(self, site: str, key: str, attempt: int) -> bool:
        """Deterministic site/key/attempt selection (no budget accounting)."""
        if site != self.site:
            return False
        if attempt >= self.attempts:
            return False
        if self.match and self.match not in key:
            return False
        if self.pct < 100.0:
            return stable_fraction(self.seed, site, key) * 100.0 < self.pct
        return True

    def ledger_id(self) -> str:
        """Content-stable identity for the durable fire ledger."""
        payload = "|".join(
            f"{f.name}={getattr(self, f.name)}" for f in fields(self)
        )
        return f"{zlib.crc32(payload.encode('utf-8')) & 0xFFFFFFFF:08x}"

    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _coerce(name: str, value: str) -> object:
    if name in ("times",):
        return None if value.lower() in ("none", "inf") else int(value)
    if name in ("attempts", "seed"):
        return int(value)
    if name in ("pct", "seconds"):
        return float(value)
    return value


def parse_spec(entry: object) -> FaultSpec:
    """One spec from a dict (JSON form) or ``site:kind[:k=v,...]`` string."""
    if isinstance(entry, dict):
        try:
            return FaultSpec(**entry)
        except TypeError as error:
            raise FaultPlanError(f"bad fault spec {entry!r}: {error}") from None
    text = str(entry).strip()
    parts = text.split(":", 2)
    if len(parts) < 2:
        raise FaultPlanError(
            f"bad fault spec {text!r} (want site:kind[:key=value,...])"
        )
    kwargs: Dict[str, object] = {"site": parts[0].strip(), "kind": parts[1].strip()}
    if len(parts) == 3 and parts[2].strip():
        for item in parts[2].split(","):
            name, sep, value = item.partition("=")
            if not sep:
                raise FaultPlanError(f"bad fault option {item!r} in {text!r}")
            name = name.strip()
            try:
                kwargs[name] = _coerce(name, value.strip())
            except ValueError as error:
                raise FaultPlanError(
                    f"bad fault option {item!r} in {text!r}: {error}"
                ) from None
    try:
        return FaultSpec(**kwargs)
    except TypeError as error:
        raise FaultPlanError(f"bad fault spec {text!r}: {error}") from None


class FaultPlan:
    """An ordered set of fault specs plus the durable fire-budget ledger."""

    def __init__(self, specs: List[FaultSpec],
                 ledger_dir: Optional[os.PathLike] = None) -> None:
        self.specs = list(specs)
        self._ledger_dir = Path(ledger_dir) if ledger_dir is not None else None
        #: In-process fallback budget accounting, used only when the durable
        #: ledger directory cannot be created (read-only filesystem).
        self._memory_fires: Dict[str, int] = {}

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str,
              ledger_dir: Optional[os.PathLike] = None) -> "FaultPlan":
        text = text.strip()
        if not text:
            return cls([], ledger_dir=ledger_dir)
        if text.startswith("["):
            try:
                entries = json.loads(text)
            except ValueError as error:
                raise FaultPlanError(f"bad {FAULTS_ENV} JSON: {error}") from None
        else:
            entries = [part for part in text.split(";") if part.strip()]
        return cls([parse_spec(entry) for entry in entries],
                   ledger_dir=ledger_dir)

    @classmethod
    def from_env(cls, environ: Optional[Dict[str, str]] = None) -> Optional["FaultPlan"]:
        environ = os.environ if environ is None else environ
        text = environ.get(FAULTS_ENV, "")
        if not text.strip():
            return None
        return cls.parse(text, ledger_dir=environ.get(LEDGER_ENV) or None)

    def to_json(self) -> str:
        """Canonical JSON form (what the CLI exports into ``REPRO_FAULTS``)."""
        return json.dumps([spec.to_dict() for spec in self.specs])

    # ------------------------------------------------------------------
    def ledger_dir(self) -> Path:
        if self._ledger_dir is not None:
            return self._ledger_dir
        return default_ledger_dir()

    def _acquire_fire(self, spec: FaultSpec) -> bool:
        """Take one fire slot from ``spec``'s budget; False when exhausted.

        Slots are claimed by atomically creating ``<ledger>/<id>.<n>``
        marker files, so the budget holds across every process and host
        sharing the ledger directory (workers, their child processes,
        restarted workers).
        """
        if spec.times is None:
            return True
        ledger = self.ledger_dir()
        try:
            ledger.mkdir(parents=True, exist_ok=True)
        except OSError:
            # No durable ledger available: degrade to per-process budgets.
            ident = spec.ledger_id()
            fired = self._memory_fires.get(ident, 0)
            if fired >= spec.times:
                return False
            self._memory_fires[ident] = fired + 1
            return True
        ident = spec.ledger_id()
        for slot in range(spec.times):
            path = ledger / f"{ident}.{slot}"
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            except OSError:
                return False
            os.close(fd)
            return True
        return False


    # ------------------------------------------------------------------
    def check(self, site: str, key: str = "",
              attempt: int = 0) -> Optional[FaultSpec]:
        """Evaluate every spec against one probe; act on the first match.

        ``raise``/``hang``/``kill`` kinds act right here; ``truncate`` (and
        any other data-mangling kind) is returned to the caller, which owns
        the bytes being written.
        """
        for spec in self.specs:
            if not spec.matches(site, key, attempt):
                continue
            if not self._acquire_fire(spec):
                continue
            if spec.kind == "raise":
                raise InjectedFault(
                    f"injected fault at {site} (key={key!r}, attempt={attempt})"
                )
            if spec.kind == "hang":
                time.sleep(spec.seconds)
                return spec
            if spec.kind == "kill":
                # An impolite death: no lease release, no cleanup — exactly
                # what a SIGKILL'd or OOM-killed worker looks like.
                os._exit(137)
            return spec
        return None


# ---------------------------------------------------------------------------
# module-level activation (what instrumented sites consult)
# ---------------------------------------------------------------------------
_PLAN: Optional[FaultPlan] = None
_ENV_LOADED = False


def activate(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` as the process-wide fault plan (None deactivates)."""
    global _PLAN, _ENV_LOADED
    _PLAN = plan
    _ENV_LOADED = True


def reset() -> None:
    """Drop the active plan and re-arm lazy env loading (tests)."""
    global _PLAN, _ENV_LOADED
    _PLAN = None
    _ENV_LOADED = False


def active_plan() -> Optional[FaultPlan]:
    """The process-wide plan: explicit activation, else ``REPRO_FAULTS``."""
    global _PLAN, _ENV_LOADED
    if not _ENV_LOADED:
        _PLAN = FaultPlan.from_env()
        _ENV_LOADED = True
    return _PLAN


def probe(site: str, key: str = "", attempt: int = 0) -> Optional[FaultSpec]:
    """Fault-injection hook: no-op unless a plan is active.

    Returns the fired spec for caller-handled kinds (``truncate``, and
    ``hang`` after its sleep); raises :class:`InjectedFault` for ``raise``;
    never returns for ``kill``.
    """
    plan = active_plan()
    if plan is None:
        return None
    return plan.check(site, key, attempt)
