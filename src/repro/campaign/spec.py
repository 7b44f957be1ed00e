"""Declarative campaign specifications.

A :class:`CampaignSpec` describes one evaluation campaign as data:
experiment module x workloads x configuration variants x trace windows.
Specs are plain frozen dataclasses with a dict/JSON form, so they can be
registered in code (every experiment module ships one), printed by the CLI,
stored in campaign manifests, or written by hand for custom sweeps.

A :class:`ConfigVariant` names one simulation configuration of the campaign
matrix.  Variants are *declarative* — prefetcher preset, core overrides and
DLA optimization toggles — and are materialised against the runner's base
:class:`~repro.core.config.SystemConfig` when cells are planned
(:func:`~repro.experiments.parallel.plan_cells`).  They are the only source
of a figure's configurations: the scheduler simulates the planned cells,
and the figure module reads the same cells back by variant name when it
assembles, so campaign cells, figure reruns and the benchmark suite all
share one result cache.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.config import CoreConfig, SystemConfig
from repro.dla.config import OPTIMIZATIONS, DlaConfig
from repro.experiments.runner import CELL_KINDS, DLA_KINDS

#: Valid prefetcher presets.
PREFETCH_PRESETS = ("default", "none", "l1stride")
#: Valid DLA presets.
DLA_PRESETS = ("dla", "r3")


class SpecError(ValueError):
    """A campaign spec failed validation."""


@dataclass(frozen=True)
class ConfigVariant:
    """One named configuration of a campaign's simulation matrix."""

    name: str
    kind: str = "baseline"
    #: Prefetcher preset applied to the runner's base system config.
    prefetch: str = "default"
    #: ``SystemConfig.with_overrides`` keyword overrides (core fields).
    core_overrides: Mapping[str, object] = field(default_factory=dict)
    #: DLA preset ("dla" = baseline DLA, "r3" = all optimizations)...
    dla_preset: Optional[str] = None
    #: ...or explicit ``DlaConfig.with_optimizations`` toggles.
    dla_optimizations: Mapping[str, bool] = field(default_factory=dict)
    #: Segmented variants only: on-line (dynamic) vs off-line tuning.
    dynamic: bool = False
    #: MSHR-file capacity applied uniformly to every cache level via
    #: ``SystemConfig.with_mshr_entries``: ``None`` leaves the base config
    #: untouched, a positive integer caps outstanding misses per level, and
    #: ``0`` means *unbounded* (infinite memory-level parallelism).
    mshr_entries: Optional[int] = None
    #: MSHR banking applied uniformly via ``SystemConfig.with_mshr_banks``:
    #: ``None`` leaves the base config untouched, ``0``/``1`` forces the
    #: single un-banked file, ``>= 2`` interleaves the file over that many
    #: address banks (bank-conflict stalls counted separately).
    mshr_banks: Optional[int] = None
    #: Victim write-buffer depth per write-allocating level via
    #: ``SystemConfig.with_write_buffer``: ``None`` leaves the base config
    #: untouched, ``0`` removes the buffers (instant drain), a positive
    #: integer bounds in-flight writebacks per level.
    write_buffer_entries: Optional[int] = None
    #: DRAM controller read/write queue depth per bank group via
    #: ``SystemConfig.with_dram_queue``: ``None`` leaves the base config
    #: untouched, ``0`` means unbounded (no queue model), a positive integer
    #: bounds in-flight transfers per queue.
    dram_queue_depth: Optional[int] = None

    # ------------------------------------------------------------------
    def validate(self) -> None:
        if not self.name:
            raise SpecError("variant needs a name")
        if self.kind not in CELL_KINDS:
            raise SpecError(f"variant {self.name!r}: unknown kind {self.kind!r}")
        if self.prefetch not in PREFETCH_PRESETS:
            raise SpecError(
                f"variant {self.name!r}: unknown prefetch preset {self.prefetch!r}"
            )
        if self.dla_preset is not None and self.dla_preset not in DLA_PRESETS:
            raise SpecError(
                f"variant {self.name!r}: unknown dla preset {self.dla_preset!r}"
            )
        if self.dla_preset and self.dla_optimizations:
            raise SpecError(
                f"variant {self.name!r}: dla_preset and dla_optimizations "
                "are mutually exclusive"
            )
        if self.kind not in DLA_KINDS and (self.dla_preset or self.dla_optimizations):
            raise SpecError(
                f"variant {self.name!r}: {self.kind} variants take no DLA config"
            )
        if self.kind != "segmented" and self.dynamic:
            raise SpecError(
                f"variant {self.name!r}: dynamic tuning is a segmented-only knob"
            )
        self._check_names("core_overrides", self.core_overrides,
                          tuple(f.name for f in fields(CoreConfig)))
        self._check_names("dla_optimizations", self.dla_optimizations,
                          OPTIMIZATIONS)
        self._check_knob("mshr_entries", "0 = unbounded")
        self._check_knob("mshr_banks", "0/1 = un-banked")
        self._check_knob("write_buffer_entries", "0 = no buffer")
        self._check_knob("dram_queue_depth", "0 = unbounded")

    def _check_names(self, name: str, given: Mapping[str, object],
                     known: Tuple[str, ...]) -> None:
        unknown = sorted(set(given) - set(known))
        if unknown:
            raise SpecError(
                f"variant {self.name!r}: unknown {name} {unknown} "
                f"(known: {', '.join(known)})"
            )

    def _check_knob(self, name: str, zero_meaning: str) -> None:
        value = getattr(self, name)
        if value is not None and (
            not isinstance(value, int)
            or isinstance(value, bool)   # bool subclasses int
            or value < 0
        ):
            raise SpecError(
                f"variant {self.name!r}: {name} must be a non-negative "
                f"integer ({zero_meaning}) or None"
            )

    # ------------------------------------------------------------------
    # materialisation
    # ------------------------------------------------------------------
    def system_config(self, base: SystemConfig) -> Optional[SystemConfig]:
        """The concrete system config, or ``None`` for "the runner default".

        Returning ``None`` for the untouched default matters: figures pass
        ``config=None`` for the default too, and both spellings must map to
        one fingerprint-keyed cache slot.
        """
        if (
            self.prefetch == "default"
            and not self.core_overrides
            and self.mshr_entries is None
            and self.mshr_banks is None
            and self.write_buffer_entries is None
            and self.dram_queue_depth is None
        ):
            return None
        config = base
        if self.prefetch == "none":
            config = config.without_prefetchers()
        elif self.prefetch == "l1stride":
            config = config.with_l1_stride()
        if self.core_overrides:
            config = config.with_overrides(**dict(self.core_overrides))
        if self.mshr_entries is not None:
            config = config.with_mshr_entries(
                None if self.mshr_entries == 0 else self.mshr_entries
            )
        if self.mshr_banks is not None:
            config = config.with_mshr_banks(
                None if self.mshr_banks in (0, 1) else self.mshr_banks
            )
        if self.write_buffer_entries is not None:
            config = config.with_write_buffer(
                None if self.write_buffer_entries == 0 else self.write_buffer_entries
            )
        if self.dram_queue_depth is not None:
            config = config.with_dram_queue(
                None if self.dram_queue_depth == 0 else self.dram_queue_depth
            )
        return config

    def dla_config(self) -> Optional[DlaConfig]:
        """The concrete DLA config for dla/segmented variants."""
        if self.kind not in DLA_KINDS:
            return None
        if self.dla_preset == "r3":
            return DlaConfig().r3()
        if self.dla_preset == "dla":
            return DlaConfig().baseline_dla()
        return DlaConfig().with_optimizations(**dict(self.dla_optimizations))

    # ------------------------------------------------------------------
    # dict / JSON form
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        out = asdict(self)
        out["core_overrides"] = dict(self.core_overrides)
        out["dla_optimizations"] = dict(self.dla_optimizations)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ConfigVariant":
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(data) - known
        if unknown:
            raise SpecError(f"unknown variant fields: {sorted(unknown)}")
        variant = cls(**data)  # type: ignore[arg-type]
        variant.validate()
        return variant


@dataclass(frozen=True)
class CampaignSpec:
    """One declarative campaign: experiment x workloads x variants x window."""

    name: str
    title: str
    #: Dotted module path providing ``run(runner)`` and ``artifact_tables``.
    experiment: str
    description: str = ""
    #: Workload selection: ``None`` means the runner default (quick subset or
    #: every workload); entries may be workload names, ``"suite:<name>"`` or
    #: ``"scenario:<name>"`` references (expanded in order, de-duplicated).
    workloads: Optional[Tuple[str, ...]] = None
    variants: Tuple[ConfigVariant, ...] = ()
    #: Window overrides; ``None`` means the runner's quick/full default.
    warmup_instructions: Optional[int] = None
    timed_instructions: Optional[int] = None
    #: In quick mode, only the first N resolved workloads get matrix cells
    #: (mirrors figures that sub-sample in quick mode, e.g. Fig. 15).
    max_cell_workloads_quick: Optional[int] = None
    tags: Tuple[str, ...] = ()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        if not self.name:
            raise SpecError("campaign needs a name")
        if not self.experiment:
            raise SpecError(f"campaign {self.name!r}: experiment module required")
        seen = set()
        for variant in self.variants:
            variant.validate()
            if variant.name in seen:
                raise SpecError(
                    f"campaign {self.name!r}: duplicate variant {variant.name!r}"
                )
            seen.add(variant.name)
        for window in (self.warmup_instructions, self.timed_instructions):
            if window is not None and window <= 0:
                raise SpecError(f"campaign {self.name!r}: windows must be positive")
        if self.workloads is not None:
            self.resolve_workloads()   # raises on unknown references

    # ------------------------------------------------------------------
    def resolve_workloads(self) -> Optional[List[str]]:
        """Expand suite:/scenario: references into a workload-name list.

        Returns ``None`` when the spec defers to the runner default.
        """
        if self.workloads is None:
            return None
        from repro.workloads.suites import (
            SCENARIOS, SUITES, get_workload, scenario_workloads, suite_workloads,
        )

        names: List[str] = []
        for entry in self.workloads:
            if entry.startswith("suite:"):
                suite = entry.split(":", 1)[1]
                if suite not in SUITES:
                    raise SpecError(
                        f"campaign {self.name!r}: unknown suite {suite!r}"
                    )
                expanded = [w.name for w in suite_workloads(suite)]
            elif entry.startswith("scenario:"):
                scenario = entry.split(":", 1)[1]
                if scenario not in SCENARIOS:
                    raise SpecError(
                        f"campaign {self.name!r}: unknown scenario {scenario!r}"
                    )
                expanded = scenario_workloads(scenario)
            else:
                try:
                    get_workload(entry)
                except KeyError:
                    raise SpecError(
                        f"campaign {self.name!r}: unknown workload {entry!r}"
                    ) from None
                expanded = [entry]
            for name in expanded:
                if name not in names:
                    names.append(name)
        return names

    # ------------------------------------------------------------------
    # dict / JSON form
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "title": self.title,
            "experiment": self.experiment,
            "description": self.description,
            "workloads": list(self.workloads) if self.workloads is not None else None,
            "variants": [variant.to_dict() for variant in self.variants],
            "warmup_instructions": self.warmup_instructions,
            "timed_instructions": self.timed_instructions,
            "max_cell_workloads_quick": self.max_cell_workloads_quick,
            "tags": list(self.tags),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CampaignSpec":
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(data) - known
        if unknown:
            raise SpecError(f"unknown campaign fields: {sorted(unknown)}")
        payload = dict(data)
        if payload.get("workloads") is not None:
            payload["workloads"] = tuple(payload["workloads"])
        payload["variants"] = tuple(
            v if isinstance(v, ConfigVariant) else ConfigVariant.from_dict(v)
            for v in payload.get("variants", ())
        )
        payload["tags"] = tuple(payload.get("tags", ()))
        spec = cls(**payload)  # type: ignore[arg-type]
        spec.validate()
        return spec

    def fingerprint(self) -> str:
        """Content fingerprint of the spec (keys campaign manifests)."""
        from repro.experiments.fingerprint import fingerprint

        return fingerprint(self.to_dict())


def variants(*specs: Mapping[str, object]) -> Tuple[ConfigVariant, ...]:
    """Shorthand used by the experiment modules' spec registrations."""
    built = tuple(ConfigVariant(**spec) for spec in specs)  # type: ignore[arg-type]
    for variant in built:
        variant.validate()
    return built
