"""Campaign registry: every paper artefact plus scenario sweeps, by name.

Built-in campaigns come from two places:

* every experiment module under :mod:`repro.experiments` ships a
  ``CAMPAIGN`` spec (imported lazily here, so importing an experiment module
  never recursively triggers the registry);
* this module defines campaigns *beyond* the paper's set — named scenario
  sweeps over the behavioural workload groupings of
  :data:`repro.workloads.suites.SCENARIOS` and a tiny ``smoke`` campaign for
  CI.

``register()`` accepts user-defined specs at run time (e.g. loaded from a
JSON file by the CLI).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.campaign.spec import CampaignSpec, SpecError

#: Experiment modules whose ``CAMPAIGN`` attribute is auto-registered.
BUILTIN_EXPERIMENT_MODULES = (
    "repro.experiments.fig01_ilp",
    "repro.experiments.fig05_fetch_model",
    "repro.experiments.fig09_speedup",
    "repro.experiments.fig10_energy",
    "repro.experiments.fig11_smt",
    "repro.experiments.fig12_t1",
    "repro.experiments.fig13_breakdown",
    "repro.experiments.fig14_queue_validation",
    "repro.experiments.fig15_recycle_dist",
    "repro.experiments.memsys_sweep",
    "repro.experiments.mshr_sweep",
    "repro.experiments.wb_sweep",
    "repro.experiments.dramq_sweep",
    "repro.experiments.table02_activity",
    "repro.experiments.table03_mpki",
)

#: Figures the CI smoke campaign rotates through, one per CI day (keyed on
#: day-of-year), so a week of CI runs covers the whole set at the cost of a
#: single pinned figure.  Every entry must run end-to-end with two workloads
#: and 1.5k+1.5k windows.
SMOKE_ROTATION = ("fig09", "fig10", "fig13", "table02", "table03", "memsys")

#: Environment override pinning the smoke figure (useful locally and in
#: tests); must name an entry of :data:`SMOKE_ROTATION`.
SMOKE_FIGURE_ENV = "REPRO_SMOKE_FIGURE"

_REGISTRY: Dict[str, CampaignSpec] = {}
_BUILTINS_LOADED = False
#: Whether the registered "smoke" spec is the builtin rotating one (only
#: builtin smoke specs are re-materialised by the daily figure rotation; a
#: user-registered replacement must never be silently clobbered).
_SMOKE_IS_BUILTIN = False


def register(spec: CampaignSpec, replace: bool = False) -> CampaignSpec:
    """Add ``spec`` to the registry (raises on duplicate unless ``replace``)."""
    spec.validate()
    if not replace and spec.name in _REGISTRY:
        raise SpecError(f"campaign {spec.name!r} is already registered")
    if spec.name == "smoke":
        global _SMOKE_IS_BUILTIN
        _SMOKE_IS_BUILTIN = False
    _REGISTRY[spec.name] = spec
    return spec


def _per_scenario(prefix: str, base: CampaignSpec, title: str, lead: str,
                  tags: Tuple[str, ...]) -> List[CampaignSpec]:
    """One campaign per behavioural scenario, ``<prefix><scenario>``: the
    experiment and variant matrix of ``base`` on that scenario's workloads."""
    from repro.workloads.suites import SCENARIOS

    return [
        CampaignSpec(
            name=f"{prefix}{scenario}",
            title=f"{title} — {scenario} workloads",
            experiment=base.experiment,
            description=(
                f"{lead} the '{scenario}' behavioural scenario: "
                + ", ".join(SCENARIOS[scenario]) + "."
            ),
            workloads=(f"scenario:{scenario}",),
            variants=base.variants,
            tags=tags,
        )
        for scenario in SCENARIOS
    ]


def _sweeps() -> List[CampaignSpec]:
    """Campaigns beyond the paper's figure/table set: the headline
    comparison (``sweep-<scenario>``), the MSHR sensitivity study
    (``mshr:<scenario>``) and the memory-backend machine points
    (``memsys:<scenario>``) per behavioural scenario, plus a fetch-buffer
    design sweep."""
    from repro.experiments.fig09_speedup import CAMPAIGN as FIG09
    from repro.experiments.fig13_breakdown import CAMPAIGN as FIG13
    from repro.experiments.memsys_sweep import CAMPAIGN as MEMSYS
    from repro.experiments.mshr_sweep import CAMPAIGN as MSHR

    fetch_buffer = CampaignSpec(
        name="sweep-fetch-buffer",
        title="Design sweep — fetch-buffer capacity on BL vs DLA",
        experiment="repro.experiments.fig13_breakdown",
        description="Fig. 13's ablation matrix over the branchy scenario, "
                    "where the fetch buffer matters most.",
        workloads=("scenario:branchy",),
        variants=FIG13.variants,
        tags=("sweep", "frontend"),
    )
    return (
        _per_scenario(
            "sweep-", FIG09, "Scenario sweep",
            "The headline {BL, DLA, R3-DLA} comparison restricted to",
            ("sweep", "scenario"))
        + [fetch_buffer]
        + _per_scenario(
            "mshr:", MSHR, "MSHR sweep",
            "Per-level MSHR files of 4/8/16/32/unbounded entries on",
            ("sweep", "mshr", "scenario"))
        + _per_scenario(
            "memsys:", MEMSYS, "Memory-backend machines",
            "Named memory-backend machine points (uncontended, default, "
            "tight/banked MSHRs, write buffers, bounded DRAM queues, "
            "fully contended) on",
            ("sweep", "memsys", "scenario"))
    )


def smoke_figure(day_of_year: Optional[int] = None) -> str:
    """The figure the smoke campaign exercises today.

    Rotates through :data:`SMOKE_ROTATION` keyed on day-of-year (so CI
    coverage widens over a week at constant per-run cost); the
    ``REPRO_SMOKE_FIGURE`` environment variable pins it explicitly.
    """
    import datetime
    import os

    pinned = os.environ.get(SMOKE_FIGURE_ENV)
    if pinned:
        if pinned not in SMOKE_ROTATION:
            raise SpecError(
                f"{SMOKE_FIGURE_ENV}={pinned!r} is not in the smoke rotation "
                f"{SMOKE_ROTATION}"
            )
        return pinned
    if day_of_year is None:
        day_of_year = datetime.date.today().timetuple().tm_yday
    return SMOKE_ROTATION[day_of_year % len(SMOKE_ROTATION)]


def _smoke_campaign() -> CampaignSpec:
    """A CI-sized end-to-end campaign: two workloads, short windows.

    The exercised figure rotates daily (see :func:`smoke_figure`); the
    variant matrix is the rotated figure's own, so the cells the scheduler
    warms are exactly the ones the figure assembles from.
    """
    import importlib

    figure = smoke_figure()
    module_path = f"repro.experiments.{_SMOKE_MODULES[figure]}"
    figure_spec = getattr(importlib.import_module(module_path), "CAMPAIGN")
    return CampaignSpec(
        name="smoke",
        title=f"Smoke — minimal end-to-end campaign for CI ({figure})",
        experiment=module_path,
        description=f"Today's rotated figure ({figure}) on two representative "
                    "workloads with 1.5k+1.5k windows through the full "
                    "spec -> cells -> store -> render path.",
        workloads=("libquantum", "mcf"),
        variants=figure_spec.variants,
        warmup_instructions=1500,
        timed_instructions=1500,
        tags=("ci",),
    )


#: Experiment module (under ``repro.experiments``) for each rotated figure.
_SMOKE_MODULES = {
    "fig09": "fig09_speedup",
    "fig10": "fig10_energy",
    "fig13": "fig13_breakdown",
    "table02": "table02_activity",
    "table03": "table03_mpki",
    "memsys": "memsys_sweep",
}


def _ensure_builtins() -> None:
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    import importlib

    for module_path in BUILTIN_EXPERIMENT_MODULES:
        module = importlib.import_module(module_path)
        spec = getattr(module, "CAMPAIGN", None)
        if spec is not None and spec.name not in _REGISTRY:
            register(spec)
    for spec in _sweeps():
        if spec.name not in _REGISTRY:
            register(spec)
    if "smoke" not in _REGISTRY:
        global _SMOKE_IS_BUILTIN
        spec = _smoke_campaign()
        spec.validate()
        _REGISTRY["smoke"] = spec
        _SMOKE_IS_BUILTIN = True
    _BUILTINS_LOADED = True


def _refresh_smoke() -> None:
    """Re-materialise the builtin smoke spec when the rotated figure changed
    (daily rotation or the ``REPRO_SMOKE_FIGURE`` override) so long-lived
    processes stay current.  A user-registered replacement spec is left
    untouched, and an unchanged figure keeps the existing spec object."""
    if not _SMOKE_IS_BUILTIN:
        return
    current = _REGISTRY.get("smoke")
    expected = f"repro.experiments.{_SMOKE_MODULES[smoke_figure()]}"
    if current is None or current.experiment != expected:
        spec = _smoke_campaign()
        spec.validate()
        _REGISTRY["smoke"] = spec


def get_campaign(name: str) -> Optional[CampaignSpec]:
    """The registered spec for ``name`` (``None`` if unknown)."""
    _ensure_builtins()
    if name == "smoke":
        _refresh_smoke()
    return _REGISTRY.get(name)


def list_campaigns(tag: Optional[str] = None) -> List[CampaignSpec]:
    """Every registered campaign, sorted by name (optionally tag-filtered)."""
    _ensure_builtins()
    _refresh_smoke()
    specs = sorted(_REGISTRY.values(), key=lambda spec: spec.name)
    if tag is not None:
        specs = [spec for spec in specs if tag in spec.tags]
    return specs
