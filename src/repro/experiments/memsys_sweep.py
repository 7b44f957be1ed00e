"""Memory-backend contention sweeps — how much backend does R3-DLA need?

The decoupled look-ahead thread's value proposition is prefetching far ahead
of the main thread, which only pays while the memory backend can absorb the
resulting traffic.  PR 3 made the MSHR files real; this module generalises
that single-axis sweep into one machinery covering every contention resource
of the backend:

* **MSHR capacity** (``mshr`` axis — the original ``mshr-sweep``),
* **victim write-buffer depth** (``wb`` axis — dirty writebacks become
  timing-relevant and back-pressure fills),
* **DRAM controller queue depth** (``dramq`` axis — a full read/write queue
  delays demand fills and write-buffer drains alike),
* and a **machine comparison** (``memsys-sweep``) that pits named machine
  points — uncontended, the stock default, each resource tightened alone,
  and a fully contended machine — against each other.

Every axis sweeps the baseline and R3-DLA and reports throughput relative
to the axis's uncontended reference point, plus the total contention stall
cycles from the unified ``memsys`` telemetry, which show *where* the
backend saturates.  The thin modules :mod:`repro.experiments.mshr_sweep`,
:mod:`repro.experiments.wb_sweep` and :mod:`repro.experiments.dramq_sweep`
bind one axis each so every campaign keeps the one-``run()``-per-module
contract of the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.analysis.reporting import format_bar_chart, format_table
from repro.core.config import SystemConfig
from repro.experiments.parallel import run_cells
from repro.experiments.runner import ExperimentRunner
from repro.util.stats_math import geometric_mean

#: Swept MSHR-file capacities; ``None`` is the unbounded reference machine.
MSHR_SETTINGS = (4, 8, 16, 32, None)
#: Swept victim write-buffer depths; ``None`` is the bufferless reference.
WB_SETTINGS = (1, 2, 4, 8, None)
#: Swept DRAM read/write queue depths; ``None`` is the unbounded reference.
DRAMQ_SETTINGS = (2, 4, 8, 16, None)


@dataclass(frozen=True)
class SweepAxis:
    """One swept contention knob: its settings and their labels."""

    #: Short axis name: the column header of its tables and rows, and part
    #: of its variant names (``bl-<axis>-<label>``).
    name: str
    #: ``ConfigVariant`` field that declares one setting (0 = the ``None``
    #: setting).
    variant_field: str
    #: Swept settings; must contain ``None`` (the reference machine).
    settings: Tuple[Optional[int], ...]
    #: Label of the ``None`` setting ("inf" for unbounded, "off" for absent).
    none_label: str
    title: str = ""

    def label(self, setting: Optional[int]) -> str:
        return self.none_label if setting is None else str(setting)


AXIS_MSHR = SweepAxis(
    name="mshr",
    variant_field="mshr_entries",
    settings=MSHR_SETTINGS,
    none_label="inf",
    title="MSHR sweep — throughput relative to unbounded MSHRs",
)

AXIS_WB = SweepAxis(
    name="wb",
    variant_field="write_buffer_entries",
    settings=WB_SETTINGS,
    none_label="off",
    title="Write-buffer sweep — throughput relative to instant-drain victims",
)

AXIS_DRAMQ = SweepAxis(
    name="dramq",
    variant_field="dram_queue_depth",
    settings=DRAMQ_SETTINGS,
    none_label="inf",
    title="DRAM-queue sweep — throughput relative to unbounded queues",
)

#: Named machine points of the ``memsys-sweep`` comparison.  Knobs absent
#: from a machine's dict keep the runner's base configuration; ``None``
#: means "model off / unbounded" explicitly.  The ``uncontended`` machine is
#: the relative-IPC reference.
MEMSYS_MACHINES: Tuple[Tuple[str, Mapping[str, Optional[int]]], ...] = (
    ("uncontended", dict(mshr_entries=None, mshr_banks=None,
                         write_buffer_entries=None, dram_queue_depth=None)),
    ("default", dict()),
    ("mshr8", dict(mshr_entries=8)),
    ("banked8x2", dict(mshr_entries=8, mshr_banks=2)),
    ("wb4", dict(write_buffer_entries=4)),
    ("dramq8", dict(dram_queue_depth=8)),
    ("contended", dict(mshr_entries=8, mshr_banks=2,
                       write_buffer_entries=4, dram_queue_depth=8)),
)

#: The reference machine every memsys point is normalised against.
MEMSYS_REFERENCE = "uncontended"


def machine_config(base: SystemConfig,
                   knobs: Mapping[str, Optional[int]]) -> SystemConfig:
    """Materialise one named machine point against ``base`` (the
    benchmark harness builds its machines with it; the sweep reads the
    ``CAMPAIGN`` variants that declare the same knobs)."""
    return base.with_memsys(**dict(knobs))


@dataclass
class MemsysSweepResult:
    """Result of one contention sweep (any axis, or the machine comparison).

    ``per_workload`` maps workload -> point label -> ``{"bl": rel IPC,
    "r3": rel IPC, "bl_stall_cycles": ..., "r3_stall_cycles": ...}`` where
    the stall cycles are the *total* contention waits (MSHR + write buffer +
    DRAM queue) from the unified ``memsys`` telemetry.
    """

    column: str
    title: str
    per_workload: Dict[str, Dict[str, Dict[str, float]]]
    #: point label -> geomean relative IPC per machine ("bl"/"r3").
    geomean: Dict[str, Dict[str, float]]

    def render(self) -> str:
        rows: List[Dict[str, object]] = []
        for workload, by_point in self.per_workload.items():
            for label, values in by_point.items():
                row: Dict[str, object] = {"workload": workload, self.column: label}
                row.update(values)
                rows.append(row)
        lines = [self.title, ""]
        lines.append(format_table(rows))
        lines.append("")
        lines.append("geomean relative IPC (baseline):")
        lines.append(format_bar_chart(
            {label: values["bl"] for label, values in self.geomean.items()}
        ))
        lines.append("geomean relative IPC (R3-DLA):")
        lines.append(format_bar_chart(
            {label: values["r3"] for label, values in self.geomean.items()}
        ))
        return "\n".join(lines)


def contention_stall_cycles(memsys: Optional[Mapping]) -> float:
    """Total contention waits in a ``memsys`` telemetry dict.

    Sums every ``stall_cycles`` leaf — MSHR files, write buffers and DRAM
    queues all report their waits under that one key (the point of the
    uniform telemetry spine) — across arbitrarily nested domains
    (single-core, or the DLA's main/lookahead/shared split).
    """
    if not memsys:
        return 0.0
    total = 0.0
    for key, value in memsys.items():
        if key == "stall_cycles":
            total += value
        elif isinstance(value, Mapping):
            total += contention_stall_cycles(value)
    return total


def _geomean_by_label(per_workload, labels) -> Dict[str, Dict[str, float]]:
    return {
        label: {
            machine: geometric_mean([
                by_point[label][machine] for by_point in per_workload.values()
            ])
            for machine in ("bl", "r3")
        }
        for label in labels
    }


def run_points(cells, column: str, title: str, labels: List[str],
               reference: str, prefix: str = "") -> MemsysSweepResult:
    """BL and R3-DLA on named configuration points, from campaign cells.

    Point ``label`` is the pair of variants ``bl-<prefix><label>`` and
    ``r3-<prefix><label>`` of ``cells`` (as
    :func:`~repro.experiments.parallel.run_cells` returns them); both
    machines are normalised against point ``reference``.
    """
    per_workload: Dict[str, Dict[str, Dict[str, float]]] = {}
    for setup, outcomes in cells:
        bl_ref = outcomes[f"bl-{prefix}{reference}"]
        r3_ref = outcomes[f"r3-{prefix}{reference}"]
        by_point: Dict[str, Dict[str, float]] = {}
        for label in labels:
            bl = outcomes[f"bl-{prefix}{label}"]
            r3_outcome = outcomes[f"r3-{prefix}{label}"]
            by_point[label] = {
                "bl": bl.ipc / bl_ref.ipc if bl_ref.ipc else 0.0,
                "r3": r3_outcome.ipc / r3_ref.ipc if r3_ref.ipc else 0.0,
                "bl_stall_cycles": contention_stall_cycles(bl.memsys),
                "r3_stall_cycles": contention_stall_cycles(r3_outcome.memsys),
            }
        per_workload[setup.name] = by_point

    return MemsysSweepResult(
        column=column,
        title=title,
        per_workload=per_workload,
        geomean=_geomean_by_label(per_workload, labels),
    )


def run_axis(campaign: CampaignSpec, axis: SweepAxis,
             runner: Optional[ExperimentRunner] = None) -> MemsysSweepResult:
    """Sweep one contention axis from ``campaign``'s cells (its ``None``
    setting is the reference)."""
    cells = run_cells(campaign, runner or ExperimentRunner(quick=True))
    return run_points(cells, axis.name, axis.title,
                      [axis.label(setting) for setting in axis.settings],
                      reference=axis.label(None), prefix=f"{axis.name}-")


def run(runner: Optional[ExperimentRunner] = None) -> MemsysSweepResult:
    """The ``memsys-sweep`` machine comparison (see :data:`MEMSYS_MACHINES`)."""
    cells = run_cells(CAMPAIGN, runner or ExperimentRunner(quick=True))
    return run_points(
        cells, "machine",
        "Memory-backend machines — throughput relative to the uncontended "
        "(infinite-resource) machine",
        [name for name, _knobs in MEMSYS_MACHINES], reference=MEMSYS_REFERENCE,
    )


def artifact_tables(result: MemsysSweepResult) -> Dict[str, List[Dict[str, object]]]:
    """Structured tables shared by every sweep campaign of this family."""
    sensitivity = [
        {"workload": workload, result.column: label, **values}
        for workload, by_point in result.per_workload.items()
        for label, values in by_point.items()
    ]
    curve = [
        {result.column: label, **values}
        for label, values in result.geomean.items()
    ]
    return {"sensitivity": sensitivity, "curve": curve}


# ---------------------------------------------------------------------------
# campaign registration (see repro.campaign)
# ---------------------------------------------------------------------------
from repro.campaign.spec import CampaignSpec, variants  # noqa: E402


def axis_variants(axis: SweepAxis) -> tuple:
    """The BL/R3 variant matrix of one axis sweep (0 = the ``None`` point)."""
    specs = []
    for setting in axis.settings:
        label = axis.label(setting)
        declared = 0 if setting is None else setting
        specs.append({
            "name": f"bl-{axis.name}-{label}", "kind": "baseline",
            axis.variant_field: declared,
        })
        specs.append({
            "name": f"r3-{axis.name}-{label}", "kind": "dla",
            "dla_preset": "r3", axis.variant_field: declared,
        })
    return variants(*specs)


def _machine_variants() -> tuple:
    specs = []
    for name, knobs in MEMSYS_MACHINES:
        declared = {
            field: (0 if value is None else value)
            for field, value in knobs.items()
        }
        specs.append({"name": f"bl-{name}", "kind": "baseline", **declared})
        specs.append({"name": f"r3-{name}", "kind": "dla",
                      "dla_preset": "r3", **declared})
    return variants(*specs)


CAMPAIGN = CampaignSpec(
    name="memsys-sweep",
    title="Memory-backend machines — BL vs R3-DLA under contention models",
    experiment=__name__,
    description="Throughput of the baseline and R3-DLA on named "
                "memory-backend machine points (uncontended, stock default, "
                "tight MSHRs, banked MSHRs, victim write buffers, bounded "
                "DRAM queues, and the fully contended machine), relative to "
                "the uncontended reference.",
    variants=_machine_variants(),
    tags=("sweep", "memsys", "memory"),
)


def main() -> None:  # pragma: no cover
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
