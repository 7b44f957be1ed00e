"""Benchmark-suite definitions.

Each entry maps a benchmark name used by the paper's figures (e.g. ``mcf``,
``bfs``, ``cg``) to a synthetic kernel plus parameters whose memory/branch
behaviour mimics the original application class.  Sizes are chosen so that a
single workload commits on the order of tens of thousands of dynamic
instructions — large enough to exhibit steady-state cache and predictor
behaviour in the trace-driven timing models, small enough to keep the full
experiment matrix tractable in pure Python.

Workloads are constructed lazily and cached, because building a program (in
particular laying out linked data structures) is itself non-trivial work.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.emulator.machine import Emulator
from repro.emulator.trace import Trace
from repro.isa.program import Program
from repro.util.rng import DeterministicRng
from repro.workloads.kernels import build_kernel


@dataclass
class Workload:
    """A named benchmark: a kernel plus parameters plus a dynamic-length cap."""

    name: str
    suite: str
    kernel: str
    params: Dict[str, object] = field(default_factory=dict)
    #: Cap on committed dynamic instructions when tracing the workload.
    max_instructions: int = 60_000
    #: Free-text description of the behaviour the workload models.
    description: str = ""

    _program: Optional[Program] = field(default=None, repr=False, compare=False)
    _traces: Dict[int, "Trace"] = field(default_factory=dict, repr=False, compare=False)

    def build_program(self) -> Program:
        """Build (and cache) the static program for this workload.

        The generator seed is derived with CRC-32 rather than ``hash()``:
        Python string hashing is salted per process, which would make every
        process (and every parallel experiment worker) build a *different*
        program for the same workload name.  A content-stable seed is what
        makes fingerprint-keyed result caching and parallel fan-out sound.
        """
        if self._program is None:
            seed = zlib.crc32(self.name.encode("utf-8")) & 0x7FFFFFFF
            rng = DeterministicRng(seed)
            self._program = build_kernel(
                self.kernel, rng=rng, name=self.name, **self.params
            )
        return self._program

    def trace(self, max_instructions: Optional[int] = None) -> Trace:
        """Functionally execute the workload and return its dynamic trace.

        Memoized per instruction cap: emulation is deterministic, every
        consumer treats the trace as read-only, and the workload registry
        hands out shared instances — so repeated requests for the same
        window (every runner in a campaign) emulate exactly once.
        """
        limit = max_instructions if max_instructions is not None else self.max_instructions
        trace = self._traces.get(limit)
        if trace is None:
            while len(self._traces) >= 4:
                del self._traces[next(iter(self._traces))]
            trace = Emulator(self.build_program()).run(max_instructions=limit)
            self._traces[limit] = trace
        return trace


def _w(name, suite, kernel, description="", max_instructions=60_000, **params) -> Workload:
    return Workload(
        name=name,
        suite=suite,
        kernel=kernel,
        params=params,
        max_instructions=max_instructions,
        description=description,
    )


# ---------------------------------------------------------------------------
# SPEC CPU2006 integer analogue (the ten applications of Fig. 1 / Fig. 15)
# ---------------------------------------------------------------------------
_SPEC2K6 = [
    _w("astar", "spec2k6", "tree_search", "path-finding: tree walks with data-dependent branches",
       depth=10, searches=700),
    _w("bzip2", "spec2k6", "run_length", "compression: long biased-branch runs over a byte stream",
       elements=5000, run_bias=0.82),
    _w("gobmk", "spec2k6", "branchy_compute", "game tree evaluation: hard-to-predict branches",
       elements=5000, taken_bias=0.55),
    _w("h264ref", "spec2k6", "pixel_filter", "video encoding: streaming pixel transform with clamps",
       pixels=5000),
    _w("hmmer", "spec2k6", "state_machine", "profile HMM scoring: table-driven state transitions",
       steps=5000, states=12),
    _w("libquantum", "spec2k6", "stream_sum", "quantum register simulation: long strided streams",
       elements=2600, stride=1, passes=2),
    _w("mcf", "spec2k6", "pointer_chase", "network simplex: pointer chasing with poor locality",
       nodes=2048, hops=5000),
    _w("omnetpp", "spec2k6", "hash_probe", "discrete event simulation: irregular heap/table accesses",
       table_size=8192, probes=4200, hit_ratio=0.55),
    _w("sjeng", "spec2k6", "branchy_compute", "chess search: near 50/50 data-dependent branches",
       elements=5000, taken_bias=0.48),
    _w("xalancbmk", "spec2k6", "hash_probe", "XSLT processing: hash lookups and string dispatch",
       table_size=4096, probes=4200, hit_ratio=0.7),
]

# ---------------------------------------------------------------------------
# CRONO graph-suite analogue
# ---------------------------------------------------------------------------
_CRONO = [
    _w("bfs", "crono", "graph_traverse", "breadth-first traversal over a CSR graph",
       nodes=700, avg_degree=4, sweeps=2),
    _w("sssp", "crono", "sssp_relax", "single-source shortest path relaxations",
       nodes=520, avg_degree=4, rounds=2),
    _w("pagerank", "crono", "graph_traverse", "rank propagation: repeated neighbour gathers",
       nodes=600, avg_degree=5, sweeps=2),
    _w("connected_comp", "crono", "sssp_relax", "label propagation for connected components",
       nodes=520, avg_degree=3, rounds=2),
    _w("triangle_count", "crono", "graph_traverse", "triangle counting: two-level adjacency gathers",
       nodes=520, avg_degree=6, sweeps=2),
    _w("community", "crono", "graph_traverse", "community detection sweep over a denser graph",
       nodes=440, avg_degree=7, sweeps=2),
]

# ---------------------------------------------------------------------------
# STARBENCH embedded/media analogue
# ---------------------------------------------------------------------------
_STARBENCH = [
    _w("kmeans", "starbench", "kmeans_assign", "k-means assignment over a point cloud",
       points=900, clusters=8),
    _w("rgbyuv", "starbench", "pixel_filter", "colour-space conversion: streaming with clamps",
       pixels=5000),
    _w("rotate", "starbench", "stream_triad", "image rotation: multiple regular streams",
       elements=2200),
    _w("md5", "starbench", "random_compute", "hashing: long arithmetic dependence chains",
       iterations=3200),
    _w("streamcluster", "starbench", "kmeans_assign", "online clustering of streamed points",
       points=800, clusters=12),
    _w("tinyjpeg", "starbench", "histogram", "entropy coding tables: scatter/gather updates",
       samples=4500, buckets=256),
    _w("bodytrack", "starbench", "sort_scan", "particle weight resampling: compare/swap passes",
       elements=620, passes=5),
    _w("stringsearch", "starbench", "string_match", "dictionary string matching",
       haystack=3600, needle=6),
]

# ---------------------------------------------------------------------------
# NAS Parallel Benchmarks analogue
# ---------------------------------------------------------------------------
_NPB = [
    _w("bt", "npb", "dense_mm", "block tridiagonal solver: dense small-matrix arithmetic",
       dim=13),
    _w("cg", "npb", "spmv", "conjugate gradient: sparse matrix-vector products",
       rows=560, nnz_per_row=5),
    _w("dc", "npb", "hash_probe", "data cube: hashed aggregation over tuples",
       table_size=8192, probes=4200, hit_ratio=0.5),
    _w("ep", "npb", "random_compute", "embarrassingly parallel random number generation",
       iterations=3600),
    _w("ft", "npb", "stream_triad", "FFT butterflies: strided triads over large arrays",
       elements=2200),
    _w("is", "npb", "histogram", "integer sort: counting-sort histogram phase",
       samples=4500, buckets=512),
    _w("lu", "npb", "dense_mm", "LU decomposition: dense inner products",
       dim=12),
    _w("mg", "npb", "stencil", "multigrid: nearest-neighbour stencil sweeps",
       width=70, height=36, iterations=2),
    _w("sp", "npb", "stencil", "scalar pentadiagonal solver: stencil sweeps",
       width=64, height=32, iterations=2),
    _w("ua", "npb", "recursive_calls", "unstructured adaptive meshes: recursive refinement",
       depth=9, repeats=20),
]

#: Suite name -> list of workloads, in the order the paper lists them.
SUITES: Dict[str, List[Workload]] = {
    "spec2k6": _SPEC2K6,
    "crono": _CRONO,
    "starbench": _STARBENCH,
    "npb": _NPB,
}

_BY_NAME: Dict[str, Workload] = {
    workload.name: workload for suite in SUITES.values() for workload in suite
}


#: Named scenario sweeps beyond the paper's suite partitioning: behavioural
#: groupings (shared memory/branch character) that campaigns reference as
#: ``scenario:<name>`` to sweep a configuration across one axis of behaviour
#: without enumerating workloads by hand.
SCENARIOS: Dict[str, List[str]] = {
    # Irregular pointer/heap traversals — latency-bound, prefetch-hostile.
    "pointer-heavy": ["mcf", "omnetpp", "xalancbmk", "dc", "astar"],
    # Long regular streams — bandwidth-bound, prefetch-friendly.
    "streaming": ["libquantum", "rotate", "ft", "rgbyuv", "h264ref"],
    # Hard-to-predict control flow — front-end/branch-bound.
    "branchy": ["sjeng", "gobmk", "bzip2", "bodytrack"],
    # Graph analytics — a mix of gathers and data-dependent branches.
    "graph": ["bfs", "sssp", "pagerank", "triangle_count", "community",
              "connected_comp"],
    # Dense arithmetic with deep dependence chains — core-bound.
    "compute": ["bt", "lu", "ep", "md5", "kmeans"],
    # Scatter/gather table updates — TLB- and L2-sensitive.
    "scatter-gather": ["is", "tinyjpeg", "hmmer", "stringsearch"],
    # Nearest-neighbour sweeps — capacity-sensitive, stencil reuse.
    "stencil": ["mg", "sp", "streamcluster"],
}


def suite_workloads(suite: str) -> List[Workload]:
    """Workloads belonging to ``suite`` (raises ``KeyError`` for unknown suites)."""
    return list(SUITES[suite])


def scenario_workloads(scenario: str) -> List[str]:
    """Workload names of one named scenario (raises ``KeyError`` if unknown)."""
    try:
        return list(SCENARIOS[scenario])
    except KeyError:
        raise KeyError(
            f"unknown scenario {scenario!r}; known: {sorted(SCENARIOS)}"
        ) from None


def all_workloads() -> List[Workload]:
    """Every workload across all suites."""
    return [workload for suite in SUITES.values() for workload in suite]


def get_workload(name: str) -> Workload:
    """Look up one workload by benchmark name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(_BY_NAME)}"
        ) from None
