"""Synthetic kernel builders.

Every kernel builder takes a size parameter plus a
:class:`~repro.util.rng.DeterministicRng` and returns a
:class:`~repro.isa.program.Program`.  The kernels are written so that their
*memory and control behaviour* — not their output — matches the application
class they stand in for, because the DLA mechanisms under study only interact
with addresses, branch outcomes and dependence chains.

Register conventions used below (general-purpose r1..r29):

===========  ==================================================
r1 - r9      loop counters, bounds, temporaries
r10 - r19    base addresses of arrays / structures
r20 - r29    accumulators and computed values
===========  ==================================================
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.isa.builder import WORD_BYTES, ProgramBuilder
from repro.isa.program import Program
from repro.util.rng import DeterministicRng

#: Registry of kernel name -> builder populated by :func:`_register`.
KERNEL_BUILDERS: Dict[str, Callable[..., Program]] = {}


def _register(name: str):
    def decorator(fn):
        KERNEL_BUILDERS[name] = fn
        return fn

    return decorator


def build_kernel(kernel: str, **kwargs) -> Program:
    """Build the kernel registered under ``kernel`` with ``kwargs``."""
    if kernel not in KERNEL_BUILDERS:
        raise KeyError(f"unknown kernel {kernel!r}; known: {sorted(KERNEL_BUILDERS)}")
    return KERNEL_BUILDERS[kernel](**kwargs)


def _payload_work(b: ProgramBuilder, value_reg: int, acc_reg: int, ops: int,
                  scratch: int = 25, scratch2: int = 26) -> None:
    """Emit ``ops`` instructions of pure payload computation.

    Real applications interleave their control/address computation with a
    substantial amount of data processing that feeds neither branches nor
    addresses — exactly the work a DLA skeleton strips from the look-ahead
    thread (the paper's skeletons retain only ~36% of dynamic instructions).
    The emitted chain consumes ``value_reg`` and accumulates into ``acc_reg``
    using registers that are never used for control or addressing, so the
    skeleton generator can prune all of it.
    """
    if ops <= 0:
        return
    patterns = ("mul", "add", "xor", "fadd", "sub", "fmul", "or", "addi")
    b.addi(scratch, value_reg, 3)
    emitted = 1
    index = 0
    while emitted < ops:
        kind = patterns[index % len(patterns)]
        if kind == "mul":
            b.mul(scratch2, scratch, value_reg)
        elif kind == "add":
            b.add(scratch, scratch, scratch2)
        elif kind == "xor":
            b.xor(scratch2, scratch2, value_reg)
        elif kind == "fadd":
            b.fadd(acc_reg, acc_reg, scratch)
        elif kind == "sub":
            b.sub(scratch2, scratch2, scratch)
        elif kind == "fmul":
            b.fmul(scratch, scratch, scratch)
        elif kind == "or":
            b.or_(scratch2, scratch2, scratch)
        else:
            b.addi(scratch, scratch, 11)
        emitted += 1
        index += 1
    b.add(acc_reg, acc_reg, scratch2)


# ---------------------------------------------------------------------------
# Streaming / strided kernels (libquantum, STREAM, NPB FT/MG style)
# ---------------------------------------------------------------------------
@_register("stream_sum")
def stream_sum(elements: int = 2048, stride: int = 1, passes: int = 2, payload: int = 6,
               rng: DeterministicRng = None, name: str = "stream_sum") -> Program:
    """Strided read-reduce over a large array.

    The inner loop is a textbook strided stream: one load whose address grows
    by a constant every iteration, a dependent add, and a loop branch — the
    exact pattern the T1 offload engine targets.
    """
    rng = rng or DeterministicRng(1)
    b = ProgramBuilder(name)
    data = b.alloc_words(elements, rng.randints(0, 1000, elements))
    step = stride * WORD_BYTES

    b.li(1, passes)               # r1 = remaining passes
    b.label("pass_loop")
    b.li(10, data)                # r10 = cursor
    b.li(2, elements // max(stride, 1))  # r2 = remaining iterations
    b.li(20, 0)                   # r20 = accumulator
    b.label("inner")
    b.annotate("strided_load")
    b.load(21, 10, 0)             # r21 = *cursor
    b.add(20, 20, 21)             # accumulate
    _payload_work(b, 21, 28, payload)
    b.addi(10, 10, step)          # advance cursor by the stride
    b.addi(2, 2, -1)
    b.bnez(2, "inner")
    b.addi(1, 1, -1)
    b.bnez(1, "pass_loop")
    b.halt()
    return b.build()


@_register("stream_triad")
def stream_triad(elements: int = 2048, payload: int = 5, rng: DeterministicRng = None,
                 name: str = "stream_triad") -> Program:
    """STREAM-triad style ``a[i] = b[i] + k * c[i]`` with three strided streams."""
    rng = rng or DeterministicRng(2)
    b = ProgramBuilder(name)
    a = b.alloc_words(elements, 0)
    bb = b.alloc_words(elements, rng.randints(0, 100, elements))
    cc = b.alloc_words(elements, rng.randints(0, 100, elements))

    b.li(10, a)
    b.li(11, bb)
    b.li(12, cc)
    b.li(1, elements)
    b.li(3, 3)                    # scaling constant k
    b.label("loop")
    b.annotate("strided_load")
    b.load(21, 11, 0)
    b.annotate("strided_load")
    b.load(22, 12, 0)
    b.mul(23, 22, 3)
    b.add(24, 21, 23)
    _payload_work(b, 21, 28, payload)
    b.annotate("strided_store")
    b.store(10, 24, 0)
    b.addi(10, 10, WORD_BYTES)
    b.addi(11, 11, WORD_BYTES)
    b.addi(12, 12, WORD_BYTES)
    b.addi(1, 1, -1)
    b.bnez(1, "loop")
    b.halt()
    return b.build()


@_register("stencil")
def stencil(width: int = 64, height: int = 32, iterations: int = 2, payload: int = 5,
            rng: DeterministicRng = None, name: str = "stencil") -> Program:
    """1-D 3-point Jacobi-style sweep repeated over a grid (NPB MG/SP flavour)."""
    rng = rng or DeterministicRng(3)
    cells = width * height
    b = ProgramBuilder(name)
    src = b.alloc_words(cells, rng.randints(0, 50, cells))
    dst = b.alloc_words(cells, 0)

    b.li(1, iterations)
    b.label("iter_loop")
    b.li(10, src + WORD_BYTES)        # cursor into src, starting at index 1
    b.li(11, dst + WORD_BYTES)
    b.li(2, cells - 2)
    b.label("cell_loop")
    b.annotate("stencil_west")
    b.load(20, 10, -WORD_BYTES)
    b.annotate("stencil_center")
    b.load(21, 10, 0)
    b.annotate("stencil_east")
    b.load(22, 10, WORD_BYTES)
    b.add(23, 20, 21)
    b.add(23, 23, 22)
    b.li(24, 3)
    b.div(25, 23, 24)
    _payload_work(b, 21, 28, payload, scratch=26, scratch2=27)
    b.store(11, 25, 0)
    b.addi(10, 10, WORD_BYTES)
    b.addi(11, 11, WORD_BYTES)
    b.addi(2, 2, -1)
    b.bnez(2, "cell_loop")
    b.addi(1, 1, -1)
    b.bnez(1, "iter_loop")
    b.halt()
    return b.build()


# ---------------------------------------------------------------------------
# Pointer chasing / irregular kernels (mcf, omnetpp, xalancbmk style)
# ---------------------------------------------------------------------------
@_register("pointer_chase")
def pointer_chase(nodes: int = 1024, hops: int = 4096, payload_words: int = 3,
                  payload: int = 10, rng: DeterministicRng = None,
                  name: str = "pointer_chase") -> Program:
    """Traverse a randomly-linked list, summing a payload field per node.

    Every load of the ``next`` pointer depends on the previous one, so a
    conventional prefetcher gets no traction; only executing the chain ahead
    of time (as the look-ahead thread does) can hide the misses.
    """
    rng = rng or DeterministicRng(4)
    node_words = 1 + payload_words          # [next, payload...]
    b = ProgramBuilder(name)

    order = rng.permutation(nodes)
    payloads = rng.randints(0, 97, nodes * payload_words)
    base = b.data_cursor
    addr_of = [base + i * node_words * WORD_BYTES for i in range(nodes)]
    words = [0] * (nodes * node_words)
    for position, node in enumerate(order):
        first = node * node_words
        words[first] = addr_of[order[(position + 1) % nodes]]
        words[first + 1:first + node_words] = payloads[
            position * payload_words:(position + 1) * payload_words]
    b.alloc_words(len(words), words)

    b.li(10, addr_of[order[0]])   # r10 = current node pointer
    b.li(1, hops)
    b.li(20, 0)                   # checksum
    b.label("chase")
    b.annotate("payload_load")
    b.load(21, 10, WORD_BYTES)
    b.add(20, 20, 21)
    _payload_work(b, 21, 28, payload)
    b.annotate("pointer_load")
    b.load(10, 10, 0)             # follow next pointer (dependent load)
    b.addi(1, 1, -1)
    b.bnez(1, "chase")
    b.halt()
    return b.build()


@_register("hash_probe")
def hash_probe(table_size: int = 4096, probes: int = 4096, hit_ratio: float = 0.6,
               payload: int = 6, rng: DeterministicRng = None,
               name: str = "hash_probe") -> Program:
    """Open-addressing hash-table probe loop with data-dependent branching.

    Combines irregular loads (random table indices) with hard-to-predict
    branches on the probe outcome — the behaviour of database joins and of
    SPEC's xalancbmk/astar lookups.
    """
    rng = rng or DeterministicRng(5)
    b = ProgramBuilder(name)
    occupancy = [1 if rng.random() < hit_ratio else 0 for _ in range(table_size)]
    table = b.alloc_words(table_size, occupancy)
    keys = b.alloc_words(probes, rng.randints(0, table_size - 1, probes))

    b.li(10, table)
    b.li(11, keys)
    b.li(1, probes)
    b.li(20, 0)                   # hits
    b.li(21, 0)                   # misses
    b.li(3, WORD_BYTES)
    b.label("probe")
    b.annotate("key_load")
    b.load(22, 11, 0)             # key = keys[i]
    b.mul(23, 22, 3)              # offset = key * WORD_BYTES
    b.add(24, 10, 23)
    b.annotate("table_load")
    b.load(25, 24, 0)             # slot = table[key]
    _payload_work(b, 25, 28, payload, scratch=26, scratch2=27)
    b.beqz(25, "miss")
    b.addi(20, 20, 1)
    b.jump("next")
    b.label("miss")
    b.addi(21, 21, 1)
    b.label("next")
    b.addi(11, 11, WORD_BYTES)
    b.addi(1, 1, -1)
    b.bnez(1, "probe")
    b.halt()
    return b.build()


@_register("tree_search")
def tree_search(depth: int = 10, searches: int = 1024, payload: int = 5,
                rng: DeterministicRng = None, name: str = "tree_search") -> Program:
    """Repeated root-to-leaf walks of a complete binary search tree.

    Each step loads a key, compares, and branches left or right — dependent
    loads plus data-dependent branches, as in astar / gobmk search code.
    """
    rng = rng or DeterministicRng(6)
    node_words = 3                      # [key, left, right]
    nodes = (1 << depth) - 1
    b = ProgramBuilder(name)
    base = b.data_cursor
    addr_of = [base + i * node_words * WORD_BYTES for i in range(nodes)]
    words = []
    for i, key in enumerate(rng.randints(0, 1 << 20, nodes)):
        left, right = 2 * i + 1, 2 * i + 2
        words += (key, addr_of[left] if left < nodes else 0,
                  addr_of[right] if right < nodes else 0)
    b.alloc_words(len(words), words)
    queries = b.alloc_words(searches, rng.randints(0, 1 << 20, searches))

    b.li(11, queries)
    b.li(1, searches)
    b.li(20, 0)                        # visited-node counter
    b.label("search")
    b.load(22, 11, 0)                  # query key
    b.li(10, addr_of[0])               # current = root
    b.label("walk")
    b.beqz(10, "done_walk")
    b.annotate("node_key_load")
    b.load(23, 10, 0)
    b.addi(20, 20, 1)
    _payload_work(b, 23, 28, payload)
    b.blt(22, 23, "go_left")
    b.annotate("right_child_load")
    b.load(10, 10, 2 * WORD_BYTES)
    b.jump("walk")
    b.label("go_left")
    b.annotate("left_child_load")
    b.load(10, 10, WORD_BYTES)
    b.jump("walk")
    b.label("done_walk")
    b.addi(11, 11, WORD_BYTES)
    b.addi(1, 1, -1)
    b.bnez(1, "search")
    b.halt()
    return b.build()


# ---------------------------------------------------------------------------
# Graph kernels (CRONO style)
# ---------------------------------------------------------------------------
def _random_csr(rng: DeterministicRng, nodes: int, avg_degree: int):
    """Build a random CSR graph: returns (row_offsets, column_indices)."""
    offsets = [0]
    columns: List[int] = []
    for _ in range(nodes):
        degree = max(1, rng.randint(avg_degree // 2, avg_degree + avg_degree // 2))
        for _ in range(degree):
            columns.append(rng.randint(0, nodes - 1))
        offsets.append(len(columns))
    return offsets, columns


@_register("graph_traverse")
def graph_traverse(nodes: int = 512, avg_degree: int = 4, sweeps: int = 2,
                   payload: int = 5, rng: DeterministicRng = None,
                   name: str = "graph_traverse") -> Program:
    """BFS-flavoured sweep over a CSR graph accumulating neighbour values.

    For every vertex, walk its adjacency list and accumulate the value of
    each neighbour — a gather with two levels of indirection (offsets ->
    columns -> values), the dominant pattern in CRONO's BFS/SSSP/PageRank.
    """
    rng = rng or DeterministicRng(7)
    offsets, columns = _random_csr(rng, nodes, avg_degree)
    b = ProgramBuilder(name)
    off_base = b.alloc_words(len(offsets), offsets)
    col_base = b.alloc_words(len(columns), columns)
    val_base = b.alloc_words(nodes, rng.randints(0, 31, nodes))
    out_base = b.alloc_words(nodes, 0)

    b.li(1, sweeps)
    b.label("sweep")
    b.li(2, 0)                          # vertex index v
    b.li(9, nodes)
    b.label("vertex")
    b.li(3, WORD_BYTES)
    b.mul(4, 2, 3)                      # v * WORD_BYTES
    b.li(10, off_base)
    b.add(10, 10, 4)
    b.annotate("offset_load")
    b.load(5, 10, 0)                    # start = offsets[v]
    b.annotate("offset_load")
    b.load(6, 10, WORD_BYTES)           # end = offsets[v + 1]
    b.li(20, 0)                         # per-vertex accumulator
    b.label("edge")
    b.bge(5, 6, "edges_done")
    b.mul(7, 5, 3)
    b.li(11, col_base)
    b.add(11, 11, 7)
    b.annotate("column_load")
    b.load(8, 11, 0)                    # neighbour id
    b.mul(8, 8, 3)
    b.li(12, val_base)
    b.add(12, 12, 8)
    b.annotate("gather_load")
    b.load(21, 12, 0)                   # neighbour value (irregular)
    b.add(20, 20, 21)
    _payload_work(b, 21, 28, payload)
    b.addi(5, 5, 1)
    b.jump("edge")
    b.label("edges_done")
    b.li(13, out_base)
    b.add(13, 13, 4)
    b.store(13, 20, 0)
    b.addi(2, 2, 1)
    b.blt(2, 9, "vertex")
    b.addi(1, 1, -1)
    b.bnez(1, "sweep")
    b.halt()
    return b.build()


@_register("sssp_relax")
def sssp_relax(nodes: int = 384, avg_degree: int = 4, rounds: int = 2,
               payload: int = 4, rng: DeterministicRng = None,
               name: str = "sssp_relax") -> Program:
    """Bellman-Ford style relaxation rounds over a CSR graph (CRONO SSSP)."""
    rng = rng or DeterministicRng(8)
    offsets, columns = _random_csr(rng, nodes, avg_degree)
    weights = rng.randints(1, 16, len(columns))
    b = ProgramBuilder(name)
    off_base = b.alloc_words(len(offsets), offsets)
    col_base = b.alloc_words(len(columns), columns)
    wgt_base = b.alloc_words(len(weights), weights)
    dist_base = b.alloc_words(nodes, [0] + [1 << 20] * (nodes - 1))

    b.li(1, rounds)
    b.label("round")
    b.li(2, 0)
    b.li(9, nodes)
    b.label("vertex")
    b.li(3, WORD_BYTES)
    b.mul(4, 2, 3)
    b.li(10, off_base)
    b.add(10, 10, 4)
    b.load(5, 10, 0)
    b.load(6, 10, WORD_BYTES)
    b.li(14, dist_base)
    b.add(14, 14, 4)
    b.annotate("dist_load")
    b.load(22, 14, 0)                    # dist[v]
    b.label("edge")
    b.bge(5, 6, "edges_done")
    b.mul(7, 5, 3)
    b.li(11, col_base)
    b.add(11, 11, 7)
    b.load(8, 11, 0)                     # neighbour id
    b.li(12, wgt_base)
    b.add(12, 12, 7)
    b.load(23, 12, 0)                    # weight
    _payload_work(b, 23, 28, payload, scratch=26, scratch2=27)
    b.add(24, 22, 23)                    # candidate = dist[v] + w
    b.mul(8, 8, 3)
    b.li(13, dist_base)
    b.add(13, 13, 8)
    b.annotate("dist_gather")
    b.load(25, 13, 0)                    # dist[u]
    b.bge(24, 25, "no_update")
    b.annotate("dist_update")
    b.store(13, 24, 0)
    b.label("no_update")
    b.addi(5, 5, 1)
    b.jump("edge")
    b.label("edges_done")
    b.addi(2, 2, 1)
    b.blt(2, 9, "vertex")
    b.addi(1, 1, -1)
    b.bnez(1, "round")
    b.halt()
    return b.build()


# ---------------------------------------------------------------------------
# Branch-heavy integer kernels (gobmk, sjeng, h264 style)
# ---------------------------------------------------------------------------
@_register("branchy_compute")
def branchy_compute(elements: int = 4096, taken_bias: float = 0.5, payload: int = 5,
                    rng: DeterministicRng = None, name: str = "branchy_compute") -> Program:
    """Scan an array of noisy values taking data-dependent decisions.

    ``taken_bias`` controls how predictable the main branch is: 0.5 gives the
    hardest-to-predict pattern, values near 0 or 1 give biased (easy)
    branches that the skeleton's "biased branch" recycling option can prune.
    """
    rng = rng or DeterministicRng(9)
    b = ProgramBuilder(name)
    values = [1 if rng.random() < taken_bias else 0 for _ in range(elements)]
    data = b.alloc_words(elements, values)
    payload_base = b.alloc_words(elements, rng.randints(0, 127, elements))

    b.li(10, data)
    b.li(11, payload_base)
    b.li(1, elements)
    b.li(20, 0)                         # even-path accumulator
    b.li(21, 0)                         # odd-path accumulator
    b.label("loop")
    b.load(22, 10, 0)
    b.load(23, 11, 0)
    b.beqz(22, "path_even")
    b.mul(24, 23, 23)
    b.add(21, 21, 24)
    b.jump("after")
    b.label("path_even")
    b.addi(24, 23, 7)
    b.add(20, 20, 24)
    b.label("after")
    _payload_work(b, 23, 28, payload)
    b.addi(10, 10, WORD_BYTES)
    b.addi(11, 11, WORD_BYTES)
    b.addi(1, 1, -1)
    b.bnez(1, "loop")
    b.halt()
    return b.build()


@_register("state_machine")
def state_machine(steps: int = 4096, states: int = 8, payload: int = 6,
                  rng: DeterministicRng = None, name: str = "state_machine") -> Program:
    """Walk a random transition table — an abstraction of parsers/decoders.

    Each step loads the next state from a table indexed by (state, input),
    giving short dependence chains, frequent indirect-ish control flow and a
    table working set small enough to live in L1/L2.
    """
    rng = rng or DeterministicRng(10)
    b = ProgramBuilder(name)
    transitions = rng.randints(0, states - 1, states * states)
    table = b.alloc_words(states * states, transitions)
    inputs = b.alloc_words(steps, rng.randints(0, states - 1, steps))

    b.li(10, table)
    b.li(11, inputs)
    b.li(1, steps)
    b.li(2, 0)                          # current state
    b.li(3, WORD_BYTES)
    b.li(4, states)
    b.li(20, 0)                         # visit counter for state 0
    b.label("step")
    b.load(22, 11, 0)                   # input symbol
    _payload_work(b, 22, 28, payload, scratch=25, scratch2=26)
    b.mul(23, 2, 4)                     # state * states
    b.add(23, 23, 22)
    b.mul(23, 23, 3)
    b.add(24, 10, 23)
    b.annotate("transition_load")
    b.load(2, 24, 0)                    # next state
    b.bnez(2, "not_zero")
    b.addi(20, 20, 1)
    b.label("not_zero")
    b.addi(11, 11, WORD_BYTES)
    b.addi(1, 1, -1)
    b.bnez(1, "step")
    b.halt()
    return b.build()


# ---------------------------------------------------------------------------
# Dense / numeric kernels (NPB BT/LU/EP style)
# ---------------------------------------------------------------------------
@_register("dense_mm")
def dense_mm(dim: int = 12, rng: DeterministicRng = None, name: str = "dense_mm") -> Program:
    """Naive dense matrix multiply (compute bound, long mul/div chains)."""
    rng = rng or DeterministicRng(11)
    cells = dim * dim
    b = ProgramBuilder(name)
    a = b.alloc_words(cells, rng.randints(0, 9, cells))
    bm = b.alloc_words(cells, rng.randints(0, 9, cells))
    c = b.alloc_words(cells, 0)

    b.li(3, WORD_BYTES)
    b.li(9, dim)
    b.li(1, 0)                          # i
    b.label("i_loop")
    b.li(2, 0)                          # j
    b.label("j_loop")
    b.li(20, 0)                         # acc
    b.li(4, 0)                          # k
    b.label("k_loop")
    b.mul(5, 1, 9)                      # i*dim
    b.add(5, 5, 4)                      # + k
    b.mul(5, 5, 3)
    b.li(10, a)
    b.add(10, 10, 5)
    b.load(21, 10, 0)                   # a[i][k]
    b.mul(6, 4, 9)                      # k*dim
    b.add(6, 6, 2)                      # + j
    b.mul(6, 6, 3)
    b.li(11, bm)
    b.add(11, 11, 6)
    b.load(22, 11, 0)                   # b[k][j]
    b.fmul(23, 21, 22)
    b.fadd(20, 20, 23)
    b.addi(4, 4, 1)
    b.blt(4, 9, "k_loop")
    b.mul(7, 1, 9)
    b.add(7, 7, 2)
    b.mul(7, 7, 3)
    b.li(12, c)
    b.add(12, 12, 7)
    b.store(12, 20, 0)
    b.addi(2, 2, 1)
    b.blt(2, 9, "j_loop")
    b.addi(1, 1, 1)
    b.blt(1, 9, "i_loop")
    b.halt()
    return b.build()


@_register("spmv")
def spmv(rows: int = 384, nnz_per_row: int = 5, payload: int = 4,
         rng: DeterministicRng = None, name: str = "spmv") -> Program:
    """CSR sparse matrix-vector multiply (NPB CG inner kernel)."""
    rng = rng or DeterministicRng(12)
    offsets = [0]
    columns: List[int] = []
    values: List[int] = []
    for _ in range(rows):
        nnz = max(1, rng.randint(nnz_per_row - 2, nnz_per_row + 2))
        for _ in range(nnz):
            columns.append(rng.randint(0, rows - 1))
            values.append(rng.randint(1, 9))
        offsets.append(len(columns))
    b = ProgramBuilder(name)
    off_base = b.alloc_words(len(offsets), offsets)
    col_base = b.alloc_words(len(columns), columns)
    val_base = b.alloc_words(len(values), values)
    x_base = b.alloc_words(rows, rng.randints(0, 9, rows))
    y_base = b.alloc_words(rows, 0)

    b.li(3, WORD_BYTES)
    b.li(9, rows)
    b.li(1, 0)                          # row index
    b.label("row")
    b.mul(4, 1, 3)
    b.li(10, off_base)
    b.add(10, 10, 4)
    b.load(5, 10, 0)
    b.load(6, 10, WORD_BYTES)
    b.li(20, 0)
    b.label("nz")
    b.bge(5, 6, "row_done")
    b.mul(7, 5, 3)
    b.li(11, col_base)
    b.add(11, 11, 7)
    b.load(8, 11, 0)
    b.li(12, val_base)
    b.add(12, 12, 7)
    b.load(21, 12, 0)
    b.mul(8, 8, 3)
    b.li(13, x_base)
    b.add(13, 13, 8)
    b.annotate("x_gather")
    b.load(22, 13, 0)
    b.fmul(23, 21, 22)
    b.fadd(20, 20, 23)
    _payload_work(b, 22, 28, payload, scratch=25, scratch2=26)
    b.addi(5, 5, 1)
    b.jump("nz")
    b.label("row_done")
    b.li(14, y_base)
    b.add(14, 14, 4)
    b.store(14, 20, 0)
    b.addi(1, 1, 1)
    b.blt(1, 9, "row")
    b.halt()
    return b.build()


@_register("random_compute")
def random_compute(iterations: int = 4096, rng: DeterministicRng = None,
                   name: str = "random_compute") -> Program:
    """Embarrassingly-parallel pseudo-random number crunching (NPB EP).

    Almost no memory traffic; long multiply/divide dependence chains make it
    a value-reuse rather than a prefetching target.
    """
    rng = rng or DeterministicRng(13)
    b = ProgramBuilder(name)
    out = b.alloc_words(16, 0)

    b.li(2, rng.randint(1, 1 << 16))    # LCG state
    b.li(4, 1103515245 & 0x7FFFFFFF)
    b.li(5, 12345)
    b.li(6, 1 << 31)
    b.li(1, iterations)
    b.li(20, 0)
    b.label("loop")
    b.mul(2, 2, 4)
    b.add(2, 2, 5)
    b.mod(2, 2, 6)
    b.fmul(21, 2, 2)
    b.fdiv(22, 21, 6)
    b.add(20, 20, 22)
    b.andi(23, 2, 15 * WORD_BYTES)
    b.li(10, out)
    b.add(10, 10, 23)
    b.store(10, 20, 0)
    b.addi(1, 1, -1)
    b.bnez(1, "loop")
    b.halt()
    return b.build()


# ---------------------------------------------------------------------------
# Mixed kernels (bzip2, h264, STARBENCH media style)
# ---------------------------------------------------------------------------
@_register("histogram")
def histogram(samples: int = 4096, buckets: int = 256, payload: int = 4,
              rng: DeterministicRng = None, name: str = "histogram") -> Program:
    """Scatter increments into a bucket array indexed by random input data."""
    rng = rng or DeterministicRng(14)
    b = ProgramBuilder(name)
    data = b.alloc_words(samples, rng.randints(0, buckets - 1, samples))
    hist = b.alloc_words(buckets, 0)

    b.li(10, data)
    b.li(3, WORD_BYTES)
    b.li(1, samples)
    b.label("loop")
    b.load(20, 10, 0)
    b.mul(21, 20, 3)
    b.li(11, hist)
    b.add(11, 11, 21)
    b.annotate("bucket_load")
    b.load(22, 11, 0)
    b.addi(22, 22, 1)
    b.annotate("bucket_store")
    b.store(11, 22, 0)
    _payload_work(b, 22, 28, payload, scratch=25, scratch2=26)
    b.addi(10, 10, WORD_BYTES)
    b.addi(1, 1, -1)
    b.bnez(1, "loop")
    b.halt()
    return b.build()


@_register("run_length")
def run_length(elements: int = 4096, run_bias: float = 0.8,
               rng: DeterministicRng = None, name: str = "run_length") -> Program:
    """Run-length style scan with mostly-biased branches (bzip2 / compression)."""
    rng = rng or DeterministicRng(15)
    b = ProgramBuilder(name)
    values = []
    current = rng.randint(0, 3)
    for _ in range(elements):
        if rng.random() > run_bias:
            current = rng.randint(0, 3)
        values.append(current)
    data = b.alloc_words(elements, values)
    out = b.alloc_words(elements, 0)

    b.li(10, data)
    b.li(11, out)
    b.li(1, elements - 1)
    b.li(20, 0)                          # run counter
    b.load(2, 10, 0)                     # previous value
    b.addi(10, 10, WORD_BYTES)
    b.label("loop")
    b.load(21, 10, 0)
    b.sub(22, 21, 2)
    b.bnez(22, "new_run")
    b.addi(20, 20, 1)
    b.jump("next")
    b.label("new_run")
    b.store(11, 20, 0)
    b.addi(11, 11, WORD_BYTES)
    b.li(20, 0)
    b.mov(2, 21)
    b.label("next")
    b.addi(10, 10, WORD_BYTES)
    b.addi(1, 1, -1)
    b.bnez(1, "loop")
    b.halt()
    return b.build()


@_register("pixel_filter")
def pixel_filter(pixels: int = 4096, payload: int = 4, rng: DeterministicRng = None,
                 name: str = "pixel_filter") -> Program:
    """Streaming pixel transform with a clamp branch (STARBENCH rgbyuv/rotate)."""
    rng = rng or DeterministicRng(16)
    b = ProgramBuilder(name)
    src = b.alloc_words(pixels, rng.randints(0, 255, pixels))
    dst = b.alloc_words(pixels, 0)

    b.li(10, src)
    b.li(11, dst)
    b.li(1, pixels)
    b.li(4, 77)                          # filter coefficient
    b.li(5, 200)                         # clamp threshold
    b.li(6, 255)
    b.li(7, 128)
    b.label("loop")
    b.annotate("pixel_load")
    b.load(20, 10, 0)
    b.mul(21, 20, 4)
    b.shr(21, 21, 7)
    b.blt(21, 5, "no_clamp")
    b.mov(21, 6)
    b.label("no_clamp")
    _payload_work(b, 20, 28, payload, scratch=25, scratch2=26)
    b.annotate("pixel_store")
    b.store(11, 21, 0)
    b.addi(10, 10, WORD_BYTES)
    b.addi(11, 11, WORD_BYTES)
    b.addi(1, 1, -1)
    b.bnez(1, "loop")
    b.halt()
    return b.build()


@_register("kmeans_assign")
def kmeans_assign(points: int = 1024, clusters: int = 8, payload: int = 4,
                  rng: DeterministicRng = None, name: str = "kmeans_assign") -> Program:
    """K-means assignment step: distance to each centroid, keep the minimum."""
    rng = rng or DeterministicRng(17)
    b = ProgramBuilder(name)
    pts = b.alloc_words(points, rng.randints(0, 1023, points))
    centroids = b.alloc_words(clusters, rng.randints(0, 1023, clusters))
    assign = b.alloc_words(points, 0)

    b.li(3, WORD_BYTES)
    b.li(9, clusters)
    b.li(10, pts)
    b.li(12, assign)
    b.li(1, points)
    b.label("point")
    b.load(20, 10, 0)                    # point value
    b.li(21, 1 << 30)                    # best distance
    b.li(22, 0)                          # best cluster
    b.li(2, 0)                           # cluster index
    b.label("cluster")
    b.mul(4, 2, 3)
    b.li(11, centroids)
    b.add(11, 11, 4)
    b.load(23, 11, 0)
    b.sub(24, 20, 23)
    b.mul(24, 24, 24)                    # squared distance
    b.bge(24, 21, "not_better")
    b.mov(21, 24)
    b.mov(22, 2)
    b.label("not_better")
    _payload_work(b, 23, 28, payload, scratch=25, scratch2=26)
    b.addi(2, 2, 1)
    b.blt(2, 9, "cluster")
    b.store(12, 22, 0)
    b.addi(10, 10, WORD_BYTES)
    b.addi(12, 12, WORD_BYTES)
    b.addi(1, 1, -1)
    b.bnez(1, "point")
    b.halt()
    return b.build()


@_register("recursive_calls")
def recursive_calls(depth: int = 9, repeats: int = 24,
                    rng: DeterministicRng = None, name: str = "recursive_calls") -> Program:
    """Fibonacci-style recursion exercising CALL/RET and the return stack.

    The paper's recycling controller treats recursive call sites as loop
    branches; this kernel supplies exactly that execution shape.
    """
    rng = rng or DeterministicRng(18)
    b = ProgramBuilder(name)
    stack = b.alloc_words(4096, 0)
    sink = b.alloc_words(4, 0)

    b.li(30, stack + 2048 * WORD_BYTES)   # stack pointer in the middle
    b.li(1, repeats)
    b.label("repeat")
    b.li(2, depth)                        # argument n
    b.call("fib")
    b.li(10, sink)
    b.store(10, 20, 0)
    b.addi(1, 1, -1)
    b.bnez(1, "repeat")
    b.halt()

    # fib(n): returns n <= 1 ? n : fib(n-1) + fib(n-2) in r20
    b.label("fib")
    b.li(4, 2)
    b.blt(2, 4, "base_case")
    # push ra and n
    b.store(30, 31, 0)
    b.store(30, 2, WORD_BYTES)
    b.addi(30, 30, 3 * WORD_BYTES)
    b.addi(2, 2, -1)
    b.call("fib")
    # stash fib(n-1); restore n
    b.addi(30, 30, -3 * WORD_BYTES)
    b.store(30, 20, 2 * WORD_BYTES)
    b.load(2, 30, WORD_BYTES)
    b.addi(30, 30, 3 * WORD_BYTES)
    b.addi(2, 2, -2)
    b.call("fib")
    b.addi(30, 30, -3 * WORD_BYTES)
    b.load(21, 30, 2 * WORD_BYTES)
    b.add(20, 20, 21)
    b.load(31, 30, 0)
    b.ret()
    b.label("base_case")
    b.mov(20, 2)
    b.ret()
    return b.build()


@_register("sort_scan")
def sort_scan(elements: int = 512, passes: int = 4, rng: DeterministicRng = None,
              name: str = "sort_scan") -> Program:
    """Bubble-sort-style adjacent compare-and-swap passes (branch + memory mix)."""
    rng = rng or DeterministicRng(19)
    b = ProgramBuilder(name)
    data = b.alloc_words(elements, rng.randints(0, 1 << 16, elements))

    b.li(1, passes)
    b.label("pass")
    b.li(10, data)
    b.li(2, elements - 1)
    b.label("scan")
    b.load(20, 10, 0)
    b.load(21, 10, WORD_BYTES)
    b.bge(21, 20, "ordered")
    b.store(10, 21, 0)
    b.store(10, 20, WORD_BYTES)
    b.label("ordered")
    b.addi(10, 10, WORD_BYTES)
    b.addi(2, 2, -1)
    b.bnez(2, "scan")
    b.addi(1, 1, -1)
    b.bnez(1, "pass")
    b.halt()
    return b.build()


@_register("string_match")
def string_match(haystack: int = 4096, needle: int = 6,
                 rng: DeterministicRng = None, name: str = "string_match") -> Program:
    """Sliding-window string comparison (STARBENCH / text-processing flavour)."""
    rng = rng or DeterministicRng(20)
    b = ProgramBuilder(name)
    alphabet = 4
    text = rng.randints(0, alphabet - 1, haystack)
    pattern = rng.randints(0, alphabet - 1, needle)
    text_base = b.alloc_words(haystack, text)
    pat_base = b.alloc_words(needle, pattern)

    b.li(1, haystack - needle)
    b.li(10, text_base)
    b.li(20, 0)                          # match count
    b.li(9, needle)
    b.li(3, WORD_BYTES)
    b.label("window")
    b.li(2, 0)                           # position within the needle
    b.label("compare")
    b.bge(2, 9, "matched")
    b.mul(4, 2, 3)
    b.add(5, 10, 4)
    b.load(21, 5, 0)
    b.li(11, pat_base)
    b.add(11, 11, 4)
    b.load(22, 11, 0)
    b.sub(23, 21, 22)
    b.bnez(23, "mismatch")
    b.addi(2, 2, 1)
    b.jump("compare")
    b.label("matched")
    b.addi(20, 20, 1)
    b.label("mismatch")
    b.addi(10, 10, WORD_BYTES)
    b.addi(1, 1, -1)
    b.bnez(1, "window")
    b.halt()
    return b.build()
