"""Flattened per-instruction metadata for the compiled tick loop.

``decode_trace`` turns a trace window into typed flat arrays without
building an object: every run-invariant attribute of a *static*
instruction (flags, latency, registers) sits in its program's
:class:`StaticTable`, one row per PC, and decoding is a gather of those
rows at the window's ``pc`` column plus the window's own ``ea``, taken bit,
``next_pc`` and seq columns (natively by the kernel's ``gather_decoded``).
A skeleton's look-ahead window is decoded the same way: it is a selection
(:meth:`~repro.emulator.trace.Trace.select`) whose columns carry their
rows' seqs.

:class:`DecodedTraceCache` memoizes the result by the window's content key
(:attr:`~repro.emulator.trace.Trace.key`: root columns, row range and
selected PCs), so every simulation of a window after the first decodes
nothing, whichever trace object names it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.emulator.trace import TAKEN, Trace
from repro.isa.instructions import FU_POOL_FP, Opcode

#: Decoded static flags (must match kernel.c).
F_BRANCH = 1
F_MEM = 2
F_LOAD = 4
F_STORE = 8
F_CONTROL = 16
F_FP = 32
F_WRITES = 64
#: Validation-scoreboard-skippable op class (see dla.value_reuse).
F_SKIPPABLE = 128
#: Dynamic taken bit (per entry, not per static).
F_TAKEN = 256
#: Unconditional-control subtypes for the kernel's native branch unit.
F_CALL = 512
F_RET = 1024


@dataclass
class DecodedTrace:
    """Typed flat arrays over one trace window (zero-copy C kernel inputs)."""

    n: int
    ba: array          # 'q' byte addresses
    flags: array       # 'q' F_* bit masks
    ea: array          # 'q' effective addresses (0 for non-memory ops)
    lat: array         # 'd' execution latencies
    dst: array         # 'q' destination registers (0 unless F_WRITES)
    sb_dst: array      # 'q' scoreboard destination (raw dst; -1 for None)
    srcs: array        # 'q' flattened source registers
    srcs_off: array    # 'q' per-instruction offsets into ``srcs`` (n + 1)
    seq: array         # 'q' dynamic trace seq numbers
    pcs: array         # 'q' per-instruction PCs
    nxt: array         # 'q' dynamic next PCs (control-flow targets)
    num_regs: int      # dense register-file bound for the C scoreboard


@dataclass
class StaticTable:
    """One program's decoded static rows as arrays indexed by PC.

    ``srcs[srcs_off[pc]:srcs_off[pc + 1]]`` are the PC's source registers;
    ``max_reg`` its highest register.
    """

    ba: array          # 'q'
    flags: array       # 'q' F_* bits (no F_TAKEN)
    lat: array         # 'd'
    dst: array         # 'q'
    sb_dst: array      # 'q'
    max_reg: array     # 'q'
    srcs: array        # 'q'
    srcs_off: array    # 'q' (PCs + 1)

    def spec(self, **extra) -> dict:
        """The kernel's view of the table (zero-copy), plus ``extra``."""
        return dict(s_ba=self.ba, s_flags=self.flags, s_lat=self.lat,
                    s_dst=self.dst, s_sb=self.sb_dst, s_max=self.max_reg,
                    s_srcs=self.srcs, s_off=self.srcs_off, **extra)


_SKIPPABLE_CODES: Optional[frozenset] = None


def _skippable_codes() -> frozenset:
    # Deferred so importing this module never pulls in the DLA package;
    # the set itself is owned by the scoreboard it mirrors.
    global _SKIPPABLE_CODES
    if _SKIPPABLE_CODES is None:
        from repro.dla.value_reuse import ValidationScoreboard

        _SKIPPABLE_CODES = ValidationScoreboard._SKIPPABLE_CODES
    return _SKIPPABLE_CODES


#: Static tables by the identity of their program, which is retained so
#: ids can never be recycled.  Tables are never pickled with a program.
_STATIC_ROWS: Dict[int, StaticTable] = {}
_STATIC_RETAIN: Dict[int, object] = {}
_STATIC_MAX = 64


def _decode_static(static) -> tuple:
    packed = 0
    if static.is_branch:
        packed |= F_BRANCH
    if static.is_memory:
        packed |= F_MEM
    if static.is_load:
        packed |= F_LOAD
    if static.is_store:
        packed |= F_STORE
    if static.is_control:
        packed |= F_CONTROL
        opcode = static.opcode
        if opcode is Opcode.CALL:
            packed |= F_CALL
        elif opcode is Opcode.RET:
            packed |= F_RET
    if static.fu_pool == FU_POOL_FP:
        packed |= F_FP
    if static.class_code in _skippable_codes():
        packed |= F_SKIPPABLE
    dst = 0
    max_reg = 0
    if static.writes_register:
        packed |= F_WRITES
        dst = static.dst
        max_reg = dst
    # The scoreboard keys on the *raw* destination: the zero register
    # participates in the validated set even though it never gates reads.
    sb_dst = static.dst if static.dst is not None else -1
    if sb_dst > max_reg:
        max_reg = sb_dst
    for src in static.srcs:
        if src > max_reg:
            max_reg = src
    return (static.byte_address, packed, static.latency_cycles, dst, sb_dst,
            static.srcs, max_reg)


def static_table(program) -> StaticTable:
    """The (memoized) static table of ``program``, indexable by PC."""
    token = id(program)
    table = _STATIC_ROWS.get(token)
    if table is not None:
        return table
    size = len(program)
    table = StaticTable(*(array(code, bytes(8 * size)) for code in "qqdqqq"),
                        srcs=array("q"), srcs_off=array("q", bytes(8)))
    for pc, static in enumerate(program):
        (table.ba[pc], table.flags[pc], table.lat[pc], table.dst[pc],
         table.sb_dst[pc], srcs, table.max_reg[pc]) = _decode_static(static)
        table.srcs.extend(srcs)
        table.srcs_off.append(len(table.srcs))
    if len(_STATIC_ROWS) >= _STATIC_MAX:
        _STATIC_ROWS.clear()
        _STATIC_RETAIN.clear()
    _STATIC_ROWS[token] = table
    _STATIC_RETAIN[token] = program
    return table


def decode_trace(window: Trace) -> DecodedTrace:
    """The window's decoded arrays, unmemoized: a gather of its program's
    table rows at its ``pc`` column."""
    table = static_table(window.program)
    columns = window.columns
    from repro.core.compile import native_kernel

    kernel = native_kernel()
    if kernel is not None:
        *flat, num_regs = kernel.gather_decoded(table.spec(**columns._spec()))
        ba, flags, ea, lat, dst, sb_dst, srcs, srcs_off, seq, pcs, nxt = (
            array(code, column) for code, column in zip("qqqdqqqqqqq", flat))
        return DecodedTrace(len(columns), ba, flags, ea, lat, dst, sb_dst,
                            srcs, srcs_off, seq, pcs, nxt, num_regs)
    return _gather(table, columns)


def _gather(table: StaticTable, columns) -> DecodedTrace:
    """The reference gather (the kernel's ``gather_decoded``)."""
    n = len(columns)
    pcs = array("q", columns.pc)
    decoded = DecodedTrace(
        n=n, ba=array("q", (table.ba[pc] for pc in pcs)),
        flags=array("q", (table.flags[pc] | (F_TAKEN if flags & TAKEN else 0)
                          for pc, flags in zip(pcs, columns.flags))),
        ea=array("q", columns.ea), lat=array("d", (table.lat[pc] for pc in pcs)),
        dst=array("q", (table.dst[pc] for pc in pcs)),
        sb_dst=array("q", (table.sb_dst[pc] for pc in pcs)),
        srcs=array("q"), srcs_off=array("q"), seq=array("q", columns.seqs()),
        pcs=pcs, nxt=array("q", columns.next_pc),
        num_regs=max((table.max_reg[pc] for pc in pcs), default=0) + 1)
    off = table.srcs_off
    for pc in pcs:
        decoded.srcs_off.append(len(decoded.srcs))
        decoded.srcs.extend(table.srcs[off[pc]:off[pc + 1]])
    decoded.srcs_off.append(len(decoded.srcs))
    if not decoded.srcs:
        decoded.srcs.append(0)  # keep the buffer non-empty for the kernel
    return decoded


def replay_inputs(window: Trace) -> Tuple[array, array, array]:
    """The ``(ba, flags, ea)`` arrays warm-up replay reads, decoded without
    the process-wide memo (the warm memo keeps just these three)."""
    decoded = decode_trace(window)
    return decoded.ba, decoded.flags, decoded.ea


class DecodedTraceCache:
    """Bounded LRU memo of :class:`DecodedTrace` by window content key."""

    MAX_ENTRIES = 256

    def __init__(self, max_entries: int = MAX_ENTRIES) -> None:
        self._decoded: Dict[tuple, DecodedTrace] = {}
        self.max_entries = max_entries
        self.decodes = 0
        self.hits = 0

    def get(self, window: Trace) -> DecodedTrace:
        key = window.key
        decoded = self._decoded.pop(key, None)
        if decoded is not None:
            self.hits += 1
            # LRU: re-insert so hot windows outlive one-shot ones.
            self._decoded[key] = decoded
            return decoded
        decoded = decode_trace(window)
        while len(self._decoded) >= self.max_entries:
            del self._decoded[next(iter(self._decoded))]
        self._decoded[key] = decoded
        self.decodes += 1
        return decoded

    def clear(self) -> None:
        self._decoded.clear()


#: Process-wide memo shared by every compiled run.
_DECODED = DecodedTraceCache()


def get_decoded(window: Trace) -> DecodedTrace:
    return _DECODED.get(window)


def decoded_cache_stats() -> Dict[str, int]:
    return {"decodes": _DECODED.decodes, "hits": _DECODED.hits,
            "retained": len(_DECODED._decoded)}
