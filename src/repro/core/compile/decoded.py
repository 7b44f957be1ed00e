"""Flattened per-instruction metadata for the compiled tick loop.

``decode_trace`` turns a committed trace window into typed flat arrays (one
attribute chase per instruction *per process* instead of per simulation),
and :class:`DecodedTraceCache` memoizes the result by the entry list's
identity — the same id-keyed scheme :class:`repro.core.system.WarmupMemo`
uses, with strong references retained so ids can never be recycled.  The
experiment runners hand out one entries list per workload window, so every
simulation of a window after the first decodes nothing.

Decoding itself is two-level: every run-invariant attribute of a *static*
instruction (flags, latency, registers) is memoized per ``StaticInst``
object, which is shared by all of its dynamic occurrences — so even a
fresh entries list (a skeleton-filtered window, a segment slice) decodes
at one dict lookup per instruction rather than ten attribute chases.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.emulator.trace import DynamicInst
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
    seq: array         # 'q' dynamic trace seq numbers (-1 for None)
    pcs: array         # 'q' per-instruction PCs
    nxt: array         # 'q' dynamic next PCs (control-flow targets)
    num_regs: int      # dense register-file bound for the C scoreboard


_SKIPPABLE_CODES: Optional[frozenset] = None


def _skippable_codes() -> frozenset:
    # Deferred so importing this module never pulls in the DLA package;
    # the set itself is owned by the scoreboard it mirrors.
    global _SKIPPABLE_CODES
    if _SKIPPABLE_CODES is None:
        from repro.dla.value_reuse import ValidationScoreboard

        _SKIPPABLE_CODES = ValidationScoreboard._SKIPPABLE_CODES
    return _SKIPPABLE_CODES


#: Per-StaticInst decoded rows, id-keyed with strong refs retained (statics
#: are shared by every dynamic occurrence and every window over them).
_STATIC_ROWS: Dict[int, tuple] = {}
_STATIC_RETAIN: Dict[int, object] = {}
_STATIC_MAX = 1 << 16


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
            static.srcs, static.pc, max_reg)


def _decode_static_row(static) -> tuple:
    """Decode + memoize one static's row (the C decoder's miss callback)."""
    row = _decode_static(static)
    rows = _STATIC_ROWS
    if len(rows) >= _STATIC_MAX:
        rows.clear()
        _STATIC_RETAIN.clear()
    rows[id(static)] = row
    _STATIC_RETAIN[id(static)] = static
    return row


def decode_trace(entries: Sequence[DynamicInst]) -> DecodedTrace:
    n = len(entries)
    if isinstance(entries, list):
        from repro.core.compile import native_kernel

        kernel = native_kernel()
        if kernel is not None:
            (b_ba, b_flags, b_ea, b_lat, b_dst, b_sb, b_srcs, b_off,
             b_seq, b_pcs, b_nxt, num_regs) = kernel.decode_trace_flat(
                entries, _STATIC_ROWS, _decode_static_row)
            return DecodedTrace(
                n=n, ba=array("q", b_ba), flags=array("q", b_flags),
                ea=array("q", b_ea), lat=array("d", b_lat),
                dst=array("q", b_dst), sb_dst=array("q", b_sb),
                srcs=array("q", b_srcs), srcs_off=array("q", b_off),
                seq=array("q", b_seq), pcs=array("q", b_pcs),
                nxt=array("q", b_nxt), num_regs=num_regs,
            )
    ba = array("q", bytes(8 * n))
    flags = array("q", bytes(8 * n))
    ea = array("q", bytes(8 * n))
    lat = array("d", bytes(8 * n))
    dst = array("q", bytes(8 * n))
    sb_dst = array("q", bytes(8 * n))
    srcs = array("q")
    srcs_off = array("q", bytes(8 * (n + 1)))
    seq = array("q", bytes(8 * n))
    pcs = array("q", bytes(8 * n))
    nxt = array("q", bytes(8 * n))
    max_reg = 0
    rows = _STATIC_ROWS
    for i, entry in enumerate(entries):
        static = entry.static
        token = id(static)
        row = rows.get(token)
        if row is None:
            row = _decode_static(static)
            if len(rows) >= _STATIC_MAX:
                rows.clear()
                _STATIC_RETAIN.clear()
            rows[token] = row
            _STATIC_RETAIN[token] = static
        ba[i], flags[i], lat[i], dst[i], sb_dst[i], row_srcs, pcs[i], row_max = row
        if entry.taken:
            flags[i] |= F_TAKEN
        if row_max > max_reg:
            max_reg = row_max
        address = entry.effective_address
        if address is not None:
            ea[i] = address
        nxt[i] = entry.next_pc
        entry_seq = entry.seq
        seq[i] = -1 if entry_seq is None else entry_seq
        srcs_off[i] = len(srcs)
        srcs.extend(row_srcs)
    srcs_off[n] = len(srcs)
    if not len(srcs):
        srcs.append(0)  # keep the buffer non-empty for PyObject_GetBuffer
    return DecodedTrace(
        n=n, ba=ba, flags=flags, ea=ea, lat=lat, dst=dst, sb_dst=sb_dst,
        srcs=srcs, srcs_off=srcs_off, seq=seq, pcs=pcs, nxt=nxt,
        num_regs=max_reg + 1,
    )


def replay_inputs(entries: Sequence[DynamicInst]) -> Tuple[array, array, array]:
    """The ``(ba, flags, ea)`` arrays warm-up replay reads, decoded without
    the process-wide memo (the warm memo keeps just these three)."""
    decoded = decode_trace(entries)
    return decoded.ba, decoded.flags, decoded.ea


class DecodedTraceCache:
    """Bounded id-keyed memo of :class:`DecodedTrace` per entries list."""

    MAX_ENTRIES = 256

    def __init__(self, max_entries: int = MAX_ENTRIES) -> None:
        self._decoded: Dict[int, DecodedTrace] = {}
        #: Strong references keeping id()-keyed entry lists alive.
        self._retained: Dict[int, Sequence[DynamicInst]] = {}
        self.max_entries = max_entries
        self.decodes = 0
        self.hits = 0

    def get(self, entries: Sequence[DynamicInst]) -> DecodedTrace:
        token = id(entries)
        decoded = self._decoded.get(token)
        if decoded is not None and len(entries) == decoded.n:
            self.hits += 1
            # LRU: re-insert so hot windows outlive one-shot lists (e.g.
            # the DLA look-ahead's per-simulation filtered skeletons).
            del self._decoded[token]
            self._decoded[token] = decoded
            return decoded
        decoded = decode_trace(entries)
        while len(self._decoded) >= self.max_entries:
            victim = next(iter(self._decoded))
            del self._decoded[victim]
            self._retained.pop(victim, None)
        self._decoded[token] = decoded
        self._retained[token] = entries
        self.decodes += 1
        return decoded

    def clear(self) -> None:
        self._decoded.clear()
        self._retained.clear()


#: Process-wide memo shared by every compiled run.
_DECODED = DecodedTraceCache()


def get_decoded(entries: Sequence[DynamicInst]) -> DecodedTrace:
    return _DECODED.get(entries)


def decoded_cache_stats() -> Dict[str, int]:
    return {"decodes": _DECODED.decodes, "hits": _DECODED.hits,
            "retained": len(_DECODED._retained)}
