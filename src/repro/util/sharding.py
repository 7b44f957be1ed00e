"""Deterministic shard partitioning shared by campaigns and the test suite.

One definition of "shard i of N" for the whole project: the CI matrix, the
``repro run --shard i/N`` static campaign partitioning and the pytest
``--shard`` option all call :func:`partition`, so their partitions are
guaranteed disjoint and exhaustive by the same code.

The scheme is round-robin over the *sorted* name list: sorting makes the
partition independent of discovery order (two hosts enumerating cells or
collecting tests in different orders still agree on who owns what), and
round-robin keeps shard sizes balanced to within one element.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple


class ShardError(ValueError):
    """An ``i/N`` shard specification failed validation."""


def parse_shard(spec: str) -> Tuple[int, int]:
    """Parse ``"i/N"`` into ``(index, count)``; raises :class:`ShardError`.

    ``index`` is zero-based and must satisfy ``0 <= index < count``.
    """
    text = str(spec).strip()
    parts = text.split("/")
    if len(parts) != 2:
        raise ShardError(f"shard spec {spec!r} is not of the form i/N")
    try:
        index, count = int(parts[0]), int(parts[1])
    except ValueError:
        raise ShardError(f"shard spec {spec!r} is not of the form i/N") from None
    if count <= 0:
        raise ShardError(f"shard spec {spec!r}: N must be positive")
    if not 0 <= index < count:
        raise ShardError(
            f"shard spec {spec!r}: index must be in [0, {count})"
        )
    return index, count


def partition(names: Iterable[str], index: int, count: int) -> List[str]:
    """The members of shard ``index`` of ``count``, in sorted order.

    Round-robin over the sorted input: shard ``i`` owns the i-th, (i+N)-th,
    ... sorted names.  Across ``i = 0..N-1`` the shards are disjoint and
    cover the input exactly (duplicates collapse — inputs are name sets).
    """
    if count <= 0:
        raise ShardError("shard count must be positive")
    if not 0 <= index < count:
        raise ShardError(f"shard index {index} must be in [0, {count})")
    ordered = sorted(set(names))
    return ordered[index::count]
