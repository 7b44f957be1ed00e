"""``util.sharding.partition`` edge cases the fleet dispatcher leans on.

The dispatcher hands shard ``i/N`` to each of N hosts without looking at
the cell count first, so over-provisioned fleets (hosts > cells) must
yield *empty* shards for the surplus hosts — empty, disjoint, exhaustive,
and stable under input order and duplicates.
"""

from __future__ import annotations

import pytest

from repro.util.sharding import ShardError, parse_shard, partition


def test_partition_more_shards_than_names_yields_empty_tails():
    names = ["cell-a", "cell-b", "cell-c"]
    shards = [partition(names, i, 5) for i in range(5)]
    assert shards[:3] == [["cell-a"], ["cell-b"], ["cell-c"]]
    assert shards[3] == [] and shards[4] == []
    combined = [name for shard in shards for name in shard]
    assert sorted(combined) == names


def test_partition_of_nothing_is_empty_everywhere():
    assert all(partition([], i, 4) == [] for i in range(4))


def test_partition_single_shard_owns_everything_sorted():
    assert partition(["b", "a", "c"], 0, 1) == ["a", "b", "c"]


def test_partition_collapses_duplicates():
    shards = [partition(["x", "x", "y"], i, 2) for i in range(2)]
    assert shards == [["x"], ["y"]]


def test_partition_round_robin_interleaves():
    names = [f"n{i}" for i in range(7)]
    assert partition(names, 0, 3) == ["n0", "n3", "n6"]
    assert partition(names, 1, 3) == ["n1", "n4"]
    assert partition(names, 2, 3) == ["n2", "n5"]


def test_partition_rejects_bad_indices():
    with pytest.raises(ShardError):
        partition(["a"], 0, 0)
    with pytest.raises(ShardError):
        partition(["a"], 2, 2)
    with pytest.raises(ShardError):
        partition(["a"], -1, 2)


def test_shard_filter_accepts_specs_beyond_the_name_count():
    assert partition(["only"], *parse_shard("3/4")) == []
    assert partition(["only"], *parse_shard("0/4")) == ["only"]
    with pytest.raises(ShardError):
        partition(["only"], *parse_shard("4/4"))


def test_parse_shard_round_trips_into_partition():
    index, count = parse_shard("1/2")
    assert partition(["a", "b", "c"], index, count) == ["b"]
