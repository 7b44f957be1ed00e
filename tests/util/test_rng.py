"""Tests for the deterministic RNG wrapper."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.rng import DeterministicRng


def test_same_seed_gives_same_stream():
    a = DeterministicRng(7)
    b = DeterministicRng(7)
    assert [a.randint(0, 100) for _ in range(20)] == [b.randint(0, 100) for _ in range(20)]


def test_different_seeds_diverge():
    a = DeterministicRng(1)
    b = DeterministicRng(2)
    assert [a.randint(0, 10**6) for _ in range(10)] != [b.randint(0, 10**6) for _ in range(10)]


def test_fork_is_independent_of_parent_consumption():
    parent_a = DeterministicRng(5)
    child_a = parent_a.fork(1)
    first = [child_a.randint(0, 1000) for _ in range(5)]

    parent_b = DeterministicRng(5)
    parent_b.randint(0, 1000)           # consume from the parent first
    child_b = parent_b.fork(1)
    second = [child_b.randint(0, 1000) for _ in range(5)]
    assert first == second


def test_geometric_distribution_bounds():
    rng = DeterministicRng(3)
    draws = [rng.geometric(0.5) for _ in range(200)]
    assert all(d >= 1 for d in draws)
    assert 1.5 < sum(draws) / len(draws) < 3.0


def test_geometric_rejects_bad_probability():
    rng = DeterministicRng(0)
    with pytest.raises(ValueError):
        rng.geometric(0.0)
    with pytest.raises(ValueError):
        rng.geometric(1.5)


def test_permutation_contains_all_elements():
    rng = DeterministicRng(9)
    perm = rng.permutation(50)
    assert sorted(perm) == list(range(50))


def test_bernoulli_extremes():
    rng = DeterministicRng(4)
    assert not any(rng.bernoulli(0.0) for _ in range(100))
    assert all(rng.bernoulli(1.0) for _ in range(100))


@pytest.mark.parametrize("lo, hi", [
    (0, 1), (0, 100), (5, 5), (-7, -7), (-1000, 1000), (-2 ** 40, 3),
    (0, 2 ** 32), (0, 2 ** 32 + 12345), (-(2 ** 70), 2 ** 65 + 1),
])
def test_randint_draws_exactly_what_random_random_draws(lo, hi):
    import random

    ours, reference = DeterministicRng(11), random.Random(11)
    assert [ours.randint(lo, hi) for _ in range(200)] == [
        reference.randint(lo, hi) for _ in range(200)]
    assert ours.getstate() == reference.getstate()


@pytest.mark.parametrize("lo, hi", [(5, 4), (True, 3)])
def test_randint_outside_the_fast_path_behaves_like_random_random(lo, hi):
    import random

    ours, reference = DeterministicRng(3), random.Random(3)
    try:
        expected = [reference.randint(lo, hi) for _ in range(5)]
    except (ValueError, TypeError) as error:
        with pytest.raises(type(error)):
            ours.randint(lo, hi)
        return
    assert [ours.randint(lo, hi) for _ in range(5)] == expected
    assert ours.getstate() == reference.getstate()


_WIDTHS = st.one_of(
    st.just(1),
    st.integers(0, 32).map(lambda k: 1 << k),          # 2**k, 2**32 included
    st.integers(0, 31).map(lambda k: (1 << k) + 1),    # 2**k + 1
    st.integers(1, 1 << 32),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), lo=st.integers(-(1 << 40), 1 << 20),
       width=_WIDTHS, n=st.integers(0, 3000))
def test_randints_is_the_randint_stream(seed, lo, width, n):
    batched, per_call = DeterministicRng(seed), DeterministicRng(seed)
    hi = lo + width - 1
    assert batched.randints(lo, hi, n) == [per_call.randint(lo, hi)
                                          for _ in range(n)]
    assert batched.getstate() == per_call.getstate()


def test_randints_rejects_an_empty_range_like_randint():
    rng = DeterministicRng(3)
    with pytest.raises(ValueError):
        rng.randint(5, 4)
    with pytest.raises(ValueError):
        rng.randints(5, 4, 3)
    assert rng.randints(5, 4, 0) == []
