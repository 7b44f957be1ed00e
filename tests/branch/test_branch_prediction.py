"""Tests for branch predictors, the BTB and the return-address stack."""

import pytest

from repro.branch.btb import BranchTargetBuffer
from repro.branch.predictors import BimodalPredictor, TageLitePredictor
from repro.branch.ras import ReturnAddressStack
from repro.util.rng import DeterministicRng


ALL_PREDICTORS = {"bimodal": BimodalPredictor, "tage": TageLitePredictor}


@pytest.mark.parametrize("name", ALL_PREDICTORS)
def test_always_taken_branch_learned_quickly(name):
    predictor = ALL_PREDICTORS[name]()
    correct = 0
    for i in range(200):
        if predictor.predict(0x40):
            correct += 1
        predictor.update(0x40, True)
    assert correct > 180


@pytest.mark.parametrize("name", ALL_PREDICTORS)
def test_alternating_pattern_learned_by_history_predictors(name):
    predictor = ALL_PREDICTORS[name]()
    correct = 0
    total = 400
    for i in range(total):
        taken = bool(i % 2)
        if predictor.predict(0x80) == taken:
            correct += 1
        predictor.update(0x80, taken)
    if name == "tage":
        assert correct / total > 0.8, f"{name} should learn a period-2 pattern"
    else:
        # A bimodal predictor fundamentally cannot learn a period-2 pattern;
        # depending on phase it lands anywhere between 0% and 100%.
        assert 0.0 <= correct / total <= 1.0


def test_tage_beats_bimodal_on_correlated_history():
    """A pattern where direction depends on the previous two outcomes."""
    rng = DeterministicRng(3)
    def run(predictor):
        history = [True, False]
        correct = 0
        for i in range(600):
            taken = history[-1] ^ history[-2]
            if predictor.predict(0x44) == taken:
                correct += 1
            predictor.update(0x44, taken)
            history.append(taken)
        return correct
    assert run(TageLitePredictor()) > run(BimodalPredictor())


def test_predictor_reset_clears_training():
    predictor = TageLitePredictor()
    for i in range(100):
        predictor.update(0x10, bool(i % 2))
    predictor.reset()
    # After reset the history, the tagged tables and the base counters are
    # back at their initial values.
    assert predictor._history == 0
    assert not any(predictor._present)
    assert set(predictor.base._table) == {predictor.base.threshold}


def test_btb_lookup_update_and_eviction():
    btb = BranchTargetBuffer(entries=8, associativity=2)
    assert btb.lookup(0x100) is None
    btb.update(0x100, 0x200)
    assert btb.lookup(0x100) == 0x200
    assert btb.contains(0x100)
    # Fill one set beyond associativity to force an eviction.
    conflicting = [0x100 + i * btb.num_sets for i in range(1, 4)]
    for i, pc in enumerate(conflicting):
        btb.update(pc, pc + 1, now=i + 10)
    present = [pc for pc in [0x100] + conflicting if btb.contains(pc)]
    assert len(present) == 2
    assert btb.hits == 1 and btb.misses == 1


def test_btb_rejects_bad_geometry():
    with pytest.raises(ValueError):
        BranchTargetBuffer(entries=10, associativity=3)


def test_ras_matches_call_return_nesting():
    ras = ReturnAddressStack(depth=8)
    for address in (10, 20, 30):
        ras.push(address)
    assert ras.pop() == 30
    assert ras.pop() == 20
    assert ras.pop() == 10
    assert ras.pop() is None
    assert ras.underflows == 1


def test_ras_overflow_drops_oldest():
    ras = ReturnAddressStack(depth=2)
    ras.push(1)
    ras.push(2)
    ras.push(3)
    assert ras.overflows == 1
    assert ras.pop() == 3
    assert ras.pop() == 2
    assert ras.pop() is None


def test_ras_rejects_bad_depth():
    with pytest.raises(ValueError):
        ReturnAddressStack(0)


def test_tage_lookup_matches_hash_helpers():
    """The fused ``_lookup`` inlines the ``_index``/``_tag`` hash formulas;
    allocation still uses the helpers.  If the two copies ever diverge,
    allocated entries become unfindable and accuracy silently collapses to
    the bimodal base — this pins them together."""
    predictor = TageLitePredictor()
    rng = DeterministicRng(7)
    pcs = [rng.randint(0, 4096) for _ in range(40)]
    for step in range(4000):
        pc = pcs[step % len(pcs)]
        predictor.update(pc, taken=(pc ^ step) % 3 != 0)
        if step % 97 == 0:
            probe = pcs[(step * 13) % len(pcs)]
            provider, index, entry = predictor._lookup(probe)
            expected = None
            for table in reversed(range(predictor.num_tables)):
                candidate = predictor._tables[table].get(predictor._index(probe, table))
                if candidate is not None and candidate.tag == predictor._tag(probe, table):
                    expected = table
                    break
            assert provider == expected
            if provider is not None:
                assert index == predictor._index(probe, provider)
                assert entry.tag == predictor._tag(probe, provider)
    # The pattern above must actually exercise the tagged tables.
    assert any(predictor._tables[t] for t in range(predictor.num_tables))
