import numpy as np
import pytest

import helpers
import invariant_suite
from hgsim import boolfn, extract, statesim
from hgsim.boolfn import StateVector


def test_all_plus_extracts_empty_graph():
    h = extract.extract_layered(StateVector(3, 0))
    assert h.edges == frozenset()
    assert extract.extract_fast(StateVector(3, 0)) == h


def test_mixed_order_table_extracts_three_edges():
    tt = boolfn.truth_table_from_hex("EA", 3)
    want = frozenset({frozenset({1}), frozenset({2, 3}), frozenset({1, 2, 3})})
    assert helpers.edge_sets(extract.extract_layered(tt)) == want
    assert helpers.edge_sets(extract.extract_fast(tt)) == want


def test_single_minus_extracts_full_edge():
    tt = boolfn.truth_table_from_hex("80", 3)
    want = frozenset({frozenset({1, 2, 3})})
    assert helpers.edge_sets(extract.extract_layered(tt)) == want
    assert helpers.edge_sets(extract.extract_fast(tt)) == want


def test_unnormalized_table_is_rejected():
    for fn in (extract.extract_layered, extract.extract_fast):
        with pytest.raises(ValueError):
            fn(StateVector(3, 0b1))


def test_methods_agree_on_random_tables():
    rng = np.random.default_rng(17)
    for _ in range(100):
        tt = helpers.random_table(10, rng, normalized=True)
        assert extract.extract_layered(tt) == extract.extract_fast(tt)


def test_round_trip_with_build():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 11))
        tt = helpers.random_table(n, rng, normalized=True)
        h = extract.extract_fast(tt)
        assert statesim.build_state(h).signs == tt.signs
        assert extract.extract_fast(statesim.build_state(h)) == h


def test_classify_balance_constant():
    assert extract.classify_balance(StateVector(3, 0)) == extract.BalanceReport(
        extract.CONSTANT, False
    )
    assert extract.classify_balance(StateVector(3, 0xFF)) == extract.BalanceReport(
        extract.CONSTANT, False
    )


def test_classify_balance_mixed_table_is_unbalanced_with_full_edge():
    # five of eight minus signs: odd count forces the full edge
    report = extract.classify_balance(boolfn.truth_table_from_hex("EA", 3))
    assert report == extract.BalanceReport(extract.UNBALANCED, True)


def test_classify_balance_balanced_variant():
    # same table with a plus on the all-ones component
    tt = boolfn.truth_table_from_hex("6A", 3)
    report = extract.classify_balance(tt)
    assert report == extract.BalanceReport(extract.BALANCED, False)
    assert helpers.edge_sets(extract.extract_fast(tt)) == frozenset(
        {frozenset({1}), frozenset({2, 3})}
    )


def test_full_edge_parity_exhaustive_n3():
    for bits in range(0, 256, 2):
        tt = StateVector(3, bits)
        has_full = frozenset({1, 2, 3}) in helpers.edge_sets(extract.extract_fast(tt))
        assert has_full == bool(tt.weight() & 1)
        assert extract.classify_balance(tt).full_edge == has_full


def test_layered_erases_levels_in_order():
    # after processing level k the working table has no minus below level k+1;
    # recorded edges at level 1 are exactly the original single-excitation minuses
    tt = boolfn.truth_table_from_hex("EA", 3)
    h = extract.extract_layered(tt)
    level1 = {e for e in helpers.edge_sets(h) if len(e) == 1}
    assert level1 == {frozenset({1})}


def test_invariant_suite():
    invariant_suite.check_extract(42, tables=1500)
