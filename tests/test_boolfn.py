import pytest

import helpers
import invariant_suite
import numpy as np
from hgsim import _bits, boolfn
from hgsim.errors import FormatError
from hgsim.hypergraph import Hypergraph


def test_hex_parse_zero_function():
    tt = boolfn.truth_table_from_hex("00", 3)
    assert tt.signs == 0
    assert all(tt[x] == 0 for x in range(8))


def test_hex_parse_single_minus_at_seven():
    tt = boolfn.truth_table_from_hex("80", 3)
    assert [tt[x] for x in range(8)] == [0, 0, 0, 0, 0, 0, 0, 1]


def test_hex_parse_low_nibble_holds_small_labels():
    tt = boolfn.truth_table_from_hex("F8", 3)
    assert {x for x in range(8) if tt[x]} == {3, 4, 5, 6, 7}


@pytest.mark.parametrize(
    "digits,n",
    [("8", 3), ("800", 3), ("8G", 3), ("80", 0), ("80", 21)],
)
def test_hex_parse_errors(digits, n):
    with pytest.raises(FormatError):
        boolfn.truth_table_from_hex(digits, n)


def test_table_out_of_range_label():
    tt = boolfn.truth_table_from_hex("80", 3)
    with pytest.raises(IndexError):
        tt[8]


def test_text_format_round_trip():
    tt = boolfn.truth_table_from_hex("EA", 3)
    assert boolfn.from_text(boolfn.to_text(tt)) == tt
    assert boolfn.to_text(tt) == "n 3\nEA\n"


@pytest.mark.parametrize(
    "text",
    ["", "n 3", "n 3\nEA\nEA", "m 3\nEA", "n x\nEA"],
)
def test_text_format_errors(text):
    with pytest.raises(FormatError):
        boolfn.from_text(text)


def test_mobius_zero_function():
    h, constant = boolfn.mobius_transform(boolfn.StateVector(3, 0))
    assert h == Hypergraph(3, []) and constant == 0


def test_mobius_single_one_gives_full_monomial():
    tt = boolfn.StateVector(3, 0x80)
    h, constant = boolfn.mobius_transform(tt)
    assert helpers.edge_sets(h) == frozenset({frozenset({1, 2, 3})})
    assert constant == 0
    assert helpers.brute_anf(tt) == (set(helpers.edge_sets(h)), 0)


def test_mobius_mixed_order_example():
    h, constant = boolfn.mobius_transform(boolfn.truth_table_from_hex("EA", 3))
    assert helpers.edge_sets(h) == frozenset(
        {frozenset({1}), frozenset({2, 3}), frozenset({1, 2, 3})}
    )
    assert constant == 0


def test_mobius_matches_subset_sum_oracle_exhaustively():
    for n in (1, 2, 3):
        for bits in range(1 << (1 << n)):
            tt = boolfn.StateVector(n, bits)
            h, constant = boolfn.mobius_transform(tt)
            assert (set(helpers.edge_sets(h)), constant) == helpers.brute_anf(tt)


def test_mobius_matches_subset_sum_oracle_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(4, 7))
        tt = helpers.random_table(n, rng)
        h, constant = boolfn.mobius_transform(tt)
        assert (set(helpers.edge_sets(h)), constant) == helpers.brute_anf(tt)


def anf_table(h: Hypergraph) -> boolfn.StateVector:
    """The monomial form of h's edges (constant 0) on every input, by the
    package's edges -> table kernel."""
    return boolfn.StateVector(h.n, _bits.table_from_edges(h.masks, h.n))


def test_evaluate_anf_empty_set():
    h = Hypergraph(3, [])
    assert all(anf_table(h)[x] == helpers.evaluate_anf(h, 0, x) == 0 for x in range(8))


def test_evaluate_anf_full_monomial():
    h = Hypergraph.from_sets(3, [{1, 2, 3}])
    assert anf_table(h)[7] == helpers.evaluate_anf(h, 0, 7) == 1
    assert anf_table(h)[6] == helpers.evaluate_anf(h, 0, 6) == 0


def test_evaluate_anf_mixed_example():
    h = Hypergraph.from_sets(3, [{1}, {2, 3}, {1, 2, 3}])
    # x = 5: qubits 1 and 3 excited
    assert anf_table(h)[5] == helpers.evaluate_anf(h, 0, 5) == 1


def test_evaluate_anf_out_of_range():
    h = Hypergraph(3, [])
    with pytest.raises(IndexError):
        anf_table(h)[8]
    with pytest.raises(ValueError):
        helpers.evaluate_anf(h, 0, 8)


def test_empty_monomial_is_the_constant_not_an_edge():
    with pytest.raises(ValueError):
        Hypergraph(3, {0})
    h, constant = boolfn.mobius_transform(boolfn.StateVector(3, 0xFF))
    assert h.masks.size == 0 and constant == 1


def test_constant_is_value_at_zero():
    rng = np.random.default_rng(3)
    for _ in range(20):
        tt = helpers.random_table(int(rng.integers(1, 8)), rng)
        assert boolfn.mobius_transform(tt)[1] == tt[0]


def test_invariant_suite():
    invariant_suite.check_boolfn(42)
