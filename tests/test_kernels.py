"""Property tests: the linear-time bit kernels and the mask-native text layer
against the loop oracles in helpers.py."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from hgsim import _bits, entanglement, hypergraph, orbits, statesim
from hgsim.errors import FormatError
from hgsim.hypergraph import Hypergraph
from hgsim.orbits import OrbitKey

MAX_N = 12
PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def tables(draw, max_n=MAX_N):
    """(n, table): a 2**n-bit table, sparse or dense."""
    n = draw(st.integers(1, max_n))
    size = 1 << n
    random_bits = st.binary(min_size=(size + 7) // 8, max_size=(size + 7) // 8)
    table = (1 << size) - 1
    for _ in range(draw(st.integers(1, 4))):  # each AND halves the density
        table &= int.from_bytes(draw(random_bits), "little")
    return n, table


@st.composite
def hypergraphs(draw, max_n=MAX_N, max_edges=200):
    n = draw(st.integers(1, max_n))
    edges = draw(st.frozensets(st.integers(1, (1 << n) - 1), max_size=max_edges))
    return Hypergraph(n, edges)


@PROPERTY
@given(tables())
def test_pack_inverts_unpack(case):
    n, table = case
    bits = _bits.unpack(table, 1 << n)
    assert bits.dtype == np.uint8 and bits.shape == (1 << n,)
    assert _bits.pack(bits) == table


@PROPERTY
@given(tables())
def test_set_bits_matches_loop_on_tables(case):
    _, table = case
    assert _bits.set_bits(table) == helpers.loop_set_bits(table)


@PROPERTY
@given(st.integers(0, (1 << 64) - 1))
def test_set_bits_matches_loop_on_label_masks(mask):
    assert _bits.set_bits(mask) == helpers.loop_set_bits(mask)


@pytest.mark.parametrize("n", range(1, MAX_N + 1))
def test_weight_mask_matches_loop(n):
    for k in range(n + 1):
        assert _bits.weight_mask(n, k) == helpers.loop_weight_mask(n, k)


@PROPERTY
@given(st.integers(1, MAX_N).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=300))
))
def test_table_from_edges_matches_loop(case):
    n, masks = case  # duplicates and the empty mask 0 included
    assert _bits.table_from_edges(masks, n) == helpers.loop_table_from_edges(masks, n)
    assert _bits.table_from_edges(iter(masks), n) == helpers.loop_table_from_edges(masks, n)


@PROPERTY
@given(hypergraphs(max_n=hypergraph.MAX_VERTICES))
def test_sorted_edges_is_the_vertex_tuple_order(h):
    assert h.sorted_edges() == helpers.vertex_tuple_sorted(h.edges)


@PROPERTY
@given(hypergraphs(max_n=hypergraph.MAX_VERTICES))
def test_parse_inverts_serialize(h):
    text = hypergraph.serialize(h)
    assert text.splitlines()[1:] == [
        "e " + " ".join(str(i + 1) for i in range(h.n) if (e >> i) & 1)
        for e in helpers.vertex_tuple_sorted(h.edges)
    ]
    assert hypergraph.parse(text) == h


@st.composite
def edge_lines(draw):
    """(n, vertex lists): mostly valid edges, some unsorted, repeated or out of range."""
    n = draw(st.integers(1, MAX_N))
    valid = st.sets(st.integers(1, n), min_size=1, max_size=n).map(sorted)
    wild = st.lists(st.integers(-1, n + 1), min_size=1, max_size=5)
    rows = draw(st.lists(st.one_of(valid, valid, wild), max_size=30))
    return n, rows


@PROPERTY
@given(edge_lines())
def test_parse_reports_the_first_bad_edge_line(case):
    n, rows = case
    text = f"n {n}\n" + "".join("e " + " ".join(map(str, vs)) + "\n" for vs in rows)
    expected, seen = None, set()
    for lineno, vs in enumerate(rows, start=2):
        if any(a >= b for a, b in zip(vs, vs[1:])):
            expected = f"line {lineno}: vertices must be strictly increasing"
        elif not all(1 <= v <= n for v in vs):
            expected = f"line {lineno}: vertex out of range 1..{n}"
        elif frozenset(vs) in seen:
            expected = f"line {lineno}: duplicate edge {vs}"
        else:
            seen.add(frozenset(vs))
            continue
        break
    if expected is None:
        assert hypergraph.parse(text) == Hypergraph.from_sets(n, rows)
    else:
        with pytest.raises(FormatError) as err:
            hypergraph.parse(text)
        assert str(err.value) == expected


def _loop_dump(n: int, signs: int) -> str:
    lines = [f"n {n} backend sign"]
    lines.extend(f"{x} {'-' if (signs >> x) & 1 else '+'}" for x in range(1 << n))
    return "\n".join(lines) + "\n"


@PROPERTY
@given(tables())
def test_load_inverts_dump(case):
    n, signs = case
    text = statesim.dump(statesim.StateVector(n, signs=signs))
    assert text == _loop_dump(n, signs)
    back = statesim.load(text)
    assert back.backend == "sign" and back.signs == signs


@PROPERTY
@given(tables(), st.data())
def test_load_rejects_a_bad_sign_line(case, data):
    n, signs = case
    lines = statesim.dump(statesim.StateVector(n, signs=signs)).splitlines()
    x = data.draw(st.integers(0, (1 << n) - 1))
    bad = data.draw(st.sampled_from([f"{x} *", f"{x + 1} +", f"{x} + +", f"{x}"]))
    lines[x + 1] = bad
    with pytest.raises(FormatError) as err:
        statesim.load("\n".join(lines) + "\n")
    assert str(err.value) == f"bad sign line {bad!r}"


@settings(max_examples=10, deadline=None)
@given(tables(max_n=7).filter(lambda case: case[0] >= 2))
def test_bipartition_sweep_equals_reduced_density_per_cut(case):
    n, signs = case
    s = statesim.StateVector(n, signs=signs)
    report = entanglement.genuine_multipartite_geometric(s)
    for mask, lam in report.cuts:
        rho = entanglement.reduced_density(s, _bits.vertices_from_mask(mask))
        assert lam == entanglement.lambda_max(rho)


@PROPERTY
@given(hypergraphs(max_n=hypergraph.MAX_VERTICES), st.data())
def test_neighbour_masks_match_a_scan_of_the_edges(h, data):
    i = data.draw(st.integers(1, h.n))
    bit = 1 << (i - 1)
    want = {e ^ bit for e in h.edges if e & bit}
    assert hypergraph.neighbour_masks(h, i) == want
    assert statesim.stabilizer(h, i).masks == want


# ---- one-edge gates, Z words, cut sides, uniform tables and orbit keys against their loops

SMALL_N = 8


@PROPERTY
@given(tables(max_n=SMALL_N), st.data())
def test_one_edge_gate_is_the_superset_table(case, data):
    n, signs = case
    mask = data.draw(st.integers(1, (1 << n) - 1))
    want = helpers.loop_superset_mask(mask, n)
    assert _bits.table_from_edges([mask], n) == want
    vertices = _bits.vertices_from_mask(mask)
    s = statesim.StateVector(n, signs=signs)
    assert statesim.apply_ckz(s, vertices).signs == signs ^ want
    dense = statesim.apply_ckz(s.to_dense(), vertices).amps
    idx = np.arange(1 << n)
    expected = s.dense_array().copy()
    expected[(idx & mask) == mask] *= -1.0
    assert np.array_equal(dense, expected)


@pytest.mark.parametrize("n", range(1, SMALL_N + 1))
def test_local_z_and_z_words_match_the_axis_loops(n):
    plus = statesim.StateVector.plus_state(n)
    for i in range(1, n + 1):
        assert statesim.apply_local_pauli(plus, i, "Z").signs == helpers.loop_axis_set_mask(i - 1, n)
    for z_mask in range(1 << n):
        assert _bits.parity_mask(z_mask, n) == helpers.loop_parity_mask(z_mask, n)


@PROPERTY
@given(st.integers(0, (1 << 64) - 1), st.integers(0, 2))
def test_mask_bits_match_the_bit_peel_loop(mask, first):
    assert _bits.mask_bits(mask, first) == [first + i for i in helpers.loop_set_bits(mask)]
    assert _bits.vertices_from_mask(mask) == frozenset(i + 1 for i in helpers.loop_set_bits(mask))


@PROPERTY
@given(st.integers(1, SMALL_N).flatmap(lambda n: st.tuples(
    st.just(n),
    st.integers(0, n),
    st.booleans(),
    st.lists(st.integers(-3, (1 << (n + 1)) + 1), max_size=20),
)))
def test_first_bad_mask_is_the_first_failing_mask(case):
    n, flip, empty_ok, masks = case
    clear = (1 << flip) >> 1  # no bit for flip = 0
    allowed = ((1 << n) - 1) & ~clear
    got = _bits.first_bad_mask(masks, allowed, empty_ok)
    assert got == helpers.loop_mask_check(masks, n, clear, empty_ok)


@pytest.mark.parametrize("n", range(1, MAX_N + 1))
def test_bipartition_masks_match_filter_and_sort(n):
    assert entanglement.bipartition_masks(n) == helpers.loop_bipartition_masks(n)


@pytest.mark.parametrize("n", range(1, orbits.MAX_QUBITS + 1))
def test_uniform_state_tables_match_combinations(n):
    for k in range(1, n + 1):
        got = orbits._uniform_state_tables(n, k)
        want = helpers.loop_uniform_state_tables(n, k)
        assert len(got) == len(set(got)) == len(want) and set(got) == set(want)


@PROPERTY
@given(tables(max_n=orbits.MAX_QUBITS), st.floats(0, 2 * np.pi))
def test_orbit_key_of_a_dense_state_matches_the_label_loop(case, angle):
    n, signs = case
    amps = statesim.StateVector(n, signs=signs).dense_array() * np.exp(1j * angle)
    key = OrbitKey.from_state(statesim.StateVector(n, amps=amps))
    flat = amps / (amps[0] / abs(amps[0]))
    minus = helpers.loop_minus_table(flat)
    assert key == OrbitKey(n, minus ^ _bits.full_mask(n) if minus & 1 else minus)
    assert key == OrbitKey.from_state(statesim.StateVector(n, signs=signs))


@PROPERTY
@given(st.integers(1, SMALL_N).flatmap(lambda n: st.tuples(
    st.just(n),
    st.integers(1, n),
    st.frozensets(st.integers(-2, (1 << n) + 2), max_size=20),
)))
def test_edge_and_tuple_checks_name_the_first_bad_mask(case):
    n, i, masks = case
    bad_edge = helpers.loop_mask_check(masks, n, empty_ok=False)
    if bad_edge is None:
        assert Hypergraph(n, masks).edges == masks
    else:
        with pytest.raises(ValueError, match=f"^edge mask {bad_edge:#x} invalid for n={n}$"):
            Hypergraph(n, masks)
    bad_tuple = helpers.loop_mask_check(masks, n, clear=1 << (i - 1))
    if bad_tuple is None:
        assert statesim.StabilizerOperator.from_masks(n, i, masks).masks == masks
    else:
        with pytest.raises(ValueError) as err:
            statesim.StabilizerOperator.from_masks(n, i, masks)
        if 0 <= bad_tuple < 1 << n:
            vertices = sorted(_bits.vertices_from_mask(bad_tuple))
            assert str(err.value) == f"tuple {vertices} must not contain the flip vertex"
        else:
            assert str(err.value) == f"tuple mask {bad_tuple:#x} out of range for n={n}"
