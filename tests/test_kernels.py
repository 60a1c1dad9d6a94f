"""Property tests: the linear-time bit kernels and the mask-native text layer
against the loop oracles in helpers.py."""

import re
from unittest import mock

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
    got = _bits.set_bits(table)
    assert got.dtype == np.uint64 and got.tolist() == helpers.loop_set_bits(table)


@PROPERTY
@given(st.integers(0, (1 << 64) - 1))
def test_set_bits_matches_loop_on_label_masks(mask):
    assert _bits.set_bits(mask).tolist() == helpers.loop_set_bits(mask)


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
def test_sorted_masks_is_the_vertex_tuple_order(h):
    assert hypergraph.sorted_masks(h.masks).tolist() == helpers.vertex_tuple_sorted(h.edges)


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
    text = statesim.dump(statesim.StateVector(n, signs))
    assert text == _loop_dump(n, signs)
    back = statesim.load(text)
    assert back.n == n and back.signs == signs


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
    want = sorted(e ^ bit for e in h.edges if e & bit)
    assert hypergraph.neighbour_masks(h, i).tolist() == want
    assert statesim.stabilizer(h, i).masks.tolist() == want


# ---- the stored mask arrays against the frozenset oracle

@st.composite
def edge_sets(draw, max_n=hypergraph.MAX_VERTICES):
    """(n, edges): a frozenset of edge masks on n vertices."""
    n = draw(st.integers(1, max_n))
    return n, draw(st.frozensets(st.integers(1, (1 << n) - 1), max_size=100))


@PROPERTY
@given(edge_sets(), st.randoms(use_true_random=False))
def test_a_shuffled_mask_array_builds_the_frozenset_hypergraph(case, random):
    n, edges = case
    shuffled = list(edges)
    random.shuffle(shuffled)
    h = Hypergraph(n, edges)
    for g in (Hypergraph(n, np.array(shuffled, dtype=np.uint64)), Hypergraph(n, shuffled * 2)):
        assert g == h and hash(g) == hash(h)
        assert g.edges == edges
        assert hypergraph.serialize(g) == helpers.set_serialize(n, edges)
    assert h.masks.tolist() == sorted(edges) and not h.masks.flags.writeable
    if edges:
        assert Hypergraph(n, edges - {shuffled[0]}) != h
    if n < hypergraph.MAX_VERTICES:
        assert Hypergraph(n + 1, edges) != h


@st.composite
def sparse_wide_edge_sets(draw):
    """(n, edges) at n = 40, 63 or 64: at most 60 edges, many of one to three
    vertices.  Fewer tuples than half-mask keys, so the text writer keys
    only the distinct halves."""
    n = draw(st.sampled_from([40, 63, 64]))
    vertices = st.sets(st.integers(0, n - 1), min_size=1, max_size=3)
    narrow = vertices.map(lambda vs: sum(1 << v for v in vs))
    return n, draw(st.frozensets(st.one_of(narrow, st.integers(1, (1 << n) - 1)), max_size=60))


@PROPERTY
@given(st.one_of(edge_sets(max_n=12), sparse_wide_edge_sets()))
def test_stabilizers_match_the_frozenset_oracle(case):
    n, edges = case
    h = Hypergraph(n, edges)
    ops = [statesim.stabilizer(h, i) for i in range(1, n + 1)]
    tuples = [helpers.set_neighbour_masks(edges, i) for i in range(1, n + 1)]
    for op, want in zip(ops, tuples):
        assert op.masks.tolist() == sorted(want) and not op.masks.flags.writeable
        oracle = statesim.StabilizerOperator(n, op.i, want)
        assert op == oracle and hash(op) == hash(oracle)
    texts = [helpers.set_operator_text(op.i, masks) for op, masks in zip(ops, tuples)]
    assert statesim.stabilizer_texts(h) == texts
    assert [str(op) for op in ops] == texts


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
    s = statesim.StateVector(n, signs)
    moved = statesim.apply_ckz(s, vertices)
    assert moved.signs == signs ^ want
    idx = np.arange(1 << n)
    expected = helpers.amplitudes(s)
    expected[(idx & mask) == mask] *= -1.0
    assert np.array_equal(helpers.amplitudes(moved), expected)


@pytest.mark.parametrize("n", range(1, SMALL_N + 1))
def test_local_z_and_z_words_match_the_axis_loops(n):
    plus = statesim.StateVector(n, 0)
    for i in range(1, n + 1):
        assert statesim.apply_local_pauli(plus, i, "Z").signs == helpers.loop_axis_set_mask(i - 1, n)
    for z_mask in range(1 << n):
        assert _bits.parity_mask(z_mask, n) == helpers.loop_parity_mask(z_mask, n)


@PROPERTY
@given(st.integers(0, (1 << 64) - 1), st.integers(0, 2))
def test_mask_bits_match_the_bit_peel_loop(mask, first):
    assert _bits.mask_bits(mask, first) == [first + i for i in helpers.loop_set_bits(mask)]
    assert _bits.vertices_from_mask(mask) == frozenset(i + 1 for i in helpers.loop_set_bits(mask))


@st.composite
def cut_sides(draw):
    """(width, masks): masks below 2**n, n <= MAX_N, with at least width set bits."""
    n = draw(st.integers(1, MAX_N))
    width = draw(st.integers(0, n))
    bit_sets = st.lists(st.integers(0, n - 1), unique=True, min_size=width, max_size=n)
    masks = draw(st.lists(bit_sets.map(lambda bits: sum(1 << b for b in bits)), max_size=20))
    return width, masks


@PROPERTY
@given(cut_sides())
def test_deposit_matches_the_bit_loop(case):
    width, masks = case
    out = _bits.deposit(masks, width)
    assert out.dtype == np.int16 and out.shape == (len(masks), 1 << width)
    assert out.tolist() == [helpers.loop_deposit(m, width) for m in masks]


def test_deposit_widens_past_int16():
    out = _bits.deposit([1 << 15 | 1 << 3], 2)
    assert out.dtype == np.int64 and out.tolist() == [[0, 8, 1 << 15, 1 << 15 | 8]]


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
    got = _bits._first_bad_mask(masks, allowed, empty_ok)
    assert got == helpers.loop_mask_check(masks, n, clear, empty_ok)


@pytest.mark.parametrize("n", range(1, MAX_N + 1))
def test_bipartition_masks_match_filter_and_sort(n):
    cuts = [m for _, side in entanglement._cut_classes(n) for m in side.tolist()]
    assert cuts == helpers.loop_bipartition_masks(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_uniform_state_tables_match_combinations(n):
    for k in range(1, n + 1):
        got = helpers.uniform_state_tables(n, k).tolist()
        want = helpers.loop_uniform_state_tables(n, k)
        assert len(got) == len(set(got)) == len(want) and set(got) == set(want)


@pytest.mark.parametrize("n", range(1, 11))
def test_anf_translate_is_the_translate_between_butterflies(n):
    # the ANF of f(x ^ a) is the butterfly of the relabeled butterfly of f's ANF
    rng = np.random.default_rng(1000 + n)
    for _ in range(200):
        anf = int.from_bytes(rng.bytes(1 + (1 << n) // 8), "little") & _bits.full_mask(n)
        flip = int(rng.integers(0, 1 << n))
        want = _bits.butterfly(_bits.xor_permute(_bits.butterfly(anf, n), flip, n), n)
        assert _bits.anf_translate(anf, flip, n) == want


@pytest.mark.parametrize("n", range(1, 7))
def test_anf_translate_on_uint64_words_for_every_flip(n):
    rng = np.random.default_rng(n)
    words = rng.integers(0, 2**64 - 1, size=50, dtype=np.uint64, endpoint=True)
    anfs = words & np.uint64(_bits.full_mask(n))
    for flip in range(1 << n):
        want = _bits.butterfly(_bits.xor_permute(_bits.butterfly(anfs, n), flip, n), n)
        got = _bits.anf_translate(anfs, flip, n)
        assert got.dtype == np.uint64 and got.tolist() == want.tolist()


@pytest.mark.parametrize("n", range(1, 9))
def test_xor_permute_ignores_flip_bits_at_or_above_n(n):
    rng = np.random.default_rng(900 + n)
    for _ in range(50):
        table = int.from_bytes(rng.bytes(1 + (1 << n) // 8), "little") & _bits.full_mask(n)
        flip = int(rng.integers(0, 1 << n))
        high = int(rng.integers(1, 1 << 20)) << n
        assert _bits.xor_permute(table, flip | high, n) == _bits.xor_permute(table, flip, n)
        if n <= 6:  # one uint64 word per table
            words = rng.integers(0, 2**64 - 1, size=8, dtype=np.uint64, endpoint=True)
            words &= np.uint64(_bits.full_mask(n))
            got = _bits.xor_permute(words, flip | high, n)
            assert got.dtype == np.uint64
            assert got.tolist() == [_bits.xor_permute(w, flip, n) for w in words.tolist()]


@st.composite
def word_arrays(draw):
    """(n, tables, flip): 2**n-bit tables for n <= 6, one uint64 word each."""
    n = draw(st.integers(1, 6))
    words = draw(st.lists(st.integers(0, (1 << (1 << n)) - 1), min_size=1, max_size=20))
    return n, words, draw(st.integers(0, (1 << n) - 1))


@PROPERTY
@given(word_arrays())
def test_kernels_on_uint64_words_match_the_int_kernels(case):
    # element-wise equal, and the argument array is left as it was
    # (xor_permute by 0 returns its argument, so a butterfly in place after
    # it would clobber the caller's tables)
    n, words, flip = case
    arr = np.array(words, dtype=np.uint64)
    kernels = ((_bits.butterfly, (n,)), (_bits.xor_permute, (flip, n)), (_bits.anf_translate, (flip, n)))
    for kernel, args in kernels:
        got = kernel(arr, *args)
        assert got.dtype == np.uint64
        assert got.tolist() == [kernel(w, *args) for w in words]
        assert arr.tolist() == words


@PROPERTY
@given(tables(max_n=orbits.MAX_QUBITS), st.floats(0, 2 * np.pi))
def test_orbit_key_of_a_dense_state_matches_the_label_loop(case, angle):
    n, signs = case
    s = statesim.StateVector(n, signs)
    key = OrbitKey.from_state(s)
    minus = helpers.loop_minus_table(helpers.amplitudes(s))
    assert key == OrbitKey(n, minus ^ _bits.full_mask(n) if minus & 1 else minus)
    assert key == helpers.phase_key(helpers.amplitudes(s) * np.exp(1j * angle))


@PROPERTY
@given(st.integers(1, SMALL_N).flatmap(lambda n: st.tuples(
    st.just(n),
    st.integers(1, n),
    st.frozensets(st.integers(-2, (1 << n) + 2), max_size=20),
)))
def test_edge_and_tuple_checks_name_the_first_bad_mask(case):
    n, i, masks = case
    bad_edge = helpers.loop_mask_check(masks, n, empty_ok=False)
    bad_tuple = helpers.loop_mask_check(masks, n, clear=1 << (i - 1))
    for read in (frozenset, iter):  # an iterator can be read only once
        if bad_edge is None:
            assert Hypergraph(n, read(masks)).edges == masks
        else:
            with pytest.raises(ValueError, match=f"^edge mask {bad_edge:#x} invalid for n={n}$"):
                Hypergraph(n, read(masks))
        if bad_tuple is None:
            assert statesim.StabilizerOperator(n, i, read(masks)).masks.tolist() == sorted(masks)
        else:
            with pytest.raises(ValueError) as err:
                statesim.StabilizerOperator(n, i, read(masks))
            if 0 <= bad_tuple < 1 << n:
                vertices = sorted(_bits.vertices_from_mask(bad_tuple))
                assert str(err.value) == f"tuple {vertices} must not contain the flip vertex"
            else:
                assert str(err.value) == f"tuple mask {bad_tuple:#x} out of range for n={n}"


@pytest.mark.parametrize("masks", [
    {1.5, 2},
    np.array([1.9, 3.0]),
    {"3"},
    [2, np.float64(1.0)],
    np.array([True, False]),
    {frozenset({1, 2})},  # a vertex set where a mask belongs
])
def test_edge_and_tuple_checks_reject_non_integer_masks(masks):
    with pytest.raises(TypeError):
        Hypergraph(3, masks)
    with pytest.raises(TypeError):
        statesim.StabilizerOperator(3, 3, masks)


def test_signed_mask_arrays_are_checked_like_python_ints():
    for n in (3, 64):
        with pytest.raises(ValueError, match=f"^edge mask -0x1 invalid for n={n}$"):
            Hypergraph(n, np.array([2, -1], dtype=np.int64))
        assert Hypergraph(n, np.array([3, 1], dtype=np.int8)) == Hypergraph(n, {1, 3})


# ---- every vertex set becomes a mask through one check

VERTEX_SET_ENTRY_POINTS = {
    "Hypergraph.from_sets": lambda vs: Hypergraph.from_sets(3, [vs]),
    "apply_ckz": lambda vs: statesim.apply_ckz(statesim.StateVector(3, signs=0b10010110), vs).signs,
    "StabilizerOperator.from_sets": lambda vs: statesim.StabilizerOperator.from_sets(3, 3, [vs]),
    "reduced_density": lambda vs: entanglement.reduced_density(
        statesim.StateVector(3, signs=0b10010110), vs
    ).tolist(),
}


@pytest.mark.parametrize("entry", sorted(VERTEX_SET_ENTRY_POINTS))
def test_vertex_sets_pass_one_check(entry):
    call = VERTEX_SET_ENTRY_POINTS[entry]
    want = call([1, 2])
    for vertices in (np.array([1, 2]), np.array([2, 1], dtype=np.uint8), (np.int16(1), 2)):
        assert call(vertices) == want
    for bad in (0, 4, 1.5, "1"):
        with pytest.raises(ValueError, match=f"^vertex {re.escape(repr(bad))} out of range 1..3$"):
            call([1, bad])


# ---- the numpy text layer against the line loops and the old sort key

def outcome(read, text):
    """read(text), or the message of the FormatError it raises."""
    try:
        return read(text)
    except FormatError as exc:
        return f"FormatError: {exc}"


@PROPERTY
@given(hypergraphs(max_n=hypergraph.MAX_VERTICES))
def test_sorted_masks_match_the_old_half_table_key(h):
    masks = np.fromiter(h.edges, dtype=np.uint64, count=len(h.edges))
    got = hypergraph.sorted_masks(masks)
    assert got.dtype == np.uint64
    assert got.tolist() == helpers.loop_sorted_masks(h.edges, h.n)


def _writer_masks(n: int, kind: str, rng: np.random.Generator) -> np.ndarray:
    """Masks below 2**n, mask 0 first: enough for tables over every half
    key ("dense"), or few enough that the distinct halves are keyed
    ("sparse", some of them with few bits set)."""
    split = (n + 1) // 2
    if kind == "dense":
        count = max((n - split + 1) << split, 2 << (n - split)) + 5
    else:
        count = min(40, (1 << split) - 1)
    masks = rng.integers(0, (1 << n) - 1, size=count, dtype=np.uint64, endpoint=True)
    few = np.uint64(1) << rng.integers(0, n, size=count, dtype=np.uint64)
    masks[::2] &= few[::2] | (few[::2] >> np.uint64(1))
    masks[0] = 0
    return masks


WRITER_CASES = [(n, kind) for n in range(1, 21) for kind in ("dense", "sparse")]


@pytest.mark.parametrize("n, kind", WRITER_CASES + [(33, "sparse"), (64, "sparse")])
@pytest.mark.parametrize("form", ["edge lines", "gates"])
def test_edge_texts_equal_the_half_table_loop(n, kind, form):
    masks = _writer_masks(n, kind, np.random.default_rng([n, len(kind)]))
    if form == "edge lines":
        prefixes, sep, tail = ["e "] * (n + 1), " ", "\n"
    else:
        prefixes, sep, tail = [f" C{k}Z(" for k in range(n + 1)], ",", ")"
    for array in (masks, masks[:0], masks[:1]):  # all, none, and mask 0 alone
        pieces = hypergraph._edge_texts(array, n, prefixes, sep, tail)
        assert len(pieces) == 2 * array.size
        want = [
            prefixes[m.bit_count()] + text + tail
            for m, text in zip(array.tolist(), helpers.loop_edge_texts(array, n, "", sep))
        ]
        assert list(map("".join, zip(pieces[::2], pieces[1::2]))) == want
    if form == "gates":
        assert "".join(hypergraph._edge_texts(masks[:1], n, prefixes, sep, tail)) == " C0Z()"


def _edge_text(n: int, masks) -> str:
    return f"n {n}\n" + "".join(
        "e" + "".join(f" {v}" for v in _bits.mask_bits(m, 1)) + "\n" for m in masks
    )


@st.composite
def plain_graph_texts(draw, max_n=hypergraph.MAX_VERTICES):
    """(n, masks, text): an edge list in canonical or random order, and the
    byte size of the blocks the fast path reads it in."""
    n = draw(st.integers(1, max_n))
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), unique=True, max_size=120))
    if draw(st.booleans()):
        text = hypergraph.serialize(Hypergraph(n, frozenset(masks)))
    else:
        text = _edge_text(n, masks)
    return n, masks, text


@PROPERTY
@given(plain_graph_texts(), st.sampled_from([0, 1, 7, 64, hypergraph._BLOCK_BYTES]))
def test_byte_level_parse_equals_the_line_loop(case, block):
    n, masks, text = case
    want = Hypergraph(n, frozenset(masks))
    assert hypergraph._parse_lines(text) == want
    with mock.patch.object(hypergraph, "_BLOCK_BYTES", block):
        assert hypergraph._parse_plain(text) == want
        assert hypergraph.parse(text) == want


@PROPERTY
@given(plain_graph_texts().filter(lambda case: case[1]), st.data())
def test_parse_names_a_repeated_edge_line(case, data):
    _, _, text = case
    head, *lines = text.splitlines(keepends=True)
    at = data.draw(st.integers(0, len(lines) - 1))
    to = data.draw(st.integers(at + 1, len(lines)))
    lines.insert(to, lines[at])
    vertices = ", ".join(lines[at].split()[1:])
    with pytest.raises(FormatError) as err:
        hypergraph.parse(head + "".join(lines))
    assert str(err.value) == f"line {to + 2}: duplicate edge [{vertices}]"


NON_ASCII_DIGITS = ("٠", "０")  # Arabic-Indic and fullwidth zero


def _mutate(text: str, kind: str, n: int, draw) -> str:
    """One fallback trigger applied to a plain edge list with at least one edge."""
    head, *lines = text.splitlines(keepends=True)
    at = draw(st.integers(0, len(lines) - 1))
    line = lines[at]
    vertices = line.split()[1:]
    j = draw(st.integers(0, len(vertices) - 1))
    v = int(vertices[j])

    def with_vertex(token: str) -> str:
        return "e " + " ".join(vertices[:j] + [token] + vertices[j + 1:]) + "\n"

    if kind == "comment":
        lines[at] = draw(st.sampled_from([line[:-1] + " # note\n", "# note\n" + line]))
    elif kind == "blank":
        lines[at] = draw(st.sampled_from(["\n", "   \n"])) + line
    elif kind == "cr":
        lines[at] = line[:-1] + "\r\n"
    elif kind == "tab":
        lines[at] = line.replace(" ", "\t", 1)
    elif kind == "plus":
        lines[at] = with_vertex(f"+{v}")
    elif kind == "underscore":
        lines[at] = with_vertex(f"{v // 10}_{v % 10}")
    elif kind == "non-ascii":
        zero = ord(draw(st.sampled_from(NON_ASCII_DIGITS)))
        lines[at] = with_vertex("".join(chr(zero + int(d)) for d in str(v)))
    elif kind == "long":
        lines[at] = with_vertex(draw(st.sampled_from([f"00{v}", f"1{v:02}", "999"])))
    elif kind == "range":
        lines[at] = with_vertex(draw(st.sampled_from(["0", str(n + 1), "99"])))
    elif kind == "repeat":
        lines[at] = with_vertex(f"{v} {v}")
    elif kind == "duplicate":
        lines.insert(draw(st.integers(0, len(lines))), line)
    elif kind == "no-newline":
        lines[-1] = lines[-1][:-1]
    elif kind == "lone-e":
        lines.insert(draw(st.integers(0, len(lines))), "e\n")
    elif kind == "lone-e-space":
        lines.insert(draw(st.integers(0, len(lines))), "e \n")
    return head + "".join(lines)


FALLBACK_TRIGGERS = [
    "comment", "blank", "cr", "tab", "plus", "underscore", "non-ascii", "long",
    "range", "repeat", "duplicate", "no-newline", "lone-e", "lone-e-space",
]


@pytest.mark.parametrize("kind", FALLBACK_TRIGGERS)
@settings(max_examples=20, deadline=None)
@given(plain_graph_texts(max_n=20).filter(lambda case: case[1]), st.data())
def test_parse_falls_back_to_the_line_loop_on_every_trigger(kind, case, data):
    n, _, text = case
    bad = _mutate(text, kind, n, data.draw)
    assert hypergraph._parse_plain(bad) is None
    assert outcome(hypergraph.parse, bad) == outcome(hypergraph._parse_lines, bad)


@PROPERTY
@given(tables(), st.data())
def test_byte_level_load_equals_the_line_loop_on_damaged_dumps(case, data):
    n, signs = case
    text = statesim.dump(statesim.StateVector(n, signs=signs))
    lines = text.splitlines(keepends=True)
    kind = data.draw(st.sampled_from(["byte", "trailing", "drop"]))
    if kind == "byte":
        at = data.draw(st.integers(0, len(text) - 1))
        text = text[:at] + data.draw(st.sampled_from("+-019 \n\r\tx#")) + text[at + 1:]
    elif kind == "trailing":
        at = data.draw(st.integers(0, len(lines) - 1))
        lines[at] = lines[at][:-1] + "  \n"
        text = "".join(lines)
    else:
        del lines[data.draw(st.integers(1, len(lines) - 1))]
        text = "".join(lines)

    def signs_of(read):
        state = outcome(read, text)
        return state if isinstance(state, str) else (state.n, state.signs)

    assert signs_of(statesim.load) == signs_of(statesim._load_lines)


@pytest.mark.parametrize("n", range(1, 15))
def test_fast_paths_accept_every_serialize_and_dump_output(n):
    """The byte-level readers, not the loops, take what the writers write."""
    rng = np.random.default_rng(n)
    h = helpers.random_hypergraph(n, rng)
    assert hypergraph._parse_plain(hypergraph.serialize(h)) == h
    signs = helpers.random_table(n, rng).signs
    state = statesim._load_plain_signs(statesim.dump(statesim.StateVector(n, signs=signs)))
    assert state is not None and state.signs == signs
