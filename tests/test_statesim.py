import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import invariant_suite
from hgsim import _bits, boolfn, hypergraph, statesim
from hgsim.errors import FormatError
from hgsim.hypergraph import Hypergraph
from hgsim.statesim import StabilizerOperator, StateVector

TRIANGLE = Hypergraph.from_sets(3, [{1, 2}, {2, 3}, {1, 3}])
FIG4 = Hypergraph.from_sets(3, [{1}, {2, 3}, {1, 2, 3}])
SEVEN = hypergraph.parse("n 7\ne 6\ne 1 4\ne 2 3 4 5\ne 1 2 3 4 5 6 7\n")


def test_build_empty_graph_is_all_plus():
    s = statesim.build_state(Hypergraph(3, frozenset()))
    assert s.signs == 0
    assert np.allclose(helpers.amplitudes(s), np.full(8, 1 / np.sqrt(8)))


def test_build_full_edge_matches_single_minus():
    s = statesim.build_state(Hypergraph.from_sets(3, [{1, 2, 3}]))
    assert s.signs == 0x80


def test_build_mixed_graph_matches_table_ea():
    assert statesim.build_state(FIG4).signs == 0xEA


def test_apply_ckz_involution():
    s = statesim.build_state(FIG4)
    assert statesim.apply_ckz(statesim.apply_ckz(s, {1, 3}), {1, 3}).signs == s.signs


def test_apply_ckz_two_qubit_signs():
    s = statesim.apply_ckz(StateVector(2, 0), {1, 2})
    assert s.signs == 0b1000  # minus only on x=3


def test_apply_ckz_local_z_pattern():
    s = statesim.apply_ckz(StateVector(3, 0), {1})
    assert {x for x in range(8) if (s.signs >> x) & 1} == {1, 3, 5, 7}


def test_apply_ckz_dense_backend_matches_sign_backend():
    # the sign result against the dense oracle's diagonal gate
    rng = np.random.default_rng(5)
    s = statesim.build_state(helpers.random_hypergraph(4, rng))
    a = helpers.amplitudes(statesim.apply_ckz(s, {2, 4}))
    b = helpers.gate_diagonal(4, {2, 4}) * helpers.amplitudes(s)
    assert np.array_equal(a, b)


def test_apply_ckz_rejects_bad_edge():
    with pytest.raises(ValueError):
        statesim.apply_ckz(StateVector(2, 0), {3})


def test_local_z_twice_is_identity():
    s = statesim.build_state(TRIANGLE)
    assert statesim.apply_local_pauli(statesim.apply_local_pauli(s, 2, "Z"), 2, "Z").signs == s.signs


def test_local_x_on_pair_graph_adds_singleton_edge():
    # conjugating the pair gate through X_1 leaves an extra Z on qubit 2
    s = statesim.build_state(Hypergraph.from_sets(2, [{1, 2}]))
    moved = statesim.apply_local_pauli(s, 1, "X")
    target = statesim.build_state(Hypergraph.from_sets(2, [{1, 2}, {2}]))
    assert statesim.equal_up_to_global_phase(moved, target)
    # dense-matrix oracle for the same action
    oracle = helpers.pauli_word_matrix("XI") @ helpers.amplitudes(s)
    assert np.allclose(oracle, helpers.amplitudes(moved), atol=1e-12)


def test_local_y_equals_i_x_z_on_dense():
    # Y = iXZ, so Z then X on the sign state is the dense Y up to the factor i
    y = helpers.pauli_word_matrix("IYI")
    assert np.array_equal(y, 1j * helpers.pauli_word_matrix("IXI") @ helpers.pauli_word_matrix("IZI"))
    s = helpers.random_table(3, np.random.default_rng(11))
    via_xz = statesim.apply_local_pauli(statesim.apply_local_pauli(s, 2, "Z"), 2, "X")
    assert np.allclose(y @ helpers.amplitudes(s), 1j * helpers.amplitudes(via_xz), atol=1e-12)


def test_local_y_needs_dense_backend():
    # the dense Y leaves a purely imaginary vector, which no sign table holds
    s = statesim.build_state(TRIANGLE)
    with pytest.raises(ValueError, match="^Y is not representable on a sign state"):
        statesim.apply_local_pauli(s, 1, "Y")
    dense = helpers.pauli_word_matrix("YII") @ helpers.amplitudes(s)
    assert np.allclose(dense.real, 0.0) and np.allclose(abs(dense.imag), 1 / np.sqrt(8))


def test_local_pauli_rejects_bad_vertex_and_letter():
    s = StateVector(2, 0)
    with pytest.raises(ValueError):
        statesim.apply_local_pauli(s, 3, "X")
    with pytest.raises(ValueError):
        statesim.apply_local_pauli(s, 1, "Q")


def test_stabilizer_empty_graph_is_bare_x():
    op = statesim.stabilizer(Hypergraph(3, frozenset()), 2)
    assert op.tuples == frozenset() and str(op) == "X2"


def test_stabilizer_triangle_vertex():
    op = statesim.stabilizer(TRIANGLE, 1)
    assert op.tuples == frozenset({frozenset({2}), frozenset({3})})
    assert str(op) == "X1 C1Z(2) C1Z(3)"


def test_stabilizer_seven_vertex():
    op = statesim.stabilizer(SEVEN, 4)
    assert str(op) == "X4 C1Z(1) C3Z(2,3,5) C6Z(1,2,3,5,6,7)"


def test_stabilizer_rejects_flip_vertex_in_tuple():
    with pytest.raises(ValueError):
        StabilizerOperator.from_sets(3, 1, [{1, 2}])


def test_apply_stabilizer_fixes_own_state():
    for h in (TRIANGLE, FIG4, SEVEN):
        s = statesim.build_state(h)
        for i in range(1, h.n + 1):
            assert statesim.apply_stabilizer(s, statesim.stabilizer(h, i)).signs == s.signs


def test_apply_bare_x_twice_is_identity():
    s = statesim.build_state(FIG4)
    op = StabilizerOperator(3, 2, frozenset())
    assert statesim.apply_stabilizer(statesim.apply_stabilizer(s, op), op).signs == s.signs


def test_apply_stabilizer_single_qubit_hand_case():
    # graph {1} on one qubit: state |->, operator -X_1; (-1) X |-> = |->
    h = Hypergraph.from_sets(1, [{1}])
    s = statesim.build_state(h)
    assert s.signs == 0b10
    op = statesim.stabilizer(h, 1)
    assert op.tuples == frozenset({frozenset()})
    assert statesim.apply_stabilizer(s, op).signs == s.signs


def test_apply_stabilizer_dimension_mismatch():
    with pytest.raises(ValueError):
        statesim.apply_stabilizer(StateVector(2, 0), statesim.stabilizer(TRIANGLE, 1))


def stabilized(h: Hypergraph) -> bool:
    """True iff no correlation operator of h moves its built state."""
    ops = [statesim.stabilizer(h, i) for i in range(1, h.n + 1)]
    return all(m is None for m in statesim.verification(statesim.build_state(h), ops).moved)


def unique_with(h: Hypergraph, ops) -> bool:
    """True iff h's built state alone spans the joint +1 eigenspace of ops."""
    return statesim.verification(statesim.build_state(h), ops).dimension == 1


def witnesses(n: int, ops) -> list[int | None]:
    """The pair witnesses of ops, from verification on the all-plus state,
    where each operator's error table is its own diagonal."""
    return statesim.verification(StateVector(n, 0), ops).witnesses


def test_verify_stabilized_exhaustive_n3():
    assert all(stabilized(h) for h in helpers.all_hypergraphs(3))


def test_verify_stabilized_seven_vertex():
    assert stabilized(SEVEN)


def test_wrong_stabilizer_is_detected():
    # neighbourhood taken from a different graph must not fix the state
    s = statesim.build_state(TRIANGLE)
    wrong = statesim.stabilizer(FIG4, 1)
    assert statesim.apply_stabilizer(s, wrong).signs != s.signs


def test_commutators_vanish_on_triangle():
    rng = np.random.default_rng(1)
    ops = [statesim.stabilizer(TRIANGLE, i) for i in (1, 2, 3)]
    probe = statesim.random_state(3, rng)
    for a in range(3):
        for b in range(a + 1, 3):
            assert statesim.commutator_residual(ops[a], ops[b], probe) == 0.0


def test_commutators_vanish_on_seven_vertex_many_probes():
    rng = np.random.default_rng(2)
    ops = [statesim.stabilizer(SEVEN, i) for i in range(1, 8)]
    probes = [statesim.random_state(7, rng) for _ in range(100)]
    for a in range(7):
        for b in range(a + 1, 7):
            assert all(
                statesim.commutator_residual(ops[a], ops[b], p) == 0.0 for p in probes
            )


def test_anticommuting_controls():
    # raw-operator oracle: X and Z on one qubit, probe |0>
    x, z = helpers.PAULI["X"], helpers.PAULI["Z"]
    ket0 = np.array([1.0, 0.0], dtype=complex)
    assert np.linalg.norm((x @ z - z @ x) @ ket0) == pytest.approx(2.0)
    # operators of unrelated graphs need not commute: X1 vs X2 Z1
    a = StabilizerOperator(2, 1, frozenset())
    b = StabilizerOperator.from_sets(2, 2, [{1}])
    probe = np.array([1, 0, 0, 0], dtype=complex)
    assert statesim.commutator_residual(a, b, probe) > 0


def test_commutator_dimension_mismatch():
    a = StabilizerOperator(2, 1, frozenset())
    b = StabilizerOperator(3, 1, frozenset())
    with pytest.raises(ValueError):
        statesim.commutator_residual(a, b, np.full(4, 0.5))


def test_state_vector_holds_only_a_sign_table():
    assert [f.name for f in dataclasses.fields(StateVector)] == ["n", "signs"]
    op = StabilizerOperator(3, 1)
    assert statesim.commutator_residual(op, op, statesim.random_state(3, np.random.default_rng(3))) == 0.0
    for size in (7, 9):
        with pytest.raises(ValueError):
            statesim.commutator_residual(op, op, np.ones(size) / np.sqrt(size))


def test_uniqueness_empty_and_mixed_graphs():
    assert statesim.uniqueness_check(Hypergraph(2, frozenset()))
    assert statesim.uniqueness_check(FIG4)


def test_uniqueness_sample_of_n3_graphs():
    rng = np.random.default_rng(9)
    graphs = list(helpers.all_hypergraphs(3))
    for j in rng.choice(len(graphs), size=16, replace=False):
        assert statesim.uniqueness_check(graphs[int(j)])


def test_uniqueness_cap():
    # no cap of its own: the exact check runs up to the dense cap
    for n in (13, boolfn.MAX_QUBITS):
        assert statesim.uniqueness_check(Hypergraph(n, frozenset({1, 3 << (n - 2)})))
    with pytest.raises(ValueError):
        statesim.uniqueness_check(Hypergraph(boolfn.MAX_QUBITS + 1, frozenset()))


def test_equal_up_to_global_phase():
    s = statesim.build_state(FIG4)
    flipped = StateVector(3, s.signs ^ ((1 << 8) - 1))
    assert statesim.equal_up_to_global_phase(s, flipped)
    grover = statesim.build_state(Hypergraph.from_sets(3, [{1, 2, 3}]))
    assert not statesim.equal_up_to_global_phase(s, grover)
    # the dense oracle: equal up to a phase iff the overlap has modulus 1
    for other, equal in ((flipped, True), (grover, False)):
        overlap = abs(np.vdot(helpers.amplitudes(s), helpers.amplitudes(other)))
        assert np.isclose(overlap, 1.0, rtol=0, atol=1e-12) == equal
    with pytest.raises(ValueError):
        statesim.equal_up_to_global_phase(s, StateVector(2, 0))


def test_dump_load_round_trip_sign():
    s = statesim.build_state(FIG4)
    text = statesim.dump(s)
    assert text.startswith("n 3 backend sign\n0 +\n1 -\n")
    back = statesim.load(text)
    assert back.n == 3 and back.signs == s.signs


def test_dump_writes_each_state_into_fresh_lines():
    """An all-minus dump leaves no minus sign in the next dump of its n."""
    for n in (3, 14, 3):
        full = _bits.full_mask(n)
        minus, plus = statesim.dump(StateVector(n, full)), statesim.dump(StateVector(n, 0))
        assert minus == helpers.loop_dump(n, full)
        assert plus == helpers.loop_dump(n, 0) and "-" not in plus


def test_load_checks_each_dump_against_unchanged_lines():
    """Dumps read byte-wise leave the lines of their n as they were: the
    next valid dump is read byte-wise too, and a damaged one reaches the
    line loop."""
    for n in (3, 14, 3):
        full = _bits.full_mask(n)
        minus = statesim.dump(StateVector(n, full))
        bad = minus.replace("\n1 -", "\n7 -", 1)
        loop = mock.patch.object(statesim, "_load_lines", wraps=statesim._load_lines)
        with loop as lines:
            assert statesim.load(minus).signs == full
            assert statesim.load(statesim.dump(StateVector(n, 0))).signs == 0
            assert lines.call_count == 0
            with pytest.raises(FormatError) as err:
                statesim.load(bad)
        lines.assert_called_once_with(bad)
        assert str(err.value) == "bad sign line '7 -'"


@pytest.mark.parametrize("n", [1, 3, 14])
def test_sign_lines_are_read_only(n):
    for array in statesim._sign_lines(n):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


@pytest.mark.parametrize(
    "text",
    [
        "",
        "n 2 backend spin\n",
        "n 2 backend sign\n0 +\n1 -\n",  # missing lines
        "n 1 backend sign\n0 +\n1 *\n",
        "n 1 backend complex\n0 1.0\n1 0.0\n",
    ],
)
def test_load_errors(text):
    with pytest.raises(FormatError):
        statesim.load(text)


def test_equal_tables_are_equal_states():
    # a state compares and hashes by its table, not by identity
    assert StateVector is boolfn.StateVector
    s = StateVector(3, 0xEA)
    copy = statesim.load(statesim.dump(s))
    assert copy is not s and copy == s and hash(copy) == hash(s)
    copy = boolfn.from_text(boolfn.to_text(s))
    assert copy is not s and copy == s and hash(copy) == hash(s)
    assert s != StateVector(3, 0xEB) and s != StateVector(4, 0xEA)


def test_build_rejects_oversized_graph():
    with pytest.raises(ValueError):
        statesim.build_state(Hypergraph(21, frozenset()))


def test_invariant_suite():
    invariant_suite.check_statesim(42, graphs=60)


# ------------------------------------------------ exact commutation, masks

SMALL_N = 6
PROPERTY = settings(max_examples=150, deadline=None)


@st.composite
def operators(draw, n, max_tuples=12):
    """A correlation operator on n qubits with random tuple masks (mask 0,
    the scalar -1, included), not necessarily from any one hypergraph."""
    i = draw(st.integers(1, n))
    bit = 1 << (i - 1)
    masks = draw(st.frozensets(st.integers(0, (1 << n) - 1), max_size=max_tuples))
    return StabilizerOperator(n, i, {m & ~bit for m in masks})


@st.composite
def operator_pairs(draw):
    """(op_a, op_b): independent pairs, pairs on one flip vertex, identical pairs."""
    n = draw(st.integers(1, SMALL_N))
    op_a = draw(operators(n))
    kind = draw(st.sampled_from(["any", "same vertex", "same operator"]))
    if kind == "same operator":
        return op_a, op_a
    op_b = draw(operators(n))
    if kind == "same vertex":
        bit = 1 << (op_a.i - 1)
        op_b = StabilizerOperator(n, op_a.i, {m & ~bit for m in op_b.masks.tolist()})
    return op_a, op_b


@PROPERTY
@given(operator_pairs(), st.integers(0, 2**32 - 1))
def test_exact_commutation_agrees_with_probe_residual(pair, seed):
    op_a, op_b = pair
    probe = statesim.random_state(op_a.n, np.random.default_rng(seed))
    residual = statesim.commutator_residual(op_a, op_b, probe)
    witness = witnesses(op_a.n, [op_a, op_b])[0]
    assert (witness is None) == (residual == 0.0)


@PROPERTY
@given(operator_pairs())
def test_commutation_witness_is_the_first_label_where_products_differ(pair):
    op_a, op_b = pair
    ka, kb = helpers.stabilizer_matrix(op_a), helpers.stabilizer_matrix(op_b)
    differ = np.flatnonzero(np.any(ka @ kb != kb @ ka, axis=1))
    witness = witnesses(op_a.n, [op_a, op_b])[0]
    if differ.size == 0:
        assert witness is None
    else:
        assert witness == differ[0]


@st.composite
def two_graph_operators(draw):
    """(n, ops) at n <= 8: a random list, maybe empty, of stabilizers of two
    random graphs, so that some pairs do not commute."""
    n = draw(st.integers(1, 8))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2))
    graphs = [helpers.random_hypergraph(n, np.random.default_rng(seed)) for seed in seeds]
    own = [statesim.stabilizer(h, i) for h in graphs for i in range(1, n + 1)]
    size = draw(st.integers(0, n + 2))
    return n, draw(st.lists(st.sampled_from(own), min_size=size, max_size=size))


@PROPERTY
@given(two_graph_operators())
def test_commutation_witnesses_are_the_witnesses_of_each_pair(case):
    n, ops = case
    got = witnesses(n, ops)
    pairs = [(a, b) for a in range(len(ops)) for b in range(a + 1, len(ops))]
    assert got == [witnesses(n, [ops[a], ops[b]])[0] for a, b in pairs]
    assert got == [helpers.loop_commutation_witness(ops[a], ops[b]) for a, b in pairs]


def test_commutation_witnesses_of_no_operators_and_of_mixed_sizes():
    assert witnesses(2, []) == []
    assert witnesses(2, [StabilizerOperator(2, 1)]) == []
    with pytest.raises(ValueError):
        witnesses(2, [StabilizerOperator(2, 1), StabilizerOperator(3, 1)])


def test_commutation_witnesses_name_a_non_commuting_pair():
    # X1 anticommutes with X2 Z1, so the two products differ at every label
    ops = [StabilizerOperator(2, 1), StabilizerOperator.from_sets(2, 2, [{1}])]
    assert witnesses(2, ops) == [0]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, hypergraph.MAX_VERTICES).flatmap(
    lambda n: st.lists(operators(n, max_tuples=40), min_size=1, max_size=5)
))
def test_operator_text_and_tuples_are_the_vertex_tuple_renderings(ops):
    def vertices(op, m):
        return [v for v in range(1, op.n + 1) if (m >> (v - 1)) & 1]

    def text(op):
        return " ".join([f"X{op.i}"] + [
            f"C{m.bit_count()}Z({','.join(map(str, vertices(op, m)))})"
            for m in helpers.vertex_tuple_sorted(op.masks.tolist())
        ])

    for op in ops:
        assert str(op) == text(op)
        assert op.tuples == frozenset(frozenset(vertices(op, m)) for m in op.masks.tolist())
        assert StabilizerOperator.from_sets(op.n, op.i, op.tuples) == op


@PROPERTY
@given(st.integers(1, 8).flatmap(operators))
def test_diagonal_does_not_depend_on_the_flip_bit(op):
    assert _bits.xor_permute(op.diagonal_table, op.flip, op.n) == op.diagonal_table


def test_operator_rejects_masks_out_of_range():
    with pytest.raises(ValueError):
        StabilizerOperator(3, 1, {0b1000})
    with pytest.raises(ValueError):
        StabilizerOperator(3, 1, {-2})
    with pytest.raises(ValueError):
        StabilizerOperator.from_sets(3, 1, [{0, 2}])
    with pytest.raises(ValueError):
        StabilizerOperator.from_sets(3, 1, [{2, 4}])


def test_stabilizer_masks_are_the_neighbourhood():
    op = statesim.stabilizer(SEVEN, 4)
    want = [0b1, 0b10110, 0b1110111]
    assert op.masks.tolist() == hypergraph.neighbour_masks(SEVEN, 4).tolist() == want
    assert op.tuples == hypergraph.neighbourhood(SEVEN, 4)


# ------------------------------------------------------ exact uniqueness


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)
)))
def test_exact_uniqueness_matches_the_per_probe_loop(case):
    n, dropped, graph_seed, probe_seed = case  # dropped: vertex left out, 0 for none
    h = helpers.random_hypergraph(n, np.random.default_rng(graph_seed))
    ops = [statesim.stabilizer(h, i) for i in range(1, n + 1) if i != dropped]
    unique = unique_with(h, ops)
    assert unique == all(helpers.loop_uniqueness_verdicts(h, 20, probe_seed, ops)) == (dropped == 0)


@st.composite
def operator_lists(draw):
    """(n, ops) at n <= 5: stabilizers of two random graphs, each possibly
    dropped or repeated, mixed with random operators, in any order; often
    several operators share a flip vertex, and the list may be empty."""
    n = draw(st.integers(1, 5))
    graphs = [
        helpers.random_hypergraph(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
        for _ in range(2)
    ]
    own = [statesim.stabilizer(h, i) for h in graphs for i in range(1, n + 1)]
    picked = draw(st.lists(st.sampled_from(own), max_size=2 * n))
    foreign = draw(st.lists(operators(n), max_size=n))
    return n, draw(st.permutations(picked + foreign))


@st.composite
def verification_cases(draw):
    """(state, ops): an operator_lists() case with a random sign state, or a
    random graph's state with its stabilizers, possibly dropped or repeated,
    in any order, so that the state is often fixed."""
    if draw(st.booleans()):
        n, ops = draw(operator_lists())
        return StateVector(n, draw(st.integers(0, (1 << (1 << n)) - 1))), ops
    n = draw(st.integers(1, 5))
    h = helpers.random_hypergraph(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    own = [statesim.stabilizer(h, i) for i in range(1, n + 1)]
    return statesim.build_state(h), draw(st.lists(st.sampled_from(own), max_size=2 * n))


@PROPERTY
@given(verification_cases())
def test_verification_is_the_dense_oracle(case):
    s, ops = case
    report = statesim.verification(s, ops)
    psi = helpers.amplitudes(s)
    changed = [np.flatnonzero(helpers.stabilizer_matrix(op) @ psi != psi) for op in ops]
    assert report.moved == [int(c[0]) if c.size else None for c in changed]
    matrices = [helpers.stabilizer_matrix(op) for op in ops]
    differ = [
        np.flatnonzero(np.any(ka @ kb != kb @ ka, axis=1))
        for ka, kb in itertools.combinations(matrices, 2)
    ]
    assert report.witnesses == [int(d[0]) if d.size else None for d in differ]
    eye = np.eye(1 << s.n)
    rows = [np.zeros((1, 1 << s.n))] + [helpers.stabilizer_matrix(op) - eye for op in ops]
    null_space = (1 << s.n) - np.linalg.matrix_rank(np.vstack(rows))
    assert report.dimension == (null_space if all(c.size == 0 for c in changed) else None)
    if report.dimension is not None:  # a fixed state makes every pair commute
        assert all(w is None for w in report.witnesses)


ONE_VERTEX = Hypergraph.from_sets(1, [{1}])
X1, MINUS_X1 = StabilizerOperator(1, 1), StabilizerOperator.from_sets(1, 1, [()])
MINUS = statesim.build_state(ONE_VERTEX)  # |->


def test_uniqueness_fails_on_an_empty_joint_space():
    # X1 and -X1 share no +1 vector; a projected probe vanishes, so no probe can tell
    assert statesim.verification(MINUS, [X1, MINUS_X1]).dimension is None  # X1 moves |->
    assert not unique_with(ONE_VERTEX, [X1, MINUS_X1])


def test_uniqueness_needs_the_state_in_the_joint_space():
    # |-> spans the +1 space of -X1; X1's one-dimensional +1 space misses it
    assert statesim.verification(MINUS, [MINUS_X1]).dimension == 1
    assert not unique_with(ONE_VERTEX, [X1])
    assert unique_with(ONE_VERTEX, [MINUS_X1])


@pytest.mark.parametrize("graph", [TRIANGLE, FIG4, SEVEN])
def test_uniqueness_fails_with_one_operator_dropped(graph):
    ops = [statesim.stabilizer(graph, i) for i in range(1, graph.n + 1)]
    kept = ops[:-1]
    # the joint +1 space of the remaining operators is two-dimensional
    projector = np.eye(1 << graph.n)
    for op in kept:
        projector = projector @ (np.eye(1 << graph.n) + helpers.stabilizer_matrix(op)) / 2
    assert np.linalg.matrix_rank(projector) == 2
    assert not unique_with(graph, kept)
    assert not all(helpers.loop_uniqueness_verdicts(graph, ops=kept))
    assert unique_with(graph, ops)


def test_uniqueness_reuses_given_operators():
    ops = [statesim.stabilizer(SEVEN, i) for i in range(1, 8)]
    assert unique_with(SEVEN, ops)
    assert statesim.uniqueness_check(SEVEN)


def test_apply_stabilizer_raw_acts_on_each_column():
    rng = np.random.default_rng(8)
    op = statesim.stabilizer(SEVEN, 3)
    v = rng.standard_normal((128, 5)) + 1j * rng.standard_normal((128, 5))
    batched = statesim._apply_stabilizer_raw(v, op)
    for j in range(5):
        assert np.array_equal(batched[:, j], helpers.stabilizer_matrix(op) @ v[:, j])
