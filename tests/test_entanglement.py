import re

import numpy as np
import pytest

import helpers
import invariant_suite
from hgsim import _bits, entanglement, statesim
from hgsim.hypergraph import Hypergraph
from hgsim.statesim import StateVector

GROVER3 = Hypergraph.from_sets(3, [{1, 2, 3}])
PAIR = Hypergraph.from_sets(2, [{1, 2}])
TRIANGLE = Hypergraph.from_sets(3, [{1, 2}, {2, 3}, {1, 3}])


def test_reduced_density_product_state():
    rho = entanglement.reduced_density(StateVector(2, 0), {1})
    assert np.allclose(rho, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)


def test_reduced_density_pair_graph_is_maximally_mixed():
    rho = entanglement.reduced_density(statesim.build_state(PAIR), {1})
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_reduced_density_single_minus_state():
    rho = entanglement.reduced_density(statesim.build_state(GROVER3), {1})
    assert np.allclose(rho, [[0.5, 0.25], [0.25, 0.5]], atol=1e-12)


def test_reduced_density_trace_is_exact_for_sign_states():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        s = statesim.build_state(helpers.random_hypergraph(n, rng))
        subsystem = sorted(
            set(rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n)), replace=False))
        )
        rho = entanglement.reduced_density(s, subsystem)
        assert np.trace(rho) == 1.0  # dyadic sums are exact
        assert np.array_equal(rho, rho.T)


def test_reduced_density_matches_loop_oracle():
    rng = np.random.default_rng(37)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        s = helpers.random_table(n, rng)
        subsystem = sorted(
            set(rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n)), replace=False))
        )
        rho = entanglement.reduced_density(s, subsystem)
        oracle = helpers.loop_partial_trace(helpers.amplitudes(s), n, subsystem)
        assert np.allclose(rho, oracle, atol=1e-12)


@pytest.mark.parametrize("q", [1, 16])
def test_reduced_density_of_one_qubit_past_int16_labels(q):
    # at n = 16 the labels of vertex 16's side no longer fit int16
    s = helpers.random_table(16, np.random.default_rng(41))
    psi = helpers.amplitudes(s)
    bit = (np.arange(1 << 16) >> (q - 1)) & 1
    halves = [psi[bit == 0], psi[bit == 1]]
    want = [[np.vdot(b, a) for b in halves] for a in halves]
    assert np.allclose(entanglement.reduced_density(s, {q}), want, rtol=0, atol=1e-12)


def test_reduced_density_rejects_bad_subsystems():
    s = StateVector(3, 0)
    for bad in (set(), {1, 2, 3}, {0}, {4}):
        with pytest.raises(ValueError):
            entanglement.reduced_density(s, bad)


def test_reduced_density_rejects_non_integer_vertices():
    s = StateVector(3, 0)
    with pytest.raises(ValueError, match="out of range"):
        entanglement.reduced_density(s, {1.5})


def test_lambda_max_values():
    assert entanglement.lambda_max(np.eye(2) / 2) == pytest.approx(0.5, abs=1e-12)
    m = np.array([[0.5, 0.25], [0.25, 0.5]])
    assert entanglement.lambda_max(m) == pytest.approx(0.75, abs=1e-10)
    v = np.array([1.0, 2.0, 2.0]) / 3.0
    assert entanglement.lambda_max(np.outer(v, v)) == pytest.approx(1.0, abs=1e-10)
    assert entanglement.lambda_max(np.array([[1, 1j], [-1j, 1]])) == 2.0  # exactly Hermitian


def test_lambda_max_rejects_non_hermitian():
    with pytest.raises(ValueError):
        entanglement.lambda_max(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_lambda_max_rejects_a_one_ulp_asymmetry():
    # the check is exact: no tolerance forgives the last bit
    m = np.array([[1.0, 0.5], [np.nextafter(0.5, 1.0), 1.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        entanglement.lambda_max(m)


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
def test_lambda_max_rejects_a_matrix_with_no_rows(shape):
    with pytest.raises(ValueError, match=re.escape(f"with a row, got shape {shape}")):
        entanglement.lambda_max(np.zeros(shape))


@pytest.mark.parametrize("shape", [(0, 3, 3), (2, 0, 3, 3)])
def test_lambda_max_of_an_empty_stack_is_empty(shape):
    top = entanglement.lambda_max(np.zeros(shape))
    assert isinstance(top, np.ndarray) and top.shape == shape[:-2]


def test_lambda_max_rejects_nan_diagonal():
    with pytest.raises(ValueError, match="not finite"):
        entanglement.lambda_max(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_lambda_max_rejects_infinite_off_diagonal():
    with pytest.raises(ValueError, match="not finite"):
        entanglement.lambda_max(np.array([[0.0, np.inf], [np.inf, 0.0]]))


def stacked_densities() -> np.ndarray:
    """A (2, 3, 8, 8) stack: the reduced densities of six 3-vertex cuts of a
    random 7-qubit state."""
    s = helpers.random_table(7, np.random.default_rng(7), normalized=True)
    sides = [{1, 2, 3}, {1, 4, 7}, {2, 5, 6}, {3, 4, 5}, {1, 6, 7}, {4, 5, 6}]
    return np.array([entanglement.reduced_density(s, a) for a in sides]).reshape(2, 3, 8, 8)


def test_lambda_max_of_a_stack_equals_each_2d_call_bit_for_bit():
    stack = stacked_densities()
    top = entanglement.lambda_max(stack)
    assert top.shape == (2, 3)
    assert top.tolist() == [[entanglement.lambda_max(m) for m in row] for row in stack]


@pytest.mark.parametrize("index", [(0, 0), (1, 2), (0, 2)])
@pytest.mark.parametrize(
    "bad, message", [(np.nan, "not finite"), (np.inf, "not finite"), (1.0, "not Hermitian")]
)
def test_lambda_max_checks_every_matrix_of_a_stack(index, bad, message):
    stack = stacked_densities()
    stack[index][0, -1] = bad
    with pytest.raises(ValueError, match=message):
        entanglement.lambda_max(stack)


@pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 4, 3)])
def test_lambda_max_needs_square_matrices(shape):
    with pytest.raises(ValueError, match="expected a square matrix"):
        entanglement.lambda_max(np.zeros(shape))


@pytest.mark.parametrize(
    "bad, message", [(np.nan, "not finite"), (np.inf, "not finite"), (1.0, "not Hermitian")]
)
def test_sweep_checks_each_block_like_lambda_max(bad, message, monkeypatch):
    # a valid state never yields such a block; corrupt the last matrix of each
    real = entanglement._grams

    def corrupted(*args):
        grams = real(*args).copy()
        grams[-1, 0, -1] = bad
        return grams

    monkeypatch.setattr(entanglement, "_grams", corrupted)
    with pytest.raises(ValueError, match=message):
        entanglement.genuine_multipartite_geometric(statesim.build_state(GROVER3))


@pytest.mark.parametrize("n", range(2, 13))
def test_sweep_equals_reduced_density_across_blocks(n):
    # from n = 9 on a size class spans several blocks of cuts; at every n the
    # sweep's one division of each top eigenvalue by 2**n must be bit exact
    s = helpers.random_table(n, np.random.default_rng(n), normalized=True)
    report = entanglement.genuine_multipartite_geometric(s)
    assert [mask for mask, _ in report.cuts] == helpers.loop_bipartition_masks(n)
    for mask, lam in report.cuts:
        rho = entanglement.reduced_density(s, _bits.vertices_from_mask(mask))
        assert lam == entanglement.lambda_max(rho)
    psi = helpers.amplitudes(s)
    dense = [helpers.cut_lambda(psi, mask) for mask, _ in report.cuts]
    assert np.allclose(dense, [lam for _, lam in report.cuts], rtol=0, atol=1e-12)


def test_geometric_measure_single_minus_state():
    report = entanglement.genuine_multipartite_geometric(statesim.build_state(GROVER3))
    assert len(report.cuts) == 3
    assert all(lam == pytest.approx(0.75, abs=1e-10) for _, lam in report.cuts)
    assert report.e2 == pytest.approx(0.25, abs=1e-9)


def test_geometric_measure_product_state_is_zero():
    report = entanglement.genuine_multipartite_geometric(StateVector(3, 0))
    assert report.e2 == pytest.approx(0.0, abs=1e-12)
    assert report.lambda_star == pytest.approx(1.0, abs=1e-12)


def test_geometric_measure_triangle_graph():
    report = entanglement.genuine_multipartite_geometric(statesim.build_state(TRIANGLE))
    assert all(lam == pytest.approx(0.5, abs=1e-10) for _, lam in report.cuts)
    assert report.e2 == pytest.approx(0.5, abs=1e-10)


def test_bipartition_enumeration_covers_each_cut_once():
    for n in range(2, 8):
        masks = [m for _, side in entanglement._cut_classes(n) for m in side.tolist()]
        assert len(masks) == (1 << (n - 1)) - 1
        full = (1 << n) - 1
        seen = set()
        for m in masks:
            assert 1 <= m.bit_count() <= n // 2
            assert m not in seen and (m ^ full) not in seen
            seen.add(m)


def test_geometric_measure_cap():
    with pytest.raises(ValueError):
        entanglement.genuine_multipartite_geometric(StateVector(13, 0))
    with pytest.raises(ValueError):
        entanglement.genuine_multipartite_geometric(StateVector(1, 0))


def test_report_text_format():
    report = entanglement.genuine_multipartite_geometric(statesim.build_state(GROVER3))
    assert report.to_text() == (
        "cut 1 lambda 0.75\ncut 2 lambda 0.75\ncut 4 lambda 0.75\nE2 0.25\n"
    )


def test_invariant_suite():
    invariant_suite.check_entanglement(42)
