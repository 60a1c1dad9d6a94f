import numpy as np
import pytest

import helpers
import invariant_suite
from hgsim import hypergraph, statesim
from hgsim.errors import FormatError
from hgsim.hypergraph import Hypergraph, UniformityClass

FIG4 = Hypergraph.from_sets(3, [{1}, {2, 3}, {1, 2, 3}])


def test_parse_empty_graph():
    h = hypergraph.parse("n 3\n")
    assert h.n == 3 and h.edges == frozenset()


def test_parse_single_full_edge():
    h = hypergraph.parse("n 3\ne 1 2 3\n")
    assert helpers.edge_sets(h) == frozenset({frozenset({1, 2, 3})})


def test_parse_mixed_order_graph():
    h = hypergraph.parse("# mixed orders\nn 3\ne 1\ne 2 3\ne 1 2 3\n")
    assert h == FIG4


@pytest.mark.parametrize(
    "text",
    [
        "n 3\ne 1 2\ne 1 2\n",  # duplicate edge
        "n 3\ne 1 4\n",  # vertex out of range
        "n 3\ne\n",  # empty edge
        "n 3\ne 2 1\n",  # not strictly increasing
        "n 3\ne 1 1\n",  # repeated vertex
        "n 3\nq 1\n",  # unknown directive
        "e 1 2\n",  # edge before header
        "n zero\n",
        "",
    ],
)
def test_parse_errors(text):
    with pytest.raises(FormatError):
        hypergraph.parse(text)


def test_serialize_is_canonical():
    assert hypergraph.serialize(FIG4) == "n 3\ne 1\ne 2 3\ne 1 2 3\n"


def test_toggle_full_edge_gives_balanced_variant():
    h = Hypergraph(3, np.setxor1d(FIG4.masks, np.uint64([0b111])))
    assert helpers.edge_sets(h) == frozenset({frozenset({1}), frozenset({2, 3})})
    # the full edge is present iff the count of minus signs is odd
    assert statesim.build_state(FIG4).weight() == 5
    assert statesim.build_state(h).weight() == 4


def test_from_sets_rejects_bad_edges():
    with pytest.raises(ValueError, match="^edge must be a nonempty vertex subset$"):
        Hypergraph.from_sets(3, [{1}, set()])
    with pytest.raises(ValueError, match="^vertex 0 out of range 1..3$"):
        Hypergraph.from_sets(3, [{0, 1}])


def test_classify_uniformity():
    assert str(hypergraph.classify_uniformity(Hypergraph(3, frozenset()))) == "empty"
    triangle = Hypergraph.from_sets(3, [{1, 2}, {2, 3}, {1, 3}])
    cls = hypergraph.classify_uniformity(triangle)
    assert cls.kind == "uniform" and cls.k == 2
    mixed = hypergraph.classify_uniformity(FIG4)
    assert mixed.kind == "mixed" and mixed.orders == frozenset({1, 2, 3})
    assert str(mixed) == "mixed 1,2,3"
    # the kind follows from the orders alone
    assert [UniformityClass(frozenset(o)).kind for o in ((), (3,), (2, 3))] == [
        "empty", "uniform", "mixed"
    ]
    assert UniformityClass(frozenset({3})) == hypergraph.classify_uniformity(Hypergraph(3, {7}))


def test_neighbourhood_empty_graph():
    h = Hypergraph(4, frozenset())
    assert hypergraph.neighbourhood(h, 2) == frozenset()


def test_neighbourhood_seven_vertex_example():
    h = hypergraph.parse("n 7\ne 6\ne 1 4\ne 2 3 4 5\ne 1 2 3 4 5 6 7\n")
    assert hypergraph.neighbourhood(h, 4) == frozenset(
        {frozenset({1}), frozenset({2, 3, 5}), frozenset({1, 2, 3, 5, 6, 7})}
    )


def test_neighbourhood_includes_empty_tuple_for_singleton():
    assert hypergraph.neighbourhood(FIG4, 1) == frozenset(
        {frozenset(), frozenset({2, 3})}
    )


def test_neighbourhood_vertex_out_of_range():
    with pytest.raises(ValueError):
        hypergraph.neighbourhood(FIG4, 4)


def test_count_states_values():
    assert hypergraph.count_states(3, 2) == 8
    assert hypergraph.count_states(3) == 128
    assert hypergraph.count_states(4) == 32768
    assert hypergraph.count_states(10) == 1 << 1023
    assert hypergraph.count_states(64, 2) == 1 << 2016
    assert hypergraph.count_states(64, 64) == 2


def test_count_states_errors():
    with pytest.raises(ValueError):
        hypergraph.count_states(3, 4)
    with pytest.raises(ValueError):
        hypergraph.count_states(0)
    with pytest.raises(ValueError):
        hypergraph.count_states(3, 0)


def test_dot_empty_graph():
    assert hypergraph.to_dot(Hypergraph(3, frozenset())) == (
        "graph hypergraph {\n"
        "  node [shape=circle];\n"
        "  1;\n"
        "  2;\n"
        "  3;\n"
        "}\n"
    )


def test_dot_single_pair_edge():
    h = Hypergraph.from_sets(2, [{1, 2}])
    assert hypergraph.to_dot(h) == (
        "graph hypergraph {\n"
        "  node [shape=circle];\n"
        "  1;\n"
        "  2;\n"
        "  1 -- 2;\n"
        "}\n"
    )


def test_dot_mixed_graph_golden():
    assert hypergraph.to_dot(FIG4) == (
        "graph hypergraph {\n"
        "  node [shape=circle];\n"
        "  1 [peripheries=2];\n"
        "  2;\n"
        "  3;\n"
        "  2 -- 3;\n"
        '  h0 [shape=point, label=""];\n'
        "  h0 -- 1;\n"
        "  h0 -- 2;\n"
        "  h0 -- 3;\n"
        "}\n"
    )


def test_invariant_suite():
    invariant_suite.check_hypergraph(42)
