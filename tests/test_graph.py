"""Graph construction, reachability, and spectral quantities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracconsensus import (
    Digraph,
    degree_vector,
    has_spanning_root,
    is_symmetric,
    laplacian,
    spectrum,
)
from conftest import demo_graph, random_digraph, zero_multiplicity


def symmetric_pair():
    return Digraph.from_edges(2, [(1, 2, 1.0), (2, 1, 1.0)])


class TestDigraph:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self-loop"):
            Digraph(n=2, weights=[[1.0, 0.0], [0.0, 0.0]])

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Digraph(n=2, weights=[[0.0, -1.0], [0.0, 0.0]])

    def test_rejects_row_sums_whose_double_overflows(self):
        # 2*row sum bounds every Laplacian eigenvalue; each weight is finite.
        with pytest.raises(ValueError, match="weights into node 2 overflows"):
            Digraph(n=3, weights=[[0.0, 0.0, 0.0], [1e308, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="weights into node 1 overflows"):
            Digraph(n=3, weights=[[0.0, 6e307, 6e307], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        big = Digraph(n=2, weights=[[0.0, 8e307], [8e307, 0.0]])
        assert np.isfinite(2.0 * degree_vector(big)).all()

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            Digraph(n=3, weights=np.zeros((2, 2)))

    def test_rejects_bad_node_count(self):
        with pytest.raises(ValueError, match="positive"):
            Digraph(n=0, weights=np.zeros((0, 0)))

    def test_from_edges_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Digraph.from_edges(2, [(1, 3, 1.0)])

    def test_from_edges_rejects_repeated_pair(self):
        with pytest.raises(ValueError, match=r"edge \(2, 1\) is listed more than once"):
            Digraph.from_edges(2, [(2, 1, 0.7), (1, 2, 1.0), (2, 1, 0.1)])

    def test_from_edges_past_numpy_size_limit(self):
        # n * n * 8 bytes overflows numpy's size limit, so nothing is allocated.
        with pytest.raises(MemoryError, match="weight matrix"):
            Digraph.from_edges(10**10, [])

    def test_weights_are_read_only(self):
        g = demo_graph()
        with pytest.raises(ValueError):
            g.weights[0, 1] = 5.0

    def test_equality(self):
        assert demo_graph() == demo_graph()
        assert demo_graph() != symmetric_pair()


class TestDegreesAndLaplacian:
    def test_demo_degrees(self):
        assert degree_vector(demo_graph()).tolist() == [1.0, 0.7, 0.9, 0.8]

    def test_zero_graph_degrees(self):
        assert degree_vector(Digraph(n=3, weights=np.zeros((3, 3)))).tolist() == [0, 0, 0]

    def test_complete_graph_degrees(self):
        w = np.ones((3, 3)) - np.eye(3)
        assert degree_vector(Digraph(n=3, weights=w)).tolist() == [2, 2, 2]

    def test_demo_laplacian_rows(self):
        lap = laplacian(demo_graph())
        assert lap[0].tolist() == [1.0, 0.0, 0.0, -1.0]
        assert lap[2].tolist() == [-0.9, 0.0, 0.9, 0.0]

    def test_zero_graph_laplacian(self):
        lap = laplacian(Digraph(n=3, weights=np.zeros((3, 3))))
        assert np.array_equal(lap, np.zeros((3, 3)))

    def test_diagonal_and_offdiagonal_signs(self):
        lap = laplacian(demo_graph())
        assert np.allclose(np.diagonal(lap), degree_vector(demo_graph()))
        off = lap - np.diag(np.diagonal(lap))
        assert np.all(off <= 0.0)

    def test_laplacian_is_read_only(self):
        lap = laplacian(demo_graph())
        with pytest.raises(ValueError):
            lap[0, 0] = 5.0


class TestSpanningRoot:
    def test_demo_graph_rooted_at_one(self):
        # Node 1 reaches 2 and 3 directly and 4 through 2.
        assert has_spanning_root(demo_graph()) is True

    def test_isolated_nodes(self):
        assert has_spanning_root(Digraph(n=2, weights=np.zeros((2, 2)))) is False

    def test_chain(self):
        g = Digraph.from_edges(3, [(2, 1, 1.0), (3, 2, 1.0)])
        assert has_spanning_root(g) is True

    def test_single_node(self):
        assert has_spanning_root(Digraph(n=1, weights=np.zeros((1, 1)))) is True

    @staticmethod
    def brute_force(g):
        """Some row of the reflexive transitive closure is all True."""
        reach = (g.weights > 0.0).T | np.eye(g.n, dtype=bool)  # reach[k, i]: k informs i
        for _ in range(g.n):
            reach = reach | (reach.astype(int) @ reach.astype(int) > 0)
        return bool(reach.all(axis=1).any())

    @pytest.mark.parametrize("n, edges, rooted", [
        (3, [], False),  # no edges
        (1, [], True),
        (4, [(1, 4, 1.0), (2, 1, 1.0), (3, 2, 1.0)], True),  # only node 4 is a root
        (4, [(2, 1, 1.0), (3, 2, 1.0)], False),  # node 4 is cut off
        (4, [(1, 2, 1.0), (3, 4, 1.0)], False),  # two components
    ])
    def test_small_cases_against_brute_force(self, n, edges, rooted):
        g = Digraph.from_edges(n, edges)
        assert has_spanning_root(g) is rooted
        assert self.brute_force(g) is rooted

    def test_random_digraphs_against_brute_force(self):
        rng = np.random.default_rng(31)
        rooted = 0
        for _ in range(600):
            n = int(rng.integers(1, 10))
            g = random_digraph(rng, n, edge_prob=float(rng.uniform(0.05, 0.5)))
            expected = self.brute_force(g)
            assert has_spanning_root(g) is expected
            rooted += expected
        assert 100 < rooted < 500

    def test_long_path_rooted_at_its_last_node(self):
        # 1 <- 2 <- ... <- 1000: only node 1000 reaches every node.
        n = 1000
        g = Digraph.from_edges(n, [(i, i + 1, 1.0) for i in range(1, n)])
        assert has_spanning_root(g) is True
        assert has_spanning_root(Digraph.from_edges(n, [(i, i + 1, 1.0)
                                                        for i in range(2, n)])) is False


class TestSpectrum:
    def test_symmetric_pair(self):
        g = symmetric_pair()
        assert np.allclose(sorted(np.abs(np.linalg.eigvals(laplacian(g)))), [0.0, 2.0],
                           atol=1e-12)
        assert spectrum(laplacian(g)) == pytest.approx(2.0)
        assert zero_multiplicity(g) == 1

    def test_zero_matrix(self):
        g = Digraph(n=3, weights=np.zeros((3, 3)))
        assert zero_multiplicity(g) == 3
        assert spectrum(laplacian(g)) == 0.0

    def test_demo_graph_simple_zero(self):
        assert zero_multiplicity(demo_graph()) == 1

    def test_solver_failure_is_reported(self, monkeypatch):
        def boom(matrix):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", boom)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            spectrum(laplacian(demo_graph()))


class TestSymmetry:
    def test_demo_graph_asymmetric(self):
        assert not is_symmetric(demo_graph())

    def test_symmetric_pair(self):
        assert is_symmetric(symmetric_pair())

    def test_zero_graph(self):
        assert is_symmetric(Digraph(n=3, weights=np.zeros((3, 3))))


@st.composite
def digraphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    weights = np.zeros((n, n))
    for i in range(n):
        for k in range(n):
            if i != k and draw(st.booleans()):
                weights[i, k] = draw(
                    st.floats(min_value=0.25, max_value=3.0, allow_nan=False)
                )
    return Digraph(n=n, weights=weights)


@settings(deadline=None, max_examples=150)
@given(digraphs())
def test_laplacian_rows_sum_to_zero(g):
    rows = laplacian(g).sum(axis=1)
    assert np.max(np.abs(rows)) < 1e-12


@settings(deadline=None, max_examples=200)
@given(digraphs())
def test_spanning_root_iff_simple_zero_eigenvalue(g):
    assert has_spanning_root(g) == (zero_multiplicity(g) == 1)


@settings(deadline=None, max_examples=100)
@given(digraphs(), st.randoms(use_true_random=False))
def test_relabeling_preserves_eigenvalue_moduli(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    perm = np.array(perm)
    relabeled = Digraph(n=g.n, weights=g.weights[np.ix_(perm, perm)])
    original = np.sort(np.abs(np.linalg.eigvals(laplacian(g))))
    shuffled = np.sort(np.abs(np.linalg.eigvals(laplacian(relabeled))))
    assert np.allclose(original, shuffled, atol=1e-9)
    assert spectrum(laplacian(relabeled)) == shuffled[-1]


def test_random_graph_helper_valid():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = random_digraph(rng, rng.integers(1, 9))
        assert np.all(np.diagonal(g.weights) == 0.0)
        assert np.all(g.weights >= 0.0)
