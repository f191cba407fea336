"""Directed weighted graphs, Laplacians, and the spectral quantities used by
the delay-bound and frequency-certificate calculators.

Node ids are 1-based everywhere they face the user (configs, reports); the
weight matrix is indexed 0-based internally. Entry ``weights[i, k]`` is the
weight node ``i + 1`` places on information it receives from node ``k + 1``,
so row ``i`` collects the in-neighbourhood of agent ``i + 1``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Digraph:
    """Weighted digraph without self-loops.

    Parameters
    ----------
    n : int
        Number of nodes, at least 1.
    weights : array_like, shape (n, n)
        Nonnegative adjacency weights with a zero diagonal. Twice each row
        sum, the ``|L|`` row sum that bounds the spectral radius, is finite.
    """

    n: int
    weights: np.ndarray

    def __post_init__(self):
        try:
            n = operator.index(self.n)
        except TypeError as exc:
            raise ValueError(f"node count must be an integer, got {self.n!r}") from exc
        if n < 1:
            raise ValueError(f"node count must be positive, got {n}")
        object.__setattr__(self, "n", n)
        w = np.array(self.weights, dtype=float)
        if w.shape != (self.n, self.n):
            raise ValueError(f"weights must have shape ({self.n}, {self.n}), got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        if np.any(np.diagonal(w) != 0.0):
            raise ValueError("self-loop weights must be zero")
        with np.errstate(over="ignore"):
            overflow = np.flatnonzero(~np.isfinite(2.0 * w.sum(axis=1)))
        if overflow.size:
            raise ValueError(f"twice the sum of the weights into node {overflow[0] + 1} overflows")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_edges(cls, n, edges):
        """Build a graph from ``(receiver, sender, weight)`` triples.

        Node ids in ``edges`` are 1-based; a triple ``(i, k, w)`` sets the
        weight agent ``i`` places on information received from agent ``k``.
        Each ``(i, k)`` pair may appear once. Raises ``MemoryError`` when
        the ``n`` x ``n`` weight matrix cannot be allocated.
        """
        try:
            w = np.zeros((n, n))
        except ValueError as exc:
            # n * n past numpy's size limit: no more allocatable than a
            # matrix the allocator refuses.
            raise MemoryError(f"cannot allocate a {n} x {n} weight matrix ({exc})") from exc
        seen = set()
        for i, k, value in edges:
            if not (1 <= i <= n and 1 <= k <= n):
                raise ValueError(f"edge ({i}, {k}) out of range for n={n}")
            if (i, k) in seen:
                raise ValueError(f"edge ({i}, {k}) is listed more than once")
            seen.add((i, k))
            w[i - 1, k - 1] = value
        return cls(n=n, weights=w)

    def __eq__(self, other):
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.weights, other.weights)


def degree_vector(g: Digraph) -> np.ndarray:
    """Row sums of the weight matrix (in-degree of each agent); ``Digraph``
    keeps twice each of them finite."""
    return g.weights.sum(axis=1)


def laplacian(g: Digraph) -> np.ndarray:
    """Read-only Laplacian ``diag(degree_vector(g)) - weights``; each row
    sums to zero."""
    matrix = np.diag(degree_vector(g)) - g.weights
    matrix.setflags(write=False)
    return matrix


def is_symmetric(g: Digraph) -> bool:
    """True when the stored weights satisfy ``a_ik == a_ki`` exactly."""
    return bool(np.array_equal(g.weights, g.weights.T))


def has_spanning_root(g: Digraph) -> bool:
    """True when some node's influence reaches every other node.

    Information flows from sender ``k`` to receiver ``i`` whenever
    ``weights[i-1, k-1] > 0``. Exactly this condition makes the Laplacian
    zero eigenvalue simple.
    """
    w = g.weights
    n = g.n
    for root in range(n):
        seen = np.zeros(n, dtype=bool)
        seen[root] = True
        stack = [root]
        while stack:
            v = stack.pop()
            for i in np.flatnonzero(w[:, v] > 0.0):
                if not seen[i]:
                    seen[i] = True
                    stack.append(int(i))
        if seen.all():
            return True
    return False


def spectrum(matrix: np.ndarray) -> float:
    """Spectral radius of the Laplacian via a dense eigenvalue solver.

    A non-converging eigenvalue iteration raises ``np.linalg.LinAlgError``,
    a ``ValueError``, that names the scenario key the Laplacian comes from.
    """
    try:
        values = np.linalg.eigvals(matrix)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"key 'edges' is invalid: Laplacian eigenvalues did not converge ({exc})") from exc
    return float(np.abs(values).max())
