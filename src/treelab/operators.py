"""Sparse operators on the vertex and signed-edge spaces of a finite tree.

Every named operator is built as a pair of appliers (forward and adjoint)
acting on sparse vectors, and can be materialized into a dense complex
matrix by applying it to each basis vector. The dense route is the
brute-force oracle against which the sparse appliers are verified.

Conventions fixed here and used everywhere downstream:

* The parent shift kills the origin vector and moves every other vertex
  one step toward the origin. Its adjoint fans out to children.
* The vertex-to-edge map sends a vertex to the signed class of the edge
  that joins it to its parent, and kills the origin.
* The coboundary of a signed edge class for the canonical orientation
  (u, v), u < v, is (unit at u) - (unit at v). With that sign,
  1 - shift = coboundary o vertex_to_edge + origin projection holds on
  every rooted tree; the opposite sign would break the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .spaces import EdgeVector, VertexVector
from .trees import RootedTree, Tree

__all__ = [
    "Space",
    "LinearOperator",
    "vertex_space",
    "edge_space",
    "identity_operator",
    "adjacency_operator",
    "branching_operator",
    "origin_projection",
    "parent_shift_operator",
    "deformation_operator",
    "deformation_inverse",
    "resolvent_apply",
    "resolvent_operator",
    "parent_edge_operator",
    "coboundary_operator",
    "materialize",
    "operator_norm",
    "matrix_to_csv",
]

MATERIALIZE_DIM_LIMIT = 10000


@dataclass(frozen=True)
class Space:
    """Tag for an operator's domain or codomain: basis kind plus dimension."""

    kind: str  # "vertex" | "edge"
    dim: int

    def zero(self):
        return (VertexVector if self.kind == "vertex" else EdgeVector)(self.dim)

    def basis_vector(self, k: int):
        cls = VertexVector if self.kind == "vertex" else EdgeVector
        return cls(self.dim, {k: 1})


def vertex_space(tree: Tree) -> Space:
    return Space("vertex", tree.n)


def edge_space(tree: Tree) -> Space:
    return Space("edge", tree.edge_count)


class LinearOperator:
    """A linear map given by a forward applier and an adjoint applier.

    The adjoint contract <A* u, v> == <u, A v> is not enforced at
    construction; it is what the test-suite verifies on random vectors.
    """

    def __init__(
        self,
        domain: Space,
        codomain: Space,
        apply_fn: Callable,
        adjoint_fn: Callable,
        name: str = "",
    ):
        self.domain = domain
        self.codomain = codomain
        self._apply = apply_fn
        self._adjoint = adjoint_fn
        self.name = name

    def apply(self, v):
        self._check(v, self.domain)
        return self._apply(v)

    def adjoint_apply(self, w):
        self._check(w, self.codomain)
        return self._adjoint(w)

    def adjoint(self) -> "LinearOperator":
        return LinearOperator(
            self.codomain, self.domain, self._adjoint, self._apply,
            name=f"{self.name}*" if self.name else "",
        )

    def compose(self, other: "LinearOperator") -> "LinearOperator":
        """self after other."""
        if other.codomain != self.domain:
            raise ValueError(
                f"cannot compose: {other.codomain} feeds into {self.domain}"
            )
        return LinearOperator(
            other.domain,
            self.codomain,
            lambda v: self._apply(other._apply(v)),
            lambda w: other._adjoint(self._adjoint(w)),
            name=f"{self.name}.{other.name}",
        )

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        if other.domain != self.domain or other.codomain != self.codomain:
            raise ValueError("summands act between different spaces")
        return LinearOperator(
            self.domain,
            self.codomain,
            lambda v: self._apply(v).add(other._apply(v)),
            lambda w: self._adjoint(w).add(other._adjoint(w)),
            name=f"{self.name}+{other.name}",
        )

    def scale(self, a: complex) -> "LinearOperator":
        """a times self; the adjoint scales by conj(a)."""
        ac = a.conjugate()
        return LinearOperator(
            self.domain,
            self.codomain,
            lambda v: self._apply(v).scale(a),
            lambda w: self._adjoint(w).scale(ac),
            name=f"({a}){self.name}",
        )

    @staticmethod
    def _check(v, space: Space) -> None:
        expected = VertexVector if space.kind == "vertex" else EdgeVector
        if type(v) is not expected or v.dim != space.dim:
            raise ValueError(
                f"operator expects a {space.kind} vector of dimension {space.dim}"
            )

    def __repr__(self) -> str:
        return (
            f"LinearOperator({self.name or '?'}: "
            f"{self.domain.kind}[{self.domain.dim}] -> "
            f"{self.codomain.kind}[{self.codomain.dim}])"
        )


def identity_operator(space: Space) -> LinearOperator:
    return LinearOperator(space, space, lambda v: v, lambda v: v, name="1")


def adjacency_operator(tree: Tree) -> LinearOperator:
    """Sum over neighbours; self-adjoint."""
    sp = vertex_space(tree)
    adj = tree.adjacency

    def apply(v: VertexVector) -> VertexVector:
        out: dict[int, complex] = {}
        for x, c in v.items():
            for y in adj[x]:
                out[y] = out.get(y, 0j) + c
        return VertexVector(tree.n, out)

    return LinearOperator(sp, sp, apply, apply, name="S")


def branching_operator(tree: Tree) -> LinearOperator:
    """Diagonal map x -> (degree(x) - 1) * x; self-adjoint."""
    sp = vertex_space(tree)
    q = [tree.q(x) for x in range(tree.n)]

    def apply(v: VertexVector) -> VertexVector:
        return VertexVector(tree.n, {x: q[x] * c for x, c in v.items()})

    return LinearOperator(sp, sp, apply, apply, name="Q")


def origin_projection(rooted: RootedTree) -> LinearOperator:
    """Rank-one orthogonal projection onto the origin's basis vector."""
    sp = vertex_space(rooted.tree)
    x0 = rooted.origin

    def apply(v: VertexVector) -> VertexVector:
        c = v.coeff(x0)
        return VertexVector(rooted.n, {x0: c} if c != 0 else {})

    return LinearOperator(sp, sp, apply, apply, name="p0")


def parent_shift_operator(rooted: RootedTree) -> LinearOperator:
    """Moves each vertex one step toward the origin and kills the origin.

    The adjoint fans a vertex out to the sum of its children (for the
    origin, that is the sum of all its neighbours).
    """
    sp = vertex_space(rooted.tree)
    parent = rooted.parent
    kids = rooted.children

    def apply(v: VertexVector) -> VertexVector:
        out: dict[int, complex] = {}
        for x, c in v.items():
            p = parent[x]
            if p is not None:
                out[p] = out.get(p, 0j) + c
        return VertexVector(rooted.n, out)

    def adjoint(v: VertexVector) -> VertexVector:
        out: dict[int, complex] = {}
        for x, c in v.items():
            for y in kids[x]:
                out[y] = out.get(y, 0j) + c
        return VertexVector(rooted.n, out)

    return LinearOperator(sp, sp, apply, adjoint, name="P")


def deformation_operator(rooted: RootedTree, t: float) -> LinearOperator:
    """1 - t*(parent shift) + (sqrt(1 - t^2) - 1)*(origin projection).

    Defined for 0 <= t <= 1; the identity at t = 0.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"deformation parameter must lie in [0, 1], got {t}")
    alpha = math.sqrt(1.0 - t * t) - 1.0
    op = (
        identity_operator(vertex_space(rooted.tree))
        + parent_shift_operator(rooted).scale(-t)
        + origin_projection(rooted).scale(alpha)
    )
    op.name = f"T[{t}]"
    return op


def resolvent_apply(rooted: RootedTree, z: complex, v: VertexVector) -> VertexVector:
    """(1 - z * parent shift)^(-1) applied to v.

    The shift is nilpotent on a finite tree, so the geometric series is the
    finite sum over ancestors: a vertex spreads along its path to the
    origin with weight z^k at the k-th ancestor. Any complex z is legal.
    """
    parent = rooted.parent
    out: dict[int, complex] = {}
    for x, c in v.items():
        w = complex(c)
        y: int | None = x
        while y is not None:
            out[y] = out.get(y, 0j) + w
            y = parent[y]
            w = w * z
    return VertexVector(rooted.n, out)


def resolvent_operator(rooted: RootedTree, z: complex) -> LinearOperator:
    """(1 - z * parent shift)^(-1) as an operator, with exact adjoint.

    The adjoint spreads down the subtree below each vertex with weight
    conj(z)^k at depth k.
    """
    sp = vertex_space(rooted.tree)
    kids = rooted.children
    zc = complex(z).conjugate()

    def adjoint(v: VertexVector) -> VertexVector:
        out: dict[int, complex] = {}
        for x, c in v.items():
            stack = [(x, complex(c))]
            while stack:
                y, w = stack.pop()
                out[y] = out.get(y, 0j) + w
                for child in kids[y]:
                    stack.append((child, w * zc))
        return VertexVector(rooted.n, out)

    return LinearOperator(
        sp, sp, lambda v: resolvent_apply(rooted, z, v), adjoint, name=f"R[{z}]"
    )


def deformation_inverse(rooted: RootedTree, t: float) -> LinearOperator:
    """Exact inverse of the deformation for 0 <= t < 1.

    Uses the factorization T = (1 - t*shift)(1 + alpha*p0), valid because
    the shift kills the origin, so the inverse is
    (1 + beta*p0) o (1 - t*shift)^(-1) with beta = (1-t^2)^(-1/2) - 1.
    At t = 1 the deformation is singular and rejected.
    """
    if not 0.0 <= t < 1.0:
        raise ValueError(f"deformation inverse needs t in [0, 1), got {t}")
    beta = 1.0 / math.sqrt(1.0 - t * t) - 1.0
    sp = vertex_space(rooted.tree)
    rescale = identity_operator(sp) + origin_projection(rooted).scale(beta)
    op = rescale.compose(resolvent_operator(rooted, t))
    op.name = f"Tinv[{t}]"
    return op


def parent_edge_operator(rooted: RootedTree) -> LinearOperator:
    """Vertex space -> edge space: x maps to the signed class of the edge
    from x to its parent; the origin maps to zero.

    Satisfies F* F = 1 - p0 and F F* = 1 on every rooted tree.
    """
    tree = rooted.tree
    dom = vertex_space(tree)
    cod = edge_space(tree)
    parent = rooted.parent

    # child endpoint and sign per canonical edge id
    child_of_edge = []
    sign_of_edge = []
    for u, v in tree.edges:
        child = u if parent[u] == v else v
        child_of_edge.append(child)
        sign_of_edge.append(1.0 if child == u else -1.0)

    def apply(v: VertexVector) -> EdgeVector:
        out: dict[int, complex] = {}
        for x, c in v.items():
            p = parent[x]
            if p is None:
                continue
            idx = tree.edge_index[(min(x, p), max(x, p))]
            out[idx] = out.get(idx, 0j) + sign_of_edge[idx] * c
        return EdgeVector(tree.edge_count, out)

    def adjoint(w: EdgeVector) -> VertexVector:
        out: dict[int, complex] = {}
        for idx, c in w.items():
            x = child_of_edge[idx]
            out[x] = out.get(x, 0j) + sign_of_edge[idx] * c
        return VertexVector(tree.n, out)

    return LinearOperator(dom, cod, apply, adjoint, name="F")


def coboundary_operator(tree: Tree) -> LinearOperator:
    """Edge space -> vertex space: the canonical class of (u, v), u < v,
    maps to (unit at u) - (unit at v).

    Well defined on signed classes since reversing an oriented edge flips
    both the class and the difference of endpoint vectors.
    """
    dom = edge_space(tree)
    cod = vertex_space(tree)

    def apply(w: EdgeVector) -> VertexVector:
        out: dict[int, complex] = {}
        for idx, c in w.items():
            u, v = tree.edges[idx]
            out[u] = out.get(u, 0j) + c
            out[v] = out.get(v, 0j) - c
        return VertexVector(tree.n, out)

    def adjoint(v: VertexVector) -> EdgeVector:
        out: dict[int, complex] = {}
        for x, c in v.items():
            for y in tree.adjacency[x]:
                idx = tree.edge_index[(min(x, y), max(x, y))]
                out[idx] = out.get(idx, 0j) + (c if x < y else -c)
        return EdgeVector(tree.edge_count, out)

    return LinearOperator(dom, cod, apply, adjoint, name="b")


def materialize(op: LinearOperator) -> np.ndarray:
    """Dense complex matrix of the operator, column by basis vector.

    This is the brute-force oracle: it exercises the sparse applier on
    every basis vector. Guarded against dimensions above
    MATERIALIZE_DIM_LIMIT.
    """
    m, n = op.codomain.dim, op.domain.dim
    if max(m, n) > MATERIALIZE_DIM_LIMIT:
        raise ValueError(
            f"refusing to materialize a {m} x {n} matrix "
            f"(limit {MATERIALIZE_DIM_LIMIT})"
        )
    out = np.zeros((m, n), dtype=np.complex128)
    for j in range(n):
        col = op.apply(op.domain.basis_vector(j))
        for i, c in col._data().items():
            out[i, j] = c
    return out


def operator_norm(op: Union[LinearOperator, np.ndarray]) -> float:
    """Spectral norm (largest singular value), exact to rounding."""
    a = op if isinstance(op, np.ndarray) else materialize(op)
    return float(np.linalg.norm(a, 2))


def matrix_to_csv(matrix: np.ndarray) -> str:
    """CSV export, one row per line, complex entries in 're+imi' form."""
    from .spaces import format_complex

    lines = []
    for row in np.atleast_2d(matrix):
        lines.append(",".join(format_complex(complex(z)) for z in row))
    return "\n".join(lines) + "\n"
