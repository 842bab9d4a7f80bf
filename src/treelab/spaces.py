"""Sparse complex vectors over the vertex basis and the signed edge basis.

Vertex vectors live in the Hilbert space spanned by one unit vector per
vertex. Edge vectors realize the signed quotient of the oriented edge
space: one orthonormal basis vector per unoriented edge, and the oriented
symbol for (x, y) is +/- that basis vector depending on whether (x, y) is
the canonical (min, max) orientation. With this convention every signed
edge class has norm 1.

Vectors are value-semantic: all operations return fresh objects, and
coefficients that cancel to exact zero are dropped.
"""

from __future__ import annotations

import math
import re
from typing import Iterator, Mapping

from .trees import Tree

__all__ = [
    "VertexVector",
    "EdgeVector",
    "delta_vertex",
    "delta_edge",
    "format_complex",
    "parse_complex",
    "parse_vertex_literal",
    "format_vertex_literal",
    "parse_edge_literal",
    "format_edge_literal",
]


class _SparseVector:
    """Shared sparse-map implementation; keys index an orthonormal basis."""

    __slots__ = ("dim", "_coeffs")

    def __init__(self, dim: int, coeffs: Mapping[int, complex] | None = None):
        self.dim = dim
        data: dict[int, complex] = {}
        if coeffs:
            for k, c in coeffs.items():
                if not (0 <= k < dim):
                    raise ValueError(f"index {k} outside 0..{dim - 1}")
                c = complex(c)
                if c != 0:
                    data[k] = c
        self._coeffs = data

    def coeff(self, k: int) -> complex:
        return self._coeffs.get(k, 0j)

    def items(self) -> Iterator[tuple[int, complex]]:
        return iter(sorted(self._coeffs.items()))

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._coeffs))

    def _data(self) -> dict[int, complex]:
        return self._coeffs

    def __len__(self) -> int:
        return len(self._coeffs)

    def _with(self, data: dict[int, complex]):
        """Same type and dimension over data whose keys come from vectors of
        this space and whose values are nonzero complex: no re-validation."""
        vec = object.__new__(type(self))
        vec.dim = self.dim
        vec._coeffs = data
        return vec

    def _binary(self, other, sign: complex):
        if type(other) is not type(self) or other.dim != self.dim:
            raise ValueError("vectors live in different spaces")
        out = dict(self._coeffs)
        for k, c in other._coeffs.items():
            s = out.get(k, 0j) + sign * c
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return self._with(out)

    def add(self, other):
        return self._binary(other, 1)

    def sub(self, other):
        return self._binary(other, -1)

    def scale(self, a: complex):
        a = complex(a)
        return self._with(
            {k: p for k, c in self._coeffs.items() if (p := a * c) != 0}
        )

    def inner(self, other) -> complex:
        """Inner product, conjugate-linear in self (the first argument)."""
        if type(other) is not type(self) or other.dim != self.dim:
            raise ValueError("vectors live in different spaces")
        a, b = self._coeffs, other._coeffs
        keys = a if len(a) <= len(b) else b
        return sum(a[k].conjugate() * b[k] for k in keys if k in a and k in b)

    def norm(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for c in self._coeffs.values()))

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.sub(other)

    def __rmul__(self, a):
        return self.scale(a)

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and other.dim == self.dim
            and other._coeffs == self._coeffs
        )

    def __hash__(self):
        return hash((type(self).__name__, self.dim, frozenset(self._coeffs.items())))

    def __repr__(self) -> str:
        entries = ", ".join(f"{k}: {c}" for k, c in self.items())
        return f"{type(self).__name__}(dim={self.dim}, {{{entries}}})"


class VertexVector(_SparseVector):
    """Finitely supported complex function on vertices."""


class EdgeVector(_SparseVector):
    """Complex function on canonical edge ids (one basis vector per edge)."""


def delta_vertex(tree: Tree, x: int) -> VertexVector:
    tree.check_vertex(x)
    return VertexVector(tree.n, {x: 1})


def delta_edge(tree: Tree, x: int, y: int) -> EdgeVector:
    """The signed class of the oriented edge (x, y).

    Equals +e for the canonical basis vector e of edge {x, y} when x < y,
    and -e otherwise, so delta_edge(y, x) == -delta_edge(x, y) exactly.
    """
    key = (min(x, y), max(x, y))
    idx = tree.edge_index.get(key)
    if idx is None:
        raise ValueError(f"({x}, {y}) is not an edge of the tree")
    return EdgeVector(tree.edge_count, {idx: 1 if (x, y) == key else -1})


# ----------------------------------------------------------------------
# Literal format: 're' or 're+imi' / 're-imi' scalars; vertex vectors as
# 'x:scalar' pairs, edge vectors keyed by canonical 'u-v' pairs.
# ----------------------------------------------------------------------

_COMPLEX_RE = re.compile(
    r"^(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?:(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?$"
)
_PURE_IM_RE = re.compile(r"^(?P<im>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i$")


def parse_complex(text: str) -> complex:
    text = text.strip()
    m = _COMPLEX_RE.match(text)
    if m:
        return complex(float(m.group("re")), float(m.group("im") or 0))
    m = _PURE_IM_RE.match(text)
    if m:
        return complex(0, float(m.group("im")))
    raise ValueError(f"cannot parse complex scalar {text!r}")


def _format_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def format_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return _format_real(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_format_real(z.real)}{sign}{_format_real(abs(z.imag))}i"


def parse_vertex_literal(tree: Tree, text: str) -> VertexVector:
    coeffs: dict[int, complex] = {}
    for token in text.split():
        key, _, value = token.partition(":")
        if not value:
            raise ValueError(f"expected 'x:coeff', got {token!r}")
        x = int(key)
        tree.check_vertex(x)
        coeffs[x] = coeffs.get(x, 0) + parse_complex(value)
    return VertexVector(tree.n, coeffs)


def format_vertex_literal(v: VertexVector) -> str:
    return " ".join(f"{k}:{format_complex(c)}" for k, c in v.items())


def parse_edge_literal(tree: Tree, text: str) -> EdgeVector:
    coeffs: dict[int, complex] = {}
    for token in text.split():
        key, _, value = token.partition(":")
        if not value:
            raise ValueError(f"expected 'u-v:coeff', got {token!r}")
        us, _, vs = key.partition("-")
        if not vs:
            raise ValueError(f"expected canonical edge key 'u-v', got {key!r}")
        u, v = int(us), int(vs)
        idx = tree.edge_index.get((min(u, v), max(u, v)))
        if idx is None:
            raise ValueError(f"({u}, {v}) is not an edge of the tree")
        sign = 1 if u < v else -1
        coeffs[idx] = coeffs.get(idx, 0) + sign * parse_complex(value)
    return EdgeVector(tree.edge_count, coeffs)


def format_edge_literal(tree: Tree, w: EdgeVector) -> str:
    parts = []
    for idx, c in w.items():
        u, v = tree.edges[idx]
        parts.append(f"{u}-{v}:{format_complex(c)}")
    return " ".join(parts)
