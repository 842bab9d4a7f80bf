"""Operators on the vertex and signed-edge spaces of a finite tree.

An operator is its shape and a pair of block appliers, forward and
adjoint. The shape (m, n) is that of its matrix. A tree with N vertices
has N - 1 edges, so the vertex space and the edge space never share a
dimension, and the shape alone says which space a block lives in. The
forward applier maps an (n, k) array, whose columns are vectors of the
domain, to the (m, k) array of their images, by gathers, scatters and
level sweeps over index arrays that each Tree and RootedTree builds once.
`op @ block` is the shape-checked entry point, and a single vector is an
(n, 1) block. `materialize` applies an operator to the identity block,
that is to every basis vector, in the applier's dtype: the dense matrices
built that way are the brute-force oracle against which the identities
are verified.

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
import re
from typing import Callable, Union

import numpy as np

from .trees import Fanin, RootedTree, Tree

__all__ = [
    "LinearOperator",
    "identity_operator",
    "adjacency_operator",
    "branching_operator",
    "origin_projection",
    "parent_shift_operator",
    "one_minus_shift",
    "deformation_operator",
    "check_t",
    "deformation_inverse",
    "inverse_rescale",
    "resolvent_apply",
    "resolvent_operator",
    "level_sweep",
    "parent_edge_operator",
    "coboundary_operator",
    "NAMED_OPERATORS",
    "materialize",
    "operator_norm",
    "worst_of",
    "matrix_to_csv",
    "parse_complex",
    "format_complex",
]

MATERIALIZE_DIM_LIMIT = 10000


class LinearOperator:
    """A linear map given by its shape (m, n), the shape of its matrix, and
    a forward and an adjoint block applier. The forward applier maps an
    (n, k) array to the images of its columns, the adjoint an (m, k) one;
    neither writes to its input, and each keeps a real block real unless a
    parameter is complex.

    The adjoint contract <A* u, v> == <u, A v> is not enforced at
    construction; it is what the test-suite verifies on random vectors.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        apply_fn: Callable[[np.ndarray], np.ndarray],
        adjoint_fn: Callable[[np.ndarray], np.ndarray],
    ):
        self.shape = shape
        self._apply = apply_fn
        self._adjoint = adjoint_fn

    def __matmul__(self, block) -> np.ndarray:
        """The images of the columns of an (n, k) block."""
        block = np.asarray(block)
        block = block.astype(np.result_type(block, float), copy=False)
        if block.ndim != 2 or block.shape[0] != self.shape[1]:
            raise ValueError(
                f"operator expects a ({self.shape[1]}, k) block, got {block.shape}"
            )
        return self._apply(block)

    def adjoint(self) -> "LinearOperator":
        return LinearOperator(self.shape[::-1], self._adjoint, self._apply)

    def compose(self, other: "LinearOperator") -> "LinearOperator":
        """self after other."""
        if other.shape[0] != self.shape[1]:
            raise ValueError(
                f"cannot compose: a {other.shape} operator feeds a {self.shape} one"
            )
        return LinearOperator(
            (self.shape[0], other.shape[1]),
            lambda b: self._apply(other._apply(b)),
            lambda b: other._adjoint(self._adjoint(b)),
        )

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        if other.shape != self.shape:
            raise ValueError(
                f"summands have different shapes: {self.shape} and {other.shape}"
            )
        return LinearOperator(
            self.shape,
            lambda b: self._apply(b) + other._apply(b),
            lambda b: self._adjoint(b) + other._adjoint(b),
        )

    def scale(self, a: complex) -> "LinearOperator":
        """a times self; the adjoint scales by conj(a)."""
        ac = complex(a).conjugate()
        return LinearOperator(
            self.shape,
            lambda b: _times(a, self._apply(b)),
            lambda b: _times(ac, self._adjoint(b)),
        )

    def __repr__(self) -> str:
        return f"LinearOperator(shape={self.shape})"


def _times(a: complex | np.ndarray, block: np.ndarray) -> np.ndarray:
    """a * block, rounded as Python rounds a complex product (numpy's
    complex multiply can differ in the last bit). a may also be a row of
    real factors, one per column of block."""
    if isinstance(a, np.ndarray):
        return block * a
    a = complex(a)
    if a.imag == 0:
        return block * a.real
    out = np.empty(block.shape, dtype=complex)
    out.real = block.real * a.real - block.imag * a.imag
    out.imag = block.real * a.imag + block.imag * a.real
    return out


def _fan_in(fanin: Fanin, rows: np.ndarray) -> np.ndarray:
    """Per group of the fanin, the sum of its source rows."""
    return np.add.reduceat(rows[fanin.sources], fanin.starts, axis=0)


def identity_operator(dim: int) -> LinearOperator:
    return LinearOperator((dim, dim), lambda b: b, lambda b: b)


def adjacency_operator(tree: Tree) -> LinearOperator:
    """Sum over neighbours; self-adjoint."""
    low, high = tree.edge_ends
    into_low, into_high = tree.edge_fanins

    def apply(b: np.ndarray) -> np.ndarray:
        out = np.zeros_like(b)
        out[into_low.heads] += _fan_in(into_low, b[high])
        out[into_high.heads] += _fan_in(into_high, b[low])
        return out

    return LinearOperator((tree.n, tree.n), apply, apply)


def branching_operator(tree: Tree) -> LinearOperator:
    """Diagonal map x -> (degree(x) - 1) * x; self-adjoint."""
    q = np.array([tree.q(x) for x in range(tree.n)], dtype=float)[:, None]
    return LinearOperator((tree.n, tree.n), lambda b: q * b, lambda b: q * b)


def origin_projection(rooted: RootedTree) -> LinearOperator:
    """Rank-one orthogonal projection onto the origin's basis vector."""
    x0 = rooted.origin

    def apply(b: np.ndarray) -> np.ndarray:
        out = np.zeros_like(b)
        out[x0] = b[x0]
        return out

    return LinearOperator((rooted.n, rooted.n), apply, apply)


def parent_shift_operator(rooted: RootedTree) -> LinearOperator:
    """Moves each vertex one step toward the origin and kills the origin:
    a scatter over parents.

    The adjoint, a gather from parents, fans a vertex out to the sum of its
    children (for the origin, that is the sum of all its neighbours).
    """
    kids = rooted.parent_fanin
    parent = rooted.parent_array

    def apply(b: np.ndarray) -> np.ndarray:
        out = np.zeros_like(b)
        out[kids.heads] = _fan_in(kids, b)
        return out

    def adjoint(b: np.ndarray) -> np.ndarray:
        out = np.zeros_like(b)
        out[kids.sources] = b[parent[kids.sources]]
        return out

    return LinearOperator((rooted.n, rooted.n), apply, adjoint)


def one_minus_shift(rooted: RootedTree, z: complex) -> LinearOperator:
    """1 - z*(parent shift), the inverse of resolvent_operator(rooted, z)."""
    return identity_operator(rooted.n) + parent_shift_operator(rooted).scale(-z)


def deformation_operator(rooted: RootedTree, t: float) -> LinearOperator:
    """1 - t*(parent shift) + (sqrt(1 - t^2) - 1)*(origin projection).

    Defined for 0 <= t <= 1; the identity at t = 0.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"deformation parameter must lie in [0, 1], got {t}")
    alpha = math.sqrt(1.0 - t * t) - 1.0
    return one_minus_shift(rooted, t) + origin_projection(rooted).scale(alpha)


def check_t(t: float) -> float:
    """t as a float if 0 <= t < 1, where T_t is invertible (t = 1 is the limit)."""
    if not 0.0 <= t < 1.0:
        raise ValueError(f"t must lie in the half-open interval [0, 1), got {t}")
    return float(t)


def resolvent_apply(rooted: RootedTree, z: complex, block: np.ndarray) -> np.ndarray:
    """(1 - z * parent shift)^(-1) applied to the columns of a block."""
    return resolvent_operator(rooted, z) @ block


def resolvent_operator(rooted: RootedTree, z: complex) -> LinearOperator:
    """(1 - z * parent shift)^(-1) as an operator, with exact adjoint.

    The shift is nilpotent on a finite tree, so the geometric series is the
    finite sum over ancestors: a vertex spreads along its path to the
    origin with weight z^k at the k-th ancestor. Any complex z is legal.
    The applier is level_sweep on a copy of its block; the adjoint sweeps
    down from the origin.
    """
    levels = rooted.level_fanins
    parent = rooted.parent_array
    zc = complex(z).conjugate()
    dtype = complex if zc.imag else None

    def apply(b: np.ndarray) -> np.ndarray:
        return level_sweep(rooted, z, b.astype(dtype or b.dtype))

    def adjoint(b: np.ndarray) -> np.ndarray:
        out = b.astype(dtype or b.dtype)
        for level in levels:
            out[level.sources] += _times(zc, out[parent[level.sources]])
        return out

    return LinearOperator((rooted.n, rooted.n), apply, adjoint)


def level_sweep(rooted: RootedTree, z, block: np.ndarray) -> np.ndarray:
    """block, swept in place over the BFS levels deepest first: z times each
    family's sum is added to its parent. z is a scalar, or a row of real
    factors, one per column, so that one sweep of a stacked identity block
    gives R at several real z, each as its own sweep rounds it."""
    for level in reversed(rooted.level_fanins):
        block[level.heads] += _times(z, _fan_in(level, block))
    return block


def inverse_rescale(rooted: RootedTree, t: float) -> LinearOperator:
    """1 + beta*p0, beta = (1-t^2)^(-1/2) - 1: deformation_inverse's last factor."""
    t = check_t(t)
    beta = 1.0 / math.sqrt(1.0 - t * t) - 1.0
    return identity_operator(rooted.n) + origin_projection(rooted).scale(beta)


def deformation_inverse(rooted: RootedTree, t: float) -> LinearOperator:
    """Exact inverse of the deformation for 0 <= t < 1: inverse_rescale(t) o
    (1 - t*shift)^(-1), by the factorization T = (1 - t*shift)(1 + alpha*p0),
    valid because the shift kills the origin. At t = 1 the deformation is
    singular and rejected."""
    return inverse_rescale(rooted, t).compose(resolvent_operator(rooted, t))


def parent_edge_operator(rooted: RootedTree) -> LinearOperator:
    """Vertex space -> edge space: x maps to the signed class of the edge
    from x to its parent; the origin maps to zero. A gather over the child
    endpoint of each edge; the adjoint is the matching scatter.

    Satisfies F* F = 1 - p0 and F F* = 1 on every rooted tree.
    """
    tree = rooted.tree
    child, sign = rooted.edge_child_sign
    sign = sign[:, None]

    def adjoint(w: np.ndarray) -> np.ndarray:
        out = np.zeros((tree.n, w.shape[1]), dtype=w.dtype)
        out[child] = sign * w
        return out

    return LinearOperator((tree.edge_count, tree.n), lambda b: sign * b[child], adjoint)


def coboundary_operator(tree: Tree) -> LinearOperator:
    """Edge space -> vertex space: the canonical class of (u, v), u < v,
    maps to (unit at u) - (unit at v). A scatter into the endpoints; the
    adjoint gathers the difference of the endpoint coefficients.

    Well defined on signed classes since reversing an oriented edge flips
    both the class and the difference of endpoint vectors.
    """
    low, high = tree.edge_ends
    into_low, into_high = tree.edge_fanins

    def apply(w: np.ndarray) -> np.ndarray:
        out = np.zeros((tree.n, w.shape[1]), dtype=w.dtype)
        out[into_low.heads] += _fan_in(into_low, w)
        out[into_high.heads] -= _fan_in(into_high, w)
        return out

    return LinearOperator((tree.n, tree.edge_count), apply, lambda b: b[low] - b[high])


def materialize(op: LinearOperator) -> np.ndarray:
    """Dense matrix of the operator: its applier on the identity block,
    that is on every basis vector at once, in the applier's dtype (float64
    unless a parameter is complex).

    This is the brute-force oracle. Adding +0.0 stores every zero entry as
    +0.0, whatever the sign of the product it came from. Guarded against
    dimensions above MATERIALIZE_DIM_LIMIT.
    """
    m, n = op.shape
    if max(m, n) > MATERIALIZE_DIM_LIMIT:
        raise ValueError(
            f"refusing to materialize a {m} x {n} matrix "
            f"(limit {MATERIALIZE_DIM_LIMIT})"
        )
    return np.add(op._apply(np.eye(n)), 0.0)


def operator_norm(op: Union[LinearOperator, np.ndarray]):
    """Spectral norm (largest singular value), exact to rounding; one each
    for the matrices of a (k, m, n) stack.

    The square root of the largest eigenvalue of the Gram matrix a* a,
    clamped at 0: one symmetric eigensolve, cheaper than an SVD on real
    matrices, over the columns that some matrix of the stack uses (the rest
    add exact zeros to the Gram, so a zero matrix has norm 0). A matrix
    holding a NaN or inf has norm NaN; it enters the Gram as zeros, so the
    stack's other norms stand.
    """
    a = op if isinstance(op, np.ndarray) else materialize(op)
    finite = np.isfinite(a).all(axis=(-2, -1))
    if not finite.all():
        a = np.where(finite[..., None, None], a, 0.0)
    keep = a.any(axis=tuple(range(a.ndim - 1)))
    if not keep.all():  # a mask that keeps every column would still copy a
        a = a[..., keep]
    gram = a.conj().swapaxes(-2, -1) @ a
    largest = np.linalg.eigvalsh(gram).max(axis=-1, initial=0.0)
    norms = np.where(finite, np.sqrt(largest), np.nan)
    return norms if a.ndim > 2 else float(norms)


def worst_of(values) -> tuple[float, int]:
    """The largest of values and the first index that holds it: a worst
    residual and its witness. Floored at (0.0, 0), so an empty or
    non-positive input gives (0.0, 0). A NaN anywhere is the result, at its
    first index; Python's max() would drop it.
    """
    a = np.asarray(values, dtype=float).ravel()
    if a.size == 0:
        return 0.0, 0
    i = int(a.argmax())
    top = float(a[i])
    return (top, i) if top > 0.0 or math.isnan(top) else (0.0, 0)


def matrix_to_csv(matrix: np.ndarray) -> str:
    """CSV export, one row per line, complex entries in 're+imi' form."""
    lines = []
    for row in np.atleast_2d(matrix):
        lines.append(",".join(format_complex(complex(z)) for z in row))
    return "\n".join(lines) + "\n"


# Complex scalars as text: 're', 're+imi', 're-imi' or 'imi'.
_COMPLEX_RE = re.compile(
    r"^(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?:(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?$"
)
_PURE_IM_RE = re.compile(r"^(?P<im>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i$")


def parse_complex(text: str) -> complex:
    text = text.strip()
    if m := _COMPLEX_RE.match(text):
        z = complex(float(m.group("re")), float(m.group("im") or 0))
    elif m := _PURE_IM_RE.match(text):
        z = complex(0, float(m.group("im")))
    else:
        raise ValueError(f"cannot parse complex scalar {text!r}")
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"complex scalar {text!r} overflows a float")
    return z


def _format_real(x: float) -> str:
    if math.isfinite(x) and x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def format_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return _format_real(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_format_real(z.real)}{sign}{_format_real(abs(z.imag))}i"


# The named operators, built from a rooted tree, t (read by T and Tinv) and z
# (read by resolvent). adjoint-consistency checks every entry, and `treelab
# operator --name` builds each of them and the adjoints of P and F.
NAMED_OPERATORS: dict[str, Callable[[RootedTree, float, complex], LinearOperator]] = {
    "S": lambda rooted, t, z: adjacency_operator(rooted.tree),
    "Q": lambda rooted, t, z: branching_operator(rooted.tree),
    "P": lambda rooted, t, z: parent_shift_operator(rooted),
    "p0": lambda rooted, t, z: origin_projection(rooted),
    "T": lambda rooted, t, z: deformation_operator(rooted, t),
    "Tinv": lambda rooted, t, z: deformation_inverse(rooted, t),
    "resolvent": lambda rooted, t, z: resolvent_operator(rooted, z),
    "F": lambda rooted, t, z: parent_edge_operator(rooted),
    "b": lambda rooted, t, z: coboundary_operator(rooted.tree),
}
