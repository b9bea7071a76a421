"""Evaluable scalar and matrix fields over a coordinate chart.

Forms, moment maps, metrics, and connections all carry coefficients that
must be (a) evaluated in bulk at arrays of chart points and (b)
differentiated *exactly* — finite differences would wreck the 1e-10
closedness/moment-condition tolerances.  This module provides small
immutable expression trees with those two capabilities:

* ``Expr`` — scalar fields: constants, coordinates, sums, products, and
  entries of matrix fields.
* ``MatrixField`` — square-matrix-valued fields: constant/affine
  matrices, block assembly, products, inverses, matrix exponentials, and
  SPD square roots, each with first-order directional derivatives
  (the exponential's derivative uses the augmented-block identity
  expm([[A, E], [0, A]]) = [[e^A, D_E e^A], [0, e^A]]).

Both derive from one node base, ``_Node``, which alone holds the
per-sweep evaluation cache (``eval``) and the derivative memo (``diff``);
a node class supplies only ``_eval`` and ``_diff``.  ``_Node`` derives
from ``_Frozen``, the single immutability guard, which the other value
classes of the package (forms, spaces, level data) share.

Evaluation signature: ``eval(pts, cache)`` with ``pts`` of shape
(N, chart_dim); results are (N,) scalars or (N, k, k) matrices, except
that a ``Const`` evaluates to its plain value (it broadcasts; ``column``
turns any scalar field into an (N,) array).  The cache dict (keyed by
node id) makes shared subtrees evaluate once per sweep.  Trees are
immutable after construction, so concurrent evaluation with per-call
caches needs no locking.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Expr",
    "Const",
    "Coord",
    "Add",
    "Mul",
    "MatEntry",
    "const",
    "coord",
    "add",
    "mul",
    "as_expr",
    "MatrixField",
    "MatConst",
    "ExprMatrix",
    "MatAffine",
    "MatAdd",
    "MatScale",
    "MatMul",
    "MatTranspose",
    "BlockMat",
    "BlockUR",
    "Inv",
    "Expm",
    "Sqrtm",
    "mat_entry",
    "column",
    "texp",
]

ZERO_TOL = 0.0  # exact structural zero only; no numeric pruning of coefficients


# ---------------------------------------------------------------------------
# node base
# ---------------------------------------------------------------------------


class _Frozen:
    """Base of every immutable value class: its slots are set once, through
    object.__setattr__ in __init__, and any later assignment raises."""

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError("immutable")


class _Node(_Frozen):
    """A node of a field tree (Expr or MatrixField): evaluated through the
    per-sweep cache and differentiated through a memo."""

    __slots__ = ("_dmemo",)

    def eval(self, pts: np.ndarray, cache: dict | None = None):
        """The field at the (N, chart_dim) points; ``cache`` (keyed by node
        id) makes shared subtrees evaluate once per sweep."""
        if cache is None:
            cache = {}
        key = id(self)
        hit = cache.get(key)
        if hit is None:
            hit = self._eval(pts, cache)
            cache[key] = hit
        return hit

    def _eval(self, pts: np.ndarray, cache: dict):
        raise NotImplementedError

    def diff(self, i: int):
        """The exact partial derivative in chart coordinate i, memoized so
        repeated derivatives share one subtree (and therefore one slot in
        the evaluation cache)."""
        try:
            memo = self._dmemo
        except AttributeError:
            memo = {}
            object.__setattr__(self, "_dmemo", memo)
        hit = memo.get(i)
        if hit is None:
            hit = self._diff(i)
            memo[i] = hit
        return hit

    def _diff(self, i: int):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# scalar expressions
# ---------------------------------------------------------------------------


class Expr(_Node):
    """Immutable scalar field on a chart."""

    __slots__ = ()

    # -- structure helpers --------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return isinstance(self, Const) and self.value == 0

    @property
    def is_one(self) -> bool:
        return isinstance(self, Const) and self.value == 1

    # -- operator sugar ------------------------------------------------------
    def __add__(self, other):
        return add(self, as_expr(other))

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(const(-1), as_expr(other)))

    def __rsub__(self, other):
        return add(as_expr(other), mul(const(-1), self))

    def __mul__(self, other):
        return mul(self, as_expr(other))

    __rmul__ = __mul__

    def __neg__(self):
        return mul(const(-1), self)


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        is_complex = isinstance(value, complex) or (
            not isinstance(value, (float, int)) and np.iscomplexobj(value)
        )
        object.__setattr__(self, "value", complex(value) if is_complex else float(value))

    def _eval(self, pts, cache):
        # a scalar: it broadcasts against the arrays it is combined with;
        # consumers that need an (N,) array go through ``column``
        return self.value

    def _diff(self, i):
        return Const(0.0)

    def __repr__(self):
        return f"Const({self.value})"


class Coord(Expr):
    __slots__ = ("index",)

    def __init__(self, index: int):
        object.__setattr__(self, "index", int(index))

    def _eval(self, pts, cache):
        return pts[:, self.index].copy()

    def _diff(self, i):
        return Const(1.0 if i == self.index else 0.0)

    def __repr__(self):
        return f"Coord({self.index})"


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        object.__setattr__(self, "terms", tuple(terms))

    def _eval(self, pts, cache):
        out = self.terms[0].eval(pts, cache)
        for t in self.terms[1:]:
            out = out + t.eval(pts, cache)
        return out

    def _diff(self, i):
        return add(*[t.diff(i) for t in self.terms])

    def __repr__(self):
        return "Add(%s)" % ", ".join(map(repr, self.terms))


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors):
        object.__setattr__(self, "factors", tuple(factors))

    def _eval(self, pts, cache):
        out = self.factors[0].eval(pts, cache)
        for f in self.factors[1:]:
            out = out * f.eval(pts, cache)
        return out

    def _diff(self, i):
        terms = []
        fs = self.factors
        for k in range(len(fs)):
            dk = fs[k].diff(i)
            if dk.is_zero:
                continue
            terms.append(mul(*fs[:k], dk, *fs[k + 1 :]))
        return add(*terms)

    def __repr__(self):
        return "Mul(%s)" % ", ".join(map(repr, self.factors))


class MatEntry(Expr):
    __slots__ = ("mat", "i", "j")

    def __init__(self, mat: "MatrixField", i: int, j: int):
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "i", int(i))
        object.__setattr__(self, "j", int(j))

    def _eval(self, pts, cache):
        return self.mat.eval(pts, cache)[:, self.i, self.j].copy()

    def _diff(self, i):
        d = self.mat.diff(i)
        if isinstance(d, MatConst) and not d.value.any():
            return Const(0.0)
        return MatEntry(d, self.i, self.j)

    def __repr__(self):
        return f"MatEntry({self.mat!r}, {self.i}, {self.j})"


def column(expr: Expr, pts: np.ndarray, cache: dict) -> np.ndarray:
    """Real expr at the (N, chart_dim) points as an (N,) float array.  A
    scalar result is broadcast, so the array may be a read-only view."""
    return np.broadcast_to(np.asarray(expr.eval(pts, cache), float), (len(pts),))


# -- smart constructors -----------------------------------------------------


def const(c) -> Const:
    return c if isinstance(c, Const) else Const(c)


def coord(i: int) -> Coord:
    return Coord(i)


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    return Const(x)


def add(*terms: Expr) -> Expr:
    flat: list[Expr] = []
    c = 0.0 + 0.0j
    has_c = False
    for t in terms:
        if isinstance(t, Add):
            sub = t.terms
        else:
            sub = (t,)
        for s in sub:
            if isinstance(s, Const):
                c += s.value
                has_c = True
            else:
                flat.append(s)
    if has_c and c != 0:
        flat.append(Const(c.real if c.imag == 0 else c))
    if not flat:
        return Const(0.0)
    if len(flat) == 1:
        return flat[0]
    return Add(flat)


def mul(*factors: Expr) -> Expr:
    flat: list[Expr] = []
    c = 1.0 + 0.0j
    for f in factors:
        if isinstance(f, Mul):
            sub = f.factors
        else:
            sub = (f,)
        for s in sub:
            if isinstance(s, Const):
                c *= s.value
            else:
                flat.append(s)
    if c == 0:
        return Const(0.0)
    if c != 1:
        flat.insert(0, Const(c.real if c.imag == 0 else c))
    if not flat:
        return Const(1.0)
    if len(flat) == 1:
        return flat[0]
    return Mul(flat)


def mat_entry(mat: "MatrixField", i: int, j: int) -> Expr:
    if isinstance(mat, MatConst):
        return Const(mat.value[i, j])
    return MatEntry(mat, i, j)


# ---------------------------------------------------------------------------
# matrix fields
# ---------------------------------------------------------------------------


class MatrixField(_Node):
    """Immutable (k x k)-matrix-valued field on a chart."""

    __slots__ = ()

    k: int  # set by subclasses via property


class MatConst(MatrixField):
    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", np.asarray(value, dtype=float))

    @property
    def k(self):
        return self.value.shape[0]

    def _eval(self, pts, cache):
        n = pts.shape[0]
        return np.broadcast_to(self.value, (n,) + self.value.shape)

    def _diff(self, i):
        return MatConst(np.zeros_like(self.value))


class MatAffine(MatrixField):
    """base + sum_c pts[:, c] * coeff[c]  (linear matrix pencil)."""

    __slots__ = ("base", "coeffs")

    def __init__(self, base, coeffs: dict):
        object.__setattr__(self, "base", np.asarray(base, dtype=float))
        object.__setattr__(
            self, "coeffs", {int(c): np.asarray(m, dtype=float) for c, m in coeffs.items()}
        )

    @property
    def k(self):
        return self.base.shape[0]

    def _eval(self, pts, cache):
        n = pts.shape[0]
        out = np.repeat(self.base[None, :, :], n, axis=0)
        for c, m in self.coeffs.items():
            out += pts[:, c, None, None] * m
        return out

    def _diff(self, i):
        m = self.coeffs.get(i)
        if m is None:
            return MatConst(np.zeros_like(self.base))
        return MatConst(m)


class ExprMatrix(MatrixField):
    """Square matrix field assembled from arbitrary scalar-field entries."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = tuple(tuple(as_expr(e) for e in row) for row in entries)
        object.__setattr__(self, "entries", rows)

    @property
    def k(self):
        return len(self.entries)

    def _eval(self, pts, cache):
        n = pts.shape[0]
        s = self.k
        cols = [e.eval(pts, cache) for row in self.entries for e in row]
        if any(np.iscomplexobj(c) for c in cols):
            out = np.zeros((n, s, s), dtype=complex)
        else:
            out = np.zeros((n, s, s))
        idx = 0
        for i in range(s):
            for j in range(s):
                out[:, i, j] = cols[idx]
                idx += 1
        return out

    def _diff(self, i):
        rows = [[e.diff(i) for e in row] for row in self.entries]
        if all(d.is_zero for row in rows for d in row):
            return MatConst(np.zeros((self.k, self.k)))
        return ExprMatrix(rows)


class MatAdd(MatrixField):
    __slots__ = ("terms",)

    def __init__(self, terms):
        object.__setattr__(self, "terms", tuple(terms))

    @property
    def k(self):
        return self.terms[0].k

    def _eval(self, pts, cache):
        out = self.terms[0].eval(pts, cache).copy()
        for t in self.terms[1:]:
            out = out + t.eval(pts, cache)
        return out

    def _diff(self, i):
        return MatAdd([t.diff(i) for t in self.terms])


class MatScale(MatrixField):
    __slots__ = ("c", "mat")

    def __init__(self, c: float, mat: MatrixField):
        object.__setattr__(self, "c", float(c))
        object.__setattr__(self, "mat", mat)

    @property
    def k(self):
        return self.mat.k

    def _eval(self, pts, cache):
        return self.c * self.mat.eval(pts, cache)

    def _diff(self, i):
        return MatScale(self.c, self.mat.diff(i))


class MatMul(MatrixField):
    __slots__ = ("a", "b")

    def __init__(self, a: MatrixField, b: MatrixField):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def k(self):
        return self.a.k

    def _eval(self, pts, cache):
        return self.a.eval(pts, cache) @ self.b.eval(pts, cache)

    def _diff(self, i):
        return MatAdd([MatMul(self.a.diff(i), self.b), MatMul(self.a, self.b.diff(i))])


class MatTranspose(MatrixField):
    __slots__ = ("mat",)

    def __init__(self, mat: MatrixField):
        object.__setattr__(self, "mat", mat)

    @property
    def k(self):
        return self.mat.k

    def _eval(self, pts, cache):
        return np.swapaxes(self.mat.eval(pts, cache), -1, -2)

    def _diff(self, i):
        return MatTranspose(self.mat.diff(i))


class BlockMat(MatrixField):
    """2x2 block assembly [[A, B], [C, D]]; None blocks are zero.

    All present blocks must be square of equal size (sufficient for the
    augmented-matrix constructions used here).
    """

    __slots__ = ("blocks", "_sub_k")

    def __init__(self, blocks):
        object.__setattr__(self, "blocks", tuple(tuple(row) for row in blocks))
        sub = None
        for row in blocks:
            for b in row:
                if b is not None:
                    sub = b.k
        object.__setattr__(self, "_sub_k", sub)

    @property
    def k(self):
        return 2 * self._sub_k

    def _eval(self, pts, cache):
        n = pts.shape[0]
        s = self._sub_k
        out = np.zeros((n, 2 * s, 2 * s))
        for bi, row in enumerate(self.blocks):
            for bj, b in enumerate(row):
                if b is not None:
                    out[:, bi * s : (bi + 1) * s, bj * s : (bj + 1) * s] = b.eval(pts, cache)
        return out

    def _diff(self, i):
        return BlockMat(
            [[None if b is None else b.diff(i) for b in row] for row in self.blocks]
        )


class BlockUR(MatrixField):
    """Upper-right k x k block of a 2k x 2k matrix field."""

    __slots__ = ("mat", "_k")

    def __init__(self, mat: MatrixField, k: int):
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "_k", int(k))

    @property
    def k(self):
        return self._k

    def _eval(self, pts, cache):
        full = self.mat.eval(pts, cache)
        s = self._k
        return full[:, :s, s : 2 * s].copy()

    def _diff(self, i):
        return BlockUR(self.mat.diff(i), self._k)


class Inv(MatrixField):
    __slots__ = ("mat",)

    def __init__(self, mat: MatrixField):
        object.__setattr__(self, "mat", mat)

    @property
    def k(self):
        return self.mat.k

    def _eval(self, pts, cache):
        return np.linalg.inv(self.mat.eval(pts, cache))

    def _diff(self, i):
        # d(M^-1) = -M^-1 (dM) M^-1 ; reuse self so the cache shares M^-1
        return MatScale(-1.0, MatMul(self, MatMul(self.mat.diff(i), self)))


class Expm(MatrixField):
    __slots__ = ("mat",)

    def __init__(self, mat: MatrixField):
        object.__setattr__(self, "mat", mat)

    @property
    def k(self):
        return self.mat.k

    def _eval(self, pts, cache):
        return _batched_expm(self.mat.eval(pts, cache))

    def _diff(self, i):
        return _ExpmFrechet(self.mat, self.mat.diff(i))


class _ExpmFrechet(MatrixField):
    """Directional derivative of expm: UR block of expm([[A, E], [0, A]])."""

    __slots__ = ("a", "e")

    def __init__(self, a: MatrixField, e: MatrixField):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "e", e)

    @property
    def k(self):
        return self.a.k

    def _eval(self, pts, cache):
        av = self.a.eval(pts, cache)
        ev = self.e.eval(pts, cache)
        n, s = av.shape[0], av.shape[1]
        aug = np.zeros((n, 2 * s, 2 * s))
        aug[:, :s, :s] = av
        aug[:, :s, s:] = ev
        aug[:, s:, s:] = av
        return _batched_expm(aug)[:, :s, s:]

    def _diff(self, i):
        raise NotImplementedError(
            "second-order derivatives of matrix exponentials are not supported"
        )


class Sqrtm(MatrixField):
    """Principal square root of a symmetric positive-definite matrix field."""

    __slots__ = ("mat",)

    def __init__(self, mat: MatrixField):
        object.__setattr__(self, "mat", mat)

    @property
    def k(self):
        return self.mat.k

    def _eval(self, pts, cache):
        m = self.mat.eval(pts, cache)
        w, u = np.linalg.eigh(m)
        if np.any(w <= 0):
            raise ValueError("Sqrtm requires a positive-definite matrix field")
        root = np.sqrt(w)
        return np.einsum("nik,nk,njk->nij", u, root, u)

    def _diff(self, i):
        return _SqrtmFrechet(self.mat, self.mat.diff(i), self)


class _SqrtmFrechet(MatrixField):
    """Directional derivative of the SPD square root via the Sylvester
    equation S (dS) + (dS) S = dM solved in the eigenbasis of M."""

    __slots__ = ("m", "e", "root")

    def __init__(self, m: MatrixField, e: MatrixField, root: Sqrtm):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "root", root)

    @property
    def k(self):
        return self.m.k

    def _eval(self, pts, cache):
        mv = self.m.eval(pts, cache)
        ev = self.e.eval(pts, cache)
        w, u = np.linalg.eigh(mv)
        if np.any(w <= 0):
            raise ValueError("Sqrtm requires a positive-definite matrix field")
        r = np.sqrt(w)
        et = np.einsum("nki,nkl,nlj->nij", u, ev, u)
        denom = r[:, :, None] + r[:, None, :]
        st = et / denom
        return np.einsum("nik,nkl,njl->nij", u, st, u)

    def _diff(self, i):
        raise NotImplementedError(
            "second-order derivatives of matrix square roots are not supported"
        )


# Scaling and squaring with diagonal Pade approximants (Higham 2005,
# "The scaling and squaring method for the matrix exponential revisited",
# Table 2.3 and Algorithm 2.3): the degrees m, the largest 1-norm each
# handles unscaled in double precision, and the coefficients b_0..b_m.
_PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
               (7, 9.504178996162932e-1), (9, 2.097847961257068e0))
_PADE_THETA_13 = 5.371920351148152e0
_PADE_B = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0,
        1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}


def _pade(a: np.ndarray, m: int) -> np.ndarray:
    """The [m/m] Pade approximant of exp at each matrix of the stack a:
    (V - U)^-1 (V + U), U the odd and V the even part of the numerator."""
    b = _PADE_B[m]
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    if m == 13:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    else:
        powers = [eye, a2]
        for _ in range(2, (m + 1) // 2):
            powers.append(powers[-1] @ a2)
        u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(powers))
        v = sum(b[2 * k] * p for k, p in enumerate(powers))
    return np.linalg.solve(v - u, v + u)


def _batched_expm(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of the (..., k, k) stack a (one matrix when a
    is (k, k)), by scaling and squaring (Higham 2005).  The whole stack
    takes the lowest Pade degree its largest 1-norm allows (a higher
    degree than a matrix needs is no less accurate), or degree 13, each
    matrix scaled by 2^-s into its range and squared s times.  A matrix
    with a non-finite entry gives nan."""
    a = np.asarray(a, dtype=float)
    norm = np.asarray(np.max(np.sum(np.abs(a), axis=-2), axis=-1))
    bad = ~np.isfinite(norm)
    if bad.any():
        a = np.where(bad[..., None, None], 0.0, a)
        norm[bad] = 0.0
    top = norm.max(initial=0.0)
    m = next((m for m, theta in _PADE_THETA if top <= theta), 13)
    if m < 13:
        out = _pade(a, m)
    else:
        s = np.ceil(np.log2(np.maximum(norm / _PADE_THETA_13, 1.0)))
        out = _pade(a * np.exp2(-s)[..., None, None], 13)
        for j in range(int(s.max())):
            sq = s > j
            out[sq] = out[sq] @ out[sq]
    out[bad] = np.nan
    return out


def texp(ad: MatrixField) -> MatrixField:
    """The left-trivialized differential of exp:  T(A) = (1 - e^{-A})/A,
    assembled as the UR block of expm([[-A, I], [0, 0]]) so it is smooth
    through A = 0 and differentiates through the Expm rule."""
    k = ad.k
    zero = MatConst(np.zeros((k, k)))
    ident = MatConst(np.eye(k))
    return BlockUR(Expm(BlockMat([[MatScale(-1.0, ad), ident], [None, zero]])), k)
