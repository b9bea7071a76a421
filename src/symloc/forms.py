"""Equivariant differential forms on a coordinate chart.

An ``EquivariantForm`` is a finite sum of terms

    coefficient(x) * phi^nu * dx_{i_1} ^ ... ^ dx_{i_k}

with strictly increasing index tuples (signs absorbed into coefficients),
expression-tree coefficients (exact differentiation), and a polynomial
dependence on the algebra dummy variable phi.  The grade of a term is
form degree + 2 * phi-degree.

The interior product contracts a vector field into the first slot,
so for the family V (one field per algebra basis element)

    contract(alpha, V) = sum_a phi_a * (V_a _| alpha),

raising phi-degree by one while lowering form degree by one, and the
equivariant derivative is D = d + i * contract(., V), which squares to
zero on invariant forms.  Invariance is the combined condition

    Lie_{V_a} alpha + (phi-rotation along [e_a, phi]) alpha = 0

checked numerically at sampled (point, phi) pairs by
``invariance_residual``.
"""

from __future__ import annotations

import itertools

import numpy as np

from .fields import Const, Expr, _Frozen, add, as_expr, const, mul
from .liealg import InputError, LieAlgebraSpec, PhiPolynomial

__all__ = [
    "EquivariantForm",
    "VectorFieldFamily",
    "wedge",
    "exterior_d",
    "contract",
    "equivariant_D",
    "exp_form_part",
    "lie_derivative",
    "invariance_residual",
]


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0


def _merge_sign(i_left: tuple, i_right: tuple):
    """Merge two strictly increasing index tuples; return (merged, sign) or
    (None, 0) if an index repeats."""
    if set(i_left) & set(i_right):
        return None, 0
    merged = tuple(sorted(i_left + i_right))
    # sign = (-1)^inversions when concatenating left+right and sorting
    inversions = sum(1 for a in i_left for b in i_right if b < a)
    return merged, (-1) ** (inversions & 1)


def _pullback(parts: dict, mats: np.ndarray, out_dim: int) -> dict:
    """Pull a pointwise form back under the linear maps ``mats``.

    A pointwise form is a dict {strictly increasing index tuple: (N,)
    array}; the empty tuple holds the scalar part.  ``mats`` has shape
    (N, rows, cols); a p-form over row indices becomes a p-form over
    column indices via the minor determinants
    (beta_*)_U = sum_W beta_W det(mats[W, U]).  1 x 1 and 2 x 2 minors are
    written out (ad - bc) rather than sent node by node to LAPACK.
    """
    out: dict = {}
    for w_idx, coeff in parts.items():
        p = len(w_idx)
        if p == 0:
            out[()] = out[()] + coeff if () in out else coeff
            continue
        rows = mats[:, list(w_idx), :]
        for u_idx in itertools.combinations(range(out_dim), p):
            sub = rows[:, :, list(u_idx)]
            if p == 1:
                det = sub[:, 0, 0]
            elif p == 2:
                det = sub[:, 0, 0] * sub[:, 1, 1] - sub[:, 0, 1] * sub[:, 1, 0]
            else:
                det = np.linalg.det(sub)
            term = coeff * det
            out[u_idx] = out[u_idx] + term if u_idx in out else term
    return out


class VectorFieldFamily(_Frozen):
    """One vector field per algebra basis element; phi enters linearly as
    V_phi = sum_a phi_a V_a."""

    __slots__ = ("chart_id", "components", "ambient_dim", "gdim")

    def __init__(self, chart_id: str, components):
        comps = tuple(tuple(as_expr(c) for c in row) for row in components)
        if not comps:
            raise InputError("vector field family needs at least one field")
        n = len(comps[0])
        if any(len(row) != n for row in comps):
            raise InputError("vector fields must share the chart dimension")
        object.__setattr__(self, "chart_id", chart_id)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "gdim", len(comps))


class EquivariantForm(_Frozen):
    """Canonical term list: one entry per (form multi-index, phi monomial)."""

    __slots__ = ("chart_id", "ambient_dim", "gdim", "_terms")

    def __init__(self, chart_id: str, ambient_dim: int, gdim: int, terms=None):
        object.__setattr__(self, "chart_id", chart_id)
        object.__setattr__(self, "ambient_dim", int(ambient_dim))
        object.__setattr__(self, "gdim", int(gdim))
        canon: dict = {}
        for fmi, coeff, phi_poly in terms or ():
            fmi = tuple(int(i) for i in fmi)
            if any(b <= a for a, b in zip(fmi, fmi[1:])):
                raise InputError("form multi-index must be strictly increasing")
            if fmi and (fmi[0] < 0 or fmi[-1] >= ambient_dim):
                raise InputError("form multi-index out of chart range")
            coeff = as_expr(coeff)
            if isinstance(phi_poly, tuple):
                phi_poly = PhiPolynomial(gdim, {phi_poly: 1.0})
            if phi_poly.dim != gdim:
                raise InputError("phi polynomial dimension mismatch")
            for nu, c in phi_poly.terms.items():
                piece = mul(const(c), coeff)
                key = (fmi, nu)
                canon[key] = add(canon[key], piece) if key in canon else piece
        object.__setattr__(
            self, "_terms", {k: v for k, v in canon.items() if not _is_zero(v)}
        )

    # -- views ------------------------------------------------------------
    @property
    def terms(self):
        """List of (form_multi_index, coefficient, phi_poly) with unit-coefficient
        phi monomials."""
        return [
            (fmi, coeff, PhiPolynomial(self.gdim, {nu: 1.0}))
            for (fmi, nu), coeff in sorted(self._terms.items())
        ]

    @property
    def indexed_terms(self) -> dict:
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def grades(self) -> set:
        return {len(fmi) + 2 * sum(nu) for (fmi, nu) in self._terms}

    def form_degrees(self) -> set:
        return {len(fmi) for (fmi, nu) in self._terms}

    def max_phi_degree(self) -> int:
        return max((sum(nu) for (fmi, nu) in self._terms), default=0)

    def select_form_degree(self, k: int) -> "EquivariantForm":
        picked = {key: v for key, v in self._terms.items() if len(key[0]) == k}
        return self._raw(picked)

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero(chart_id: str, ambient_dim: int, gdim: int) -> "EquivariantForm":
        return EquivariantForm(chart_id, ambient_dim, gdim, [])

    @staticmethod
    def scalar(chart_id, ambient_dim, gdim, coeff, phi_poly=None) -> "EquivariantForm":
        pp = (
            PhiPolynomial.constant(gdim)
            if phi_poly is None
            else phi_poly
        )
        return EquivariantForm(chart_id, ambient_dim, gdim, [((), coeff, pp)])

    @staticmethod
    def dx(chart_id, ambient_dim, gdim, j, coeff=1.0) -> "EquivariantForm":
        return EquivariantForm(
            chart_id, ambient_dim, gdim, [((j,), coeff, PhiPolynomial.constant(gdim))]
        )

    def _raw(self, term_dict: dict) -> "EquivariantForm":
        out = EquivariantForm(self.chart_id, self.ambient_dim, self.gdim, [])
        object.__setattr__(
            out, "_terms", {k: v for k, v in term_dict.items() if not _is_zero(v)}
        )
        return out

    # -- linear structure ----------------------------------------------------
    def __add__(self, other: "EquivariantForm") -> "EquivariantForm":
        self._check_compatible(other)
        out = dict(self._terms)
        for key, v in other._terms.items():
            out[key] = add(out[key], v) if key in out else v
        return self._raw(out)

    def scale(self, c) -> "EquivariantForm":
        if isinstance(c, Expr):
            factor = c
        else:
            factor = const(c)
        return self._raw({k: mul(factor, v) for k, v in self._terms.items()})

    def __sub__(self, other: "EquivariantForm") -> "EquivariantForm":
        return self + other.scale(-1.0)

    def _check_compatible(self, other: "EquivariantForm"):
        if self.chart_id != other.chart_id:
            raise InputError(
                f"chart mismatch: {self.chart_id!r} vs {other.chart_id!r}"
            )
        if self.ambient_dim != other.ambient_dim or self.gdim != other.gdim:
            raise InputError("form dimension mismatch")

    # -- evaluation ------------------------------------------------------------
    def eval_terms(self, pts: np.ndarray, cache=None) -> dict:
        """{(form_multi_index, phi_multi_index): complex array over pts}."""
        cache = {} if cache is None else cache
        n = pts.shape[0]
        out = {}
        for key, coeff in self._terms.items():
            vals = np.asarray(coeff.eval(pts, cache), dtype=complex)
            out[key] = np.broadcast_to(vals, (n,)).copy() if vals.ndim == 0 else vals
        return out

    def eval_at_phi(self, pts: np.ndarray, phi, cache=None) -> dict:
        """{form_multi_index: complex array} with phi substituted."""
        phi = np.asarray(phi, dtype=complex)
        out: dict = {}
        for (fmi, nu), vals in self.eval_terms(pts, cache).items():
            mono = 1.0 + 0j
            for a, e in enumerate(nu):
                if e:
                    mono *= phi[a] ** e
            if fmi in out:
                out[fmi] = out[fmi] + mono * vals
            else:
                out[fmi] = mono * vals
        return out

    def __repr__(self):
        return (
            f"EquivariantForm(chart={self.chart_id!r}, dim={self.ambient_dim}, "
            f"gdim={self.gdim}, n_terms={len(self._terms)})"
        )


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def wedge(alpha: EquivariantForm, beta: EquivariantForm) -> EquivariantForm:
    alpha._check_compatible(beta)
    out: dict = {}
    for (fa, na), ca in alpha._terms.items():
        for (fb, nb), cb in beta._terms.items():
            merged, sign = _merge_sign(fa, fb)
            if merged is None:
                continue
            nu = tuple(x + y for x, y in zip(na, nb))
            piece = mul(const(sign), ca, cb) if sign < 0 else mul(ca, cb)
            key = (merged, nu)
            out[key] = add(out[key], piece) if key in out else piece
    return alpha._raw(out)


def exterior_d(alpha: EquivariantForm) -> EquivariantForm:
    out: dict = {}
    for (fmi, nu), coeff in alpha._terms.items():
        for j in range(alpha.ambient_dim):
            dj = coeff.diff(j)
            if _is_zero(dj):
                continue
            merged, sign = _merge_sign((j,), fmi)
            if merged is None:
                continue
            piece = mul(const(sign), dj) if sign < 0 else dj
            key = (merged, nu)
            out[key] = add(out[key], piece) if key in out else piece
    return alpha._raw(out)


def _contract_single(alpha: EquivariantForm, comps) -> EquivariantForm:
    """Interior product with one fixed vector field (first-slot convention),
    no phi bookkeeping."""
    out: dict = {}
    for (fmi, nu), coeff in alpha._terms.items():
        for pos, idx in enumerate(fmi):
            v = comps[idx]
            if _is_zero(v):
                continue
            rest = fmi[:pos] + fmi[pos + 1 :]
            sign = (-1) ** (pos & 1)
            piece = mul(const(sign), v, coeff) if sign < 0 else mul(v, coeff)
            key = (rest, nu)
            out[key] = add(out[key], piece) if key in out else piece
    return alpha._raw(out)


def contract(alpha: EquivariantForm, V: VectorFieldFamily) -> EquivariantForm:
    """iota_{V_phi}: contract V_phi into the first slot; multiplies the phi
    polynomial by the linear coordinate phi_a of each family member."""
    if alpha.chart_id != V.chart_id:
        raise InputError(f"chart mismatch: {alpha.chart_id!r} vs {V.chart_id!r}")
    if alpha.ambient_dim != V.ambient_dim or alpha.gdim != V.gdim:
        raise InputError("form/vector-field dimension mismatch")
    out: dict = {}
    for a in range(V.gdim):
        contracted = _contract_single(alpha, V.components[a])
        for (fmi, nu), coeff in contracted._terms.items():
            bumped = list(nu)
            bumped[a] += 1
            key = (fmi, tuple(bumped))
            out[key] = add(out[key], coeff) if key in out else coeff
    return alpha._raw(out)


def equivariant_D(alpha: EquivariantForm, V: VectorFieldFamily) -> EquivariantForm:
    return exterior_d(alpha) + contract(alpha, V).scale(1j)


def exp_form_part(alpha: EquivariantForm) -> EquivariantForm:
    if any(len(fmi) == 0 for (fmi, nu) in alpha._terms):
        raise InputError(
            "exp_form_part requires every term to have form degree >= 1; "
            "split scalar parts off analytically"
        )
    one = EquivariantForm.scalar(alpha.chart_id, alpha.ambient_dim, alpha.gdim, 1.0)
    total = one
    power = one
    fact = 1.0
    for k in range(1, alpha.ambient_dim + 1):
        power = wedge(power, alpha)
        if power.is_zero:
            break
        fact *= k
        total = total + power.scale(1.0 / fact)
    return total


# ---------------------------------------------------------------------------
# invariance
# ---------------------------------------------------------------------------


def lie_derivative(alpha: EquivariantForm, comps) -> EquivariantForm:
    """Lie derivative along one fixed vector field via the homotopy formula
    L = d iota + iota d (phi spectates)."""
    comps = tuple(as_expr(c) for c in comps)
    return exterior_d(_contract_single(alpha, comps)) + _contract_single(
        exterior_d(alpha), comps
    )


def _phi_rotation(alpha: EquivariantForm, algebra: LieAlgebraSpec, a: int):
    """Directional phi-derivative along [e_a, phi]: monomial phi^nu maps to
    sum_{b, i} nu_b c[a, i, b] phi^{nu - e_b + e_i}."""
    c = algebra.structure_constants
    out: dict = {}
    for (fmi, nu), coeff in alpha._terms.items():
        for b, eb in enumerate(nu):
            if eb == 0:
                continue
            for i in range(algebra.dim):
                w = c[a, i, b] * eb
                if w == 0:
                    continue
                bumped = list(nu)
                bumped[b] -= 1
                bumped[i] += 1
                key = (fmi, tuple(bumped))
                piece = mul(const(w), coeff)
                out[key] = add(out[key], piece) if key in out else piece
    return alpha._raw(out)


def invariance_residual(
    alpha: EquivariantForm,
    V: VectorFieldFamily,
    algebra: LieAlgebraSpec,
    pts: np.ndarray,
    phis: np.ndarray,
) -> float:
    """max |(L_{V_a} + phi-rotation_a) alpha| over sample points, phi samples,
    and algebra directions a."""
    worst = 0.0
    for a in range(algebra.dim):
        resid = lie_derivative(alpha, V.components[a]) + _phi_rotation(
            alpha, algebra, a
        )
        worst = max(worst, _sampled_sup(resid, pts, phis))
    return worst


def _sampled_sup(form: EquivariantForm, pts: np.ndarray, phis, cache=None) -> float:
    """max |coefficient| of ``form`` over the sample points and each phi
    of ``phis`` (0.0 for the zero form)."""
    cache = {} if cache is None else cache
    worst = 0.0
    for phi in phis:
        for vals in form.eval_at_phi(pts, phi, cache).values():
            if vals.size:
                worst = max(worst, float(np.max(np.abs(vals))))
    return worst
