"""Compact Lie algebra arithmetic, the Gaussian moments over it, and the
package's error types.

``LieAlgebraSpec`` fixes the algebra data: structure constants, the
invariant inner product (which realizes the raise/lower identification,
so moment maps are always stored as algebra-valued fields), and the
Riemannian volume of the group under the bi-invariant metric induced by
that inner product.

The Wick table holds the central Gaussian moments E[phi^nu] of the
inner product (Isserlis recursion).  From it and the inner product's
log-determinant, ``integrate.sgi_values`` evaluates

    integral over the algebra of  phi^nu * exp(i<m, phi> - eps/2 |phi|^2)

exactly (the shift is absorbed by completing the square), with Lebesgue
measure on basis coefficients.  Every phi-integral of the Basic Integral
reduces to that call, so the oscillatory part of the theory never meets
a sampler.

Volume conventions for the built-ins (documented, used consistently on
both sides of every quotient comparison): the u(1) generator has unit
norm and period 2*pi, so vol = 2*pi; su(2) with orthonormal basis and
[e_i, e_j] = eps_ijk e_k has one-parameter subgroups of period 4*pi,
making the group the round 3-sphere of radius 2, vol = 16*pi^2.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fields import _Frozen

__all__ = [
    "LieAlgebraSpec",
    "PhiPolynomial",
    "bracket",
    "builtin_algebra",
    "WICK_DEGREE_CAP",
    "InputError",
    "NotRegularError",
    "REGULAR_MARGIN",
    "AccuracyError",
    "NonConvergenceError",
    "DecompositionError",
]

WICK_DEGREE_CAP = 16


class InputError(ValueError):
    """Invalid input data for an algebra operation."""


def _check_count(name: str, value, minimum: int) -> None:
    """InputError unless ``value`` is an integer (a bool is not) of at
    least ``minimum``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum):
        raise InputError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_real(name: str, value) -> None:
    """InputError unless ``value`` is a real number (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{name} must be a real number, got {value!r}")


def _check_type(name: str, value, kind) -> None:
    """InputError unless ``value`` is an instance of the class ``kind``, or
    of one of the classes of a tuple ``kind``."""
    if not isinstance(value, kind):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        raise InputError(
            f"{name} must be of type {' or '.join(k.__name__ for k in kinds)}, "
            f"got {type(value).__name__}"
        )


class NotRegularError(RuntimeError):
    """A level or radius touches a critical value of the moment-map square,
    so the requested region/quotient is not well defined."""


# A radius or r_max this close to a critical value of |mu|^2 is not regular.
REGULAR_MARGIN = 1e-3


class AccuracyError(RuntimeError):
    """Quadrature refinement was exhausted before the error estimate met the
    requested tolerance.  ``partial`` holds the best value, ``estimate`` the
    last error estimate."""

    def __init__(self, message, partial=None, estimate=None):
        super().__init__(message)
        self.partial = partial
        self.estimate = estimate


class NonConvergenceError(RuntimeError):
    """An iterative procedure (large-parameter plateau, fixed point, fit)
    failed to settle.  ``report`` carries diagnostic data."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report or {}


class DecompositionError(RuntimeError):
    """A fitted polynomial-plus-damped-tail split did not reproduce the data
    within tolerance.  ``report`` carries the fit diagnostics."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report or {}


# ---------------------------------------------------------------------------
# PhiPolynomial
# ---------------------------------------------------------------------------


class PhiPolynomial(_Frozen):
    """Polynomial in the algebra dummy variable phi, stored as a map from
    exponent multi-indices (tuples, one slot per basis element) to complex
    coefficients.  Immutable; zero coefficients are never stored."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict | None = None):
        object.__setattr__(self, "dim", int(dim))
        clean = {}
        for mi, c in (terms or {}).items():
            mi = tuple(int(e) for e in mi)
            if len(mi) != dim:
                raise InputError("multi-index length does not match algebra dim")
            if any(e < 0 for e in mi):
                raise InputError("negative exponent in phi multi-index")
            c = complex(c)
            if c != 0:
                clean[mi] = clean.get(mi, 0) + c
        object.__setattr__(self, "terms", {k: v for k, v in clean.items() if v != 0})

    # -- constructors ---------------------------------------------------
    @staticmethod
    def constant(dim: int, c=1.0) -> "PhiPolynomial":
        return PhiPolynomial(dim, {tuple([0] * dim): c})

    # -- queries ----------------------------------------------------------
    @property
    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(mi) for mi in self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: "PhiPolynomial") -> "PhiPolynomial":
        if self.dim != other.dim:
            raise InputError("phi-polynomial dimension mismatch")
        out = dict(self.terms)
        for mi, c in other.terms.items():
            out[mi] = out.get(mi, 0) + c
        return PhiPolynomial(self.dim, out)

    def scale(self, c) -> "PhiPolynomial":
        return PhiPolynomial(self.dim, {mi: c * v for mi, v in self.terms.items()})

    def __mul__(self, other: "PhiPolynomial") -> "PhiPolynomial":
        if self.dim != other.dim:
            raise InputError("phi-polynomial dimension mismatch")
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mi = tuple(a + b for a, b in zip(m1, m2))
                out[mi] = out.get(mi, 0) + c1 * c2
        return PhiPolynomial(self.dim, out)

    def eval(self, phi) -> complex:
        phi = np.asarray(phi, dtype=complex)
        total = 0j
        for mi, c in self.terms.items():
            v = c
            for a, e in enumerate(mi):
                if e:
                    v = v * phi[a] ** e
            total += v
        return total

    def __repr__(self):
        return f"PhiPolynomial(dim={self.dim}, terms={self.terms!r})"


# ---------------------------------------------------------------------------
# LieAlgebraSpec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LieAlgebraSpec:
    dim: int
    basis_labels: tuple
    structure_constants: np.ndarray  # c[i][j][k]: [e_i, e_j] = sum_k c[i,j,k] e_k
    inner_product: np.ndarray  # SPD matrix of <.,.> in the basis
    group_volume: float
    name: str = "custom"
    _validated: bool = field(default=False, compare=False)

    def __post_init__(self):
        c = np.asarray(self.structure_constants, dtype=float)
        q = np.asarray(self.inner_product, dtype=float)
        object.__setattr__(self, "structure_constants", c)
        object.__setattr__(self, "inner_product", q)
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))
        d = self.dim
        if d <= 0:
            raise InputError("algebra dimension must be positive")
        if len(self.basis_labels) != d:
            raise InputError("basis_labels length must equal dim")
        if c.shape != (d, d, d):
            raise InputError("structure_constants must have shape (dim, dim, dim)")
        if q.shape != (d, d):
            raise InputError("inner_product must have shape (dim, dim)")
        if self.group_volume <= 0:
            raise InputError("group_volume must be positive")
        if np.max(np.abs(c + np.swapaxes(c, 0, 1))) > 1e-12:
            raise InputError("structure constants are not antisymmetric")
        if np.max(np.abs(q - q.T)) > 1e-12:
            raise InputError("inner_product is not symmetric")
        if np.min(np.linalg.eigvalsh(q)) <= 0:
            raise InputError("inner_product is not positive definite")
        # Jacobi: sum over cyclic of [[ei,ej],ek] = 0
        jac = np.einsum("ijm,mkl->ijkl", c, c)
        jac = jac + np.einsum("jkm,mil->ijkl", c, c) + np.einsum("kim,mjl->ijkl", c, c)
        if np.max(np.abs(jac)) > 1e-12:
            raise InputError("structure constants violate the Jacobi identity")
        # ad-invariance of the inner product: <[z,x],y> + <x,[z,y]> = 0
        adinv = np.einsum("zxm,my->zxy", c, q) + np.einsum("zym,xm->zxy", c, q)
        if np.max(np.abs(adinv)) > 1e-12:
            raise InputError("inner_product is not ad-invariant")
        object.__setattr__(self, "_validated", True)

    # -- basic maps -------------------------------------------------------
    def ad_matrix(self, xi) -> np.ndarray:
        """Matrix of ad_xi in the basis: (ad_xi)[k, j] = sum_i xi_i c[i, j, k]."""
        xi = np.asarray(xi, dtype=float)
        return np.einsum("i,ijk->kj", xi, self.structure_constants)

    def pairing(self, xi, eta):
        return (np.asarray(xi) * (self.inner_product @ np.asarray(eta))).sum()


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def bracket(a: LieAlgebraSpec, xi, eta) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if xi.shape != (a.dim,) or eta.shape != (a.dim,):
        raise InputError("bracket arguments must be coefficient vectors of length dim")
    return np.einsum("i,j,ijk->k", xi, eta, a.structure_constants)


class _WickTable:
    """Memoized central moments E[phi^nu] for covariance C = Q^{-1} (eps = 1).

    E[nu] = sum_j C[i, j] * (nu_j - delta_ij) * E[nu - e_i - e_j]
    with i the first active slot.  Scaling in eps is exact:
    E_eps[nu] = eps^{-|nu|/2} E_1[nu].
    """

    def __init__(self, q: np.ndarray):
        self.cov = np.linalg.inv(q)
        self.memo: dict = {}

    def moment(self, mi: tuple) -> float:
        total = sum(mi)
        if total == 0:
            return 1.0
        if total % 2 == 1:
            return 0.0
        hit = self.memo.get(mi)
        if hit is not None:
            return hit
        i = next(a for a, e in enumerate(mi) if e > 0)
        acc = 0.0
        for j, ej in enumerate(mi):
            mult = ej - (1 if j == i else 0)
            if mult <= 0:
                continue
            nxt = list(mi)
            nxt[i] -= 1
            nxt[j] -= 1
            acc += self.cov[i, j] * mult * self.moment(tuple(nxt))
        self.memo[mi] = acc
        return acc


_wick_cache: dict = {}


def _wick_table(a: LieAlgebraSpec) -> _WickTable:
    key = a.inner_product.tobytes()
    table = _wick_cache.get(key)
    if table is None:
        table = _WickTable(a.inner_product)
        _wick_cache[key] = table
    return table


@lru_cache(maxsize=None)
def _logdet(qbytes: bytes, dim: int) -> float:
    q = np.frombuffer(qbytes, dtype=float).reshape(dim, dim)
    sign, logdet = np.linalg.slogdet(q)
    return logdet


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def builtin_algebra(name: str) -> LieAlgebraSpec:
    """u1, su2, or torus(k)."""
    name = name.strip()
    if name == "u1":
        return LieAlgebraSpec(
            dim=1,
            basis_labels=("e1",),
            structure_constants=np.zeros((1, 1, 1)),
            inner_product=np.eye(1),
            group_volume=2 * np.pi,
            name="u1",
        )
    if name == "su2":
        c = np.zeros((3, 3, 3))
        for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            c[i, j, k] = 1.0
            c[j, i, k] = -1.0
        return LieAlgebraSpec(
            dim=3,
            basis_labels=("e1", "e2", "e3"),
            structure_constants=c,
            inner_product=np.eye(3),
            # one-parameter subgroups close at 4*pi => round S^3 of radius 2
            group_volume=16 * np.pi**2,
            name="su2",
        )
    if name.startswith("torus(") and name.endswith(")"):
        try:
            k = int(name[len("torus(") : -1])
        except ValueError:
            raise InputError(f"torus rank must be an integer, got {name!r}") from None
        if k <= 0:
            raise InputError("torus rank must be positive")
        return LieAlgebraSpec(
            dim=k,
            basis_labels=tuple(f"e{i+1}" for i in range(k)),
            structure_constants=np.zeros((k, k, k)),
            inner_product=np.eye(k),
            group_volume=(2 * np.pi) ** k,
            name=name,
        )
    raise InputError(f"unknown algebra {name!r}")
