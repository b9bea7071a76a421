"""The scalar closed form of the shifted Gaussian integral over a Lie
algebra: the reference that integrate.sgi_values, the vectorized
evaluation the Basic Integral runs, is tested against.

gaussian_moment evaluates  integral p(phi) exp(-eps/2 |phi|^2) dphi  for a
PhiPolynomial p from the Wick table (Isserlis recursion);
shifted_gaussian_integral adds the shift exp(i<m, phi>) by completing the
square, which sends phi -> phi + i m / eps (shift(p, v) is p(phi + v)).
Lebesgue measure on basis coefficients throughout.
"""

from math import comb

import numpy as np

from symloc.liealg import (
    WICK_DEGREE_CAP,
    InputError,
    LieAlgebraSpec,
    PhiPolynomial,
    _logdet,
    _wick_table,
)


def shift(p: PhiPolynomial, v) -> PhiPolynomial:
    """p(phi) -> p(phi + v) for a fixed (complex) vector v."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (p.dim,):
        raise InputError("shift vector length does not match algebra dim")
    out: dict = {}
    for mi, c in p.terms.items():
        # expand each variable's binomial independently
        partial = {tuple([0] * p.dim): c}
        for a, e in enumerate(mi):
            if e == 0:
                continue
            nxt: dict = {}
            for k in range(e + 1):
                w = comb(e, k) * (v[a] ** (e - k))
                if w == 0:
                    continue
                for pmi, pc in partial.items():
                    key = list(pmi)
                    key[a] += k
                    key = tuple(key)
                    nxt[key] = nxt.get(key, 0) + pc * w
            partial = nxt
        for pmi, pc in partial.items():
            out[pmi] = out.get(pmi, 0) + pc
    return PhiPolynomial(p.dim, out)


def gaussian_moment(a: LieAlgebraSpec, p: PhiPolynomial, eps: float) -> complex:
    """Exact value of  integral p(phi) exp(-eps/2 |phi|^2) dphi  over the
    algebra (Lebesgue measure on basis coefficients)."""
    if eps <= 0:
        raise InputError("eps must be positive")
    if p.dim != a.dim:
        raise InputError("phi-polynomial dimension does not match the algebra")
    if p.degree > WICK_DEGREE_CAP:
        raise InputError(
            f"phi-degree {p.degree} exceeds the Wick cap {WICK_DEGREE_CAP}"
        )
    table = _wick_table(a)
    logdet = _logdet(a.inner_product.tobytes(), a.dim)
    z = (2 * np.pi / eps) ** (a.dim / 2) * np.exp(-0.5 * logdet)
    acc = 0j
    for mi, c in p.terms.items():
        total = sum(mi)
        if total % 2 == 1:
            continue
        acc += c * table.moment(mi) * eps ** (-total / 2)
    return complex(z * acc)


def shifted_gaussian_integral(
    a: LieAlgebraSpec, p: PhiPolynomial, m, eps: float
) -> complex:
    """Exact value of  integral p(phi) exp(i<m, phi> - eps/2 |phi|^2) dphi.

    Completing the square sends phi -> phi + i m / eps and leaves the
    Gaussian weight exp(-|m|^2 / (2 eps)) outside."""
    if eps <= 0:
        raise InputError("eps must be positive")
    m = np.asarray(m, dtype=float)
    if m.shape != (a.dim,):
        raise InputError("shift vector length does not match algebra dim")
    norm2 = float(np.real(m @ a.inner_product @ m))
    damp = np.exp(-norm2 / (2 * eps))
    return damp * gaussian_moment(a, shift(p, 1j * m / eps), eps)
