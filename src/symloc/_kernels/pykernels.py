"""NumPy reference implementations of the hot inner kernels.

These are the import-time fallback when the compiled extension is not
available, or when ``SYMLOC_PURE=1`` forces them.  They define the
semantics the Cython versions must reproduce:

``combine_terms``
    out[n] = sum_r coeffs[r] * prod_{k in row r} factors[factor_idx[k], n]

    where row r selects factor_idx[row_ptr[r]:row_ptr[r+1]].  This is the
    per-node reduction of a sum-of-products program: each integrand term
    is one row, its factors are rows of a shared (n_factors, N) matrix of
    pointwise-evaluated fields.

``kahan_wsum``
    Compensated weighted sum  sum_n values[n] * weights[n]  in a fixed
    left-to-right order, so quadrature accumulation is deterministic and
    immune to cancellation at the ~1e-16 level.
"""

from __future__ import annotations

import math

import numpy as np

IMPLEMENTATION = "numpy"


def combine_terms(
    coeffs: np.ndarray,
    row_ptr: np.ndarray,
    factor_idx: np.ndarray,
    factors: np.ndarray,
) -> np.ndarray:
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    factors = np.ascontiguousarray(factors, dtype=np.complex128)
    n = factors.shape[1] if factors.ndim == 2 else 0
    out = np.zeros(n, dtype=np.complex128)
    for r in range(len(coeffs)):
        lo, hi = int(row_ptr[r]), int(row_ptr[r + 1])
        if hi == lo:
            out += coeffs[r]
            continue
        prod = factors[int(factor_idx[lo])].copy()
        for k in range(lo + 1, hi):
            prod *= factors[int(factor_idx[k])]
        out += coeffs[r] * prod
    return out


def kahan_wsum(values: np.ndarray, weights: np.ndarray) -> complex:
    values = np.asarray(values, dtype=np.complex128)
    weights = np.asarray(weights, dtype=np.float64)
    # math.fsum is exact (lossless shadow accumulation), which dominates
    # two-term Kahan compensation; order-independence makes it trivially
    # deterministic.
    re = math.fsum((values.real * weights).tolist())
    im = math.fsum((values.imag * weights).tolist())
    return complex(re, im)
