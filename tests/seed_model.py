"""The per-row standard-model samplers, kept as references.

Before both standard-model actions shared one batched chart composition
(hamspace.build_standard_model), the left G-action and the diagonal
H-action each had a sampler of their own: a loop over the points that
called SciPy expm and logm, a dense Texp through the augmented-block
identity, and a least-squares solve for the algebra vector of each log.
The shared sampler must give the same image and Jacobians within
roundoff.  The two samplers below are those loops, unchanged.
"""

import numpy as np


def samplers(m):
    """(action_sampler_G, action_sampler_H) of the StandardLocalModel m;
    the second is None when h = 0."""
    g = m.algebra_G
    dg, dk, dx = g.dim, m.dim_k, m.x_dim
    n = dg + dk + dx
    admats = [g.ad_matrix(e) for e in np.eye(dg)]

    # group element exp(xi) acting on the left; theta' = log(e^xi e^theta),
    # d theta' = Texp(ad_theta')^{-1} Texp(ad_theta) d theta
    def action_sampler_G(xi, pts):
        xi = np.asarray(xi, dtype=float).reshape(dg)
        new_pts = pts.copy()
        n_pts = pts.shape[0]
        jac = np.zeros((n_pts, n, n))
        jac[:, dg:, dg:] = np.eye(dk + dx)
        for row in range(n_pts):
            theta = pts[row, :dg]
            ad_t = sum(theta[c] * admats[c] for c in range(dg))
            ad_x = sum(xi[c] * admats[c] for c in range(dg))
            if dg == 1:
                theta_new = theta + xi  # abelian chart composition
                jac_t = np.eye(1)
            else:
                gmat = _expm_dense(ad_x) @ _expm_dense(ad_t)
                lmat = np.real(_logm_dense(gmat))
                theta_new = _ad_to_vector(lmat, admats)
                ad_tn = sum(theta_new[c] * admats[c] for c in range(dg))
                jac_t = np.linalg.solve(_texp_dense(ad_tn), _texp_dense(ad_t))
            new_pts[row, :dg] = theta_new
            jac[row, :dg, :dg] = jac_t
        return new_pts, jac

    if not m.dim_h:
        return action_sampler_G, None
    dh = m.dim_h
    hmat = m.h_basis.T  # (dg, dh)

    def action_sampler_H(xi, pts):
        xi = np.asarray(xi, dtype=float).reshape(dh)
        zeta = hmat @ xi  # in g
        ad_z = sum(zeta[c] * admats[c] for c in range(dg))
        x_rot = (
            _expm_dense(sum(xi[i] * m.rho[i] for i in range(dh)))
            if dx
            else np.zeros((0, 0))
        )
        n_pts = pts.shape[0]
        new_pts = pts.copy()
        jac = np.zeros((n_pts, n, n))
        for row in range(n_pts):
            theta = pts[row, :dg]
            ad_t = sum(theta[c] * admats[c] for c in range(dg))
            if dg == 1:
                theta_new = theta + zeta
                jac_t = np.eye(1)
            else:
                gmat = _expm_dense(ad_t) @ _expm_dense(ad_z)
                theta_new = _ad_to_vector(np.real(_logm_dense(gmat)), admats)
                ad_tn = sum(theta_new[c] * admats[c] for c in range(dg))
                jac_t = np.linalg.solve(
                    _texp_dense(ad_tn),
                    _expm_dense(-ad_z) @ _texp_dense(ad_t),
                )
            new_pts[row, :dg] = theta_new
            jac[row, :dg, :dg] = jac_t
            new_pts[row, dg : dg + dk] = pts[row, dg : dg + dk]
            jac[row, dg : dg + dk, dg : dg + dk] = np.eye(dk)
            if dx:
                new_pts[row, dg + dk :] = x_rot @ pts[row, dg + dk :]
                jac[row, dg + dk :, dg + dk :] = x_rot
        return new_pts, jac

    return action_sampler_G, action_sampler_H


def _ad_to_vector(lmat: np.ndarray, admats) -> np.ndarray:
    """Solve sum_c v_c admats[c] = lmat for v (least squares, exact for
    points in the chart)."""
    basis = np.stack([b.ravel() for b in admats], axis=1)
    sol, *_ = np.linalg.lstsq(basis, lmat.ravel(), rcond=None)
    return sol


def _expm_dense(a: np.ndarray) -> np.ndarray:
    from scipy.linalg import expm

    return expm(a)


def _logm_dense(a: np.ndarray) -> np.ndarray:
    from scipy.linalg import logm

    return logm(a)


def _texp_dense(a: np.ndarray) -> np.ndarray:
    """(1 - e^{-A}) / A via the augmented-block identity (dense, pointwise)."""
    k = a.shape[0]
    aug = np.zeros((2 * k, 2 * k))
    aug[:k, :k] = -a
    aug[:k, k:] = np.eye(k)
    return _expm_dense(aug)[:k, k:]
