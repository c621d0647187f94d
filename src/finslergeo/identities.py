"""Residual evaluators and oracles for the identity battery of the verification suite.

Each residual function returns a nonnegative residual that vanishes (to
numerical precision) exactly when the corresponding assertion holds. They
are shared by the CLI verification tasks and the test suite. The metric
compatibility residuals differentiate along a curve by a 4th-order central
difference; ``levi_civita`` is the exact classical oracle behind the
Riemannian-reduction check, read from jets of the coefficient field g(x)
alone, with no F^2 and no spray.
"""

from __future__ import annotations

import numpy as np

from .jets import lift_any
from .lifts import (LiftSpec, SectionJet, affine_coefficients, classical_lift,
                    cprime_tensor, nabla_apply, nabla_g)
from .metrics import MetricSpec, TangentVector, _f2_y_jet, g_bilinear
from .rng import SplitMix64
from .spray import PointFrame
from .variational import _transport, integrate_geodesic


def _d1(f, h: float) -> float:
    """df/dt at t = 0 of a scalar function of one variable, 4th-order central difference."""
    return (f(-2 * h) - 8 * f(-h) + 8 * f(h) - f(2 * h)) / (12 * h)


def levi_civita(ms: MetricSpec, x, y):
    """Levi-Civita symbols and Jacobi operator of a ``metrics.riemannian`` metric, exactly.

    One order-2 jet of the coefficient field ``ms._g_field`` at every point
    of ``x`` (..., n) gives g and its first and second partials. Then
    Gamma^i_jk = g^ia (d_j g_ak + d_k g_aj - d_a g_jk) / 2, and its partials
    follow with d(g^-1) = -g^-1 dg g^-1. Returns Gamma (..., n, n, n) and the
    matrix (..., n, n) of u -> R(u, y)y, with
    R^i_jkl = d_k Gamma^i_lj - d_l Gamma^i_kj + Gamma^i_km Gamma^m_lj - Gamma^i_lm Gamma^m_kj,
    the sign for which the round sphere has sectional curvature +1.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    jet = lift_any(ms._g_field, x, 2)
    # batch axes first: g[..., a, b], dg[..., a, b, k] = d_k g_ab, d2g[..., a, b, k, l]
    g, dg, d2g = (np.moveaxis(jet.derivative(k), (0, 1), (x.ndim - 1, x.ndim))
                  for k in range(3))
    ginv = np.linalg.inv(g)
    # Christoffel symbols of the first kind, Gamma_ajk, and their partials d_l
    low = 0.5 * (np.einsum("...akj->...ajk", dg) + dg - np.einsum("...jka->...ajk", dg))
    dlow = 0.5 * (np.einsum("...akjl->...ajkl", d2g) + d2g
                  - np.einsum("...jkal->...ajkl", d2g))
    dginv = -np.einsum("...ia,...abl,...bc->...icl", ginv, dg, ginv)
    gam = np.einsum("...ia,...ajk->...ijk", ginv, low)
    dgam = (np.einsum("...ial,...ajk->...ijkl", dginv, low)
            + np.einsum("...ia,...ajkl->...ijkl", ginv, dlow))  # d_l Gamma^i_jk
    riem = (np.einsum("...iljk->...ijkl", dgam) - np.einsum("...ikjl->...ijkl", dgam)
            + np.einsum("...ikm,...mlj->...ijkl", gam, gam)
            - np.einsum("...ilm,...mkj->...ijkl", gam, gam))
    return gam, np.einsum("...ijkl,...j,...l->...ik", riem, y, y)


class AffineField:
    """An affine vector field U(x) = u0 + A (x - x0) for identity tests."""

    def __init__(self, x0, u0, A):
        self.x0 = np.asarray(x0, float)
        self.u0 = np.asarray(u0, float)
        self.A = np.asarray(A, float)

    def __call__(self, x):
        return self.u0 + self.A @ (np.asarray(x, float) - self.x0)

    @staticmethod
    def random(x0, rng: SplitMix64, min_norm: float = 0.4) -> "AffineField":
        n = len(x0)
        u0 = rng.direction(n, min_norm)
        A = np.array([[rng.uniform(-0.5, 0.5) for _ in range(n)] for _ in range(n)])
        return AffineField(x0, u0, A)


def _affine_cov(lift: LiftSpec, ms, x0, w0, U: AffineField, V: AffineField) -> np.ndarray:
    """D^W_U V at x0 for affine fields, with the direction value w0 = W(x0)."""
    A = affine_coefficients(lift, ms, TangentVector(x0, w0)).A
    return V.A @ U(x0) + np.einsum("ijk,j,k->i", A, U(x0), V(x0))


def nabla_s_g_residual(lift: LiftSpec, ms: MetricSpec, w: TangentVector) -> float:
    """| (nabla_S g) | at w, exact zero for every lift of the canonical connection."""
    fr = PointFrame(ms, w, order=4)
    s_raw = np.concatenate([fr.y, -fr.N @ fr.y])
    worst = 0.0
    eye = np.eye(ms.dim)
    for i in range(ms.dim):
        for k in range(ms.dim):
            worst = max(worst, abs(nabla_g(lift, ms, w, s_raw, eye[i], eye[k], _frame=fr)))
    return worst


def symmetry_residual(lift: LiftSpec, ms: MetricSpec, x0, rng: SplitMix64) -> float:
    """Torsion symmetry of the affine family: D^W_U V - D^W_V U - [U, V]."""
    n = ms.dim
    W = AffineField.random(x0, rng)
    U = AffineField.random(x0, rng)
    V = AffineField.random(x0, rng)
    w0 = W(x0)
    bracket = V.A @ U(x0) - U.A @ V(x0)
    lhs = _affine_cov(lift, ms, x0, w0, U, V) - _affine_cov(lift, ms, x0, w0, V, U)
    return float(np.max(np.abs(lhs - bracket)))


def metric_compat_residual(lift: LiftSpec, ms: MetricSpec, x0, rng: SplitMix64,
                           h: float = 1e-4) -> float:
    """M1+M2 compatibility: U g_W(W,V) = g(D^W_U W, V) + g(W, D^W_U V).

    The left side is a finite-difference directional derivative.
    """
    W = AffineField.random(x0, rng, min_norm=0.6)
    U = AffineField.random(x0, rng)
    V = AffineField.random(x0, rng)
    u0 = U(x0)

    def phi(t):
        x = np.asarray(x0, float) + t * u0
        wx = W(x)
        return g_bilinear(ms, list(x), list(wx), wx, V(x))

    lhs = _d1(phi, h)
    w0 = W(x0)
    duw = W.A @ u0 + np.einsum("ijk,j,k->i",
                               affine_coefficients(lift, ms, TangentVector(x0, w0)).A, u0, w0)
    duv = _affine_cov(lift, ms, x0, w0, U, V)
    fr = PointFrame(ms, TangentVector(x0, w0), order=2)
    rhs = duw @ fr.g @ V(x0) + w0 @ fr.g @ duv
    return float(abs(lhs - rhs))


def metric_compat_geodesic_residual(ms: MetricSpec, x0, rng: SplitMix64,
                                    lift: LiftSpec | None = None, h: float = 1e-4) -> float:
    """W g_W(T,V) = g(D^W_W T, V) + g(T, D^W_W V) where W's integral curve is
    a geodesic through x0 (constructed by matching the spray at x0)."""
    if lift is None:
        lift = classical_lift("berwald", ms)
    n = ms.dim
    w0 = rng.direction(n, 0.6)
    fr = PointFrame(ms, TangentVector(x0, w0), order=4)
    a_w = np.outer(-2.0 * fr.G, w0) / float(w0 @ w0)
    W = AffineField(x0, w0, a_w)
    T = AffineField.random(x0, rng)
    V = AffineField.random(x0, rng)

    def phi(t):
        x = np.asarray(x0, float) + t * w0
        wx = W(x)
        return g_bilinear(ms, list(x), list(wx), T(x), V(x))

    lhs = _d1(phi, h)
    dwt = _affine_cov(lift, ms, x0, w0, W, T)
    dwv = _affine_cov(lift, ms, x0, w0, W, V)
    rhs = dwt @ fr.g @ V(x0) + T(x0) @ fr.g @ dwv
    return float(abs(lhs - rhs))


def family_metric_identity_residual(kind: str, ms: MetricSpec, x0, rng: SplitMix64, h: float = 1e-5) -> float:
    """Family-level metric identities of the classical connections.

    Cartan/Chern-Rund family: (D^W_U g_W)(T,V) = 2 C_W(D^W_U W, T, V).
    Berwald/Hashiguchi family: ... = 2 C_W(D^W_U W, T, V) + 2 C'_W(U, T, V).
    """
    lift = classical_lift(kind, ms)
    W = AffineField.random(x0, rng, min_norm=0.6)
    U = AffineField.random(x0, rng)
    T = AffineField.random(x0, rng)
    V = AffineField.random(x0, rng)
    u0, t0, v0 = U(x0), T(x0), V(x0)
    w0 = W(x0)
    fr = PointFrame(ms, TangentVector(x0, w0), order=4)

    def phi(s):
        x = np.asarray(x0, float) + s * u0
        wx = W(x)
        return g_bilinear(ms, list(x), list(wx), t0, v0)

    dg = _d1(phi, h)
    dut = _affine_cov(lift, ms, x0, w0, U, AffineField(x0, t0, np.zeros((ms.dim, ms.dim))))
    duv = _affine_cov(lift, ms, x0, w0, U, AffineField(x0, v0, np.zeros((ms.dim, ms.dim))))
    lhs = dg - dut @ fr.g @ v0 - t0 @ fr.g @ duv
    duw = W.A @ u0 + np.einsum("ijk,j,k->i",
                               affine_coefficients(lift, ms, TangentVector(x0, w0)).A, u0, w0)
    rhs = 2.0 * np.einsum("ijk,i,j,k->", fr.C_low, duw, t0, v0)
    if kind in ("berwald", "hashiguchi"):
        rhs += 2.0 * np.einsum("ijk,i,j,k->", fr.Cp_low, u0, t0, v0)
    return float(abs(lhs - rhs))


def spray_derivative_residual(lift: LiftSpec, ms: MetricSpec, w: TangentVector,
                     rng: SplitMix64) -> float:
    """For T1 lifts: nabla_S J(Y) = V[S, J(Y)] for projectable Y."""
    n = ms.dim
    U = AffineField.random(w.x, rng)
    fr = PointFrame(ms, w, order=4)
    s_raw = np.concatenate([fr.y, -fr.N @ fr.y])
    section = SectionJet(U(w.x), U.A.copy(), np.zeros((n, n)))
    lhs = nabla_apply(lift, ms, w, s_raw, section, _frame=fr)
    rhs = U.A @ fr.y + fr.N @ U(w.x)
    return float(np.max(np.abs(lhs - rhs)))


def cprime_transport_residual(ms: MetricSpec, w: TangentVector, tau: float = 1e-3,
                              rng: SplitMix64 | None = None) -> float:
    """Package C' against the geodesic-transport oracle.

    The oracle integrates the geodesic, transports three random vectors
    along it (the columns of one solve on the geodesic's frame table) and
    differentiates the Cartan contraction in t; the package tensor is minus
    that derivative (see the C' sign convention).
    """
    rng = rng or SplitMix64(1)
    n = ms.dim
    vecs0 = np.column_stack([rng.direction(n), rng.direction(n), rng.direction(n)])

    def contraction(t):
        # the span starts at w, time 0, and runs backwards for t < 0
        geo = integrate_geodesic(ms, w, t, rtol=1e-11, atol=1e-13, nodes=5)
        vecs = _transport(ms, geo, vecs0, (0.0, t), 1e-11, 1e-13).y[:, -1].reshape(n, 3)
        st = geo.dense(t)
        C = PointFrame(ms, TangentVector(st[:n], st[n:]), order=3).C_low
        return np.einsum("ijk,i,j,k->", C, *vecs.T)

    oracle = (contraction(tau) - contraction(-tau)) / (2.0 * tau)
    mine = np.einsum("ijk,i,j,k->", cprime_tensor(ms, w).Cp, *vecs0.T)
    return float(abs(mine + oracle))


def tensor_identity_residuals(ms: MetricSpec, w: TangentVector) -> dict:
    """Pointwise tensor identities: contractions, symmetry, Euler, homogeneity."""
    fr = PointFrame(ms, w, order=4)
    y = fr.y
    C = fr.C_low
    Cp = fr.Cp_low
    out = {}
    out["cartan_contract"] = float(np.max(np.abs(np.einsum("ijk,k->ij", C, y))))
    out["cprime_contract"] = float(np.max(np.abs(np.einsum("ijk,k->ij", Cp, y))))
    sym = 0.0
    for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        sym = max(sym, float(np.max(np.abs(C - np.transpose(C, perm)))))
        sym = max(sym, float(np.max(np.abs(Cp - np.transpose(Cp, perm)))))
    out["full_symmetry"] = sym
    f2 = ms.f2(list(w.x), list(w.y))
    out["gww_identity"] = float(abs(y @ fr.g @ y - f2))
    # Euler: g_w(w, .) equals half the fiber gradient of F^2
    grad = _f2_y_jet(ms, w.x, w.y, 1).derivative(1)
    out["euler_gradient"] = float(np.max(np.abs(fr.g @ y - 0.5 * grad)))
    # homogeneity of g (degree 0) and C (degree -1)
    res_g, res_c = 0.0, 0.0
    for lam in (0.5, 3.0):
        fr2 = PointFrame(ms, TangentVector(w.x, lam * y), order=4)
        res_g = max(res_g, float(np.max(np.abs(fr2.g - fr.g))))
        res_c = max(res_c, float(np.max(np.abs(fr2.C_low - C / lam))))
    out["g_homogeneity"] = res_g
    out["cartan_homogeneity"] = res_c
    return out
