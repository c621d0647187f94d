"""Residual evaluators and oracles for the identity battery of the verification suite.

Each residual function returns a nonnegative residual that vanishes (to
numerical precision) exactly when the corresponding assertion holds. They
are shared by the CLI verification tasks and the test suite. A residual
takes points with leading batch axes, (..., n), builds one frame for all
of them and returns the sup over them; random fields are drawn point by
point, so a batch consumes a shared RNG as a loop over its points does,
and an empty batch raises ``ValueError``. The metric compatibility
residuals differentiate along a curve by a 4th-order central difference,
one evaluation of ``g_bilinear`` per stencil offset for all points; ``levi_civita`` is the exact classical oracle behind the
Riemannian-reduction check, read from jets of the coefficient field g(x)
alone, with no F^2 and no spray.
"""

from __future__ import annotations

import numpy as np

from .jets import lift_any
from .lifts import (LiftSpec, SectionJet, _nabla_g_tensors, adapted_split,
                    affine_coefficients, classical_lift, cprime_tensor, lift_tensors,
                    nabla_apply)
from .metrics import MetricSpec, TangentVector, _f2_y_jet, g_bilinear, require_points
from .rng import SplitMix64
from .spray import PointFrame, _matvec, _pair
from .variational import _d1, integrate_geodesic, parallel_transport

_CPRIME_TAU = 1e-3   # time step of the central difference in cprime_transport_residual


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
    """An affine vector field U(x) = u0 + A (x - x0) for identity tests.

    ``x0``, ``u0`` and ``A`` may carry leading batch axes, (..., n) and
    (..., n, n): one field per point of a batch.
    """

    def __init__(self, x0, u0, A):
        self.x0 = np.asarray(x0, float)
        self.u0 = np.asarray(u0, float)
        self.A = np.asarray(A, float)

    def __call__(self, x):
        return self.u0 + _matvec(self.A, np.asarray(x, float) - self.x0)

    @staticmethod
    def random(x0, rng: SplitMix64, min_norm: float = 0.4) -> "AffineField":
        n = len(x0)
        u0 = rng.direction(n, min_norm)
        A = np.array([[rng.uniform(-0.5, 0.5) for _ in range(n)] for _ in range(n)])
        return AffineField(x0, u0, A)

    @staticmethod
    def stack(fields) -> "AffineField":
        """One field batched over a sequence of single fields."""
        return AffineField(*(np.array([getattr(f, k) for f in fields]) for k in ("x0", "u0", "A")))


def _points(x, what: str) -> np.ndarray:
    """Points (..., n) as rows (m, n); an empty batch is refused."""
    x = np.asarray(x, float)
    require_points(x, what)
    return x.reshape(-1, x.shape[-1])


def _tangents(w: TangentVector, what: str) -> TangentVector:
    return TangentVector(_points(w.x, what), w.y.reshape(-1, w.n))


def _drawn(pts, draw):
    """``draw(x)`` at each row of ``pts`` in order, so that a shared RNG is
    consumed as by a loop over the points; each of its results, an
    ``AffineField`` or an array, comes back stacked over the points."""
    rows = [draw(x) for x in pts]
    return [AffineField.stack(col) if isinstance(col[0], AffineField) else np.array(col)
            for col in zip(*rows)]


def _sup(res) -> float:
    return float(np.max(np.abs(res)))


def _affine_cov(A, U: AffineField, V: AffineField) -> np.ndarray:
    """D^W_U V at the fields' base points for affine fields, where A holds the
    affine coefficients at the direction W there."""
    u, v = U(U.x0), V(V.x0)
    return _matvec(V.A, u) + np.einsum("...ijk,...j,...k->...i", A, u, v)


def nabla_s_g_residual(lift: LiftSpec, ms: MetricSpec, w: TangentVector) -> float:
    """| (nabla_S g) | at w, exact zero for every lift of the canonical connection."""
    fr = PointFrame(ms, _tangents(w, "nabla_s_g_residual"), order=4)
    s_raw = np.concatenate([fr.y, -_matvec(fr.N, fr.y)], axis=-1)
    h, v = _nabla_g_tensors(fr, *lift_tensors(lift, fr))
    a, b = adapted_split(fr, s_raw)
    # (nabla_S g)(e_i, e_k) for every i, k
    return _sup(np.einsum("...j,...jik->...ik", a, h) + np.einsum("...j,...jik->...ik", b, v))


def symmetry_residual(lift: LiftSpec, ms: MetricSpec, x0, rng: SplitMix64) -> float:
    """Torsion symmetry of the affine family: D^W_U V - D^W_V U - [U, V]."""
    pts = _points(x0, "symmetry_residual")
    W, U, V = _drawn(pts, lambda x: [AffineField.random(x, rng) for _ in range(3)])
    fr = PointFrame(ms, TangentVector(pts, W(pts)), order=4)
    A = affine_coefficients(lift, ms, fr.w, _frame=fr).A
    bracket = _matvec(V.A, U(pts)) - _matvec(U.A, V(pts))
    lhs = _affine_cov(A, U, V) - _affine_cov(A, V, U)
    return _sup(lhs - bracket)


def metric_compat_residual(lift: LiftSpec, ms: MetricSpec, x0, rng: SplitMix64,
                           h: float = 1e-4) -> float:
    """M1+M2 compatibility: U g_W(W,V) = g(D^W_U W, V) + g(W, D^W_U V).

    The left side is a finite-difference directional derivative.
    """
    pts = _points(x0, "metric_compat_residual")
    W, U, V = _drawn(pts, lambda x: [AffineField.random(x, rng, min_norm=0.6),
                                     AffineField.random(x, rng), AffineField.random(x, rng)])
    u0 = U(pts)

    def phi(t):
        x = pts + t * u0
        wx = W(x)
        return g_bilinear(ms, x, wx, wx, V(x))

    lhs = _d1(phi, h)
    w0 = W(pts)
    fr = PointFrame(ms, TangentVector(pts, w0), order=4)
    A = affine_coefficients(lift, ms, fr.w, _frame=fr).A
    duw = _matvec(W.A, u0) + np.einsum("...ijk,...j,...k->...i", A, u0, w0)
    duv = _affine_cov(A, U, V)
    rhs = _pair(duw, fr.g, V(pts)) + _pair(w0, fr.g, duv)
    return _sup(lhs - rhs)


def metric_compat_geodesic_residual(ms: MetricSpec, x0, rng: SplitMix64,
                                    lift: LiftSpec | None = None, h: float = 1e-4) -> float:
    """W g_W(T,V) = g(D^W_W T, V) + g(T, D^W_W V) where W's integral curve is
    a geodesic through x0 (constructed by matching the spray at x0)."""
    if lift is None:
        lift = classical_lift("berwald", ms)
    n = ms.dim
    pts = _points(x0, "metric_compat_geodesic_residual")
    w0, T, V = _drawn(pts, lambda x: [rng.direction(n, 0.6), AffineField.random(x, rng),
                                      AffineField.random(x, rng)])
    fr = PointFrame(ms, TangentVector(pts, w0), order=4)
    ww = np.array([float(w @ w) for w in w0])
    a_w = (-2.0 * fr.G)[:, :, None] * w0[:, None, :] / ww[:, None, None]
    W = AffineField(pts, w0, a_w)

    def phi(t):
        x = pts + t * w0
        wx = W(x)
        return g_bilinear(ms, x, wx, T(x), V(x))

    lhs = _d1(phi, h)
    A = affine_coefficients(lift, ms, fr.w, _frame=fr).A
    dwt = _affine_cov(A, W, T)
    dwv = _affine_cov(A, W, V)
    rhs = _pair(dwt, fr.g, V(pts)) + _pair(T(pts), fr.g, dwv)
    return _sup(lhs - rhs)


def family_metric_identity_residual(kind: str, ms: MetricSpec, x0, rng: SplitMix64, h: float = 1e-5) -> float:
    """Family-level metric identities of the classical connections.

    Cartan/Chern-Rund family: (D^W_U g_W)(T,V) = 2 C_W(D^W_U W, T, V).
    Berwald/Hashiguchi family: ... = 2 C_W(D^W_U W, T, V) + 2 C'_W(U, T, V).
    """
    lift = classical_lift(kind, ms)
    pts = _points(x0, "family_metric_identity_residual")
    W, U, T, V = _drawn(pts, lambda x: [AffineField.random(x, rng, min_norm=0.6)]
                        + [AffineField.random(x, rng) for _ in range(3)])
    u0, t0, v0 = U(pts), T(pts), V(pts)
    w0 = W(pts)
    fr = PointFrame(ms, TangentVector(pts, w0), order=4)

    def phi(s):
        x = pts + s * u0
        wx = W(x)
        return g_bilinear(ms, x, wx, t0, v0)

    dg = _d1(phi, h)
    A = affine_coefficients(lift, ms, fr.w, _frame=fr).A
    # D^W_U of the constant fields T(x0) and V(x0)
    dut = np.einsum("...ijk,...j,...k->...i", A, u0, t0)
    duv = np.einsum("...ijk,...j,...k->...i", A, u0, v0)
    lhs = dg - _pair(dut, fr.g, v0) - _pair(t0, fr.g, duv)
    duw = _matvec(W.A, u0) + np.einsum("...ijk,...j,...k->...i", A, u0, w0)
    rhs = 2.0 * np.einsum("...ijk,...i,...j,...k->...", fr.C_low, duw, t0, v0)
    if kind in ("berwald", "hashiguchi"):
        rhs += 2.0 * np.einsum("...ijk,...i,...j,...k->...", fr.Cp_low, u0, t0, v0)
    return _sup(lhs - rhs)


def spray_derivative_residual(lift: LiftSpec, ms: MetricSpec, w: TangentVector,
                              rng: SplitMix64) -> float:
    """For T1 lifts: nabla_S J(Y) = V[S, J(Y)] for projectable Y."""
    w = _tangents(w, "spray_derivative_residual")
    U = AffineField.stack([AffineField.random(x, rng) for x in w.x])
    fr = PointFrame(ms, w, order=4)
    s_raw = np.concatenate([fr.y, -_matvec(fr.N, fr.y)], axis=-1)
    section = SectionJet(U(w.x), U.A.copy(), np.zeros(U.A.shape))
    lhs = nabla_apply(lift, ms, w, s_raw, section, _frame=fr)
    rhs = _matvec(U.A, fr.y) + _matvec(fr.N, U(w.x))
    return _sup(lhs - rhs)


def cprime_transport_residual(ms: MetricSpec, w: TangentVector,
                              rng: SplitMix64 | None = None) -> float:
    """Package C' against the geodesic-transport oracle.

    The oracle integrates the geodesic, transports three random vectors
    along it (the columns of one solve on the geodesic's frame table) and
    differentiates the Cartan contraction in t by a central difference of
    step ``_CPRIME_TAU``; the package tensor is minus that derivative (see
    the C' sign convention).
    """
    rng = rng or SplitMix64(1)
    n = ms.dim
    vecs0 = np.column_stack([rng.direction(n), rng.direction(n), rng.direction(n)])

    def contraction(t):
        # the flow starts at w, time 0, and runs backwards for t < 0
        geo = integrate_geodesic(ms, w, t, rtol=1e-11, nodes=5)
        vecs = parallel_transport(ms, geo, vecs0).vectors[-1 if t > 0 else 0]
        st = geo.dense(t)
        C = PointFrame(ms, TangentVector(st[:n], st[n:]), order=3).C_low
        return np.einsum("ijk,i,j,k->", C, *vecs.T)

    oracle = (contraction(_CPRIME_TAU) - contraction(-_CPRIME_TAU)) / (2.0 * _CPRIME_TAU)
    mine = np.einsum("ijk,i,j,k->", cprime_tensor(ms, w).Cp, *vecs0.T)
    return float(abs(mine + oracle))


def tensor_identity_residuals(ms: MetricSpec, w: TangentVector) -> dict:
    """Pointwise tensor identities: contractions, symmetry, Euler, homogeneity.

    One frame serves w and both rescaled directions, and one F^2 evaluation
    and one y-only jet serve the F^2 and Euler checks at every point.
    """
    w = _tangents(w, "tensor_identity_residuals")
    lams = (0.5, 3.0)
    frames = PointFrame(ms, TangentVector(np.stack([w.x] * 3), np.stack(
        [w.y] + [lam * w.y for lam in lams])), order=4)
    fr = frames[0]
    y = fr.y
    C = fr.C_low
    Cp = fr.Cp_low
    out = {}
    out["cartan_contract"] = _sup(np.einsum("...ijk,...k->...ij", C, y))
    out["cprime_contract"] = _sup(np.einsum("...ijk,...k->...ij", Cp, y))
    out["full_symmetry"] = max(_sup(t - np.transpose(t, (0,) + tuple(1 + p for p in perm)))
                               for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
                               for t in (C, Cp))
    # one F^2 evaluation over float arrays, component axis first
    f2 = ms.f2(list(w.x.T), list(w.y.T))
    out["gww_identity"] = _sup(_pair(y, fr.g, y) - f2)
    # Euler: g_w(w, .) equals half the fiber gradient of F^2, from an independent y-only jet
    grad = _f2_y_jet(ms, w.x, w.y, 1).derivative(1)
    out["euler_gradient"] = _sup(_matvec(fr.g, y) - 0.5 * grad)
    # homogeneity of g (degree 0) and C (degree -1)
    out["g_homogeneity"] = max(_sup(frames[k].g - fr.g) for k in (1, 2))
    out["cartan_homogeneity"] = max(_sup(frames[k].C_low - C / lam)
                                    for k, lam in zip((1, 2), lams))
    return out
