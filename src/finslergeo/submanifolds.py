"""Submanifolds, normal cones, and the second fundamental form two ways:
through the affine connections and through the symplectic structure of the
slit tangent bundle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidLift, NoConvergence, SingularBasis
from .jets import lift_any, smath
from .lifts import LiftSpec, classical_lift, condition_residuals, lift_tensors
from .metrics import MetricSpec, TangentVector, _legendre, metric_value
from .spray import PointFrame


class Submanifold:
    """An immersed submanifold given by a generic parameterization rule.

    ``immersion(params)`` maps a list of k scalars to a list of n scalars and
    must be generic over the jet scalar type (first and second parameter
    derivatives are extracted by jets).
    """

    def __init__(self, param_dim, dim, immersion, name="submanifold", domain=None):
        self.param_dim = int(param_dim)
        self.dim = int(dim)
        self.immersion = immersion
        self.name = name
        self.domain = domain  # optional ((lo, hi), ...) box per parameter

    def __repr__(self):
        return f"Submanifold({self.name}, k={self.param_dim}, n={self.dim})"

    def value(self, param) -> np.ndarray:
        out = self.immersion([float(p) for p in np.atleast_1d(param)])
        return np.array([float(v) for v in out])

    def _derivative(self, param, k) -> np.ndarray:
        """(n,) + (param_dim,)*k array of k-th parameter derivatives."""
        ps = list(np.atleast_1d(param))
        return lift_any(self.immersion, ps, k).derivative(k)

    def jacobian(self, param) -> np.ndarray:
        """(n, k) matrix of tangent vectors d phi / d p_a."""
        out = self._derivative(param, 1)
        if np.linalg.matrix_rank(out, tol=1e-10) < self.param_dim:
            raise SingularBasis(f"immersion differential rank-deficient at {param}")
        return out

    def hessian(self, param) -> np.ndarray:
        """(n, k, k) second parameter derivatives of the immersion."""
        return self._derivative(param, 2)


def affine_subspace(point, directions, name="affine") -> Submanifold:
    point = np.asarray(point, float)
    dirs = np.atleast_2d(np.asarray(directions, float))  # (k, n)

    def immersion(ps):
        return [point[i] + smath.dot([dirs[a][i] for a in range(len(ps))], ps)
                for i in range(point.size)]

    return Submanifold(dirs.shape[0], point.size, immersion, name=name)


def circle(center, radius, name="circle") -> Submanifold:
    center = np.asarray(center, float)

    def immersion(ps):
        th = ps[0]
        return [center[0] + radius * smath.cos(th), center[1] + radius * smath.sin(th)]

    return Submanifold(1, 2, immersion, name=name)


def sphere2(center, radius, name="sphere") -> Submanifold:
    center = np.asarray(center, float)

    def immersion(ps):
        th, ph = ps
        return [center[0] + radius * smath.sin(th) * smath.cos(ph),
                center[1] + radius * smath.sin(th) * smath.sin(ph),
                center[2] + radius * smath.cos(th)]

    return Submanifold(2, 3, immersion, name=name)


def graph_curve(f, name="graph") -> Submanifold:
    """t -> (t, f(t)) with a generic scalar rule f."""

    def immersion(ps):
        return [ps[0], f(ps[0])]

    return Submanifold(1, 2, immersion, name=name)


@dataclass(frozen=True)
class NormalVector:
    param: np.ndarray
    x: np.ndarray
    eta: np.ndarray


def normal_cone_solve(P: Submanifold, param, ms: MetricSpec, guess,
                      tol: float = 1e-13, max_iter: int = 50) -> NormalVector:
    """Solve g_eta(eta, T_x P) = 0 for eta near a guess, normalized to F = 1.

    Newton iteration over tangential corrections eta = guess + dphi . c (a
    square k x k system with the tangential Gram matrix as Jacobian); each
    step reads the residual and the Gram matrix off one Legendre jet.
    """
    param = np.atleast_1d(np.asarray(param, float))
    x = P.value(param)
    ms.check_point(x)
    basis = P.jacobian(param)  # (n, k)
    eta = np.asarray(guess, float).copy()
    if np.linalg.norm(eta) < 1e-12:
        raise NoConvergence("zero guess for the normal solve")
    for _ in range(max_iter):
        xi, g = _legendre(ms, x, eta)
        resid = basis.T @ xi  # g_eta(eta, dphi_a)
        if np.max(np.abs(resid)) < tol:
            break
        gram = basis.T @ g @ basis
        try:
            c = np.linalg.solve(gram, -resid)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"singular tangential Gram matrix: {exc}") from exc
        eta = eta + basis @ c
        if np.linalg.norm(eta) < 1e-10:
            raise NoConvergence("normal solve collapsed to the null direction")
    else:
        raise NoConvergence(f"normal solve did not reach tolerance {tol} "
                            f"in {max_iter} iterations")
    eta = eta / metric_value(ms, TangentVector(x, eta))
    resid = basis.T @ _legendre(ms, x, eta)[0]
    if np.max(np.abs(resid)) > 1e-10:
        raise NoConvergence(f"normality residual {np.max(np.abs(resid)):.2e} after rescale")
    return NormalVector(param=param, x=x, eta=eta)


def normality_residual(P: Submanifold, param, ms: MetricSpec, eta) -> float:
    param = np.atleast_1d(np.asarray(param, float))
    x = P.value(param)
    basis = P.jacobian(param)
    return float(np.max(np.abs(basis.T @ _legendre(ms, x, np.asarray(eta, float))[0])))


# -- second fundamental form via connections -------------------------------------


def sff_connection(P: Submanifold, param, eta, u, v, ms: MetricSpec,
                   lift: LiftSpec | None = None, _frame: PointFrame | None = None) -> float:
    """h_eta(u, v) = (1/2) g_eta(eta, D^eta_U V + D^eta_V U).

    ``u``, ``v`` are parameter-space vectors; extensions are the coordinate
    fields of the immersion, whose derivative data is the immersion Hessian.
    The lift must satisfy the two metric compatibility conditions, checked
    at eta. ``_frame``, if given, is the order-4 frame at (x, eta), shared
    by the calls for several lifts.
    """
    param = np.atleast_1d(np.asarray(param, float))
    eta = np.asarray(eta, float)
    u = np.atleast_1d(np.asarray(u, float))
    v = np.atleast_1d(np.asarray(v, float))
    if lift is None:
        lift = classical_lift("berwald", ms)
    fr = _frame if _frame is not None else PointFrame(ms, TangentVector(P.value(param), eta),
                                                      order=4)
    res = condition_residuals(lift, fr, ("M1", "M2"))
    if max(res.values()) > 1e-6:
        raise InvalidLift(
            f"lift {lift.name} violates the metric compatibility prerequisites "
            f"at eta: M1={res['M1']:.2e}, M2={res['M2']:.2e}")
    basis = P.jacobian(param)
    hess = P.hessian(param)
    U = basis @ u
    V = basis @ v
    _, cp = lift_tensors(lift, fr)
    A = fr.B + cp
    sym = 2.0 * np.einsum("iab,a,b->i", hess, u, v) + np.einsum("ijk,j,k->i", A, U, V) \
        + np.einsum("ijk,j,k->i", A, V, U)
    return float(0.5 * eta @ fr.g @ sym)


# -- symplectic structure ---------------------------------------------------------


def omega_F(ms: MetricSpec, w: TangentVector, X1, X2, _frame: PointFrame | None = None) -> float:
    """The symplectic pairing of two raw tangent vectors of TM\\0 at w (``_frame``: order >= 3)."""
    fr = _frame if _frame is not None else PointFrame(ms, w, order=3)
    X1 = np.asarray(X1, float)
    X2 = np.asarray(X2, float)
    n = fr.n
    a1, b1 = X1[:n], X1[n:] + fr.N @ X1[:n]
    a2, b2 = X2[:n], X2[n:] + fr.N @ X2[:n]
    return float(a1 @ fr.g @ b2 - b1 @ fr.g @ a2)


def legendre_transform(ms: MetricSpec, w: TangentVector) -> np.ndarray:
    """The covector g_w(w, .) (half the fiber gradient of F^2)."""
    ms.check_tangent(w)
    return _legendre(ms, w.x, w.y)[0]


def legendre_inverse(ms: MetricSpec, x, xi, guess=None, tol: float = 1e-12,
                     max_iter: int = 50) -> np.ndarray:
    """Solve legendre_transform(x, y) = xi for y by damped Newton."""
    xi = np.asarray(xi, float)
    y = np.asarray(guess, float).copy() if guess is not None else xi.copy()
    if np.linalg.norm(y) < 1e-12:
        raise NoConvergence("zero guess for the Legendre inverse")
    cov, g = _legendre(ms, x, y)
    res = cov - xi
    for _ in range(max_iter):
        if np.max(np.abs(res)) < tol:
            return y
        step = np.linalg.solve(g, -res)
        lam = 1.0
        for _ in range(30):
            ytry = y + lam * step
            if np.linalg.norm(ytry) > 1e-12:
                cov, gtry = _legendre(ms, x, ytry)
                rtry = cov - xi
                if np.linalg.norm(rtry) < np.linalg.norm(res):
                    y, res, g = ytry, rtry, gtry
                    break
            lam *= 0.5
        else:
            raise NoConvergence("Legendre inverse line search stalled")
    raise NoConvergence(f"Legendre inverse did not converge in {max_iter} iterations")


def _null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal null-space columns of ``a`` by SVD, with scipy's rank rule."""
    _, s, vh = np.linalg.svd(a)
    return vh[np.sum(s > s.max(initial=0.0) * np.finfo(float).eps * max(a.shape)):].T


def normal_bundle_tangent_basis(P: Submanifold, nv: NormalVector, ms: MetricSpec) -> np.ndarray:
    """n tangent vectors of the normal bundle at eta, raw (dx, dy) components.

    k vectors follow the solved normal along each parameter direction
    (implicit differentiation by re-solving), plus (n - k) fiber directions
    of the normal cone, the radial one first. Row a < k has base part
    dphi_a, the a-th column of the immersion's Jacobian.
    """
    n, k = P.dim, P.param_dim
    basis = P.jacobian(nv.param)
    rows = np.empty((n, 2 * n))
    h = 1e-4  # parameter step of the central difference
    for a in range(k):
        dp = np.zeros(k)
        dp[a] = h
        eta_p = normal_cone_solve(P, nv.param + dp, ms, guess=nv.eta).eta
        eta_m = normal_cone_solve(P, nv.param - dp, ms, guess=nv.eta).eta
        rows[a, :n] = basis[:, a]
        rows[a, n:] = (eta_p - eta_m) / (2 * h)
    # fiber directions: g_eta(v, T_x P) = 0
    g = _legendre(ms, nv.x, nv.eta)[1]
    constraints = basis.T @ g  # (k, n)
    kern = _null_space(constraints)
    if kern.shape[1] != n - k:
        raise SingularBasis(
            f"normal-cone fiber has dimension {kern.shape[1]}, expected {n - k}")
    fiber = [np.asarray(nv.eta, float)]
    for col in kern.T:
        v = col.copy()
        for prev in fiber:
            v = v - (v @ prev) / (prev @ prev) * prev
        if np.linalg.norm(v) > 1e-8:
            fiber.append(v / np.linalg.norm(v))
    if len(fiber) != n - k:
        raise SingularBasis("could not complete the fiber basis around the radial direction")
    for m, v in enumerate(fiber):
        rows[k + m, :n] = 0.0
        rows[k + m, n:] = v
    if np.linalg.matrix_rank(rows, tol=1e-8) < n:
        raise SingularBasis("normal-bundle tangent basis is rank deficient")
    return rows


def sff_symplectic(P: Submanifold, nv: NormalVector, u, v, ms: MetricSpec,
                   _basis: np.ndarray | None = None, _frame: PointFrame | None = None) -> float:
    """b_eta(u, v) read off the Lagrangean tangent space of the normal bundle.

    The along-submanifold rows of the basis have base parts dphi_a, so the
    combination with base projection dphi(u) has coefficients u; its
    vertical part v_full gives, by the defining relation of the Lagrangean
    graph, b_eta(u, v) = -g_eta(v_full, dphi(v)). The radial (cone)
    direction has zero base projection and stays out. ``_basis``, if given,
    is ``normal_bundle_tangent_basis(P, nv, ms)``, and ``_frame`` a frame of
    order 3 or more at (x, eta), both shared with other reads.
    """
    u = np.atleast_1d(np.asarray(u, float))
    v = np.atleast_1d(np.asarray(v, float))
    n, k = P.dim, P.param_dim
    rows = normal_bundle_tangent_basis(P, nv, ms) if _basis is None else _basis
    # vertical part in the split representation: fiber component of the
    # vertical projection, not the raw dy block
    fr = _frame if _frame is not None else PointFrame(ms, TangentVector(nv.x, nv.eta), 3)
    raw = rows[:k].T @ u  # (2n,) combined raw tangent vector
    v_full = raw[n:] + fr.N @ raw[:n]
    return float(-v_full @ fr.g @ (rows[:k, :n].T @ v))
