"""Submanifolds, normal cones, and the second fundamental form two ways:
through the affine connections and through the symplectic structure of the
slit tangent bundle.

Every entry point takes leading batch axes: parameters and parameter-space
vectors (..., k), points and normals (..., n), raw tangent vectors of TM\\0
(..., 2n). A batch is one order-2 lift of the immersion (its point,
Jacobian and Hessian), one stacked rank test, one Newton iteration over all
of its normal-cone solves (each point stopping at its own step), and one
frame and one lift evaluation per read; each point is bitwise equal to its
own single call, which is the batch of no axes. One bad point refuses the
batch, and the message names its batch index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidLift, NoConvergence, SingularBasis
from .jets import _any, lift_any, smath
from .lifts import LiftSpec, _admissible_tensors, classical_lift, condition_residuals
from .metrics import MetricSpec, TangentVector, _batch_note, _legendre, _metric_value, _y_jet
from .spray import PointFrame, _matvec, _pair, adapted_split


class _Immersion(NamedTuple):
    """The immersion's data at parameters (..., k): point (..., n), Jacobian
    (..., n, k) and Hessian (..., n, k, k), C-contiguous per point."""

    param: np.ndarray
    x: np.ndarray
    basis: np.ndarray
    hess: np.ndarray


def _first(flags):
    """The flat index of the first set flag of a batch and its batch note, or None."""
    if not _any(flags):
        return None
    k = int(np.argmax(flags))
    return k, _batch_note(np.shape(flags), k)


class Submanifold:
    """An immersed submanifold given by a generic parameterization rule.

    ``immersion(params)`` maps a list of k scalars to a list of n scalars and
    must be generic over the jet scalar type (first and second parameter
    derivatives are extracted by jets). A scalar may be a float array over a
    batch, as in the metric rules.
    """

    def __init__(self, param_dim, dim, immersion, name="submanifold"):
        self.param_dim = int(param_dim)
        self.dim = int(dim)
        self.immersion = immersion
        self.name = name

    def __repr__(self):
        return f"Submanifold({self.name}, k={self.param_dim}, n={self.dim})"

    def _params(self, param) -> np.ndarray:
        p = np.atleast_1d(np.asarray(param, float))
        if p.shape[-1] != self.param_dim:
            raise ValueError(f"parameters of shape {p.shape} must end in k = {self.param_dim}")
        return p

    def value(self, param) -> np.ndarray:
        """The point (..., n) at parameters (..., k): the rule once, on floats."""
        out = self.immersion(list(np.moveaxis(self._params(param), -1, 0)))
        return np.stack(np.broadcast_arrays(*(np.asarray(v, float) for v in out)), axis=-1)

    def _immersion(self, param) -> _Immersion:
        """Point, Jacobian and Hessian at parameters (..., k), from one order-2
        lift; one stacked rank test refuses a rank-deficient Jacobian."""
        p = self._params(param)
        jet = lift_any(self.immersion, p, 2)
        x, basis, hess = (np.ascontiguousarray(np.moveaxis(d, 0, -1 - order))
                          for order, d in enumerate((jet.value, jet.derivative(1),
                                                     jet.derivative(2))))
        bad = _first(np.linalg.matrix_rank(basis, tol=1e-10) < self.param_dim)
        if bad is not None:
            raise SingularBasis("immersion differential rank-deficient at "
                                f"{p.reshape(-1, self.param_dim)[bad[0]]}" + bad[1])
        return _Immersion(p, x, basis, hess)

    def jacobian(self, param) -> np.ndarray:
        """(..., n, k) tangent vectors d phi / d p_a."""
        return self._immersion(param).basis

    def hessian(self, param) -> np.ndarray:
        """(..., n, k, k) second parameter derivatives of the immersion."""
        return self._immersion(param).hess


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


@dataclass(frozen=True)
class NormalVector:
    """Solved normals: parameters (..., k), points and unit normals (..., n)."""

    param: np.ndarray
    x: np.ndarray
    eta: np.ndarray

    @staticmethod
    def stack(nvs) -> "NormalVector":
        """One batch (len(nvs), ...) of a sequence of single normals."""
        return NormalVector(*(np.array(parts) for parts in
                              zip(*((nv.param, nv.x, nv.eta) for nv in nvs))))


def normal_cone_solve(P: Submanifold, param, ms: MetricSpec, guess) -> NormalVector:
    """Solve g_eta(eta, T_x P) = 0 for eta near a guess, normalized to F = 1.

    Newton iteration over tangential corrections eta = guess + dphi . c (a
    square k x k system with the tangential Gram matrix as Jacobian); each
    step reads the residual and the Gram matrix off one Legendre jet, and
    the iteration stops when the residual is below 1e-13, within 50 steps.
    ``param`` (..., k) and ``guess`` (..., n) may carry batch axes: every
    step is one jet over the points still iterating, and each point stops
    at the step where its own solve stops.
    """
    tol, max_iter = 1e-13, 50
    imm = P._immersion(param)
    x = imm.x
    ms.check_point(x)
    eta = np.array(guess, float)
    if eta.shape != x.shape:
        raise ValueError(f"guess of shape {eta.shape} must be a vector of length "
                         f"n = {x.shape[-1]} per point, as the point of shape {x.shape} is")
    batch, (n, k) = x.shape[:-1], imm.basis.shape[-2:]
    todo = np.arange(x[..., 0].size)   # the flat indices of the points still iterating

    def refuse(flags, message):
        """NoConvergence at the first flagged point of ``todo``."""
        bad = _first(flags)
        if bad is not None:
            raise NoConvergence(message + _batch_note(batch, int(todo[bad[0]])))

    refuse(np.ravel(np.linalg.norm(eta, axis=-1) < 1e-12), "zero guess for the normal solve")
    xs, basis, etas = x.reshape(-1, n), imm.basis.reshape(-1, n, k), eta.reshape(-1, n)
    for _ in range(max_iter):
        xi, g = _legendre(ms, xs[todo], etas[todo])
        bt = np.swapaxes(basis[todo], -1, -2)
        resid = _matvec(bt, xi)  # g_eta(eta, dphi_a)
        go = ~(np.abs(resid).max(axis=-1) < tol)
        todo, bt, g, resid = todo[go], bt[go], g[go], resid[go]
        if not todo.size:
            break
        gram = bt @ g @ basis[todo]
        try:
            c = np.linalg.solve(gram, -resid[..., None])[..., 0]
        except np.linalg.LinAlgError:
            for i, (m, r) in enumerate(zip(gram, resid)):
                try:
                    np.linalg.solve(m, -r)
                except np.linalg.LinAlgError as exc:
                    raise NoConvergence(f"singular tangential Gram matrix: {exc}"
                                        + _batch_note(batch, int(todo[i]))) from exc
            raise
        etas[todo] = etas[todo] + _matvec(basis[todo], c)
        refuse(np.linalg.norm(etas[todo], axis=-1) < 1e-10,
               "normal solve collapsed to the null direction")
    else:
        refuse(todo >= 0, f"normal solve did not reach tolerance {tol} in {max_iter} iterations")
    # F at the converged normals, checked as metric_value checks them; a
    # solve's points are its own, so they make no memo entry
    eta = eta / np.expand_dims(_metric_value(_y_jet(ms, TangentVector(x, eta), store=False)), -1)
    worst = np.abs(_matvec(np.swapaxes(imm.basis, -1, -2), _legendre(ms, x, eta)[0])).max(axis=-1)
    bad = _first(worst > 1e-10)
    if bad is not None:
        raise NoConvergence(f"normality residual {np.ravel(worst)[bad[0]]:.2e} after rescale"
                            + bad[1])
    return NormalVector(param=imm.param, x=x, eta=eta)


# -- second fundamental form via connections -------------------------------------


def sff_connection(P: Submanifold, param, eta, u, v, ms: MetricSpec,
                   lift: LiftSpec | None = None, _immersion: _Immersion | None = None):
    """h_eta(u, v) = (1/2) g_eta(eta, D^eta_U V + D^eta_V U).

    ``u``, ``v`` are parameter-space vectors; extensions are the coordinate
    fields of the immersion, whose derivative data is the immersion Hessian.
    The lift must be admissible and satisfy the two metric compatibility
    conditions, checked at eta. With batch axes on ``param`` (..., k),
    ``eta`` (..., n) and ``u``, ``v``, h has shape (...); a float for a
    single point.
    ``_immersion``, if given, is the immersion's data at param
    (``P._immersion``), shared by the calls for several lifts.
    """
    eta = np.asarray(eta, float)
    u = np.atleast_1d(np.asarray(u, float))
    v = np.atleast_1d(np.asarray(v, float))
    if lift is None:
        lift = classical_lift("berwald", ms)
    imm = _immersion if _immersion is not None else P._immersion(param)
    fr = PointFrame(ms, TangentVector(imm.x, eta), order=4)
    _, cp = _admissible_tensors(lift, fr)
    if max(condition_residuals(lift, fr, ("M1", "M2")).values()) > 1e-6:
        # the first point beyond the bound, for the message
        batch = fr.y.shape[:-1]
        for k, at in enumerate(np.ndindex(batch)):
            res = condition_residuals(lift, PointFrame(ms, TangentVector(fr.x[at], fr.y[at])),
                                      ("M1", "M2"))
            if max(res.values()) > 1e-6:
                raise InvalidLift(
                    f"lift {lift.name} violates the metric compatibility prerequisites "
                    f"at eta: M1={res['M1']:.2e}, M2={res['M2']:.2e}" + _batch_note(batch, k))
    U = _matvec(imm.basis, u)
    V = _matvec(imm.basis, v)
    A = fr.B + cp
    sym = 2.0 * np.einsum("...iab,...a,...b->...i", imm.hess, u, v) \
        + np.einsum("...ijk,...j,...k->...i", A, U, V) \
        + np.einsum("...ijk,...j,...k->...i", A, V, U)
    h = _pair(0.5 * eta, fr.g, sym)
    return float(h) if h.ndim == 0 else h


# -- symplectic structure ---------------------------------------------------------


def omega_F(ms: MetricSpec, w: TangentVector, X1, X2):
    """The symplectic pairing of two raw tangent vectors (..., 2n) of TM\\0 at w,
    read off the order-4 frame at w; a float for a single point."""
    fr = PointFrame(ms, w, order=4)
    a1, b1 = adapted_split(fr, X1)
    a2, b2 = adapted_split(fr, X2)
    om = _pair(a1, fr.g, b2) - _pair(b1, fr.g, a2)
    return float(om) if om.ndim == 0 else om


def legendre_transform(ms: MetricSpec, w: TangentVector) -> np.ndarray:
    """The covector g_w(w, .) (half the fiber gradient of F^2), (..., n).

    Read off w's checked y-jet of F^2 (``metrics._y_jet``), which
    ``metric_value``, ``fundamental_tensor`` and ``cartan_tensor`` at the
    same points share; g is checked positive definite on the lift.
    """
    return 0.5 * _y_jet(ms, w).derivative(1)


def _null_space(a: np.ndarray, dim: int) -> np.ndarray:
    """The ``dim`` orthonormal null-space columns of each matrix of ``a`` (..., m, p)
    by SVD, with scipy's rank rule; a matrix of another nullity is refused."""
    _, s, vh = np.linalg.svd(a)
    rank = np.sum(s > s.max(axis=-1, initial=0.0)[..., None] * np.finfo(float).eps
                  * max(a.shape[-2:]), axis=-1)
    bad = _first(a.shape[-1] - rank != dim)
    if bad is not None:
        raise SingularBasis(f"normal-cone fiber has dimension "
                            f"{a.shape[-1] - np.ravel(rank)[bad[0]]}, expected {dim}" + bad[1])
    return np.swapaxes(vh[..., a.shape[-1] - dim:, :], -1, -2)


def _dot(a, b):
    """a @ b over leading batch axes, (..., n) and (..., n)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _fiber(eta: np.ndarray, kern: np.ndarray):
    """Fiber directions (N, d, n) at normals (N, n) from null-space columns
    (N, n, d), and their count at each point: eta, then each column
    orthogonalized against the directions kept before it, kept (normalized)
    where more than 1e-8 remains."""
    N, n, d = kern.shape
    fiber = np.zeros((N, d + 1, n))
    fiber[:, 0] = eta
    count = np.ones(N, int)
    for col in np.moveaxis(kern, -1, 0):
        vec = col.copy()
        for m in range(int(count.max())):
            on = (m < count)[:, None]
            prev = np.where(on, fiber[:, m], eta)   # at an unfilled slot, discarded below
            vec = np.where(on, vec - (_dot(vec, prev) / _dot(prev, prev))[:, None] * prev, vec)
        norm = np.linalg.norm(vec, axis=-1)
        keep = norm > 1e-8
        fiber[keep, count[keep]] = vec[keep] / norm[keep, None]
        count += keep
    return fiber[:, :d], count


def normal_bundle_tangent_basis(P: Submanifold, nv: NormalVector, ms: MetricSpec) -> np.ndarray:
    """n tangent vectors of the normal bundle at eta, raw (dx, dy) components, (..., n, 2n).

    k vectors follow the solved normal along each parameter direction, plus
    (n - k) fiber directions of the normal cone, the radial one first. Row
    b < k is (B_b, d eta / dp_b), B the immersion's Jacobian, with the
    implicit-function theorem on B^T g eta = 0 and F(x, eta) = 1 along the
    solve's tangential corrections: d eta / dp_b = B c_b + mu_b eta, (B^T g
    B) c_b = -(d2phi/dp dp_b . g eta + B^T (dg/dx . eta) B_b) and mu_b =
    -(1/2) (dg/dx . eta . eta) . B_b, from one order-4 frame at (x, eta).
    """
    n, k = P.dim, P.param_dim
    imm = P._immersion(nv.param)
    basis = imm.basis
    batch = basis.shape[:-2]
    fr = PointFrame(ms, TangentVector(nv.x, nv.eta), order=4)
    bt = np.swapaxes(basis, -1, -2)
    # (dg/dx . eta)[i, l] = d g_ij / dx^l eta^j
    dg_eta = np.einsum("...lij,...j->...il", fr.dg_dx, nv.eta)
    rhs = -(np.einsum("...iab,...i->...ab", imm.hess, fr.gw) + bt @ dg_eta @ basis)
    c = np.linalg.solve(bt @ fr.g @ basis, rhs)
    mu = -0.5 * _matvec(bt, _matvec(np.swapaxes(dg_eta, -1, -2), nv.eta))
    rows = np.zeros(batch + (n, 2 * n))
    rows[..., :k, :n] = bt
    rows[..., :k, n:] = np.swapaxes(basis @ c + nv.eta[..., :, None] * mu[..., None, :], -1, -2)
    # fiber directions: g_eta(v, T_x P) = 0
    kern = _null_space(bt @ fr.g, n - k)
    fiber, count = _fiber(nv.eta.reshape(-1, n), kern.reshape(-1, n, n - k))
    bad = _first(count.reshape(batch) != n - k)
    if bad is not None:
        raise SingularBasis("could not complete the fiber basis around the radial direction"
                            + bad[1])
    rows[..., k:, n:] = fiber.reshape(batch + (n - k, n))
    bad = _first(np.linalg.matrix_rank(rows, tol=1e-8) < n)
    if bad is not None:
        raise SingularBasis("normal-bundle tangent basis is rank deficient" + bad[1])
    return rows


def sff_symplectic(P: Submanifold, nv: NormalVector, u, v, ms: MetricSpec,
                   _basis: np.ndarray | None = None):
    """b_eta(u, v) read off the Lagrangean tangent space of the normal bundle.

    The along-submanifold rows of the basis have base parts dphi_a, so the
    combination with base projection dphi(u) has coefficients u; its
    vertical part v_full gives, by the defining relation of the Lagrangean
    graph, b_eta(u, v) = -g_eta(v_full, dphi(v)). The radial (cone)
    direction has zero base projection and stays out. Batched as
    ``sff_connection``. ``_basis``, if given, is
    ``normal_bundle_tangent_basis(P, nv, ms)``, shared with other reads.
    """
    u = np.atleast_1d(np.asarray(u, float))
    v = np.atleast_1d(np.asarray(v, float))
    n, k = P.dim, P.param_dim
    rows = normal_bundle_tangent_basis(P, nv, ms) if _basis is None else _basis
    # vertical part in the split representation: fiber component of the
    # vertical projection, not the raw dy block; the order-4 frame at the
    # normal is the one the basis and sff_connection read
    fr = PointFrame(ms, TangentVector(nv.x, nv.eta), order=4)
    along = np.swapaxes(rows[..., :k, :], -1, -2)   # (..., 2n, k)
    _, v_full = adapted_split(fr, _matvec(along, u))
    b = _pair(-v_full, fr.g, _matvec(along[..., :n, :], v))
    return float(b) if b.ndim == 0 else b
