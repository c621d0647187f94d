"""Geodesic sprays, the canonical nonlinear connection and curvature.

Everything is extracted from a single joint (x, y)-jet of F^2. The spray
coefficients solve 4 g G = (d2F^2/dy dx) y - dF^2/dx inside the truncated
polynomial ring, where g, the right-hand side and G are each one
tensor-valued jet. The solve is a Neumann series around the numeric
inverse of g at the point: writing g = g(w) + d, with d nilpotent in the
truncated ring, G = sum_j (-g(w)^-1 d)^j g(w)^-1 rhs / 4 ends after
``order`` terms. So the partial derivatives of G (N = dG/dy, Berwald
B = d2G/dy dy, and the mixed x-derivatives entering the curvature) are
exact.

Every tensor read off these jets is one row of ``_TENSORS``: a source jet,
F^2 (``f``) or G (``Gpoly``), in the 2n joint variables with x before y,
the x or y block of each derivative index, and a factor (1 for G's rows,
1/2 for gw and dg/dx, 1/4 for the Cartan tensor and its derivatives). A
row is read as numbers, factor * ``Jet.derivative(k)`` on its blocks, or as
an order-1 field jet, one ``grad()`` per index, whose value is the numbers.

A ``PointFrame`` holds these jets at one tangent point or at a batch of
them, (..., n), built with one lift of F^2 and one spray solve for the
batch. The value part of G, the solve's numbers at the points, takes the
same arithmetic at every jet order (``_spray_parts``): g^-1 of the lift's g,
the right-hand side summed in index order, and a one-column product. ODE
right-hand sides that need only G call ``spray_values``, which equals the
G of every frame at its points bit for bit: it reads G from the point's
frame where one was built, and elsewhere solves from an order-2 jet of F^2
without building a frame. The Chebyshev-Picard sweeps of
``integrate_geodesic`` solve the same way at their own iterates
(``_iterate_spray_values``), which they have already tested finite and
inside the chart.

A frame checks its points only when it builds: the memo slot
(``metrics._slot``, which the metric readers' checked y-jets share) takes
the last build once it has passed every check, so a frame that adopts it
at exactly the same points and order checks nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateFlag, NotHomogeneous
from .jets import Jet, _any, contract, lift_any, solve_linear, space_for
from .metrics import (MetricSpec, TangentVector, _batch_note, _freeze, _require_fiber_direction,
                      _slot, check_slit_domain, require_positive_definite)


@dataclass(frozen=True)
class SprayData:
    at: TangentVector
    G: np.ndarray   # (n,)
    N: np.ndarray   # (n,n): N^i_j = dG^i/dy^j
    B: np.ndarray   # (n,n,n): B^i_jk = d2 G^i / dy^j dy^k


@dataclass(frozen=True)
class CurvatureEndomorphism:
    at: TangentVector
    R: np.ndarray   # (n,n): R^i_k


class SpraySpec:
    """A bare spray given by a generic coefficient rule (xs, ys) -> [G^1..G^n].

    Accepted wherever no metric structure is required. ``domain_margin``
    maps points (..., n) to margins (...), positive inside the chart's
    validity region, as on ``MetricSpec``. The rule must be 2-homogeneous
    in y: a frame of order 3 or more checks Euler's relation N y = 2G at
    each of its points and refuses the batch with ``NotHomogeneous``,
    naming the first bad point. ``spray_values`` and the geodesic driver,
    which build no jet, do not check it.
    """

    def __init__(self, dim, g_rule, name="spray", domain_margin=None):
        self.dim = int(dim)
        self.g_rule = g_rule
        self.name = name
        self.kind = "spray"
        self.domain_margin = domain_margin

    def check_tangent(self, w: TangentVector) -> None:
        check_slit_domain(w, self.dim, self.domain_margin, self.name)

    def __repr__(self):
        return f"SpraySpec({self.name}, dim={self.dim})"


# Points per lift in a large batch: bounds the jet temporaries and the
# number of distinct batch sizes the jet spaces cache a scatter index for.
_BLOCK = 32


# name: (source jet, the block of each derivative index, factor); the index
# axes follow the source's component axes in the order written
_TENSORS = {
    "G": ("Gpoly", "", 1.0),        # G^i
    "N": ("Gpoly", "y", 1.0),       # N^i_j = dG^i/dy^j
    "Gx": ("Gpoly", "x", 1.0),      # dG^i/dx^j
    "B": ("Gpoly", "yy", 1.0),      # Berwald B^i_jk = d2G^i/dy^j dy^k
    "Gxy": ("Gpoly", "xy", 1.0),    # d2G^i/dx^j dy^k
    "gw": ("f", "y", 0.5),          # half dF^2/dy^i, g_w(w, e_i) by Euler
    "C_low": ("f", "yyy", 0.25),    # Cartan C_ijk, all indices down
    "dg_dx": ("f", "xyy", 0.5),     # (k, i, j): d g_ij / dx^k
    "dC_dx": ("f", "xyyy", 0.25),   # (l, i, j, k): d C_ijk / dx^l
    "dC_dy": ("f", "yyyy", 0.25),   # (l, i, j, k): d C_ijk / dy^l
}


@lru_cache(maxsize=None)
def _index(blocks, n):
    """The index of a row's blocks in the joint variables: x is :n, y is n:."""
    return (...,) + tuple(slice(None, n) if b == "x" else slice(n, None) for b in blocks)


# The per-point entry points (spray_coefficients, curvature_endomorphism,
# flag_curvature) build their frames at one point one after another, so the
# memo slot serves them all; the local doublings of the linear flows along a
# geodesic are kept on the geodesic (variational.py), not in the slot.


def _frame_jets(src, w: TangentVector, order):
    """((f, g, ginv, gpoly, Gpoly), cache) at w's points (..., n), shared
    read-only by every frame of the same source object at the same points and
    order; the metric parts are None for a bare spray. Every jet has the batch
    axes first. ``cache`` is the derived-tensor dict of the frames that adopt
    the slot. A build checks w first; a hit checks nothing, as the slot takes
    a build only once it has passed every check."""
    x, y = w.x, w.y
    key = _slot.key_of(src, order, x, y)
    hit = _slot.find(key)
    if hit is not None:
        return hit
    src.check_tangent(w)
    batch = x.shape[:-1]
    if int(np.prod(batch)) <= _BLOCK:
        jets = _build_frame_jets(src, x, y, order)
    else:
        n = x.shape[-1]
        x, y = x.reshape(-1, n), y.reshape(-1, n)
        blocks = [_build_frame_jets(src, x[k:k + _BLOCK], y[k:k + _BLOCK], order,
                                    (batch, range(k, k + _BLOCK)))
                  for k in range(0, len(x), _BLOCK)]
        jets = [_join(parts, batch) for parts in zip(*blocks)]
    for part in jets:
        if part is not None:
            _freeze(part)
    return _slot.put(src, key, (jets, {}))


def _build_frame_jets(src, x, y, order, at=None):
    n = x.shape[-1]
    center = np.concatenate([x, y], axis=-1)
    p = order - 2
    if not isinstance(src, MetricSpec):
        G = lift_any(lambda v: src.g_rule(v[:n], v[n:]), center, p)
        Gpoly = Jet(G.space, np.moveaxis(G.c, 0, -2))
        if p >= 1:
            _require_homogeneous(src, Gpoly, x, y)
        return None, None, None, None, Gpoly
    f = lift_any(lambda v: src.f2(v[:n], v[n:]), center, order)
    grad = f.grad()
    hess = grad.grad()
    # the values of grad and hess are f.derivative(1) and (2) bit for bit, so
    # g, g^-1 and the right-hand side's value part are spray_values' own, and
    # solve_linear's one-column product gives G the value part it returns
    g, ginv, rhs0 = _spray_parts(grad.value, hess.value, x, y, at)
    gpoly = 0.5 * hess[..., n:, n:]
    # 4 g G = (d2F^2/dy dx) y - dF^2/dx, all jets at order p
    sp = space_for(2 * n, p)
    yj = Jet(sp, np.moveaxis(sp.coordinates(center).c[n:], 0, -2))
    rhs = contract("...lk,...k->...l", hess[..., n:, :n], yj) - grad[..., :n].truncate(p)
    rhs.c[..., 0] = rhs0
    return f, g, ginv, gpoly, 0.25 * solve_linear(gpoly, rhs, ginv)


def _spray_parts(d1, d2, x, y, at=None):
    """(g, g^-1, rhs) at points (..., n) from the first and second derivatives
    of F^2 in the joint variables, x before y, read off a lift of any order.

    g is checked positive definite (``at`` places the points in a larger
    batch, as in ``require_positive_definite``), and rhs = (d2F^2/dy dx) y -
    dF^2/dx sums over k in index order, so that a frame and ``spray_values``
    at the same points get the same numbers at every jet order. G = g^-1 rhs / 4 is then
    a one-column product, which ``solve_linear`` makes a frame's value part.
    """
    n = x.shape[-1]
    g = 0.5 * d2[..., n:, n:]
    require_positive_definite(g, x, y, at)
    terms = d2[..., n:, :n] * y[..., None, :]
    rhs = terms[..., 0]
    for k in range(1, n):
        rhs = rhs + terms[..., k]
    return g, np.linalg.inv(g), rhs - d1[..., :n]


# Euler's relation N y = 2G holds to this fraction of |N| |y| + 2 |G|
_EULER_TOL = 1e-9


def _require_homogeneous(src, Gpoly, x, y):
    """Refuse a bare spray whose G jet (..., n) at points (x, y) breaks
    Euler's relation N y = 2G, the mark of 2-homogeneity in y; the message
    names the first bad point of the batch."""
    n = src.dim
    G, N = Gpoly.value, Gpoly.derivative(1)[..., n:]
    resid = np.abs(_matvec(N, y) - 2.0 * G).max(axis=-1)
    scale = (np.abs(N) @ np.abs(y)[..., None])[..., 0].max(axis=-1) + 2.0 * np.abs(G).max(axis=-1)
    bad = resid > _EULER_TOL * scale
    if _any(bad):
        k = int(np.argmax(bad))
        raise NotHomogeneous(
            f"{src.name}: G is not 2-homogeneous in y, |N y - 2G| = {np.ravel(resid)[k]:.2e} "
            f"at x={x.reshape(-1, n)[k]}, y={y.reshape(-1, n)[k]}")


def _join(parts, batch):
    """Concatenate per-block values along the flat batch axis, then reshape it to ``batch``."""
    if parts[0] is None:
        return None
    if isinstance(parts[0], Jet):
        c = np.concatenate([j.c for j in parts])
        return Jet(parts[0].space, c.reshape(batch + c.shape[1:]))
    a = np.concatenate(parts)
    return a.reshape(batch + a.shape[1:])


class PointFrame:
    """All jets of a metric/spray at a tangent point or a batch of them, order-managed.

    ``order`` is the F^2 jet order q; spray polynomials live at order q-2.
    A row of ``_TENSORS`` is an attribute (``fr.N``): q=4 serves every row,
    and q=5 also every row as an order-1 field jet (``fr.field("N")``), for
    the honest lift-curvature evaluation. ``R``, ``Cdot_low`` and ``Cp_low``
    are formulas over the rows.

    ``w.x`` and ``w.y`` may carry leading batch axes, (..., n). A batch is
    one lift of F^2 at all centers, one positive-definiteness guard, one
    batched g^-1 and one spray solve, in blocks of ``_BLOCK`` points when
    it is larger; every tensor then carries the batch axes first, and each
    point is bitwise equal to its own single-point frame. One bad point
    (null, outside the domain, or with g not positive definite) refuses
    the batch, naming the first.

    Frames of the same source object at the same points and order share
    one lift and one solve, and every tensor derived from them: the jets of
    the last build, over its whole batch, are kept in the memo slot keyed by
    the source object, so a source's rule must not change once it has been
    used, and every frame adopts the slot's derived-tensor cache (the rows,
    ``R``, the field jets and the classical lifts' halves and their sup
    norms) until a build at other points replaces it. Every jet and tensor a
    frame hands out is read-only, so an in-place write raises instead of
    corrupting a later frame. The tangent checks run on a build: the slot
    holds a build at exactly these points and order only after it checked
    them.
    """

    def __init__(self, src, w: TangentVector, order: int = 4):
        self.src = src
        self.metric = src if isinstance(src, MetricSpec) else None
        self.w = w
        self.n = src.dim
        self.order = order
        self.x = w.x
        self.y = w.y
        jets, self._cache = _frame_jets(src, w, order)
        self.f, self.g, self.ginv, self.gpoly, self.Gpoly = jets

    def _get(self, key, builder):
        """The derived value ``key``, built once for every frame that shares
        this frame's cache; an array or jet is handed out read-only."""
        if key not in self._cache:
            self._cache[key] = _freeze(builder())
        return self._cache[key]

    # -- the tensor table -------------------------------------------------------

    def _row(self, source, blocks, factor):
        """The numbers of a ``_TENSORS`` row at the frame's point(s)."""
        k = len(blocks)
        # one gather per (source, k) serves every row that shares it
        d = self._get(("derivative", source, k), lambda: self._source(source).derivative(k))
        block = d[_index(blocks, self.n)]
        return block if factor == 1.0 else factor * block   # G's rows are views of the gather

    def field(self, name):
        """Order-1 jet of a ``_TENSORS`` row as a field in (x, y), built once: its
        blocks read with one ``grad()`` per index, so its value is the row's
        numbers. A row of k indices needs a source of order k + 1."""
        source, blocks, factor = _TENSORS[name]

        def build():
            rest = blocks
            if source == "f" and blocks[:2] == "yy":
                # the fiber Hessian of F^2 is 2 gpoly exactly: the two grads
                # _build_frame_jets took, with the same factors in the same order
                self._need_metric()
                jet, rest = (2.0 * self.gpoly).truncate(len(blocks) - 1), blocks[2:]
            else:
                jet = self._source(source).truncate(len(blocks) + 1)
            for block in rest:
                jet = jet.grad()[_index(block, self.n)]
            return factor * jet

        return self._get(("field", name), build)

    def _source(self, name):
        if name == "f":
            self._need_metric()
        return getattr(self, name)

    @property
    def R(self):
        """Curvature endomorphism matrix R^i_k of the spray."""

        def build():
            y = self.y
            return (2.0 * self.Gx
                    - np.einsum("...j,...ijk->...ik", y, self.Gxy)
                    + 2.0 * np.einsum("...j,...ijk->...ik", self.G, self.B)
                    - self.N @ self.N)

        return self._get("R", build)

    # -- metric tensors -------------------------------------------------------

    def _need_metric(self):
        if self.metric is None:
            raise TypeError("operation requires a metric, got a bare spray")

    @property
    def Cdot_low(self):
        """Derivative of the Cartan tensor along the geodesic flow (indices down).

        d/dt at t=0 of C_{gdot(t)}(U,V,Z) with parallel U,V,Z, expanded in
        coordinates: the chain rule along the flow (x-dot = y,
        y-dot = -2G) plus parallel-transport corrections through the
        Berwald coefficients (B y = N by homogeneity).
        """

        def build():
            C = self.C_low
            return (np.einsum("...l,...lijk->...ijk", self.y, self.dC_dx)
                    - 2.0 * np.einsum("...l,...lijk->...ijk", self.G, self.dC_dy)
                    - np.einsum("...mi,...mjk->...ijk", self.N, C)
                    - np.einsum("...mj,...imk->...ijk", self.N, C)
                    - np.einsum("...mk,...ijm->...ijk", self.N, C))

        return self._get("Cdot_low", build)

    @property
    def Cp_low(self):
        """The Landsberg-type tensor entering the classical connections.

        Equals half the Berwald horizontal derivative of g, which is minus
        the flow derivative of the Cartan tensor; this is the sign for
        which the Berwald lift satisfies its metric compatibility
        condition (and with it the whole classical classification).
        """
        return self._get("Cp_low_signed", lambda: -self.Cdot_low)

    def raise_last(self, t_low: np.ndarray) -> np.ndarray:
        """Raise the last index of a (u,v,t)-flat tensor: T^i_jk = g^il T_jkl."""
        self._need_metric()
        return np.einsum("...il,...jkl->...ijk", self.ginv, t_low)


# each row of _TENSORS is a frame attribute, its numbers built once
for _name in _TENSORS:
    setattr(PointFrame, _name, property(
        lambda fr, name=_name: fr._get(name, lambda: fr._row(*_TENSORS[name]))))


# -- public operations ---------------------------------------------------------


def spray_coefficients(src, w: TangentVector) -> SprayData:
    """G, N = dG/dy and Berwald B = d2G/dydy of the geodesic spray at w."""
    fr = PointFrame(src, w, order=4)
    return SprayData(at=w, G=fr.G, N=fr.N, B=fr.B)


def spray_values(src, x, y) -> np.ndarray:
    """Fast G-only evaluation for ODE right-hand sides (g checked positive definite).

    ``x`` and ``y`` have shape (..., n); G has the same shape, and equals
    the G of ``PointFrame(src, TangentVector(x, y), order=q)`` bit for bit
    for every q >= 2. A metric's G is read from the memo slot where it holds
    a frame of any order at exactly these points (a y-jet there is not a
    frame), and lifts nothing; elsewhere the points are checked as a frame
    checks them and a batch is one order-2 lift of F^2 at all centers, one
    positive-definiteness guard and one batched solve, each point bitwise
    equal to its own unbatched call. A bare spray's rule runs once per point on
    floats, as the jet value of a / b is a fl(1/b), not fl(a / b).
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    _require_dimension(src, x, y)
    if isinstance(src, MetricSpec) and x.shape == y.shape:
        # a frame's tag is its order; a checked y-jet holds no G
        tag, hit = _slot.peek(src, x, y)
        if isinstance(tag, int):
            return hit[0][4].value.copy()
    src.check_tangent(TangentVector(x, y))
    return _solve_spray(src, x, y)


def _iterate_spray_values(src, x, y, at=None) -> np.ndarray:
    """``spray_values`` at the iterates of the geodesic sweeps, bit for bit,
    for float arrays (N, n) whose points ``_picard_geodesics`` has already
    tested finite and inside the chart: only the dimension and the fiber-direction tests
    run, and no frame is looked up, as an iterate is not a frame's point.
    ``at`` places the points in the batch of geodesics, as in
    ``require_positive_definite``."""
    _require_dimension(src, x, y)
    _require_fiber_direction(x, y)
    return _solve_spray(src, x, y, at)


def _require_dimension(src, x, y) -> None:
    n = src.dim
    if x.shape[-1:] != (n,) or y.shape[-1:] != (n,):
        raise ValueError(f"dimension mismatch: x of shape {x.shape} and y of shape {y.shape} "
                         f"must end in n = {n}")


def _solve_spray(src, x, y, at=None) -> np.ndarray:
    """G at checked points (..., n), solved from an order-2 lift of a metric's
    F^2, or a bare spray's rule on floats point by point; ``at`` as in
    ``_spray_parts``."""
    n = src.dim
    if isinstance(src, MetricSpec):
        f = lift_any(lambda v: src.f2(v[:n], v[n:]), np.concatenate([x, y], axis=-1), 2)
        _, ginv, rhs = _spray_parts(f.derivative(1), f.derivative(2), x, y, at)
        return 0.25 * np.matmul(ginv, rhs[..., None])[..., 0]
    G = [[float(v) for v in src.g_rule(list(xi), list(yi))]
         for xi, yi in zip(x.reshape(-1, n), y.reshape(-1, n))]
    return np.array(G).reshape(x.shape)


def adapted_split(fr: PointFrame, X):
    """Raw (dx, dy) components -> adapted (horizontal a, vertical-fiber b = dy + N a),
    over fr's batch axes; each point is bitwise equal to its own single-point split."""
    X = np.asarray(X, float)
    a = X[..., :fr.n]
    return a, X[..., fr.n:] + _matvec(fr.N, a)


def curvature_endomorphism(src, w: TangentVector) -> CurvatureEndomorphism:
    """R_w from the spray jets (the coordinate form of R(S, .^h)C)."""
    fr = PointFrame(src, w, order=4)
    return CurvatureEndomorphism(at=w, R=fr.R)


def _matvec(m, v):
    """m @ v over leading batch axes, (..., n, n) and (..., n); each point is
    bitwise equal to its own single-point ``m @ v``."""
    return (m @ v[..., None])[..., 0]


def _pair(a, g, b):
    """a @ g @ b at every point, (..., n), (..., n, n), (..., n); each point is
    bitwise equal to its own single-point ``a @ g @ b``."""
    return ((a[..., None, :] @ g) @ b[..., :, None])[..., 0, 0]


def flag_curvature(ms: MetricSpec, w: TangentVector, u):
    """K(w,u) = g(R_w(u),u) / (g(w,w) g(u,u) - g(w,u)^2).

    ``w`` and ``u`` may carry leading batch axes, (..., n): one frame serves
    every point, K has shape (...) (a float for a single point), and each
    point is bitwise equal to its own single-point call. One degenerate
    flag refuses the batch, naming the first.
    """
    if not isinstance(ms, MetricSpec):
        raise TypeError("flag curvature requires a metric")
    u = np.asarray(u, float)
    if u.shape[-1:] != (ms.dim,):
        raise ValueError(f"u of shape {u.shape} must end in n = {ms.dim}, "
                         f"as w.y of shape {np.shape(w.y)} does")
    fr = PointFrame(ms, w, order=4)
    g = fr.g
    y = fr.y
    # float_power is C pow at every entry, as ** is on a single point's numpy scalar
    denom = _pair(y, g, y) * _pair(u, g, u) - np.float_power(_pair(y, g, u), 2)
    bad = denom < 1e-10
    if _any(bad):
        k = int(np.argmax(bad))
        raise DegenerateFlag(f"flag (w,u) degenerate: denominator {np.ravel(denom)[k]}"
                             + _batch_note(bad.shape, k))
    K = _pair(u, g, _matvec(fr.R, u)) / denom
    return float(K) if K.ndim == 0 else K
