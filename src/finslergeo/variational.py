"""Geodesic integration, energy, Jacobi fields and the second variation.

A geodesic is the Picard fixed point s = s0 + integral of f(s), with
f(x, v) = (v, -2 G(x, v)), solved by Chebyshev-Picard iteration
(Clenshaw-Norton, *Comput. J.* 6, 1963; Bai-Junkins, *J. Astronaut. Sci.*
58, 2011) on the Chebyshev-Lobatto nodes of its time span. One sweep is
one batched ``spray_values`` call over every node of every geodesic being
solved, then products with a spectral integration matrix; there is no
linear solve. A segment starts at 16 intervals and doubles, warm-started
from its interpolant, until its Chebyshev tail is below ``rtol``. A
segment whose iterate leaves the chart or whose sweeps stall is split in
two. A converged segment with a node past the chart's domain margin, or a
split below ``_MIN_SEGMENT`` of the span inside a stretch whose iterate
left the chart, is a ``DomainExit``; such a split elsewhere is a stall,
``NoConvergence``. The
converged segments are the curve's dense output, interpolated
barycentrically (Berrut-Trefethen, *SIAM Review* 46, 2004), and the dense
output records the ``rtol`` it was solved to.

Along a known geodesic, Jacobi fields and parallel transport are linear
ODEs whose coefficients are the spray's N and R (every admissible
connection gives the same ones). A geodesic's dense output records the
source it was solved for and, on first use, one frame table of Gx, N and R:
an order-4 ``PointFrame`` batched over the Chebyshev-Lobatto nodes of its
time interval, at states read off its own interpolant, doubling from 16
intervals (one batched frame over the new nodes each time) until the
table's Chebyshev tail is below the geodesic's ``rtol``. Jacobi fields read
N and R from it, the oracle Gx and N, and transport N.

Jacobi fields, the Jacobi oracle and parallel transport are collocated on
the table's nodes in ``_collocation_flow``: the Picard fixed point
s = s0 + integral of A s of a linear flow is one linear solve there, over
(n, m) column blocks, from time 0 (at the geodesic's initial vector, so a
backward flow's initial vectors hold at time 0). While the solution's
Chebyshev tail is above the geodesic's ``rtol`` the nodes double, with
frames at the new ones, locally: the cached table never changes. A curve
that ``integrate_geodesic`` did not return, or one it solved for another
metric or spray object, is refused with no spray evaluation. A transported
field records its Chebyshev dense output, as a geodesic does.

The Jacobi oracle is the linearized spray flow, the variational equation of
the geodesic ODE and so the exact derivative of the exponential map
(Hairer-Norsett-Wanner, *Solving ODEs I*, section I.14): it uses neither R
nor a connection. It is collocated as J is, so the Jacobi check compares
two equations on shared nodes, the R-based J against the Gx/N-based dx,
not two integrators; a test against an independent DOP853
solve guards the driver. The runtime needs numpy only. The second
variation reads g, R and the lift's coefficients from one frame batched
over the geodesic's nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainExit, GridError, NoConvergence, NormalityViolation, NullDirection
from .jets import lift_any
from .lifts import LiftSpec, affine_coefficients, classical_lift, covariant_derivative_curve
from .metrics import MetricSpec, TangentVector
from .spray import PointFrame, spray_values

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-11        # a solve at rtol has atol = rtol * DEFAULT_ATOL / DEFAULT_RTOL
DEFAULT_NODES = 401
_TABLE_INTERVALS = 16       # first Chebyshev table or segment size; doubled until converged
_TABLE_MAX_INTERVALS = 256
_SWEEP_TOL = 1e-3           # Picard sweeps stop when an update is below this share of the tolerance
_MAX_SWEEPS = 50            # sweeps at one node count before a segment counts as stalled
_BLOWUP = 1e6               # an iterate this many times larger than its start has stalled
_EXIT_MARGIN = 1e-9         # a node whose domain margin is this small has left the chart
_MIN_SEGMENT = 1e-9         # the shortest segment, relative to the span, before a split gives up
_INTEGRATION = {}           # spectral integration matrices by interval count, built on first use


@dataclass
class Curve:
    """A regular discretized curve: strictly increasing grid, nonzero speeds."""

    grid: np.ndarray
    points: np.ndarray      # (N, n)
    velocities: np.ndarray  # (N, n)
    dense: object = None    # optional dense output: grid times t -> states (2n, ...)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, float)
        self.points = np.asarray(self.points, float)
        self.velocities = np.asarray(self.velocities, float)
        if np.any(np.diff(self.grid) <= 0):
            raise GridError("curve grid must be strictly increasing")
        if np.min(np.linalg.norm(self.velocities, axis=1)) < 1e-12:
            raise NullDirection("curve has a node with zero velocity")

    @property
    def n(self) -> int:
        return self.points.shape[1]


@dataclass
class FieldAlongCurve:
    grid: np.ndarray
    vectors: np.ndarray
    covariant_derivative: np.ndarray | None = None
    dense: object = None    # optional dense output: times t -> vectors (n, ...) or (n, m, ...)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, float)
        self.vectors = np.asarray(self.vectors, float)


@dataclass
class VariationFamily:
    """A smooth family of curves: rule(s, t) -> chart points.

    ``s`` is a float and ``t`` an array of N times; the rule returns the N
    points of curve s as an array of shape (N, n), so one call samples a
    whole curve.
    """

    rule: object


def fd_derivative(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """d/dt of grid samples: 4th-order central inside, 3rd-order one-sided ends.

    Requires a uniform grid.
    """
    values = np.asarray(values, float)
    grid = np.asarray(grid, float)
    hs = np.diff(grid)
    h = hs[0]
    if np.max(np.abs(hs - h)) > 1e-10 * max(1.0, abs(h)):
        raise GridError("finite differencing requires a uniform grid")
    if len(grid) < 5:
        raise GridError("need at least 5 nodes for the differentiation stencils")
    v = values
    out = np.empty_like(v)
    out[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * h)
    out[0] = (-11 * v[0] + 18 * v[1] - 9 * v[2] + 2 * v[3]) / (6 * h)
    out[1] = (-3 * v[0] - 10 * v[1] + 18 * v[2] - 6 * v[3] + v[4]) / (12 * h)
    out[-2] = (3 * v[-1] + 10 * v[-2] - 18 * v[-3] + 6 * v[-4] - v[-5]) / (12 * h)
    out[-1] = (11 * v[-1] - 18 * v[-2] + 9 * v[-3] - 2 * v[-4]) / (6 * h)
    return out


def _atol(rtol: float) -> float:
    """The absolute tolerance that goes with ``rtol``."""
    return rtol * DEFAULT_ATOL / DEFAULT_RTOL


# -- Chebyshev tables and spectral geodesics ------------------------------------


class _ChebyshevTable:
    """Samples of a smooth function of t at Chebyshev-Lobatto nodes of [t0, t1].

    ``sample(ts)`` returns the values at an array of times, shape
    (len(ts),) + shape. The table starts at ``_TABLE_INTERVALS`` intervals
    and doubles until the last quarter of the Chebyshev coefficients is
    below ``rtol`` times the largest sampled value. The nodes nest (node k
    of m intervals is node 2k of 2m), so a doubling samples only the new
    nodes. Past ``_TABLE_MAX_INTERVALS`` it raises ``NoConvergence``.
    ``at`` interpolates it barycentrically at an array of times;
    ``from_nodes`` wraps values already at the nodes.
    """

    def __init__(self, sample, t0: float, t1: float, rtol: float):
        m = _TABLE_INTERVALS
        t = self.nodes(t0, t1, m)
        values = np.asarray(sample(t), float)
        while not self._converged(values, rtol):
            if m >= _TABLE_MAX_INTERVALS:
                raise NoConvergence(f"frame table not resolved to rtol {rtol:.1e} "
                                    f"with {m} Chebyshev intervals on [{t0:.6g}, {t1:.6g}]")
            t, values = self._doubled(t, values, sample)
            m *= 2
        self._set(t, values)

    @classmethod
    def from_nodes(cls, t, values) -> "_ChebyshevTable":
        table = cls.__new__(cls)
        table._set(t, values)
        return table

    def _set(self, t, values):
        m = len(t) - 1
        self.t = t
        self.values = values
        self._flat = values.reshape(m + 1, -1)
        self._weights = (-1.0) ** np.arange(m + 1)
        self._weights[[0, -1]] *= 0.5

    @staticmethod
    def nodes(t0: float, t1: float, m: int) -> np.ndarray:
        """The m + 1 nodes of m intervals, from t0 to t1, both ends exact."""
        t = 0.5 * (t0 + t1) - 0.5 * (t1 - t0) * np.cos(np.pi * np.arange(m + 1) / m)
        t[0], t[-1] = t0, t1
        return t

    @classmethod
    def _doubled(cls, t, values, sample):
        """The nodes of twice the intervals, and the values with ``sample`` at the new ones."""
        m = len(t) - 1
        odd = cls.nodes(t[0], t[-1], 2 * m)[1::2]
        at = np.arange(1, m + 1)
        return (np.insert(t, at, odd),
                np.insert(values, at, np.asarray(sample(odd), float), axis=0))

    @staticmethod
    def _converged(values, rtol):
        m = len(values) - 1
        flat = values.reshape(m + 1, -1)
        # the type-I DCT, as the real FFT of the even extension
        coef = np.abs(np.fft.rfft(np.concatenate([flat, flat[-2:0:-1]]), axis=0).real) / m
        coef[[0, -1]] *= 0.5
        return coef[m - m // 4 + 1:].max() <= rtol * np.abs(values).max()

    def at(self, ts) -> np.ndarray:
        """The values at an array of times, (len(ts),) + shape.

        The sums run node by node, so each time's value is the same
        whatever other times share the call.
        """
        d = np.asarray(ts, float).reshape(-1, 1) - self.t
        rows, cols = np.nonzero(d == 0.0)
        d[rows, cols] = 1.0
        c = self._weights / d
        num, den = c[:, :1] * self._flat[0], c[:, 0].copy()
        for k in range(1, len(self.t)):
            num += c[:, k:k + 1] * self._flat[k]
            den += c[:, k]
        out = num / den[:, None]
        out[rows] = self._flat[cols]
        return out.reshape((len(out),) + self.values.shape[1:])


def _integration_matrix(m: int) -> np.ndarray:
    """Q with (Q f)_j the integral from -1 to xi_j of the degree-m polynomial
    through f at the Chebyshev-Lobatto nodes xi_k = -cos(pi k / m).

    The values go to Chebyshev coefficients, the coefficients to those of the
    antiderivative (Clenshaw-Norton), and these back to values at the nodes
    less the value at -1. Exact on polynomials of degree m; cached per m.
    """
    Q = _INTEGRATION.get(m)
    if Q is None:
        k = np.arange(m + 2)
        # T_i(xi_k) = (-1)^i cos(pi i k / m), rows k = 0..m, columns i = 0..m + 1
        T = (-1.0) ** k * np.cos(np.pi * np.outer(k[:-1], k) / m)
        ends = np.full(m + 1, 1.0)
        ends[[0, -1]] = 0.5
        coef = (2.0 / m) * T[:, :-1].T * ends * ends[:, None]
        anti = np.zeros((m + 2, m + 1))
        j = np.arange(1, m + 1)
        anti[1, 0] = 1.0
        anti[j + 1, j] = 0.5 / (j + 1)
        anti[j[1:] - 1, j[1:]] = -0.5 / (j[1:] - 1)
        Q = (T - (-1.0) ** k) @ anti @ coef
        Q[0] = 0.0
        _INTEGRATION[m] = Q
    return Q


class _ChebyshevCurve:
    """A dense output: Chebyshev segments in solve order, solved for ``src``
    to ``rtol`` over ``span``, (0, t_end), of a geodesic's states or of a
    collocated field along one.

    At a time it gives a segment row, the state (2n,) of a geodesic, at an
    array of N times the rows stacked last, (2n, N); each time is
    interpolated alone, on the segment that holds it. A time outside the
    span is a ``GridError``: the curve is not extrapolated.
    """

    def __init__(self, segments, rtol: float, src):
        self.segments = segments
        self.rtol = rtol
        self.src = src
        self.span = (segments[0].t[0], segments[-1].t[-1])
        self._by_time = sorted(segments, key=lambda seg: min(seg.t[0], seg.t[-1]))
        self._starts = np.array([min(seg.t[0], seg.t[-1]) for seg in self._by_time])

    @property
    def t(self) -> np.ndarray:
        """Every node of every segment, ascending: the ends of the Chebyshev intervals."""
        return np.unique(np.concatenate([seg.t for seg in self.segments]))

    def __call__(self, t):
        t = np.asarray(t, float)
        flat = t.reshape(-1)
        lo, hi = sorted(self.span)
        outside = ~((flat >= lo) & (flat <= hi))
        if outside.any():
            raise GridError(f"time {flat[outside][0]!r} is outside the geodesic's span "
                            f"[{lo!r}, {hi!r}]")
        which = np.searchsorted(self._starts, flat, side="right") - 1
        out = np.empty((flat.size,) + self.segments[0].values.shape[1:])
        for k in np.unique(which):
            pick = which == k
            out[pick] = self._by_time[k].at(flat[pick])
        return np.moveaxis(out, 0, -1).reshape(out.shape[1:] + t.shape)

    @cached_property
    def frames(self) -> _ChebyshevTable:
        """(Gx, N, R) along the curve, stacked on axis 1: the table every linear flow reads."""
        return _ChebyshevTable(self.frame_values, *sorted(self.span), self.rtol)

    def frame_values(self, ts) -> np.ndarray:
        """(Gx, N, R) at an array of times, (len(ts), 3, n, n), from one batched frame."""
        n = self.src.dim
        st = self(ts)
        fr = PointFrame(self.src, TangentVector(st[:n].T, st[n:].T), order=4)
        return np.stack([fr.Gx, fr.N, fr.R], axis=1)


class _PicardSegment:
    """One geodesic's Chebyshev-Picard iterate ``values`` at the nodes ``t`` of
    its current segment, which starts at state ``s0``.

    ``plan`` lists the end times of the segments still to solve, this one
    first, in solve order; ``done`` holds the converged ones. A chart split
    marks the stretch it splits, up to that stretch's end ``exit_end``, as
    one that left the chart: a split below the floor there is a
    ``DomainExit``, elsewhere a stall (``NoConvergence``).
    """

    def __init__(self, s0, plan, rtol, margin, floor):
        self.n = len(s0) // 2
        self.rtol, self.atol, self.margin, self.floor = rtol, _atol(rtol), margin, floor
        self.scale0 = max(1.0, np.abs(s0).max())
        self.plan = plan
        self.done = []
        self.exit_end = None
        self._begin(s0, 0.0)

    def _begin(self, s0, t0):
        n = self.n
        t1 = self.plan.pop(0)
        self.s0, self.t0, self.t1, self.sweeps = s0, t0, t1, 0
        # the first iterate runs straight ahead at the initial velocity
        self.t = _ChebyshevTable.nodes(t0, t1, _TABLE_INTERVALS)
        self.values = np.concatenate(
            [s0[:n] + (self.t - t0)[:, None] * s0[n:], np.tile(s0[n:], (len(self.t), 1))],
            axis=1)

    def outside(self) -> bool:
        """Whether a node of the iterate is past the chart's domain margin."""
        return self.margin is not None and bool(
            np.any(self.margin(self.values[:, :self.n]) <= _EXIT_MARGIN))

    def split(self, left_chart: bool) -> None:
        """Start over on the first half of the segment; the second half follows it."""
        if left_chart and self.exit_end is None:
            self.exit_end = self.t1
        half = 0.5 * (self.t1 - self.t0)
        if abs(half) < self.floor:
            if self.exit_end is not None:
                raise DomainExit(f"trajectory left the validity region at t={self.t0:.6g}")
            raise NoConvergence(f"geodesic sweeps do not converge on [{self.t0:.6g}, "
                                f"{self.t1:.6g}]")
        self.plan[:0] = [self.t0 + half, self.t1]
        self._begin(self.s0, self.t0)

    def sweep(self, G) -> None:
        """One Picard sweep from the spray ``G`` at the nodes: v first, then x from the new v."""
        n = self.n
        half = 0.5 * (self.t1 - self.t0)
        Q = _integration_matrix(len(self.t) - 1)
        v = self.s0[n:] - 2.0 * half * (Q @ G)
        x = self.s0[:n] + half * (Q @ v)
        new = np.concatenate([x, v], axis=1)
        self.update = np.abs(new - self.values).max()
        self.values = new
        self.sweeps += 1

    def settle(self) -> bool:
        """Split, double or finish the segment after a sweep; False once the span is solved."""
        size = np.abs(self.values).max()
        if not np.isfinite(size) or size > _BLOWUP * self.scale0:
            self.split(False)
        elif self.update > _SWEEP_TOL * (self.rtol * max(1.0, size) + self.atol):
            if self.sweeps >= _MAX_SWEEPS:
                self.split(False)
        elif not _ChebyshevTable._converged(self.values, self.rtol):
            if len(self.t) > _TABLE_MAX_INTERVALS:
                self.split(False)
            else:
                self.t, self.values = _ChebyshevTable._doubled(
                    self.t, self.values, _ChebyshevTable.from_nodes(self.t, self.values).at)
                self.sweeps = 0
        else:
            if self.outside():
                raise DomainExit("trajectory left the validity region before "
                                 f"t={self.t1:.6g}")
            self.done.append(_ChebyshevTable.from_nodes(self.t, self.values))
            if self.t1 == self.exit_end:
                self.exit_end = None
            if not self.plan:
                return False
            self._begin(self.values[-1], self.t1)
        return True


def _picard_geodesics(src, states0, t_end: float, rtol: float) -> list:
    """The geodesics from the states (B, 2n) at time 0 to t_end, one
    ``_ChebyshevCurve`` each, from one batched Chebyshev-Picard solve."""
    n = states0.shape[1] // 2
    margin = getattr(src, "domain_margin", None)
    floor = _MIN_SEGMENT * max(1.0, abs(t_end))
    segs = [_PicardSegment(s0, [t_end], rtol, margin, floor) for s0 in states0]
    active = segs
    while active:
        for seg in active:
            while seg.outside():
                seg.split(True)
        states = np.concatenate([seg.values for seg in active])
        G = spray_values(src, states[:, :n], states[:, n:])
        at = np.cumsum([0] + [len(seg.t) for seg in active])
        for seg, a, b in zip(active, at[:-1], at[1:]):
            seg.sweep(G[a:b])
        active = [seg for seg in active if seg.settle()]
    return [_ChebyshevCurve(seg.done, rtol, src) for seg in segs]


def integrate_geodesic(src, w0: TangentVector, t_end: float,
                       rtol: float = DEFAULT_RTOL, nodes: int = DEFAULT_NODES):
    """Solve x-ddot = -2 G(x, x-dot) from w0 and sample on a uniform grid.

    ``w0`` of shape (n,) gives one ``Curve``; with a leading batch axis,
    (B, n), it gives a list of B curves from one batched solve, each equal
    to its own single solve. ``t_end`` may be negative; 0 is a ``GridError``.
    Each curve's dense output records ``src`` and ``rtol``, which flows along
    the curve inherit.
    """
    src.check_tangent(w0)
    t_end = float(t_end)
    if t_end == 0:
        raise GridError("a geodesic needs a nonzero time span, got t_end = 0")
    n = src.dim
    states0 = np.concatenate([w0.x, w0.y], axis=-1)
    grid = np.linspace(0.0, t_end, nodes)
    if t_end < 0:
        grid = grid[::-1]
    curves = []
    for dense in _picard_geodesics(src, states0.reshape(-1, 2 * n), t_end, rtol):
        states = dense(grid)
        curves.append(Curve(grid=grid, points=states[:n].T, velocities=states[n:].T,
                            dense=dense))
    return curves[0] if states0.ndim == 1 else curves


def exponential_map(src, x0, v, t: float) -> np.ndarray:
    """Endpoint of the geodesic with initial point x0 and velocity v at time t."""
    if t == 0:
        return np.asarray(x0, float).copy()
    geo = integrate_geodesic(src, TangentVector(x0, v), t, nodes=5)
    return geo.points[-1] if t > 0 else geo.points[0]


_GAUSS4_NODES = np.array([-0.8611363115940526, -0.3399810435848563,
                          0.3399810435848563, 0.8611363115940526])
_GAUSS4_WEIGHTS = np.array([0.3478548451374538, 0.6521451548625461,
                            0.6521451548625461, 0.3478548451374538])


def _solved(curve: Curve) -> _ChebyshevCurve:
    """The Chebyshev dense output of a geodesic from ``integrate_geodesic``."""
    if not isinstance(curve.dense, _ChebyshevCurve):
        raise GridError("need a geodesic from integrate_geodesic: this curve has no "
                        "Chebyshev dense output")
    return curve.dense


def geodesic_residual(src, curve: Curve) -> float:
    """Scale-normalized defect of the geodesic equation along a geodesic from
    ``integrate_geodesic``; any other curve is a ``GridError``.

    The defect is measured in integrated form on every interval between
    consecutive Chebyshev nodes, | dx-dot - integral of -2G | (Gauss
    quadrature against the dense states), normalized by the local state
    scale; this is the interpolation error of the spray along the curve and
    involves no numerical differentiation.
    """
    n = curve.n
    dense = _solved(curve)
    ts = dense.t
    a, b = ts[:-1], ts[1:]
    half = 0.5 * (b - a)
    # all Gauss nodes, then both interval ends, in one dense evaluation
    nodes = 0.5 * (a + b)[:, None] + half[:, None] * _GAUSS4_NODES
    states = dense(np.concatenate([nodes.ravel(), a, b])).T
    st = states[:nodes.size].reshape(len(a), 4, 2 * n)
    g2 = 2.0 * spray_values(src, st[..., :n], st[..., n:])
    quad = np.zeros((len(a), n))
    for j, weight in enumerate(_GAUSS4_WEIGHTS):
        quad += weight * g2[:, j]
    scale = np.maximum(1.0, np.abs(st).max(axis=(1, 2)))
    ends = states[nodes.size:, n:]
    defect = (ends[len(a):] - ends[:len(a)]) + half[:, None] * quad
    return float(np.max(np.abs(defect).max(axis=1) / scale))


def _simpson_weights(count: int) -> np.ndarray:
    """Composite Simpson weights (1, 4, 2, ..., 4, 1) over ``count`` nodes, before h/3."""
    weights = np.ones(count)
    weights[1:-1:2] = 4.0
    weights[2:-2:2] = 2.0
    return weights


def _d1(f, h: float) -> float:
    """df/dt at t = 0 of a scalar function of one variable, 4th-order central difference."""
    return (f(-2 * h) - 8 * f(-h) + 8 * f(h) - f(2 * h)) / (12 * h)


def energy(ms: MetricSpec, curve: Curve) -> float:
    """E = (1/2) integral of F(velocity)^2 by composite Simpson."""
    grid = curve.grid
    points = curve.points
    vels = curve.velocities
    if len(grid) < DEFAULT_NODES and curve.dense is not None:
        grid = np.linspace(curve.grid[0], curve.grid[-1], DEFAULT_NODES)
        states = curve.dense(grid)
        n = curve.n
        points, vels = states[:n].T, states[n:].T
    if len(grid) % 2 == 0:
        raise GridError("Simpson quadrature needs an odd number of nodes")
    hs = np.diff(grid)
    if np.max(np.abs(hs - hs[0])) > 1e-10 * max(1.0, abs(hs[0])):
        raise GridError("energy quadrature requires a uniform grid")
    null = np.flatnonzero(np.linalg.norm(vels, axis=1) < 1e-12)
    if null.size:
        raise NullDirection(f"zero velocity at node {null[0]}")
    # F^2 at all nodes: one order-0 lift at the (N, 2n) centers
    n = points.shape[1]
    vals = lift_any(lambda v: ms.f2(v[:n], v[n:]),
                    np.concatenate([points, vels], axis=1), 0).c[:, 0]
    return float(0.5 * hs[0] / 3.0 * np.sum(_simpson_weights(len(grid)) * vals))


def _flow_start(src, geo: Curve, s0):
    """The dense output of a geodesic of ``src`` and the initial blocks as
    float arrays of one shape, (n,) or (n, m); anything else is refused
    before any evaluation."""
    dense = _solved(geo)
    if src is not dense.src:
        raise GridError(f"curve is not a geodesic of {src!r}: it was solved for {dense.src!r}")
    s0 = [np.asarray(b, float) for b in s0]
    shape = s0[0].shape
    if any(b.shape != shape for b in s0) or shape[:1] != (geo.n,) or len(shape) > 2:
        raise ValueError(f"initial vectors must share shape (n,) or (n, m) with n = {geo.n}, "
                         f"got {' and '.join(str(b.shape) for b in s0)}")
    return dense, s0


def _collocation_flow(src, geo: Curve, coefficients, s0):
    """Solve a linear ODE s' = A(t) s along a geodesic of ``src`` by spectral
    collocation on the nodes of the geodesic's frame table.

    ``s0`` is a tuple of initial blocks of one shape, (n,) or (n, m), at
    time 0, where the geodesic starts (the table's last node on a backward
    geodesic). ``coefficients(frames)`` maps table values (k, 3, n, n) of
    (Gx, N, R) to A (k, d, d), d = n * len(s0). The Picard fixed point
    S = s0 + integral of A S is one linear solve at the nodes; while the
    solution's Chebyshev tail is above the geodesic's ``rtol``, the nodes
    double, with frames at the new ones from the geodesic's dense output
    (the cached table is left as it is). Past ``_TABLE_MAX_INTERVALS`` it
    raises ``NoConvergence``. Returns the solution's dense output over the
    geodesic's span, one segment whose rows are (len(s0),) + block shape.
    """
    dense, s0 = _flow_start(src, geo, s0)
    blocks = (len(s0),) + s0[0].shape
    start = np.stack(s0).reshape(len(s0) * geo.n, -1)
    d = len(start)
    order = slice(None, None, -1) if dense.span[1] < dense.span[0] else slice(None)
    t, frames = dense.frames.t, dense.frames.values
    while True:
        m = len(t) - 1
        ts, A = t[order], coefficients(frames)[order]
        half = 0.5 * (ts[-1] - ts[0])
        Q = _integration_matrix(m)
        # (I - half (Q x I) blockdiag(A)) S = 1 x s0 over the nodes after the
        # first, where S is s0 itself; row (j, a), column (k, b) is Q_jk A_k[a, b]
        M = (-half * Q[1:, None, 1:, None] * A[1:].transpose(1, 0, 2)).reshape(m * d, m * d)
        M[np.diag_indices(m * d)] += 1.0
        rhs = start + half * Q[1:, 0, None, None] * (A[0] @ start)
        S = np.concatenate([start[None], np.linalg.solve(M, rhs.reshape(m * d, -1))
                            .reshape((m,) + start.shape)])
        if _ChebyshevTable._converged(S, dense.rtol):
            break
        if m >= _TABLE_MAX_INTERVALS:
            raise NoConvergence(f"linear flow not resolved to rtol {dense.rtol:.1e} with {m} "
                                f"Chebyshev intervals on [{t[0]:.6g}, {t[-1]:.6g}]")
        t, frames = _ChebyshevTable._doubled(t, frames, dense.frame_values)
    return _ChebyshevCurve([_ChebyshevTable.from_nodes(ts, S.reshape((m + 1,) + blocks))],
                           dense.rtol, src)


def _on_grid(flow: _ChebyshevCurve, grid) -> np.ndarray:
    """A collocated flow's blocks at the times ``grid``, (len(s0), N) + block shape."""
    return np.moveaxis(flow(grid), -1, 1)


def _jacobi_coefficients(frames):
    """A = [[-N, I], [-R, -N]] of the Jacobi system in (J, K), from (Gx, N, R) rows."""
    N, R = frames[:, 1], frames[:, 2]
    return np.block([[-N, np.broadcast_to(np.eye(N.shape[-1]), N.shape)], [-R, -N]])


def jacobi_integrate(src, geo: Curve, J0, J0dot) -> FieldAlongCurve:
    """Integrate the Jacobi equation D^2 J + R(J) = 0 along a geodesic.

    First-order form in (J, K = covariant derivative of J), a linear system
    J' = K - N J, K' = -R J - N K whose coefficients come from a frame table
    of N and R along the geodesic, solved by collocation on the table's
    nodes. ``J0dot`` is the initial covariant derivative. ``J0`` and
    ``J0dot`` have shape (n,), or (n, m) for m fields solved as the columns
    of one system; ``vectors`` and ``covariant_derivative`` then have shape
    (N, n, m). The initial values hold at time 0, where the geodesic starts.
    Raises ``NoConvergence`` when the table, or the field, is not resolved
    to the geodesic's ``rtol``.
    """
    J, K = _on_grid(_collocation_flow(src, geo, _jacobi_coefficients, (J0, J0dot)), geo.grid)
    return FieldAlongCurve(grid=geo.grid, vectors=J, covariant_derivative=K)


def _variation_coefficients(frames):
    """A = [[0, I], [-2 Gx, -2 N]] of the variational equation in (dx, dv), from (Gx, N, R) rows."""
    Gx, N = frames[:, 0], frames[:, 1]
    eye = np.broadcast_to(np.eye(N.shape[-1]), N.shape)
    return np.block([[np.zeros_like(N), eye], [-2.0 * Gx, -2.0 * N]])


def jacobi_variation_oracle(src, geo: Curve, u) -> np.ndarray:
    """The Jacobi field along a geodesic with J(0) = 0 and covariant initial
    derivative u, as the derivative of the exponential map.

    Integrates the linearized spray flow, the variational equation of
    x-ddot = -2 G(x, x-dot): dx-ddot = -2 Gx dx - 2 N dx-dot from
    (dx, dx-dot) = (0, u), with Gx = dG/dx and N = dG/dy from the frame
    table along ``geo``, collocated on its nodes at the geodesic's ``rtol``
    as ``jacobi_integrate`` is. It uses neither R nor a connection. ``u``
    has shape (n,) or (n, m); returns dx on ``geo.grid``, shape (N, n) or
    (N, n, m).
    """
    u = np.asarray(u, float)
    flow = _collocation_flow(src, geo, _variation_coefficients, (np.zeros(u.shape), u))
    return _on_grid(flow, geo.grid)[0]


# the benchmark's tracer rebinds this name (perfbench/tracer.py); the package never calls it
def solve_ivp(*args, **kwargs):
    """scipy's ``solve_ivp``, imported on first call."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def parallel_transport(src, geo: Curve, v0) -> FieldAlongCurve:
    """Solve D^{gdot} V/dt = 0, V' = -N V, along a geodesic by collocation
    on its frame table's nodes.

    ``v0`` has shape (n,), or (n, m) to transport m vectors in one system,
    and holds at time 0, where the geodesic starts; ``vectors`` then has
    shape (N, n) or (N, n, m). ``dense`` is the field's Chebyshev dense
    output over the geodesic's span: at an array of N times it gives
    (n, N) or (n, m, N).
    """
    flow = _collocation_flow(src, geo, lambda frames: -frames[:, 1], (v0,))
    (seg,) = flow.segments
    V = _ChebyshevCurve([_ChebyshevTable.from_nodes(seg.t, seg.values[:, 0])], flow.rtol, src)
    return FieldAlongCurve(grid=geo.grid, vectors=np.moveaxis(V(geo.grid), -1, 0), dense=V)


# -- second variation -----------------------------------------------------------


def second_variation_formula(ms: MetricSpec, geo: Curve, V: FieldAlongCurve,
                             P1=None, P2=None, lift: LiftSpec | None = None) -> float:
    """Index-form value of eq-style second variation with submanifold ends.

    integral of g(DV, DV) - g(R(V), V) plus the second-fundamental-form
    boundary terms; P1/P2 are (Submanifold, param) pairs or None for fixed
    endpoints (where V must vanish).
    """
    from .submanifolds import sff_connection

    if lift is None:
        lift = classical_lift("berwald", ms)
    grid = geo.grid
    if V.vectors.shape != geo.points.shape or not np.allclose(V.grid, grid):
        raise GridError("variation field must live on the geodesic grid")

    # one order-4 frame over the nodes; its end frames serve the boundary terms
    frames = PointFrame(ms, TangentVector(geo.points, geo.velocities), order=4)
    boundary = 0.0
    for which, endpoint, sign in (("start", P1, -1.0), ("end", P2, +1.0)):
        idx = 0 if which == "start" else -1
        vel = geo.velocities[idx]
        vend = V.vectors[idx]
        if endpoint is None:
            if np.linalg.norm(vend) > 1e-6:
                raise NormalityViolation(
                    f"fixed-endpoint variation must vanish at the {which} (|V|={np.linalg.norm(vend):.2e})")
            continue
        sub, param = endpoint
        basis = sub.jacobian(param)
        if np.max(np.abs(sub.value(param) - geo.points[idx])) > 1e-8:
            raise NormalityViolation(f"{which} submanifold does not pass through the endpoint")
        fr = frames[idx]
        normality = np.max(np.abs(basis.T @ (fr.g @ vel)))
        if normality > 1e-6:
            raise NormalityViolation(
                f"geodesic is not normal to the {which} submanifold (residual {normality:.2e})")
        coeffs, res, *_ = np.linalg.lstsq(basis, vend, rcond=None)
        if np.max(np.abs(basis @ coeffs - vend)) > 1e-6:
            raise NormalityViolation(f"variation field is not tangent at the {which} submanifold")
        boundary += sign * sff_connection(sub, param, vel, coeffs, coeffs, ms, lift=lift,
                                          _frame=fr)

    W = FieldAlongCurve(grid=grid, vectors=geo.velocities)
    DV = covariant_derivative_curve(lift, ms, geo, W, V, _frames=frames).vectors
    RV = np.einsum("...ij,...j->...i", frames.R, V.vectors)
    vals = (np.einsum("...i,...ij,...j->...", DV, frames.g, DV)
            - np.einsum("...i,...ij,...j->...", RV, frames.g, V.vectors))
    h = grid[1] - grid[0]
    return float(h / 3.0 * np.sum(_simpson_weights(len(grid)) * vals) + boundary)


def _family_points(fam: VariationFamily, s: float, grid: np.ndarray) -> np.ndarray:
    pts = np.asarray(fam.rule(s, grid), float)
    if pts.ndim != 2 or len(pts) != len(grid):
        raise ValueError(f"a variation rule must map {len(grid)} times to an (N, n) "
                         f"array, got shape {pts.shape}")
    return pts


def family_curve(fam: VariationFamily, s: float) -> Curve:
    """Sample one member of a variation family at 801 nodes of [0, 1]; velocities
    by finite differences."""
    grid = np.linspace(0.0, 1.0, 801)
    pts = _family_points(fam, s, grid)
    vels = fd_derivative(pts, grid)
    return Curve(grid=grid, points=pts, velocities=vels)


def variation_energy_derivatives(ms: MetricSpec, fam: VariationFamily) -> tuple[float, float]:
    """(d/ds, d^2/ds^2) of s -> E(lambda_s) at s=0: 4th-order central stencils
    over the five energies at s = 0, +-h and +-2h, h = 1e-3."""
    h = 1e-3
    em2, em1, e0, e1, e2 = (energy(ms, family_curve(fam, s)) for s in (-2 * h, -h, 0.0, h, 2 * h))
    return ((em2 - 8 * em1 + 8 * e1 - e2) / (12 * h),
            (-em2 + 16 * em1 - 30 * e0 + 16 * e1 - e2) / (12 * h * h))


def variation_symmetry_residual(ms: MetricSpec, fam: VariationFamily, nodes: int = 201) -> float:
    """Node-wise residual of the covariant-derivative symmetry of a variation.

    Compares the s-derivative of T = dH/dt with the t-derivative of
    U = dH/ds, both corrected by the Berwald affine coefficients at direction
    T (zero for every lift that satisfies the torsion condition), with s
    steps of h = 1e-3. One order-4 frame batched over the nodes serves every
    node; the residual is the sup over them.
    """
    h = 1e-3
    grid = np.linspace(0.0, 1.0, nodes)
    svals = np.array([-2 * h, -h, 0.0, h, 2 * h])
    pts = np.array([_family_points(fam, s, grid) for s in svals])
    T = np.array([fd_derivative(pts[j], grid) for j in range(len(svals))])
    U = fd_derivative(pts, svals)
    dT_ds = fd_derivative(T, svals)[2]
    dU_dt = fd_derivative(U[2], grid)
    fr = PointFrame(ms, TangentVector(pts[2], T[2]), order=4)
    A = affine_coefficients(classical_lift("berwald", ms), ms, fr.w, _frame=fr).A
    lhs = dT_ds + np.einsum("...ijk,...j,...k->...i", A, U[2], T[2])
    rhs = dU_dt + np.einsum("...ijk,...j,...k->...i", A, T[2], U[2])
    return float(np.max(np.abs(lhs - rhs)))
