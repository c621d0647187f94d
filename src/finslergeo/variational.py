"""Geodesics, Jacobi fields, parallel transport and the second variation.

One discretization runs along every curve: Chebyshev-Lobatto nodes of a
time span, 16 intervals doubled until the Chebyshev tail of what is sampled
there is below ``rtol`` (``_ChebyshevTable``), spectral integration
(``_integration_matrix``, whose last row is the Clenshaw-Curtis rule) and
spectral differentiation (``_derivative``); past 256 intervals a curve is
not resolved, ``NoConvergence`` (Trefethen, *Spectral Methods in MATLAB*,
SIAM 2000). A dense output is interpolated barycentrically
(Berrut-Trefethen, *SIAM Review* 46, 2004) and records its ``rtol``.

A geodesic is the Picard fixed point s = s0 + integral of f(s), with
f(x, v) = (v, -2 G(x, v)), solved by Chebyshev-Picard iteration
(Clenshaw-Norton, *Comput. J.* 6, 1963; Bai-Junkins, *J. Astronaut. Sci.*
58, 2011): one sweep is one batched evaluation of G over every node of
every geodesic being solved, ``spray_values`` less its finite and chart
tests, which the sweeps have made (``_iterate_spray_values``). A segment
whose iterate leaves the chart or whose sweeps stall is split in two. A
converged segment with a node past the chart's domain margin, or a split
below ``_MIN_SEGMENT`` of the span inside a stretch whose iterate left the
chart, is a ``DomainExit``; such a split elsewhere is a stall,
``NoConvergence``.

Jacobi fields (from N and R), the Jacobi oracle (the linearized spray flow,
from Gx and N: the exact derivative of the exponential map,
Hairer-Norsett-Wanner, *Solving ODEs I*, section I.14, with neither R nor a
connection) and parallel transport (from N) are linear flows, collocated in
``_collocation_flow``: one linear solve on a level's nodes, from time 0. A
geodesic's dense output records its source and keeps the frame levels its
flows have read, (Gx, N, R) from one order-4 ``PointFrame`` batched over
the new nodes of every geodesic with a flow still going, each flagged
resolved or not. A flow takes the list of curves of one
``integrate_geodesic`` batch, with the initial vectors on a leading batch
axis: the systems of one level are one stacked solve and every result is
bitwise its own single call. A curve that ``integrate_geodesic`` did not
return, or one it solved for another source, is refused with no spray
evaluation; in a batch the first flow still going raises, and a batched
frame names the first bad point of the concatenated batch, so
jacobi-compare redoes a failing batch sample by sample.

The second variation resolves the geodesic's state and the variation field
together, reads g, R and the lift's coefficients from one frame batched
over those nodes and sums with Clenshaw-Curtis; the energy derivatives and
the variation symmetry evaluate a family's jet in s at its resolved nodes.
The runtime needs numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainExit, GridError, NoConvergence, NormalityViolation, NullDirection
from .jets import Jet, space_for
from .lifts import LiftSpec, affine_coefficients, classical_lift, covariant_derivative_curve
from .metrics import MetricSpec, TangentVector
from .spray import PointFrame, _iterate_spray_values, spray_values

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
_DIFFERENTIATION = {}       # spectral differentiation matrices by interval count, the same way


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

    ``t`` is an array of N times and the rule returns the N points of curve
    s, shape (N, n). Like an F^2 rule, it is written once with arithmetic and
    ``smath`` in ``s``, so that ``s`` may be a float or a one-variable jet:
    one call at a jet in s gives the exact s-derivatives of every point.
    """

    rule: object


def _atol(rtol: float) -> float:
    """The absolute tolerance that goes with ``rtol``."""
    return rtol * DEFAULT_ATOL / DEFAULT_RTOL


# -- Chebyshev tables and spectral geodesics ------------------------------------


class _ChebyshevTable:
    """Values of a smooth function of t at the Chebyshev-Lobatto nodes ``t``
    of [t0, t1], shape (len(t),) + shape.

    The nodes nest (node k of m intervals is node 2k of 2m), so a doubling
    samples only the new nodes (``_odd``, ``_merged``). ``_converged`` tests
    whether the last quarter of the Chebyshev coefficients is below ``rtol``
    times the largest value. ``at`` interpolates a table barycentrically at
    an array of times.
    """

    def __init__(self, t, values):
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
    def _odd(cls, t) -> np.ndarray:
        """The nodes that a doubling of the nodes ``t`` adds."""
        return cls.nodes(t[0], t[-1], 2 * (len(t) - 1))[1::2]

    @staticmethod
    def _merged(t, values, odd, new):
        """The nodes ``t`` and the ``odd`` ones interleaved, with their values."""
        at = np.arange(1, len(t))
        return np.insert(t, at, odd), np.insert(values, at, new, axis=0)

    @classmethod
    def _doubled(cls, t, values, sample):
        """The nodes of twice the intervals, and the values with ``sample`` at the new ones."""
        odd = cls._odd(t)
        return cls._merged(t, values, odd, np.asarray(sample(odd), float))

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
        whatever other times share the call, and each column of the
        values is the same whatever other columns share the table.
        """
        d = np.asarray(ts, float).reshape(-1, 1) - self.t
        rows, cols = np.nonzero(d == 0.0)
        d[rows, cols] = 1.0
        c = self._weights / d
        num, den = c[:, :1] * self._flat[0], c[:, 0].copy()
        for k in range(1, len(self.t)):
            num += c[:, k:k + 1] * self._flat[k]
            den += c[:, k]
        num /= den[:, None]
        num[rows] = self._flat[cols]
        return num.reshape((len(num),) + self.values.shape[1:])


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


def _derivative(t, values) -> np.ndarray:
    """d/dt of the degree-m polynomial through ``values`` (node axis first) at
    the Chebyshev-Lobatto nodes ``t`` of m intervals, else a ``GridError``.
    The differentiation matrix (Trefethen 2000, ch. 6) has its node
    differences from a product of sines and its diagonal as minus the row
    sum; cached per m."""
    t, values = np.asarray(t, float), np.asarray(values, float)
    m = len(t) - 1
    if m < 1 or np.max(np.abs(t - _ChebyshevTable.nodes(t[0], t[-1], m))) > 1e-10 * max(
            1.0, abs(t[-1] - t[0])):
        raise GridError("spectral differentiation needs the Chebyshev-Lobatto nodes of the "
                        "grid's span")
    D = _DIFFERENTIATION.get(m)
    if D is None:
        k = np.arange(m + 1)
        c = (-1.0) ** k * np.where((k == 0) | (k == m), 2.0, 1.0)
        # xi_i - xi_j for xi_k = -cos(pi k / m), 1 on the diagonal
        diff = 2.0 * np.sin(np.pi * np.add.outer(k, k) / (2 * m)) * np.sin(
            np.pi * np.subtract.outer(k, k) / (2 * m)) + np.eye(m + 1)
        D = np.outer(c, 1.0 / c) / diff - np.eye(m + 1)
        D[k, k] = -D.sum(axis=1)
        _DIFFERENTIATION[m] = D
    out = D @ values.reshape(m + 1, -1) / (0.5 * (t[-1] - t[0]))
    return out.reshape(values.shape)


def _resolved(sample, span, rtol: float):
    """The Chebyshev-Lobatto nodes t of ``span`` from low to high and the
    values ``sample(t)`` there (node axis first), from 16 intervals, doubled
    until the Chebyshev tail is below ``rtol``; past 256 intervals a
    ``NoConvergence``."""
    t0, t1 = sorted(span)
    t = _ChebyshevTable.nodes(t0, t1, _TABLE_INTERVALS)
    values = np.asarray(sample(t), float)
    while not _ChebyshevTable._converged(values, rtol):
        if len(t) - 1 >= _TABLE_MAX_INTERVALS:
            raise NoConvergence(f"not resolved to rtol {rtol:.1e} with {len(t) - 1} Chebyshev "
                                f"intervals on [{t0:.6g}, {t1:.6g}]")
        t, values = _ChebyshevTable._doubled(t, values, sample)
    return t, values


class _ChebyshevCurve:
    """A dense output: Chebyshev segments in solve order, solved for ``src``
    to ``rtol`` over ``span``, (0, t_end), of a geodesic's states or of a
    collocated field along one.

    At a time it gives a segment row, the state (2n,) of a geodesic, at an
    array of N times the rows stacked last, (2n, N); each time is
    interpolated alone, on the segment that holds it. A time outside the
    span is a ``GridError``: the curve is not extrapolated. ``_levels``
    holds a geodesic's frame levels by interval count (``_frame_levels``).
    """

    def __init__(self, segments, rtol: float, src):
        self.segments = segments
        self.rtol = rtol
        self.src = src
        self.span = (segments[0].t[0], segments[-1].t[-1])
        self._by_time = sorted(segments, key=lambda seg: min(seg.t[0], seg.t[-1]))
        self._starts = np.array([min(seg.t[0], seg.t[-1]) for seg in self._by_time])
        self._levels = {}

    @property
    def t(self) -> np.ndarray:
        """Every node of every segment, ascending: the ends of the Chebyshev intervals."""
        return np.unique(np.concatenate([seg.t for seg in self.segments]))

    def __call__(self, t):
        return _sample([self], [t])[0]


def _sample(curves, ts) -> list:
    """Each curve at its own times ts[k], as ``curve(t)`` gives it.

    Segments of several curves with the same nodes, read at the same times,
    share one barycentric pass with their values side by side as columns;
    ``at`` is elementwise in the columns, so each is bitwise its own pass.
    """
    passes, outs = {}, []
    for curve, t in zip(curves, ts):
        t = np.asarray(t, float)
        flat = t.reshape(-1)
        lo, hi = sorted(curve.span)
        outside = ~((flat >= lo) & (flat <= hi))
        if outside.any():
            raise GridError(f"time {flat[outside][0]!r} is outside the geodesic's span "
                            f"[{lo!r}, {hi!r}]")
        which = np.searchsorted(curve._starts, flat, side="right") - 1
        # the rows of a segment, then the times
        out = np.empty(curve.segments[0].values.shape[1:] + (flat.size,))
        outs.append(out.reshape(out.shape[:-1] + t.shape))
        for k in np.unique(which):
            pick = which == k
            seg = curve._by_time[k]
            times = flat[pick]
            passes.setdefault((seg.t.tobytes(), times.tobytes()), (seg.t, times, []))[2].append(
                (seg, out, pick))
    for nodes, times, group in passes.values():
        columns = np.concatenate([seg._flat for seg, _, _ in group], axis=1)
        values = _ChebyshevTable(nodes, columns).at(times)
        end = 0
        for seg, out, pick in group:
            start, end = end, end + seg._flat.shape[1]
            out[..., pick] = values[:, start:end].T.reshape(out.shape[:-1] + (len(times),))
    return outs


def _frame_values(curves, ts) -> list:
    """(Gx, N, R) of each curve at its times ts[k], (len(ts[k]), 3, n, n),
    from one order-4 frame batched over the states of all of them."""
    n = curves[0].src.dim
    states = np.concatenate([st.T for st in _sample(curves, ts)])
    fr = PointFrame(curves[0].src, TangentVector(states[:, :n], states[:, n:]), order=4)
    values = np.stack([fr.Gx, fr.N, fr.R], axis=1)
    return np.split(values, np.cumsum([len(t) for t in ts])[:-1])


def _frame_levels(curves, m: int) -> None:
    """Give each curve that lacks it its frame level of m intervals, (nodes,
    (Gx, N, R) there, resolved), from one frame batched over the new nodes
    of all of them: every node at 16 intervals, the odd ones of the level
    below after that. A level is resolved when its (Gx, N, R) tail, or a
    coarser level's, is below the curve's ``rtol``."""
    todo = list({id(c): c for c in curves if m not in c._levels}.values())
    if not todo:
        return
    first = m == _TABLE_INTERVALS
    ts = [_ChebyshevTable.nodes(*sorted(c.span), m) if first
          else _ChebyshevTable._odd(c._levels[m // 2][0]) for c in todo]
    for c, t, new in zip(todo, ts, _frame_values(todo, ts)):
        values, resolved = new, False
        if not first:
            below, frames, resolved = c._levels[m // 2]
            t, values = _ChebyshevTable._merged(below, frames, t, new)
        c._levels[m] = (t, values, resolved or _ChebyshevTable._converged(values, c.rtol))


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
                    self.t, self.values, _ChebyshevTable(self.t, self.values).at)
                self.sweeps = 0
        else:
            if self.outside():
                raise DomainExit("trajectory left the validity region before "
                                 f"t={self.t1:.6g}")
            self.done.append(_ChebyshevTable(self.t, self.values))
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
        # every node is finite (settle splits a segment that is not) and inside the chart
        G = _iterate_spray_values(src, states[:, :n], states[:, n:])
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
    denses = _picard_geodesics(src, states0.reshape(-1, 2 * n), t_end, rtol)
    curves = [Curve(grid=grid, points=states[:n].T, velocities=states[n:].T, dense=dense)
              for dense, states in zip(denses, _sample(denses, [grid] * len(denses)))]
    return curves[0] if states0.ndim == 1 else curves


_GAUSS4_NODES = np.array([-0.8611363115940526, -0.3399810435848563,
                          0.3399810435848563, 0.8611363115940526])
_GAUSS4_WEIGHTS = np.array([0.3478548451374538, 0.6521451548625461,
                            0.6521451548625461, 0.3478548451374538])


def _solved(curve: Curve, src=None) -> _ChebyshevCurve:
    """The Chebyshev dense output of a geodesic from ``integrate_geodesic``,
    solved for ``src`` if one is given."""
    if not isinstance(getattr(curve, "dense", None), _ChebyshevCurve):
        raise GridError("need a geodesic from integrate_geodesic: this curve has no "
                        "Chebyshev dense output")
    if src is not None and src is not curve.dense.src:
        raise GridError(f"curve is not a geodesic of {src!r}: it was solved for "
                        f"{curve.dense.src!r}")
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


def _flow_jobs(src, geo, *blocks):
    """The geodesics and the flows' jobs, (dense output, initial blocks) per
    geodesic. ``geo`` is one geodesic of ``src`` from ``integrate_geodesic``
    with blocks of one shape, (n,) or (n, m), or a list of them with the
    blocks on a leading batch axis; anything else is refused before any
    evaluation."""
    if isinstance(geo, Curve):
        geos = [geo]
        blocks = [[np.asarray(b, float)] for b in blocks]
    else:
        geos = list(geo)
        blocks = [np.asarray(b, float) for b in blocks]
        for b in blocks:
            if b.shape[:1] != (len(geos),):
                raise ValueError(f"initial vectors of {len(geos)} geodesics need a leading "
                                 f"batch axis of {len(geos)}, got shape {b.shape}")
    jobs = []
    for k, curve in enumerate(geos):
        dense = _solved(curve, src)
        s0 = [b[k] for b in blocks]
        shape = s0[0].shape
        if any(b.shape != shape for b in s0) or shape[:1] != (curve.n,) or len(shape) > 2:
            raise ValueError(f"initial vectors must share shape (n,) or (n, m) with n = "
                             f"{curve.n}, got {' and '.join(str(b.shape) for b in s0)}")
        jobs.append((dense, s0))
    return geos, jobs


class _LinearFlow:
    """One job of ``_collocation_flow``: a linear flow from the blocks ``s0``
    along a geodesic's dense output, on the nodes of one frame level at a
    time."""

    def __init__(self, dense, s0, coefficients):
        self.dense, self.coefficients = dense, coefficients
        self.blocks = (len(s0),) + s0[0].shape
        self.start = np.stack(s0).reshape(len(s0) * len(s0[0]), -1)
        self.order = slice(None, None, -1) if dense.span[1] < dense.span[0] else slice(None)
        self.converged = False

    def system(self, M, rhs) -> None:
        """Write the collocation system on the current nodes into M and rhs."""
        m, d = len(self.t) - 1, len(self.start)
        ts, A = self.t[self.order], self.coefficients(self.frames)[self.order]
        half = 0.5 * (ts[-1] - ts[0])
        Q = _integration_matrix(m)
        # (I - half (Q x I) blockdiag(A)) S = 1 x s0 over the nodes after the
        # first, where S is s0 itself; row (j, a), column (k, b) is Q_jk A_k[a, b]
        np.multiply(-half * Q[1:, None, 1:, None], A[1:].transpose(1, 0, 2),
                    out=M.reshape(m, d, m, d))
        M[np.diag_indices(m * d)] += 1.0
        rhs[:] = (self.start + half * Q[1:, 0, None, None] * (A[0] @ self.start)).reshape(m * d, -1)

    def solved(self, X) -> None:
        """Take the solution X at the nodes after the first and test its tail against rtol."""
        self.S = np.concatenate([self.start[None], X.reshape((-1,) + self.start.shape)])
        self.converged = _ChebyshevTable._converged(self.S, self.dense.rtol)

    def curve(self) -> _ChebyshevCurve:
        """The solution's dense output: one segment whose rows are the blocks."""
        table = _ChebyshevTable(self.t[self.order], self.S.reshape((len(self.t),) + self.blocks))
        return _ChebyshevCurve([table], self.dense.rtol, self.dense.src)


def _solve(flows) -> None:
    """One stacked ``np.linalg.solve`` of the collocation systems of flows
    with the same node count and block shape, each written into the stack."""
    m, (d, c) = len(flows[0].t) - 1, flows[0].start.shape
    M, rhs = np.empty((len(flows), m * d, m * d)), np.empty((len(flows), m * d, c))
    for flow, Mk, rk in zip(flows, M, rhs):
        flow.system(Mk, rk)
    for flow, X in zip(flows, np.linalg.solve(M, rhs)):
        flow.solved(X)


def _collocation_flow(coefficients, jobs) -> list:
    """Solve linear ODEs s' = A(t) s along geodesics by spectral
    collocation on the nodes of each geodesic's frame levels.

    ``jobs`` lists (dense output, initial blocks) pairs from ``_flow_jobs``:
    blocks of one shape, (n,) or (n, m), at time 0, where the geodesic
    starts (a level's last node on a backward geodesic).
    ``coefficients(frames)`` maps level values (k, 3, n, n) of (Gx, N, R) to
    A (k, d, d), d = n * len(s0). The Picard fixed point S = s0 + integral
    of A S is one linear solve at the nodes. One loop runs over the levels,
    m = 16, 32, ... intervals (``_frame_levels``, one batched frame over the
    geodesics whose flows go on); at each, the flows whose geodesic is
    resolved there are one stacked ``np.linalg.solve``, and those whose
    Chebyshev tail is above their geodesic's ``rtol`` go on to 2m. Past
    ``_TABLE_MAX_INTERVALS`` the first flow of the list still going raises
    ``NoConvergence``. Returns each solution's dense output over its
    geodesic's span, one segment whose rows are (len(s0),) + block shape.
    """
    flows = [_LinearFlow(dense, s0, coefficients) for dense, s0 in jobs]
    active, m = flows, _TABLE_INTERVALS
    while active:
        _frame_levels([flow.dense for flow in active], m)
        resolved = []
        for flow in active:
            flow.t, flow.frames, ready = flow.dense._levels[m]
            if ready:
                resolved.append(flow)
        if resolved:
            _solve(resolved)
        active = [flow for flow in active if not flow.converged]
        if active and m >= _TABLE_MAX_INTERVALS:
            flow = active[0]
            what = "linear flow" if flow.dense._levels[m][2] else "frame table"
            raise NoConvergence(f"{what} not resolved to rtol {flow.dense.rtol:.1e} with {m} "
                                f"Chebyshev intervals on [{flow.t[0]:.6g}, {flow.t[-1]:.6g}]")
        m *= 2
    return [flow.curve() for flow in flows]


def _on_grid(flows, geos) -> list:
    """Each collocated flow's blocks at its geodesic's grid, (len(s0), N) + block shape."""
    return [np.moveaxis(v, -1, 1) for v in _sample(flows, [geo.grid for geo in geos])]


def _jacobi_coefficients(frames):
    """A = [[-N, I], [-R, -N]] of the Jacobi system in (J, K), from (Gx, N, R) rows."""
    N, R = frames[:, 1], frames[:, 2]
    return np.block([[-N, np.broadcast_to(np.eye(N.shape[-1]), N.shape)], [-R, -N]])


def jacobi_integrate(src, geo, J0, J0dot):
    """Integrate the Jacobi equation D^2 J + R(J) = 0 along a geodesic.

    First-order form in (J, K = covariant derivative of J), a linear system
    J' = K - N J, K' = -R J - N K whose coefficients come from a frame table
    of N and R along the geodesic, solved by collocation on the table's
    nodes. ``J0dot`` is the initial covariant derivative. ``J0`` and
    ``J0dot`` have shape (n,), or (n, m) for m fields solved as the columns
    of one system; ``vectors`` and ``covariant_derivative`` then have shape
    (N, n, m). The initial values hold at time 0, where the geodesic starts.
    ``geo`` may also be the list of B geodesics of one ``integrate_geodesic``
    batch, with ``J0`` and ``J0dot`` of shape (B, n) or (B, n, m): the
    result is then a list of B fields, each bitwise its own single call.
    Raises ``NoConvergence`` when the table, or the field, is not resolved
    to the geodesic's ``rtol``; a batch raises the first error it meets.
    """
    geos, jobs = _flow_jobs(src, geo, J0, J0dot)
    fields = [FieldAlongCurve(grid=g.grid, vectors=J, covariant_derivative=K)
              for g, (J, K) in zip(geos, _on_grid(
                  _collocation_flow(_jacobi_coefficients, jobs), geos))]
    return fields[0] if isinstance(geo, Curve) else fields


def _variation_coefficients(frames):
    """A = [[0, I], [-2 Gx, -2 N]] of the variational equation in (dx, dv), from (Gx, N, R) rows."""
    Gx, N = frames[:, 0], frames[:, 1]
    eye = np.broadcast_to(np.eye(N.shape[-1]), N.shape)
    return np.block([[np.zeros_like(N), eye], [-2.0 * Gx, -2.0 * N]])


def jacobi_variation_oracle(src, geo, u):
    """The Jacobi field along a geodesic with J(0) = 0 and covariant initial
    derivative u, as the derivative of the exponential map.

    Integrates the linearized spray flow, the variational equation of
    x-ddot = -2 G(x, x-dot): dx-ddot = -2 Gx dx - 2 N dx-dot from
    (dx, dx-dot) = (0, u), with Gx = dG/dx and N = dG/dy from the frame
    table along ``geo``, collocated on its nodes at the geodesic's ``rtol``
    as ``jacobi_integrate`` is. It uses neither R nor a connection. ``u``
    has shape (n,) or (n, m); returns dx on ``geo.grid``, shape (N, n) or
    (N, n, m). For a list of B geodesics ``u`` has a leading batch axis and
    the result is a list of B arrays, as in ``jacobi_integrate``.
    """
    u = np.asarray(u, float)
    geos, jobs = _flow_jobs(src, geo, np.zeros(u.shape), u)
    dx = [v[0] for v in _on_grid(_collocation_flow(_variation_coefficients, jobs), geos)]
    return dx[0] if isinstance(geo, Curve) else dx


# the benchmark's tracer rebinds this name (perfbench/tracer.py); the package never calls it
def solve_ivp(*args, **kwargs):
    """scipy's ``solve_ivp``, imported on first call."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def parallel_transport(src, geo, v0):
    """Solve D^{gdot} V/dt = 0, V' = -N V, along a geodesic by collocation
    on its frame table's nodes.

    ``v0`` has shape (n,), or (n, m) to transport m vectors in one system,
    and holds at time 0, where the geodesic starts; ``vectors`` then has
    shape (N, n) or (N, n, m). ``dense`` is the field's Chebyshev dense
    output over the geodesic's span: at an array of N times it gives
    (n, N) or (n, m, N). For a list of B geodesics ``v0`` has a leading
    batch axis and the result is a list of B fields, as in
    ``jacobi_integrate``.
    """
    geos, jobs = _flow_jobs(src, geo, v0)
    Vs = []
    for flow in _collocation_flow(lambda frames: -frames[:, 1], jobs):
        (seg,) = flow.segments
        Vs.append(_ChebyshevCurve([_ChebyshevTable(seg.t, seg.values[:, 0])], flow.rtol, src))
    fields = [FieldAlongCurve(grid=g.grid, vectors=np.moveaxis(v, -1, 0), dense=V)
              for g, V, v in zip(geos, Vs, _sample(Vs, [g.grid for g in geos]))]
    return fields[0] if isinstance(geo, Curve) else fields


# -- second variation -----------------------------------------------------------


def second_variation_formula(ms: MetricSpec, geo: Curve, V: FieldAlongCurve,
                             P1=None, P2=None, lift: LiftSpec | None = None) -> float:
    """Index-form value of eq-style second variation with submanifold ends.

    integral of g(DV, DV) - g(R(V), V) plus the second-fundamental-form
    boundary terms; P1/P2 are (Submanifold, param) pairs or None for fixed
    endpoints (where V must vanish), at the lower end of the span first.
    ``geo`` is a geodesic of ``ms`` from ``integrate_geodesic`` and
    ``V.dense`` maps N times to the field there, (n, N); another curve or a
    field without one is a ``GridError``. The state and V are resolved
    together at the geodesic's ``rtol``; one order-4 frame over those nodes
    serves the integrand and the boundary terms (the end nodes are the
    span's ends exactly), D^W V is ``covariant_derivative_curve`` there, and
    the sum is Clenshaw-Curtis.
    """
    from .submanifolds import sff_connection

    if lift is None:
        lift = classical_lift("berwald", ms)
    dense = _solved(geo, ms)
    if getattr(V, "dense", None) is None:
        raise GridError("the variation field needs a dense output: times t -> vectors (n, N)")
    n = ms.dim

    def sample(t):
        field = np.asarray(V.dense(t), float)
        if field.shape != (n, len(t)):
            raise GridError(f"the variation field's dense output must map {len(t)} times to "
                            f"an ({n}, {len(t)}) array, got shape {field.shape}")
        return np.concatenate([dense(t), field]).T

    t, values = _resolved(sample, dense.span, dense.rtol)
    curve = Curve(t, values[:, :n], values[:, n:2 * n])
    vectors = values[:, 2 * n:]

    # one order-4 frame over the nodes, read again by covariant_derivative_curve;
    # its g at the ends serves the normality checks
    frames = PointFrame(ms, TangentVector(curve.points, curve.velocities), order=4)
    boundary = 0.0
    for which, endpoint, sign in (("start", P1, -1.0), ("end", P2, +1.0)):
        idx = 0 if which == "start" else -1
        vel, vend = curve.velocities[idx], vectors[idx]
        if endpoint is None:
            if np.linalg.norm(vend) > 1e-6:
                raise NormalityViolation(
                    f"fixed-endpoint variation must vanish at the {which} (|V|={np.linalg.norm(vend):.2e})")
            continue
        sub, param = endpoint
        imm = sub._immersion(param)   # one lift for the checks and the boundary term
        basis = imm.basis
        if np.max(np.abs(imm.x - curve.points[idx])) > 1e-8:
            raise NormalityViolation(f"{which} submanifold does not pass through the endpoint")
        normality = np.max(np.abs(basis.T @ (frames.g[idx] @ vel)))
        if normality > 1e-6:
            raise NormalityViolation(
                f"geodesic is not normal to the {which} submanifold (residual {normality:.2e})")
        coeffs, res, *_ = np.linalg.lstsq(basis, vend, rcond=None)
        if np.max(np.abs(basis @ coeffs - vend)) > 1e-6:
            raise NormalityViolation(f"variation field is not tangent at the {which} submanifold")
        boundary += sign * sff_connection(sub, param, vel, coeffs, coeffs, ms, lift=lift,
                                          _immersion=imm)

    W = FieldAlongCurve(grid=t, vectors=curve.velocities)
    DV = covariant_derivative_curve(lift, ms, curve, W, FieldAlongCurve(t, vectors)).vectors
    RV = np.einsum("...ij,...j->...i", frames.R, vectors)
    vals = (np.einsum("...i,...ij,...j->...", DV, frames.g, DV)
            - np.einsum("...i,...ij,...j->...", RV, frames.g, vectors))
    # the last row of the integration matrix is the Clenshaw-Curtis rule
    return float(0.5 * (t[-1] - t[0]) * (_integration_matrix(len(t) - 1)[-1] @ vals) + boundary)


def _family_jets(ms: MetricSpec, fam: VariationFamily, order: int) -> tuple[np.ndarray, Jet]:
    """The nodes t of [0, 1] where the family's points, jets of ``order`` in s
    about 0, are resolved to ``DEFAULT_RTOL``, and those points, (N, n)."""
    sp = space_for(1, order)
    s = sp.coordinates(np.zeros(1))[0]

    def sample(t):
        points = 0.0 * s + fam.rule(s, t)
        if points.shape != (len(t), ms.dim):
            raise ValueError(f"a variation rule must map {len(t)} times to an "
                             f"({len(t)}, {ms.dim}) array, got shape {points.shape}")
        return points.c

    t, c = _resolved(sample, (0.0, 1.0), DEFAULT_RTOL)
    return t, Jet(sp, c)


def variation_energy_derivatives(ms: MetricSpec, fam: VariationFamily) -> tuple[float, float]:
    """(d/ds, d^2/ds^2) of s -> E(lambda_s) at s = 0, exact in s.

    The rule runs at an order-2 jet in s on the nodes of [0, 1] where that
    jet is resolved; the velocities are its spectral t-derivative, F^2 is
    evaluated on the point and velocity jets, and Clenshaw-Curtis sums each
    coefficient of E = (1/2) integral of F^2.
    """
    t, points = _family_jets(ms, fam, 2)
    # component axis first, so that F^2 receives one jet over the nodes per coordinate
    xs, ys = (Jet(points.space, np.moveaxis(c, 1, 0))
              for c in (points.c, _derivative(t, points.c)))
    f2 = ms.f2([xs[i] for i in range(ms.dim)], [ys[i] for i in range(ms.dim)])
    # E's 1/2 times the half-width of [0, 1]
    e = 0.5 * 0.5 * (_integration_matrix(len(t) - 1)[-1] @ f2.c)
    return float(e[1]), float(2.0 * e[2])


def variation_symmetry_residual(ms: MetricSpec, fam: VariationFamily) -> float:
    """Node-wise residual of the covariant-derivative symmetry of a variation,
    D_s T = D_t U with T = dH/dt and U = dH/ds, for the Berwald connection.

    The rule runs at an order-1 jet in s on the nodes of [0, 1] where that
    jet is resolved, so U is exact and d/ds of T and d/dt of U are one
    array, the spectral t-derivative of U; what is left is the torsion
    asymmetry A(U, T) - A(T, U) of the Berwald affine coefficients
    at direction T, zero for every lift that satisfies the torsion
    condition. One order-4 frame batched over the nodes serves every node;
    the residual is the sup over them.
    """
    t, points = _family_jets(ms, fam, 1)
    pts, U = points.c[..., 0], points.c[..., 1]
    T = _derivative(t, pts)
    A = affine_coefficients(classical_lift("berwald", ms), ms, TangentVector(pts, T)).A
    return float(np.max(np.abs(np.einsum("...ijk,...j,...k->...i", A, U, T)
                               - np.einsum("...ijk,...j,...k->...i", A, T, U))))
