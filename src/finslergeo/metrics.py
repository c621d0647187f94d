"""Finsler metrics on coordinate charts: F, fundamental tensor, Cartan tensor.

A metric is specified by its squared norm F^2 as a rule generic over the jet
scalar type; every tensor below is extracted from jets of that single rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NotPositiveDefinite, NullDirection
from .jets import Jet, _any, lift_any, smath
from .rng import SplitMix64

NULL_DIRECTION_TOL = 1e-12
_HOMOGENEITY_SCALES = (0.5, 2.0, 7.0)   # the direction rescalings check_metric compares
COND_LIMIT = 1e12


@dataclass(frozen=True)
class TangentVector:
    """Base point x and fiber direction y in a single chart."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.x.shape != self.y.shape:
            raise ValueError("x and y must have the same dimension")

    @property
    def n(self) -> int:
        """The chart dimension; ``x`` and ``y`` may carry leading batch axes, (..., n)."""
        return self.x.shape[-1]

    @staticmethod
    def stack(ws) -> "TangentVector":
        """One tangent vector batched over a sequence of single ones, (len(ws), n)."""
        return TangentVector(np.array([w.x for w in ws]), np.array([w.y for w in ws]))


@dataclass(frozen=True)
class FundamentalTensor:
    at: TangentVector
    g: np.ndarray


@dataclass(frozen=True)
class CartanTensor:
    at: TangentVector
    C: np.ndarray


class MetricSpec:
    """A Finsler norm on a chart, defined through its generic F^2 rule.

    ``f2(xs, ys)`` receives two lists of scalars (floats or jets) and must
    only use arithmetic and ``smath`` functions. ``domain_margin(x)`` is
    positive inside the validity region of the chart (None: everywhere).
    It takes a batch of points ``x`` of shape (..., n) and returns their
    margins, shape (...); one call checks a whole batch.
    """

    def __init__(self, dim, f2, name="custom", kind="custom", domain_margin=None,
                 sample_radius=1.0):
        self.dim = int(dim)
        self.f2 = f2
        self.name = name
        self.kind = kind
        self.domain_margin = domain_margin
        self.sample_radius = float(sample_radius)

    def __repr__(self):
        return f"MetricSpec({self.name}, dim={self.dim})"

    def check_point(self, x) -> None:
        _check_domain(x, self.domain_margin, self.name)

    def check_tangent(self, w: TangentVector) -> None:
        check_slit_domain(w, self.dim, self.domain_margin, self.name)


def _batch_note(shape, k: int) -> str:
    """Where flat point ``k`` of a batch of ``shape`` is; empty for a single point."""
    if not shape:
        return ""
    return f" at batch index {tuple(int(i) for i in np.unravel_index(k, shape))}"


def require_points(x, what: str) -> None:
    """Refuse an empty batch of points (..., n) where a sup over the points is asked for."""
    if np.size(x) == 0:
        raise ValueError(f"{what} needs at least one point, got an empty batch of shape "
                         f"{np.shape(x)}: a sup over no points is undefined")


def _check_domain(x, domain_margin, name) -> None:
    """Refuse points outside the chart domain (``domain_margin(x) <= 0``).

    ``x`` may carry leading batch axes, (..., n); one margin call checks
    every point, and the message names the first point outside.
    """
    if domain_margin is None:
        return
    x = np.asarray(x, float)
    pts = x.reshape(-1, x.shape[-1])
    outside = np.asarray(domain_margin(pts)) <= 0.0
    if outside.any():
        k = int(np.argmax(np.broadcast_to(outside, len(pts))))
        raise DomainError(f"point {pts[k]} outside validity region of {name}"
                          + _batch_note(x.shape[:-1], k))


def check_slit_domain(w: TangentVector, dim: int, domain_margin, name) -> None:
    """The admissibility rules of a tangent point: its dimension, finite
    coordinates, a nonzero fiber direction (the slit bundle) and the chart
    domain.

    ``w`` may carry leading batch axes; one bad point refuses the batch,
    and the message names the first.
    """
    if w.n != dim:
        raise ValueError(f"dimension mismatch: {name} dim {dim}, vector dim {w.n}")
    # a NaN compares false with every bound below, so it would pass them; the
    # per-point test runs only to name the first bad point (a whole-array
    # .all() here raised the benchmark's peak memory by 0.8 MB)
    if (~np.isfinite(w.x)).any() or (~np.isfinite(w.y)).any():
        bad = ~(np.isfinite(w.x).all(axis=-1) & np.isfinite(w.y).all(axis=-1))
        k = int(np.argmax(bad))
        raise DomainError(f"non-finite tangent point x={w.x.reshape(-1, dim)[k]}, "
                          f"y={w.y.reshape(-1, dim)[k]}" + _batch_note(bad.shape, k))
    null = np.linalg.norm(w.y, axis=-1) < NULL_DIRECTION_TOL
    if _any(null):
        raise NullDirection("fiber direction is numerically zero"
                            + _batch_note(null.shape, int(np.argmax(null))))
    _check_domain(w.x, domain_margin, name)


# -- built-in metrics ----------------------------------------------------------


def euclidean(n: int) -> MetricSpec:
    def f2(xs, ys):
        return smath.dot(ys, ys)

    return MetricSpec(n, f2, name="euclidean", kind="euclidean")


def riemannian(n: int, g_field, name="riemannian", domain_margin=None,
               sample_radius=1.0) -> MetricSpec:
    """Riemannian metric from a generic coefficient field x -> n x n matrix."""

    def f2(xs, ys):
        gm = g_field(xs)
        acc = None
        for i in range(n):
            for j in range(n):
                term = gm[i][j] * ys[i] * ys[j]
                acc = term if acc is None else acc + term
        return acc

    ms = MetricSpec(n, f2, name=name, kind="riemannian", domain_margin=domain_margin,
                    sample_radius=sample_radius)
    ms._g_field = g_field
    return ms


def sphere_stereographic(n: int = 2) -> MetricSpec:
    """Round unit sphere in stereographic chart: g = 4 delta / (1+|x|^2)^2."""

    def g_field(xs):
        r2 = smath.dot(xs, xs)
        conf = 4.0 / ((1.0 + r2) * (1.0 + r2))
        return [[conf if i == j else 0.0 for j in range(n)] for i in range(n)]

    return riemannian(n, g_field, name="sphere_stereographic", sample_radius=1.2)


def _unit_ball_margin(x) -> np.ndarray:
    """1 - |x|^2 at points (..., n): the domain margin of the unit ball."""
    return 1.0 - (x * x).sum(axis=-1)


def poincare_disk(n: int = 2) -> MetricSpec:
    """Hyperbolic space in the Poincare ball: g = 4 delta / (1-|x|^2)^2."""

    def g_field(xs):
        r2 = smath.dot(xs, xs)
        conf = 4.0 / ((1.0 - r2) * (1.0 - r2))
        return [[conf if i == j else 0.0 for j in range(n)] for i in range(n)]

    return riemannian(n, g_field, name="poincare_disk", domain_margin=_unit_ball_margin,
                      sample_radius=0.6)


def randers(n: int, beta, name="randers") -> MetricSpec:
    """Randers metric F = |y| + b(x).y.

    ``beta``: constant covector of length n (any other length raises
    ``ValueError``) or generic rule xs -> list of n scalars.
    Validity (the Randers condition |b| < 1) is *not* enforced here; it
    surfaces as positive-definiteness failures during checks.
    """
    if not callable(beta):
        bconst = [float(v) for v in beta]
        if len(bconst) != n:
            raise ValueError(f"randers: constant beta has {len(bconst)} entries, dimension is {n}")
        beta_rule = lambda xs: bconst
    else:
        beta_rule = beta

    def f2(xs, ys):
        froot = smath.sqrt(smath.dot(ys, ys)) + smath.dot(beta_rule(xs), ys)
        return froot * froot

    return MetricSpec(n, f2, name=name, kind="randers")


def funk(n: int = 2) -> MetricSpec:
    """Funk metric of the unit ball (non-reversible, flag curvature -1/4)."""

    def f2(xs, ys):
        xy = smath.dot(xs, ys)
        y2 = smath.dot(ys, ys)
        x2 = smath.dot(xs, xs)
        froot = (smath.sqrt(xy * xy + y2 * (1.0 - x2)) + xy) / (1.0 - x2)
        return froot * froot

    return MetricSpec(n, f2, name="funk", kind="funk", domain_margin=_unit_ball_margin,
                      sample_radius=0.6)


def custom(n: int, f2, name="custom", domain_margin=None) -> MetricSpec:
    """A metric from any generic F^2 rule; ``domain_margin`` maps points
    (..., n) to margins (...), as on ``MetricSpec``."""
    return MetricSpec(n, f2, name=name, kind="custom", domain_margin=domain_margin)


# -- tensor operations ---------------------------------------------------------


def _f2_y_jet(ms: MetricSpec, x, y, order: int) -> Jet:
    """Jet of y -> F^2(x, y) at y (x held fixed).

    ``x`` and ``y`` may carry leading batch axes, (..., n): the F^2 rule
    then runs once, on x as float arrays over the batch and on y-jets that
    carry it, and each point is bitwise equal to its own single-point jet.
    """
    xs = list(np.moveaxis(np.asarray(x, float), -1, 0))
    return lift_any(lambda ys: ms.f2(xs, ys), np.asarray(y, float), order)


def metric_value(ms: MetricSpec, w: TangentVector):
    """F(w) > 0 on the slit bundle, where g_w is positive definite.

    The strong-convexity test refuses a point where F < 0 although F^2 > 0,
    as it does in ``fundamental_tensor``; F^2 is the value part of the
    same y-jet. The value parts of sqrt, exp, log, sin and cos of a jet are
    the float functions of its value part, and that of 1/b is fl(1/b0), so
    a rule of +, -, * and these functions gives F^2 as its float evaluation
    (up to the sign of a zero). A quotient a / b of a y-dependent b has the
    value part a0 fl(1/b0), not fl(a0 / b0), and an integer power above 2 is
    repeated multiplication, not pow; either can differ from a float
    evaluation in the last bits. ``w`` may carry
    leading batch axes: F then has shape (...), one rule evaluation on jets
    over the batch, and each point is bitwise equal to its own single call
    (a float).
    """
    ms.check_tangent(w)
    jet = _f2_y_jet(ms, w.x, w.y, 2)
    require_positive_definite(0.5 * jet.derivative(2), w.x, w.y)
    v = jet.value
    bad = v <= 0.0
    if _any(bad):
        k = int(np.argmax(bad))
        raise DomainError(f"F^2(w) = {np.ravel(v)[k]} <= 0; invalid metric or point"
                          + _batch_note(bad.shape, k))
    F = np.sqrt(v)
    return float(F) if F.ndim == 0 else F


def _not_positive_definite(g: np.ndarray):
    """Whether each g of a batch (..., n, n) fails the strong-convexity test."""
    ev = np.linalg.eigvalsh(g).T  # eigenvalues first, batch axes reversed
    return (ev[0] <= ev[-1] / COND_LIMIT).T


def require_positive_definite(g: np.ndarray, x, y) -> None:
    """The package's one strong-convexity test: refuse the fundamental tensor
    g at (x, y) unless its smallest eigenvalue exceeds its largest / COND_LIMIT.

    ``g`` may carry leading batch axes, (..., n, n), matching those of
    ``x`` and ``y``; one failing point refuses the batch, and the message
    names the first such point.
    """
    bad = _not_positive_definite(g)
    if _any(bad):
        at = np.unravel_index(np.argmax(bad), bad.shape)
        x, y = np.asarray(x, float)[at], np.asarray(y, float)[at]
        raise NotPositiveDefinite(
            f"fundamental tensor indefinite or near-degenerate at x={x}, y={y}")


def _legendre(ms: MetricSpec, x, y):
    """(xi, g) at (x, y): the Legendre covector g_y(y, .), half the fiber
    gradient of F^2, and the fundamental tensor g_y, half its fiber Hessian.

    One order-2 y-jet gives both; g is checked positive definite. ``x`` and
    ``y`` may carry leading batch axes, (..., n).
    """
    jet = _f2_y_jet(ms, x, y, 2)
    g = 0.5 * jet.derivative(2)
    require_positive_definite(g, x, y)
    return 0.5 * jet.derivative(1), g


def fundamental_tensor(ms: MetricSpec, w: TangentVector) -> FundamentalTensor:
    """g_w = half the fiber Hessian of F^2 at w; checked positive definite."""
    ms.check_tangent(w)
    return FundamentalTensor(w, _legendre(ms, w.x, w.y)[1])


def cartan_tensor(ms: MetricSpec, w: TangentVector) -> CartanTensor:
    """Fully symmetric C_w(u,v,z) = (1/4) third fiber derivative of F^2.

    The order-3 jet also holds g_w, which is checked positive definite as
    in ``fundamental_tensor``.
    """
    ms.check_tangent(w)
    jet = _f2_y_jet(ms, w.x, w.y, 3)
    require_positive_definite(0.5 * jet.derivative(2), w.x, w.y)
    return CartanTensor(w, 0.25 * jet.derivative(3))


# -- metric validation ----------------------------------------------------------


@dataclass
class MetricValidationReport:
    metric: str
    samples: int
    seed: int
    homogeneity_max: float = 0.0
    gww_identity_max: float = 0.0
    pd_failures: int = 0
    failures: list = field(default_factory=list)

    def passed(self) -> bool:
        """No positive-definiteness failure, and both residuals below 1e-10."""
        return (self.pd_failures == 0 and self.homogeneity_max < 1e-10
                and self.gww_identity_max < 1e-10)

    def rows(self):
        return [
            ("homogeneity_max", self.homogeneity_max),
            ("gww_identity_max", self.gww_identity_max),
            ("pd_failures", float(self.pd_failures)),
        ]


def random_tangent(ms: MetricSpec, rng: SplitMix64) -> TangentVector:
    """Random admissible chart point, in the box of half-width
    ``ms.sample_radius``, and direction for sweeps."""
    if not isinstance(ms, MetricSpec):
        raise TypeError(f"random tangent sampling requires a metric, got {ms!r}")
    r = ms.sample_radius
    for _ in range(1000):
        x = rng.vector(ms.dim, -r, r)
        if ms.domain_margin is None or ms.domain_margin(x) > 0.05:
            break
    else:
        raise DomainError(f"could not sample an admissible point for {ms.name}")
    y = rng.direction(ms.dim)
    return TangentVector(x, y)


def _f2_values(ms: MetricSpec, x, y) -> np.ndarray:
    """F^2 at every point of a batch (N, n), one rule evaluation; NaN at a
    point where the rule leaves its domain (then the points go one by one)."""
    try:
        return np.broadcast_to(np.asarray(ms.f2(list(x.T), list(y.T)), float), len(x))
    except DomainError:
        out = np.full(len(x), np.nan)
        for k, (xk, yk) in enumerate(zip(x, y)):
            try:
                out[k] = ms.f2(list(xk), list(yk))
            except DomainError:
                pass
        return out


def check_metric(ms: MetricSpec, samples: int, seed: int) -> MetricValidationReport:
    """Sweep homogeneity (at the rescalings ``_HOMOGENEITY_SCALES``), positive
    definiteness and F^2 = g_w(w,w).

    The samples are drawn first. F^2 at every sample and rescaled direction
    is one evaluation and g at every sample one y-jet; failures are then
    counted point by point, in sample order, never raised.
    """
    rng = SplitMix64(seed)
    rep = MetricValidationReport(metric=ms.name, samples=samples, seed=seed)
    w = TangentVector.stack([random_tangent(ms, rng) for _ in range(samples)])
    scales = (1.0, *_HOMOGENEITY_SCALES)
    f2 = _f2_values(ms, np.tile(w.x, (len(scales), 1)),
                    np.concatenate([lam * w.y for lam in scales])).reshape(len(scales), -1)
    fvals = np.sqrt(np.where(f2 > 0.0, f2, np.nan))
    # g where F > 0 at every scale; elsewhere the point is a domain error
    ok = ~np.isnan(fvals).any(axis=0)
    g = np.empty((samples, ms.dim, ms.dim))
    indefinite = np.zeros(samples, bool)
    if ok.any():
        g[ok] = 0.5 * _f2_y_jet(ms, w.x[ok], w.y[ok], 2).derivative(2)
        indefinite[ok] = _not_positive_definite(g[ok])
    for k in range(samples):
        x, y = w.x[k], w.y[k]
        fval = fvals[0, k]
        if np.isnan(fval):
            rep.failures.append(("domain_error", x.tolist(), y.tolist()))
            continue
        for lam, fl in zip(_HOMOGENEITY_SCALES, fvals[1:, k]):
            if np.isnan(fl):
                break
            rep.homogeneity_max = max(rep.homogeneity_max, abs(fl - lam * fval) / max(1.0, lam))
        if not ok[k]:
            rep.failures.append(("domain_error", x.tolist(), y.tolist()))
        elif indefinite[k]:
            rep.pd_failures += 1
            rep.failures.append(("not_positive_definite", x.tolist(), y.tolist()))
        else:
            rep.gww_identity_max = max(rep.gww_identity_max, abs(y @ g[k] @ y - fval ** 2))
    return rep
