import inspect
import re

import numpy as np
import pytest
from oracles import dop853_linear_flow, exp_map_jacobi_difference
from scipy.integrate import solve_ivp
from test_spray import _randers_var_closed_form_spray

from finslergeo import metrics, spray, variational
from finslergeo.errors import (DomainExit, GridError, NoConvergence,
                               NormalityViolation, NullDirection)
from finslergeo.jets import Jet, smath
from finslergeo.metrics import (TangentVector, fundamental_tensor,
                                metric_value, random_tangent)
from finslergeo.rng import SplitMix64
from finslergeo.spray import PointFrame
from finslergeo.submanifolds import affine_subspace, circle
from finslergeo.variational import (DEFAULT_ATOL, DEFAULT_RTOL, Curve,
                                    FieldAlongCurve, VariationFamily, _ChebyshevTable,
                                    geodesic_residual, integrate_geodesic,
                                    jacobi_integrate, jacobi_variation_oracle,
                                    parallel_transport,
                                    second_variation_formula,
                                    variation_energy_derivatives,
                                    variation_symmetry_residual)


def unit_tangent(ms, w):
    return TangentVector(w.x, w.y / metric_value(ms, w))


def g_norm(ms, x, y, v):
    g = PointFrame(ms, TangentVector(x, y), order=2).g
    return float(np.sqrt(v @ g @ v))


# -- geodesics -------------------------------------------------------------------


def test_euclidean_straight_line(euclid2):
    geo = integrate_geodesic(euclid2, TangentVector([0, 0], [1, 0]), 1.0)
    assert np.allclose(geo.points[-1], [1.0, 0.0], atol=1e-12)
    assert geodesic_residual(euclid2, geo) < 1e-12


@pytest.mark.parametrize("name", ["sphere", "poincare", "funk", "randers_var"])
def test_geodesic_defect_within_tolerance(name, request):
    ms = request.getfixturevalue(name)
    rng = SplitMix64(14)
    for _ in range(3):
        w = unit_tangent(ms, random_tangent(ms, rng))
        geo = integrate_geodesic(ms, w, 1.0)
        assert geodesic_residual(ms, geo) < 1e-8  # 10x default tolerance


def test_sphere_speed_conservation(sphere):
    w = unit_tangent(sphere, TangentVector([0.1, 0.2], [0.5, -0.3]))
    geo = integrate_geodesic(sphere, w, 2.0)
    vals = [metric_value(sphere, TangentVector(geo.points[i], geo.velocities[i]))
            for i in range(0, 401, 20)]
    assert max(vals) - min(vals) < 1e-8


def test_funk_rays_from_center(funk):
    geo = integrate_geodesic(funk, TangentVector([0, 0], [0.3, 0.4]), 1.5)
    d = np.array([0.3, 0.4])
    for i in range(1, 401, 40):
        p = geo.points[i]
        assert abs(p[0] * d[1] - p[1] * d[0]) < 1e-12  # collinear with the start ray
    # the small-time direction limit is the initial direction
    small = geo.points[4] / np.linalg.norm(geo.points[4])
    assert np.max(np.abs(small - d / np.linalg.norm(d))) < 1e-6


def test_domain_exit_and_exp(euclid2, randers_const):
    from finslergeo.metrics import custom
    from finslergeo.jets import smath

    disk = custom(2, lambda xs, ys: smath.dot(ys, ys), name="euclidean_disk",
                  domain_margin=lambda x: 1.0 - (x * x).sum(axis=-1))
    with pytest.raises(DomainExit):
        integrate_geodesic(disk, TangentVector([0.0, 0.0], [1.0, 0.0]), 5.0)

    def endpoint(ms, x0, v, t):
        return integrate_geodesic(ms, TangentVector(x0, v), t, nodes=5).points[-1]

    assert np.allclose(endpoint(euclid2, [0.2, -0.5], [0.3, 0.4], 2.0), [0.8, 0.3], atol=1e-12)
    a = endpoint(randers_const, [0.1, 0.2], [1.2, 0.6], 0.5)
    b = endpoint(randers_const, [0.1, 0.2], [0.6, 0.3], 1.0)
    assert np.max(np.abs(a - b)) < 1e-8


def test_domain_margin_is_called_once_per_batch():
    from finslergeo.errors import DomainError
    from finslergeo.jets import smath
    from finslergeo.metrics import custom

    shapes = []

    def margin(x):
        shapes.append(x.shape)
        return 1.0 - (x * x).sum(axis=-1)

    disk = custom(2, lambda xs, ys: smath.dot(ys, ys), name="euclidean_disk",
                  domain_margin=margin)
    with pytest.raises(DomainError, match=re.escape(
            "point [1.2 0. ] outside validity region of euclidean_disk at batch index (1, 0)")):
        disk.check_point([[[0.1, 0.2], [0.3, 0.1]], [[1.2, 0.0], [2.0, 0.0]]])
    assert shapes == [(4, 2)]
    shapes.clear()
    integrate_geodesic(disk, TangentVector([0.0, 0.0], [0.5, 0.2]), 1.0)
    # the start point, then one call per iterate over all of its nodes
    assert shapes[0] == (1, 2) and len(shapes) > 1 and all(s[0] >= 17 for s in shapes[1:])


# -- curves ----------------------------------------------------------------------


def test_curve_refuses_a_zero_velocity():
    grid = np.linspace(0, 1, 401)
    vel = np.stack([np.ones_like(grid), np.zeros_like(grid)], 1)
    vel[200] = 0.0
    with pytest.raises(NullDirection):
        Curve(grid, np.stack([grid, np.zeros_like(grid)], 1), vel)


# -- Jacobi fields ---------------------------------------------------------------


def test_jacobi_euclidean_linear(euclid2):
    geo = integrate_geodesic(euclid2, TangentVector([0, 0], [1.0, 0.3]), 1.0)
    J = jacobi_integrate(euclid2, geo, [0, 0], [0.2, 1.0])
    assert np.max(np.abs(J.vectors - np.outer(geo.grid, [0.2, 1.0]))) < 1e-12
    oracle = jacobi_variation_oracle(euclid2, geo, [0.2, 1.0])
    assert np.max(np.abs(oracle - J.vectors)) < 1e-9


def test_jacobi_sphere_sine_profile(sphere):
    x0 = np.array([0.0, 0.0])
    y0 = np.array([0.5, 0.0])
    w0 = unit_tangent(sphere, TangentVector(x0, y0))
    g0 = fundamental_tensor(sphere, w0).g
    u = np.array([0.0, 1.0])
    u = u / np.sqrt(u @ g0 @ u)
    geo = integrate_geodesic(sphere, w0, 2.0)
    J = jacobi_integrate(sphere, geo, [0, 0], u)
    for i in range(0, 401, 25):
        nrm = g_norm(sphere, geo.points[i], geo.velocities[i], J.vectors[i])
        assert abs(nrm - abs(np.sin(geo.grid[i]))) < 1e-5


def test_jacobi_funk_sinh_profile(funk):
    w0 = unit_tangent(funk, TangentVector([0.1, 0.05], [0.4, 0.1]))
    g0 = fundamental_tensor(funk, w0).g
    u = np.array([-w0.y[1], w0.y[0]])
    u = u - (u @ g0 @ w0.y) / (w0.y @ g0 @ w0.y) * w0.y
    u = u / np.sqrt(u @ g0 @ u)
    geo = integrate_geodesic(funk, w0, 1.0)
    J = jacobi_integrate(funk, geo, [0, 0], u)
    for i in range(0, 401, 40):
        nrm = g_norm(funk, geo.points[i], geo.velocities[i], J.vectors[i])
        assert abs(nrm - 2.0 * np.sinh(geo.grid[i] / 2.0)) < 1e-3


@pytest.mark.parametrize("name", ["sphere", "randers_var"])
def test_jacobi_oracle_agreement(name, request):
    ms = request.getfixturevalue(name)
    rng = SplitMix64(77)
    for _ in range(3):
        w0 = unit_tangent(ms, random_tangent(ms, rng))
        u = rng.direction(2)
        geo = integrate_geodesic(ms, w0, 1.0)
        J = jacobi_integrate(ms, geo, [0, 0], u)
        oracle = jacobi_variation_oracle(ms, geo, u)
        assert np.max(np.abs(J.vectors - oracle)) < 1e-7


@pytest.mark.parametrize("name", ["sphere", "randers_var"])
def test_linearized_flow_oracle_matches_exponential_map_difference(name, request):
    ms = request.getfixturevalue(name)
    rng = SplitMix64(78)
    for _ in range(3):
        w0 = unit_tangent(ms, random_tangent(ms, rng))
        u = rng.direction(2)
        geo = integrate_geodesic(ms, w0, 1.0)
        oracle = jacobi_variation_oracle(ms, geo, u)
        assert np.max(np.abs(oracle - exp_map_jacobi_difference(ms, w0, u, geo.grid))) <= 1e-5
        both = jacobi_variation_oracle(ms, geo, np.column_stack([u, 2.0 * u]))
        assert both.shape == (len(geo.grid), 2, 2)
        assert np.max(np.abs(both[:, :, 1] - 2.0 * oracle)) < 1e-7


def test_linearized_flow_oracle_needs_a_geodesic(euclid2):
    grid = np.linspace(0, 1, 101)
    pts = np.stack([grid, grid ** 2], axis=1)
    vel = np.stack([np.ones_like(grid), 2 * grid], axis=1)
    with pytest.raises(GridError):
        jacobi_variation_oracle(euclid2, Curve(grid, pts, vel), [1, 0])


def test_jacobi_requires_geodesic(euclid2):
    grid = np.linspace(0, 1, 101)
    pts = np.stack([grid, grid ** 2], axis=1)  # a parabola is not a geodesic
    vel = np.stack([np.ones_like(grid), 2 * grid], axis=1)
    with pytest.raises(GridError):
        jacobi_integrate(euclid2, Curve(grid, pts, vel), [0, 0], [1, 0])


# -- parallel transport ------------------------------------------------------------


def test_transport_euclidean_constant(euclid2):
    geo = integrate_geodesic(euclid2, TangentVector([0, 0], [1, 0.2]), 1.0)
    pt = parallel_transport(euclid2, geo, [0.3, 0.7])
    assert np.max(np.abs(pt.vectors - np.array([0.3, 0.7]))) < 1e-12


@pytest.mark.parametrize("name,tspan", [("sphere", 3.0), ("randers_var", 1.5)])
def test_transport_isometry(name, tspan, request):
    ms = request.getfixturevalue(name)
    w0 = unit_tangent(ms, TangentVector([0.1, -0.05], [0.6, 0.45]))
    geo = integrate_geodesic(ms, w0, tspan)
    pt = parallel_transport(ms, geo, [1.0, 0.5])
    vals_vv, vals_vw = [], []
    for i in range(0, 401, 40):
        g = PointFrame(ms, TangentVector(geo.points[i], geo.velocities[i]), order=2).g
        vals_vv.append(pt.vectors[i] @ g @ pt.vectors[i])
        vals_vw.append(pt.vectors[i] @ g @ geo.velocities[i])
    assert max(vals_vv) - min(vals_vv) < 1e-7
    assert max(vals_vw) - min(vals_vw) < 1e-7


# -- first and second variation -----------------------------------------------------


def _field(rule):
    """A field along a curve from its rule t -> (N, n): samples at no grid, and the dense output."""
    return FieldAlongCurve(np.zeros(0), np.zeros((0, 2)), dense=lambda t: rule(t).T)


def test_second_variation_euclidean_analytic(euclid2):
    # H(s, t) = (t, s sin(pi t)), exact in s and spectral in t: the prototype read 2.2e-15
    fam = VariationFamily(rule=lambda s, t: np.stack([t, 0 * t], axis=-1)
                          + s * np.stack([0 * t, np.sin(np.pi * t)], axis=-1))
    d1v, d2 = variation_energy_derivatives(euclid2, fam)
    assert abs(d2 - np.pi ** 2 / 2) <= 1e-13 * np.pi ** 2 / 2
    assert d1v == 0.0

    geo = integrate_geodesic(euclid2, TangentVector([0.0, 0.0], [1.0, 0.0]), 1.0)
    V = _field(lambda t: np.stack([np.zeros_like(t), np.sin(np.pi * t)], 1))
    val = second_variation_formula(euclid2, geo, V)
    assert abs(val - np.pi ** 2 / 2) <= 1e-12


def test_second_variation_refuses_a_hand_built_curve_or_a_field_without_dense(euclid2, sphere):
    # the formula resolves the geodesic's dense output, which a hand-built curve lacks
    geo = integrate_geodesic(euclid2, TangentVector([0.0, 0.0], [1.0, 0.0]), 1.0)
    V = _field(lambda t: np.stack([np.zeros_like(t), np.sin(np.pi * t)], 1))
    hand = Curve(geo.grid, geo.points, geo.velocities)
    with pytest.raises(GridError, match="integrate_geodesic"):
        second_variation_formula(euclid2, hand, V)
    with pytest.raises(GridError, match="not a geodesic of"):
        second_variation_formula(sphere, geo, V)
    samples_only = FieldAlongCurve(geo.grid, np.stack([np.zeros(401), np.sin(np.pi * geo.grid)], 1))
    with pytest.raises(GridError, match="dense output"):
        second_variation_formula(euclid2, geo, samples_only)
    with pytest.raises(GridError, match=r"\(2, 17\) array, got shape \(17, 2\)"):
        second_variation_formula(euclid2, geo, FieldAlongCurve(
            geo.grid, samples_only.vectors,
            dense=lambda t: np.stack([np.zeros_like(t), np.sin(np.pi * t)], 1)))


@pytest.mark.parametrize("nodes", [400, 402])
def test_second_variation_refuses_an_even_node_count(euclid2, nodes):
    # Simpson weights on 400 nodes used to give 4.91831, 3.3e-3 off pi^2 / 2; the formula
    # no longer sums the samples, so a field given only on an even grid has no value
    geo = integrate_geodesic(euclid2, TangentVector([0.0, 0.0], [1.0, 0.0]), 1.0, nodes=nodes)
    V = FieldAlongCurve(geo.grid, np.stack([np.zeros(nodes), np.sin(np.pi * geo.grid)], 1))
    with pytest.raises(GridError, match="dense output"):
        second_variation_formula(euclid2, geo, V)
    # the same geodesic with the field's dense output: the node count plays no part
    dense = _field(lambda t: np.stack([np.zeros_like(t), np.sin(np.pi * t)], 1))
    assert abs(second_variation_formula(euclid2, geo, dense) - np.pi ** 2 / 2) <= 1e-12
    # 401 nodes, not uniform, hand-built
    geo = Curve(np.linspace(0, 1, 401) ** 2, np.zeros((401, 2)), np.tile([1.0, 0.0], (401, 1)))
    with pytest.raises(GridError, match="integrate_geodesic"):
        second_variation_formula(euclid2, geo, dense)


def test_second_variation_refuses_a_kinked_field(euclid2):
    # |t - 1/2| is not resolved at 256 intervals: no number instead of a wrong one
    geo = integrate_geodesic(euclid2, TangentVector([0.0, 0.0], [1.0, 0.0]), 1.0)
    V = _field(lambda t: np.stack([np.zeros_like(t), 0.5 - np.abs(t - 0.5)], 1))
    with pytest.raises(NoConvergence, match="256 Chebyshev intervals"):
        second_variation_formula(euclid2, geo, V)
    fam = VariationFamily(rule=lambda s, t: np.stack([t, 0 * t], axis=-1)
                          + s * np.stack([0 * t, 0.5 - np.abs(t - 0.5)], axis=-1))
    with pytest.raises(NoConvergence, match="256 Chebyshev intervals"):
        variation_energy_derivatives(euclid2, fam)


def test_second_variation_circle_endpoint_analytic(euclid2):
    # P1 = unit circle through the origin centered below it, P2 = top line;
    # vertical unit-speed geodesic between them; d2E/ds2 = +1 exactly.
    circ = circle([0.0, -1.0], 1.0)
    line = affine_subspace([0.0, 1.0], [[1.0, 0.0]])
    geo = integrate_geodesic(euclid2, TangentVector([0.0, 0.0], [0.0, 1.0]), 1.0)
    V = _field(lambda t: np.stack([np.ones_like(t), np.zeros_like(t)], 1))
    val = second_variation_formula(euclid2, geo, V,
                                   P1=(circ, [np.pi / 2]), P2=(line, [0.0]))
    assert abs(val - 1.0) <= 1e-12
    # H(s, t) = (sin s, (1 - t)(cos s - 1) + t), written once for floats and jets in s
    fam = VariationFamily(
        rule=lambda s, t: smath.sin(s) * np.array([1.0, 0.0])
        + ((1 - t) * (smath.cos(s) - 1) + t)[..., None] * np.array([0.0, 1.0]))
    assert abs(variation_energy_derivatives(euclid2, fam)[1] - 1.0) <= 1e-13


def test_second_variation_fixed_endpoint_guard(euclid2):
    geo = integrate_geodesic(euclid2, TangentVector([0.0, 0.0], [1.0, 0.0]), 1.0)
    V = _field(lambda t: np.stack([np.ones_like(t), np.zeros_like(t)], 1))
    with pytest.raises(NormalityViolation):
        second_variation_formula(euclid2, geo, V)  # V does not vanish at the ends


def test_second_variation_normality_guard(euclid2):
    line = affine_subspace([0.0, 0.0], [[1.0, 0.0]])
    # geodesic leaving the line at 45 degrees: not normal
    d = np.array([1.0, 1.0]) / np.sqrt(2)
    geo = integrate_geodesic(euclid2, TangentVector([0.0, 0.0], d), 1.0)
    V = _field(lambda t: np.stack([1 - t, np.zeros_like(t)], 1))
    with pytest.raises(NormalityViolation):
        second_variation_formula(euclid2, geo, V, P1=(line, [0.0]))


def test_variation_symmetry_residual(randers_var):
    def rule(s, t):
        return (np.stack([0.3 * t, -0.2 + 0.25 * t], axis=-1)
                + s * np.stack([0.05 * np.sin(np.pi * t), 0.04 * t * (1 - t) + 0.02], axis=-1))

    assert variation_symmetry_residual(randers_var, VariationFamily(rule=rule)) < 1e-6
    assert "nodes" not in inspect.signature(variation_symmetry_residual).parameters


def test_second_variation_sphere_analytic(sphere):
    # unit-speed geodesic of length 1 with V = sin(pi t) x parallel unit normal:
    # integral of pi^2 cos^2(pi t) - sin^2(pi t) dt = pi^2/2 - 1/2
    w0 = unit_tangent(sphere, TangentVector([0.05, -0.1], [0.6, 0.2]))
    geo = integrate_geodesic(sphere, w0, 1.0)
    g0 = fundamental_tensor(sphere, w0).g
    e = np.array([-w0.y[1], w0.y[0]])
    e = e - (e @ g0 @ w0.y) / (w0.y @ g0 @ w0.y) * w0.y
    e = e / np.sqrt(e @ g0 @ e)
    pt = parallel_transport(sphere, geo, e)
    V = FieldAlongCurve(geo.grid, np.sin(np.pi * geo.grid)[:, None] * pt.vectors,
                        dense=lambda t: np.sin(np.pi * t) * pt.dense(t))
    val = second_variation_formula(sphere, geo, V)
    assert abs(val - (np.pi ** 2 / 2 - 0.5)) <= 1e-12


# -- batched and stacked ODE work ------------------------------------------------------


_GAUSS4 = ((-0.8611363115940526, 0.3478548451374538), (-0.3399810435848563, 0.6521451548625461),
           (0.3399810435848563, 0.6521451548625461), (0.8611363115940526, 0.3478548451374538))


def _residual_per_interval(src, curve):
    """The geodesic defect one Chebyshev interval and one Gauss node at a time."""
    from finslergeo.spray import spray_values

    n = curve.n
    ts = curve.dense.t
    worst = 0.0
    for a, b in zip(ts[:-1], ts[1:]):
        half = 0.5 * (b - a)
        quad = np.zeros(n)
        scale = 1.0
        for node, weight in _GAUSS4:
            st = curve.dense(0.5 * (a + b) + half * node)
            quad += weight * 2.0 * spray_values(src, st[:n], st[n:])
            scale = max(scale, float(np.max(np.abs(st))))
        defect = (curve.dense(b)[n:] - curve.dense(a)[n:]) + half * quad
        worst = max(worst, float(np.max(np.abs(defect))) / scale)
    return worst


@pytest.mark.parametrize("name", ["sphere", "funk", "randers_var"])
def test_batched_geodesic_residual_matches_step_loop(name, request):
    ms = request.getfixturevalue(name)
    w = unit_tangent(ms, random_tangent(ms, SplitMix64(5)))
    for t_end in (1.0, -0.3):
        geo = integrate_geodesic(ms, w, t_end)
        ref = _residual_per_interval(ms, geo)
        assert ref > 0.0
        assert abs(geodesic_residual(ms, geo) - ref) <= 1e-15 * ref


def test_jacobi_columns_match_single_solves(randers_var, funk):
    for ms in (randers_var, funk):
        rng = SplitMix64(19)
        w0 = unit_tangent(ms, random_tangent(ms, rng))
        geo = integrate_geodesic(ms, w0, 1.0)
        J0 = np.column_stack([rng.direction(2), [0.0, 0.0]])
        J0dot = np.column_stack([rng.direction(2), rng.direction(2)])
        both = jacobi_integrate(ms, geo, J0, J0dot)
        assert both.vectors.shape == both.covariant_derivative.shape == (len(geo.grid), 2, 2)
        for col in range(2):
            one = jacobi_integrate(ms, geo, J0[:, col], J0dot[:, col])
            assert np.max(np.abs(both.vectors[:, :, col] - one.vectors)) < 1e-8
            assert np.max(np.abs(both.covariant_derivative[:, :, col]
                                 - one.covariant_derivative)) < 1e-8
        pt = parallel_transport(ms, geo, J0dot)
        for col in range(2):
            one = parallel_transport(ms, geo, J0dot[:, col])
            assert np.max(np.abs(pt.vectors[:, :, col] - one.vectors)) < 1e-8


# -- spectral geodesics -------------------------------------------------------------------


def _dop853_geodesic(src, w0, t_end):
    """The geodesic's end state by DOP853 at rtol 1e-12, the integrator the
    spectral solver replaced."""
    from finslergeo.spray import spray_values

    n = src.dim

    def rhs(t, s):
        return np.concatenate([s[n:], -2.0 * spray_values(src, s[:n], s[n:])])

    sol = solve_ivp(rhs, (0.0, t_end), np.concatenate([w0.x, w0.y]), method="DOP853",
                    rtol=1e-12, atol=1e-14)
    assert sol.success
    return sol.y[:, -1]


@pytest.mark.parametrize("m", [16, 32, 64, 256])
def test_integration_matrix_is_exact_on_polynomials(m):
    Q = variational._integration_matrix(m)
    xi = -np.cos(np.pi * np.arange(m + 1) / m)
    for d in range(m + 1):
        exact = (xi ** (d + 1) - (-1.0) ** (d + 1)) / (d + 1)
        assert np.max(np.abs(Q @ xi ** d - exact)) < 1e-13
    # and so on any polynomial of degree m, through its node values
    coef = SplitMix64(m).vector(m + 1, -1.0, 1.0)
    p = np.polynomial.Chebyshev(coef)
    assert np.max(np.abs(Q @ p(xi) - (p.integ()(xi) - p.integ()(-1.0)))) < 1e-12


@pytest.mark.parametrize("name", ["sphere", "funk", "randers_var"])
def test_batched_geodesics_match_single_solves(name, request):
    ms = request.getfixturevalue(name)
    rng = SplitMix64(23)
    ws = [unit_tangent(ms, random_tangent(ms, rng)) for _ in range(4)]
    batch = integrate_geodesic(ms, TangentVector.stack(ws), 1.0)
    assert len(batch) == len(ws)
    for w, geo in zip(ws, batch):
        one = integrate_geodesic(ms, w, 1.0)
        for a, b in ((geo.points, one.points), (geo.velocities, one.velocities)):
            assert np.max(np.abs(a - b)) <= 10 * DEFAULT_RTOL * max(1.0, np.max(np.abs(b)))


@pytest.mark.parametrize("name", ["sphere", "poincare", "randers_var"])
def test_backward_geodesic_matches_dop853(name, request):
    ms = request.getfixturevalue(name)
    w0 = unit_tangent(ms, random_tangent(ms, SplitMix64(29)))
    geo = integrate_geodesic(ms, w0, -0.8)
    assert geo.grid[0] == -0.8 and geo.grid[-1] == 0.0
    assert np.array_equal(geo.points[-1], w0.x)
    ref = _dop853_geodesic(ms, w0, -0.8)
    assert np.max(np.abs(np.concatenate([geo.points[0], geo.velocities[0]]) - ref)) < 1e-10
    assert geodesic_residual(ms, geo) < 1e-10


def test_funk_geodesic_splits_where_the_first_iterate_leaves_the_disk(funk):
    # the first iterate, x0 + t v0, reaches |x| = 1.7 at t = 1: outside the disk
    w0 = TangentVector([0.5, 0.1], [1.2, 0.3])
    assert np.linalg.norm(w0.x + w0.y) > 1.0
    geo = integrate_geodesic(funk, w0, 1.0)
    assert len(geo.dense.segments) > 1
    assert np.max(np.linalg.norm(geo.points, axis=1)) < 1.0
    ref = _dop853_geodesic(funk, w0, 1.0)
    assert np.max(np.abs(np.concatenate([geo.points[-1], geo.velocities[-1]]) - ref)) < 1e-9
    assert geodesic_residual(funk, geo) < 1e-10


def test_backward_funk_geodesic_that_reaches_the_boundary_is_a_domain_exit(funk):
    # backward, this Funk geodesic reaches the disk's boundary near t = -0.3196;
    # its segments used to stall at the split floor there and report NoConvergence
    w0 = unit_tangent(funk, random_tangent(funk, SplitMix64(53)))
    geo = integrate_geodesic(funk, w0, -0.3)
    assert 0.97 < np.max(np.linalg.norm(geo.points, axis=1)) < 1.0
    assert geodesic_residual(funk, geo) < 1e-10
    with pytest.raises(DomainExit, match="left the validity region"):
        integrate_geodesic(funk, w0, -0.5)


# -- frame tables along geodesics --------------------------------------------------------


@pytest.mark.parametrize("name", ["sphere", "poincare", "randers_var", "funk", "funk3"])
def test_frame_table_matches_per_rhs_frames(name, request):
    ms = metrics.funk(3) if name == "funk3" else request.getfixturevalue(name)
    n = ms.dim
    rng = SplitMix64(31)
    w0 = unit_tangent(ms, random_tangent(ms, rng))
    geo = integrate_geodesic(ms, w0, 1.0)
    J0, J0dot = 0.3 * rng.direction(n), rng.direction(n)
    J = jacobi_integrate(ms, geo, J0, J0dot)
    # the reference is the joint solve that frame tables replaced, at the same rtol
    J_ref, K_ref = dop853_linear_flow(ms, w0, 1.0, geo.grid, (J0, J0dot), rtol=DEFAULT_RTOL)
    assert np.max(np.abs(J.vectors - J_ref)) <= 1e-7
    assert np.max(np.abs(J.covariant_derivative - K_ref)) <= 1e-7
    v0 = np.column_stack([rng.direction(n), w0.y])
    (V_ref,) = dop853_linear_flow(ms, w0, 1.0, geo.grid, (v0,), rtol=DEFAULT_RTOL)
    assert np.max(np.abs(parallel_transport(ms, geo, v0).vectors - V_ref)) <= 1e-7
    one = parallel_transport(ms, geo, v0[:, 0]).vectors
    assert np.max(np.abs(one - V_ref[:, :, 0])) <= 1e-7


def _first_resolved(geo) -> int:
    """The node count of a geodesic's coarsest resolved frame level."""
    return min(m for m, (_, _, resolved) in geo.dense._levels.items() if resolved) + 1


def test_jacobi_builds_one_frame_per_table_node(sphere, monkeypatch):
    built = []

    class CountingFrame(PointFrame):
        def __init__(self, src, w, order=4):
            built.append((order, len(w.x)))
            super().__init__(src, w, order)

    monkeypatch.setattr(variational, "PointFrame", CountingFrame)
    # the first geodesic runs out to |x| ~ 9 in the chart: its frames are
    # resolved after several doublings, the others' after fewer or none
    ws = [unit_tangent(sphere, TangentVector(x, y))
          for x, y in (([0.1, -0.05], [0.6, 0.45]), ([0.1, 0.2], [0.5, -0.3]),
                       ([-0.3, 0.1], [0.2, 0.9]))]
    geos = integrate_geodesic(sphere, TangentVector.stack(ws), 3.0)
    jacobi_integrate(sphere, geos, np.zeros((3, 2)), np.tile([0.0, 1.0], (3, 1)))
    # each field is resolved at the first resolved level of its geodesic,
    # which keeps every level from 16 intervals up to that one
    doublings = []
    for geo in geos:
        levels = sorted(geo.dense._levels)
        doublings.append(len(levels) - 1)
        assert levels == [16 * 2 ** k for k in range(len(levels))]
        assert [geo.dense._levels[m][2] for m in levels] == [False] * doublings[-1] + [True]
    assert doublings[0] > 1 and min(doublings) < doublings[0]
    # one batched frame for the first 17 nodes of every curve, then one per
    # level over the new nodes of the curves whose flows go on
    assert built == [(4, 17 * len(geos))] + [
        (4, 16 * 2 ** k * sum(d > k for d in doublings)) for k in range(max(doublings))]
    # the oracle and transport read the same levels: no frame and no level more
    frames, levels = list(built), [dict(geo.dense._levels) for geo in geos]
    jacobi_variation_oracle(sphere, geos, np.tile([0.0, 1.0], (3, 1)))
    parallel_transport(sphere, geos, np.tile([1.0, 0.5], (3, 1)))
    for geo in geos:
        jacobi_integrate(sphere, geo, [0, 0], [0, 1])
    assert built == frames
    assert [geo.dense._levels for geo in geos] == levels


def test_flows_along_a_geodesic_build_each_doubled_level_once(funk, monkeypatch):
    # from the origin to t = 6 the frames are resolved at 16 intervals and
    # every oracle and Jacobi flow needs 32: the oracle call builds one frame
    # at the 17 nodes of each of the 10 geodesics and one at their 16 new
    # nodes, more blocks than the frame memo keeps, and the Jacobi call after
    # it builds none
    built = []

    class CountingFrame(PointFrame):
        def __init__(self, src, w, order=4):
            built.append(len(w.x))
            super().__init__(src, w, order)

    monkeypatch.setattr(variational, "PointFrame", CountingFrame)
    B = 10
    assert B > spray._MEMO_SIZE
    ws = [unit_tangent(funk, TangentVector([0.0, 0.0], [np.cos(a), np.sin(a)]))
          for a in 2 * np.pi * np.arange(B) / B]
    geos = integrate_geodesic(funk, TangentVector.stack(ws), 6.0)
    u = np.tile([0.0, 1.0], (B, 1))
    jacobi_variation_oracle(funk, geos, u)
    assert built == [17 * B, 16 * B]
    assert all(_first_resolved(geo) == 17 for geo in geos)
    _, jobs = variational._flow_jobs(funk, geos, np.zeros((B, 2)), u)
    flows = variational._collocation_flow(variational._jacobi_coefficients, jobs)
    assert [len(flow.segments[0].t) for flow in flows] == [33] * B
    assert built == [17 * B, 16 * B]


# (metric, t_end, initial vectors, random ones besides): forward and backward
# spans, geodesics whose frames are resolved after doublings (to different
# sizes), one whose flows double past that level and Funk geodesics of two or
# more Chebyshev segments
_BATCH_CASES = [("sphere", 1.0, (), 3), ("sphere", -0.8, (), 3),
                ("sphere", 3.0, (([0.1, -0.05], [0.6, 0.45]), ([0.1, 0.2], [0.5, -0.3]),
                                 ([-0.3, 0.1], [0.2, 0.9])), 0),
                ("funk", 1.0, (([0.5, 0.1], [1.2, 0.3]),), 3), ("funk", -0.3, (), 3),
                ("funk", 6.0, (([0.0, 0.0], [1.0, 0.0]),), 3),
                ("randers_var", 1.0, (), 3), ("randers_var", -0.8, (), 3)]


@pytest.mark.parametrize("name, t_end, extra, draws", _BATCH_CASES)
def test_batched_tables_and_flows_equal_one_call_per_geodesic(name, t_end, extra, draws,
                                                              request):
    ms = request.getfixturevalue(name)
    rng = SplitMix64(61)
    ws = [unit_tangent(ms, TangentVector(x, y)) for x, y in extra]
    ws += [unit_tangent(ms, random_tangent(ms, rng)) for _ in range(draws)]
    B = len(ws)
    geos = integrate_geodesic(ms, TangentVector.stack(ws), t_end)
    # the reference: each geodesic's dense output alone, its levels built alone
    singles = [Curve(geo.grid, geo.points, geo.velocities,
                     dense=variational._ChebyshevCurve(geo.dense.segments, geo.dense.rtol, ms))
               for geo in geos]
    for geo, one in zip(geos, singles):
        states = one.dense(geo.grid)
        assert np.array_equal(geo.points, states[:2].T)
        assert np.array_equal(geo.velocities, states[2:].T)
    u, v = rng.vector(2 * B, -1, 1).reshape(B, 2), rng.vector(2 * B, -1, 1).reshape(B, 2)
    J0, J0dot = np.stack([0.3 * u, np.zeros((B, 2))], axis=-1), np.stack([v, u], axis=-1)
    batched = (jacobi_integrate(ms, geos, J0, J0dot), jacobi_integrate(ms, geos, u, v),
               jacobi_variation_oracle(ms, geos, v), jacobi_variation_oracle(ms, geos, J0dot),
               parallel_transport(ms, geos, v), parallel_transport(ms, geos, J0dot))
    between = t_end * np.linspace(0.0013, 0.9987, 37)
    for k, (geo, one) in enumerate(zip(geos, singles)):
        J, Ju, dx, dx2, V, V2 = (out[k] for out in batched)
        for field, ref in ((J, jacobi_integrate(ms, one, J0[k], J0dot[k])),
                           (Ju, jacobi_integrate(ms, one, u[k], v[k]))):
            assert np.array_equal(field.vectors, ref.vectors)
            assert np.array_equal(field.covariant_derivative, ref.covariant_derivative)
        assert np.array_equal(dx, jacobi_variation_oracle(ms, one, v[k]))
        assert np.array_equal(dx2, jacobi_variation_oracle(ms, one, J0dot[k]))
        for field, v0 in ((V, v[k]), (V2, J0dot[k])):
            ref = parallel_transport(ms, one, v0)
            assert np.array_equal(field.vectors, ref.vectors)
            assert np.array_equal(field.dense(between), ref.dense(between))
        # the same levels, nodes, frames and flags, as one batched frame per level built them
        assert sorted(geo.dense._levels) == sorted(one.dense._levels)
        for m, (t, frames, resolved) in geo.dense._levels.items():
            t_one, frames_one, resolved_one = one.dense._levels[m]
            assert np.array_equal(t, t_one) and np.array_equal(frames, frames_one)
            assert resolved == resolved_one
    sizes = {_first_resolved(geo) for geo in geos}
    if t_end == 3.0:
        assert len(sizes) > 1 and max(sizes) > 33
    if t_end == 6.0:
        # the Jacobi field along the first geodesic needs twice its first resolved level's nodes
        _, jobs = variational._flow_jobs(ms, geos[0], [0, 0], [0, 1])
        (flow,) = variational._collocation_flow(variational._jacobi_coefficients, jobs)
        assert sizes == {17} and len(flow.segments[0].t) == 33
    if name == "funk" and t_end == 1.0:
        assert 2 in {len(geo.dense.segments) for geo in geos}


def test_a_batch_refuses_a_curve_of_another_source_before_any_evaluation(sphere, euclid2,
                                                                         monkeypatch):
    ws = [unit_tangent(sphere, TangentVector([0.1, 0.2], [0.5, -0.3])),
          unit_tangent(sphere, TangentVector([-0.2, 0.1], [0.3, 0.4]))]
    geos = integrate_geodesic(sphere, TangentVector.stack(ws), 1.0)
    other = integrate_geodesic(euclid2, TangentVector([0.0, 0.0], [1.0, 0.0]), 1.0)
    copy = Curve(geos[1].grid, geos[1].points, geos[1].velocities)
    evaluated = []
    for name in ("spray_values", "PointFrame"):
        monkeypatch.setattr(variational, name, lambda *args, **kw: evaluated.append(args))
    zeros, ones = np.zeros((3, 2)), np.ones((3, 2))
    for batch, error in (([geos[0], other, geos[1]], "not a geodesic"),
                         ([geos[0], geos[1], copy], "integrate_geodesic")):
        for run in (lambda: jacobi_integrate(sphere, batch, zeros, ones),
                    lambda: jacobi_variation_oracle(sphere, batch, ones),
                    lambda: parallel_transport(sphere, batch, ones)):
            with pytest.raises(GridError, match=error):
                run()
    # the initial vectors need one row per geodesic
    with pytest.raises(ValueError, match=r"leading batch axis of 2, got shape \(3, 2\)"):
        parallel_transport(sphere, geos, ones)
    with pytest.raises(ValueError, match=r"initial vectors .*\(3,\)"):
        jacobi_variation_oracle(sphere, geos, np.ones((2, 3)))
    assert evaluated == []
    assert all(geo.dense._levels == {} for geo in geos)


def test_a_failing_batch_raises_the_first_error_it_meets(poincare, monkeypatch):
    # capped at 16 intervals, the Jacobi field along geos[3] fails (its
    # frames are resolved) and the frames of geos[2] fail: one loop over the
    # levels meets both at the cap and raises the first in the list, as a
    # loop of single calls does
    rng = SplitMix64(7)
    ws = [unit_tangent(poincare, random_tangent(poincare, rng)) for _ in range(4)]
    monkeypatch.setattr(variational, "_TABLE_MAX_INTERVALS", 16)

    def geodesics():
        geos = integrate_geodesic(poincare, TangentVector.stack(ws), 2.0)
        return [geos[3], geos[2]]

    errors = []
    for k, start in enumerate(("linear flow", "frame table")):
        with pytest.raises(NoConvergence) as single:
            jacobi_integrate(poincare, geodesics()[k], [0.0, 0.0], [0.0, 1.0])
        errors.append(str(single.value))
        assert errors[k].startswith(f"{start} not resolved to rtol 1.0e-09 with 16")
    with pytest.raises(NoConvergence) as batched:
        jacobi_integrate(poincare, geodesics(), np.zeros((2, 2)), np.tile([0.0, 1.0], (2, 1)))
    assert str(batched.value) == errors[0]


@pytest.mark.parametrize("call", ["jacobi", "oracle", "transport", "residual"])
def test_hand_built_copy_of_a_geodesic_is_refused(sphere, euclid2, call, monkeypatch):
    # a flow takes its tolerance, start and states from the solved geodesic; a copy has none
    run = {"jacobi": lambda ms, c: jacobi_integrate(ms, c, [0, 0], [0.2, 1.0]),
           "oracle": lambda ms, c: jacobi_variation_oracle(ms, c, [0.2, 1.0]),
           "transport": lambda ms, c: parallel_transport(ms, c, [1.0, 0.5]),
           "residual": geodesic_residual}[call]
    w0 = unit_tangent(sphere, TangentVector([0.1, 0.2], [0.5, -0.3]))
    geo = integrate_geodesic(sphere, w0, 1.0)
    with pytest.raises(GridError, match="integrate_geodesic"):
        run(sphere, Curve(geo.grid, geo.points, geo.velocities))
    if call != "residual":
        # a solved geodesic of another metric is refused before any spray evaluation
        evaluated = []
        for name in ("spray_values", "PointFrame"):
            monkeypatch.setattr(variational, name, lambda *args, **kw: evaluated.append(args))
        with pytest.raises(GridError, match="not a geodesic"):
            run(euclid2, geo)
        assert evaluated == []


@pytest.mark.parametrize("t_end", [1.0, -0.8])
def test_dense_output_refuses_times_outside_the_span(sphere, t_end):
    # the dense output used to clip to its end segments and extrapolate
    w0 = unit_tangent(sphere, TangentVector([0.1, 0.2], [0.5, -0.3]))
    dense = integrate_geodesic(sphere, w0, t_end).dense
    assert np.array_equal(dense([0.0, t_end]).T, [dense(0.0), dense(t_end)])
    for t in (2.0 * t_end, -5.0 * t_end, np.nextafter(t_end, 2 * t_end), np.nan):
        with pytest.raises(GridError, match="outside the geodesic's span"):
            dense(t)
    with pytest.raises(GridError, match="outside"):
        dense([0.5 * t_end, 2.0 * t_end])


@pytest.mark.parametrize("name", ["sphere", "randers_var"])
def test_backward_flows_start_at_time_zero(name, request):
    ms = request.getfixturevalue(name)
    rng = SplitMix64(37)
    w0 = unit_tangent(ms, random_tangent(ms, rng))
    geo = integrate_geodesic(ms, w0, -0.8)
    assert geo.grid[-1] == 0.0
    J0, J0dot, v0 = rng.direction(2), rng.direction(2), rng.direction(2)
    J = jacobi_integrate(ms, geo, J0, J0dot)
    assert np.array_equal(J.vectors[-1], J0)
    assert np.array_equal(J.covariant_derivative[-1], J0dot)
    assert np.max(np.abs(J.vectors[0] - J0)) > 0.1
    assert np.array_equal(parallel_transport(ms, geo, v0).vectors[-1], v0)
    # the oracle starts at time 0 too, so it agrees with the Jacobi field from (0, u)
    oracle = jacobi_variation_oracle(ms, geo, J0dot)
    assert np.array_equal(oracle[-1], [0.0, 0.0])
    assert np.max(np.abs(jacobi_integrate(ms, geo, [0, 0], J0dot).vectors - oracle)) < 1e-7


def test_flows_along_a_bare_spray_geodesic(randers_var):
    # the closed-form spray of randers_var: its flows are the metric's flows
    spray = _randers_var_closed_form_spray()
    rng = SplitMix64(43)
    w0 = unit_tangent(randers_var, random_tangent(randers_var, rng))
    u = rng.direction(2)
    geo = integrate_geodesic(spray, w0, 1.0)
    J = jacobi_integrate(spray, geo, [0, 0], u).vectors
    oracle = jacobi_variation_oracle(spray, geo, u)
    assert np.max(np.abs(J - oracle)) < 1e-7
    metric_geo = integrate_geodesic(randers_var, w0, 1.0)
    assert np.max(np.abs(J - jacobi_integrate(randers_var, metric_geo, [0, 0], u).vectors)) < 1e-7
    assert np.max(np.abs(oracle - jacobi_variation_oracle(randers_var, metric_geo, u))) < 1e-7
    v0 = rng.direction(2)
    assert np.max(np.abs(parallel_transport(spray, geo, v0).vectors
                         - parallel_transport(randers_var, metric_geo, v0).vectors)) < 1e-7


def test_flows_run_at_their_geodesics_rtol(sphere, monkeypatch):
    # this geodesic runs out to |x| ~ 9 in the chart
    w0 = unit_tangent(sphere, TangentVector([0.1, -0.05], [0.6, 0.45]))
    geo = integrate_geodesic(sphere, w0, 3.0, rtol=1e-11)
    assert geo.dense.rtol == 1e-11
    tails = []

    def recording(values, rtol):
        tails.append((values.shape[1:], rtol))
        return converged(values, rtol)

    converged = _ChebyshevTable._converged
    monkeypatch.setattr(_ChebyshevTable, "_converged", staticmethod(recording))
    tight = jacobi_integrate(sphere, geo, [0, 0], [0, 1])
    tails_J = len(tails)
    oracle = jacobi_variation_oracle(sphere, geo, [0, 1])
    monkeypatch.undo()
    # the frame table, J and the oracle are each resolved to the geodesic's
    # rtol: every Chebyshev tail test, of the table's (Gx, N, R) rows and of
    # the flows' stacked (J, K) or (dx, dv) columns, runs at 1e-11
    assert {shape for shape, _ in tails} == {(3, 2, 2), (4, 1)}
    assert {rtol for _, rtol in tails} == {1e-11}
    assert [shape for shape, _ in tails[tails_J:]] == [(4, 1)]
    # J at nodes 100, 200, 300 and 400 when the geodesic and a DOP853 Jacobi
    # solve were each given rtol 1e-11 and atol 1e-13 explicitly
    ref = [[-2.8696569170999955e-02, 8.4781928214290458e-01],
           [1.7368945772832173e-02, 2.4481873771452158e+00],
           [3.4122216623286655e-01, 9.4513976845882244e+00],
           [-1.6622332860340939e+02, -5.0289331993061275e+01]]
    assert np.max(np.abs(tight.vectors[[100, 200, 300, 400]] - ref)) <= 1e-9
    assert np.max(np.abs(oracle[[100, 200, 300, 400]] - ref)) <= 1e-9
    # two equations on the same nodes: J reads R, the oracle Gx and N
    assert np.max(np.abs(tight.vectors - oracle)) <= 1e-10
    default = jacobi_integrate(sphere, integrate_geodesic(sphere, w0, 3.0), [0, 0], [0, 1])
    assert np.max(np.abs(tight.vectors - default.vectors)) <= 1e-6


# -- collocated flows -----------------------------------------------------------------------


@pytest.mark.parametrize("t_end", [1.0, -0.8])
def test_transported_fields_record_their_dense_output(randers_var, t_end):
    # a transported field between the grid's nodes, as a geodesic's dense output gives states
    rng = SplitMix64(59)
    w0 = unit_tangent(randers_var, random_tangent(randers_var, rng))
    geo = integrate_geodesic(randers_var, w0, t_end)
    v0 = np.column_stack([rng.direction(2), w0.y])
    V = parallel_transport(randers_var, geo, v0)
    assert np.array_equal(np.moveaxis(V.dense(geo.grid), -1, 0), V.vectors)
    assert V.dense(0.0).shape == (2, 2)
    assert np.array_equal(V.dense(0.0), v0)
    between = t_end * np.linspace(0.0013, 0.9987, 37)
    (ref,) = dop853_linear_flow(randers_var, w0, t_end, between, (v0,))
    assert V.dense(between).shape == (2, 2, 37)
    assert np.max(np.abs(np.moveaxis(V.dense(between), -1, 0) - ref)) <= 1e-9
    one = parallel_transport(randers_var, geo, v0[:, 0])
    assert one.dense(between).shape == (2, 37)
    assert np.max(np.abs(one.dense(between) - V.dense(between)[:, 0])) <= 1e-12
    with pytest.raises(GridError, match="outside"):
        V.dense(1.5 * t_end)


@pytest.mark.parametrize("t_end", [1.0, -0.8])
@pytest.mark.parametrize("name", ["sphere", "poincare", "randers_var", "funk", "funk3"])
def test_collocation_flows_match_dop853(name, t_end, request):
    # the reference steps the geodesic and the blocks together at rtol 1e-12,
    # with a frame per right-hand side: no frame table and no collocation, so
    # an integrator independent of the driver guards J, transport and the oracle
    ms = metrics.funk(3) if name == "funk3" else request.getfixturevalue(name)
    n = ms.dim
    rng = SplitMix64(47)
    w0 = unit_tangent(ms, random_tangent(ms, rng))
    geo = integrate_geodesic(ms, w0, t_end)
    J0 = np.column_stack([0.3 * rng.direction(n), np.zeros(n)])
    J0dot = np.column_stack([rng.direction(n), w0.y])
    J_ref, K_ref = dop853_linear_flow(ms, w0, t_end, geo.grid, (J0, J0dot))
    (V_ref,) = dop853_linear_flow(ms, w0, t_end, geo.grid, (J0dot,))
    # at J(0) = 0 the covariant and the plain initial derivative agree, so
    # the Jacobi field from (0, u) is the oracle's dx
    dx_ref, _ = dop853_linear_flow(ms, w0, t_end, geo.grid, (np.zeros((n, 2)), J0dot))
    both = jacobi_integrate(ms, geo, J0, J0dot)
    one = jacobi_integrate(ms, geo, J0[:, 0], J0dot[:, 0])
    for field, ref in ((both.vectors, J_ref), (both.covariant_derivative, K_ref),
                       (one.vectors, J_ref[:, :, 0]), (one.covariant_derivative, K_ref[:, :, 0]),
                       (parallel_transport(ms, geo, J0dot).vectors, V_ref),
                       (parallel_transport(ms, geo, J0dot[:, 0]).vectors, V_ref[:, :, 0]),
                       (jacobi_variation_oracle(ms, geo, J0dot), dx_ref),
                       (jacobi_variation_oracle(ms, geo, J0dot[:, 0]), dx_ref[:, :, 0])):
        assert field.shape == ref.shape
        assert np.max(np.abs(field - ref)) <= 1e-10


@pytest.mark.parametrize("name, kappa, t_end", [("sphere", 1.0, 1.0), ("sphere", 1.0, -0.8),
                                                ("poincare", -1.0, 1.0),
                                                ("poincare", -1.0, -0.8),
                                                ("funk", -0.25, 1.0), ("funk", -0.25, 2.0)])
def test_collocated_jacobi_fields_follow_the_closed_form_profiles(name, kappa, t_end, request):
    # at constant flag curvature K, a normal Jacobi field with J(0) = 0 and
    # J'(0) = u has norm |u| |sin(sqrt(K) t)| / sqrt(K), with sinh for K < 0
    ms = request.getfixturevalue(name)
    rng = SplitMix64(53)
    w0 = unit_tangent(ms, random_tangent(ms, rng))
    geo = integrate_geodesic(ms, w0, t_end)
    g0 = fundamental_tensor(ms, w0).g
    u = rng.direction(2)
    u = u - (u @ g0 @ w0.y) / (w0.y @ g0 @ w0.y) * w0.y
    J = jacobi_integrate(ms, geo, [0.0, 0.0], u).vectors
    g = fundamental_tensor(ms, TangentVector(geo.points, geo.velocities)).g
    norm = np.sqrt(np.einsum("ti,tij,tj->t", J, g, J))
    root = np.sqrt(abs(kappa))
    wave = np.sin(root * geo.grid) if kappa > 0 else np.sinh(root * geo.grid)
    assert np.max(np.abs(norm - np.sqrt(u @ g0 @ u) * np.abs(wave) / root)) <= 1e-12


def test_flow_doubling_stays_local_and_stops_at_the_interval_cap(funk, monkeypatch):
    # the frames of this geodesic are resolved at 16 intervals; its Jacobi field needs 32
    w0 = unit_tangent(funk, TangentVector([0.0, 0.0], [1.0, 0.0]))
    geo = integrate_geodesic(funk, w0, 6.0)
    oracle = jacobi_variation_oracle(funk, geo, [0.0, 1.0])
    assert _first_resolved(geo) == 17
    J = jacobi_integrate(funk, geo, [0.0, 0.0], [0.0, 1.0]).vectors
    parallel_transport(funk, geo, [0.0, 1.0])
    # a flow starts at the first resolved level whatever the levels that
    # flows before it added, so the oracle gives the same numbers after them
    assert sorted(geo.dense._levels) == [16, 32]
    assert np.array_equal(jacobi_variation_oracle(funk, geo, [0.0, 1.0]), oracle)
    assert np.max(np.abs(J - oracle)) < 1e-8
    monkeypatch.setattr(variational, "_TABLE_MAX_INTERVALS", 16)
    with pytest.raises(NoConvergence, match="linear flow not resolved to rtol 1.0e-09 "
                                            "with 16 Chebyshev intervals"):
        jacobi_integrate(funk, geo, [0.0, 0.0], [0.0, 1.0])


def test_importing_the_package_loads_no_scipy():
    # the runtime is numpy-only: a whole verify-all pass in a fresh process
    # passes every scenario and loads no scipy module
    import subprocess
    import sys
    from pathlib import Path

    import finslergeo

    code = ("import io, sys, finslergeo.cli\n"
            "code = finslergeo.cli.verify_all(stream=io.StringIO())\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(Path(finslergeo.__file__).parents[1])})
    assert out.stdout.strip() == "0 []"
    # the benchmark's tracer rebinds this module-level name; the package never calls it
    assert inspect.isfunction(variational.solve_ivp)
    assert variational.solve_ivp.__module__ == "finslergeo.variational"


def test_chebyshev_tail_test_matches_scipy_dct():
    from scipy.fft import dct

    # 16 intervals: every tail is far above rounding (7e-9 to 2.5e-3 of the values)
    t = _ChebyshevTable.nodes(0.0, 2.0, 16)
    for values in (np.stack([np.sin(3 * t), np.exp(t)], axis=-1), 1.0 / (2.5 - t),
                   np.abs(t - 0.5)):
        m = len(t) - 1
        coef = np.abs(dct(values.reshape(m + 1, -1), type=1, axis=0)) / m
        coef[[0, -1]] *= 0.5
        ratio = coef[m - m // 4 + 1:].max() / np.abs(values).max()
        assert _ChebyshevTable._converged(values, ratio * (1 + 1e-9))
        assert not _ChebyshevTable._converged(values, ratio * (1 - 1e-9))


def test_chebyshev_table_interpolates_and_refuses_a_kink():
    def smooth(t):
        return np.stack([np.sin(3 * t), np.exp(t)], axis=-1)

    # doubled from 16 intervals until the tail is below rtol, as a frame level is
    t = _ChebyshevTable.nodes(0.0, 2.0, 16)
    values = smooth(t)
    while not _ChebyshevTable._converged(values, DEFAULT_RTOL):
        t, values = _ChebyshevTable._doubled(t, values, smooth)
    table = _ChebyshevTable(t, values)
    assert np.array_equal(table.t[[0, -1]], [0.0, 2.0])
    assert np.all(np.diff(table.t) > 0)
    ts = np.array([0.0, 0.0123, 0.77, 1.5, 2.0])
    assert np.max(np.abs(table.at(ts) - smooth(ts))) < 1e-13
    # |t - 0.5| has a kink: its tail stays above rtol at every level up to the cap
    assert variational._TABLE_MAX_INTERVALS == 256
    for m in (16, 32, 64, 128, 256):
        t = _ChebyshevTable.nodes(0.0, 1.0, m)
        assert not _ChebyshevTable._converged(np.abs(t - 0.5), DEFAULT_RTOL)


# -- one F^2 evaluation per energy, and the shape a variation rule must return ------------


@pytest.mark.parametrize("name", ["randers_var", "funk", "sphere"])
def test_vectorized_family_and_energy_match_node_loops(name, request):
    # the rule once over all nodes and F^2 once over all of them, against the rule
    # and F^2 node by node at the same resolved nodes, summed by the same rule
    ms = request.getfixturevalue(name)

    def rule(s, t):
        return (np.stack([0.3 * t, -0.2 + 0.25 * t], axis=-1)
                + s * np.stack([0.05 * np.sin(np.pi * t), 0.04 * t * (1 - t)], axis=-1))

    d1, d2 = variation_energy_derivatives(ms, VariationFamily(rule=rule))
    t, points = variational._family_jets(ms, VariationFamily(rule=rule), 2)
    sp = points.space
    s = sp.coordinates(np.zeros(1))[0]
    coef = np.array([(0.0 * s + rule(s, t[i:i + 1])).c[0] for i in range(len(t))])
    assert np.array_equal(coef, points.c)
    vel = variational._derivative(t, coef)
    f2 = np.array([ms.f2([Jet(sp, c) for c in x], [Jet(sp, c) for c in y]).c
                   for x, y in zip(coef, vel)])
    e = 0.25 * variational._integration_matrix(len(t) - 1)[-1] @ f2
    assert abs(d1 - e[1]) <= 1e-14 * max(1.0, abs(e[1]))
    assert abs(d2 - 2.0 * e[2]) <= 1e-14 * abs(2.0 * e[2])
    with pytest.raises(ValueError, match=r"\(17, 2\) array, got shape \(2,\)"):
        variation_energy_derivatives(ms, VariationFamily(rule=lambda s, t: rule(s, t)[0]))


@pytest.fixture(scope="module")
def funk_geodesic():
    ms = metrics.funk(2)
    return ms, integrate_geodesic(ms, unit_tangent(ms, TangentVector([0.1, -0.2], [0.6, 0.3])),
                                  1.0)


@pytest.mark.parametrize("shape", [(2, 2, 2), (3,), (1, 2)])
@pytest.mark.parametrize("call", ["transport", "oracle", "jacobi"])
def test_malformed_initial_vectors_are_refused_naming_the_shape(funk_geodesic, call, shape):
    # one check in the linear-flow driver serves all three
    ms, geo = funk_geodesic
    v = np.ones(shape)
    with pytest.raises(ValueError, match=r"initial vectors .*" + re.escape(str(shape))):
        if call == "transport":
            parallel_transport(ms, geo, v)
        elif call == "oracle":
            jacobi_variation_oracle(ms, geo, v)
        else:
            jacobi_integrate(ms, geo, v, v)
