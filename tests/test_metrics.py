import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslergeo import metrics, spray
from finslergeo.errors import DomainError, NotPositiveDefinite, NullDirection
from finslergeo.lifts import affine_coefficients, classical_lift, lift_curvature
from finslergeo.metrics import (TangentVector, cartan_tensor, check_metric,
                                fundamental_tensor, metric_value, random_tangent)
from finslergeo.rng import SplitMix64
from finslergeo.submanifolds import legendre_transform
from finslergeo.variational import integrate_geodesic

from oracles import hessian, third_derivative

ALL_BUILTINS = ["euclid2", "sphere", "poincare", "funk", "randers_const", "randers_var"]


def test_metric_value_examples(euclid2, randers_const, funk):
    assert metric_value(euclid2, TangentVector([5.0, -3.0], [3.0, 4.0])) == pytest.approx(5.0)
    assert metric_value(randers_const, TangentVector([0.0, 0.0], [1.0, 0.0])) == pytest.approx(1.5)
    assert metric_value(funk, TangentVector([0.0, 0.0], [0.0, 2.0])) == pytest.approx(2.0)


def test_null_direction_rejected(euclid2):
    with pytest.raises(NullDirection):
        metric_value(euclid2, TangentVector([0.0, 0.0], [0.0, 1e-13]))


def test_domain_error_outside_funk_disk(funk):
    with pytest.raises(DomainError):
        metric_value(funk, TangentVector([1.2, 0.0], [1.0, 0.0]))


def test_fundamental_tensor_examples(sphere, randers_const):
    eu3 = metrics.euclidean(3)
    g = fundamental_tensor(eu3, TangentVector([1.0, 2.0, 3.0], [0.3, -1.0, 0.5])).g
    assert np.allclose(g, np.eye(3), atol=1e-14)

    g4 = fundamental_tensor(sphere, TangentVector([0.0, 0.0], [0.7, -0.1])).g
    assert np.allclose(g4, 4.0 * np.eye(2), atol=1e-12)

    w = TangentVector([0.0, 0.0], [0.0, 1.0])
    g = fundamental_tensor(randers_const, w).g
    f2 = lambda y: randers_const.f2([0.0, 0.0], list(y))
    fd = 0.5 * hessian(f2, [0.0, 1.0], h=1e-4)
    assert np.max(np.abs(g - fd)) < 1e-6


def test_fundamental_tensor_positive_definite_required():
    # |b| > 1 breaks positive definiteness in some directions
    bad = metrics.randers(2, [1.2, 0.0], name="invalid")
    failures = 0
    for theta in np.linspace(0.0, 2 * np.pi, 17)[:-1]:
        try:
            fundamental_tensor(bad, TangentVector([0.0, 0.0],
                                                  [np.cos(theta), np.sin(theta)]))
        except (NotPositiveDefinite, DomainError):
            failures += 1
    assert failures > 0


def test_cartan_tensor_riemannian_zero(sphere):
    C = cartan_tensor(sphere, TangentVector([0.3, 0.1], [0.5, 0.2])).C
    assert np.max(np.abs(C)) < 1e-13


def test_cartan_contraction_and_fd(randers_const):
    w = TangentVector([0.0, 0.0], [1.0, 0.0])
    C = cartan_tensor(randers_const, w).C
    rng = SplitMix64(5)
    for _ in range(20):
        u = rng.direction(2)
        v = rng.direction(2)
        assert abs(np.einsum("ijk,i,j,k->", C, u, v, w.y)) < 1e-9

    w2 = TangentVector([0.0, 0.0], [0.0, 1.0])
    C2 = cartan_tensor(randers_const, w2).C
    f2 = lambda y: randers_const.f2([0.0, 0.0], list(y))
    fd = 0.25 * third_derivative(f2, [0.0, 1.0], 0, 0, 0, h=1e-3)
    assert abs(C2[0, 0, 0] - fd) < 1e-4


def test_cartan_full_symmetry(randers_var):
    C = cartan_tensor(randers_var, TangentVector([0.2, -0.3], [0.7, 0.4])).C
    for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        assert np.max(np.abs(C - np.transpose(C, perm))) < 1e-10


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_homogeneity_of_tensors(name, request):
    ms = request.getfixturevalue(name)
    rng = SplitMix64(17)
    for _ in range(15):
        w = random_tangent(ms, rng)
        g = fundamental_tensor(ms, w).g
        C = cartan_tensor(ms, w).C
        for lam in (0.5, 3.0):
            wl = TangentVector(w.x, lam * w.y)
            assert np.max(np.abs(fundamental_tensor(ms, wl).g - g)) < 1e-10
            assert np.max(np.abs(cartan_tensor(ms, wl).C - C / lam)) < 1e-9


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_euler_identity(name, request):
    # g_w(w, .) equals the fiber gradient of F^2 / 2
    from finslergeo.jets import lift_any

    ms = request.getfixturevalue(name)
    rng = SplitMix64(23)
    for _ in range(10):
        w = random_tangent(ms, rng)
        g = fundamental_tensor(ms, w).g
        jet = lift_any(lambda ys: ms.f2(list(w.x), ys), list(w.y), 1)
        grad = np.array([jet.partial([1 if i == j else 0 for j in range(ms.dim)])
                         for i in range(ms.dim)])
        assert np.max(np.abs(g @ w.y - 0.5 * grad)) < 1e-10
        assert abs(w.y @ g @ w.y - metric_value(ms, w) ** 2) < 1e-10


def test_check_metric_euclidean_clean(euclid2):
    rep = check_metric(euclid2, 100, seed=4)
    assert rep.homogeneity_max < 1e-12
    assert rep.gww_identity_max < 1e-12
    assert rep.pd_failures == 0
    assert rep.passed()


def test_check_metric_reports_invalid_randers():
    bad = metrics.randers(2, [1.2, 0.0], name="invalid")
    rep = check_metric(bad, 40, seed=4)
    assert rep.pd_failures > 0
    assert not rep.passed()


def test_check_metric_funk_homogeneity(funk):
    rep = check_metric(funk, 100, seed=6)
    assert rep.homogeneity_max < 1e-10
    assert rep.pd_failures == 0


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 9.0))
def test_positive_homogeneity_funk(lam):
    ms = metrics.funk(2)
    w = TangentVector([0.2, -0.3], [0.6, 0.5])
    assert metric_value(ms, TangentVector(w.x, lam * w.y)) == pytest.approx(
        lam * metric_value(ms, w), rel=1e-12)


def test_custom_metric_roundtrip():
    from finslergeo.jets import smath

    quartic = metrics.custom(
        2, lambda xs, ys: smath.sqrt((ys[0] ** 4 + ys[1] ** 4 + (ys[0] * ys[1]) ** 2)),
        name="quartic")
    w = TangentVector([0.0, 0.0], [0.8, 0.5])
    f = metric_value(quartic, w)
    assert f > 0
    g = fundamental_tensor(quartic, w).g
    assert np.allclose(g, g.T)
    C = cartan_tensor(quartic, w).C
    assert abs(np.einsum("ijk,k->", C, w.y) + np.einsum("ijk,k->ij", C, w.y).sum()
               - 2 * np.einsum("ijk,k->ij", C, w.y).sum()) < 1e-12
    assert np.max(np.abs(np.einsum("ijk,k->ij", C, w.y))) < 1e-10


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_f2_jets_agree_with_central_differences(name, request):
    # order-2 and order-3 fiber partials vs FD, away from y = 0
    ms = request.getfixturevalue(name)
    rng = SplitMix64(37)
    w = random_tangent(ms, rng)
    f2 = lambda y: ms.f2(list(w.x), list(y))
    g = fundamental_tensor(ms, w).g
    fd_hess = 0.5 * hessian(f2, w.y, h=1e-4)
    scale = max(1.0, float(np.max(np.abs(g))))
    assert np.max(np.abs(g - fd_hess)) / scale < 1e-5
    C = cartan_tensor(ms, w).C
    fd3 = 0.25 * third_derivative(f2, w.y, 0, 1, 1, h=1e-3)
    assert abs(C[0, 1, 1] - fd3) / max(1.0, abs(C[0, 1, 1])) < 1e-4


@pytest.mark.parametrize("dim, beta", [(3, [0.1, 0.2]), (2, [0.1, 0.2, 0.3])],
                         ids=["short", "long"])
def test_randers_constant_beta_of_wrong_length_is_refused(dim, beta):
    with pytest.raises(ValueError, match="beta has"):
        metrics.randers(dim, beta)


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_one_legendre_jet_gives_the_order_one_and_two_jets_values(name, request):
    # g and the Legendre covector come from one order-2 y-jet, bit for bit what
    # the separate order-2 and order-1 jets gave, on a batch
    ms = request.getfixturevalue(name)
    rng = SplitMix64(43)
    w = TangentVector.stack([random_tangent(ms, rng) for _ in range(7)])
    g = fundamental_tensor(ms, w).g
    assert np.array_equal(g, 0.5 * metrics._f2_y_jet(ms, w.x, w.y, 2).derivative(2))
    for k in range(len(w.x)):
        wk = TangentVector(w.x[k], w.y[k])
        assert np.array_equal(legendre_transform(ms, wk),
                              0.5 * metrics._f2_y_jet(ms, wk.x, wk.y, 1).derivative(1))


def test_cartan_tensor_refuses_where_the_fundamental_tensor_does():
    # F = |y| + b.y = -0.5 at y = (-1, 0): g is indefinite there, and C used to
    # come back as all zeros while g was refused
    ms = metrics.randers(2, [1.5, 0.0])
    w = TangentVector([0.0, 0.0], [-1.0, 0.0])
    for tensor in (fundamental_tensor, cartan_tensor):
        with pytest.raises(NotPositiveDefinite, match=r"y=\[-1\.  0\.\]"):
            tensor(ms, w)


def test_random_tangent_refuses_a_bare_spray():
    # a spray has no sampling box; this used to end in an AttributeError
    bare = spray.SpraySpec(2, lambda xs, ys: [0.0, 0.0], name="flat")
    with pytest.raises(TypeError, match=r"SpraySpec\(flat, dim=2\)"):
        random_tangent(bare, SplitMix64(0))


# -- the admissibility contract -----------------------------------------------------


def _u(w):
    return np.ones(np.shape(w.y))


def _berwald(ms):
    return classical_lift("berwald", ms)


# every public entry point that takes a TangentVector, called at (ms, w)
_ENTRY_POINTS = {
    "metric_value": metric_value,
    "fundamental_tensor": fundamental_tensor,
    "cartan_tensor": cartan_tensor,
    "legendre_transform": legendre_transform,
    "spray_coefficients": spray.spray_coefficients,
    "curvature_endomorphism": spray.curvature_endomorphism,
    "flag_curvature": lambda ms, w: spray.flag_curvature(ms, w, _u(w)),
    "PointFrame": spray.PointFrame,
    "affine_coefficients": lambda ms, w: affine_coefficients(_berwald(ms), ms, w),
    "lift_curvature": lambda ms, w: lift_curvature(_berwald(ms), ms, w, _u(w)),
    "integrate_geodesic": lambda ms, w: integrate_geodesic(ms, w, 0.5),
    "spray_values": lambda ms, w: spray.spray_values(ms, w.x, w.y),
}

# violation: (metric, tangent vector, the typed error every entry point raises)
_VIOLATIONS = {
    "null y": (metrics.funk(2), TangentVector([0.1, 0.2], [0.0, 0.0]), NullDirection),
    "off chart": (metrics.funk(2), TangentVector([1.2, 0.0], [1.0, 0.0]), DomainError),
    # F = |y| + b.y = -0.5 < 0 while F^2 = 0.25 > 0
    "g not positive definite": (metrics.randers(2, [1.5, 0.0]),
                                TangentVector([0.0, 0.0], [-1.0, 0.0]), NotPositiveDefinite),
    "3-vector on a 2-D metric": (metrics.randers(2, [0.5, 0.0]),
                                 TangentVector([0.1, 0.2, 0.3], [1.0, 0.0, 0.0]), ValueError),
    # a NaN passes every comparison-based test: the flag curvature came out NaN
    "NaN x": (metrics.funk(2), TangentVector([np.nan, 0.1], [1.0, 0.0]), DomainError),
    "NaN y": (metrics.sphere_stereographic(2), TangentVector([0.1, 0.2], [np.nan, 0.0]),
              DomainError),
    "inf y": (metrics.randers(2, [0.5, 0.0]), TangentVector([0.1, 0.2], [np.inf, 1.0]),
              DomainError),
}


@pytest.mark.parametrize("entry, violation", [
    (entry, violation) for entry in _ENTRY_POINTS for violation in _VIOLATIONS])
def test_admissibility_contract(entry, violation):
    ms, w, error = _VIOLATIONS[violation]
    with pytest.raises(error) as info:
        _ENTRY_POINTS[entry](ms, w)
    assert info.type is error, info.value


def test_a_non_finite_point_refuses_the_batch_naming_the_first():
    ms = metrics.funk(2)
    x = np.tile([0.1, 0.2], (2, 3, 1))
    y = np.tile([1.0, 0.0], (2, 3, 1))
    x[1, 0, 1] = np.nan
    y[1, 2, 0] = np.inf
    for entry in ("PointFrame", "spray_values", "metric_value"):
        with pytest.raises(DomainError, match=r"x=\[0\.1 nan\], y=\[1\. 0\.\] at batch index "
                                              r"\(1, 0\)"):
            _ENTRY_POINTS[entry](ms, TangentVector(x, y))
