import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslergeo import metrics, spray
from finslergeo.errors import DomainError, NotPositiveDefinite, NullDirection
from finslergeo.jets import smath
from finslergeo.lifts import (SectionJet, affine_coefficients, classical_lift,
                              condition_residuals, lift_curvature, nabla_apply)
from finslergeo.metrics import (TangentVector, cartan_tensor, check_metric,
                                fundamental_tensor, metric_value, random_tangent)
from finslergeo.rng import SplitMix64
from finslergeo.submanifolds import circle, legendre_transform, normal_cone_solve, omega_F
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
    # g and the Legendre covector come from one y-jet, bit for bit what the
    # separate order-2 and order-1 jets gave, on a batch
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


def _X(w):
    """A raw tangent vector (..., 2n) of TM\\0 at every point of w."""
    return np.ones(np.shape(w.y)[:-1] + (2 * np.shape(w.y)[-1],))


def _section(w):
    n = np.shape(w.y)[-1]
    return SectionJet(_u(w), np.zeros(np.shape(w.y) + (n,)), np.zeros(np.shape(w.y) + (n,)))


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
    "nabla_apply": lambda ms, w: nabla_apply(_berwald(ms), ms, w, _X(w), _section(w)),
    "omega_F": lambda ms, w: omega_F(ms, w, _X(w), _X(w)),
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
    # |y|^2 overflows: numpy's overflow warning used to end the call untyped
    "overflowing y": (metrics.funk(2), TangentVector([0.1, 0.2], [1e200, 1e200]), DomainError),
}


@pytest.mark.parametrize("entry, violation", [
    (entry, violation) for entry in _ENTRY_POINTS for violation in _VIOLATIONS])
def test_admissibility_contract(entry, violation):
    ms, w, error = _VIOLATIONS[violation]
    # a refused point leaves no memo entry, so a second call refuses again
    for _ in range(2):
        with pytest.raises(error) as info:
            _ENTRY_POINTS[entry](ms, w)
        assert info.type is error, info.value
    assert len(metrics._y_jets) == 0 and len(spray._memo) == 0


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


def test_every_exported_tangent_vector_entry_point_has_a_contract_row():
    # a public function or constructor with a TangentVector parameter is an
    # entry point of the admissibility contract; the result records are not
    import dataclasses
    import inspect

    import finslergeo

    takers = set()
    for name in dir(finslergeo):
        obj = getattr(finslergeo, name)
        if name.startswith("_") or not callable(obj) or dataclasses.is_dataclass(obj):
            continue
        try:
            params = inspect.signature(obj).parameters.values()
        except (TypeError, ValueError):
            continue
        if any("TangentVector" in str(p.annotation) for p in params):
            takers.add(name)
    assert "metric_value" in takers and "PointFrame" in takers
    assert takers - _ENTRY_POINTS.keys() == set()


def test_an_overflowing_direction_names_the_first_bad_point():
    x = np.tile([0.1, 0.2], (3, 1))
    y = np.tile([1.0, 0.5], (3, 1))
    y[2] = [1e200, 1e200]
    with pytest.raises(DomainError, match=r"overflows.*x=\[0\.1 0\.2\], y=\[1\.e\+200 1\.e\+200\] "
                                          r"at batch index \(2,\)"):
        fundamental_tensor(metrics.funk(2), TangentVector(x, y))
    # a large direction whose squared norm is finite is still admissible
    g = fundamental_tensor(metrics.euclidean(2), TangentVector([0.0, 0.0], [1e150, 1e150])).g
    assert np.array_equal(g, np.eye(2))


# -- the y-jet memo -------------------------------------------------------------------


def _conformal():
    return metrics.custom(2, lambda xs, ys: smath.dot(ys, ys) * smath.exp(xs[0] * xs[1]),
                          name="conformal", domain_margin=lambda x: 1.0 - (x * x).sum(axis=-1))


# every metric kind: the six built-in fixtures and a custom rule
_KINDS = ALL_BUILTINS + ["conformal"]


def _metric(name, request):
    return _conformal() if name == "conformal" else request.getfixturevalue(name)


def _y_readers(ms, w):
    """F, g, C and the Legendre covector at w through the public readers."""
    return {"F": np.asarray(metric_value(ms, w)), "g": fundamental_tensor(ms, w).g,
            "C": cartan_tensor(ms, w).C, "xi": legendre_transform(ms, w)}


def _counting_y_lifts(monkeypatch):
    """The orders of the y-jet lifts of F^2 from now on."""
    orders = []
    real = metrics.lift_any
    monkeypatch.setattr(metrics, "lift_any",
                        lambda fn, center, order: orders.append(order) or real(fn, center, order))
    return orders


@pytest.mark.parametrize("name", _KINDS)
def test_a_y_jet_memo_hit_is_bitwise_a_fresh_lift(name, request, monkeypatch):
    ms = _metric(name, request)
    rng = SplitMix64(53)
    single = random_tangent(ms, rng)
    batch = TangentVector.stack([random_tangent(ms, rng) for _ in range(5)])
    for w in (single, batch):
        # what the readers gave before they shared a jet: an order-2 lift for F,
        # g and the covector, an order-3 one for C
        j2, j3 = (metrics._f2_y_jet(ms, w.x, w.y, q) for q in (2, 3))
        fresh = {"F": np.sqrt(j2.value), "g": 0.5 * j2.derivative(2),
                 "C": 0.25 * j3.derivative(3), "xi": 0.5 * j2.derivative(1)}
        lifts = _counting_y_lifts(monkeypatch)
        first = _y_readers(ms, w)
        hit = _y_readers(ms, w)
        assert lifts == [3]
        monkeypatch.undo()
        for key, value in fresh.items():
            assert first[key].tobytes() == value.tobytes(), (key, w.x.shape)
            assert hit[key].tobytes() == value.tobytes(), (key, w.x.shape)


def test_a_point_tour_op_checks_twice_and_lifts_twice(randers_var, monkeypatch):
    from finslergeo.lifts import ClassicalKind

    rng = SplitMix64(59)
    w = random_tangent(randers_var, rng)
    u = np.array([-w.y[1], w.y[0]])
    checks = []
    check = metrics.MetricSpec.check_tangent
    monkeypatch.setattr(metrics.MetricSpec, "check_tangent",
                        lambda ms, at: checks.append(1) or check(ms, at))
    lifts = _counting_y_lifts(monkeypatch)
    real = spray.lift_any
    monkeypatch.setattr(spray, "lift_any",
                        lambda fn, center, order: lifts.append(order) or real(fn, center, order))
    # the benchmark's library tour at one point, with F and the covector as well
    fundamental_tensor(randers_var, w)
    cartan_tensor(randers_var, w)
    spray.spray_coefficients(randers_var, w)
    spray.curvature_endomorphism(randers_var, w)
    spray.flag_curvature(randers_var, w, u)
    spray.spray_values(randers_var, w.x, w.y)
    fr = spray.PointFrame(randers_var, w, order=4)
    for kind in ClassicalKind:
        condition_residuals(classical_lift(kind, randers_var), fr)
    metric_value(randers_var, w)
    legendre_transform(randers_var, w)
    # one y-jet and one frame, each checked on its build
    assert lifts == [3, 4]
    assert len(checks) == 2


def test_the_internal_sweeps_make_no_y_jet_entry(randers_var):
    nv = normal_cone_solve(circle([0, 0], 1.0), [0.3], randers_var, guess=[-0.9, -0.3])
    check_metric(randers_var, 20, seed=5)
    assert len(metrics._y_jets) == 0
    assert metric_value(randers_var, TangentVector(nv.x, nv.eta)) == pytest.approx(1.0, abs=1e-14)


def test_a_memoized_y_jet_is_read_only_and_the_tensors_are_the_callers(randers_var):
    w = random_tangent(randers_var, SplitMix64(61))
    g = fundamental_tensor(randers_var, w).g
    jet = metrics._y_jet(randers_var, w)
    assert len(metrics._y_jets) == 1
    with pytest.raises(ValueError, match="read-only"):
        jet.c[...] = 0.0
    # a reader hands out a fresh array: writing it leaves the next read as it was
    g[...] = 0.0
    C = cartan_tensor(randers_var, w).C
    C[...] = 0.0
    assert np.all(fundamental_tensor(randers_var, w).g != 0.0)
    assert np.any(cartan_tensor(randers_var, w).C != 0.0)


def test_the_y_jet_memo_misses_another_source_or_point_and_is_bounded(monkeypatch):
    import copy

    ms = metrics.randers(2, [0.3, 0.1])
    twin = copy.copy(ms)
    w = TangentVector([0.0, 0.2], [1.0, 0.5])
    fundamental_tensor(ms, w)
    lifts = _counting_y_lifts(monkeypatch)
    cartan_tensor(ms, w)
    assert lifts == []
    cartan_tensor(twin, w)
    cartan_tensor(ms, TangentVector([-0.0, 0.2], w.y))   # other bytes, the same point
    cartan_tensor(ms, TangentVector.stack([w]))          # another shape
    assert lifts == [3, 3, 3]
    rng = SplitMix64(67)
    for _ in range(3 * metrics._MEMO_SIZE):
        metric_value(ms, random_tangent(ms, rng))
        assert len(metrics._y_jets) <= metrics._MEMO_SIZE
