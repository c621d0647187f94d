import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from finslergeo import metrics, spray
from finslergeo.errors import InvalidLift, NoConvergence, SingularBasis
from finslergeo.jets import lift_any, smath
from finslergeo.lifts import (_CLASSICAL_TABLE, ClassicalKind, LiftSpec, affine_coefficients,
                              classical_lift, condition_residuals, lift_tensors,
                              random_admissible_lift)
from finslergeo.metrics import TangentVector, fundamental_tensor, metric_value
from finslergeo.rng import SplitMix64
from finslergeo.spray import PointFrame
from finslergeo.submanifolds import (Submanifold, _null_space, affine_subspace, circle,
                                     legendre_transform, normal_bundle_tangent_basis,
                                     normal_cone_solve, omega_F, sff_connection,
                                     sff_symplectic, sphere2)

from oracles import normal_rows_by_resolve, normality_residual
from test_spray import _counting_lifts


def inward_circle_guess(theta):
    return -np.array([np.cos(theta), np.sin(theta)])


# -- normal cone -------------------------------------------------------------------


def test_normal_solve_euclidean_axis(euclid2):
    ax = affine_subspace([0, 0], [[1, 0]])
    nv = normal_cone_solve(ax, [0.0], euclid2, guess=[0.1, 1.0])
    assert np.allclose(nv.eta, [0.0, 1.0], atol=1e-12)


def test_normal_cone_rescale_invariance(randers_var):
    circ = circle([0, 0], 1.0)
    nv = normal_cone_solve(circ, [0.7], randers_var, guess=inward_circle_guess(0.7))
    for lam in (0.5, 3.0, 11.0):
        assert normality_residual(circ, [0.7], randers_var, lam * nv.eta) < 1e-10


def test_normal_solve_foot_of_perpendicular_oracle(randers_const):
    # Minkowski norm: geodesics are straight segments, so the F-closest point
    # of a line realizes the normal direction of the connecting segment.
    line = affine_subspace([0.0, 1.0], [[1.0, 0.0]])
    q = np.array([0.3, -0.2])

    def dist(s):
        seg = np.array([s, 1.0]) - q
        return metric_value(randers_const, TangentVector(q, seg))

    s_star = minimize_scalar(dist, bounds=(-3, 3), method="bounded",
                             options={"xatol": 1e-12}).x
    eta_oracle = np.array([s_star, 1.0]) - q
    eta_oracle /= metric_value(randers_const, TangentVector(q, eta_oracle))
    nv = normal_cone_solve(line, [s_star - 0.0], randers_const, guess=[0.0, 1.0])
    # the oracle direction is normal at the foot; compare as directions
    assert normality_residual(line, [s_star], randers_const, eta_oracle) < 1e-4
    assert np.max(np.abs(nv.eta - eta_oracle)) < 1e-4


def test_normal_solve_no_convergence(euclid2):
    ax = affine_subspace([0, 0], [[1, 0]])
    with pytest.raises(NoConvergence):
        normal_cone_solve(ax, [0.0], euclid2, guess=[1.0, 0.0])  # tangent guess


def test_normal_solve_3d_sphere():
    eu3 = metrics.euclidean(3)
    sph = sphere2([0.0, 0.0, 0.0], 2.0)
    param = [1.1, 0.4]
    x = sph.value(param)
    nv = normal_cone_solve(sph, param, eu3, guess=-x + np.array([0.05, -0.02, 0.01]))
    assert np.allclose(nv.eta, -x / np.linalg.norm(x), atol=1e-10)


# -- second fundamental form (connection route) --------------------------------------


def test_sff_connection_euclidean_examples(euclid2):
    ax = affine_subspace([0, 0], [[1, 0]])
    assert sff_connection(ax, [0.3], [0.0, 1.0], [1.0], [1.0], euclid2) == pytest.approx(0.0)
    circ = circle([0, 0], 1.0)
    nv = normal_cone_solve(circ, [0.0], euclid2, guess=inward_circle_guess(0.0))
    assert sff_connection(circ, [0.0], nv.eta, [1.0], [1.0], euclid2) == pytest.approx(1.0)


def test_sff_connection_sphere_3d():
    eu3 = metrics.euclidean(3)
    sph = sphere2([0.0, 0.0, 0.0], 2.0)
    param = [0.9, -0.3]
    x = sph.value(param)
    nv = normal_cone_solve(sph, param, eu3, guess=-x)
    basis = sph.jacobian(param)
    gram = basis.T @ basis
    h = sff_connection(sph, param, nv.eta, [1.0, 0.0], [1.0, 0.0], eu3)
    # inward-normal curvature of a radius-2 sphere is 1/2 on unit tangents
    assert h / gram[0, 0] == pytest.approx(0.5, abs=1e-10)


def test_sff_lift_independence(randers_var):
    circ = circle([0, 0], 1.0)
    nv = normal_cone_solve(circ, [0.3], randers_var, guess=inward_circle_guess(0.3))
    vals = []
    for kind in ("berwald", "cartan", "chern-rund", "hashiguchi"):
        vals.append(sff_connection(circ, [0.3], nv.eta, [0.7], [-0.4], randers_var,
                                   lift=classical_lift(kind, randers_var)))
    vals.append(sff_connection(circ, [0.3], nv.eta, [0.7], [-0.4], randers_var,
                               lift=random_admissible_lift(randers_var, 23,
                                                           enforce_m1m2=True)))
    assert max(vals) - min(vals) < 1e-8


def test_sff_connection_on_a_given_frame(randers_var, monkeypatch):
    circ = circle([0, 0], 1.0)
    nv = normal_cone_solve(circ, [0.3], randers_var, guess=inward_circle_guess(0.3))
    kinds = (None, classical_lift("cartan", randers_var),
             random_admissible_lift(randers_var, 23, enforce_m1m2=True))
    alone = []
    for lift in kinds:
        spray._memo.clear()
        alone.append(sff_connection(circ, [0.3], nv.eta, [0.7], [-0.4], randers_var, lift=lift))
    # every lift reads the order-4 frame already built at the normal
    PointFrame(randers_var, TangentVector(nv.x, nv.eta), order=4)
    lifts = _counting_lifts(monkeypatch)
    for lift, value in zip(kinds, alone):
        assert sff_connection(circ, [0.3], nv.eta, [0.7], [-0.4], randers_var, lift=lift) == value
    with pytest.raises(InvalidLift):
        sff_connection(circ, [0.3], nv.eta, [0.7], [-0.4], randers_var,
                       lift=random_admissible_lift(randers_var, 29))
    assert lifts == []


def test_a_classical_lift_raises_its_halves_once_per_frame(randers_var, monkeypatch):
    # condition_residuals keeps a classical lift's raised halves on the frame, and
    # every later reader of the lift at the same points reads them there
    circ = circle([0, 0], 1.0)
    nv = normal_cone_solve(circ, [0.3], randers_var, guess=inward_circle_guess(0.3))
    w = TangentVector(nv.x, nv.eta)
    raised = []
    raise_last = PointFrame.raise_last
    monkeypatch.setattr(PointFrame, "raise_last",
                        lambda fr, t: raised.append(1) or raise_last(fr, t))
    for kind in ClassicalKind:
        lift = classical_lift(kind, randers_var)
        spray._memo.clear()
        fr = PointFrame(randers_var, w, order=4)
        raised.clear()
        condition_residuals(lift, fr)
        # one raise per half the lift carries: C' alone for Chern-Rund, none for Berwald
        assert len(raised) == sum(_CLASSICAL_TABLE[kind]), kind
        raised.clear()
        affine_coefficients(lift, randers_var, w)
        lift_tensors(lift, fr)
        sff_connection(circ, [0.3], nv.eta, [0.7], [-0.4], randers_var, lift=lift)
        assert raised == [], kind


def test_sff_rejects_incompatible_lift(randers_var):
    circ = circle([0, 0], 1.0)
    nv = normal_cone_solve(circ, [0.5], randers_var, guess=inward_circle_guess(0.5))
    bad = random_admissible_lift(randers_var, 29)  # admissible but not M1+M2
    with pytest.raises(InvalidLift):
        sff_connection(circ, [0.5], nv.eta, [1.0], [1.0], randers_var, lift=bad)


def test_sff_unsymmetrized_shortcut_for_t2(randers_var):
    circ = circle([0, 0], 1.0)
    nv = normal_cone_solve(circ, [1.1], randers_var, guess=inward_circle_guess(1.1))
    lift = classical_lift("cartan", randers_var)
    h_sym = sff_connection(circ, [1.1], nv.eta, [0.8], [0.6], randers_var, lift=lift)
    fr = PointFrame(randers_var, TangentVector(nv.x, nv.eta), order=4)
    _, cp = lift_tensors(lift, fr)
    A = fr.B + cp
    basis = circ.jacobian([1.1])
    hess = circ.hessian([1.1])
    uu = basis @ [0.8]
    vv = basis @ [0.6]
    unsym = float(nv.eta @ fr.g @ (np.einsum("iab,a,b->i", hess, [0.8], [0.6])
                                   + np.einsum("ijk,j,k->i", A, uu, vv)))
    assert abs(unsym - h_sym) < 1e-7


# -- symplectic structure --------------------------------------------------------------


def test_omega_examples(euclid2, w_generic):
    assert omega_F(euclid2, w_generic, [1, 0, 0, 0], [0, 1, 0, 0]) == 0.0
    assert omega_F(euclid2, w_generic, [1, 0, 0, 0], [0, 0, 1, 0]) == pytest.approx(1.0)
    # euclidean: standard symplectic pairing
    X1 = np.array([0.3, -0.2, 0.5, 0.1])
    X2 = np.array([-0.1, 0.4, 0.2, 0.7])
    std = X1[:2] @ X2[2:] - X1[2:] @ X2[:2]
    assert omega_F(euclid2, w_generic, X1, X2) == pytest.approx(std)


def test_omega_antisymmetric_nondegenerate(randers_var, w_generic):
    rng = SplitMix64(71)
    vecs = [rng.vector(4) for _ in range(4)]
    m = np.array([[omega_F(randers_var, w_generic, a, b) for b in vecs] for a in vecs])
    assert np.max(np.abs(m + m.T)) < 1e-12
    assert abs(np.linalg.det(m)) > 1e-6


def test_legendre(euclid2, randers_var, w_generic):
    assert np.allclose(legendre_transform(euclid2, w_generic), w_generic.y)
    xi = legendre_transform(randers_var, w_generic)
    assert xi @ w_generic.y == pytest.approx(metric_value(randers_var, w_generic) ** 2)
    # 1-homogeneity
    xi2 = legendre_transform(randers_var, TangentVector(w_generic.x, 2.0 * w_generic.y))
    assert np.max(np.abs(xi2 - 2.0 * xi)) < 1e-12


# -- normal bundle and symplectic second fundamental form -------------------------------


def test_basis_euclidean_axis(euclid2):
    ax = affine_subspace([0, 0], [[1, 0]])
    nv = normal_cone_solve(ax, [0.0], euclid2, guess=[0.0, 1.0])
    rows = normal_bundle_tangent_basis(ax, nv, euclid2)
    assert rows.shape == (2, 4)
    assert np.allclose(rows[0], [1, 0, 0, 0], atol=1e-9)  # along the axis
    assert np.allclose(rows[1][:2], [0, 0])               # radial fiber direction
    assert abs(omega_F(euclid2, TangentVector(nv.x, nv.eta), rows[0], rows[1])) < 1e-9


def test_lagrangean_property_and_rank(randers_var):
    circ = circle([0, 0], 1.0)
    rng = SplitMix64(83)
    for _ in range(10):
        th = rng.uniform(0, 2 * np.pi)
        nv = normal_cone_solve(circ, [th], randers_var, guess=inward_circle_guess(th))
        rows = normal_bundle_tangent_basis(circ, nv, randers_var)
        assert np.linalg.matrix_rank(rows, tol=1e-8) == 2
        w = TangentVector(nv.x, nv.eta)
        worst = max(abs(omega_F(randers_var, w, rows[i], rows[j]))
                    for i in range(2) for j in range(2))
        assert worst < 1e-6


def test_sff_symplectic_euclidean(euclid2):
    ax = affine_subspace([0, 0], [[1, 0]])
    nv = normal_cone_solve(ax, [0.2], euclid2, guess=[0.0, 1.0])
    assert abs(sff_symplectic(ax, nv, [1.0], [1.0], euclid2)) < 1e-9
    circ = circle([0, 0], 1.0)
    nv = normal_cone_solve(circ, [0.4], euclid2, guess=inward_circle_guess(0.4))
    assert sff_symplectic(circ, nv, [1.0], [1.0], euclid2) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("name", ["euclid2", "randers_var"])
def test_sff_agreement_sweep(name, request):
    ms = request.getfixturevalue(name)
    circ = circle([0, 0], 1.0)
    line = affine_subspace([0.1, -0.2], [[0.8, 0.6]])
    rng = SplitMix64(91)
    worst_sym = 0.0
    for i in range(10):
        if i % 2 == 0:
            sub = circ
            th = rng.uniform(0, 2 * np.pi)
            param, guess = [th], inward_circle_guess(th)
        else:
            sub = line
            param, guess = [rng.uniform(-0.5, 0.5)], np.array([-0.6, 0.8])
        nv = normal_cone_solve(sub, param, ms, guess=guess)
        u = [rng.uniform(-1, 1)]
        v = [rng.uniform(-1, 1)]
        hc = sff_connection(sub, param, nv.eta, u, v, ms)
        bs = sff_symplectic(sub, nv, u, v, ms)
        assert abs(hc - bs) < 1e-5
        worst_sym = max(worst_sym, abs(sff_symplectic(sub, nv, u, v, ms)
                                       - sff_symplectic(sub, nv, v, u, ms)))
    assert worst_sym < 1e-9


def test_graph_curve_vertex_curvature(euclid2):
    half_parabola = Submanifold(1, 2, lambda ps: [ps[0], 0.5 * ps[0] * ps[0]], name="graph")
    nv = normal_cone_solve(half_parabola, [0.0], euclid2, guess=[0.05, 1.0])
    assert np.allclose(nv.eta, [0.0, 1.0], atol=1e-12)
    # curvature of y = t^2/2 at the vertex is 1
    assert sff_connection(half_parabola, [0.0], nv.eta, [1.0], [1.0],
                          euclid2) == pytest.approx(1.0)
    assert sff_symplectic(half_parabola, nv, [1.0], [1.0],
                          euclid2) == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("name", ["euclid2", "randers_var"])
def test_sff_symplectic_with_a_shared_basis_is_the_same_number(name, request, monkeypatch):
    ms = request.getfixturevalue(name)
    lifts = _counting_lifts(monkeypatch)
    for sub, param, guess in ((circle([0, 0], 1.0), [0.9], inward_circle_guess(0.9)),
                              (affine_subspace([0.1, -0.2], [[0.8, 0.6]]), [0.3], [-0.6, 0.8])):
        nv = normal_cone_solve(sub, param, ms, guess=guess)
        rows = normal_bundle_tangent_basis(sub, nv, ms)
        # the symplectic reads take the order-4 frame the basis built at the normal
        built = len(lifts)
        for u, v in (([1.0], [1.0]), ([0.4], [-0.7])):
            alone = sff_symplectic(sub, nv, u, v, ms)
            assert sff_symplectic(sub, nv, u, v, ms, _basis=rows) == alone
        omega_F(ms, TangentVector(nv.x, nv.eta), rows[0], rows[1])
        assert len(lifts) == built


def _linearized_normality(P, nv, ms, rows):
    """The largest t-derivative at 0 of F^2(x(t), eta(t)) and of g(eta(t), dphi_a(p(t)))
    along each row b < k, with p(t) = p + t e_b and eta(t) = eta + t (row b's fiber
    part): exact jets of F^2 and of the immersion rule, no frame. Both vanish for the
    derivative of a unit normal."""
    n, k = P.dim, P.param_dim
    p, eta = nv.param, nv.eta
    worst = 0.0
    for b in range(k):
        for a in range(k):
            def fn(z, a=a, b=b):
                t, s = z[0], z[1]
                pt = [p[i] + (t if i == b else 0.0) for i in range(k)]
                x = P.immersion(pt)
                # phi(p(t) + s e_a) - phi(p(t)) is s dphi_a(p(t)) to first order in s
                xa = P.immersion([pt[i] + (s if i == a else 0.0) for i in range(k)])
                return ms.f2(x, [eta[i] + t * rows[b, n + i] + (xa[i] - x[i]) for i in range(n)])

            jet = lift_any(fn, np.zeros(2), 2)
            worst = max(worst, abs(jet.derivative(1)[0]), abs(jet.derivative(2)[0, 1]))
    return worst


_SPHERE = sphere2([0.0, 0.0, 0.0], 0.8)
_NORMAL_BUNDLE_CASES = {
    "circle": (circle([0, 0], 1.0), [2.3], inward_circle_guess(2.3)),
    "line": (affine_subspace([0.1, -0.2], [[0.8, 0.6]]), [0.3], [-0.6, 0.8]),
    "line3": (affine_subspace([0.1, -0.2, 0.05], [[0.8, 0.6, 0.1]]), [0.2], [-0.6, 0.8, 0.3]),
    "sphere": (_SPHERE, [1.1, 0.4], -_SPHERE.value([1.1, 0.4])),
}


@pytest.mark.parametrize("name, shape", [("euclid2", "circle"), ("randers_var", "circle"),
                                         ("randers_var", "line"), ("randers3", "line3"),
                                         ("randers3", "sphere")])
def test_normal_bundle_rows_are_the_implicit_derivative(name, shape, request):
    # the along rows come from one Gram solve, not from re-solved normals: they satisfy
    # the linearized normal-cone equations to rounding and match a central-difference
    # re-solve (h = 1e-4) to its truncation and tolerance error
    if name == "randers3":
        ms = metrics.randers(3, lambda xs: [0.2 + 0.1 * smath.sin(xs[1]),
                                            0.15 * smath.cos(xs[0]), 0.1 * smath.sin(xs[2])])
    else:
        ms = request.getfixturevalue(name)
    sub, param, guess = _NORMAL_BUNDLE_CASES[shape]
    nv = normal_cone_solve(sub, param, ms, guess=guess)
    rows = normal_bundle_tangent_basis(sub, nv, ms)
    k = sub.param_dim
    assert _linearized_normality(sub, nv, ms, rows) <= 1e-13
    assert np.max(np.abs(rows[:k] - normal_rows_by_resolve(sub, nv, ms))) <= 1e-7


def test_null_space_matches_scipy():
    from scipy.linalg import null_space

    eu3 = metrics.euclidean(3)
    line = affine_subspace([0.1, -0.2, 0.3], [[0.8, 0.6, -0.2]])
    sph = sphere2([0.0, 0.0, 0.0], 2.0)
    for sub, param, guess in ((line, [0.4], [-0.6, 0.8, 0.0]),
                              (sph, [1.1, 0.4], -sph.value([1.1, 0.4]))):
        nv = normal_cone_solve(sub, param, eu3, guess=guess)
        constraints = sub.jacobian(param).T @ fundamental_tensor(eu3, TangentVector(
            nv.x, nv.eta)).g
        kern, ref = _null_space(constraints, 3 - sub.param_dim), null_space(constraints)
        assert kern.shape == ref.shape == (3, 3 - sub.param_dim)
        assert np.max(np.abs(kern.T @ kern - np.eye(kern.shape[1]))) <= 1e-14
        assert np.max(np.abs(constraints @ kern)) <= 1e-14
        assert np.max(np.abs(kern @ kern.T - ref @ ref.T)) <= 1e-14


def test_normal_cone_solve_refuses_a_guess_of_the_wrong_length(euclid2):
    # it used to end in numpy's matmul message
    line = affine_subspace([0.0, 0.0], [[1.0, 0.0]])
    with pytest.raises(ValueError, match=r"guess of shape \(3,\).*point of shape \(2,\)"):
        normal_cone_solve(line, [0.0], euclid2, guess=[0.0, 1.0, 0.0])


# -- batches ----------------------------------------------------------------------------


def _same_bits(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ["euclid2", "randers_var"])
@pytest.mark.parametrize("shape", ["circle", "line"])
def test_batched_entry_points_equal_their_single_calls(name, shape, request):
    ms = request.getfixturevalue(name)
    rng = SplitMix64(97)
    if shape == "circle":
        sub = circle([0, 0], 1.0)
        param = np.array([rng.uniform(0.0, 2 * np.pi) for _ in range(6)])
        guess = np.stack([inward_circle_guess(th) for th in param])
    else:
        sub = affine_subspace([0.1, -0.2], [[0.8, 0.6]])
        param = np.array([rng.uniform(-0.5, 0.5) for _ in range(6)])
        guess = np.tile([-0.6, 0.8], (6, 1))
    # two batch axes
    param, guess = param.reshape(2, 3, 1), guess.reshape(2, 3, 2)
    u, v = (np.array([rng.uniform(-1, 1) for _ in range(6)]).reshape(2, 3, 1) for _ in "uv")
    nv = normal_cone_solve(sub, param, ms, guess=guess)
    w = TangentVector(nv.x, nv.eta)
    rows = normal_bundle_tangent_basis(sub, nv, ms)
    lifts = (None, classical_lift("cartan", ms), random_admissible_lift(ms, 23, enforce_m1m2=True))
    h = [sff_connection(sub, param, nv.eta, u, v, ms, lift=lift) for lift in lifts]
    b = sff_symplectic(sub, nv, u, v, ms)
    om = omega_F(ms, w, rows[..., 0, :], rows[..., 1, :])
    xi = legendre_transform(ms, w)
    for at in np.ndindex(2, 3):
        for method in (sub.value, sub.jacobian, sub.hessian):
            assert _same_bits(method(param)[at], method(param[at]))
        one = normal_cone_solve(sub, param[at], ms, guess=guess[at])
        assert all(_same_bits(getattr(nv, f)[at], getattr(one, f)) for f in ("param", "x", "eta"))
        one_rows = normal_bundle_tangent_basis(sub, one, ms)
        assert _same_bits(rows[at], one_rows)
        for lift, hb in zip(lifts, h):
            assert _same_bits(hb[at], sff_connection(sub, param[at], one.eta, u[at], v[at], ms,
                                                     lift=lift))
        assert _same_bits(b[at], sff_symplectic(sub, one, u[at], v[at], ms))
        one_w = TangentVector(one.x, one.eta)
        assert _same_bits(om[at], omega_F(ms, one_w, one_rows[0], one_rows[1]))
        assert _same_bits(xi[at], legendre_transform(ms, one_w))
        assert _same_bits(metric_value(ms, w)[at], metric_value(ms, one_w))


def test_a_rank_deficient_point_refuses_its_batch_by_index(euclid2):
    cusp = Submanifold(1, 2, lambda ps: [ps[0] * ps[0] * ps[0], ps[0] * ps[0]], name="cusp")
    param = [[0.5], [0.0], [0.7]]
    for call in (lambda: cusp.jacobian(param),
                 lambda: normal_cone_solve(cusp, param, euclid2, guess=[[0.0, 1.0]] * 3),
                 lambda: sff_connection(cusp, param, [[0.0, 1.0]] * 3, [1.0], [1.0], euclid2)):
        with pytest.raises(SingularBasis, match=r"rank-deficient at \[0\.\] at batch index \(1,\)"):
            call()


def test_a_normal_solve_that_fails_refuses_its_batch_by_index(euclid2):
    ax = affine_subspace([0, 0], [[1, 0]])
    param = [[0.2], [0.0], [-0.4]]
    with pytest.raises(NoConvergence, match=r"collapsed .* at batch index \(2,\)"):
        normal_cone_solve(ax, param, euclid2, guess=[[0.1, 1.0], [0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NoConvergence, match=r"zero guess .* at batch index \(1,\)"):
        normal_cone_solve(ax, param, euclid2, guess=[[0.1, 1.0], [0.0, 0.0], [1.0, 0.0]])


def test_an_incompatible_lift_at_one_point_refuses_its_batch_by_index(euclid2):
    def c_flat(w):
        # admissible everywhere (p is orthogonal to y), M2 fails where x^1 > 0.5 only
        s = np.maximum(0.0, w.x[0] - 0.5)
        p = [-w.y[1], w.y[0]]
        return [[[s * w.y[j] * p[k] * w.y[m] for m in range(2)] for k in range(2)]
                for j in range(2)]

    ax = affine_subspace([0, 0], [[1, 0]])
    param, eta = [[-0.3], [0.1], [0.8]], [[0.0, 1.0]] * 3
    bump = LiftSpec("bump", c_flat=c_flat)
    assert sff_connection(ax, param[:2], eta[:2], [1.0], [1.0], euclid2,
                          lift=bump).tolist() == [0.0, 0.0]
    with pytest.raises(InvalidLift, match=r"lift bump violates .* at batch index \(2,\)"):
        sff_connection(ax, param, eta, [1.0], [1.0], euclid2, lift=bump)
