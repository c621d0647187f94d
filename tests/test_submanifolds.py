import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from finslergeo import metrics
from finslergeo.errors import InvalidLift, NoConvergence
from finslergeo.lifts import classical_lift, random_admissible_lift
from finslergeo.metrics import TangentVector, fundamental_tensor, metric_value
from finslergeo.rng import SplitMix64
from finslergeo.spray import PointFrame
from finslergeo.submanifolds import (_null_space, affine_subspace, circle,
                                     graph_curve, legendre_inverse,
                                     legendre_transform,
                                     normal_bundle_tangent_basis,
                                     normal_cone_solve, normality_residual,
                                     omega_F, sff_connection, sff_symplectic,
                                     sphere2)


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


def test_sff_connection_on_a_given_frame(randers_var):
    from finslergeo.spray import PointFrame

    circ = circle([0, 0], 1.0)
    nv = normal_cone_solve(circ, [0.3], randers_var, guess=inward_circle_guess(0.3))
    fr = PointFrame(randers_var, TangentVector(nv.x, nv.eta), order=4)
    for lift in (None, classical_lift("cartan", randers_var),
                 random_admissible_lift(randers_var, 23, enforce_m1m2=True)):
        assert (sff_connection(circ, [0.3], nv.eta, [0.7], [-0.4], randers_var, lift=lift,
                               _frame=fr)
                == sff_connection(circ, [0.3], nv.eta, [0.7], [-0.4], randers_var, lift=lift))
    with pytest.raises(InvalidLift):
        sff_connection(circ, [0.3], nv.eta, [0.7], [-0.4], randers_var,
                       lift=random_admissible_lift(randers_var, 29), _frame=fr)


def test_sff_rejects_incompatible_lift(randers_var):
    circ = circle([0, 0], 1.0)
    nv = normal_cone_solve(circ, [0.5], randers_var, guess=inward_circle_guess(0.5))
    bad = random_admissible_lift(randers_var, 29)  # admissible but not M1+M2
    with pytest.raises(InvalidLift):
        sff_connection(circ, [0.5], nv.eta, [1.0], [1.0], randers_var, lift=bad)


def test_sff_unsymmetrized_shortcut_for_t2(randers_var):
    circ = circle([0, 0], 1.0)
    nv = normal_cone_solve(circ, [1.1], randers_var, guess=inward_circle_guess(1.1))
    from finslergeo.lifts import lift_tensors
    from finslergeo.spray import PointFrame

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
    y = legendre_inverse(randers_var, w_generic.x, xi, guess=[1.0, 0.1])
    assert np.max(np.abs(y - w_generic.y)) < 1e-9
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


def test_legendre_inverse_no_convergence(randers_var, w_generic):
    xi = legendre_transform(randers_var, w_generic)
    with pytest.raises(NoConvergence):
        legendre_inverse(randers_var, w_generic.x, 50.0 * xi, guess=[1e-3, 1e-3],
                         max_iter=2)


def test_graph_curve_vertex_curvature(euclid2):
    half_parabola = graph_curve(lambda t: 0.5 * t * t)
    nv = normal_cone_solve(half_parabola, [0.0], euclid2, guess=[0.05, 1.0])
    assert np.allclose(nv.eta, [0.0, 1.0], atol=1e-12)
    # curvature of y = t^2/2 at the vertex is 1
    assert sff_connection(half_parabola, [0.0], nv.eta, [1.0], [1.0],
                          euclid2) == pytest.approx(1.0)
    assert sff_symplectic(half_parabola, nv, [1.0], [1.0],
                          euclid2) == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("name", ["euclid2", "randers_var"])
def test_sff_symplectic_with_a_shared_basis_is_the_same_number(name, request):
    ms = request.getfixturevalue(name)
    for sub, param, guess in ((circle([0, 0], 1.0), [0.9], inward_circle_guess(0.9)),
                              (affine_subspace([0.1, -0.2], [[0.8, 0.6]]), [0.3], [-0.6, 0.8])):
        nv = normal_cone_solve(sub, param, ms, guess=guess)
        rows = normal_bundle_tangent_basis(sub, nv, ms)
        # the order-4 frame sff-compare holds at the normal: N and g to rounding
        w = TangentVector(nv.x, nv.eta)
        fr = PointFrame(ms, w, order=4)
        for u, v in (([1.0], [1.0]), ([0.4], [-0.7])):
            alone = sff_symplectic(sub, nv, u, v, ms)
            assert sff_symplectic(sub, nv, u, v, ms, _basis=rows) == alone
            shared = sff_symplectic(sub, nv, u, v, ms, _basis=rows, _frame=fr)
            assert abs(shared - alone) <= 1e-14 * max(1.0, abs(alone))
        pairing = omega_F(ms, w, rows[0], rows[1])
        assert abs(omega_F(ms, w, rows[0], rows[1], _frame=fr) - pairing) <= 1e-14


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
        kern, ref = _null_space(constraints), null_space(constraints)
        assert kern.shape == ref.shape == (3, 3 - sub.param_dim)
        assert np.max(np.abs(kern.T @ kern - np.eye(kern.shape[1]))) <= 1e-14
        assert np.max(np.abs(constraints @ kern)) <= 1e-14
        assert np.max(np.abs(kern @ kern.T - ref @ ref.T)) <= 1e-14
