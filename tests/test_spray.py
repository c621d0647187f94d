import copy

import numpy as np
import pytest

from finslergeo import metrics, spray
from finslergeo.jets import Jet, lift_any, smath, space_for
from finslergeo.lifts import affine_coefficients, classical_lift, lift_tensors
from finslergeo.errors import (DegenerateFlag, DomainError, NotHomogeneous, NotPositiveDefinite,
                               NullDirection)
from finslergeo.metrics import TangentVector, random_tangent
from finslergeo.rng import SplitMix64
from finslergeo.spray import (PointFrame, SpraySpec, adapted_split, curvature_endomorphism,
                              flag_curvature, spray_coefficients, spray_values)
from finslergeo.variational import integrate_geodesic

from oracles import euler_lagrange_spray, riemann_jacobi_operator


def test_euclidean_spray_vanishes(euclid2):
    sd = spray_coefficients(euclid2, TangentVector([0.3, -0.2], [1.0, 0.5]))
    assert np.max(np.abs(sd.G)) == 0.0
    assert np.max(np.abs(sd.N)) == 0.0
    assert np.max(np.abs(sd.B)) == 0.0


def test_sphere_origin_spray_vanishes(sphere):
    sd = spray_coefficients(sphere, TangentVector([0.0, 0.0], [0.7, -0.3]))
    assert np.max(np.abs(sd.G)) < 1e-14


def test_spray_matches_euler_lagrange_oracle(randers_var):
    for (x, y) in ([[0.0, 0.0], [0.0, 1.0]], [[0.3, -0.4], [0.8, 0.5]],
                   [[-0.2, 0.6], [0.4, -0.9]]):
        sd = spray_coefficients(randers_var, TangentVector(x, y))
        oracle = euler_lagrange_spray(randers_var, x, y)
        assert np.max(np.abs(sd.G - oracle)) < 1e-5


@pytest.mark.parametrize("name", ["sphere", "poincare", "funk", "randers_var"])
def test_homogeneity_chain(name, request):
    ms = request.getfixturevalue(name)
    rng = SplitMix64(3)
    for _ in range(50):
        w = random_tangent(ms, rng)
        sd = spray_coefficients(ms, w)
        assert np.max(np.abs(sd.N @ w.y - 2 * sd.G)) < 1e-9
        assert np.max(np.abs(np.einsum("ijk,j,k->i", sd.B, w.y, w.y) - 2 * sd.G)) < 1e-9


def test_horizontal_vertical_split(randers_var):
    w = TangentVector([0.2, 0.1], [0.9, -0.4])
    fr = PointFrame(randers_var, w)
    u = np.array([1.0, 0.0])
    # the horizontal lift of u, raw (u, -N u), has adapted parts (u, 0)
    a, b = adapted_split(fr, np.concatenate([u, -fr.N @ u]))
    assert np.array_equal(a, u)
    assert np.max(np.abs(b)) < 1e-12
    # vertical vectors keep their fiber components
    a, b = adapted_split(fr, [0.0, 0.0, 0.3, -0.7])
    assert not a.any() and np.array_equal(b, [0.3, -0.7])
    # reconstruction: X is hor(a) plus the vertical vector with fiber components b
    X = np.array([0.5, -0.2, 0.7, 0.1])
    a, b = adapted_split(fr, X)
    assert np.max(np.abs(np.concatenate([a, b - fr.N @ a]) - X)) < 1e-15
    # a batch splits each point as its own call does
    Xs = np.array([X, [0.0, 0.0, 0.3, -0.7], [-1.0, 2.0, 0.5, 0.0]])
    frames = PointFrame(randers_var, TangentVector(np.stack([w.x] * 3), np.stack([w.y] * 3)))
    for part, parts in zip(adapted_split(frames, Xs), zip(*(adapted_split(fr, x) for x in Xs))):
        assert np.array_equal(part, np.stack(parts))


def test_euclidean_curvature_zero(euclid2):
    R = curvature_endomorphism(euclid2, TangentVector([1.0, 2.0], [0.3, 0.4])).R
    assert np.max(np.abs(R)) == 0.0


def test_sphere_unit_curvature_ratio(sphere):
    rng = SplitMix64(8)
    for _ in range(20):
        w = random_tangent(sphere, rng)
        u = rng.direction(2)
        k = flag_curvature(sphere, w, u)
        assert abs(k - 1.0) < 1e-6


def test_poincare_and_funk_flag_values(poincare, funk):
    rng = SplitMix64(12)
    for _ in range(100):
        w = random_tangent(poincare, rng)
        assert abs(flag_curvature(poincare, w, rng.direction(2)) + 1.0) < 1e-6
    for _ in range(100):
        w = random_tangent(funk, rng)
        assert abs(flag_curvature(funk, w, rng.direction(2)) + 0.25) < 1e-4


def test_flag_invariance(randers_var):
    rng = SplitMix64(31)
    for _ in range(10):
        w = random_tangent(randers_var, rng)
        u = rng.direction(2)
        k0 = flag_curvature(randers_var, w, u)
        assert abs(flag_curvature(randers_var, w, u + 3.0 * w.y) - k0) < 1e-9
        assert abs(flag_curvature(randers_var, w, 0.2 * u) - k0) < 1e-9


def test_degenerate_flag_raises(euclid2):
    w = TangentVector([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(DegenerateFlag):
        flag_curvature(euclid2, w, [2.0, 0.0])


def test_batched_flag_curvature_is_bitwise_per_point(randers_var):
    for ms in (randers_var, metrics.funk(3)):
        rng = SplitMix64(67)
        ws = [random_tangent(ms, rng) for _ in range(6)]
        us = np.array([rng.direction(ms.dim) for _ in ws])
        w = TangentVector.stack(ws)
        K = flag_curvature(ms, TangentVector(w.x.reshape(2, 3, -1), w.y.reshape(2, 3, -1)),
                           us.reshape(2, 3, -1))
        assert K.shape == (2, 3)
        for i, (wi, ui) in enumerate(zip(ws, us)):
            single = flag_curvature(ms, wi, ui)
            assert isinstance(single, float)
            assert K.flat[i] == single


def test_degenerate_flag_in_a_batch_names_its_index(randers_var):
    rng = SplitMix64(71)
    ws = TangentVector.stack([random_tangent(randers_var, rng) for _ in range(5)])
    us = np.array([rng.direction(2) for _ in range(5)])
    us[3] = -2.0 * ws.y[3]
    with pytest.raises(DegenerateFlag, match=r"at batch index \(3,\)"):
        flag_curvature(randers_var, ws, us)


def test_curvature_g_symmetry_and_kernel(randers_var, funk):
    rng = SplitMix64(44)
    for ms in (randers_var, funk):
        for _ in range(10):
            w = random_tangent(ms, rng)
            fr = PointFrame(ms, w, order=4)
            gr = fr.g @ fr.R
            assert np.max(np.abs(gr - gr.T)) < 1e-7
            assert np.max(np.abs(fr.R @ w.y)) < 1e-8


def test_riemannian_reduction_against_christoffel_oracle(sphere, poincare):
    rng = SplitMix64(50)
    for ms in (sphere, poincare):
        gfield = ms._g_field
        for _ in range(5):
            w = random_tangent(ms, rng)
            fr = PointFrame(ms, w, order=4)
            oracle = riemann_jacobi_operator(lambda x: gfield(list(x)), w.x, w.y)
            assert np.max(np.abs(fr.R - oracle)) < 1e-7


def test_bare_spray_accepted():
    # constant-coefficient quadratic spray (not from any metric)
    gam = np.array([[[0.3, 0.1], [0.1, -0.2]], [[0.0, 0.25], [0.25, 0.4]]])

    def g_rule(xs, ys):
        return [0.5 * sum(gam[i][j][k] * ys[j] * ys[k] for j in range(2) for k in range(2))
                for i in range(2)]

    spray = SpraySpec(2, g_rule, name="quadratic")
    w = TangentVector([0.4, -0.1], [0.8, 0.6])
    sd = spray_coefficients(spray, w)
    assert np.max(np.abs(sd.B - gam)) < 1e-12
    assert np.max(np.abs(sd.N @ w.y - 2 * sd.G)) < 1e-12
    R = curvature_endomorphism(spray, w).R
    # constant symbols: R = 2 G B - N N, both computable by hand
    expect = 2 * np.einsum("j,ijk->ik", sd.G, gam) - sd.N @ sd.N
    assert np.max(np.abs(R - expect)) < 1e-12
    with pytest.raises(TypeError):
        flag_curvature(spray, w, [1.0, 0.0])


def test_condition_number_guard():
    ill = metrics.riemannian(2, lambda xs: [[1.0, 0.0], [0.0, 1e-14]], name="ill")
    with pytest.raises(NotPositiveDefinite):
        spray_coefficients(ill, TangentVector([0.0, 0.0], [1.0, 1.0]))
    # |beta| > 1: g is indefinite here (eigenvalues about -0.226, 0.092) yet well conditioned
    wild = metrics.randers(2, [1.3, 0.0])
    w = TangentVector([0.0, 0.0], [-1.0, 0.2])
    with pytest.raises(NotPositiveDefinite):
        PointFrame(wild, w)
    with pytest.raises(NotPositiveDefinite):
        metrics.fundamental_tensor(wild, w)
    with pytest.raises(NotPositiveDefinite):
        spray_values(wild, w.x, w.y)
    with pytest.raises(NotPositiveDefinite):
        integrate_geodesic(wild, w, 0.5)


# -- point-batched spray_values ----------------------------------------------------


def _closed_randers():
    """Randers with Euclidean alpha and closed beta = df, f = 0.2 x0 x1 + 0.3 sin x0."""
    return metrics.randers(2, lambda xs: [0.2 * xs[1] + 0.3 * smath.cos(xs[0]), 0.2 * xs[0]],
                           name="randers_closed")


def _quadratic_spray():
    gam = np.array([[[0.3, 0.1], [0.1, -0.2]], [[0.0, 0.25], [0.25, 0.4]]])

    def g_rule(xs, ys):
        # 2-homogeneous in y, and x-dependent
        return [0.5 * sum(gam[i][j][k] * ys[j] * ys[k] for j in range(2) for k in range(2))
                + 0.1 * (xs[0] * ys[0] + xs[1] * ys[1]) * ys[i] for i in range(2)]

    return SpraySpec(2, g_rule, name="quadratic")


def _batch(src, count, seed):
    rng = SplitMix64(seed)
    ws = [random_tangent(src, rng) if isinstance(src, metrics.MetricSpec)
          else TangentVector(rng.vector(src.dim, -1, 1), rng.direction(src.dim))
          for _ in range(count)]
    return np.array([w.x for w in ws]), np.array([w.y for w in ws])


def test_spray_values_batch_bitwise_equals_single_points(sphere, poincare, funk, randers_const,
                                                          randers_var):
    disk = metrics.custom(2, lambda xs, ys: smath.dot(ys, ys) * smath.exp(xs[0] * xs[1]),
                          name="conformal", domain_margin=lambda x: 1.0 - (x * x).sum(axis=-1))
    sources = [metrics.euclidean(3), sphere, poincare, funk, metrics.funk(3), randers_const,
               randers_var, _closed_randers(), disk, _quadratic_spray()]
    for k, src in enumerate(sources):
        X, Y = _batch(src, 12, 100 + k)
        single = np.array([spray_values(src, x, y) for x, y in zip(X, Y)])
        assert np.array_equal(spray_values(src, X, Y), single), src.name
        grid = spray_values(src, X.reshape(3, 4, -1), Y.reshape(3, 4, -1))
        assert grid.shape == (3, 4, src.dim)
        assert np.array_equal(grid.reshape(12, -1), single), src.name


@pytest.mark.parametrize("order", [2, 4, 5])
def test_supported_lift_equals_unpruned_rule_bitwise(order, sphere, poincare, funk, randers_var):
    # coordinate jets built from raw coefficients carry no support or degree
    # bound, so the rule on them multiplies over the whole pair table
    for k, ms in enumerate([sphere, poincare, funk, metrics.funk(3), randers_var]):
        n = ms.dim
        for count in (1, 17, 40):
            X, Y = _batch(ms, count, 300 + 10 * k + count)
            if count == 1:
                X, Y = X[0], Y[0]
            center = np.concatenate([X, Y], axis=-1)
            got = lift_any(lambda v: ms.f2(v[:n], v[n:]), center, order)
            sp = space_for(2 * n, order)
            raw = [Jet(sp, row) for row in sp.coordinates(center).c]
            want = ms.f2(raw[:n], raw[n:])
            assert got.support == sp.all_vars
            assert got.c.tobytes() == want.c.tobytes(), (ms.name, n, order, count)
            if order == 2:
                # spray_values' solve, from the unpruned jet: the sum over k
                # in index order and a one-column product with g^-1
                h = want.derivative(2)
                rhs = h[..., n:, 0] * Y[..., None, 0]
                for j in range(1, n):
                    rhs = rhs + h[..., n:, j] * Y[..., None, j]
                rhs = rhs - want.derivative(1)[..., :n]
                ginv = np.linalg.inv(0.5 * h[..., n:, n:])
                G = 0.25 * np.matmul(ginv, rhs[..., None])[..., 0]
                assert spray_values(ms, X, Y).tobytes() == G.tobytes(), (ms.name, n, count)


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_spray_values_equals_every_frames_G_bitwise(order, sphere, poincare, funk, randers_const,
                                                    randers_var, monkeypatch):
    disk = metrics.custom(2, lambda xs, ys: smath.dot(ys, ys) * smath.exp(xs[0] * xs[1])
                          / (1.0 + 0.3 * xs[0] ** 2),
                          name="conformal", domain_margin=lambda x: 1.0 - (x * x).sum(axis=-1))
    sources = [sphere, poincare, funk, metrics.funk(3), metrics.euclidean(3), randers_var,
               randers_const, disk]
    lifts = _counting_lifts(monkeypatch)
    for k, ms in enumerate(sources):
        X, Y = _batch(ms, 40, 500 + 10 * k + order)
        for x, y in [(X, Y), (X[:5].reshape(5, 1, -1), Y[:5].reshape(5, 1, -1))] + list(zip(X, Y)):
            spray._memo.clear()
            cold = spray_values(ms, x, y)
            G = PointFrame(ms, TangentVector(x, y), order=order).G
            del lifts[:]
            hit = spray_values(ms, x, y)
            assert lifts == [], ms.name
            assert cold.tobytes() == G.tobytes() == hit.tobytes(), (ms.name, order, x.shape)
            # a copy: writing it leaves the frame's G as it was
            hit[...] = 0.0
            assert PointFrame(ms, TangentVector(x, y), order=order).G.tobytes() == G.tobytes()


def test_spray_values_reads_no_frame_at_other_points_or_of_a_bare_spray(randers_var,
                                                                        monkeypatch):
    X, Y = _batch(randers_var, 6, 511)
    PointFrame(randers_var, TangentVector(X, Y))
    lifts = _counting_lifts(monkeypatch)
    # a sub-batch, another shape of the same points and another source miss the entry
    spray_values(randers_var, X[:5], Y[:5])
    spray_values(randers_var, X.reshape(2, 3, 2), Y.reshape(2, 3, 2))
    spray_values(metrics.randers(2, [0.2, 0.1]), X, Y)
    assert lifts == [2, 2, 2]
    # a bare spray's rule runs on floats, never on the frame's jets
    bare = _quadratic_spray()
    X, Y = _batch(bare, 4, 512)
    PointFrame(bare, TangentVector(X, Y))
    want = np.array([[float(v) for v in bare.g_rule(list(x), list(y))] for x, y in zip(X, Y)])
    assert spray_values(bare, X, Y).tobytes() == want.tobytes()


def test_spray_values_batch_refuses_one_indefinite_point():
    # |beta| > 1: g is positive definite at the first two directions, indefinite at the last
    wild = metrics.randers(2, [1.3, 0.0])
    Y = np.array([[1.0, 0.2], [0.5, 1.0], [-1.0, 0.2]])
    spray_values(wild, np.zeros((2, 2)), Y[:2])
    for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
        with pytest.raises(NotPositiveDefinite, match=r"y=\[-1\.\s+0\.2\]"):
            spray_values(wild, np.zeros((3, 2)), Y[order])
    with pytest.raises(NotPositiveDefinite):
        spray_values(wild, np.zeros((2, 3, 2)), np.tile(Y, (2, 1, 1)))


def _cross(G, Y):
    return G[..., 0] * Y[..., 1] - G[..., 1] * Y[..., 0]


@pytest.mark.parametrize("dim", [2, 3])
def test_funk_spray_closed_form(dim):
    # Shen, Differential Geometry of Spray and Finsler Spaces (2001): G = F y / 2
    ms = metrics.funk(dim)
    X, Y = _batch(ms, 40, 7 + dim)
    F = np.sqrt([ms.f2(list(x), list(y)) for x, y in zip(X, Y)])
    assert np.max(np.abs(spray_values(ms, X, Y) - 0.5 * F[:, None] * Y)) < 1e-12
    frames = np.array([PointFrame(ms, TangentVector(x, y)).G for x, y in zip(X, Y)])
    assert np.max(np.abs(frames - 0.5 * F[:, None] * Y)) < 1e-12


def test_closed_randers_spray_is_projective(randers_var):
    # alpha Euclidean and beta closed: G = P y (Bao-Chern-Shen 2000, ch. 11)
    ms = _closed_randers()
    X, Y = _batch(ms, 40, 21)
    assert np.max(np.abs(_cross(spray_values(ms, X, Y), Y))) <= 1e-14
    frames = np.array([PointFrame(ms, TangentVector(x, y)).G for x, y in zip(X, Y)])
    assert np.max(np.abs(_cross(frames, Y))) <= 1e-14
    # the non-closed beta of randers_var is far from projective
    X, Y = _batch(randers_var, 40, 21)
    assert np.max(np.abs(_cross(spray_values(randers_var, X, Y), Y))) >= 1e-2


def _randers_var_closed_form_spray():
    """randers_var's spray in closed form: with alpha Euclidean,
    G^i = (e_00 / 2F - s_0) y^i + alpha s^i_0 (Chern-Shen, Riemann-Finsler
    Geometry, 2005), where r_ij and s_ij are the symmetric and antisymmetric
    parts of d_j b_i, s_0 = b^i s_ij y^j, s^i_0 = s_ij y^j and
    e_00 = r_00 + 2 beta s_0."""

    def g_rule(xs, ys):
        b = [0.35 + 0.2 * smath.sin(xs[1]), 0.2 * smath.cos(xs[0])]
        db = [[0.0, 0.2 * smath.cos(xs[1])], [-0.2 * smath.sin(xs[0]), 0.0]]  # d_j b_i
        s = [[0.5 * (db[i][j] - db[j][i]) for j in range(2)] for i in range(2)]
        r00 = sum(db[i][j] * ys[i] * ys[j] for i in range(2) for j in range(2))
        s0 = sum(b[i] * s[i][j] * ys[j] for i in range(2) for j in range(2))
        si0 = [sum(s[i][j] * ys[j] for j in range(2)) for i in range(2)]
        alpha = smath.sqrt(smath.dot(ys, ys))
        beta = smath.dot(b, ys)
        e00 = r00 + 2.0 * beta * s0
        scale = e00 / (2.0 * (alpha + beta)) - s0
        return [scale * ys[i] + alpha * si0[i] for i in range(2)]

    return SpraySpec(2, g_rule, name="randers_var_closed_form")


def test_randers_closed_form_spray(randers_var):
    # the first curvature oracle on a metric neither Riemannian nor projectively flat
    w = TangentVector(*_batch(randers_var, 30, 5))
    metric = PointFrame(randers_var, w, order=4)
    closed = PointFrame(_randers_var_closed_form_spray(), w, order=4)
    for name in ("G", "N", "B", "R"):
        ref = getattr(metric, name)
        assert np.max(np.abs(getattr(closed, name) - ref)) <= 1e-14 * np.max(np.abs(ref)), name


@pytest.mark.parametrize("kind,dim,K", [("sphere", 2, 1.0), ("poincare", 2, -1.0),
                                        ("funk", 2, -0.25), ("funk", 3, -0.25)])
def test_constant_flag_curvature_operator(kind, dim, K):
    # constant flag curvature K: R = K (F^2 I - y (g y)^T)
    ms = {"sphere": metrics.sphere_stereographic, "poincare": metrics.poincare_disk,
          "funk": metrics.funk}[kind](dim)
    X, Y = _batch(ms, 30, 9)
    fr = PointFrame(ms, TangentVector(X, Y), order=4)
    gy = np.einsum("...kl,...l->...k", fr.g, Y)
    f2 = np.einsum("...k,...k->...", gy, Y)
    ref = K * (f2[:, None, None] * np.eye(dim) - Y[:, :, None] * gy[:, None, :])
    assert np.max(np.abs(fr.R - ref)) < 2e-13


# -- batched frames -------------------------------------------------------------------

FRAME_TENSORS = ("G", "N", "B", "Gx", "Gxy", "R", "g", "ginv", "gw", "C_low", "dC_dx", "dC_dy",
                 "Cdot_low", "Cp_low", "dg_dx")


def _frame_tensors(fr):
    """Every tensor property the frame's order and source provide."""
    out = {}
    for name in FRAME_TENSORS:
        try:
            value = getattr(fr, name)
        except (IndexError, TypeError):   # beyond the jet order, or a metric tensor of a spray
            continue
        if value is not None:
            out[name] = value
    return out


@pytest.mark.parametrize("order", [3, 4, 5])
def test_batched_frame_bitwise_equals_single_frames(order, sphere, poincare, funk, randers_var):
    sources = [metrics.euclidean(3), sphere, poincare, funk, metrics.funk(3), randers_var,
               _quadratic_spray()]
    for k, src in enumerate(sources):
        X, Y = _batch(src, 17, 200 + k)
        singles = [_frame_tensors(PointFrame(src, TangentVector(x, y), order=order))
                   for x, y in zip(X, Y)]
        for shape in ((17,), (3, 4)):
            count = int(np.prod(shape))
            fr = PointFrame(src, TangentVector(X[:count].reshape(shape + (-1,)),
                                               Y[:count].reshape(shape + (-1,))), order=order)
            tensors = _frame_tensors(fr)
            assert tensors.keys() == singles[0].keys(), src.name
            assert {"R", "Cp_low"} <= tensors.keys() or order == 3 or src.kind == "spray"
            for name, value in tensors.items():
                assert value.shape[:len(shape)] == shape, (src.name, name)
                ref = np.array([single[name] for single in singles[:count]])
                assert np.array_equal(value.reshape(ref.shape), ref), (src.name, order, name)
            # a point of the batch is that point's frame, cached tensors included
            view = fr[2] if len(shape) == 1 else fr[0][2]
            assert view.x.shape == (src.dim,)
            for name, value in _frame_tensors(view).items():
                assert np.array_equal(value, singles[2][name]), (src.name, name)


def _explicit_rows(fr):
    """Each tensor-table row written out as factor * jet.derivative(k)[blocks];
    x is variables :n of the joint (x, y) jets, y is n:."""
    x, y = slice(None, fr.n), slice(fr.n, None)
    rows = {"G": ("Gpoly", 0, (), 1.0), "N": ("Gpoly", 1, (y,), 1.0),
            "Gx": ("Gpoly", 1, (x,), 1.0), "B": ("Gpoly", 2, (y, y), 1.0),
            "Gxy": ("Gpoly", 2, (x, y), 1.0), "gw": ("f", 1, (y,), 0.5),
            "C_low": ("f", 3, (y, y, y), 0.25), "dg_dx": ("f", 3, (x, y, y), 0.5),
            "dC_dx": ("f", 4, (x, y, y, y), 0.25), "dC_dy": ("f", 4, (y, y, y, y), 0.25)}
    out = {}
    for name, (jet, k, blocks, factor) in rows.items():
        source = getattr(fr, jet)
        if source is not None and k <= source.order:
            out[name] = factor * source.derivative(k)[(...,) + blocks]
    return out


@pytest.mark.parametrize("order", [3, 4, 5])
def test_tensor_table_rows_are_derivative_blocks(order, randers_var):
    for src in (randers_var, metrics.funk(3), _quadratic_spray()):
        X, Y = _batch(src, 4, 7)
        fr = PointFrame(src, TangentVector(X, Y), order=order)
        rows = _explicit_rows(fr)
        assert {"G", "N", "Gx"} <= rows.keys()
        assert ("C_low" in rows) == (src.kind != "spray")
        for name in spray._TENSORS:
            if name in rows:
                value = getattr(fr, name)
                assert value.shape == rows[name].shape, name
                assert np.array_equal(value, rows[name]), (src.name, order, name)
            elif spray._TENSORS[name][0] == "f" and src.kind == "spray":
                with pytest.raises(TypeError, match="requires a metric"):
                    getattr(fr, name)
            else:   # beyond the jet order
                with pytest.raises(IndexError):
                    getattr(fr, name)


@pytest.mark.parametrize("order", [4, 5])
def test_tensor_table_field_jets_have_the_rows_as_values(order, randers_var):
    for src in (randers_var, metrics.funk(3), _quadratic_spray()):
        X, Y = _batch(src, 4, 8)
        fr = PointFrame(src, TangentVector(X, Y), order=order)
        for name, (jet, blocks, factor) in spray._TENSORS.items():
            if jet == "f" and src.kind == "spray":
                with pytest.raises(TypeError, match="requires a metric"):
                    fr.field(name)
                continue
            if len(blocks) + 1 > getattr(fr, jet).order:
                continue
            field = fr.field(name)
            assert field.order == 1 and field.space.nvars == 2 * src.dim
            assert np.array_equal(field.value, getattr(fr, name)), (src.name, order, name)
            assert fr.field(name) is field   # built once
            source, k = getattr(fr, jet), len(blocks)
            if k + 1 < source.order:
                # its first partials are the next derivative's blocks, the new index last
                x, y = slice(None, src.dim), slice(src.dim, None)
                index = (...,) + tuple(x if b == "x" else y for b in blocks) + (slice(None),)
                assert np.array_equal(field.derivative(1),
                                      factor * source.derivative(k + 1)[index]), (src.name, name)


def test_single_point_frame_has_no_batch_to_index(sphere):
    with pytest.raises(TypeError):
        PointFrame(sphere, TangentVector([0.1, 0.2], [1.0, 0.0]))[0]


def test_blocked_frame_equals_unblocked(randers_var, monkeypatch):
    # 150 nodes are two full blocks and a partial one
    assert 150 % spray._BLOCK and 150 > 2 * spray._BLOCK
    X, Y = _batch(randers_var, 150, 41)
    w = TangentVector(X.reshape(10, 15, 2), Y.reshape(10, 15, 2))
    blocked = _frame_tensors(PointFrame(randers_var, w, order=4))
    monkeypatch.setattr(spray, "_BLOCK", 10 ** 6)
    whole = _frame_tensors(PointFrame(randers_var, w, order=4))
    assert blocked.keys() == whole.keys()
    for name, value in whole.items():
        assert value.shape[:2] == (10, 15)
        assert np.array_equal(blocked[name], value), name


def test_batched_frame_refuses_one_bad_point(poincare):
    # |beta| > 1: g is positive definite at the first two directions, indefinite at the last
    wild = metrics.randers(2, [1.3, 0.0])
    Y = np.array([[1.0, 0.2], [0.5, 1.0], [-1.0, 0.2]])
    PointFrame(wild, TangentVector(np.zeros((2, 2)), Y[:2]))
    for perm in ([0, 1, 2], [2, 0, 1]):
        with pytest.raises(NotPositiveDefinite, match=r"y=\[-1\.\s+0\.2\]"):
            PointFrame(wild, TangentVector(np.zeros((3, 2)), Y[perm]))
    # and in a batch large enough to be built in blocks, in its last block
    many = np.tile(Y[:2], (40, 1))
    many[-3] = Y[2]
    with pytest.raises(NotPositiveDefinite, match=r"y=\[-1\.\s+0\.2\]"):
        PointFrame(wild, TangentVector(np.zeros((80, 2)), many))

    X = np.full((2, 3, 2), 0.1)
    Yp = np.ones((2, 3, 2))
    out = X.copy()
    out[1, 1] = [0.8, 0.7]
    with pytest.raises(DomainError, match=r"outside validity region of poincare_disk "
                                          r"at batch index \(1, 1\)"):
        PointFrame(poincare, TangentVector(out, Yp))
    null = Yp.copy()
    null[1, 2] = 0.0
    null[0, 2] = 1e-14
    with pytest.raises(NullDirection, match=r"at batch index \(0, 2\)$"):
        PointFrame(poincare, TangentVector(X, null))
    with pytest.raises(NullDirection, match=r"zero$"):
        PointFrame(poincare, TangentVector(X[0, 0], null[1, 2]))
    with pytest.raises(DomainError, match=r"poincare_disk$"):
        PointFrame(poincare, TangentVector(out[1, 1], Yp[0, 0]))


@pytest.mark.parametrize("order", [2, 3, 4, 5])
@pytest.mark.parametrize("dim", [2, 3])
def test_empty_batch_gives_empty_results(order, dim):
    empty = np.zeros((0, dim))
    one = TangentVector(np.full(dim, 0.1), np.ones(dim))
    for src in (metrics.funk(dim), metrics.sphere_stereographic(dim), metrics.euclidean(dim)):
        assert spray_values(src, empty, empty).shape == (0, dim)
        fr = PointFrame(src, TangentVector(empty, empty), order=order)
        single = _frame_tensors(PointFrame(src, one, order=order))
        tensors = _frame_tensors(fr)
        assert tensors.keys() == single.keys()
        for name, value in tensors.items():
            assert value.shape == (0,) + single[name].shape, name
        if order >= 4:
            for kind in ("berwald", "cartan"):
                for t in lift_tensors(classical_lift(kind, src), fr):
                    assert t.shape == (0, dim, dim, dim)


def test_flag_curvature_refuses_a_u_of_the_wrong_length():
    # it used to end in numpy's matmul message
    w = TangentVector([0.1, 0.0, 0.2], [1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match=r"u of shape \(2,\).*w\.y of shape \(3,\)"):
        flag_curvature(metrics.funk(3), w, [0.0, 1.0])


# -- the frame-jet memo -----------------------------------------------------------------


def _counting_lifts(monkeypatch):
    """The orders of the F^2 (or spray-rule) lifts that frames make from now on."""
    orders = []
    real = spray.lift_any

    def lift_any(fn, center, order):
        orders.append(order)
        return real(fn, center, order)

    monkeypatch.setattr(spray, "lift_any", lift_any)
    return orders


def test_frames_at_one_point_share_one_lift(randers_var, monkeypatch):
    w = random_tangent(randers_var, SplitMix64(3))
    u = np.array([-w.y[1], w.y[0]])
    lifts = _counting_lifts(monkeypatch)
    # the library tour at one point: four order-4 frames, one lift of F^2
    spray_coefficients(randers_var, w)
    curvature_endomorphism(randers_var, w)
    flag_curvature(randers_var, w, u)
    PointFrame(randers_var, w)
    assert lifts == [4]
    # a frame over more than one block is built block by block and memoized whole
    X, Y = _batch(randers_var, 2 * spray._BLOCK + 5, 9)
    for _ in range(2):
        PointFrame(randers_var, TangentVector(X, Y))
    assert lifts == [4, 4, 4, 4]


def test_a_memo_hit_is_bitwise_a_fresh_build(randers_var):
    w = random_tangent(randers_var, SplitMix64(4))
    first = PointFrame(randers_var, w)
    hit = PointFrame(randers_var, w)
    assert hit.f is first.f
    spray._memo.clear()
    fresh = PointFrame(randers_var, w)
    assert fresh.f is not first.f
    for name in ("G", "N", "B", "R", "C_low", "Cp_low"):
        assert getattr(hit, name).tobytes() == getattr(fresh, name).tobytes(), name


def test_the_memo_misses_another_source_order_or_point(monkeypatch):
    ms = metrics.randers(2, [0.3, 0.1])
    twin = copy.copy(ms)    # the same rule, another object
    assert twin.f2 is ms.f2
    w = TangentVector([0.0, 0.2], [1.0, 0.5])
    PointFrame(ms, w)
    lifts = _counting_lifts(monkeypatch)
    PointFrame(ms, w)
    assert lifts == []
    PointFrame(twin, w)
    PointFrame(ms, w, order=5)
    PointFrame(ms, TangentVector([0.0, np.nextafter(0.2, 1.0)], w.y))
    PointFrame(ms, TangentVector(w.x, [1.0, np.nextafter(0.5, 0.0)]))
    PointFrame(ms, TangentVector([-0.0, 0.2], w.y))   # other bytes, the same point
    assert lifts == [4, 5, 4, 4, 4]


def test_the_memo_is_bounded_and_keeps_the_recently_used(randers_var, monkeypatch):
    size = spray._MEMO_SIZE
    X, Y = _batch(randers_var, 3 * size, 11)
    ws = [TangentVector(x, y) for x, y in zip(X, Y)]
    for w in ws:
        PointFrame(randers_var, w)
        assert len(spray._memo) <= size
    spray._memo.clear()
    for w in ws[:size]:
        PointFrame(randers_var, w)
    PointFrame(randers_var, ws[0])          # used again: ws[1] is now the least recent
    PointFrame(randers_var, ws[size])       # so it is the one evicted
    lifts = _counting_lifts(monkeypatch)
    PointFrame(randers_var, ws[0])
    PointFrame(randers_var, ws[size])
    assert lifts == []
    PointFrame(randers_var, ws[1])
    assert lifts == [4]


def test_shared_frame_jets_are_read_only(randers_var):
    fr = PointFrame(randers_var, random_tangent(randers_var, SplitMix64(5)))
    for name, a in (("f", fr.f.c), ("g", fr.g), ("ginv", fr.ginv)):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
        assert np.all(np.isfinite(a)), name


def test_frames_at_a_point_share_their_derived_tensors(randers_var):
    w = random_tangent(randers_var, SplitMix64(14))
    names = ("G", "N", "B", "Gx", "Gxy", "gw", "C_low", "dg_dx", "dC_dx", "dC_dy", "R",
             "Cdot_low", "Cp_low")
    first = PointFrame(randers_var, w)
    built = {name: getattr(first, name) for name in names}
    hit = PointFrame(randers_var, w)
    for name in names:
        assert getattr(hit, name) is built[name], name
    assert spray_coefficients(randers_var, w).N is built["N"]
    assert curvature_endomorphism(randers_var, w).R is built["R"]
    assert hit.field("N") is first.field("N")
    spray._memo.clear()
    fresh = PointFrame(randers_var, w)
    for name in names:
        assert getattr(fresh, name) is not built[name], name
        assert getattr(fresh, name).tobytes() == built[name].tobytes(), name
    # a frame of another order has a cache of its own; a batch joined from blocks shares its own
    assert PointFrame(randers_var, w, order=5).N is not fresh.N
    X, Y = _batch(randers_var, spray._BLOCK + 1, 15)
    joined = PointFrame(randers_var, TangentVector(X, Y))
    assert joined.N is PointFrame(randers_var, TangentVector(X, Y)).N


def test_calls_at_a_blocked_batch_read_its_frame(randers_var, monkeypatch):
    X, Y = _batch(randers_var, 2 * spray._BLOCK + 5, 19)
    w = TangentVector(X, Y)
    u = np.stack([-Y[:, 1], Y[:, 0]], axis=-1)
    fr = PointFrame(randers_var, w)
    lifts = _counting_lifts(monkeypatch)
    missed = []
    get = PointFrame._get
    monkeypatch.setattr(PointFrame, "_get", lambda frame, key, builder: get(
        frame, key, lambda: missed.append(key) or builder()))
    flag_curvature(randers_var, w, u)
    for kind in ("berwald", "cartan", "chern-rund", "hashiguchi"):
        affine_coefficients(classical_lift(kind, randers_var), randers_var, w)
    assert lifts == []
    # the calls built B, C' and R into the frame's cache: reading them builds nothing
    missed.clear()
    for name in ("B", "Cp_low", "R"):
        assert not getattr(fr, name).flags.writeable, name
    assert missed == []


def test_derived_tensors_are_read_only(randers_var):
    w = random_tangent(randers_var, SplitMix64(16))
    fr = PointFrame(randers_var, w)
    X, Y = _batch(randers_var, 3, 17)
    batch = PointFrame(randers_var, TangentVector(X, Y))
    for a in (fr.R, fr.N, spray_coefficients(randers_var, w).B, fr.field("N").c, batch.R,
              batch[1].N):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
    assert np.array_equal(fr.N, PointFrame(randers_var, w).N)


def _linear_term_spray():
    """Not a spray: 0.1 x^i y^i is linear in y."""
    return SpraySpec(2, lambda xs, ys: [0.1 * xs[i] * ys[i] for i in range(2)], name="linear")


@pytest.mark.parametrize("entry", [
    lambda src, w: spray_coefficients(src, w),
    lambda src, w: curvature_endomorphism(src, w),
    lambda src, w: PointFrame(src, w, order=3),
    lambda src, w: PointFrame(src, w, order=5),
    lambda src, w: affine_coefficients(classical_lift("berwald", src), src, w),
], ids=["spray_coefficients", "curvature_endomorphism", "PointFrame-3", "PointFrame-5",
        "affine_coefficients"])
def test_a_rule_that_is_not_2_homogeneous_is_refused(entry):
    src = _linear_term_spray()
    # N y - 2G = -0.1 x^i y^i: 0.021 and -0.008 here
    w = TangentVector([0.3, -0.2], [0.7, 0.4])
    with pytest.raises(NotHomogeneous, match=r"2\.10e-02 at x=\[ 0\.3 -0\.2\], y=\[0\.7 0\.4\]"):
        entry(src, w)
    assert len(spray._memo) == 0
    # a batch names its first bad point; x = 0 is a good one
    X = np.array([[0.0, 0.0], [0.0, 0.5], [0.3, -0.2]])
    Y = np.array([[0.7, 0.4], [0.7, 0.4], [0.7, 0.4]])
    with pytest.raises(NotHomogeneous, match=r"at x=\[0\.  0\.5\]"):
        entry(src, TangentVector(X, Y))
    # the order-2 frame and the right-hand-side fast path build no derivative to check
    assert PointFrame(src, w, order=2).Gpoly.value.shape == (2,)
    assert np.array_equal(spray_values(src, w.x, w.y), [0.1 * 0.3 * 0.7, -0.1 * 0.2 * 0.4])


def test_genuine_sprays_pass_the_homogeneity_check(randers_var):
    w = TangentVector([0.3, -0.2], [0.7, 0.4])
    for src in (_quadratic_spray(), _randers_var_closed_form_spray(),
                SpraySpec(2, lambda xs, ys: [0.0, 0.0], name="flat")):
        sd = spray_coefficients(src, w)
        assert np.max(np.abs(sd.N @ w.y - 2 * sd.G)) < 1e-14
    X, Y = _batch(_quadratic_spray(), 3 * spray._BLOCK, 18)
    assert PointFrame(_quadratic_spray(), TangentVector(X, Y), order=5).R.shape == (96, 2, 2)


def test_a_refused_build_leaves_nothing_behind():
    wild = metrics.randers(2, [1.3, 0.0])
    w = TangentVector([0.0, 0.0], [-1.0, 0.2])
    for _ in range(2):
        with pytest.raises(NotPositiveDefinite):
            PointFrame(wild, w)
    assert len(spray._memo) == 0
