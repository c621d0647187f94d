import numpy as np
import pytest

from finslergeo import identities as ident
from finslergeo import lifts, metrics, spray
from finslergeo.errors import GridError, InvalidLift, NullReference
from finslergeo.lifts import (ALL_CONDITIONS, ClassicalKind, LiftSpec, SectionJet,
                              affine_coefficients, classical_lift,
                              condition_residuals, covariant_derivative_curve,
                              lift_curvature, lift_tensors, nabla_apply,
                              random_admissible_lift)
from finslergeo.jets import Jet, lift_any, smath
from finslergeo.metrics import (TangentVector, cartan_tensor, fundamental_tensor,
                                metric_value, random_tangent, riemannian)
from finslergeo.rng import SplitMix64
from finslergeo.spray import PointFrame, SpraySpec, curvature_endomorphism
from finslergeo.submanifolds import affine_subspace, sff_connection
from finslergeo.variational import (Curve, FieldAlongCurve, VariationFamily, _ChebyshevTable,
                                    integrate_geodesic, parallel_transport,
                                    variation_symmetry_residual)

from oracles import (basis_triple_random_lift, christoffel, entrywise_random_lift,
                     riemann_jacobi_operator)
from test_spray import _counting_lifts

THEOREM_SETS = {
    "berwald": ("T3", "M5"),
    "cartan": ("T2", "M6", "M7"),
    "chern-rund": ("T3", "M3"),
    "hashiguchi": ("T2", "M4", "M7"),
}


# -- classical lifts ------------------------------------------------------------


def test_berwald_rules_vanish(randers_var):
    lf = classical_lift("berwald", randers_var)
    fr = PointFrame(randers_var, TangentVector([0.1, 0.2], [0.7, -0.3]), order=4)
    t = lifts._reader(lf, fr)
    assert not t("ccf").any() and not t("cpf").any()


def test_cartan_lift_carries_cartan_tensor(randers_var):
    w = TangentVector([0.3, -0.1], [0.6, 0.8])
    C = cartan_tensor(randers_var, w).C
    fr = PointFrame(randers_var, w, order=4)
    # Hashiguchi carries the same flat C
    for kind in (ClassicalKind.CARTAN, "hashiguchi"):
        ccf = lifts._reader(classical_lift(kind, randers_var), fr)("ccf")
        assert np.max(np.abs(ccf - C)) < 1e-12


def test_hashiguchi_on_riemannian_equals_berwald(sphere):
    lf = classical_lift("hashiguchi", sphere)
    w = TangentVector([0.2, 0.3], [0.5, -0.1])
    fr = PointFrame(sphere, w, order=4)
    cc, cp = lift_tensors(lf, fr)
    assert np.max(np.abs(cc)) < 1e-13
    assert np.max(np.abs(cp)) < 1e-13


# -- the flow tensor ------------------------------------------------------------


def test_cprime_riemannian_zero(sphere):
    Cp = PointFrame(sphere, TangentVector([0.4, -0.2], [0.3, 0.9])).Cp_low
    assert np.max(np.abs(Cp)) < 1e-12


def test_cprime_minkowski_randers_zero(randers_const):
    w = TangentVector([0.3, 0.1], [0.8, 0.4])
    Cp = PointFrame(randers_const, w).Cp_low
    assert np.max(np.abs(Cp)) < 1e-12
    # transported Cartan contraction is t-constant along geodesics
    geo = integrate_geodesic(randers_const, w, 0.5, nodes=51)
    u0 = np.array([0.3, -0.9])
    pt = parallel_transport(randers_const, geo, u0)
    vals = []
    for i in range(0, 51, 10):
        C = PointFrame(randers_const,
                       TangentVector(geo.points[i], geo.velocities[i]), order=3).C_low
        v = pt.vectors[i]
        vals.append(float(np.einsum("ijk,i,j,k->", C, v, v, v)))
    assert max(vals) - min(vals) < 1e-6


def test_cprime_matches_transport_oracle(randers_var, funk):
    for ms, w in ((randers_var, TangentVector([0.3, -0.4], [0.8, 0.5])),
                  (funk, TangentVector([0.2, 0.1], [0.5, -0.3]))):
        assert ident.cprime_transport_residual(ms, w, rng=SplitMix64(3)) < 1e-4


def test_cprime_symmetry_and_contraction(funk):
    rng = SplitMix64(9)
    for _ in range(10):
        w = random_tangent(funk, rng)
        Cp = PointFrame(funk, w).Cp_low
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
            assert np.max(np.abs(Cp - np.transpose(Cp, perm))) < 1e-10
        assert np.max(np.abs(np.einsum("ijk,k->ij", Cp, w.y))) < 1e-9


# -- nabla and torsion ----------------------------------------------------------


def _canonical_section(w):
    """The canonical field: fiber components equal to the fiber coordinates."""
    return SectionJet(np.array(w.y, float), np.zeros((2, 2)), np.eye(2))


def _horizontal(fr, u):
    """Raw (dx, dy) components of the horizontal lift of u at fr's point."""
    return np.concatenate([u, -fr.N @ u])


def test_nabla_apply_canonical_section(randers_var):
    w = TangentVector([0.25, -0.3], [0.7, 0.45])
    fr = PointFrame(randers_var, w)
    for lift in [classical_lift(k, randers_var) for k in THEOREM_SETS] + \
            [random_admissible_lift(randers_var, 7)]:
        b = np.array([0.4, -0.8])
        out = nabla_apply(lift, randers_var, w, np.concatenate([[0, 0], b]),
                          _canonical_section(w))
        assert np.max(np.abs(out - b)) < 1e-12  # almost-projectability
        out_h = nabla_apply(lift, randers_var, w, _horizontal(fr, np.array([1.0, -0.5])),
                            _canonical_section(w))
        assert np.max(np.abs(out_h)) < 1e-12


def test_nabla_apply_euclidean_constant_section(euclid2):
    w = TangentVector([0.0, 0.0], [1.0, 0.0])
    lift = classical_lift("berwald", euclid2)
    out = nabla_apply(lift, euclid2, w, [0.3, 0.4, -0.1, 0.2],
                      SectionJet(np.array([2.0, -1.0]), np.zeros((2, 2)), np.zeros((2, 2))))
    assert np.max(np.abs(out)) == 0.0


def test_nabla_apply_section_from_rule(euclid2):
    # the section's jet read off a rule; on a flat metric nabla_X s = ds/dx a + ds/dy b
    w = TangentVector([0.1, 0.2], [0.9, -0.2])
    sec = lift_any(lambda v: [v[0] * v[3], v[1] + 0.5 * v[2]], np.concatenate([w.x, w.y]), 1)
    d1 = sec.derivative(1)
    section = SectionJet(sec.value, d1[:, :2], d1[:, 2:])
    assert np.allclose(section.value, [w.x[0] * w.y[1], w.x[1] + 0.5 * w.y[0]])
    assert np.allclose(section.dx, [[w.y[1], 0.0], [0.0, 1.0]])
    assert np.allclose(section.dy, [[0.0, w.x[0]], [0.5, 0.0]])
    X = np.array([0.3, 0.4, -0.1, 0.2])
    out = nabla_apply(classical_lift("berwald", euclid2), euclid2, w, X, section)
    assert np.allclose(out, section.dx @ X[:2] + section.dy @ X[2:], atol=1e-15)


@pytest.mark.parametrize("tensor", ["c_flat", "cprime_flat"])
@pytest.mark.parametrize("entry", ["nabla_apply", "lift_curvature", "affine_coefficients",
                                   "covariant_derivative_curve", "sff_connection"])
def test_invalid_lift_detected(entry, tensor):
    # delta x delta does not vanish on any base direction; every entry point but
    # nabla_apply used to return numbers for it (lift_curvature [0.018, -0.043] for C')
    ms = metrics.randers(2, [0.2, 0.1])
    bad = LiftSpec("bad", **{tensor: lambda w: np.einsum("jk,kl->jkl", np.eye(2), np.eye(2))})
    w = TangentVector([0.1, 0.1], [1.0, 0.4])
    with pytest.raises(InvalidLift, match="do not vanish on the base direction"):
        if entry == "nabla_apply":
            nabla_apply(bad, ms, w, [1, 0, 0, 0], _canonical_section(w))
        elif entry == "lift_curvature":
            lift_curvature(bad, ms, w, [0.3, -0.8])
        elif entry == "affine_coefficients":
            affine_coefficients(bad, ms, w)
        elif entry == "sff_connection":
            line = affine_subspace(w.x, [[1.0, 0.0]])
            sff_connection(line, [0.0], w.y, [1.0], [1.0], ms, lift=bad)
        else:
            curve = _chebyshev_curve(integrate_geodesic(ms, w, 0.5), 16)
            W = FieldAlongCurve(curve.grid, curve.velocities)
            covariant_derivative_curve(bad, ms, curve, W, W)


def test_torsion_spray_vertical_vanishes(randers_var):
    # T(S, V) = -Cc(V, y): the vertical lift tensor vanishes on the base direction
    w = TangentVector([0.3, -0.4], [0.8, 0.5])
    fr = PointFrame(randers_var, w)
    for lift in [classical_lift(k, randers_var) for k in THEOREM_SETS] + \
            [random_admissible_lift(randers_var, 13)]:
        cc, _ = lift_tensors(lift, fr)
        assert np.max(np.abs(np.einsum("ijk,k->ij", cc, w.y))) < 1e-12


def test_torsion_classes(randers_var):
    rng = SplitMix64(21)
    fr = _batch(randers_var, [random_tangent(randers_var, rng) for _ in range(20)])
    berwald = condition_residuals(classical_lift("berwald", randers_var), fr, ("T3",))
    cartan = condition_residuals(classical_lift("cartan", randers_var), fr, ("T2", "T3"))
    assert berwald["T3"] < 1e-9
    assert cartan["T2"] < 1e-9
    assert cartan["T3"] > 1e-4  # horizontal-vertical torsion of Cartan is generally nonzero


# -- condition matrix ------------------------------------------------------------


def _batch(ms, ws):
    return PointFrame(ms, TangentVector.stack(ws))


def _sampled(ms, samples, seed):
    """One frame at ``samples`` random tangent points drawn from ``seed``."""
    rng = SplitMix64(seed)
    return _batch(ms, [random_tangent(ms, rng) for _ in range(samples)])


def test_theorem_condition_sets(randers_var):
    fr = _sampled(randers_var, 15, 3)
    for kind, conds in THEOREM_SETS.items():
        res = condition_residuals(classical_lift(kind, randers_var), fr)
        assert all(res[c] < 1e-7 for c in conds), (kind, res)
    res_b = condition_residuals(classical_lift("berwald", randers_var), fr, ("M6",))
    assert res_b["M6"] > 1e-3


def test_minkowski_exact_pass_set(randers_const):
    res = condition_residuals(classical_lift("berwald", randers_const),
                              _sampled(randers_const, 15, 5))
    passing = {c for c, v in res.items() if v < 1e-8}
    assert passing == {"T1", "T2", "T3", "M1", "M2", "M3", "M5", "M7"}


def test_lift_tensors_of_a_batched_frame(randers_var):
    rng = SplitMix64(12)
    ws = [random_tangent(randers_var, rng) for _ in range(6)]
    X, Y = np.array([w.x for w in ws]), np.array([w.y for w in ws])
    raw = LiftSpec("raw", c_raw=lambda w: [[[0.0, 0.0], [w.x[0], 0.0]],
                                          [[0.0, w.y[1]], [0.0, 0.0]]],
                   cprime_raw=lambda w: [[[smath.sin(w.x[1]), 0.0], [0.0, 0.0]],
                                         [[0.0, 0.0], [0.0, 0.0]]])
    lifts = ([classical_lift(k, randers_var) for k in ClassicalKind]
             + [random_admissible_lift(randers_var, 4), raw])
    batch = PointFrame(randers_var, TangentVector(X.reshape(2, 3, 2), Y.reshape(2, 3, 2)))
    singles = [PointFrame(randers_var, w) for w in ws]
    for lift in lifts:
        got = lift_tensors(lift, batch)
        for k, fr in enumerate(singles):
            for part, ref in zip(got, lift_tensors(lift, fr)):
                assert part.shape == (2, 3, 2, 2, 2)
                assert np.array_equal(part.reshape(6, 2, 2, 2)[k], ref), (lift.name, k)


def test_batched_condition_residuals_are_the_sup_over_points(randers_var):
    rng = SplitMix64(37)
    ws = [random_tangent(randers_var, rng) for _ in range(6)]
    raw = LiftSpec("raw", c_raw=lambda w: [[[0.0, w.y[0]], [0.0, 0.0]],
                                          [[0.0, 0.0], [w.x[1], 0.0]]],
                   cprime_raw=lambda w: [[[0.0, 0.0], [0.0, smath.cos(w.x[0])]],
                                         [[w.y[1], 0.0], [0.0, 0.0]]])
    lifts = ([classical_lift(k, randers_var) for k in ClassicalKind]
             + [random_admissible_lift(randers_var, 39),
                random_admissible_lift(randers_var, 39, enforce_m1m2=True), raw])
    batch = _batch(randers_var, ws)
    for lift in lifts:
        got = condition_residuals(lift, batch)
        singles = [condition_residuals(lift, PointFrame(randers_var, w)) for w in ws]
        for c in ALL_CONDITIONS:
            assert got[c] == max(res[c] for res in singles), (lift.name, c)


def test_m_conditions_need_metric():
    spray = SpraySpec(2, lambda xs, ys: [0.0, 0.0])
    lift = LiftSpec("zero", c_raw=lambda w: np.zeros((2, 2, 2)),
                    cprime_raw=lambda w: np.zeros((2, 2, 2)))
    fr = PointFrame(spray, TangentVector([[0.1, 0.2], [-0.3, 0.4]], [[1.0, 0.5], [0.2, -0.7]]))
    assert condition_residuals(lift, fr, ("T1", "T3")) == {"T1": 0.0, "T3": 0.0}
    with pytest.raises(TypeError):
        condition_residuals(lift, fr, ("M1",))


def _classical_lifts(ms):
    return [classical_lift(k, ms) for k in ClassicalKind]


def test_classical_lifts_evaluate_each_half_once_per_frame(randers_var, monkeypatch):
    w = random_tangent(randers_var, SplitMix64(61))
    cold = {}
    for lift in _classical_lifts(randers_var):
        spray._slot.clear()
        cold[lift.name] = condition_residuals(lift, PointFrame(randers_var, w))
    spray._slot.clear()
    fr = PointFrame(randers_var, w)
    raised, blocks = [], []
    raise_last = fr.raise_last
    monkeypatch.setattr(fr, "raise_last", lambda t: raised.append(1) or raise_last(t))
    g_block = lifts._g_block
    monkeypatch.setattr(lifts, "_g_block", lambda *a: blocks.append(1) or g_block(*a))
    for lift in _classical_lifts(randers_var):
        # equal floats, and none is negative, so bitwise equal
        assert condition_residuals(lift, fr) == cold[lift.name], lift.name
    # four halves, C and C' each zero or the frame's tensor: one v or h block
    # each, except the zero C, whose v is 2C unevaluated, and one raise for
    # each of the two that are not zero
    assert len(blocks) == 3
    assert len(raised) == 2
    # torsion-only and metric-only subsets read the same cached halves
    for lift in _classical_lifts(randers_var):
        for subset in (("T1", "T3"), ("M2", "M5"), ("M7",)):
            assert condition_residuals(lift, fr, subset) == {c: cold[lift.name][c] for c in subset}
    assert len(blocks) == 3 and len(raised) == 2


# each half's flat tensor, its raise and its block of nabla g
_HALF_NAMES = {"C": ("ccf", "cc", "v"), "C'": ("cpf", "cp", "h")}


def _full_half(lift, fr, half):
    """name -> tensor of one half of ``lift`` at fr, written out with every
    tensor built, an absent classical half's zeros and its v = 2C - g 0 - g 0
    included; nothing is kept on the frame. A rule lift's rule is called at
    the frame's float carrier (a single point); a raw rule's flat tensor is
    its lowering, a flat rule's raise its raising. On a bare spray only the
    raw tensors exist."""
    flat, raised, block = _HALF_NAMES[half]
    built = {}
    if lift.kind is None:
        raw = lift.c_raw is not None or lift.cprime_raw is not None
        rule = {("C", False): lift.c_flat, ("C'", False): lift.cprime_flat,
                ("C", True): lift.c_raw, ("C'", True): lift.cprime_raw}[half, raw]
        w = (lifts.LiftPoint(fr.x, fr.y) if fr.f is None
             else lifts.LiftPoint(fr.x, fr.y, fr.f.value, fr.gw))
        T = np.zeros((fr.n,) * 3) if rule is None else np.array(rule(w), float)
        if raw:
            built[raised] = np.moveaxis(T, -1, 0)    # the output index first
            if fr.metric is not None:
                built[flat] = np.einsum("...il,...ijk->...jkl", fr.g, built[raised])
        else:
            built[flat] = T
            built[raised] = np.einsum("...il,...jkl->...ijk", fr.ginv, T)
        used = True
    else:
        used = lifts._CLASSICAL_TABLE[lift.kind][half == "C'"]
        built[flat] = ((fr.C_low if half == "C" else fr.Cp_low) if used
                       else np.zeros(fr.y.shape + (fr.n, fr.n)))
        built[raised] = (np.einsum("...il,...jkl->...ijk", fr.ginv, built[flat]) if used
                         else built[flat])
    if fr.metric is not None:
        if half == "C":
            base, t = 2.0 * fr.C_low, built[raised]
        else:
            base = fr.dg_dx - np.einsum("...mj,...mik->...jik", fr.N, 2.0 * fr.C_low)
            t = fr.B + built[raised]
        built[block] = (base - np.einsum("...mk,...mji->...jik", fr.g, t)
                        - np.einsum("...im,...mjk->...jik", fr.g, t))
    return built


@pytest.mark.parametrize("name", ["randers_var", "funk", "sphere"])
def test_absent_classical_halves_give_the_full_evaluations_sups(name, request):
    ms = request.getfixturevalue(name)
    rng = SplitMix64(67)
    ws = [random_tangent(ms, rng) for _ in range(4)]
    for w in ws + [TangentVector.stack(ws)]:
        spray._slot.clear()
        fr = PointFrame(ms, w)
        for lift in _classical_lifts(ms):
            sups = {}
            for half, used in zip(_HALF_NAMES, lifts._CLASSICAL_TABLE[lift.kind]):
                t = _full_half(lift, fr, half).__getitem__
                for res, (of, residual) in lifts._RESIDUALS.items():
                    if of == half:
                        sups[res] = lifts._sup(residual(t, fr))
                        if not used and res in lifts._ZERO_WHEN_ABSENT:
                            assert sups[res] == 0.0, (lift.name, res)
            got = condition_residuals(lift, fr)
            for cond, names in lifts._CONDITIONS.items():
                # non-negative floats: equal means bitwise equal
                assert got[cond] == max(sups[res] for res in names), (name, lift.name, cond)


def _raw_rule_lift():
    """A raw rule lift with no constant leaf, for a metric's frame."""
    return LiftSpec("raw", c_raw=lambda w: [[[w.x[0] * w.y[1], w.y[0]], [w.y[1], w.x[1] * w.y[0]]],
                                           [[w.y[0] * w.y[0], w.x[0]], [w.y[1], w.y[0]]]],
                    cprime_raw=lambda w: [[[smath.sin(w.x[1]), w.y[1]], [w.y[0], w.x[0]]],
                                          [[w.x[1], w.y[1] * w.y[0]], [w.y[0], w.y[1]]]])


@pytest.mark.parametrize("kind", [k.value for k in ClassicalKind]
                         + ["flat rule", "raw rule", "raw rule on a spray"])
def test_the_reader_gives_each_lift_tensor_as_written_out(kind, randers_var, funk):
    sources = [randers_var, funk]
    if kind == "raw rule on a spray":
        src, lift = _raw_lift_on_a_spray()
        sources = [src]
    elif kind == "raw rule":
        lift = _raw_rule_lift()
    elif kind == "flat rule":
        lift = random_admissible_lift(randers_var, 73)
    else:
        lift = classical_lift(kind, randers_var)
    rng = SplitMix64(71)
    for src in sources:
        for _ in range(3):
            w = TangentVector(rng.vector(2, -0.4, 0.4), rng.direction(2, 0.6))
            spray._slot.clear()
            fr = PointFrame(src, w)
            want = {**_full_half(lift, fr, "C"), **_full_half(lift, fr, "C'")}
            names = {"cc", "cp"} if fr.metric is None else set(lifts._HALF_OF)
            assert want.keys() == names
            t = lifts._reader(lift, fr)
            for name, ref in want.items():
                # equal values: an absent half's v may differ in the signs of zeros
                assert np.array_equal(t(name), ref), (kind, src.name, name)


def test_a_rule_lift_after_the_classical_ones_computes_its_own_halves(randers_var):
    w = random_tangent(randers_var, SplitMix64(65))
    base = random_admissible_lift(randers_var, 66)
    calls = []

    def counted(rule):
        def wrapped(p):
            calls.append(1)
            return rule(p)
        return wrapped

    lift = LiftSpec("counted", c_flat=counted(base.c_flat), cprime_flat=counted(base.cprime_flat))
    cold = condition_residuals(lift, PointFrame(randers_var, w))
    spray._slot.clear()
    fr = PointFrame(randers_var, w)
    for classical in _classical_lifts(randers_var):
        condition_residuals(classical, fr)
    calls.clear()
    assert condition_residuals(lift, fr) == cold
    assert condition_residuals(lift, fr, ("T1",)) == {"T1": cold["T1"]}
    assert len(calls) == 4   # both rules, once per call: nothing is cached


# -- curvature of lifts ----------------------------------------------------------


def test_lift_curvature_euclidean_zero(euclid2):
    w = TangentVector([0.5, -0.5], [1.0, 0.3])
    for lift in [classical_lift(k, euclid2) for k in THEOREM_SETS] + \
            [random_admissible_lift(euclid2, 17)]:
        out = lift_curvature(lift, euclid2, w, [0.3, 0.9])
        assert np.max(np.abs(out)) < 1e-12


def test_lift_curvature_agreement_across_lifts(randers_var):
    rng = SplitMix64(33)
    lifts = [classical_lift(k, randers_var) for k in THEOREM_SETS]
    lifts += [random_admissible_lift(randers_var, 100 + i) for i in range(2)]
    lifts += [random_admissible_lift(randers_var, 200, enforce_t1=True)]
    for _ in range(5):
        w = random_tangent(randers_var, rng)
        u = rng.direction(2)
        base = curvature_endomorphism(randers_var, w).R @ u
        for lift in lifts:
            got = lift_curvature(lift, randers_var, w, u)
            assert np.max(np.abs(got - base)) < 1e-7, lift.name


def test_lift_curvature_vertical_noise(randers_var):
    w = TangentVector([0.2, -0.3], [0.9, 0.4])
    u = np.array([0.3, -1.1])
    noise = np.array([0.7, -0.4])
    base = curvature_endomorphism(randers_var, w).R @ u
    for lift in (classical_lift("berwald", randers_var),
                 classical_lift("cartan", randers_var),
                 random_admissible_lift(randers_var, 9, enforce_t1=True)):
        got = lift_curvature(lift, randers_var, w, u, vertical_noise=noise)
        assert np.max(np.abs(got - base)) < 1e-7
    # without the torsion condition, vertical components of the lift matter
    loose = random_admissible_lift(randers_var, 11)
    shifted = lift_curvature(loose, randers_var, w, u, vertical_noise=noise)
    unshifted = lift_curvature(loose, randers_var, w, u)
    assert np.max(np.abs(shifted - unshifted)) > 1e-4


def _raw_lift_on_a_spray():
    """A bare spray (no metric) and an admissible lift given by raw rules:
    each tensor is a (direction, output) field times the section covector
    (-y^2, y^1), which vanishes on the base direction."""
    spray = SpraySpec(2, lambda xs, ys: [0.1 * xs[0] * ys[0] * ys[1] + 0.2 * ys[1] * ys[1],
                                         0.3 * smath.sin(xs[1]) * ys[0] * ys[0]])

    def admissible(field):
        def rule(w):
            a, p = field(w), (-w.y[1], w.y[0])
            return [[[p[k] * a[j][l] for l in range(2)] for k in range(2)] for j in range(2)]
        return rule

    raw = LiftSpec("raw", c_raw=admissible(lambda w: [[w.x[0] * w.y[1], 0.0], [0.0, w.y[1]]]),
                   cprime_raw=admissible(lambda w: [[smath.sin(w.x[1]), 0.0],
                                                    [0.0, w.y[0] * w.y[0]]]))
    return spray, raw


def _generic_spray():
    """A bare spray of no metric, 2-homogeneous in y but not quadratic:
    G^i = Gamma^i_jk(x) y^j y^k / 2 + P(x, y) y^i + c^i(x) |y|_4^2."""

    def g_rule(xs, ys):
        gam = [[[0.3 + 0.1 * xs[1], 0.1], [0.1, -0.2]], [[0.0, 0.25 * xs[0]], [0.25 * xs[0], 0.4]]]
        r = smath.sqrt(ys[0] * ys[0] + 2.0 * ys[1] * ys[1] + 0.4 * ys[0] * ys[1])
        p = (0.15 * (1.0 + 0.2 * smath.sin(xs[0])) * r
             + 0.1 * ys[0] * ys[0] * ys[0] / (ys[0] * ys[0] + ys[1] * ys[1]))
        q = smath.sqrt(ys[0] * ys[0] * ys[0] * ys[0] + ys[1] * ys[1] * ys[1] * ys[1])
        c = [0.05 * smath.cos(xs[1]), -0.08 * xs[0]]
        return [0.5 * sum(gam[i][j][k] * ys[j] * ys[k] for j in range(2) for k in range(2))
                + p * ys[i] + c[i] * q for i in range(2)]

    return SpraySpec(2, g_rule, name="generic")


def test_berwald_lift_curvature_on_a_bare_spray():
    # Berwald needs only the spray; the other classical lifts read C off F^2
    src = _generic_spray()
    berwald = classical_lift("berwald", src)
    rng = SplitMix64(75)
    for _ in range(8):
        w = TangentVector(rng.vector(2, -0.5, 0.5), rng.direction(2))
        u = rng.direction(2)
        want = curvature_endomorphism(src, w).R @ u
        assert np.max(np.abs(lift_curvature(berwald, src, w, u) - want)) <= 1e-12
    for kind in ("cartan", "chern-rund", "hashiguchi"):
        with pytest.raises(InvalidLift, match=f"lift {kind}: flat lift tensors require a metric"):
            lift_curvature(classical_lift(kind, src), src, w, u)


def test_every_lift_reader_refuses_a_metric_lift_on_a_bare_spray_alike():
    # the frame readers used to end in the frame's generic TypeError here, while
    # lift_curvature named the lift
    src = _generic_spray()
    w = TangentVector([0.2, -0.1], [0.6, 0.8])
    fr = PointFrame(src, w)
    entries = {
        "affine_coefficients": lambda lift: affine_coefficients(lift, src, w),
        "lift_tensors": lambda lift: lift_tensors(lift, fr),
        "condition_residuals": lambda lift: condition_residuals(lift, fr, ("T1", "T3")),
        "lift_curvature": lambda lift: lift_curvature(lift, src, w, w.y),
    }
    metric_lifts = [classical_lift(k, src) for k in ("cartan", "chern-rund", "hashiguchi")]
    metric_lifts.append(LiftSpec("flat", c_flat=lambda p: np.zeros((2, 2, 2))))
    for call in entries.values():
        for lift in metric_lifts:
            with pytest.raises(InvalidLift, match=f"lift {lift.name}: flat lift tensors require "
                                                  f"a metric, got a bare spray"):
                call(lift)
        call(classical_lift("berwald", src))    # Berwald's halves are zero: it serves a spray
    # a metric condition on a spray's frame keeps its TypeError, whatever the lift
    for kind in ("berwald", "cartan"):
        with pytest.raises(TypeError, match="requires a metric"):
            condition_residuals(classical_lift(kind, src), fr, ("M1",))


@pytest.mark.parametrize("name", ["randers_var", "funk", "funk3", "euclid2", "spray"])
def test_batched_lift_curvature_is_bitwise_per_point(name, request):
    if name == "spray":
        ms, raw = _raw_lift_on_a_spray()
        lifts = [raw]
    else:
        ms = metrics.funk(3) if name == "funk3" else request.getfixturevalue(name)
        lifts = [classical_lift(k, ms) for k in ClassicalKind]
        lifts += [random_admissible_lift(ms, 23), random_admissible_lift(ms, 24, enforce_t1=True)]
    n = ms.dim
    rng = SplitMix64(29)
    ws = [TangentVector(rng.vector(n, -0.5, 0.5), rng.direction(n)) for _ in range(6)]
    u = np.array([rng.direction(n) for _ in ws])
    nu = np.array([rng.direction(n) for _ in ws])
    w = TangentVector.stack(ws)
    w = TangentVector(w.x.reshape(2, 3, n), w.y.reshape(2, 3, n))
    for lift in lifts:
        for noise in (None, nu):
            batch_noise = None if noise is None else noise.reshape(2, 3, n)
            got = lift_curvature(lift, ms, w, u.reshape(2, 3, n), vertical_noise=batch_noise)
            assert got.shape == (2, 3, n)
            for k, wk in enumerate(ws):
                ref = lift_curvature(lift, ms, wk, u[k],
                                     vertical_noise=None if noise is None else noise[k])
                assert np.array_equal(got.reshape(6, n)[k], ref), (lift.name, k, noise is None)


def test_lift_curvature_shares_an_order_5_frame(randers_var, monkeypatch):
    rng = SplitMix64(31)
    ws = [random_tangent(randers_var, rng) for _ in range(3)]
    w, u = TangentVector.stack(ws), np.array([rng.direction(2) for _ in ws])
    kinds = _classical_lifts(randers_var) + [random_admissible_lift(randers_var, 5,
                                                                    enforce_t1=True)]
    cold = []
    for lift in kinds:
        spray._slot.clear()
        cold.append(lift_curvature(lift, randers_var, w, u))
    spray._slot.clear()
    lifts = _counting_lifts(monkeypatch)
    for lift, alone in zip(kinds, cold):
        assert np.array_equal(lift_curvature(lift, randers_var, w, u), alone), lift.name
    # several lifts at the same points lift F^2 once, at order 5
    assert lifts == [5]


def test_empty_batches(funk):
    empty = np.zeros((0, 2))
    w = TangentVector(empty, empty)
    for lift in (classical_lift("cartan", funk), random_admissible_lift(funk, 3)):
        assert lift_curvature(lift, funk, w, empty).shape == (0, 2)
        assert lift_curvature(lift, funk, w, empty, vertical_noise=empty).shape == (0, 2)
    # a sup over no points is refused
    berwald = classical_lift("berwald", funk)
    calls = [lambda: condition_residuals(berwald, PointFrame(funk, w)),
             lambda: ident.nabla_s_g_residual(berwald, funk, w),
             lambda: ident.symmetry_residual(berwald, funk, empty, SplitMix64(1)),
             lambda: ident.metric_compat_residual(berwald, funk, empty, SplitMix64(1)),
             lambda: ident.metric_compat_geodesic_residual(funk, empty, SplitMix64(1)),
             lambda: ident.family_metric_identity_residual("cartan", funk, empty, SplitMix64(1)),
             lambda: ident.spray_derivative_residual(berwald, funk, w, SplitMix64(1)),
             lambda: ident.tensor_identity_residuals(funk, w)]
    for call in calls:
        with pytest.raises(ValueError, match="empty batch"):
            call()


# -- affine family ---------------------------------------------------------------


def test_affine_family_coincidences(randers_var, funk):
    rng = SplitMix64(41)
    for ms in (randers_var, funk):
        lifts = {k: classical_lift(k, ms) for k in THEOREM_SETS}
        gap = 0.0
        for _ in range(10):
            w = random_tangent(ms, rng)
            fr = PointFrame(ms, w, order=4)
            A = {k: affine_coefficients(lf, ms, w).A for k, lf in lifts.items()}
            assert np.max(np.abs(A["berwald"] - A["hashiguchi"])) < 1e-12
            assert np.max(np.abs(A["cartan"] - A["chern-rund"])) < 1e-12
            gap = max(gap, float(np.max(np.abs(A["cartan"] - A["berwald"]))))
            contracted = np.einsum("ijk,j,k->i", A["cartan"], w.y, w.y)
            assert np.max(np.abs(contracted - 2.0 * fr.G)) < 1e-10
        assert gap > 1e-3


def test_affine_riemannian_equals_christoffel(sphere):
    rng = SplitMix64(47)
    for _ in range(5):
        w = random_tangent(sphere, rng)
        gam = christoffel(lambda x: np.asarray(sphere._g_field(list(x)), float), w.x)
        for k in THEOREM_SETS:
            A = affine_coefficients(classical_lift(k, sphere), sphere, w).A
            assert np.max(np.abs(A - gam)) < 1e-8


def _generic_riemannian(n):
    """A Riemannian metric that is not conformally flat, with off-diagonal
    coefficients that vary in x."""

    def g_field(xs):
        v = [0.4 * smath.sin(xs[(i + 1) % n]) + 0.2 * xs[i] for i in range(n)]
        return [[(1.0 + 0.3 * (i + 1) * xs[i] * xs[i] if i == j else 0.0) + v[i] * v[j]
                 for j in range(n)] for i in range(n)]

    return riemannian(n, g_field, name=f"generic{n}")


@pytest.mark.parametrize("n", [2, 3])
def test_levi_civita_oracle(n):
    ms = _generic_riemannian(n)
    rng = SplitMix64(3)
    ws = [random_tangent(ms, rng) for _ in range(10)]
    X, Y = np.array([w.x for w in ws]), np.array([w.y for w in ws])
    gam, R = ident.levi_civita(ms, X, Y)
    assert gam.shape == (10, n, n, n) and R.shape == (10, n, n)
    # the finite-difference references, off by their truncation error
    g_float = lambda x: np.asarray(ms._g_field(list(x)), float)
    for x, y, gam_i, R_i in zip(X, Y, gam, R):
        assert np.max(np.abs(gam_i - christoffel(g_float, x))) < 1e-8
        assert np.max(np.abs(R_i - riemann_jacobi_operator(g_float, x, y))) < 1e-8
    # the engine: the spray curvature and the four classical affine coefficients
    fr = PointFrame(ms, TangentVector(X, Y), order=4)
    assert np.max(np.abs(fr.R - R)) < 1e-13
    for k in THEOREM_SETS:
        A = affine_coefficients(classical_lift(k, ms), ms, fr.w).A
        assert np.max(np.abs(A - gam)) < 1e-13
    # a point of the batch is that point's own oracle
    single = ident.levi_civita(ms, X[4], Y[4])
    assert np.array_equal(single[0], gam[4]) and np.array_equal(single[1], R[4])


# -- covariant derivatives along curves -------------------------------------------


def _chebyshev_curve(geo, m=32):
    """A geodesic's states at the Chebyshev-Lobatto nodes of m intervals of its span."""
    t = _ChebyshevTable.nodes(*sorted(geo.dense.span), m)
    states = geo.dense(t)
    n = geo.n
    return Curve(t, states[:n].T, states[n:].T)


def test_covariant_derivative_constant_euclidean(euclid2):
    grid = _ChebyshevTable.nodes(0.0, 1.0, 16)
    pts = np.stack([grid, 0.5 * grid], axis=1)
    vel = np.stack([np.ones_like(grid), 0.5 * np.ones_like(grid)], axis=1)
    curve = Curve(grid, pts, vel)
    W = FieldAlongCurve(grid, vel.copy())
    V = FieldAlongCurve(grid, np.tile([2.0, -1.0], (17, 1)))
    out = covariant_derivative_curve(classical_lift("berwald", euclid2), euclid2,
                                     curve, W, V)
    assert np.max(np.abs(out.vectors)) < 1e-12


def test_covariant_derivative_two_term_form(randers_var):
    """Dedicated check: simplified coefficient form vs raw two-term evaluation,
    the raw one with the exact t-derivatives of the fields."""
    grid = _ChebyshevTable.nodes(0.0, 0.6, 32)
    pts = np.stack([0.2 + 0.5 * grid, -0.1 + 0.3 * np.sin(grid)], axis=1)
    vel = np.stack([np.full_like(grid, 0.5), 0.3 * np.cos(grid)], axis=1)
    curve = Curve(grid, pts, vel)
    wv = np.stack([0.8 + 0.2 * np.cos(grid), 0.5 + 0.1 * grid], axis=1)
    vv = np.stack([np.sin(grid) + 0.5, 0.3 * grid - 0.7], axis=1)
    W = FieldAlongCurve(grid, wv)
    V = FieldAlongCurve(grid, vv)
    lift = classical_lift("cartan", randers_var)  # nonzero C makes the check real

    simplified = covariant_derivative_curve(lift, randers_var, curve, W, V)

    vdot = np.stack([np.cos(grid), np.full_like(grid, 0.3)], axis=1)
    wdot = np.stack([-0.2 * np.sin(grid), np.full_like(grid, 0.1)], axis=1)
    raw = np.empty_like(vv)
    for i, t in enumerate(grid):
        wt = TangentVector(pts[i], wv[i])
        fr = PointFrame(randers_var, wt, order=4)
        cc, cp = lift_tensors(lift, fr)
        gh = fr.B + cp
        b = wdot[i] + fr.N @ vel[i]  # fiber components of the vertical part of dW/dt
        nabla_dt = (vdot[i] + np.einsum("ijk,j,k->i", gh, vel[i], vv[i])
                    + np.einsum("ijk,j,k->i", cc, b, vv[i]))
        raw[i] = nabla_dt - np.einsum("ijk,j,k->i", cc, b, vv[i])
    assert np.max(np.abs(simplified.vectors - raw)) < 1e-12


def test_remark_vertical_projection_of_field_derivative(randers_var):
    # D^W W/dt equals the fiber part of the vertical projection of dW/dt
    grid = _ChebyshevTable.nodes(0.0, 0.5, 32)
    pts = np.stack([0.1 + 0.4 * grid, 0.2 * grid ** 2 - 0.3], axis=1)
    vel = np.stack([np.full_like(grid, 0.4), 0.4 * grid], axis=1)
    curve = Curve(grid, pts, vel)
    wv = np.stack([0.9 + 0.1 * np.sin(2 * grid), 0.4 - 0.2 * grid], axis=1)
    W = FieldAlongCurve(grid, wv)
    lift = classical_lift("berwald", randers_var)
    dww = covariant_derivative_curve(lift, randers_var, curve, W, W)
    wdot = np.stack([0.2 * np.cos(2 * grid), np.full_like(grid, -0.2)], axis=1)
    for i in range(0, 33, 4):
        fr = PointFrame(randers_var, TangentVector(pts[i], wv[i]), order=3)
        expect = wdot[i] + fr.N @ vel[i]
        assert np.max(np.abs(dww.vectors[i] - expect)) < 1e-12


def test_geodesic_self_derivative_vanishes(randers_var):
    geo = integrate_geodesic(randers_var, TangentVector([0.1, -0.2], [0.8, 0.5]), 1.0)
    curve = _chebyshev_curve(geo)
    W = FieldAlongCurve(curve.grid, curve.velocities)
    for kind in ("berwald", "cartan"):
        out = covariant_derivative_curve(classical_lift(kind, randers_var),
                                         randers_var, curve, W, W)
        # every node, the ends included: the geodesic is resolved to rtol 1e-9
        assert np.max(np.abs(out.vectors)) < 1e-8


def test_covariant_derivative_lift_independent_for_t1(randers_var):
    geo = integrate_geodesic(randers_var, TangentVector([0.0, 0.1], [0.7, -0.4]), 0.8)
    curve = _chebyshev_curve(geo)
    W = FieldAlongCurve(curve.grid, curve.velocities)
    vv = np.stack([np.cos(curve.grid), np.sin(2 * curve.grid) - 0.4], axis=1)
    V = FieldAlongCurve(curve.grid, vv)
    outs = []
    for lift in (classical_lift("berwald", randers_var),
                 classical_lift("cartan", randers_var),
                 random_admissible_lift(randers_var, 55, enforce_t1=True)):
        outs.append(covariant_derivative_curve(lift, randers_var, curve, W, V).vectors)
    assert np.max(np.abs(outs[0] - outs[1])) < 1e-10
    assert np.max(np.abs(outs[0] - outs[2])) < 1e-10


def test_grid_errors(randers_var):
    grid = _ChebyshevTable.nodes(0.0, 1.0, 20)
    pts = np.stack([grid, grid], axis=1)
    vel = np.ones((21, 2))
    curve = Curve(grid, pts, vel)
    lift = classical_lift("berwald", randers_var)
    with pytest.raises(GridError):
        covariant_derivative_curve(lift, randers_var, curve,
                                   FieldAlongCurve(grid[:-1], vel[:-1]),
                                   FieldAlongCurve(grid[:-1], vel[:-1]))
    with pytest.raises(NullReference):
        covariant_derivative_curve(lift, randers_var, curve,
                                   FieldAlongCurve(grid, np.zeros((21, 2))),
                                   FieldAlongCurve(grid, vel))
    # a uniform grid is refused before any frame is built
    uniform = np.linspace(0.0, 1.0, 21)
    line = Curve(uniform, np.stack([uniform, uniform], axis=1), vel)
    with pytest.raises(GridError, match="Chebyshev-Lobatto nodes"):
        covariant_derivative_curve(lift, randers_var, line, FieldAlongCurve(uniform, vel),
                                   FieldAlongCurve(uniform, vel))


# -- identity battery -------------------------------------------------------------


def test_nabla_s_g_all_lifts(randers_var, funk):
    rng = SplitMix64(61)
    for ms in (randers_var, funk):
        for _ in range(5):
            w = random_tangent(ms, rng)
            for kind in THEOREM_SETS:
                assert ident.nabla_s_g_residual(classical_lift(kind, ms), ms, w) < 1e-7


def test_symmetry_property_discriminates(randers_var):
    rng = SplitMix64(67)
    x0 = np.array([0.2, -0.1])
    for kind in THEOREM_SETS:  # all classical lifts satisfy the torsion symmetry
        assert ident.symmetry_residual(classical_lift(kind, randers_var),
                                       randers_var, x0, SplitMix64(5)) < 1e-7
    # a lift with asymmetric C' violates it
    loose = random_admissible_lift(randers_var, 71)
    assert ident.symmetry_residual(loose, randers_var, x0, SplitMix64(5)) > 1e-4


def test_metric_compatibility_and_theorem46(randers_var):
    x0 = np.array([0.3, 0.15])
    for kind in ("berwald", "cartan", "chern-rund", "hashiguchi"):
        assert ident.metric_compat_residual(classical_lift(kind, randers_var),
                                            randers_var, x0, SplitMix64(6)) < 1e-6
        assert ident.family_metric_identity_residual(kind, randers_var, x0, SplitMix64(7)) < 1e-6
    assert ident.metric_compat_geodesic_residual(randers_var, x0, SplitMix64(8)) < 1e-6


@pytest.mark.parametrize("name", ["randers_var", "funk", "funk3", "sphere"])
def test_metric_identity_residuals_are_exact(name, request):
    # d/dt g_W(T, V) from one jet in (t, a, b): central differences of step 1e-4 and
    # 1e-5 read 1.25e-12 to 1.06e-10 here
    ms = metrics.funk(3) if name == "funk3" else request.getfixturevalue(name)
    rng = SplitMix64(31)
    x = np.array([random_tangent(ms, rng).x for _ in range(10)])
    for kind in THEOREM_SETS:
        assert ident.metric_compat_residual(classical_lift(kind, ms), ms, x, rng) <= 1e-13
        assert ident.family_metric_identity_residual(kind, ms, x, rng) <= 1e-13
    assert ident.metric_compat_geodesic_residual(ms, x, rng) <= 1e-13


def test_spray_direction_derivative_identity(randers_var):
    rng = SplitMix64(73)
    for _ in range(5):
        w = random_tangent(randers_var, rng)
        for kind in THEOREM_SETS:
            assert ident.spray_derivative_residual(classical_lift(kind, randers_var),
                                          randers_var, w, rng) < 1e-7


def _identity_residuals(ms):
    """Each identity residual as a function of a point or batch and an rng."""
    cartan, loose = classical_lift("cartan", ms), random_admissible_lift(ms, 71)
    return {
        "nabla_s_g": lambda w, rng: ident.nabla_s_g_residual(cartan, ms, w),
        "symmetry": lambda w, rng: ident.symmetry_residual(loose, ms, w.x, rng),
        "metric_compat": lambda w, rng: ident.metric_compat_residual(cartan, ms, w.x, rng),
        "geodesic": lambda w, rng: ident.metric_compat_geodesic_residual(ms, w.x, rng),
        "family": lambda w, rng: ident.family_metric_identity_residual("hashiguchi", ms,
                                                                       w.x, rng),
        "spray_derivative": lambda w, rng: ident.spray_derivative_residual(cartan, ms, w, rng),
    }


@pytest.mark.parametrize("name", ["randers_var", "funk"])
def test_batched_identity_residuals_are_the_sup_over_points(name, request):
    ms = request.getfixturevalue(name)
    rng = SplitMix64(43)
    ws = [random_tangent(ms, rng) for _ in range(4)]
    w = TangentVector.stack(ws)
    w = TangentVector(w.x.reshape(2, 2, 2), w.y.reshape(2, 2, 2))
    for key, fn in _identity_residuals(ms).items():
        # the batch draws its fields point by point from one stream, as a loop does
        got = fn(w, SplitMix64(5))
        shared = SplitMix64(5)
        assert got == max(fn(p, shared) for p in ws), key
    got = ident.tensor_identity_residuals(ms, w)
    singles = [ident.tensor_identity_residuals(ms, p) for p in ws]
    for key, value in got.items():
        assert value == max(res[key] for res in singles), key


def test_identity_residuals_build_one_frame_per_call(randers_var, monkeypatch):
    built = _counting_lifts(monkeypatch)
    rng = SplitMix64(47)
    w = TangentVector.stack([random_tangent(randers_var, rng) for _ in range(3)])
    calls = {key: (lambda fn=fn: fn(w, SplitMix64(1)))
             for key, fn in _identity_residuals(randers_var).items()}
    calls["tensor"] = lambda: ident.tensor_identity_residuals(randers_var, w)
    family = VariationFamily(rule=lambda s, t: np.outer(t, [0.3, 0.2]) + s * np.array([0.05, 0.0]))
    calls["variation_symmetry"] = lambda: variation_symmetry_residual(randers_var, family)
    calls["lift_curvature"] = lambda: lift_curvature(
        random_admissible_lift(randers_var, 3), randers_var, w, w.y)
    for key, call in calls.items():
        spray._slot.clear()
        built.clear()
        call()
        assert len(built) == 1, key
    assert built == [5]


def test_random_lift_projections(randers_var):
    w = TangentVector([0.4, -0.25], [0.6, 0.7])
    fr = PointFrame(randers_var, w, order=4)
    plain = random_admissible_lift(randers_var, 81)
    res = condition_residuals(plain, fr, ("T1",))
    cc, cp = lift_tensors(plain, fr)
    assert np.max(np.abs(np.einsum("ijk,k->ij", cc, w.y))) < 1e-12  # admissible
    t1 = random_admissible_lift(randers_var, 81, enforce_t1=True)
    assert condition_residuals(t1, fr, ("T1",))["T1"] < 1e-12
    m = random_admissible_lift(randers_var, 81, enforce_m1m2=True)
    res_m = condition_residuals(m, fr, ("M1", "M2"))
    assert res_m["M1"] < 1e-12 and res_m["M2"] < 1e-12


def _recorded_points(ms, w):
    """The carriers a flat rule receives at w: plain, then inside lift_curvature."""
    seen = []

    def rule(p):
        seen.append(p)
        return np.zeros((ms.dim,) * 3)

    lift = LiftSpec("record", c_flat=rule)
    lift_tensors(lift, PointFrame(ms, w, order=4))
    plain = seen[0]
    seen.clear()
    lift_curvature(lift, ms, w, [0.3, -0.8])
    return plain, seen[0]


def test_lift_point_carrier_matches_metric_oracles(randers_var, funk):
    rng = SplitMix64(47)
    h = 1e-5
    for ms in (randers_var, funk):
        n = ms.dim
        for _ in range(3):
            w = random_tangent(ms, rng)
            plain, jet = _recorded_points(ms, w)
            # Euler: F^2 = g_w(w, w) and half the y-gradient of F^2 is g_w(w, .)
            assert abs(plain.f2 - metric_value(ms, w) ** 2) < 1e-12
            want = fundamental_tensor(ms, w).g @ w.y
            assert np.max(np.abs(np.array(plain.gw) - want)) < 1e-12

            v = rng.direction(n)
            pair = smath.dot(jet.gw, v)
            assert isinstance(pair, Jet) and pair.order == 1

            def pairing(z):
                wz = TangentVector(z[:n], z[n:])
                return float(v @ fundamental_tensor(ms, wz).g @ wz.y)

            z0 = np.concatenate([w.x, w.y])
            assert abs(pair.value - pairing(z0)) < 1e-12
            for a in range(2 * n):
                e = np.zeros(2 * n)
                e[a] = h
                fd = (pairing(z0 + e) - pairing(z0 - e)) / (2 * h)
                assert abs(pair.partial(tuple(int(k == a) for k in range(2 * n))) - fd) < 1e-6


# -- whole-tensor rules ----------------------------------------------------------


def test_one_rule_call_per_tensor_per_point(randers_var):
    base = random_admissible_lift(randers_var, 31, enforce_t1=True)
    calls = {"c": 0, "cprime": 0}

    def counted(key, rule):
        def wrapped(w):
            calls[key] += 1
            return rule(w)
        return wrapped

    lift = LiftSpec("counted", c_flat=counted("c", base.c_flat),
                    cprime_flat=counted("cprime", base.cprime_flat))
    rng = SplitMix64(33)
    ws = [random_tangent(randers_var, rng) for _ in range(5)]
    lift_tensors(lift, PointFrame(randers_var, ws[0]))
    assert calls == {"c": 1, "cprime": 1}
    # the float carrier of a batched frame holds all 5 points
    lift_tensors(lift, _batch(randers_var, ws))
    assert calls == {"c": 2, "cprime": 2}
    lift_curvature(lift, randers_var, ws[0], [0.3, -0.8], vertical_noise=[0.1, 0.2])
    assert calls == {"c": 3, "cprime": 3}
    condition_residuals(lift, _batch(randers_var, ws))
    assert calls == {"c": 4, "cprime": 4}
    # the jet carrier of a batched lift_curvature holds all 5 points
    u = np.tile([0.3, -0.8], (5, 1))
    lift_curvature(lift, randers_var, TangentVector.stack(ws), u, vertical_noise=0.5 * u)
    assert calls == {"c": 5, "cprime": 5}


@pytest.mark.parametrize("flags", [(False, False), (True, False), (False, True)])
def test_random_lift_matches_basis_triple_reference(randers_var, funk, flags):
    for ms in (randers_var, funk, metrics.funk(3)):
        new = random_admissible_lift(ms, 17, *flags)
        ref = basis_triple_random_lift(ms, 17, *flags)
        rng = SplitMix64(19)
        for _ in range(3):
            w = random_tangent(ms, rng)
            fr = PointFrame(ms, w, order=4)
            for got, want in zip(lift_tensors(new, fr), lift_tensors(ref, fr)):
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            u, nu = rng.direction(ms.dim), rng.direction(ms.dim)
            got = lift_curvature(new, ms, w, u, vertical_noise=nu)
            want = lift_curvature(ref, ms, w, u, vertical_noise=nu)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("flags", [(False, False), (True, False), (False, True)])
def test_random_lift_matches_entrywise_reference_bitwise(randers_var, flags):
    # the tensor-carrier rule against the entry-by-entry one it replaced: floats
    # over a batched frame, and order-1 jets over a batch and at a single point
    def same(got, want):
        return got.shape == want.shape and got.tobytes() == want.tobytes()

    for ms in (randers_var, metrics.funk(3)):
        new = random_admissible_lift(ms, 61, *flags)
        ref = entrywise_random_lift(ms, 61, *flags)
        rng = SplitMix64(67)
        w = TangentVector.stack([random_tangent(ms, rng) for _ in range(4)])
        u = np.array([rng.direction(ms.dim) for _ in range(4)])
        nu = np.array([rng.direction(ms.dim) for _ in range(4)])
        fr = PointFrame(ms, w, order=4)
        got, want = lifts._reader(new, fr), lifts._reader(ref, fr)
        for name in ("cc", "cp", "ccf", "cpf"):
            assert same(got(name), want(name)), name
        w0 = TangentVector(w.x[0], w.y[0])
        for noise in (None, nu):
            assert same(lift_curvature(new, ms, w, u, vertical_noise=noise),
                        lift_curvature(ref, ms, w, u, vertical_noise=noise))
            noise0 = None if noise is None else noise[0]
            assert same(lift_curvature(new, ms, w0, u[0], vertical_noise=noise0),
                        lift_curvature(ref, ms, w0, u[0], vertical_noise=noise0))


@pytest.mark.parametrize("rule", [lambda w: np.zeros((2, 2)),
                                  lambda w: np.zeros((2, 2, 3)),
                                  lambda w: [[[0.0, 0.0], [0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                                  lambda w: w.y[:, None] * w.y[None, :]],
                         ids=["rank-2", "wide-slot", "ragged", "rank-2-carrier-tensor"])
def test_rule_of_wrong_shape_is_invalid(randers_var, rule):
    lift = LiftSpec("misshapen", c_flat=rule)
    w = TangentVector([0.1, 0.2], [0.7, -0.3])
    with pytest.raises(InvalidLift, match="misshapen"):
        lift_tensors(lift, PointFrame(randers_var, w))
    with pytest.raises(InvalidLift, match="misshapen"):
        lift_curvature(lift, randers_var, w, [0.3, -0.8])


@pytest.mark.parametrize("flat, raw", [("c_flat", "cprime_raw"), ("cprime_flat", "c_raw")])
def test_flat_and_raw_rules_do_not_mix(flat, raw):
    # the raw pair used to be read and the flat rule ignored in silence
    rule = lambda w: [[[0.1 * w.y[0]] * 2] * 2] * 2
    with pytest.raises(InvalidLift, match=f"mixed.*{flat} and {raw}"):
        LiftSpec("mixed", **{flat: rule, raw: rule})


def test_rule_lift_of_an_empty_batch(funk):
    empty = np.zeros((0, 2))
    fr = PointFrame(funk, TangentVector(empty, empty))
    lift = random_admissible_lift(funk, 3)
    t = lifts._reader(lift, fr)
    for name in ("cc", "cp", "ccf", "cpf"):
        assert t(name).shape == (0, 2, 2, 2)
