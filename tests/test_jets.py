import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslergeo.errors import DomainError
from finslergeo.jets import Jet, JetSpace, contract, lift_any, smath, solve_linear, space_for
from finslergeo.rng import SplitMix64

from oracles import naive_jet_tables, sympy_polynomial_jet


def _same_array(got, want) -> bool:
    return (type(got) is np.ndarray and got.dtype == want.dtype and got.shape == want.shape
            and got.flags.c_contiguous == want.flags.c_contiguous
            and np.array_equal(got, want))


@pytest.mark.parametrize("nvars,order", itertools.product(range(1, 7), range(7)))
def test_space_tables_equal_loop_builders(nvars, order):
    # the gather loops visit nvars**k tuples; past 8,000 they dominate the test's time
    gathers = [k for k in range(order + 1) if nvars ** k <= 8000]
    want = naive_jet_tables(nvars, order, gathers)
    sp = JetSpace(nvars, order)
    assert sp.alphas == want["alphas"] and sp.size == len(want["alphas"])
    assert all(type(a) is int for alpha in sp.alphas for a in alpha)
    assert list(sp.index.items()) == list(want["index"].items())
    names = ["_mul_ia", "_mul_ib", "_mul_ic"] + (["_grad_src", "_grad_fac"] if order else [])
    for name in names:
        assert _same_array(getattr(sp, name), want[name]), name
    for k in gathers:
        for got, ref in zip(sp._gather(k), want["gathers"][k]):
            assert _same_array(got, ref), k


def test_polynomial_example():
    j = lift_any(lambda v: v[0] * v[0] * v[1], [1.0, 2.0], 2)
    assert j.partial((2, 0)) == pytest.approx(4.0, abs=1e-14)
    assert j.partial((1, 1)) == pytest.approx(2.0, abs=1e-14)
    assert j.partial((0, 2)) == 0.0


def test_linear_gradient_any_center():
    for center in ([0.0, 0.0], [3.0, -7.5]):
        j = lift_any(lambda v: v[0] + v[1], center, 1)
        assert j.partial((1, 0)) == 1.0
        assert j.partial((0, 1)) == 1.0


def test_sqrt_hessian_matches_finite_differences():
    f = lambda v: smath.sqrt(v[0] * v[0] + v[1] * v[1])
    j = lift_any(f, [3.0, 4.0], 2)
    h = 1e-4

    def fd(i, k):
        def g(a, b):
            x = [3.0, 4.0]
            x[i] += a
            x[k] += b
            return f(x)

        return (g(h, h) - g(h, -h) - g(-h, h) + g(-h, -h)) / (4 * h * h)

    for i in range(2):
        for k in range(2):
            alpha = [0, 0]
            alpha[i] += 1
            alpha[k] += 1
            assert j.partial(alpha) == pytest.approx(fd(i, k), abs=1e-6)


def test_partial_trivial_cases():
    j = lift_any(lambda v: v[0] * v[0], [3.0], 2)
    assert j.partial((2,)) == pytest.approx(2.0)
    j7 = lift_any(lambda v: 7.0, [1.0], 2)
    assert j7.partial((1,)) == 0.0
    jexp = lift_any(lambda v: smath.exp(v[0]) * v[1], [0.0, 1.0], 2)
    assert jexp.partial((1, 1)) == pytest.approx(1.0, abs=1e-14)


def test_partial_order_overflow_raises():
    j = lift_any(lambda v: v[0], [1.0], 2)
    with pytest.raises(IndexError):
        j.partial((3,))
    with pytest.raises(IndexError):
        j.partial((1, 1))  # wrong arity
    for k in (3, -1):
        with pytest.raises(IndexError):
            j.derivative(k)


def test_negative_order_refused():
    with pytest.raises(ValueError):
        lift_any(lambda v: v[0], [1.0], -1)


def test_domain_error_at_branch():
    with pytest.raises(DomainError):
        lift_any(lambda v: smath.sqrt(v[0]), [-1.0], 2)
    with pytest.raises(DomainError):
        lift_any(lambda v: 1.0 / (v[0] - 2.0), [2.0], 2)


def test_random_polynomials_exact_against_sympy():
    rng = SplitMix64(99)
    checked = 0
    for _ in range(50):
        nvars = 1 + int(rng.uniform(0, 4))
        nterms = 1 + int(rng.uniform(0, 5))
        coeff_map = {}
        for _ in range(nterms):
            alpha = tuple(int(rng.uniform(0, 2.4)) for _ in range(nvars))
            if sum(alpha) > 4:
                continue
            coeff_map[alpha] = round(rng.uniform(-3, 3), 3)
        if not coeff_map:
            continue
        fn, exact = sympy_polynomial_jet(coeff_map, nvars)
        center = [rng.uniform(-1.5, 1.5) for _ in range(nvars)]
        jet = lift_any(fn, center, 4)
        for alpha in jet.space.alphas:
            got = jet.partial(alpha)
            want = exact(alpha, center)
            assert abs(got - want) < 1e-12 * max(1.0, abs(want)), (alpha, got, want)
            checked += 1
        for k in range(5):
            dk = jet.derivative(k)
            assert dk.shape == (nvars,) * k
            for t in itertools.product(range(nvars), repeat=k):
                alpha = tuple(t.count(v) for v in range(nvars))
                want = exact(alpha, center)
                assert abs(dk[t] - want) < 1e-12 * max(1.0, abs(want)), (t, dk[t], want)
    assert checked > 200


def test_division_and_series_consistency():
    a = lift_any(lambda v: smath.sin(v[0]) + 2.0, [0.3], 4)
    b = lift_any(lambda v: smath.exp(0.5 * v[0]) + v[0] * v[0], [0.3], 4)
    prod = (a / b) * b
    assert np.max(np.abs(prod.c - a.c)) < 1e-14
    lg = (a.log()).exp()
    assert np.max(np.abs(lg.c - a.c)) < 1e-13
    rt = a.sqrt() * a.sqrt()
    assert np.max(np.abs(rt.c - a.c)) < 1e-14


def test_truncate_is_prefix():
    j = lift_any(lambda v: smath.exp(v[0] + 0.5 * v[1]), [0.1, 0.2], 4)
    t = j.truncate(2)
    assert t.order == 2
    for alpha in t.space.alphas:
        assert t.partial(alpha) == j.partial(alpha)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv],
                         ids=["add", "sub", "mul", "truediv"])
def test_mixed_space_arithmetic_raises(op):
    a = lift_any(lambda v: 1.0 + v[0], [1.0, 2.0], 2)
    b = lift_any(lambda v: 1.0 + v[0], [1.0, 2.0], 3)
    with pytest.raises(ValueError):
        _ = op(a, b)
    with pytest.raises(ValueError):
        _ = op(b, a)
    # coefficients are floats only: a jet cannot become a coefficient
    with pytest.raises(TypeError):
        space_for(2, 1).constant(a)


@settings(max_examples=60, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-1.5, 1.5))
def test_lift_is_linear_in_rules(a, b, c):
    f = lambda v: a * v[0] + b * v[1] * v[0]
    g = lambda v: c * v[1] * v[1]
    center = [0.7, -0.2]
    jf = lift_any(f, center, 3)
    jg = lift_any(g, center, 3)
    jfg = lift_any(lambda v: f(v) + g(v), center, 3)
    assert np.max(np.abs(jfg.c - (jf.c + jg.c))) < 1e-12


def test_pow_matches_repeated_multiplication():
    j = lift_any(lambda v: 1.0 + v[0], [0.2], 4)
    assert np.max(np.abs((j ** 3).c - (j * j * j).c)) < 1e-14
    inv2 = j ** (-2)
    assert np.max(np.abs((inv2 * j * j).c - lift_any(lambda v: 1.0, [0.2], 4).c)) < 1e-13


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_tensor_jet_ops_match_scalar_components(nvars, order, seed):
    sp = space_for(nvars, order)
    rs = np.random.default_rng(seed)
    a = Jet(sp, rs.uniform(-2, 2, (2, 3, sp.size)))
    b = Jet(sp, rs.uniform(-2, 2, (2, 3, sp.size)))
    s = Jet(sp, rs.uniform(-2, 2, sp.size))
    # arrays of lower rank broadcast against the leading axes from the back, like numpy
    row, col = rs.uniform(-2, 2, 3), rs.uniform(-2, 2, (2, 1))
    ops = {"add": a + b, "sub": a - b, "mul": a * b, "bcast": s * a, "shift": a - 2.5,
           "add_row": a + row, "sub_row": a - row, "radd_row": row + a, "rsub_row": row - a,
           "add_col": a + col, "rsub_col": col - a}
    for i, j in itertools.product(range(2), range(3)):
        ai, bi = Jet(sp, a.c[i, j]), Jet(sp, b.c[i, j])
        want = {"add": ai + bi, "sub": ai - bi, "mul": ai * bi, "bcast": s * ai,
                "shift": ai - 2.5, "add_row": ai + row[j], "sub_row": ai - row[j],
                "radd_row": row[j] + ai, "rsub_row": row[j] - ai, "add_col": ai + col[i, 0],
                "rsub_col": col[i, 0] - ai}
        for name, got in ops.items():
            assert np.array_equal(got[i, j].c, want[name].c), name
        for k in range(order + 1):
            assert np.array_equal(a.derivative(k)[i, j], ai.derivative(k))
        if order >= 1:
            assert np.array_equal(a.grad()[i, j].c, ai.grad().c)
    if order >= 1:
        # grad's new axis is last and its value part is the first derivative
        assert a.grad().shape == (2, 3, nvars)
        assert np.array_equal(a.grad().value, a.derivative(1))
    else:
        with pytest.raises(IndexError):
            a.grad()


def test_sums_with_a_wider_array_broadcast_the_jet_as_products_do():
    # a scalar jet plus a vector, and a jet of leading axes (4, 1) plus a (4, 3) array
    sp = space_for(1, 2)
    rs = np.random.default_rng(7)
    cases = ((sp.coordinates(np.zeros(1))[0], np.ones(3)),
             (Jet(sp, rs.uniform(-2, 2, (4, 1, sp.size))), rs.uniform(-2, 2, (4, 3))))
    for jet, arr in cases:
        lead = np.broadcast_shapes(jet.shape, arr.shape)
        assert (jet * arr).shape == lead
        wide = Jet(sp, np.array(np.broadcast_to(jet.c, lead + (sp.size,))))
        for got, want in ((jet + arr, wide + arr), (arr + jet, arr + wide),
                          (jet - arr, wide - arr), (arr - jet, arr - wide)):
            assert got.c.shape == want.c.shape
            assert np.array_equal(got.c, want.c)


@pytest.mark.parametrize("order", range(6))
def test_solve_linear_residual(order):
    rs = np.random.default_rng(100 + order)
    sp = space_for(2, order)
    n = 3
    for trial in range(5):
        m = rs.uniform(-1, 1, (n, n))
        c = rs.uniform(-1, 1, (n, n, sp.size))
        c[..., 0] = m @ m.T + 0.5 * np.eye(n)
        a = Jet(sp, c)
        b = Jet(sp, rs.uniform(-1, 1, (n, 2, sp.size)) if trial % 2 else
                rs.uniform(-1, 1, (n, sp.size)))
        x = solve_linear(a, b, np.linalg.inv(a.value))
        residual = contract("ij,j...->i...", a, x) - b
        assert x.shape == b.shape
        assert np.max(np.abs(residual.c)) < 1e-13


def test_lift_any_stacks_sequences():
    rule = lambda v: [[v[0] * v[1], 2.0], [smath.sin(v[1]), v[0]]]
    jet = lift_any(rule, [0.4, -0.3], 3)
    assert jet.shape == (2, 2)
    for i, j in itertools.product(range(2), range(2)):
        one = lift_any(lambda v: rule(v)[i][j], [0.4, -0.3], 3)
        assert np.array_equal(jet[i, j].c, one.c)
    with pytest.raises(TypeError):
        jet[0, 0][0]


def test_lift_any_batched_centers_bitwise():
    rule = lambda v: [v[0] * v[1] / (2.0 + v[2]), smath.sqrt(1.0 + v[0] * v[0]) * smath.exp(v[2])]
    centers = np.array([[[0.4, -0.3, 0.1], [0.0, 0.7, -0.5]],
                        [[1.2, 0.2, 0.3], [-0.6, -0.1, 0.9]]])
    jet = lift_any(rule, centers, 4)
    assert jet.shape == (2, 2, 2)
    coords = space_for(3, 4).coordinates(centers)
    assert coords.shape == (3, 2, 2)
    for a, b in itertools.product(range(2), range(2)):
        assert np.array_equal(coords[:, a, b].c, space_for(3, 4).coordinates(centers[a, b]).c)
        assert np.array_equal(jet[:, a, b].c, lift_any(rule, list(centers[a, b]), 4).c)


def test_smath_on_float_arrays_is_entrywise():
    a = np.random.default_rng(3).uniform(0.1, 3.0, (2, 3))
    for fn in (smath.sqrt, smath.exp, smath.log, smath.sin, smath.cos):
        got = fn(a)
        assert got.shape == a.shape
        assert all(got[idx] == fn(float(a[idx])) for idx in np.ndindex(a.shape))
    with pytest.raises(DomainError):
        smath.sqrt(np.array([1.0, -1.0]))
    with pytest.raises(DomainError):
        smath.log(np.array([0.0, 1.0]))


# -- degree bounds, variable supports and pruned products ------------------------------


def _jet_of_degree(sp, deg, shape, rs):
    """A jet with random coefficients through degree ``deg`` and zeros above."""
    c = rs.uniform(-2, 2, shape + (sp.size,))
    c[..., space_for(sp.nvars, deg).size:] = 0.0
    return Jet(sp, c, deg)


def _variables(sp) -> np.ndarray:
    """Each alpha's variables as a bit mask, bit v for variable v."""
    return np.array([sum(1 << v for v, a in enumerate(alpha) if a) for alpha in sp.alphas])


def _jet_within(sp, deg, support, shape, rs, degrees, variables):
    """A jet with random coefficients on the alphas of degree <= ``deg`` in
    the variables of ``support``, and zeros elsewhere; ``degrees`` and
    ``variables`` are each alpha's |alpha| and variables."""
    c = rs.uniform(-2, 2, shape + (sp.size,))
    c[..., (degrees > deg) | (variables & ~support != 0)] = 0.0
    return Jet(sp, c, deg, support)


def _above_deg_is_zero(j) -> bool:
    """Every coefficient of a multi-index above ``j.deg`` is exactly 0.0."""
    return not np.any(j.c[..., space_for(j.space.nvars, j.deg).size:])


def _outside_support_is_zero(j) -> bool:
    """Every coefficient of a multi-index with a variable outside ``j.support`` is exactly 0.0."""
    return not np.any(j.c[..., _variables(j.space) & ~j.support != 0])


@pytest.mark.parametrize("nvars,order", itertools.product(range(1, 7), range(7)))
def test_pruned_product_equals_full_table_bitwise(nvars, order):
    sp = space_for(nvars, order)
    rs = np.random.default_rng(10 * nvars + order)
    for da, db in itertools.product(range(order + 1), repeat=2):
        for shape in ((), (3,)):
            a, b = _jet_of_degree(sp, da, shape, rs), _jet_of_degree(sp, db, shape, rs)
            for value in (None, -0.0):
                if value is not None:
                    a.c[..., 0] = value
                got = a * b
                # a jet without a bound is multiplied over the whole pair table
                want = Jet(sp, a.c) * Jet(sp, b.c)
                assert got.deg == min(da + db, order)
                assert got.c.tobytes() == want.c.tobytes(), (da, db, shape, value)


@pytest.mark.parametrize("nvars,order", itertools.product(range(1, 7), range(7)))
def test_support_pruned_product_equals_full_table_bitwise(nvars, order):
    # a private space: the pruned tables of the many support pairs go with the test
    sp = JetSpace(nvars, order)
    rs = np.random.default_rng(100 * nvars + order)
    supports = list(itertools.product(range(1 << nvars), repeat=2))
    if nvars == 6:
        # a sample of the 4,096 pairs, with no support, one variable and every variable
        picked = rs.choice(len(supports), 200, replace=False)
        supports = [supports[k] for k in picked] + [(0, 63), (63, 0), (1, 32), (7, 56), (63, 63)]
    degrees = list(itertools.product(range(order + 1), repeat=2))
    tables = (np.array([sum(alpha) for alpha in sp.alphas]), _variables(sp))
    # every support pair and every degree pair, each at least once
    for k in range(max(len(supports), len(degrees))):
        (sa, sb), (da, db) = supports[k % len(supports)], degrees[k % len(degrees)]
        for shape in ((), (3,)):
            a = _jet_within(sp, da, sa, shape, rs, *tables)
            b = _jet_within(sp, db, sb, shape, rs, *tables)
            for value in (None, -0.0):
                if value is not None:
                    a.c[..., 0] = value
                got = a * b
                # a jet without bounds is multiplied over the whole pair table
                want = Jet(sp, a.c) * Jet(sp, b.c)
                assert got.support == sa | sb and got.deg == min(da + db, order)
                assert got.c.tobytes() == want.c.tobytes(), (sa, sb, da, db, shape, value)


def test_degree_bound_is_never_below_the_truth():
    seen = []

    def record(j):
        seen.append(j)
        return j

    def rule(v):
        x, y, z = (record(c) for c in v)
        p = record(x * y + 2.0)                   # two variables
        q = record(p * p - z)                     # mixed: all three
        r = record(3.0 * q / 4.0 - p * np.float64(0.5))
        u = record(x * x * 0.5 + 1.0)             # one variable
        w = record(2.0 - z * z)                   # one variable
        m = record(u * w + 0.25 * y)              # mixed: one-variable terms of each
        series = [smath.sqrt(1.0 + x * x), smath.exp(y) / (2.0 + z), smath.log(3.0 + q),
                  smath.sin(x) * smath.cos(z), q ** 2, 1.0 / p, (-r) ** 3,
                  smath.sqrt(u), smath.exp(w), smath.log(u), smath.sin(w), smath.cos(u),
                  u ** 3, 1.0 / u, w ** -2, u / w, m ** 2, 1.0 / m]
        return [p, q, r, u, w, m] + [record(s) for s in series] + [1.5]

    centers = np.array([[0.4, -0.3, 0.1], [0.0, 0.7, -0.5]])
    for order in range(6):
        seen.clear()
        jet = lift_any(rule, centers, order)
        x, q, (u, w, m) = seen[0], seen[4], seen[6:9]
        # coordinates 1, x y + 2 two, (x y + 2)^2 - z four, capped at the order
        assert [j.deg for j in seen[:6]] == [min(d, order) for d in (1, 1, 1, 2, 4, 4)]
        assert [j.support for j in seen[:9]] == [1, 2, 4, 3, 7, 7, 1, 4, 7]
        if order >= 1:
            # an order-0 series is its constant term alone, which has no support
            assert [j.support for j in seen[9:]] == [1, 6, 7, 5, 7, 3, 7, 1, 4, 1, 4, 1,
                                                     1, 1, 4, 5, 7, 7]
        assert jet.deg == order and jet.support == 7
        stacked = lift_any(lambda v: [v[0] * v[1], 2.0], centers, order)
        assert stacked.deg == min(2, order) and stacked.support == 3
        squares = contract("ib,ib->b", stacked, stacked)
        assert squares.deg == min(4, order) and squares.support == 3
        # a float leaf is a constant: it adds no variable to a stack
        in_z = lift_any(lambda v: [v[2] * v[2] + 1.0, 2.0], centers, order)
        mixed = contract("ib,ib->b", stacked, in_z)
        assert in_z.support == 4 and mixed.support == 7
        derived = [jet, jet[3], jet[:2, 1], jet[6:8], jet.truncate(order // 2), stacked,
                   stacked.truncate(min(1, order)), squares, in_z, in_z[1], mixed,
                   u.truncate(order // 2), contract("b,b->b", u, w)]
        if order >= 1:
            derived += [q.grad(), q.grad()[..., 2], x.grad(), u.grad(), u.grad()[..., 0],
                        w.grad()[..., 1], m.grad()]
            assert q.grad().deg == min(4, order) - 1 and x.grad().deg == 0
            assert u.grad().support == 1 and m.grad().support == 7
        if order >= 2:
            derived += [q.grad().grad(), stacked.grad().grad(), u.grad().grad(),
                        in_z.grad().grad()]
        for j in seen + derived:
            assert _above_deg_is_zero(j)
            assert _outside_support_is_zero(j)
