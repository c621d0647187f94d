"""Independent oracles used by the test suite (never by the main pipeline)."""

import math
from itertools import combinations_with_replacement, product

import numpy as np
import sympy as sp
from scipy.integrate import solve_ivp

from finslergeo.jets import smath
from finslergeo.lifts import LiftSpec
from finslergeo.metrics import TangentVector, _legendre, fundamental_tensor
from finslergeo.rng import SplitMix64
from finslergeo.spray import PointFrame
from finslergeo.variational import integrate_geodesic


def sympy_polynomial_jet(coeff_map, nvars):
    """Build (callable, exact partial lookup) for a polynomial from a
    {multi-index: coefficient} map, expanded symbolically."""
    xs = sp.symbols(f"x0:{nvars}")
    expr = sp.Integer(0)
    for alpha, c in coeff_map.items():
        term = sp.Float(c)
        for v, p in enumerate(alpha):
            term *= xs[v] ** p
        expr += term

    def fn(vals):
        out = None
        for alpha, c in coeff_map.items():
            term = c
            for v, p in enumerate(alpha):
                for _ in range(p):
                    term = term * vals[v]
            out = term if out is None else out + term
        return out if out is not None else 0.0

    def exact_partial(alpha, center):
        d = expr
        for v, p in enumerate(alpha):
            d = sp.diff(d, xs[v], p)
        return float(d.subs({xs[v]: center[v] for v in range(nvars)}))

    return fn, exact_partial


def naive_jet_tables(nvars: int, order: int, gathers) -> dict:
    """The index tables of a jet space, by Python loops over the multi-indices.

    Multi-indices with |alpha| <= order, sorted by (degree, lex); every pair
    (a, b) with |a| + |b| <= order, a-major with b ascending, and the index of
    a + b; for each variable v, the index of beta + e_v and beta_v + 1 over the
    lower-order betas; for each k in ``gathers``, the index and alpha! of every
    ordered k-tuple of variables. Arrays are intp or float64, C-ordered.
    """
    alphas = []
    for deg in range(order + 1):
        block = set()
        for combo in combinations_with_replacement(range(nvars), deg):
            alpha = [0] * nvars
            for v in combo:
                alpha[v] += 1
            block.add(tuple(alpha))
        alphas.extend(sorted(block))
    index = {a: i for i, a in enumerate(alphas)}
    ia, ib, ic = [], [], []
    for i, a in enumerate(alphas):
        for j, b in enumerate(alphas):
            if sum(a) + sum(b) <= order:
                ia.append(i)
                ib.append(j)
                ic.append(index[tuple(x + y for x, y in zip(a, b))])
    tables = {"alphas": alphas, "index": index,
              "_mul_ia": np.array(ia, dtype=np.intp), "_mul_ib": np.array(ib, dtype=np.intp),
              "_mul_ic": np.array(ic, dtype=np.intp), "gathers": {}}
    if order >= 1:
        lower = [a for a in alphas if sum(a) < order]
        src = np.empty((nvars, len(lower)), dtype=np.intp)
        fac = np.empty((nvars, len(lower)))
        for v in range(nvars):
            for i, a in enumerate(lower):
                up = list(a)
                up[v] += 1
                src[v, i] = index[tuple(up)]
                fac[v, i] = up[v]
        tables["_grad_src"], tables["_grad_fac"] = src, fac
    for k in gathers:
        shape = (nvars,) * k
        idx = np.empty(shape, dtype=np.intp)
        weight = np.empty(shape)
        for t in product(range(nvars), repeat=k):
            alpha = tuple(t.count(v) for v in range(nvars))
            idx[t] = index[alpha]
            weight[t] = math.prod(math.factorial(a) for a in alpha)
        tables["gathers"][k] = (idx, weight)
    return tables


def euler_lagrange_spray(ms, x0, y0, h=1e-5):
    """Spray coefficients from the Euler-Lagrange equations by central FD."""
    x0 = np.asarray(x0, float)
    y0 = np.asarray(y0, float)
    n = x0.size

    def f2(x, y):
        return ms.f2(list(x), list(y))

    d2 = np.zeros((n, n))  # d2 F^2 / dy_l dx_k
    dx = np.zeros(n)
    for l in range(n):
        for k in range(n):
            def g(a, b):
                x = x0.copy()
                y = y0.copy()
                x[k] += a
                y[l] += b
                return f2(x, y)

            d2[l, k] = (g(h, h) - g(h, -h) - g(-h, h) + g(-h, -h)) / (4 * h * h)
        xp = x0.copy()
        xp[l] += h
        xm = x0.copy()
        xm[l] -= h
        dx[l] = (f2(xp, y0) - f2(xm, y0)) / (2 * h)
    gmat = fundamental_tensor(ms, TangentVector(x0, y0)).g
    acc = np.linalg.solve(gmat, dx - d2 @ y0) / 2.0  # x-ddot
    return -acc / 2.0


def normality_residual(P, param, ms, eta) -> float:
    """max |g_eta(eta, dphi_a)| over the tangent vectors of the submanifold P
    at param: zero where eta lies in P's normal cone."""
    param = np.atleast_1d(np.asarray(param, float))
    x = P.value(param)
    basis = P.jacobian(param)
    return float(np.max(np.abs(basis.T @ _legendre(ms, x, np.asarray(eta, float))[0])))


def sff_compare_reference(ms, p):
    """(CSV rows, worst residuals) of the sff-compare task, one sample at a time.

    The task's per-sample loop before it was batched: every sample solves
    its own normal from its guess, builds its own order-4 frame and
    normal-bundle basis, and reads every lift at it. The same draws, so the
    batched task must give the same rows and residuals bit for bit.
    """
    from finslergeo import submanifolds as subm
    from finslergeo.cli import CLASSICAL
    from finslergeo.lifts import affine_coefficients, classical_lift, random_admissible_lift

    rng, subs = SplitMix64(p["seed"]), p["submanifolds"]
    rows_out, worst = [], np.zeros(4)
    lifts = [classical_lift(k, ms) for k in CLASSICAL]
    lifts.append(random_admissible_lift(ms, p["seed"] + 5, enforce_m1m2=True))
    for i in range(p["samples"]):
        sub = subs[i % len(subs)]
        param = [rng.uniform(0.0, 6.28) if sub.name.startswith("circle")
                 else rng.uniform(-0.5, 0.5)]
        x = sub.value(param)
        if ms.domain_margin is not None and ms.domain_margin(x) <= 0.05:
            continue
        basis = sub.jacobian(param)
        guess = np.array([-basis[1, 0], basis[0, 0]])
        if sub.name.startswith("circle") and guess @ (np.zeros(ms.dim) - x) < 0:
            guess = -guess
        nv = subm.normal_cone_solve(sub, param, ms, guess=guess)
        u = np.array([rng.uniform(-1.0, 1.0)])
        v = np.array([rng.uniform(-1.0, 1.0)])
        wtv = TangentVector(nv.x, nv.eta)
        fr = PointFrame(ms, wtv, order=4)
        vals = [subm.sff_connection(sub, param, nv.eta, u, v, ms, lift=lf) for lf in lifts]
        hc = vals[0]
        rows = subm.normal_bundle_tangent_basis(sub, nv, ms)
        agree = abs(hc - subm.sff_symplectic(sub, nv, u, v, ms, _basis=rows))
        lag = max((abs(subm.omega_F(ms, wtv, rows[a], rows[b]))
                   for a in range(ms.dim) for b in range(a + 1, ms.dim)), default=0.0)
        spread = max(vals) - min(vals)
        A = affine_coefficients(lifts[1], ms, wtv).A
        unsym = float(nv.eta @ fr.g @ (np.einsum("iab,a,b->i", sub.hessian(param), u, v)
                                        + np.einsum("ijk,j,k->i", A, basis @ u, basis @ v)))
        worst = np.maximum(worst, [agree, lag, spread, abs(unsym - hc)])
        rows_out.append((sub.name, param[0], agree, lag, spread))
    return rows_out, worst


def normal_rows_by_resolve(P, nv, ms, h=1e-4):
    """The k along-parameter rows of the normal bundle's tangent basis at one
    solved normal, (k, 2n), by central differences of re-solved normals: row a
    is (dphi/dp_a, (eta(p + h e_a) - eta(p - h e_a)) / 2h), each normal solved
    by ``normal_cone_solve`` from the normal ``nv.eta`` as its guess, so it
    follows the solve's tangential corrections. Off by O(h^2) and by the
    solve's tolerance over h."""
    from finslergeo.submanifolds import normal_cone_solve

    n, k = P.dim, P.param_dim
    rows = np.zeros((k, 2 * n))
    rows[:, :n] = P.jacobian(nv.param).T
    for a in range(k):
        dp = h * np.eye(k)[a]
        plus, minus = (normal_cone_solve(P, nv.param + sign * dp, ms, guess=nv.eta).eta
                       for sign in (1.0, -1.0))
        rows[a, n:] = (plus - minus) / (2 * h)
    return rows


def jacobi_compare_reference(ms, p):
    """CSV rows of the jacobi-compare task, one sample at a time.

    The task's per-sample loop before its flows were batched: each sample
    normalizes its draw with its own ``metric_value`` call and, along its own
    geodesic (from one batched geodesic solve, as before), makes its own
    oracle, metric and Jacobi calls, in that order. So the batched task must
    give the same rows bit for bit, or raise the same first error.
    """
    from finslergeo import metrics
    from finslergeo.variational import jacobi_integrate, jacobi_variation_oracle

    rng, kap = SplitMix64(p["seed"]), p["constant_curvature"]
    ws, us = [], []
    for _ in range(p["samples"]):
        w0 = metrics.random_tangent(ms, rng)
        ws.append(TangentVector(w0.x, w0.y / metrics.metric_value(ms, w0)))
        us.append(rng.direction(ms.dim))
    rows = []
    for i, (w0, u, geo) in enumerate(zip(ws, us, integrate_geodesic(
            ms, TangentVector.stack(ws), p["t"]))):
        Jor = jacobi_variation_oracle(ms, geo, u)
        if kap is None:
            J = jacobi_integrate(ms, geo, np.zeros(ms.dim), u).vectors
            rows.append((i, float(np.max(np.abs(J - Jor))), 0.0))
            continue
        gs = fundamental_tensor(ms, TangentVector(
            np.vstack([w0.x, geo.points[::40]]), np.vstack([w0.y, geo.velocities[::40]]))).g
        uperp = u - (u @ gs[0] @ w0.y) / (w0.y @ gs[0] @ w0.y) * w0.y
        unorm = float(np.sqrt(uperp @ gs[0] @ uperp))
        J = jacobi_integrate(ms, geo, np.zeros((ms.dim, 2)), np.column_stack([u, uperp])).vectors
        prof = 0.0
        for k, gk in zip(range(0, len(geo.grid), 40), gs[1:]):
            nrm = float(np.sqrt(J[k, :, 1] @ gk @ J[k, :, 1]))
            t, root = geo.grid[k], np.sqrt(abs(kap))
            ref = (unorm * np.sin(root * t) / root if kap > 0 else
                   unorm * np.sinh(root * t) / root if kap < 0 else unorm * t)
            prof = max(prof, abs(nrm - abs(ref)))
        rows.append((i, float(np.max(np.abs(J[:, :, 0] - Jor))), prof))
    return rows


def exp_map_jacobi_difference(src, w0, u, grid, h=1e-3):
    """The Jacobi field with J(0) = 0 and initial derivative u, by central
    differences of the exponential map: (exp(x0, y0 + h u) - exp(x0, y0 - h u)) / 2h
    at the times ``grid`` (starting at 0). Its error is O(h^2)."""
    u = np.asarray(u, float)
    n = len(u)
    ends = [integrate_geodesic(src, TangentVector(w0.x, w0.y + s * h * u), grid[-1]).dense(grid)[:n]
            for s in (1.0, -1.0)]
    return ((ends[0] - ends[1]) / (2.0 * h)).T


def dop853_linear_flow(src, w0, t_end, grid, blocks, rtol=1e-12):
    """Jacobi fields, blocks (J0, J0dot), or parallel transport, blocks (v0,),
    along the geodesic of ``src`` from ``w0`` at time 0 to ``t_end``, by one
    DOP853 solve at ``rtol`` (atol = rtol / 100): the geodesic and the
    blocks in one state, with G, N and R from one order-4 ``PointFrame`` per
    right-hand side, so no frame table and no collocation. The blocks share
    a shape, (n,) or (n, m); each comes back at the times ``grid``,
    (len(grid),) + block shape.
    """
    n = src.dim
    blocks = [np.asarray(b, float) for b in blocks]
    shape, size = blocks[0].shape, blocks[0].size

    def rhs(t, s):
        fr = PointFrame(src, TangentVector(s[:n], s[n:2 * n]), order=4)
        V = [s[2 * n + k * size:2 * n + (k + 1) * size].reshape(shape)
             for k in range(len(blocks))]
        if len(V) == 1:
            dV = [-fr.N @ V[0]]
        else:
            J, K = V
            dV = [K - fr.N @ J, -fr.R @ J - fr.N @ K]
        return np.concatenate([s[n:2 * n], -2.0 * fr.G] + [d.ravel() for d in dV])

    state0 = np.concatenate([w0.x, w0.y] + [b.ravel() for b in blocks])
    sol = solve_ivp(rhs, (0.0, t_end), state0, method="DOP853", rtol=rtol, atol=rtol / 100,
                    dense_output=True)
    assert sol.success, sol.message
    states = sol.sol(grid).T
    return [states[:, 2 * n + k * size:2 * n + (k + 1) * size].reshape((len(grid),) + shape)
            for k in range(len(blocks))]


# -- finite-difference references --------------------------------------------


def d2(f, x: float, h: float = 1e-4, order: int = 4) -> float:
    """Second derivative of a scalar function of one variable."""
    if order == 2:
        return (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)
    return (-f(x - 2 * h) + 16 * f(x - h) - 30 * f(x) + 16 * f(x + h)
            - f(x + 2 * h)) / (12 * h * h)


def hessian(f, x, h: float = 1e-4) -> np.ndarray:
    """Symmetric second-derivative matrix by central differences."""
    x = np.asarray(x, float)
    n = x.size
    out = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = 1.0
        out[i, i] = d2(lambda s: f(x + s * ei), 0.0, h, order=2)
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = 1.0
            val = (f(x + h * ei + h * ej) - f(x + h * ei - h * ej)
                   - f(x - h * ei + h * ej) + f(x - h * ei - h * ej)) / (4 * h * h)
            out[i, j] = out[j, i] = val
    return out


def third_derivative(f, x, i: int, j: int, k: int, h: float = 1e-3) -> float:
    """d^3 f / dx_i dx_j dx_k by nesting a central difference over a Hessian entry."""
    x = np.asarray(x, float)
    ek = np.zeros(x.size)
    ek[k] = 1.0

    def hess_entry(s):
        return hessian(f, x + s * ek, h)[i, j]

    return (hess_entry(h) - hess_entry(-h)) / (2 * h)


def christoffel(g_field, x, h: float = 1e-4) -> np.ndarray:
    """Levi-Civita symbols of a Riemannian coefficient field by finite differences.

    ``g_field`` maps a float vector to the n x n metric matrix.
    """
    x = np.asarray(x, float)
    n = x.size
    dg = np.empty((n, n, n))  # dg[k,i,j] = d g_ij / dx^k
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        dg[k] = (np.asarray(g_field(x - 2 * h * e)) - 8 * np.asarray(g_field(x - h * e))
                 + 8 * np.asarray(g_field(x + h * e)) - np.asarray(g_field(x + 2 * h * e))) / (12 * h)
    ginv = np.linalg.inv(np.asarray(g_field(x), float))
    gamma = np.empty((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                gamma[i, j, k] = 0.5 * sum(
                    ginv[i, l] * (dg[j, l, k] + dg[k, l, j] - dg[l, j, k]) for l in range(n))
    return gamma


def riemann_jacobi_operator(g_field, x, w, h: float = 1e-3) -> np.ndarray:
    """The classical Jacobi operator u -> R(u, w)w as a matrix, by FD Christoffels.

    Sign convention fixed so the round sphere gives a positive-definite
    operator on the orthogonal complement of w (sectional curvature +1).
    """
    x = np.asarray(x, float)
    w = np.asarray(w, float)
    n = x.size
    gamma0 = christoffel(g_field, x, h=1e-4)
    dgamma = np.empty((n, n, n, n))  # dgamma[l,i,j,k] = d Gamma^i_jk / dx^l
    for l in range(n):
        e = np.zeros(n)
        e[l] = 1.0
        dgamma[l] = (christoffel(g_field, x - 2 * h * e, h=1e-4)
                     - 8.0 * christoffel(g_field, x - h * e, h=1e-4)
                     + 8.0 * christoffel(g_field, x + h * e, h=1e-4)
                     - christoffel(g_field, x + 2 * h * e, h=1e-4)) / (12 * h)
    # R(e_k, e_l) e_j = R^i_jkl e_i with
    # R^i_jkl = d_k Gamma^i_lj - d_l Gamma^i_kj + Gamma^i_km Gamma^m_lj - Gamma^i_lm Gamma^m_kj
    riem = (np.einsum("kilj->ijkl", dgamma) - np.einsum("likj->ijkl", dgamma)
            + np.einsum("ikm,mlj->ijkl", gamma0, gamma0)
            - np.einsum("ilm,mkj->ijkl", gamma0, gamma0))
    # R(u, w)w: X = u in slot k, Y = w in slot l, Z = w in slot j
    return np.einsum("ijkl,j,l->ik", riem, w, w)


# -- per-basis-triple random lift ----------------------------------------------


def basis_triple_random_lift(ms, seed: int, enforce_t1: bool = False,
                             enforce_m1m2: bool = False, amplitude: float = 0.4) -> LiftSpec:
    """``lifts.random_admissible_lift`` in its scalar form: the same draws, a
    multilinear rule (w, u, v, t) -> scalar that projects its arguments and
    sums n^3 products, and whole tensors made by calling it on every chart
    basis triple."""
    n = ms.dim
    rng = SplitMix64(seed)

    def draw():
        k0 = np.array([[[rng.uniform(-amplitude, amplitude) for _ in range(n)]
                        for _ in range(n)] for _ in range(n)])
        k1 = np.array([[[rng.uniform(-amplitude, amplitude) for _ in range(n)]
                        for _ in range(n)] for _ in range(n)])
        px = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        py = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        return k0, k1, px, py

    par_c = draw()
    par_p = draw()

    def project(w, v):
        """g_w-orthogonal projection of v killing the base direction."""
        coef = smath.dot(w.gw, v) / w.f2
        return [v[i] - coef * w.y[i] for i in range(n)]

    def make_rule(params, project_u, project_v, project_t):
        k0, k1, px, py = params

        def scalar(w, u, v, t):
            uu = project(w, u) if project_u else list(u)
            vv = project(w, v) if project_v else list(v)
            tt = project(w, t) if project_t else list(t)
            s = smath.sin(smath.dot(px, w.x) + smath.dot(py, w.y))
            acc = None
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        term = (k0[i, j, k] + k1[i, j, k] * s) * uu[i] * vv[j] * tt[k]
                        acc = term if acc is None else acc + term
            return acc

        basis = np.eye(n)
        return lambda w: [[[scalar(w, bj, bk, bl) for bl in basis] for bk in basis]
                          for bj in basis]

    c_rule = make_rule(par_c, False, True, enforce_m1m2)
    p_rule = make_rule(par_p, enforce_t1, True, enforce_m1m2)
    return LiftSpec(f"basis-triple[{seed}]", c_flat=c_rule, cprime_flat=p_rule)


# -- entry-by-entry random lift --------------------------------------------------


def entrywise_random_lift(ms, seed: int, enforce_t1: bool = False,
                          enforce_m1m2: bool = False, amplitude: float = 0.4) -> LiftSpec:
    """``lifts.random_admissible_lift`` written entry by entry: the same draws,
    each tensor a nested n x n x n list of scalars, and each projection of a
    slot one ``smath.dot`` per entry, in the order the tensor form sums. Its
    tensors and lift curvature equal the tensor form's bit for bit."""
    n = ms.dim
    rng = SplitMix64(seed)

    def draw():
        k0, k1 = (np.array([rng.uniform(-amplitude, amplitude)
                            for _ in range(n ** 3)]).reshape(n, n, n) for _ in range(2))
        px = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        py = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        return k0, k1, px, py

    def contract_first(t, cols):
        """sum_a t[a][b][c] cols[j][a] as [b][c][j]: the first slot contracted
        and moved last; no cols contracts with the identity."""
        fibers = [[[t[a][b][c] for a in range(n)] for c in range(n)] for b in range(n)]
        if cols is None:
            return fibers
        return [[[smath.dot(fiber, col) for col in cols] for fiber in row] for row in fibers]

    def make_rule(params, project_u, project_v, project_t):
        k0, k1, px, py = params

        def rule(w):
            inv = 1.0 / w.f2
            # column j of the g_w-orthogonal projection killing the base direction
            cols = [[float(a == j) - w.y[a] * w.gw[j] * inv for a in range(n)] for j in range(n)]
            s = smath.sin(smath.dot(px, w.x) + smath.dot(py, w.y))
            t = [[[k0[a, b, c] + k1[a, b, c] * s for c in range(n)] for b in range(n)]
                 for a in range(n)]
            for project in (project_u, project_v, project_t):
                t = contract_first(t, cols if project else None)
            return t

        return rule

    c_rule = make_rule(draw(), False, True, enforce_m1m2)
    p_rule = make_rule(draw(), enforce_t1, True, enforce_m1m2)
    return LiftSpec(f"entrywise[{seed}]", c_flat=c_rule, cprime_flat=p_rule)


def closed_form_geodesic(kind, x0, y0, t):
    """The geodesic from (x0, y0) at the times t, (len(t), n), in closed form.

    The round sphere in the stereographic chart and the Poincare ball follow
    their great circle and hyperbola, p(t) = cos(st) P + sin(st) V / s (cosh
    and sinh on the hyperboloid), with P the start point on the model, V the
    image of y0 there and s its length. The Funk metric's geodesics are
    straight lines, x0 + y0 (1 - exp(-F0 t)) / F0, along which F stays F0
    (G = F y / 2).
    """
    x0, y0, t = (np.asarray(a, float) for a in (x0, y0, t))
    r2, xy = x0 @ x0, x0 @ y0
    if kind == "funk":
        F0 = (np.sqrt(xy * xy + (y0 @ y0) * (1.0 - r2)) + xy) / (1.0 - r2)
        return x0 + np.outer(-np.expm1(-F0 * t) / F0, y0)
    if kind == "sphere_stereographic":
        # p = (2x, |x|^2 - 1) / (1 + |x|^2) on the unit sphere; x = q / (1 - z)
        P = np.append(2.0 * x0, r2 - 1.0) / (1.0 + r2)
        V = (np.append(2.0 * y0, 2.0 * xy) / (1.0 + r2)
             - np.append(2.0 * x0, r2 - 1.0) * 2.0 * xy / (1.0 + r2) ** 2)
        s = np.sqrt(V @ V)
        p = np.outer(np.cos(s * t), P) + np.outer(np.sin(s * t), V / s)
        return p[:, :-1] / (1.0 - p[:, -1:])
    if kind == "poincare_disk":
        # q = (1 + |x|^2, 2x) / (1 - |x|^2) on the hyperboloid; x = q_1..n / (1 + q_0)
        P = np.insert(2.0 * x0, 0, 1.0 + r2) / (1.0 - r2)
        V = (np.insert(2.0 * y0, 0, 2.0 * xy) / (1.0 - r2)
             + np.insert(2.0 * x0, 0, 1.0 + r2) * 2.0 * xy / (1.0 - r2) ** 2)
        s = np.sqrt(V[1:] @ V[1:] - V[0] * V[0])
        p = np.outer(np.cosh(s * t), P) + np.outer(np.sinh(s * t), V / s)
        return p[:, 1:] / (1.0 + p[:, :1])
    raise ValueError(f"no closed-form geodesic for {kind!r}")
