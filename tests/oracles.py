"""Independent oracles used by the test suite (never by the main pipeline)."""

import numpy as np
import sympy as sp

from finslergeo.metrics import TangentVector, fundamental_tensor
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


def exp_map_jacobi_difference(src, w0, u, grid, h=1e-3):
    """The Jacobi field with J(0) = 0 and initial derivative u, by central
    differences of the exponential map: (exp(x0, y0 + h u) - exp(x0, y0 - h u)) / 2h
    at the times ``grid`` (starting at 0). Its error is O(h^2)."""
    u = np.asarray(u, float)
    n = len(u)
    ends = [integrate_geodesic(src, TangentVector(w0.x, w0.y + s * h * u), grid[-1]).dense(grid)[:n]
            for s in (1.0, -1.0)]
    return ((ends[0] - ends[1]) / (2.0 * h)).T
