"""Config-driven command line front end.

Scenarios are JSON documents (version 1) naming a metric, a task and its
parameters; tasks emit a human-readable report plus machine-readable CSV
artifacts. Exit codes: 0 all residuals inside tolerances, 2 residual
failure, 1 configuration or domain error.
"""

from __future__ import annotations

import argparse
import ast
import json
import operator
import sys
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import identities as ident
from . import metrics as metrics_mod
from . import submanifolds as subm
from .errors import ConfigError, FinslerError
from .jets import smath
from .lifts import (ALL_CONDITIONS, affine_coefficients, classical_lift, condition_residuals,
                    lift_curvature, random_admissible_lift)
from .metrics import MetricSpec, TangentVector, check_metric, random_tangent
from .rng import SplitMix64
from .spray import PointFrame, _matvec, curvature_endomorphism, flag_curvature
from .variational import (FieldAlongCurve, VariationFamily, integrate_geodesic,
                          jacobi_integrate, jacobi_variation_oracle, parallel_transport,
                          second_variation_formula, variation_energy_derivatives,
                          variation_symmetry_residual)

CLASSICAL = ("berwald", "cartan", "chern-rund", "hashiguchi")


# -- expression sub-language -----------------------------------------------------

_EXPR_FUNCS = {"sqrt": smath.sqrt, "sin": smath.sin, "cos": smath.cos,
               "exp": smath.exp, "log": smath.log}

_ALLOWED_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Name,
                  ast.Constant, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow,
                  ast.USub, ast.UAdd, ast.Load)


def compile_expression(src: str, dim: int, allow_y: bool = True):
    """Compile an arithmetic expression in x1..xn (and y1..yn) to a generic rule."""
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {src!r}: {exc}") from exc
    names = {f"x{i + 1}" for i in range(dim)}
    if allow_y:
        names |= {f"y{i + 1}" for i in range(dim)}
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ConfigError(f"expression {src!r}: construct {type(node).__name__} not allowed")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _EXPR_FUNCS:
                raise ConfigError(f"expression {src!r}: only {sorted(_EXPR_FUNCS)} callable")
            if node.keywords:
                raise ConfigError("keyword arguments not allowed in expressions")
        if isinstance(node, ast.Name) and node.id not in names and node.id not in _EXPR_FUNCS:
            raise ConfigError(f"expression {src!r}: unknown name {node.id!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ConfigError(f"expression {src!r}: only numeric constants allowed")
    code = compile(tree, "<scenario expression>", "eval")

    def rule(xs, ys=None):
        env = {f"x{i + 1}": xs[i] for i in range(dim)}
        if allow_y and ys is not None:
            env.update({f"y{i + 1}": ys[i] for i in range(dim)})
        env.update(_EXPR_FUNCS)
        return eval(code, {"__builtins__": {}}, env)  # noqa: S307 - sandboxed AST

    return rule


def _refuse_unknown_keys(cfg, known, where: str, what: str = "key") -> None:
    """Refuse a mapping with a key outside ``known``, or a list with such an
    entry: a misspelled key would otherwise be ignored and its default used
    in silence, and a misspelled name end in a traceback."""
    unknown = sorted(set(cfg) - set(known))
    if unknown:
        raise ConfigError(f"unknown {what} {', '.join(map(repr, unknown))} in {where}; "
                          f"known {what}s: {', '.join(sorted(known))}")


# The keys each metric kind reads besides "kind" and "dim".
METRIC_KEYS = {"euclidean": (), "sphere_stereographic": (), "poincare_disk": (), "funk": (),
               "randers": ("beta", "name"), "custom": ("f2", "name")}


def metric_from_config(cfg) -> MetricSpec:
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("metric descriptor must be a mapping with a 'kind' field")
    kind = cfg["kind"]
    if not isinstance(kind, str) or kind not in METRIC_KEYS:
        raise ConfigError(f"unknown metric kind {kind!r}")
    _refuse_unknown_keys(cfg, ("kind", "dim", *METRIC_KEYS[kind]), f"metric kind {kind!r}")
    dim = int(cfg.get("dim", 2))
    if kind == "euclidean":
        return metrics_mod.euclidean(dim)
    if kind == "sphere_stereographic":
        return metrics_mod.sphere_stereographic(dim)
    if kind == "poincare_disk":
        return metrics_mod.poincare_disk(dim)
    if kind == "funk":
        return metrics_mod.funk(dim)
    if kind == "randers":
        beta_cfg = cfg.get("beta")
        if not isinstance(beta_cfg, (list, tuple)) or len(beta_cfg) != dim:
            raise ConfigError(f"randers metric needs a 'beta' list of {dim} entries, "
                              f"got {beta_cfg!r}")
        if all(isinstance(b, (int, float)) for b in beta_cfg):
            beta = [float(b) for b in beta_cfg]
        else:
            comps = [compile_expression(str(b), dim, allow_y=False) for b in beta_cfg]
            beta = lambda xs: [c(xs) for c in comps]
        return metrics_mod.randers(dim, beta, name=cfg.get("name", "randers"))
    if "f2" not in cfg:  # custom
        raise ConfigError("custom metric needs an 'f2' expression")
    rule = compile_expression(str(cfg["f2"]), dim, allow_y=True)
    return metrics_mod.custom(dim, rule, name=cfg.get("name", "custom"))


# The keys each submanifold shape reads besides "shape".
SHAPE_KEYS = {"circle": ("center", "radius"), "line": ("point", "direction")}


def submanifold_from_config(cfg, dim) -> subm.Submanifold:
    if not isinstance(cfg, dict) or "shape" not in cfg:
        raise ConfigError("submanifold descriptor must be a mapping with a 'shape' field")
    shape = cfg["shape"]
    if not isinstance(shape, str) or shape not in SHAPE_KEYS:
        raise ConfigError(f"unknown submanifold shape {shape!r}")
    _refuse_unknown_keys(cfg, ("shape", *SHAPE_KEYS[shape]), f"submanifold shape {shape!r}")
    if shape == "circle":
        return subm.circle(cfg.get("center", [0.0] * dim), float(cfg.get("radius", 1.0)))
    return subm.affine_subspace(cfg.get("point", [0.0] * dim),  # line
                                [cfg.get("direction", [1.0] + [0.0] * (dim - 1))])


# -- check records and output ------------------------------------------------------

_RELATIONS = {"<": operator.lt, ">": operator.gt, "=": operator.eq}


@dataclass(frozen=True)
class Check:
    """One verdict: ``residual`` compared with ``tol`` by ``relation``.

    ``<`` and ``>`` bound a residual; ``=`` is a yes/no match (the residual
    counts mismatches against a tolerance of 0), whose line shows its label
    alone.
    """

    label: str
    residual: float
    tol: float
    relation: str = "<"

    @property
    def passed(self) -> bool:
        return _RELATIONS[self.relation](self.residual, self.tol)


def verdict(ok: bool) -> str:
    """The word a report prints for a check, a scenario or the corpus table."""
    return "PASS" if ok else "FAIL"


def render(check: Check) -> str:
    """The report line of a check."""
    line = f"  [{verdict(check.passed)}] {check.label}"
    if check.relation == "=":
        return line
    return f"{line}: {check.residual:.3e} {check.relation} {check.tol:.1e}"


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _csv_lines(header, rows, metadata):
    return ([f"# {k} = {_fmt(v)}" for k, v in metadata] + [",".join(header)]
            + [",".join(_fmt(v) for v in row) for row in rows])


def write_csv(path: Path, header, rows, metadata):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(_csv_lines(header, rows, metadata)) + "\n", encoding="utf-8")


class TaskResult:
    """A task's check records and its CSV artifact; it passes when every check does."""

    def __init__(self, task, ms, csv_header, **metadata):
        self.metadata = [("task", task), ("metric", ms.name), *metadata.items()]
        self.csv_header = csv_header
        self.csv_rows = []
        self.checks = []

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, label, residual, tol, relation="<", row=None):
        """Record a check; ``row``, if given, is appended to the CSV rows."""
        self.checks.append(Check(label, float(residual), float(tol), relation))
        if row is not None:
            self.csv_rows.append(row)


# -- tasks ------------------------------------------------------------------------


# The keys of check-metric's tolerance maps, with their defaults.
METRIC_TOLERANCES = {"homogeneity": 1e-10, "gww": 1e-10}
IDENTITY_TOLERANCES = {"cartan_contract": 1e-9, "cprime_contract": 1e-9, "full_symmetry": 1e-10,
                       "gww_identity": 1e-10, "euler_gradient": 1e-10, "g_homogeneity": 1e-10,
                       "cartan_homogeneity": 1e-9}


def _tolerances(key, given, defaults) -> dict:
    """The tolerance map of parameter ``key``: ``defaults`` updated by ``given``,
    whose keys must be among the defaults' and whose values must be numbers."""
    if not isinstance(given, dict):
        raise ConfigError(f"parameter {key} must be a mapping, got {given!r}")
    _refuse_unknown_keys(given, defaults, f"parameter {key}")
    return {k: _number(f"{key}.{k}", given.get(k, v), float) for k, v in defaults.items()}


def task_check_metric(ms, params, seed) -> TaskResult:
    samples = _param(params, "samples", 100, int)
    tols = _tolerances("tolerances", params.get("tolerances", {}), METRIC_TOLERANCES)
    iden_tols = _tolerances("identity_tolerances", params.get("identity_tolerances", {}),
                            IDENTITY_TOLERANCES)
    rep = check_metric(ms, samples, seed)
    res = TaskResult("check-metric", ms, ("quantity", "value"), samples=samples, seed=seed)
    res.csv_rows = rep.rows()
    res.check("homogeneity max residual", rep.homogeneity_max, tols["homogeneity"])
    res.check("F^2 = g_w(w,w) max residual", rep.gww_identity_max, tols["gww"])
    if params.get("expect_pd_failures", False):
        res.check("positive-definiteness failures found", rep.pd_failures, 0.5, ">")
    else:
        res.check("positive-definiteness failures", rep.pd_failures, 0.5)
    if params.get("tensor_identities"):
        rng = SplitMix64(seed + 1)
        n_id = _param(params, "identity_samples", 25, int)
        worst = ident.tensor_identity_residuals(
            ms, TangentVector.stack([random_tangent(ms, rng) for _ in range(n_id)]))
        for k, tol in iden_tols.items():
            res.check(f"identity {k}", worst[k], tol, row=(k, worst[k]))
    return res


def task_condition_matrix(ms, params, seed) -> TaskResult:
    samples = _param(params, "samples", 50, int)
    tol = _param(params, "tolerance", 1e-7)
    lift_names = params.get("lifts", list(CLASSICAL))
    conditions = tuple(params.get("conditions", ALL_CONDITIONS))
    _refuse_unknown_keys(lift_names, CLASSICAL, "parameter lifts", "lift")
    _refuse_unknown_keys(conditions, ALL_CONDITIONS, "parameter conditions", "condition")
    for key in ("expect", "expect_fail", "expect_exact"):
        expected = params.get(key, {})
        if not isinstance(expected, dict):
            raise ConfigError(f"parameter {key} must be a mapping, got {expected!r}")
        _refuse_unknown_keys(expected, lift_names, f"parameter {key}", "lift")
        for name, conds in expected.items():
            _refuse_unknown_keys(conds, conditions, f"parameter {key} of {name!r}", "condition")
    rng = SplitMix64(seed)
    fr = PointFrame(ms, TangentVector.stack([random_tangent(ms, rng) for _ in range(samples)]),
                    order=4)
    worst = {name: condition_residuals(classical_lift(name, ms), fr, conditions)
             for name in lift_names}

    res = TaskResult("condition-matrix", ms, ("lift", "condition", "max_residual"),
                     samples=samples, seed=seed, tolerance=tol)
    res.csv_rows = [(name, c, worst[name][c]) for name in lift_names for c in conditions]
    for name, conds in params.get("expect", {}).items():
        for c in conds:
            res.check(f"{name} satisfies {c}", worst[name][c], tol)
    for name, fails in params.get("expect_fail", {}).items():
        for c, threshold in fails.items():
            res.check(f"{name} violates {c}", worst[name][c],
                      _number(f"expect_fail.{name}.{c}", threshold, float), ">")
    for name, conds in params.get("expect_exact", {}).items():
        passing = {c for c in conditions if worst[name][c] < tol}
        res.check(f"{name} passes exactly {sorted(conds)} (got {sorted(passing)})",
                  len(passing ^ set(conds)), 0, "=")

    identities = params.get("identities")
    if identities:
        _run_identity_battery(ms, identities, seed, res)
    return res


def _battery_family(dim):
    """The variation of the battery's covariant-derivative symmetry check: a
    plane family, padded with zero coordinates in dimension ``dim``."""
    d = np.array([0.25, 0.1] + [0.0] * (dim - 2))

    def rule(s, t):
        offset = np.stack([0.05 * s * np.sin(np.pi * t), 0.04 * s * t * (1 - t) + 0.03 * s]
                          + [np.zeros_like(t)] * (dim - 2), axis=-1)
        return np.zeros(dim) + t[..., None] * d + offset

    return rule


def _run_identity_battery(ms, identities, seed, res: TaskResult):
    rng = SplitMix64(seed + 77)
    n_pts = _param(identities, "samples", 10, int, "identities.")
    tol_exact = _param(identities, "tolerance", 1e-7, float, "identities.")
    tol_fd = _param(identities, "fd_tolerance", 1e-6, float, "identities.")
    w = TangentVector.stack([random_tangent(ms, rng) for _ in range(n_pts)])
    lifts = {name: classical_lift(name, ms) for name in CLASSICAL}

    # (label, CSV key, tolerance, residual): one call per identity and lift
    # over all points, run in this order, since the calls draw from rng in
    # turn, point by point
    battery = (
        ("nabla_S g = 0 (all classical lifts)", "nabla_S_g", tol_exact,
         lambda: max(ident.nabla_s_g_residual(lift, ms, w) for lift in lifts.values())),
        ("covariant symmetry (T2 lifts)", "symmetry_D", tol_fd,
         lambda: max(ident.symmetry_residual(lift, ms, w.x, rng) for lift in lifts.values())),
        ("metric compatibility (M1+M2)", "metric_compat", tol_fd,
         lambda: max(ident.metric_compat_residual(lifts[name], ms, w.x, rng)
                     for name in ("berwald", "cartan"))),
        ("metric compatibility along geodesic fields", "metric_compat_geodesic", tol_fd,
         lambda: ident.metric_compat_geodesic_residual(ms, w.x, rng)),
        ("family metric identities", "family_metric", tol_fd,
         lambda: max(ident.family_metric_identity_residual(name, ms, w.x, rng)
                     for name in CLASSICAL)),
        ("spray-direction derivative identity (T1 lifts)", "spray_derivative", tol_exact,
         lambda: max(ident.spray_derivative_residual(lift, ms, w, rng) for lift in lifts.values())),
        ("variation covariant-derivative symmetry", "variation_symmetry", tol_fd,
         lambda: variation_symmetry_residual(ms, VariationFamily(rule=_battery_family(ms.dim)),
                                             nodes=101)),
    )
    for label, key, tol, residual in battery:
        worst = residual()
        res.check(label, worst, tol, row=("identity", key, worst))


def task_curvature_sweep(ms, params, seed) -> TaskResult:
    """Flag curvature at random flags. ``christoffel_check`` compares R and the
    classical affine coefficients at the first 20 samples with the exact
    oracle ``identities.levi_civita`` (Riemannian built-ins only)."""
    flags = _param(params, "flags", 100, int)
    rng = SplitMix64(seed)
    res = TaskResult("curvature-sweep", ms, ("x", "y", "u", "K"), flags=flags, seed=seed)
    ws, us = [], []
    for _ in range(flags):
        ws.append(random_tangent(ms, rng))
        u = rng.direction(ms.dim)
        # a near-degenerate flag loses the curvature to cancellation; the
        # component of u orthogonal to y spans the same flag plane
        y = ws[-1].y
        perp = u - (u @ y) / (y @ y) * y
        if np.linalg.norm(perp) < 0.2 * np.linalg.norm(u):
            u = perp / np.linalg.norm(perp)
        us.append(u)
    w, u = TangentVector.stack(ws), np.array(us)
    fr = PointFrame(ms, w, order=4)
    values = flag_curvature(ms, w, u, _frame=fr)
    res.csv_rows = [(*(";".join(_fmt(v) for v in vec) for vec in (x, y, ui)), k)
                    for x, y, ui, k in zip(w.x, w.y, u, values)]
    if "expect_value" in params:
        target = _number("expect_value", params["expect_value"], float)
        res.check(f"flag curvature = {target}", np.max(np.abs(values - target)),
                  _param(params, "tolerance", 1e-6))
    head = fr[:20]
    if params.get("flag_invariance", True):
        k0, uh = values[:20], u[:20]
        k1 = flag_curvature(ms, head.w, uh + 3.0 * head.y, _frame=head)
        k2 = flag_curvature(ms, head.w, 0.2 * uh, _frame=head)
        res.check("flag invariance under u -> u + 3w, 0.2u",
                  max(np.max(np.abs(k1 - k0)), np.max(np.abs(k2 - k0))), 1e-9)
    if params.get("christoffel_check"):
        if getattr(ms, "_g_field", None) is None:
            raise ConfigError("christoffel_check requires a Riemannian built-in")
        gams, oracles = ident.levi_civita(ms, head.x, head.y)
        A = [affine_coefficients(classical_lift(name, ms), ms, head.w, _frame=head).A
             for name in CLASSICAL]
        res.check("curvature matches Christoffel oracle", np.max(np.abs(head.R - oracles)),
                  _param(params, "riemann_tolerance", 1e-7))
        res.check("affine coefficients = Levi-Civita symbols",
                  max(np.max(np.abs(a - gams)) for a in A),
                  _param(params, "affine_tolerance", 1e-8))
        res.check("four classical lifts identical", max(np.max(np.abs(a - A[0])) for a in A[1:]),
                  1e-12)
    return res


def _node_table(ms, geo):
    """CSV header and rows (t, x, y) of a geodesic's nodes."""
    header = ("t", *(f"x{i + 1}" for i in range(ms.dim)), *(f"y{i + 1}" for i in range(ms.dim)))
    return header, [(t, *x, *y) for t, x, y in zip(geo.grid, geo.points, geo.velocities)]


def task_geodesic(ms, params, seed) -> TaskResult:
    x0 = _vector("x0", params.get("x0", [0.0] * ms.dim), ms.dim)
    y0 = _vector("y0", params.get("y0", [1.0] + [0.0] * (ms.dim - 1)), ms.dim)
    t_end = _param(params, "t", 1.0)
    rtol = _param(params, "rtol", 1e-9)
    nodes = _param(params, "nodes", 401, int)
    geo = integrate_geodesic(ms, TangentVector(x0, y0), t_end, rtol=rtol, nodes=nodes)
    header, rows = _node_table(ms, geo)
    res = TaskResult("geodesic", ms, header, t=t_end, rtol=rtol, seed=seed)
    res.csv_rows = rows
    fvals = [metrics_mod.metric_value(ms, TangentVector(geo.points[i], geo.velocities[i]))
             for i in range(0, nodes, max(1, nodes // 40))]
    res.check("speed conservation drift", max(fvals) - min(fvals),
              10.0 * max(rtol, 1e-9) * max(1.0, fvals[0]))
    return res


def task_jacobi_compare(ms, params, seed) -> TaskResult:
    samples = _param(params, "samples", 10, int)
    tol = _param(params, "tolerance", 1e-3)
    t_end = _param(params, "t", 1.0)
    rng = SplitMix64(seed)
    res = TaskResult("jacobi-compare", ms, ("sample", "sup_norm_diff", "profile_residual"),
                     samples=samples, seed=seed, tolerance=tol)
    curv = params.get("constant_curvature")
    # the draws, sample by sample, then one batched solve for every geodesic
    ws, us = [], []
    for _ in range(samples):
        w0 = random_tangent(ms, rng)
        ws.append(TangentVector(w0.x, w0.y / metrics_mod.metric_value(ms, w0)))
        us.append(rng.direction(ms.dim))
    geos = integrate_geodesic(ms, TangentVector.stack(ws), t_end)

    def one(w0, u, geo):
        Jor = jacobi_variation_oracle(ms, geo, u)
        if curv is None:
            J = jacobi_integrate(ms, geo, np.zeros(ms.dim), u).vectors
            return float(np.max(np.abs(J - Jor))), 0.0
        # g at w0 and at every 40th node, from one batched y-jet
        nodes = range(0, len(geo.grid), 40)
        gs = metrics_mod.fundamental_tensor(ms, TangentVector(
            np.vstack([w0.x, geo.points[::40]]), np.vstack([w0.y, geo.velocities[::40]]))).g
        gm0 = gs[0]
        uperp = u - (u @ gm0 @ w0.y) / (w0.y @ gm0 @ w0.y) * w0.y
        unorm = float(np.sqrt(uperp @ gm0 @ uperp))
        # u and its g-normal part as the two columns of one Jacobi solve
        J = jacobi_integrate(ms, geo, np.zeros((ms.dim, 2)), np.column_stack([u, uperp])).vectors
        Jp = J[:, :, 1]
        prof = 0.0
        kap = _number("constant_curvature", curv, float)
        for i, gi in zip(nodes, gs[1:]):
            nrm = float(np.sqrt(Jp[i] @ gi @ Jp[i]))
            t = geo.grid[i]
            if kap > 0:
                ref = unorm * np.sin(np.sqrt(kap) * t) / np.sqrt(kap)
            elif kap < 0:
                ref = unorm * np.sinh(np.sqrt(-kap) * t) / np.sqrt(-kap)
            else:
                ref = unorm * t
            prof = max(prof, abs(nrm - abs(ref)))
        return float(np.max(np.abs(J[:, :, 0] - Jor))), prof

    res.csv_rows = [(i, *one(*sample)) for i, sample in enumerate(zip(ws, us, geos))]
    res.check("ODE vs geodesic-variation oracle (sup norm)", max(r[1] for r in res.csv_rows), tol)
    if curv is not None:
        res.check(f"constant-curvature profile K={curv}", max(r[2] for r in res.csv_rows),
                  _param(params, "profile_tolerance", 1e-3))
    return res


def _normal_direction(ms, x, vel, rng):
    """A direction g_w-orthogonal to vel at (x, vel)."""
    m = metrics_mod.fundamental_tensor(ms, TangentVector(x, vel)).g @ vel
    d = rng.direction(len(x))
    d = d - (d @ m) / (vel @ m) * vel
    return d / np.linalg.norm(d)


def task_second_variation(ms, params, seed) -> TaskResult:
    mode = params.get("mode", "fixed")
    rng = SplitMix64(seed)
    res = TaskResult("second-variation", ms, ("quantity", "value"), mode=mode, seed=seed)
    ends, h_terms = {}, ()
    if mode == "fixed":
        from scipy.interpolate import CubicSpline

        w0 = random_tangent(ms, rng)
        w0 = TangentVector(w0.x, w0.y / metrics_mod.metric_value(ms, w0))
        geo = integrate_geodesic(ms, w0, 1.0)
        e0 = _normal_direction(ms, w0.x, w0.y, rng)
        pt = parallel_transport(ms, geo, e0)
        e_spline = CubicSpline(geo.grid, pt.vectors)
        vfield = FieldAlongCurve(geo.grid, np.sin(np.pi * geo.grid)[:, None] * pt.vectors)

        def offset(s, t):
            return s * np.sin(np.pi * t)[..., None] * e_spline(t)
    elif mode == "submanifold":
        # geodesic segment normal to an affine line at each end
        x_a = _vector("x0", params.get("x0", [0.05, -0.1]), ms.dim)
        d1v = _vector("direction", params.get("direction", [0.9, 0.45]), ms.dim)
        line1 = subm.affine_subspace(x_a, [d1v], name="P1")
        nv = subm.normal_cone_solve(line1, [0.0], ms, guess=np.array([-d1v[1], d1v[0]]))
        geo = integrate_geodesic(ms, TangentVector(x_a, nv.eta), 1.0)
        x_b, vel_b = geo.points[-1], geo.velocities[-1]
        d2v = _normal_direction(ms, x_b, vel_b, rng)
        line2 = subm.affine_subspace(x_b, [d2v], name="P2")
        c1, c2 = 0.8, -0.6
        e0 = rng.direction(ms.dim)

        def vfun(t):
            t = t[..., None]
            return (1 - t) * c1 * d1v + t * c2 * d2v + np.sin(np.pi * t) * e0

        def offset(s, t):
            return s * vfun(t)

        vfield = FieldAlongCurve(geo.grid, vfun(geo.grid))
        ends = {"P1": (line1, [0.0]), "P2": (line2, [0.0])}
        h_terms = (subm.sff_connection(line1, [0.0], geo.velocities[0], [c1], [c1], ms),
                   subm.sff_connection(line2, [0.0], vel_b, [c2], [c2], ms))
    else:
        raise ConfigError(f"unknown second-variation mode {mode!r}")

    formula = second_variation_formula(ms, geo, vfield, **ends)
    dense, n = geo.dense, ms.dim
    fam = VariationFamily(rule=lambda s, t: dense(t)[:n].T + offset(s, t))
    fd = variation_energy_derivatives(ms, fam, 2)
    first = variation_energy_derivatives(ms, fam, 1)
    res.csv_rows = [("formula", formula), ("fd", fd), ("first_variation", first)]
    res.check("second variation formula vs FD (relative)", abs(formula - fd) / max(1e-12, abs(fd)),
              _param(params, "tolerance", 1e-3))
    res.check("first variation at geodesic", abs(first),
              _param(params, "first_variation_tolerance", 1e-6))
    if h_terms:
        res.csv_rows += [("h_term_start", h_terms[0]), ("h_term_end", h_terms[1])]
        res.check("boundary terms nonzero (exercised)", min(abs(h) for h in h_terms),
                  _param(params, "h_term_floor", 1e-4), ">")
    return res


def task_sff_compare(ms, params, seed) -> TaskResult:
    samples = _param(params, "samples", 10, int)
    rng = SplitMix64(seed)
    subs = [submanifold_from_config(c, ms.dim) for c in params.get(
        "submanifolds", [{"shape": "circle", "radius": 1.0},
                         {"shape": "line", "point": [0.1, -0.2], "direction": [0.8, 0.6]}])]
    res = TaskResult("sff-compare", ms,
                     ("submanifold", "param", "agreement", "lagrangean", "lift_spread"),
                     samples=samples, seed=seed)
    worst = np.zeros(4)
    lifts = [classical_lift(k, ms) for k in CLASSICAL]
    lifts.append(random_admissible_lift(ms, seed + 5, enforce_m1m2=True))
    for i in range(samples):
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
        try:
            nv = subm.normal_cone_solve(sub, param, ms, guess=guess)
        except FinslerError:
            nv = subm.normal_cone_solve(sub, param, ms, guess=-guess)
        u = np.array([rng.uniform(-1.0, 1.0)])
        v = np.array([rng.uniform(-1.0, 1.0)])
        # one order-4 frame at the normal serves every lift, the symplectic reads and the shortcut
        wtv = TangentVector(nv.x, nv.eta)
        fr = PointFrame(ms, wtv, order=4)
        vals = [subm.sff_connection(sub, param, nv.eta, u, v, ms, lift=lf, _frame=fr)
                for lf in lifts]
        hc = vals[0]    # Berwald, sff_connection's default lift
        rows = subm.normal_bundle_tangent_basis(sub, nv, ms)
        agree = abs(hc - subm.sff_symplectic(sub, nv, u, v, ms, _basis=rows, _frame=fr))
        lag = max((abs(subm.omega_F(ms, wtv, rows[a], rows[b], _frame=fr))
                   for a in range(ms.dim) for b in range(a + 1, ms.dim)), default=0.0)
        spread = max(vals) - min(vals)
        # unsymmetrized shortcut for torsion-symmetric lifts
        A = affine_coefficients(lifts[1], ms, wtv, _frame=fr).A
        unsym = float(nv.eta @ fr.g @ (np.einsum("iab,a,b->i", sub.hessian(param), u, v)
                                        + np.einsum("ijk,j,k->i", A, basis @ u, basis @ v)))
        worst = np.maximum(worst, [agree, lag, spread, abs(unsym - hc)])
        res.csv_rows.append((sub.name, param[0], agree, lag, spread))
    tols = (_param(params, "tolerance", 1e-5), _param(params, "lagrangean_tolerance", 1e-6),
            _param(params, "lift_tolerance", 1e-8), 1e-7)
    labels = ("symplectic vs connection second fundamental form",
              "Lagrangean residual of the normal bundle",
              "lift independence of the second fundamental form",
              "unsymmetrized shortcut (torsion-symmetric lift)")
    for label, residual, tol in zip(labels, worst, tols):
        res.check(label, residual, tol)
    return res


def task_lift_independence(ms, params, seed) -> TaskResult:
    samples = _param(params, "samples", 25, int)
    tol = _param(params, "tolerance", 1e-7)
    n_random = _param(params, "random_lifts", 5, int)
    checks = params.get("checks", ["curvature", "covariant"])
    rng = SplitMix64(seed)
    res = TaskResult("lift-independence", ms, ("check", "max_spread"), samples=samples, seed=seed)

    if "curvature" in checks or "covariant" in checks:
        lifts = [classical_lift("berwald", ms), classical_lift("cartan", ms)]
        lifts += [random_admissible_lift(ms, seed + 100 + i, enforce_t1=True)
                  for i in range(n_random)]
        # the draws, sample by sample, then one call per lift over all samples
        ws, us, fields = [], [], []
        for _ in range(samples):
            ws.append(random_tangent(ms, rng))
            us.append(rng.direction(ms.dim))
            if "covariant" in checks:
                fields.append([ident.AffineField.random(ws[-1].x, rng, min_norm=0.6),
                               ident.AffineField.random(ws[-1].x, rng)])
        w, u = TangentVector.stack(ws), np.array(us)
        if "curvature" in checks:
            base = _matvec(curvature_endomorphism(ms, w).R, u)
            fr5 = PointFrame(ms, w, order=5)
            worst = max(float(np.max(np.abs(lift_curvature(lf, ms, w, u, _frame=fr5) - base)))
                        for lf in lifts)
            res.check("curvature endomorphism across lifts", worst, tol, row=("curvature", worst))
        if "covariant" in checks:
            W, U = (ident.AffineField.stack(col) for col in zip(*fields))
            wx = W(w.x)
            fr = PointFrame(ms, TangentVector(w.x, wx), order=4)
            vals = [_matvec(U.A, wx) + np.einsum("...ijk,...j,...k->...i",
                                                 affine_coefficients(lf, ms, fr.w, _frame=fr).A,
                                                 wx, U(w.x))
                    for lf in lifts]
            worst = float(np.max(np.abs(np.max(vals, axis=0) - np.min(vals, axis=0))))
            res.check("covariant derivative D^W_W across lifts", worst, tol,
                      row=("covariant", worst))

    if "affine_families" in checks:
        tol_co = _param(params, "coincidence_tolerance", 1e-12)
        fr = PointFrame(ms, TangentVector.stack([random_tangent(ms, rng) for _ in range(samples)]),
                        order=4)
        A = {k: affine_coefficients(classical_lift(k, ms), ms, fr.w, _frame=fr).A
             for k in CLASSICAL}
        claimed = np.einsum("...ijk,...j,...k->...i", A["cartan"], fr.y, fr.y)
        worst_bh = float(max(np.max(np.abs(A["berwald"] - A["hashiguchi"])),
                             np.max(np.abs(claimed - 2.0 * fr.G))))
        worst_cc = float(np.max(np.abs(A["cartan"] - A["chern-rund"])))
        gap = float(np.max(np.abs(A["cartan"] - A["berwald"])))
        res.check("Berwald and Hashiguchi families coincide", worst_bh, tol_co,
                  row=("berwald_vs_hashiguchi", worst_bh))
        res.check("Cartan and Chern-Rund families coincide", worst_cc, tol_co,
                  row=("cartan_vs_chern_rund", worst_cc))
        res.check("the two families differ somewhere", gap,
                  _param(params, "family_difference_floor", 1e-3), ">", row=("family_gap", gap))
    return res


TASKS = {
    "check-metric": task_check_metric,
    "condition-matrix": task_condition_matrix,
    "curvature-sweep": task_curvature_sweep,
    "geodesic": task_geodesic,
    "jacobi-compare": task_jacobi_compare,
    "second-variation": task_second_variation,
    "sff-compare": task_sff_compare,
    "lift-independence": task_lift_independence,
}

TASK_NAMES = tuple(TASKS)

# The parameter keys each task reads, besides "seed"; a scenario naming any
# other key is refused. The defaults stay in the tasks, where they are read.
TASK_KEYS = {
    "check-metric": ("samples", "tolerances", "expect_pd_failures", "tensor_identities",
                     "identity_tolerances", "identity_samples"),
    "condition-matrix": ("samples", "tolerance", "lifts", "conditions", "expect",
                         "expect_fail", "expect_exact", "identities"),
    "curvature-sweep": ("flags", "expect_value", "tolerance", "flag_invariance",
                        "christoffel_check", "riemann_tolerance", "affine_tolerance"),
    "geodesic": ("x0", "y0", "t", "rtol", "nodes"),
    "jacobi-compare": ("samples", "tolerance", "t", "constant_curvature", "profile_tolerance"),
    "second-variation": ("mode", "x0", "direction", "tolerance", "first_variation_tolerance",
                         "h_term_floor"),
    "sff-compare": ("samples", "submanifolds", "tolerance", "lagrangean_tolerance",
                    "lift_tolerance"),
    "lift-independence": ("samples", "tolerance", "random_lifts", "checks",
                          "coincidence_tolerance", "family_difference_floor"),
}
SCENARIO_KEYS = ("version", "task", "metric", "parameters", "name")
IDENTITY_KEYS = ("samples", "tolerance", "fd_tolerance")      # condition-matrix "identities"
LIFT_CHECKS = ("curvature", "covariant", "affine_families")   # lift-independence "checks"


# -- scenario runner ----------------------------------------------------------------


def load_scenario(path) -> dict:
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"scenario file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    validate_scenario(cfg)
    return cfg


def _number(key, value, kind):
    """``kind(value)`` for parameter ``key``, a ``ConfigError`` if it is not a number."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"parameter {key} must be a number, got {value!r}") from exc


def _param(params, key, default, kind=float, where=""):
    """Parameter ``key`` of ``params``, ``default`` when absent, as a number of
    type ``kind``; ``where`` prefixes the key of a nested map in messages."""
    return _number(where + key, params.get(key, default), kind)


def _vector(key, value, dim) -> np.ndarray:
    """Parameter ``key``, a list of ``dim`` numbers, as a float array."""
    if not isinstance(value, (list, tuple)) or len(value) != dim:
        raise ConfigError(f"parameter {key} must be a list of {dim} numbers, got {value!r}")
    return np.array([_number(key, v, float) for v in value])


def validate_scenario(cfg) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError("scenario must be a JSON object")
    _refuse_unknown_keys(cfg, SCENARIO_KEYS, "the scenario")
    if cfg.get("version") != 1:
        raise ConfigError("scenario must declare \"version\": 1")
    task = cfg.get("task")
    if task not in TASK_NAMES:
        raise ConfigError(f"task must be one of {TASK_NAMES}, got {task!r}")
    if "metric" not in cfg:
        raise ConfigError("scenario must name a metric")
    params = cfg.get("parameters", {})
    if not isinstance(params, dict):
        raise ConfigError("parameters must be a mapping")
    _refuse_unknown_keys(params, ("seed", *TASK_KEYS[task]), f"the parameters of task {task!r}")
    identities = params.get("identities")
    if identities is not None:
        if not isinstance(identities, dict):
            raise ConfigError("parameter identities must be a mapping")
        _refuse_unknown_keys(identities, IDENTITY_KEYS, "parameter identities")
    checks = params.get("checks", [])
    if not isinstance(checks, list):
        raise ConfigError(f"parameter checks must be a list, got {checks!r}")
    for entry in checks:
        if entry not in LIFT_CHECKS:
            raise ConfigError(f"unknown entry {entry!r} in parameter checks; "
                              f"known entries: {', '.join(LIFT_CHECKS)}")
    for key in ("tolerance", "lagrangean_tolerance", "profile_tolerance"):
        if key in params and _number(key, params[key], float) <= 0:
            raise ConfigError(f"parameter {key} must be positive")
    counts = {key: params.get(key) for key in ("samples", "flags", "identity_samples")}
    counts["identities.samples"] = (identities or {}).get("samples")
    for key, value in counts.items():
        if value is not None and _number(key, value, int) < 1:
            raise ConfigError(f"parameter {key} must be at least 1")
    metric_from_config(cfg["metric"])


def run_scenario_config(cfg: dict, out_dir=None, seed_override=None,
                        stream=sys.stdout) -> int:
    validate_scenario(cfg)
    ms = metric_from_config(cfg["metric"])
    params = cfg.get("parameters", {})
    seed = int(seed_override if seed_override is not None else params.get("seed", 0))
    name = cfg.get("name", cfg["task"])
    t0 = time.perf_counter()
    try:
        result = TASKS[cfg["task"]](ms, params, seed)
    except ConfigError:
        raise
    except FinslerError as exc:
        print(f"scenario {name}: domain error: {exc}", file=stream)
        return 1
    elapsed = time.perf_counter() - t0
    print(f"scenario {name} [{cfg['task']} on {ms.name}] ... {verdict(result.passed)} "
          f"({elapsed:.2f}s)", file=stream)
    for check in result.checks:
        print(render(check), file=stream)
    if out_dir is not None:
        csv_path = Path(out_dir) / f"{name}.csv"
        write_csv(csv_path, result.csv_header, result.csv_rows, result.metadata)
        print(f"  wrote {csv_path}", file=stream)
    return 0 if result.passed else 2


def run_scenario(path, out_dir=None, seed_override=None, stream=sys.stdout) -> int:
    cfg = load_scenario(path)
    return run_scenario_config(cfg, out_dir=out_dir, seed_override=seed_override,
                               stream=stream)


def bundled_scenarios():
    root = resources.files("finslergeo").joinpath("scenarios")
    names = sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))
    return [(name, json.loads(root.joinpath(name).read_text(encoding="utf-8")))
            for name in names]


def verify_all(seed=None, out_dir=None, stream=sys.stdout) -> int:
    t0 = time.perf_counter()
    results = []
    for name, cfg in bundled_scenarios():
        cfg = dict(cfg)
        cfg.setdefault("name", name.removesuffix(".json"))
        seed_override = None
        if seed is not None:
            seed_override = int(seed) + int(cfg.get("parameters", {}).get("seed", 0))
        code = run_scenario_config(cfg, out_dir=out_dir, seed_override=seed_override,
                                   stream=stream)
        results.append((cfg["name"], code))
    elapsed = time.perf_counter() - t0
    print("", file=stream)
    print(f"{'scenario':44s} result", file=stream)
    for name, code in results:
        print(f"{name:44s} {verdict(code == 0)}", file=stream)
    bad = sum(1 for _, code in results if code != 0)
    print(f"\n{len(results) - bad}/{len(results)} scenarios passed in {elapsed:.1f}s",
          file=stream)
    return 0 if bad == 0 else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="finslergeo",
                                     description="Finsler geometry verification engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a JSON scenario")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=None, help="directory for CSV artifacts")
    p_run.add_argument("--seed", type=int, default=None)

    p_all = sub.add_parser("verify-all", help="run the bundled verification corpus")
    p_all.add_argument("--seed", type=int, default=None)
    p_all.add_argument("--out", default=None)

    p_geo = sub.add_parser("geodesic", help="integrate one geodesic, CSV to stdout")
    p_geo.add_argument("--metric", required=True,
                       help="built-in name: euclidean, sphere_stereographic, "
                            "poincare_disk, funk, randers")
    p_geo.add_argument("--x0", required=True, help="comma-separated start point")
    p_geo.add_argument("--y0", required=True, help="comma-separated start velocity")
    p_geo.add_argument("--t", type=float, default=1.0)
    p_geo.add_argument("--nodes", type=int, default=101)
    p_geo.add_argument("--beta", default=None,
                       help="comma-separated covector for the randers metric "
                            "(default 0.5,0,...)")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run_scenario(args.scenario, out_dir=args.out, seed_override=args.seed)
        if args.command == "verify-all":
            return verify_all(seed=args.seed, out_dir=args.out)
        if args.command == "geodesic":
            x0 = [float(v) for v in args.x0.split(",")]
            cfg = {"kind": args.metric, "dim": len(x0)}
            if args.metric == "randers":
                cfg["beta"] = ([float(v) for v in args.beta.split(",")] if args.beta
                               else [0.5] + [0.0] * (len(x0) - 1))
            ms = metric_from_config(cfg)
            y0 = [float(v) for v in args.y0.split(",")]
            geo = integrate_geodesic(ms, TangentVector(x0, y0), args.t, nodes=args.nodes)
            print("\n".join(_csv_lines(*_node_table(ms, geo), [])))
            return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except FinslerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
