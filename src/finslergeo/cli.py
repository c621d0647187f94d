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
from .spray import PointFrame, _matvec, _pair, curvature_endomorphism, flag_curvature
from .variational import (DEFAULT_RTOL, FieldAlongCurve, VariationFamily, integrate_geodesic,
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
        if isinstance(node, ast.Constant) and type(node.value) not in (int, float):  # no bool
            raise ConfigError(f"expression {src!r}: only numeric constants allowed, "
                              f"got {node.value!r}")
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


# -- scenario parameters ------------------------------------------------------------
#
# A parameter table maps each key to (default, kind). A kind, called as
# kind(key, value, dim), returns the value a task reads or raises a ConfigError
# naming the key. A dict for a kind is a nested table, a default of None makes
# an entry optional, and a callable default is a function of the metric's
# dimension. A setting with one value in use is a constant of its task, not a key.


def _kind(ok, what, convert=None):
    """The kind of a value for which ``ok`` holds, converted by ``convert``."""
    def kind(key, value, *_):
        if not ok(value):
            raise ConfigError(f"parameter {key} must be {what}, got {value!r}")
        return value if convert is None else convert(value)
    return kind


def _finite(value) -> bool:
    """Whether ``value`` reads as a finite number; a boolean does not."""
    try:
        return not isinstance(value, bool) and bool(np.isfinite(float(value)))
    except (TypeError, ValueError, OverflowError):
        return False


_number = _kind(_finite, "a number", float)
_positive = _kind(lambda v: _finite(v) and float(v) > 0, "a positive number", float)
_count = _kind(lambda v: type(v) is int and v >= 1, "an integer of at least 1")  # not a boolean
_natural = _kind(lambda v: type(v) is int and v >= 0, "an integer of at least 0")
_flag = _kind(lambda v: isinstance(v, bool), "true or false")


def _name(among):
    """The kind of one name from ``among``."""
    return _kind(lambda v: isinstance(v, str) and v in among, f"one of {', '.join(among)}")


def _vector(key, value, dim) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) != dim:
        raise ConfigError(f"parameter {key} must be a list of {dim} numbers, got {value!r}")
    return np.array([_number(key, v) for v in value])


def _padded(*head):
    """The default vector ``head`` padded with zeros to the metric's dimension."""
    return lambda dim: [*head, *[0.0] * (dim - len(head))]


def _names(among, of=None):
    """The kind of a list of names from ``among``; given ``of``, of a mapping
    from such names to values of kind ``of``."""
    def kind(key, value, dim):
        if not isinstance(value, dict if of else (list, tuple)) or not all(
                isinstance(v, str) for v in value):
            raise ConfigError(f"parameter {key} must be a {'mapping' if of else 'list'} of "
                              f"names, got {value!r}")
        _refuse_unknown_keys(value, among, f"parameter {key}", "name")
        if of is None:
            return tuple(value)
        return {name: of(f"{key}.{name}", v, dim) for name, v in value.items()}
    return kind


def _parse(table, given, dim, where, prefix="") -> dict:
    """Every entry of ``table``, from ``given`` or else its default, converted by its
    kind; ``where`` names ``given`` in messages, ``prefix`` a nested table's keys."""
    if not isinstance(given, dict):
        raise ConfigError(f"{where} must be a mapping, got {given!r}")
    _refuse_unknown_keys(given, table, where)
    p = {}
    for key, (default, kind) in table.items():
        value = given.get(key, default)
        value = value(dim) if callable(value) else value
        if value is None and default is None:
            p[key] = None
        elif isinstance(kind, dict):
            p[key] = _parse(kind, value, dim, f"parameter {prefix}{key}", f"{prefix}{key}.")
        else:
            p[key] = kind(prefix + key, value, dim)
    return p


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
    dim = _count("dim", cfg.get("dim", 2))
    if not METRIC_KEYS[kind]:  # a built-in of the dimension alone
        return getattr(metrics_mod, kind)(dim)
    if kind == "randers":
        beta_cfg = cfg.get("beta")
        if not isinstance(beta_cfg, (list, tuple)) or len(beta_cfg) != dim:
            raise ConfigError(f"randers metric needs a 'beta' list of {dim} entries, "
                              f"got {beta_cfg!r}")
        if all(type(b) in (int, float) for b in beta_cfg):  # compile_expression refuses a bool
            beta = [float(b) for b in beta_cfg]
        else:
            comps = [compile_expression(str(b), dim, allow_y=False) for b in beta_cfg]
            beta = lambda xs: [c(xs) for c in comps]
        return metrics_mod.randers(dim, beta, name=cfg.get("name", "randers"))
    if "f2" not in cfg:  # custom
        raise ConfigError("custom metric needs an 'f2' expression")
    rule = compile_expression(str(cfg["f2"]), dim, allow_y=True)
    return metrics_mod.custom(dim, rule, name=cfg.get("name", "custom"))


# The parameter table of each submanifold shape besides "shape".
SHAPES = {"circle": {"center": (_padded(), _vector), "radius": (1.0, _positive)},
          "line": {"point": (_padded(), _vector), "direction": (_padded(1.0), _vector)}}


def submanifold_from_config(cfg, dim) -> subm.Submanifold:
    if not isinstance(cfg, dict) or "shape" not in cfg:
        raise ConfigError("submanifold descriptor must be a mapping with a 'shape' field")
    shape = cfg["shape"]
    if not isinstance(shape, str) or shape not in SHAPES:
        raise ConfigError(f"unknown submanifold shape {shape!r}")
    p = _parse(SHAPES[shape], {k: v for k, v in cfg.items() if k != "shape"}, dim,
               f"submanifold shape {shape!r}")
    if shape == "circle":
        return subm.circle(p["center"], p["radius"])
    return subm.affine_subspace(p["point"], [p["direction"]])  # line


def _submanifolds(key, value, dim) -> list:
    _kind(lambda v: isinstance(v, list) and v, "a non-empty list of submanifolds")(key, value)
    return [submanifold_from_config(c, dim) for c in value]


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


# The tolerances of check-metric's tensor identities.
IDENTITY_TOLERANCES = {"cartan_contract": 1e-9, "cprime_contract": 1e-9, "full_symmetry": 1e-10,
                       "gww_identity": 1e-10, "euler_gradient": 1e-10, "g_homogeneity": 1e-10,
                       "cartan_homogeneity": 1e-9}


def task_check_metric(ms, p) -> TaskResult:
    rep = check_metric(ms, p["samples"], p["seed"])
    res = TaskResult("check-metric", ms, ("quantity", "value"), samples=p["samples"],
                     seed=p["seed"])
    res.csv_rows = rep.rows()
    res.check("homogeneity max residual", rep.homogeneity_max, p["tolerances"]["homogeneity"])
    res.check("F^2 = g_w(w,w) max residual", rep.gww_identity_max, p["tolerances"]["gww"])
    res.check("positive-definiteness failures", rep.pd_failures, 0.5)
    if p["tensor_identities"]:
        rng = SplitMix64(p["seed"] + 1)
        worst = ident.tensor_identity_residuals(ms, TangentVector.stack(
            [random_tangent(ms, rng) for _ in range(p["identity_samples"])]))
        for k, tol in IDENTITY_TOLERANCES.items():
            res.check(f"identity {k}", worst[k], tol, row=(k, worst[k]))
    return res


def task_condition_matrix(ms, p) -> TaskResult:
    """Every condition's residual for each classical lift; the checks compare
    the ones that ``expect``, ``expect_fail`` and ``expect_exact`` name."""
    tol = p["tolerance"]
    rng = SplitMix64(p["seed"])
    fr = PointFrame(ms, TangentVector.stack([random_tangent(ms, rng)
                                             for _ in range(p["samples"])]), order=4)
    worst = {name: condition_residuals(classical_lift(name, ms), fr, ALL_CONDITIONS)
             for name in CLASSICAL}

    res = TaskResult("condition-matrix", ms, ("lift", "condition", "max_residual"),
                     samples=p["samples"], seed=p["seed"], tolerance=tol)
    res.csv_rows = [(name, c, worst[name][c]) for name in CLASSICAL for c in ALL_CONDITIONS]
    for name, conds in p["expect"].items():
        for c in conds:
            res.check(f"{name} satisfies {c}", worst[name][c], tol)
    for name, fails in p["expect_fail"].items():
        for c, threshold in fails.items():
            res.check(f"{name} violates {c}", worst[name][c], threshold, ">")
    for name, conds in p["expect_exact"].items():
        passing = {c for c in ALL_CONDITIONS if worst[name][c] < tol}
        res.check(f"{name} passes exactly {sorted(conds)} (got {sorted(passing)})",
                  len(passing ^ set(conds)), 0, "=")

    if p["identities"]:
        _run_identity_battery(ms, p, res)
    return res


def _battery_family(dim):
    """The variation of the battery's covariant-derivative symmetry check: a
    plane family, padded with zero coordinates in dimension ``dim``."""
    d = np.array([0.25, 0.1] + [0.0] * (dim - 2))
    e1, e2 = np.eye(dim)[:2]

    def rule(s, t):
        t = t[..., None]
        return t * d + s * (0.05 * np.sin(np.pi * t) * e1 + (0.04 * t * (1 - t) + 0.03) * e2)

    return rule


def _run_identity_battery(ms, p, res: TaskResult):
    """Seven identity residuals at 10 random points, to 1e-7 for nabla_S g and
    the spray-direction identity and 1e-6 for the other five."""
    rng = SplitMix64(p["seed"] + 77)
    tol_tight, tol_loose = 1e-7, 1e-6
    w = TangentVector.stack([random_tangent(ms, rng) for _ in range(10)])
    lifts = {name: classical_lift(name, ms) for name in CLASSICAL}

    # (label, CSV key, tolerance, residual): one call per identity and lift
    # over all points, run in this order, since the calls draw from rng in
    # turn, point by point
    battery = (
        ("nabla_S g = 0 (all classical lifts)", "nabla_S_g", tol_tight,
         lambda: max(ident.nabla_s_g_residual(lift, ms, w) for lift in lifts.values())),
        ("covariant symmetry (T2 lifts)", "symmetry_D", tol_loose,
         lambda: max(ident.symmetry_residual(lift, ms, w.x, rng) for lift in lifts.values())),
        ("metric compatibility (M1+M2)", "metric_compat", tol_loose,
         lambda: max(ident.metric_compat_residual(lifts[name], ms, w.x, rng)
                     for name in ("berwald", "cartan"))),
        ("metric compatibility along geodesic fields", "metric_compat_geodesic", tol_loose,
         lambda: ident.metric_compat_geodesic_residual(ms, w.x, rng)),
        ("family metric identities", "family_metric", tol_loose,
         lambda: max(ident.family_metric_identity_residual(name, ms, w.x, rng)
                     for name in CLASSICAL)),
        ("spray-direction derivative identity (T1 lifts)", "spray_derivative", tol_tight,
         lambda: max(ident.spray_derivative_residual(lift, ms, w, rng) for lift in lifts.values())),
        ("variation covariant-derivative symmetry", "variation_symmetry", tol_loose,
         lambda: variation_symmetry_residual(ms, VariationFamily(rule=_battery_family(ms.dim)))),
    )
    for label, key, tol, residual in battery:
        worst = residual()
        res.check(label, worst, tol, row=("identity", key, worst))


def task_curvature_sweep(ms, p) -> TaskResult:
    """Flag curvature at random flags, and its invariance under a change of
    the flag's second vector at the first 20. ``christoffel_check`` compares R
    and the classical affine coefficients there with the exact oracle
    ``identities.levi_civita`` (Riemannian built-ins only)."""
    rng = SplitMix64(p["seed"])
    res = TaskResult("curvature-sweep", ms, ("x", "y", "u", "K"), flags=p["flags"],
                     seed=p["seed"])
    ws, us = [], []
    for _ in range(p["flags"]):
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
    values = flag_curvature(ms, w, u)
    res.csv_rows = [(*(";".join(_fmt(v) for v in vec) for vec in (x, y, ui)), k)
                    for x, y, ui, k in zip(w.x, w.y, u, values)]
    target = p["expect_value"]
    if target is not None:
        res.check(f"flag curvature = {target}", np.max(np.abs(values - target)), p["tolerance"])
    # every call is over all flags, sharing their frame; each point is bitwise its own call
    k0 = values[:20]
    k1 = flag_curvature(ms, w, u + 3.0 * w.y)[:20]
    k2 = flag_curvature(ms, w, 0.2 * u)[:20]
    res.check("flag invariance under u -> u + 3w, 0.2u",
              max(np.max(np.abs(k1 - k0)), np.max(np.abs(k2 - k0))), 1e-9)
    if p["christoffel_check"]:
        if getattr(ms, "_g_field", None) is None:
            raise ConfigError("christoffel_check requires a Riemannian built-in")
        gams, oracles = ident.levi_civita(ms, w.x[:20], w.y[:20])
        A = [affine_coefficients(classical_lift(name, ms), ms, w).A[:20] for name in CLASSICAL]
        R = curvature_endomorphism(ms, w).R[:20]
        res.check("curvature matches Christoffel oracle", np.max(np.abs(R - oracles)), 1e-7)
        res.check("affine coefficients = Levi-Civita symbols",
                  max(np.max(np.abs(a - gams)) for a in A), 1e-8)
        res.check("four classical lifts identical", max(np.max(np.abs(a - A[0])) for a in A[1:]),
                  1e-12)
    return res


def _node_table(ms, geo):
    """CSV header and rows (t, x, y) of a geodesic's nodes."""
    header = ("t", *(f"x{i + 1}" for i in range(ms.dim)), *(f"y{i + 1}" for i in range(ms.dim)))
    return header, [(t, *x, *y) for t, x, y in zip(geo.grid, geo.points, geo.velocities)]


def task_geodesic(ms, p) -> TaskResult:
    nodes = p["nodes"]
    geo = integrate_geodesic(ms, TangentVector(p["x0"], p["y0"]), p["t"], nodes=nodes)
    header, rows = _node_table(ms, geo)
    res = TaskResult("geodesic", ms, header, t=p["t"], rtol=DEFAULT_RTOL, seed=p["seed"])
    res.csv_rows = rows
    step = max(1, nodes // 40)
    fvals = metrics_mod.metric_value(ms, TangentVector(geo.points[::step], geo.velocities[::step]))
    res.check("speed conservation drift", np.max(fvals) - np.min(fvals),
              10.0 * DEFAULT_RTOL * max(1.0, fvals[0]))
    return res


def task_jacobi_compare(ms, p) -> TaskResult:
    """The Jacobi ODE against the geodesic-variation oracle and, given a
    constant curvature, the norm profile of a normal field, both to 1e-3."""
    tol = 1e-3
    rng = SplitMix64(p["seed"])
    res = TaskResult("jacobi-compare", ms, ("sample", "sup_norm_diff", "profile_residual"),
                     samples=p["samples"], seed=p["seed"], tolerance=tol)
    kap = p["constant_curvature"]
    # the draws, sample by sample, then one batched call per step for every
    # sample; a refusal names its sample by its batch index
    raw, us = [], []
    for _ in range(p["samples"]):
        raw.append(random_tangent(ms, rng))
        us.append(rng.direction(ms.dim))
    w = TangentVector.stack(raw)
    F = metrics_mod.metric_value(ms, w)
    x0, y0 = w.x, w.y / np.reshape(F, (-1, 1))
    geos = integrate_geodesic(ms, TangentVector(x0, y0), p["t"])
    us = np.array(us)
    Jor = jacobi_variation_oracle(ms, geos, us)
    if kap is None:
        J = jacobi_integrate(ms, geos, np.zeros(us.shape), us)
        out = [(float(np.max(np.abs(Jk.vectors - Jork))), 0.0) for Jk, Jork in zip(J, Jor)]
    else:
        # g at w0 and at every 40th node of each geodesic, from one batched y-jet
        nodes = range(0, len(geos[0].grid), 40)
        gs = metrics_mod.fundamental_tensor(ms, TangentVector(
            np.stack([np.vstack([x0k, g.points[::40]]) for x0k, g in zip(x0, geos)]),
            np.stack([np.vstack([y0k, g.velocities[::40]]) for y0k, g in zip(y0, geos)]))).g
        # u and its g-normal part as the two columns of one Jacobi solve per geodesic
        uperps, unorms = [], []
        for u, y0k, gm0 in zip(us, y0, gs[:, 0]):
            uperp = u - (u @ gm0 @ y0k) / (y0k @ gm0 @ y0k) * y0k
            uperps.append(uperp)
            unorms.append(float(np.sqrt(uperp @ gm0 @ uperp)))
        J = jacobi_integrate(ms, geos, np.zeros(us.shape + (2,)),
                             np.stack([us, np.array(uperps)], axis=-1))
        out = []
        for g, Jk, Jork, gk, unorm in zip(geos, J, Jor, gs, unorms):
            Jp = Jk.vectors[:, :, 1]
            prof = 0.0
            for i, gi in zip(nodes, gk[1:]):
                nrm = float(np.sqrt(Jp[i] @ gi @ Jp[i]))
                t = g.grid[i]
                if kap > 0:
                    ref = unorm * np.sin(np.sqrt(kap) * t) / np.sqrt(kap)
                elif kap < 0:
                    ref = unorm * np.sinh(np.sqrt(-kap) * t) / np.sqrt(-kap)
                else:
                    ref = unorm * t
                prof = max(prof, abs(nrm - abs(ref)))
            out.append((float(np.max(np.abs(Jk.vectors[:, :, 0] - Jork))), prof))
    res.csv_rows = [(i, *row) for i, row in enumerate(out)]
    res.check("ODE vs geodesic-variation oracle (sup norm)", max(r[1] for r in res.csv_rows), tol)
    if kap is not None:
        res.check(f"constant-curvature profile K={kap}", max(r[2] for r in res.csv_rows), tol)
    return res


def _normal_direction(ms, x, vel, rng):
    """A direction g_w-orthogonal to vel at (x, vel)."""
    m = metrics_mod.fundamental_tensor(ms, TangentVector(x, vel)).g @ vel
    d = rng.direction(len(x))
    d = d - (d @ m) / (vel @ m) * vel
    return d / np.linalg.norm(d)


def task_second_variation(ms, p) -> TaskResult:
    rng = SplitMix64(p["seed"])
    res = TaskResult("second-variation", ms, ("quantity", "value"), mode=p["mode"],
                     seed=p["seed"])
    ends, h_terms = {}, ()
    if p["mode"] == "fixed":
        w0 = random_tangent(ms, rng)
        w0 = TangentVector(w0.x, w0.y / metrics_mod.metric_value(ms, w0))
        geo = integrate_geodesic(ms, w0, 1.0)
        e0 = _normal_direction(ms, w0.x, w0.y, rng)
        pt = parallel_transport(ms, geo, e0)

        def direction(t):
            return np.sin(np.pi * t)[..., None] * pt.dense(t).T
    else:
        # submanifold mode: a geodesic segment normal to an affine line at each end
        x_a, d1v = p["x0"], p["direction"]
        line1 = subm.affine_subspace(x_a, [d1v], name="P1")
        guess = np.zeros(ms.dim)
        guess[:2] = -d1v[1], d1v[0]
        nv = subm.normal_cone_solve(line1, [0.0], ms, guess=guess)
        geo = integrate_geodesic(ms, TangentVector(x_a, nv.eta), 1.0)
        x_b, vel_b = geo.points[-1], geo.velocities[-1]
        d2v = _normal_direction(ms, x_b, vel_b, rng)
        line2 = subm.affine_subspace(x_b, [d2v], name="P2")
        c1, c2 = 0.8, -0.6
        e0 = rng.direction(ms.dim)

        def direction(t):
            t = t[..., None]
            return (1 - t) * c1 * d1v + t * c2 * d2v + np.sin(np.pi * t) * e0

        ends = {"P1": (line1, [0.0]), "P2": (line2, [0.0])}
        h_terms = (subm.sff_connection(line1, [0.0], geo.velocities[0], [c1], [c1], ms),
                   subm.sff_connection(line2, [0.0], vel_b, [c2], [c2], ms))

    # second_variation_formula reads the field's dense output alone
    vfield = FieldAlongCurve(np.zeros(0), np.zeros((0, ms.dim)), dense=lambda t: direction(t).T)
    formula = second_variation_formula(ms, geo, vfield, **ends)
    fam = VariationFamily(rule=lambda s, t: geo.dense(t)[:ms.dim].T + s * direction(t))
    first, fd = variation_energy_derivatives(ms, fam)
    res.csv_rows = [("formula", formula), ("fd", fd), ("first_variation", first)]
    res.check("second variation formula vs FD (relative)", abs(formula - fd) / max(1e-12, abs(fd)),
              1e-3)
    res.check("first variation at geodesic", abs(first), 1e-6)
    if h_terms:
        res.csv_rows += [("h_term_start", h_terms[0]), ("h_term_end", h_terms[1])]
        res.check("boundary terms nonzero (exercised)", min(abs(h) for h in h_terms), 1e-4, ">")
    return res


def task_sff_compare(ms, p) -> TaskResult:
    rng, subs = SplitMix64(p["seed"]), p["submanifolds"]
    res = TaskResult("sff-compare", ms,
                     ("submanifold", "param", "agreement", "lagrangean", "lift_spread"),
                     samples=p["samples"], seed=p["seed"])
    worst = np.zeros(4)
    lifts = [classical_lift(k, ms) for k in CLASSICAL]
    lifts.append(random_admissible_lift(ms, p["seed"] + 5, enforce_m1m2=True))
    # the draws, sample by sample (a sample outside the domain draws no u, v),
    # then one batched pass per submanifold
    drawn = [[] for _ in subs]
    for i in range(p["samples"]):
        sub = subs[i % len(subs)]
        param = [rng.uniform(0.0, 6.28) if sub.name.startswith("circle")
                 else rng.uniform(-0.5, 0.5)]
        if ms.domain_margin is not None and ms.domain_margin(sub.value(param)) <= 0.05:
            continue
        u, v = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        drawn[i % len(subs)].append((i, param, [u], [v]))
    rows_at = {}
    for sub, group in zip(subs, drawn):
        if not group:
            continue
        order, param, u, v = (np.array(col) for col in zip(*group))
        imm = sub._immersion(param)
        guess = np.stack([-imm.basis[:, 1, 0], imm.basis[:, 0, 0]], axis=-1)
        if sub.name.startswith("circle"):
            outward = subm._dot(guess, np.zeros(ms.dim) - imm.x) < 0
            guess = np.where(outward[:, None], -guess, guess)
        nv = subm.normal_cone_solve(sub, param, ms, guess=guess)
        # one order-4 frame at the normals serves every lift, the symplectic reads and the shortcut
        w = TangentVector(nv.x, nv.eta)
        fr = PointFrame(ms, w, order=4)
        vals = np.array([subm.sff_connection(sub, param, nv.eta, u, v, ms, lift=lf, _immersion=imm)
                         for lf in lifts])
        hc = vals[0]    # Berwald, sff_connection's default lift
        rows = subm.normal_bundle_tangent_basis(sub, nv, ms)
        agree = np.abs(hc - subm.sff_symplectic(sub, nv, u, v, ms, _basis=rows))
        lag = np.zeros(len(order))
        for a in range(ms.dim):
            for b in range(a + 1, ms.dim):
                lag = np.maximum(lag, np.abs(subm.omega_F(ms, w, rows[:, a], rows[:, b])))
        spread = vals.max(axis=0) - vals.min(axis=0)
        # unsymmetrized shortcut for torsion-symmetric lifts
        A = affine_coefficients(lifts[1], ms, w).A
        unsym = _pair(nv.eta, fr.g, np.einsum("...iab,...a,...b->...i", imm.hess, u, v)
                      + np.einsum("...ijk,...j,...k->...i", A, _matvec(imm.basis, u),
                                  _matvec(imm.basis, v)))
        worst = np.maximum(worst, np.max([agree, lag, spread, np.abs(unsym - hc)], axis=1))
        for k, i in enumerate(order):
            rows_at[i] = (sub.name, *map(float, (param[k, 0], agree[k], lag[k], spread[k])))
    res.csv_rows = [rows_at[i] for i in sorted(rows_at)]
    tols = (1e-5, 1e-6, 1e-8, 1e-7)
    labels = ("symplectic vs connection second fundamental form",
              "Lagrangean residual of the normal bundle",
              "lift independence of the second fundamental form",
              "unsymmetrized shortcut (torsion-symmetric lift)")
    for label, residual, tol in zip(labels, worst, tols):
        res.check(label, residual, tol)
    return res


def task_lift_independence(ms, p) -> TaskResult:
    samples, checks, seed = p["samples"], p["checks"], p["seed"]
    rng = SplitMix64(seed)
    res = TaskResult("lift-independence", ms, ("check", "max_spread"), samples=samples, seed=seed)

    if "curvature" in checks or "covariant" in checks:
        lifts = [classical_lift("berwald", ms), classical_lift("cartan", ms)]
        lifts += [random_admissible_lift(ms, seed + 100 + i, enforce_t1=True)
                  for i in range(p["random_lifts"])]
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
            # R of the order-5 frame that every lift_curvature call below reads,
            # bit for bit the order-4 frame's R: the points are lifted once
            base = _matvec(PointFrame(ms, w, order=5).R, u)
            worst = max(float(np.max(np.abs(lift_curvature(lf, ms, w, u) - base)))
                        for lf in lifts)
            res.check("curvature endomorphism across lifts", worst, 1e-7, row=("curvature", worst))
        if "covariant" in checks:
            W, U = (ident.AffineField.stack(col) for col in zip(*fields))
            wx = W(w.x)
            ww = TangentVector(w.x, wx)
            vals = [_matvec(U.A, wx) + np.einsum("...ijk,...j,...k->...i",
                                                 affine_coefficients(lf, ms, ww).A, wx, U(w.x))
                    for lf in lifts]
            worst = float(np.max(np.abs(np.max(vals, axis=0) - np.min(vals, axis=0))))
            res.check("covariant derivative D^W_W across lifts", worst, 1e-7,
                      row=("covariant", worst))

    if "affine_families" in checks:
        fr = PointFrame(ms, TangentVector.stack([random_tangent(ms, rng) for _ in range(samples)]),
                        order=4)
        A = {k: affine_coefficients(classical_lift(k, ms), ms, fr.w).A for k in CLASSICAL}
        claimed = np.einsum("...ijk,...j,...k->...i", A["cartan"], fr.y, fr.y)
        worst_bh = float(max(np.max(np.abs(A["berwald"] - A["hashiguchi"])),
                             np.max(np.abs(claimed - 2.0 * fr.G))))
        worst_cc = float(np.max(np.abs(A["cartan"] - A["chern-rund"])))
        gap = float(np.max(np.abs(A["cartan"] - A["berwald"])))
        res.check("Berwald and Hashiguchi families coincide", worst_bh, 1e-12,
                  row=("berwald_vs_hashiguchi", worst_bh))
        res.check("Cartan and Chern-Rund families coincide", worst_cc, 1e-12,
                  row=("cartan_vs_chern_rund", worst_cc))
        res.check("the two families differ somewhere", gap, 1e-3, ">", row=("family_gap", gap))
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

# The parameters of each task, besides "seed", as parameter tables: the keys a
# scenario may name, their defaults and their kinds.
PARAMETERS = {
    "check-metric": {
        "samples": (100, _count), "identity_samples": (25, _count),
        "tolerances": ({}, {"homogeneity": (1e-10, _positive), "gww": (1e-10, _positive)}),
        "tensor_identities": (False, _flag)},
    "condition-matrix": {
        "samples": (50, _count), "tolerance": (1e-7, _positive),
        "expect": ({}, _names(CLASSICAL, _names(ALL_CONDITIONS))),
        "expect_fail": ({}, _names(CLASSICAL, _names(ALL_CONDITIONS, _positive))),
        "expect_exact": ({}, _names(CLASSICAL, _names(ALL_CONDITIONS))),
        "identities": (False, _flag)},
    "curvature-sweep": {
        "flags": (100, _count), "expect_value": (None, _number), "tolerance": (1e-6, _positive),
        "christoffel_check": (False, _flag)},
    "geodesic": {
        "x0": (_padded(), _vector), "y0": (_padded(1.0), _vector), "t": (1.0, _number),
        "nodes": (401, _count)},
    "jacobi-compare": {
        "samples": (10, _count), "t": (1.0, _number), "constant_curvature": (None, _number)},
    "second-variation": {
        "mode": ("fixed", _name(("fixed", "submanifold"))),
        # the start point and direction of the first line in submanifold mode
        "x0": (_padded(0.05, -0.1), _vector), "direction": (_padded(0.9, 0.45), _vector)},
    "sff-compare": {
        "samples": (10, _count),
        "submanifolds": ([{"shape": "circle", "radius": 1.0},
                          {"shape": "line", "point": [0.1, -0.2], "direction": [0.8, 0.6]}],
                         _submanifolds)},
    "lift-independence": {
        "samples": (25, _count), "random_lifts": (5, _natural),
        "checks": (("curvature", "covariant"),
                   _names(("curvature", "covariant", "affine_families")))},
}
SCENARIO_KEYS = ("version", "task", "metric", "parameters", "name")


# -- scenario runner ----------------------------------------------------------------


def _parse_scenario(cfg):
    """The metric of scenario ``cfg`` and its task's complete parameters."""
    if not isinstance(cfg, dict):
        raise ConfigError("scenario must be a JSON object")
    _refuse_unknown_keys(cfg, SCENARIO_KEYS, "the scenario")
    if cfg.get("version") != 1:
        raise ConfigError("scenario must declare \"version\": 1")
    task = cfg.get("task")
    if not isinstance(task, str) or task not in PARAMETERS:
        raise ConfigError(f"task must be one of {tuple(PARAMETERS)}, got {task!r}")
    name = cfg.get("name", task)   # the CSV <out>/<name>.csv must stay inside <out>
    if not isinstance(name, str) or name in ("", "..") or "/" in name or "\\" in name:
        raise ConfigError(f"scenario name must be a plain file name, got {name!r}")
    ms = metric_from_config(cfg.get("metric"))
    return ms, _parse({"seed": (0, _natural), **PARAMETERS[task]}, cfg.get("parameters", {}),
                      ms.dim, f"the parameters of task {task!r}")


def run_scenario_config(cfg: dict, out_dir=None, seed_override=None,
                        stream=sys.stdout) -> int:
    ms, p = _parse_scenario(cfg)
    p["seed"] = p["seed"] if seed_override is None else int(seed_override)
    name = cfg.get("name", cfg["task"])
    t0 = time.perf_counter()
    try:
        result = TASKS[cfg["task"]](ms, p)
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
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"scenario file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return run_scenario_config(cfg, out_dir=out_dir, seed_override=seed_override, stream=stream)


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
            x0 = args.x0.split(",")
            cfg = {"kind": args.metric, "dim": len(x0)}
            if args.metric == "randers":
                cfg["beta"] = ([_number("beta", v) for v in args.beta.split(",")] if args.beta
                               else [0.5] + [0.0] * (len(x0) - 1))
            ms = metric_from_config(cfg)
            p = _parse(PARAMETERS["geodesic"], {"x0": x0, "y0": args.y0.split(","), "t": args.t,
                                                "nodes": args.nodes}, ms.dim, "the options")
            geo = integrate_geodesic(ms, TangentVector(p["x0"], p["y0"]), p["t"], nodes=p["nodes"])
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
