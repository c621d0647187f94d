"""Per-layer counters and timers, attached from outside the program.

``Tracer`` wraps public functions of each finslergeo module by rebinding
every module attribute (and class attribute) that names them, so calls are
caught where they are looked up, including names imported with
``from .x import y``. ``uninstall`` puts every original back. Nothing under
``src/`` is edited.

Timers are inclusive and count only the outermost call of a timer, so a
function that recurses (nested jet lifts) or calls another function of the
same timer is not counted twice.
"""

from __future__ import annotations

import math
import statistics
import sys
from collections import defaultdict

LIFT_CLASSES = tuple(f"{m}.{k}" for m in ("randers_var_n2", "funk_n2", "funk_n3")
                     for k in ("berwald", "cartan", "random"))
MUL_SPACES = ((4, 4), (4, 5), (6, 4), (6, 5))
VARIATIONAL_FNS = ("integrate_geodesic", "jacobi_integrate", "jacobi_variation_oracle",
                   "parallel_transport", "second_variation_formula",
                   "variation_energy_derivatives", "geodesic_residual")
IDENTITY_FNS = ("nabla_s_g_residual", "symmetry_residual", "metric_compat_residual",
                "metric_compat_geodesic_residual", "family_metric_identity_residual",
                "spray_derivative_residual", "cprime_transport_residual",
                "tensor_identity_residuals")
# The bundled corpus and task names at the time the benchmark was defined;
# the metric list in BENCHMARK.json is fixed, so these are too.
SCENARIOS = ("01_check_metric_euclidean", "02_identities_randers", "03_identities_funk",
             "04_condition_matrix_randers", "05_condition_matrix_minkowski",
             "06_identity_suite_lifts", "07_riemannian_reduction_sphere",
             "08_riemannian_reduction_hyperbolic", "09_curvature_sweep_funk",
             "10_lift_independence_randers", "11_family_coincidence_funk",
             "12_jacobi_sphere", "13_jacobi_hyperbolic", "14_jacobi_randers",
             "15_jacobi_funk", "16_second_variation_euclidean",
             "17_second_variation_sphere", "18_second_variation_submanifold",
             "19_sff_compare_euclidean", "20_sff_compare_randers", "21_geodesic_funk")
TASKS = ("check-metric", "condition-matrix", "curvature-sweep", "geodesic",
         "jacobi-compare", "second-variation", "sff-compare", "lift-independence")


def per_layer_spec():
    """(name, unit) of every per-layer metric, in report order.

    Counts and times marked ``/op`` are divided by the ops of the traced
    phase; a verify-corpus op is one corpus pass, so there they are per pass.
    """
    spec = [("jets.mul_calls", "count/op"), ("jets.mul_pair_products", "count/op"),
            ("jets.object_mul_calls", "count/op")]
    for v, o in MUL_SPACES:
        spec += [(f"jets.mul_us.v{v}o{o}", "us"), (f"jets.mul_pairs.v{v}o{o}", "count")]
    spec += [("jets.lift_calls", "count/op"), ("jets.lift_s", "s/op"),
             ("jets.solve_linear_calls", "count/op"), ("jets.solve_linear_s", "s/op"),
             ("jets.space_build_s", "s"),
             ("metrics.fundamental_tensor_s", "s/op"), ("metrics.cartan_tensor_s", "s/op")]
    spec += [(f"spray.frames.o{o}", "count/op") for o in (2, 3, 4, 5)]
    spec += [("spray.frame_s.o4", "s/op"), ("spray.frame_s.o5", "s/op"),
             ("spray.frame_distinct_ratio", "ratio"),
             ("spray.spray_values_calls", "count/op"), ("spray.spray_values_s", "s/op"),
             ("spray.extract_s", "s/op")]
    spec += [(f"lifts.lift_curvature_ms.{c}", "ms/call") for c in LIFT_CLASSES]
    spec += [("lifts.condition_residuals_s", "s/op"), ("lifts.affine_coefficients_s", "s/op"),
             ("lifts.covariant_derivative_curve_s", "s/op")]
    spec += [("variational.solves", "count/op"), ("variational.nfev", "count/op"),
             ("variational.steps", "count/op"), ("variational.rhs_per_step", "ratio")]
    spec += [(f"variational.{fn}_s", "s/op") for fn in VARIATIONAL_FNS]
    spec += [("submanifolds.normal_cone_solve_calls", "count/op"),
             ("submanifolds.normal_cone_solve_s", "s/op"),
             ("submanifolds.sff_connection_s", "s/op"),
             ("submanifolds.sff_symplectic_s", "s/op"),
             ("identities.s", "s/op")]
    spec += [(f"cli.scenario_s.{s}", "s/op") for s in SCENARIOS]
    spec += [(f"cli.task_s.{t}", "s/op") for t in TASKS]
    spec.append(("trace_overhead_frac", "ratio"))
    # The untraced twin's op tail. It moves from run to run by more than any
    # useful bound, so it is reported here rather than as an end-to-end metric.
    spec.append(("op_tail_ms", "ms"))
    return spec


def metric_label(ms) -> str:
    return f"{ms.name}_n{ms.dim}"


def lift_kind(lift) -> str:
    return "random" if lift.name.startswith("random") else lift.name


def pair_count(nvars: int, order: int) -> int:
    """Coefficient pairs (a, b) with |a| + |b| <= order: the truncated product's work."""
    per_degree = [math.comb(d + nvars - 1, nvars - 1) for d in range(order + 1)]
    return sum(per_degree[d1] * per_degree[d2]
               for d1 in range(order + 1) for d2 in range(order + 1 - d1))


class Tracer:
    """Counters and timers over finslergeo's public functions.

    ``install`` patches, ``uninstall`` restores; ``on`` gates recording so
    the benchmark's own correctness checks can run untraced in between.
    ``now`` is the clock the timers read.
    """

    def __init__(self, fg, now):
        self.fg = fg
        self.now = now
        self.on = False
        self.counts = defaultdict(float)
        self.times = defaultdict(float)
        self.lift_ms = defaultdict(list)
        self.frame_keys = set()
        self._frame_srcs = {}
        self._saved = []
        self._pairs = {}

    # -- patching ----------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "finslergeo" or name.startswith("finslergeo."))]

    def _rebind(self, fn, wrapper):
        """Replace ``fn`` by ``wrapper`` under every module name bound to it."""
        found = False
        for mod in self._modules():
            for name, val in list(vars(mod).items()):
                if val is fn:
                    self._saved.append((mod, name, val))
                    setattr(mod, name, wrapper)
                    found = True
        if not found:
            raise RuntimeError(f"cannot trace {fn!r}: no module binds it")

    def _set_class_attr(self, cls, name, value):
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, value)

    def _timed(self, fn, timer=None, counter=None, depth=None):
        """Count and time ``fn``; wrappers given one ``depth`` share one outermost call."""
        tracer = self
        depth = [0] if depth is None else depth

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if counter:
                tracer.counts[counter] += 1
            if timer is None or depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            t0 = tracer.now()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.times[timer] += tracer.now() - t0
                depth[0] = 0

        wrapper.__wrapped__ = fn
        return wrapper

    def _trace_fn(self, fn, timer=None, counter=None):
        self._rebind(fn, self._timed(fn, timer, counter))

    def install(self):
        fg = self.fg
        jets, spray, lifts, var, subm, ident, cli, mets = (
            fg.jets, fg.spray, fg.lifts, fg.variational, fg.submanifolds, fg.identities,
            fg.cli, fg.metrics)
        self._trace_fn(jets.lift_any, "jets.lift_s", "jets.lift_calls")
        self._trace_fn(jets.solve_linear, "jets.solve_linear_s", "jets.solve_linear_calls")
        self._trace_fn(mets.fundamental_tensor, "metrics.fundamental_tensor_s")
        self._trace_fn(mets.cartan_tensor, "metrics.cartan_tensor_s")
        self._trace_fn(spray.spray_values, "spray.spray_values_s", "spray.spray_values_calls")
        for fn in ("condition_residuals", "affine_coefficients", "covariant_derivative_curve"):
            self._trace_fn(getattr(lifts, fn), f"lifts.{fn}_s")
        for fn in VARIATIONAL_FNS:
            self._trace_fn(getattr(var, fn), f"variational.{fn}_s")
        self._trace_fn(subm.normal_cone_solve, "submanifolds.normal_cone_solve_s",
                       "submanifolds.normal_cone_solve_calls")
        self._trace_fn(subm.sff_connection, "submanifolds.sff_connection_s")
        self._trace_fn(subm.sff_symplectic, "submanifolds.sff_symplectic_s")
        depth = [0]
        for fn in IDENTITY_FNS:
            fn = getattr(ident, fn)
            self._rebind(fn, self._timed(fn, "identities.s", depth=depth))
        self._rebind(lifts.lift_curvature, self._lift_curvature(lifts.lift_curvature))
        self._rebind(var.solve_ivp, self._solve_ivp(var.solve_ivp))
        self._rebind(cli.run_scenario_config, self._scenario(cli.run_scenario_config))
        for task, fn in list(cli.TASKS.items()):
            self._saved.append((cli.TASKS, task, fn))
            cli.TASKS[task] = self._timed(fn, f"cli.task_s.{task}")
        self._set_class_attr(spray.PointFrame, "__init__",
                             self._frame_init(spray.PointFrame.__init__))
        self._set_class_attr(spray.PointFrame, "_get", self._frame_get(spray.PointFrame._get))
        self._set_class_attr(jets.JetSpace, "__init__", self._timed(
            jets.JetSpace.__init__, "jets.space_build_s"))
        mul = self._jet_mul(jets.Jet.__mul__)
        self._set_class_attr(jets.Jet, "__mul__", mul)
        self._set_class_attr(jets.Jet, "__rmul__", mul)

    def uninstall(self):
        while self._saved:
            owner, name, val = self._saved.pop()
            if isinstance(owner, dict):
                owner[name] = val
            else:
                setattr(owner, name, val)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.on = False
        self.uninstall()

    def reset(self):
        """Zero every counter and timer except the set-up one, ``jets.space_build_s``."""
        built = self.times["jets.space_build_s"]
        self.counts.clear()
        self.times.clear()
        self.times["jets.space_build_s"] = built
        self.lift_ms.clear()
        self.frame_keys.clear()
        self._frame_srcs.clear()

    # -- special wrappers ----------------------------------------------------

    def _lift_curvature(self, fn):
        tracer = self

        def wrapper(lift, src, w, u, *args, **kwargs):
            if not tracer.on:
                return fn(lift, src, w, u, *args, **kwargs)
            t0 = tracer.now()
            out = fn(lift, src, w, u, *args, **kwargs)
            tracer.lift_ms[f"{metric_label(src)}.{lift_kind(lift)}"].append(
                1e3 * (tracer.now() - t0))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _solve_ivp(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            sol = fn(*args, **kwargs)
            if tracer.on:
                tracer.counts["variational.solves"] += 1
                tracer.counts["variational.nfev"] += sol.nfev
                tracer.counts["variational.steps"] += len(sol.t) - 1
            return sol

        wrapper.__wrapped__ = fn
        return wrapper

    def _scenario(self, fn):
        tracer = self

        def wrapper(cfg, *args, **kwargs):
            if not tracer.on:
                return fn(cfg, *args, **kwargs)
            t0 = tracer.now()
            try:
                return fn(cfg, *args, **kwargs)
            finally:
                tracer.times[f"cli.scenario_s.{cfg.get('name', cfg['task'])}"] += \
                    tracer.now() - t0

        wrapper.__wrapped__ = fn
        return wrapper

    def _frame_init(self, fn):
        tracer = self

        def wrapper(frame, src, w, order=4):
            if not tracer.on:
                return fn(frame, src, w, order)
            tracer.counts[f"spray.frames.o{order}"] += 1
            tracer._frame_srcs[id(src)] = src   # keeps ids unique while keys live
            tracer.frame_keys.add((id(src), w.x.tobytes(), w.y.tobytes(), order))
            t0 = tracer.now()
            try:
                return fn(frame, src, w, order)
            finally:
                tracer.times[f"spray.frame_s.o{order}"] += tracer.now() - t0

        wrapper.__wrapped__ = fn
        return wrapper

    def _frame_get(self, fn):
        tracer = self
        depth = [0]

        def wrapper(frame, key, builder):
            if not tracer.on or depth[0] or key in frame._cache:
                return fn(frame, key, builder)
            depth[0] = 1
            t0 = tracer.now()
            try:
                return fn(frame, key, builder)
            finally:
                tracer.times["spray.extract_s"] += tracer.now() - t0
                depth[0] = 0

        wrapper.__wrapped__ = fn
        return wrapper

    def _jet_mul(self, fn):
        tracer = self
        Jet = self.fg.jets.Jet
        counts = self.counts
        pairs = self._pairs

        def wrapper(a, b):
            if tracer.on:
                counts["jets.mul_calls"] += 1
                nested = a.c.dtype == object
                if type(b) is Jet:
                    nested = nested or b.c.dtype == object
                    if b.space is a.space:
                        sp = a.space
                        n = pairs.get(sp)
                        if n is None:
                            n = pairs[sp] = pair_count(sp.nvars, sp.order)
                        counts["jets.mul_pair_products"] += n
                if nested:
                    counts["jets.object_mul_calls"] += 1
            return fn(a, b)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- report ----------------------------------------------------------------

    def report(self, ops: int) -> dict:
        """Per-layer values; ``/op`` metrics are divided by ``ops``."""
        out = {}
        for name, unit in per_layer_spec():
            if name.startswith("lifts.lift_curvature_ms."):
                calls = self.lift_ms.get(name.removeprefix("lifts.lift_curvature_ms."))
                out[name] = statistics.median(calls) if calls else 0.0
            elif name == "spray.frame_distinct_ratio":
                built = sum(self.counts[f"spray.frames.o{o}"] for o in (2, 3, 4, 5))
                out[name] = len(self.frame_keys) / built if built else 0.0
            elif name == "variational.rhs_per_step":
                steps = self.counts["variational.steps"]
                out[name] = self.counts["variational.nfev"] / steps if steps else 0.0
            elif unit.endswith("/op"):
                total = self.counts[name] if unit.startswith("count") else self.times[name]
                out[name] = total / ops
            elif name in self.times:
                out[name] = self.times[name]
        return out
