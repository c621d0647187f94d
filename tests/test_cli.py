import importlib.util
import inspect
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from finslergeo import cli
from finslergeo.errors import ConfigError


def _scenario(tmp_path, cfg, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return p


CHECK_EUCLID = {
    "version": 1, "task": "check-metric", "metric": {"kind": "euclidean", "dim": 2},
    "parameters": {"samples": 50, "seed": 7,
                   "tolerances": {"homogeneity": 1e-12, "gww": 1e-12}},
    "name": "euclid_check",
}


def test_run_scenario_exit_zero(tmp_path):
    path = _scenario(tmp_path, CHECK_EUCLID)
    code = cli.run_scenario(path, out_dir=tmp_path / "out", stream=io.StringIO())
    assert code == 0
    assert (tmp_path / "out" / "euclid_check.csv").exists()


def test_csv_determinism(tmp_path):
    cfg = {
        "version": 1, "task": "condition-matrix",
        "metric": {"kind": "randers", "dim": 2,
                   "beta": ["0.35 + 0.2*sin(x2)", "0.2*cos(x1)"]},
        "parameters": {"samples": 8, "seed": 3}, "name": "cm",
    }
    path = _scenario(tmp_path, cfg)
    for d in ("a", "b"):
        cli.run_scenario(path, out_dir=tmp_path / d, stream=io.StringIO())
    assert (tmp_path / "a" / "cm.csv").read_bytes() == (tmp_path / "b" / "cm.csv").read_bytes()


def test_config_error_no_artifacts(tmp_path):
    bad = dict(CHECK_EUCLID)
    bad["task"] = "not-a-task"
    path = _scenario(tmp_path, bad)
    out = tmp_path / "out"
    with pytest.raises(ConfigError):
        cli.run_scenario(path, out_dir=out, stream=io.StringIO())
    assert not out.exists()


def test_a_scenario_builds_its_metric_once(tmp_path, monkeypatch):
    seen = []
    build = cli.metric_from_config
    monkeypatch.setattr(cli, "metric_from_config", lambda cfg: seen.append(cfg) or build(cfg))
    assert cli.main(["run", str(_scenario(tmp_path, CHECK_EUCLID))]) == 0
    assert seen == [CHECK_EUCLID["metric"]]


def test_version_field_required(tmp_path):
    bad = dict(CHECK_EUCLID)
    bad.pop("version")
    with pytest.raises(ConfigError):
        cli.run_scenario(_scenario(tmp_path, bad), stream=io.StringIO())


@pytest.mark.parametrize("task, params", [
    ("curvature-sweep", {"flags": 0, "expect_value": -0.25}),
    ("jacobi-compare", {"samples": 0}),
    ("condition-matrix", {"samples": -3}),
    ("check-metric", {"tensor_identities": True, "identity_samples": 0}),
], ids=["flags", "samples-zero", "samples-negative", "identity_samples"])
def test_counts_below_one_are_config_errors(tmp_path, capsys, task, params):
    cfg = {"version": 1, "task": task, "metric": {"kind": "funk", "dim": 2},
           "parameters": params}
    assert cli.main(["run", str(_scenario(tmp_path, cfg))]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_expression_rejects_unsafe_constructs():
    with pytest.raises(ConfigError):
        cli.compile_expression("__import__('os').system('true')", 2)
    with pytest.raises(ConfigError):
        cli.compile_expression("x1.__class__", 2)
    with pytest.raises(ConfigError):
        cli.compile_expression("unknown_fn(x1)", 2)
    rule = cli.compile_expression("sqrt(y1*y1 + y2*y2) + 0.3*y1", 2)
    assert rule([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.9)


def test_custom_metric_expression_pipeline(tmp_path):
    cfg = {
        "version": 1, "task": "check-metric",
        "metric": {"kind": "custom", "dim": 2, "name": "expr_randers",
                   "f2": "(sqrt(y1*y1 + y2*y2) + 0.3*y1)**2"},
        "parameters": {"samples": 40, "seed": 2,
                       "tolerances": {"homogeneity": 1e-10, "gww": 1e-10}},
        "name": "custom_expr",
    }
    code = cli.run_scenario(_scenario(tmp_path, cfg), stream=io.StringIO())
    assert code == 0


def test_residual_failure_exit_two(tmp_path):
    cfg = {
        "version": 1, "task": "curvature-sweep", "metric": {"kind": "funk", "dim": 2},
        "parameters": {"flags": 5, "seed": 1, "expect_value": -0.3,
                       "tolerance": 1e-6},  # wrong expected curvature
        "name": "wrong",
    }
    code = cli.run_scenario(_scenario(tmp_path, cfg), stream=io.StringIO())
    assert code == 2


def test_invalid_metric_reports_exit_one(tmp_path):
    cfg = {
        "version": 1, "task": "check-metric",
        "metric": {"kind": "randers", "dim": 2, "beta": [1.2, 0.0]},
        "parameters": {"samples": 30, "seed": 4}, "name": "invalid_randers",
    }
    out = io.StringIO()
    code = cli.run_scenario(_scenario(tmp_path, cfg), stream=out)
    assert code == 2  # PD failures reported, not thrown
    assert ("  [FAIL] positive-definiteness failures: 3.000e+00 < 5.0e-01"
            in out.getvalue().splitlines())


@pytest.mark.parametrize("dim, beta", [(3, [0.1, 0.2]), (2, [0.1, 0.2, 0.3]),
                                       (2, ["0.1 * x1"]), (2, ["0.1", "0.2 * x2", "0.0"])],
                         ids=["numeric-short", "numeric-long", "expr-short", "expr-long"])
def test_randers_beta_of_wrong_length_is_a_config_error(dim, beta):
    with pytest.raises(ConfigError, match="'beta' list of"):
        cli.metric_from_config({"kind": "randers", "dim": dim, "beta": beta})


def test_geodesic_subcommand_randers_beta_fits_the_dimension(monkeypatch, capsys):
    seen = []
    build = cli.metric_from_config
    monkeypatch.setattr(cli, "metric_from_config", lambda cfg: seen.append(cfg) or build(cfg))
    argv = ["geodesic", "--metric", "randers", "--x0", "0,0,0", "--y0", "0,0.6,0.8",
            "--t", "0.5", "--nodes", "3"]
    assert cli.main(argv) == 0
    assert seen[0]["beta"] == [0.5, 0.0, 0.0]
    assert capsys.readouterr().out.splitlines()[0] == "t,x1,x2,x3,y1,y2,y3"
    assert cli.main(argv + ["--beta", "0.5,0"]) == 1
    assert "'beta' list of 3 entries" in capsys.readouterr().err


def _perfbench_parsers():
    """The regexes the benchmark reads the report lines with."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.VerifyCorpus._CHECK, mod.VerifyCorpus._EXACT


def test_rendered_lines_are_pinned():
    check_re, exact_re = _perfbench_parsers()
    lines = {
        cli.Check("homogeneity max residual", 2.5381e-16, 1e-12):
            "  [PASS] homogeneity max residual: 2.538e-16 < 1.0e-12",
        cli.Check("berwald violates M6", 3.2341, 1e-3, ">"):
            "  [PASS] berwald violates M6: 3.234e+00 > 1.0e-03",
        cli.Check("positive-definiteness failures", 3.0, 0.5):
            "  [FAIL] positive-definiteness failures: 3.000e+00 < 5.0e-01",
        cli.Check("the two families differ somewhere", 1e-5, 1e-3, ">"):
            "  [FAIL] the two families differ somewhere: 1.000e-05 > 1.0e-03",
    }
    for check, line in lines.items():
        assert cli.render(check) == line
        m = check_re.match(line)
        assert (m[1], m[2], float(m[3]), m[4], float(m[5])) == (
            cli.verdict(check.passed), check.label, float(f"{check.residual:.3e}"),
            check.relation, check.tol)
    for mismatches, verdict in ((0, "PASS"), (2, "FAIL")):
        label = "berwald passes exactly ['M1', 'T1'] (got ['M1', 'T1'])"
        line = cli.render(cli.Check(label, mismatches, 0, "="))
        assert line == f"  [{verdict}] {label}"
        assert not check_re.match(line)
        assert exact_re.match(line).groups() == (verdict, label)


def test_passed_is_false_exactly_when_a_record_fails(euclid2):
    passing = [cli.Check("small", 1e-9, 1e-6), cli.Check("large", 3.0, 1e-3, ">"),
               cli.Check("match", 0, 0, "=")]
    failing = [cli.Check("small", 1e-3, 1e-6), cli.Check("large", 1e-4, 1e-3, ">"),
               cli.Check("match", 1, 0, "="), cli.Check("nan", float("nan"), 1.0)]
    res = cli.TaskResult("check-metric", euclid2, ("quantity", "value"))
    assert res.passed
    for check in passing:
        res.check(check.label, check.residual, check.tol, check.relation)
    assert res.passed and res.checks == passing
    for bad in failing:
        res.checks = passing + [bad]
        assert not res.passed


@pytest.mark.parametrize("scenario", ["01_check_metric_euclidean.json",
                                      "05_condition_matrix_minkowski.json"])
def test_printed_lines_are_the_task_records(scenario):
    cfg = dict(dict(cli.bundled_scenarios())[scenario])
    out = io.StringIO()
    code = cli.run_scenario_config(cfg, stream=out)
    result = cli.TASKS[cfg["task"]](*cli._parse_scenario(cfg))
    lines = out.getvalue().splitlines()
    assert lines[1:] == [cli.render(c) for c in result.checks]
    assert code == (0 if result.passed else 2)


def test_expect_exact_mismatch_fails_the_scenario():
    cfg = dict(dict(cli.bundled_scenarios())["05_condition_matrix_minkowski.json"])
    cfg["parameters"] = {**cfg["parameters"], "expect_exact": {"berwald": ["T1"]}}
    out = io.StringIO()
    assert cli.run_scenario_config(cfg, stream=out) == 2
    assert "  [FAIL] berwald passes exactly ['T1'] (got [" in out.getvalue()


def test_geodesic_subcommand_stdout(capsys):
    rc = cli.main(["geodesic", "--metric", "euclidean", "--x0", "0,0",
                   "--y0", "1,0", "--t", "1.0", "--nodes", "11"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "t,x1,x2,y1,y2"
    last = [float(v) for v in out[-1].split(",")]
    assert last[0] == pytest.approx(1.0)
    assert last[1] == pytest.approx(1.0)


@pytest.mark.parametrize("task, params", [("geodesic", {"t": 0}),
                                          ("jacobi-compare", {"samples": 1, "t": 0})])
def test_zero_time_span_exits_one(tmp_path, task, params):
    # integrate_geodesic raised a bare ValueError for t = 0: a traceback, not exit 1
    cfg = {"version": 1, "task": task, "metric": {"kind": "funk", "dim": 2},
           "parameters": params, "name": "zero_span"}
    out = io.StringIO()
    assert cli.run_scenario(_scenario(tmp_path, cfg), out_dir=tmp_path / "o", stream=out) == 1
    assert "nonzero time span" in out.getvalue()
    assert not (tmp_path / "o").exists()


def test_geodesic_subcommand_zero_time_exits_one(capsys):
    argv = ["geodesic", "--metric", "euclidean", "--x0", "0,0", "--y0", "1,0", "--t", "0"]
    assert cli.main(argv) == 1
    assert "error: a geodesic needs a nonzero time span" in capsys.readouterr().err


@pytest.mark.parametrize("metric, entry", [
    ({"kind": "randers", "dim": 2, "beta": [True, 0]}, "True"),
    ({"kind": "randers", "dim": 2, "beta": ["0.1 * x2", False]}, "False"),
    ({"kind": "randers", "dim": 2, "beta": ["True * 0.1", "0.0"]}, "True * 0.1"),
    ({"kind": "custom", "dim": 2, "f2": "True*(y1*y1+y2*y2)"}, "True*(y1*y1+y2*y2)"),
], ids=["beta-true", "beta-false-beside-expression", "beta-expression", "f2-expression"])
def test_booleans_are_not_numbers_in_metric_descriptors(tmp_path, capsys, metric, entry):
    # [true, 0] ran as beta = (1, 0), and True*(...) as a custom F^2 that passed check-metric
    with pytest.raises(ConfigError, match=re.escape(repr(entry))):
        cli.metric_from_config(metric)
    cfg = {"version": 1, "task": "check-metric", "metric": metric,
           "parameters": {"samples": 5}}
    assert cli.main(["run", str(_scenario(tmp_path, cfg))]) == 1
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["../escaped_probe", "sub/probe", "sub\\probe", "..", ""])
def test_scenario_name_must_be_a_plain_file_name(tmp_path, capsys, name):
    # "../escaped_probe" with --out o/sub wrote o/escaped_probe.csv
    cfg = dict(CHECK_EUCLID, name=name)
    out = tmp_path / "o" / "sub"
    assert cli.main(["run", str(_scenario(tmp_path, cfg)), "--out", str(out)]) == 1
    assert "scenario name must be a plain file name" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_minkowski_condition_scenario_passes():
    cfgs = dict(cli.bundled_scenarios())
    cfg = dict(cfgs["05_condition_matrix_minkowski.json"])
    cfg["name"] = "mink"
    assert cli.run_scenario_config(cfg, stream=io.StringIO()) == 0


@pytest.mark.parametrize("offset", [271291275, 1440089986])
def test_curvature_sweep_avoids_degenerate_flags(offset):
    """At these verify-all seed offsets scenario 09 used to draw flags with
    u nearly parallel to y (flag invariance 3.7e-09 > 1e-9, or DegenerateFlag)."""
    cfg = dict(dict(cli.bundled_scenarios())["09_curvature_sweep_funk.json"])
    code = cli.run_scenario_config(cfg, seed_override=41 + offset, stream=io.StringIO())
    assert code == 0


def test_seed_variation_stable_pass_pattern(tmp_path):
    cfg = {
        "version": 1, "task": "condition-matrix",
        "metric": {"kind": "randers", "dim": 2,
                   "beta": ["0.35 + 0.2*sin(x2)", "0.2*cos(x1)"]},
        "parameters": {"samples": 6, "seed": 0, "tolerance": 1e-7,
                       "expect": {"berwald": ["T3", "M5"], "cartan": ["T2", "M6", "M7"]},
                       "expect_fail": {"berwald": {"M6": 1e-3}}},
        "name": "seeds",
    }
    path = _scenario(tmp_path, cfg)
    codes = {cli.run_scenario(path, seed_override=s, stream=io.StringIO())
             for s in (1, 2, 3)}
    assert codes == {0}


def test_mutation_sign_flip_fails_jacobi(monkeypatch):
    """Injected-fault smoke test: a sign-flipped curvature must break the
    Jacobi comparison."""
    import finslergeo.variational as variational
    from finslergeo.spray import PointFrame

    class FlippedFrame(PointFrame):
        @property
        def R(self):
            return -super().R

    monkeypatch.setattr(variational, "PointFrame", FlippedFrame)
    cfg = {
        "version": 1, "task": "jacobi-compare",
        "metric": {"kind": "sphere_stereographic", "dim": 2},
        "parameters": {"samples": 2, "seed": 53},
        "name": "mutated",
    }
    assert cli.run_scenario_config(cfg, stream=io.StringIO()) == 2


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "finslergeo.cli", "run", "missing.json"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "configuration error" in proc.stderr


FUNK = {"kind": "funk", "dim": 2}


def _funk(task, **params):
    return {"version": 1, "task": task, "metric": FUNK, "parameters": params}


GEODESIC = {"x0": [0.0, 0.0], "y0": [0.6, 0.3], "t": 0.5, "nodes": 11}


@pytest.mark.parametrize("cfg, key", [
    ({"version": 1, "task": "curvature-sweep", "metric": FUNK,
      "paramters": {"flags": 5, "expect_value": 0.7}}, "paramters"),
    ({"version": 1, "task": "lift-independence", "metric": FUNK,
      "parameters": {"samples": 2, "checks": ["curvatur"]}}, "curvatur"),
    ({"version": 1, "task": "lift-independence", "metric": FUNK,
      "parameters": {"samples": 2, "checks": "curvature"}}, "checks"),
    ({"version": 1, "task": "jacobi-compare", "metric": FUNK,
      "parameters": {"samples": 1, "tolerence": 1e-30}}, "tolerence"),
    ({"version": 1, "task": "curvature-sweep", "metric": {"kind": "funk", "dimension": 3},
      "parameters": {"flags": 5, "expect_value": -0.25}}, "dimension"),
    ({"version": 1, "task": "sff-compare", "metric": {"kind": "euclidean"},
      "parameters": {"samples": 1, "submanifolds": [{"shape": "circle", "raduis": 0.5}]}},
     "raduis"),
    ({"version": 1, "task": "condition-matrix", "metric": FUNK,
      "parameters": {"samples": 2, "identities": {"sample": 2}}}, "identities"),
    ({"version": 1, "task": "curvature-sweep", "metric": FUNK,
      "parameters": {"flags": 5, "expect_value": -0.25, "tolerance": "tight"}}, "tolerance"),
    ({"version": 1, "task": "condition-matrix", "metric": FUNK,
      "parameters": {"samples": 3, "expect": {"berwlad": ["T1"]}}}, "berwlad"),
    ({"version": 1, "task": "condition-matrix", "metric": FUNK,
      "parameters": {"samples": 3, "expect_fail": {"cartan": {"T9": 1e-3}}}}, "T9"),
    ({"version": 1, "task": "check-metric", "metric": FUNK,
      "parameters": {"samples": 3, "tolerances": {"homogenity": 1e-30}}}, "homogenity"),
    ({"version": 1, "task": "jacobi-compare", "metric": FUNK,
      "parameters": {"samples": 1, "t": "long"}}, "t"),
    (_funk("geodesic", **GEODESIC, seed="abc"), "seed"),
    (_funk("geodesic", **GEODESIC, seed=1.7), "seed"),
    (_funk("geodesic", **{**GEODESIC, "nodes": 0}), "nodes"),
    (_funk("geodesic", **{**GEODESIC, "y0": [0.6]}), "y0"),
    (_funk("check-metric", samples=2.9), "samples"),
    (_funk("check-metric", samples=True), "samples"),
    (_funk("condition-matrix", samples=3, identities="false"), "identities"),
    (_funk("check-metric", samples=3, tensor_identities="no"), "tensor_identities"),
    (_funk("check-metric", samples=3, tolerances={"gww": 0}), "tolerances.gww"),
    (_funk("lift-independence", samples=2, random_lifts=-1), "random_lifts"),
    (_funk("condition-matrix", samples=2, lifts="berwald"), "lifts"),
    (_funk("curvature-sweep", flags=5, expect_value=-0.25, tolerance=float("inf")), "tolerance"),
    (_funk("curvature-sweep", flags=5, flag_invariance=False), "flag_invariance"),
    (_funk("sff-compare", samples=1, submanifolds=[{"shape": "circle", "radius": "big"}]),
     "radius"),
    (_funk("second-variation", mode="free"), "mode"),
], ids=["top-level", "checks-entry", "checks-string", "task", "metric", "submanifold",
        "identities", "not-a-number", "expect-lift", "expect-condition", "tolerance-key",
        "task-number", "seed-word", "seed-fraction", "nodes-zero", "vector-length",
        "samples-fraction", "samples-boolean", "flag-word-false", "flag-word-no",
        "tolerance-zero", "random-lifts-negative", "lifts-string", "tolerance-infinite",
        "removed-key", "submanifold-radius", "mode"])
def test_unknown_keys_and_bad_numbers_are_config_errors(tmp_path, capsys, cfg, key):
    # a misspelled key used to be ignored, its default used and the scenario
    # passed; a misspelled name or a word for a number ended in a traceback, and
    # a value of the wrong type or range ran as some other value (2.9 samples
    # as 2, "false" as true, the string "berwald" as its letters)
    assert cli.main(["run", str(_scenario(tmp_path, cfg))]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert repr(key) in err or f"parameter {key} " in err


# Keys that scenarios no longer take, each with the one value the corpus gave
# it: the value is a constant of the task now. The identity battery's table
# became the flag ``identities``, which refuses the old table.
REMOVED_KEYS = [
    ("check-metric", "expect_pd_failures", False),
    ("condition-matrix", "lifts", ["berwald", "cartan", "chern-rund", "hashiguchi"]),
    ("condition-matrix", "conditions",
     ["T1", "T2", "T3", "M1", "M2", "M3", "M4", "M5", "M6", "M7"]),
    ("condition-matrix", "identities.samples", 10),
    ("condition-matrix", "identities.tolerance", 1e-7),
    ("condition-matrix", "identities.fd_tolerance", 1e-6),
    ("curvature-sweep", "affine_tolerance", 1e-8),
    ("geodesic", "rtol", 1e-9),
    ("jacobi-compare", "tolerance", 1e-3),
    ("jacobi-compare", "profile_tolerance", 1e-3),
    ("second-variation", "tolerance", 1e-3),
    ("sff-compare", "tolerance", 1e-5),
    ("sff-compare", "lagrangean_tolerance", 1e-6),
    ("lift-independence", "tolerance", 1e-7),
    ("lift-independence", "coincidence_tolerance", 1e-12),
    ("lift-independence", "family_difference_floor", 1e-3),
]


@pytest.mark.parametrize("task, key, value", REMOVED_KEYS,
                         ids=[f"{t}:{k}" for t, k, _ in REMOVED_KEYS])
def test_removed_keys_are_config_errors(tmp_path, capsys, task, key, value):
    outer, _, inner = key.partition(".")
    params = {outer: {inner: value} if inner else value}
    assert cli.main(["run", str(_scenario(tmp_path, _funk(task, **params)))]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert repr(outer) in err or f"parameter {outer} " in err


def test_no_bundled_scenario_sets_a_removed_key():
    for name, cfg in cli.bundled_scenarios():
        params = cfg.get("parameters", {})
        for task, key, _ in REMOVED_KEYS:
            outer, _, inner = key.partition(".")
            if cfg["task"] == task and outer in params:
                assert inner and type(params[outer]) is bool, (name, key)


@pytest.mark.parametrize("argv", [
    ["--metric", "euclidean", "--x0", "a,b", "--y0", "1,0"],
    ["--metric", "randers", "--x0", "0,0", "--y0", "1,0", "--beta", "0.1,x"],
    ["--metric", "euclidean", "--x0", "0,0", "--y0", "1"],
], ids=["x0-words", "beta-word", "y0-length"])
def test_geodesic_subcommand_refuses_bad_input(capsys, argv):
    assert cli.main(["geodesic", *argv]) == 1
    assert "configuration error" in capsys.readouterr().err


def _keys_read(*fns):
    # p["key"] and p["key"]["nested"], as "key" and "key.nested"; a nested read
    # also reads the enclosing keys
    keys = set()
    for chain in re.findall(r'\bp((?:\["\w+"\])+)', "".join(map(inspect.getsource, fns))):
        parts = re.findall(r'"(\w+)"', chain)
        keys |= {".".join(parts[:i]) for i in range(1, len(parts) + 1)}
    return keys


def _keys_declared(table, prefix=""):
    keys = set()
    for key, (_, kind) in table.items():
        keys.add(prefix + key)
        if isinstance(kind, dict):
            keys |= _keys_declared(kind, f"{prefix}{key}.")
    return keys


def test_key_tables_match_the_keys_the_code_reads():
    assert set(cli.PARAMETERS) == set(cli.TASKS)
    helpers = {"condition-matrix": [cli._run_identity_battery]}
    for task, fn in cli.TASKS.items():
        assert _keys_read(fn, *helpers.get(task, [])) == \
            {"seed"} | _keys_declared(cli.PARAMETERS[task]), task
    assert _keys_read(cli.submanifold_from_config) == \
        {k for table in cli.SHAPES.values() for k in _keys_declared(table)}
    # the metric descriptor reads its keys as cfg.get("key", ...) and cfg["key"]
    assert set(re.findall(r'cfg(?:\.get\(|\[)"(\w+)"', inspect.getsource(cli.metric_from_config))) \
        == {"kind", "dim"} | {k for keys in cli.METRIC_KEYS.values() for k in keys}


def test_identity_battery_in_three_dimensions():
    cfg = dict(cli.bundled_scenarios())["06_identity_suite_lifts.json"]
    cfg["metric"]["dim"] = 3
    cfg["metric"]["beta"].append("0.1*x3")
    out = io.StringIO()
    assert cli.run_scenario_config(cfg, stream=out) == 0
    assert out.getvalue().count("[PASS]") == 7


@pytest.mark.parametrize("scenario", ["12_jacobi_sphere", "16_second_variation_euclidean",
                                      "18_second_variation_submanifold",
                                      "19_sff_compare_euclidean", "20_sff_compare_randers"])
def test_g_alone_builds_no_order_two_frame(scenario, monkeypatch):
    from finslergeo.spray import PointFrame

    orders = []
    init = PointFrame.__init__

    def counting(self, src, w, order=4):
        orders.append(order)
        init(self, src, w, order)

    monkeypatch.setattr(PointFrame, "__init__", counting)
    cfg = dict(cli.bundled_scenarios())[scenario + ".json"]
    assert cli.run_scenario_config(cfg, stream=io.StringIO()) == 0
    assert orders and 2 not in orders


def test_lift_independence_lifts_its_samples_once(monkeypatch):
    # R is read off the order-5 frame that every lift_curvature call reads, not
    # off an order-4 frame of its own at the same points; the covariant check's
    # order-4 frame is at other points, (x, W(x))
    from test_spray import _counting_lifts

    lifts = _counting_lifts(monkeypatch)
    cfg = dict(cli.bundled_scenarios())["10_lift_independence_randers.json"]
    assert cli.run_scenario_config(cfg, stream=io.StringIO()) == 0
    assert lifts == [5, 4]


def test_sff_compare_solves_one_normal_bundle_per_sample(monkeypatch):
    # one batched normal-cone solve per submanifold, over all of its samples: the
    # normal-bundle bases read their along rows off the implicit-function theorem,
    # so they solve no normal of their own
    from finslergeo import submanifolds as subm

    batches = []
    solve = subm.normal_cone_solve

    def counting(*args, **kwargs):
        batches.append(np.shape(args[1])[:-1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(subm, "normal_cone_solve", counting)
    ms, p = cli._parse_scenario(dict(cli.bundled_scenarios())["20_sff_compare_randers.json"])
    res = cli.task_sff_compare(ms, p)
    assert len(res.csv_rows) == p["samples"]
    assert len(batches) == len(p["submanifolds"])
    assert sum(int(np.prod(b)) for b in batches) == p["samples"]
    assert all(len(b) == 1 for b in batches)


@pytest.mark.parametrize("offset", [0, 1, 2, 3])
def test_second_variation_submanifold_in_three_dimensions(offset):
    # the normal guess is the scenario's 2-vector padded with zeros; a 2-entry guess
    # used to escape as numpy's ValueError at n = 3
    cfg = dict(cli.bundled_scenarios())["18_second_variation_submanifold.json"]
    cfg["metric"]["dim"] = 3
    cfg["metric"]["beta"].append("0.1*sin(x3)")
    cfg["parameters"].update(x0=[0.05, -0.1, 0.02], direction=[0.9, 0.45, 0.1])
    cfg["parameters"]["seed"] += offset
    out = io.StringIO()
    assert cli.run_scenario_config(cfg, stream=out) == 0
    assert out.getvalue().count("[PASS]") == 3


def _bits(rows):
    """Rows with every number as its exact bits (the sign of a zero included)."""
    return [tuple(v if isinstance(v, str) else float(v).hex() for v in row) for row in rows]


@pytest.mark.parametrize("offset", [0, 1, 2, 3, 271291275, 1440089986])
@pytest.mark.parametrize("scenario", ["19_sff_compare_euclidean", "20_sff_compare_randers"])
def test_batched_sff_compare_is_the_per_sample_loop_bit_for_bit(scenario, offset):
    from oracles import sff_compare_reference

    ms, p = cli._parse_scenario(dict(cli.bundled_scenarios())[scenario + ".json"])
    p["seed"] += offset   # verify-all --seed adds its seed to the scenario's own
    res = cli.task_sff_compare(ms, p)
    rows, worst = sff_compare_reference(ms, p)
    assert _bits(res.csv_rows) == _bits(rows)
    assert _bits([[c.residual for c in res.checks]]) == _bits([worst])


@pytest.mark.parametrize("offset", [0, 3])
@pytest.mark.parametrize("scenario", ["12_jacobi_sphere", "13_jacobi_hyperbolic",
                                      "14_jacobi_randers", "15_jacobi_funk"])
def test_batched_jacobi_compare_is_the_per_sample_loop_bit_for_bit(scenario, offset):
    from oracles import jacobi_compare_reference

    ms, p = cli._parse_scenario(dict(cli.bundled_scenarios())[scenario + ".json"])
    p["seed"] += offset   # verify-all --seed adds its seed to the scenario's own
    assert _bits(cli.task_jacobi_compare(ms, p).csv_rows) == _bits(jacobi_compare_reference(ms, p))


@pytest.mark.parametrize("scenario, offset, failing", [
    ("12_jacobi_sphere", 0, "linear flow"), ("12_jacobi_sphere", 3, "frame table"),
    ("14_jacobi_randers", 0, "frame table")])
def test_jacobi_compare_raises_what_the_per_sample_loop_raises(scenario, offset, failing,
                                                               monkeypatch):
    # capped at 16 intervals some tables or flows of these draws fail; the
    # batched task raises the error that the per-sample loop meets first
    from finslergeo import variational
    from finslergeo.errors import NoConvergence
    from oracles import jacobi_compare_reference

    monkeypatch.setattr(variational, "_TABLE_MAX_INTERVALS", 16)
    ms, p = cli._parse_scenario(dict(cli.bundled_scenarios())[scenario + ".json"])
    p["seed"] += offset
    with pytest.raises(NoConvergence) as batched:
        cli.task_jacobi_compare(ms, p)
    with pytest.raises(NoConvergence) as loop:
        jacobi_compare_reference(ms, p)
    assert str(batched.value) == str(loop.value)
    assert str(loop.value).startswith(failing)


def test_sff_compare_falls_back_to_one_sample_at_a_time(monkeypatch):
    # the first sample's inward guess is refused: its group's batched solve fails, and
    # that sample is solved again from the opposite guess, as the per-sample loop does
    from finslergeo import submanifolds as subm
    from finslergeo.errors import NoConvergence
    from finslergeo.rng import SplitMix64
    from oracles import sff_compare_reference

    ms, p = cli._parse_scenario(dict(cli.bundled_scenarios())["20_sff_compare_randers.json"])
    target = SplitMix64(p["seed"]).uniform(0.0, 6.28)   # the first sample's circle parameter
    solve, refused = subm.normal_cone_solve, []

    def refusing(P, param, ms_, guess):
        inward = (np.asarray(guess) * P.value(param)).sum(axis=-1) < 0
        if np.any((np.asarray(param, float)[..., 0] == target) & inward):
            refused.append(np.shape(param))
            raise NoConvergence("refused guess")
        return solve(P, param, ms_, guess=guess)

    monkeypatch.setattr(subm, "normal_cone_solve", refusing)
    res = cli.task_sff_compare(ms, p)
    assert refused == [(5, 1), (1,)]   # the batch, then the sample alone
    rows, worst = sff_compare_reference(ms, p)
    assert refused[2:] == [(1,)]   # the reference's own first guess
    assert _bits(res.csv_rows) == _bits(rows)
    assert _bits([[c.residual for c in res.checks]]) == _bits([worst])
    # the sample took the outward normal, so its row is not the unrefused one
    monkeypatch.setattr(subm, "normal_cone_solve", solve)
    assert _bits(res.csv_rows[:1]) != _bits(cli.task_sff_compare(ms, p).csv_rows[:1])
