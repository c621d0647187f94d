"""Acceptance gate: every verification criterion at its stated tolerance.

Each test prints one PASS/FAIL line. The underlying computations are the
same routines the CLI's verify-all corpus runs.
"""

import io
import json
import time

import numpy as np
import pytest

from finslergeo import cli
from finslergeo import identities as ident
from finslergeo.lifts import (affine_coefficients, classical_lift, condition_residuals,
                              lift_curvature, random_admissible_lift)
from finslergeo.metrics import TangentVector, random_tangent
from finslergeo.rng import SplitMix64
from finslergeo.spray import PointFrame, curvature_endomorphism, flag_curvature

BUNDLED = dict(cli.bundled_scenarios())


def _report(num, label, ok, detail=""):
    print(f"\n[criterion {num}] {label}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def _run_bundled(name, **kw):
    cfg = dict(BUNDLED[name])
    cfg.setdefault("name", name.removesuffix(".json"))
    return cli.run_scenario_config(cfg, stream=io.StringIO(), **kw)


def test_criterion_1_riemannian_reduction(sphere, poincare):
    t0 = time.perf_counter()
    rng = SplitMix64(101)
    worst_flag = 0.0
    for ms, target in ((sphere, 1.0), (poincare, -1.0)):
        for _ in range(100):
            w = random_tangent(ms, rng)
            worst_flag = max(worst_flag, abs(flag_curvature(ms, w, rng.direction(2)) - target))
    worst_affine = 0.0
    from oracles import christoffel

    for ms in (sphere, poincare):
        for _ in range(10):
            w = random_tangent(ms, rng)
            gam = christoffel(lambda x: np.asarray(ms._g_field(list(x)), float), w.x)
            for kind in ("berwald", "cartan", "chern-rund", "hashiguchi"):
                A = affine_coefficients(classical_lift(kind, ms), ms, w).A
                worst_affine = max(worst_affine, float(np.max(np.abs(A - gam))))
    elapsed = time.perf_counter() - t0
    ok = worst_flag < 1e-6 and worst_affine < 1e-8 and elapsed < 10.0
    _report(1, "Riemannian reduction", ok,
            f"(flag {worst_flag:.2e} < 1e-6, affine {worst_affine:.2e} < 1e-8, "
            f"{elapsed:.1f}s < 10s)")


def test_criterion_2_condition_matrix(randers_var):
    t0 = time.perf_counter()
    expected = {"berwald": ("T3", "M5"), "cartan": ("T2", "M6", "M7"),
                "chern-rund": ("T3", "M3"), "hashiguchi": ("T2", "M4", "M7")}
    rng = SplitMix64(19)
    fr = PointFrame(randers_var, TangentVector.stack([random_tangent(randers_var, rng)
                                                      for _ in range(50)]))
    worst = 0.0
    for kind, conds in expected.items():
        res = condition_residuals(classical_lift(kind, randers_var), fr)
        worst = max([worst] + [res[c] for c in conds])
    m6 = condition_residuals(classical_lift("berwald", randers_var), fr, ("M6",))["M6"]
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-7 and m6 > 1e-3 and elapsed < 30.0
    _report(2, "condition matrix", ok,
            f"(worst satisfied {worst:.2e} < 1e-7, Berwald M6 {m6:.2e} > 1e-3, "
            f"{elapsed:.1f}s < 30s)")


def test_criterion_3_lift_independence(randers_var):
    rng = SplitMix64(43)
    lifts = [classical_lift("berwald", randers_var), classical_lift("cartan", randers_var)]
    lifts += [random_admissible_lift(randers_var, 300 + i, enforce_t1=True)
              for i in range(5)]
    worst_curv = worst_cov = 0.0
    for _ in range(25):
        w = random_tangent(randers_var, rng)
        u = rng.direction(2)
        base = curvature_endomorphism(randers_var, w).R @ u
        W = ident.AffineField.random(w.x, rng, min_norm=0.6)
        U = ident.AffineField.random(w.x, rng)
        vals = []
        for lf in lifts:
            worst_curv = max(worst_curv, float(np.max(np.abs(
                lift_curvature(lf, randers_var, w, u) - base))))
            A = affine_coefficients(lf, randers_var, TangentVector(w.x, W(w.x))).A
            vals.append(U.A @ W(w.x) + np.einsum("ijk,j,k->i", A, W(w.x), U(w.x)))
        worst_cov = max(worst_cov, float(np.max(np.max(vals, axis=0) - np.min(vals, axis=0))))
    ok = worst_curv < 1e-7 and worst_cov < 1e-7
    _report(3, "lift independence", ok,
            f"(curvature {worst_curv:.2e}, covariant {worst_cov:.2e}, both < 1e-7)")


def test_criterion_4_family_coincidence(funk):
    rng = SplitMix64(47)
    lifts = {k: classical_lift(k, funk) for k in
             ("berwald", "cartan", "chern-rund", "hashiguchi")}
    worst_co, gap = 0.0, 0.0
    for _ in range(50):
        w = random_tangent(funk, rng)
        A = {k: affine_coefficients(lf, funk, w).A for k, lf in lifts.items()}
        worst_co = max(worst_co, float(np.max(np.abs(A["berwald"] - A["hashiguchi"]))),
                       float(np.max(np.abs(A["cartan"] - A["chern-rund"]))))
        gap = max(gap, float(np.max(np.abs(A["cartan"] - A["berwald"]))))
    ok = worst_co < 1e-12 and gap > 1e-3
    _report(4, "family coincidence", ok,
            f"(coincidence {worst_co:.2e} < 1e-12, families differ by {gap:.2e} > 1e-3)")


@pytest.mark.parametrize("scenario", ["12_jacobi_sphere.json", "13_jacobi_hyperbolic.json",
                                      "14_jacobi_randers.json", "15_jacobi_funk.json"])
def test_criterion_5_jacobi_consistency(scenario):
    ok = _run_bundled(scenario) == 0
    _report(5, f"Jacobi consistency [{scenario.split('_', 1)[1].removesuffix('.json')}]",
            ok, "(sup-norm < 1e-3, profiles < 1e-3)")


@pytest.mark.parametrize("scenario", ["16_second_variation_euclidean.json",
                                      "17_second_variation_sphere.json",
                                      "18_second_variation_submanifold.json"])
def test_criterion_6_second_variation(scenario):
    ok = _run_bundled(scenario) == 0
    _report(6, f"second variation [{scenario.split('_', 2)[2].removesuffix('.json')}]",
            ok, "(formula vs FD rel < 1e-3, first variation < 1e-6)")


def test_criterion_7_symplectic_sff():
    ok = (_run_bundled("19_sff_compare_euclidean.json") == 0
          and _run_bundled("20_sff_compare_randers.json") == 0)
    _report(7, "symplectic second fundamental form", ok,
            "(agreement < 1e-5, Lagrangean < 1e-6, 20 configurations)")


def test_criterion_8_identity_suite():
    ok = (_run_bundled("02_identities_randers.json") == 0
          and _run_bundled("03_identities_funk.json") == 0
          and _run_bundled("06_identity_suite_lifts.json") == 0)
    _report(8, "identity suite", ok,
            "(contractions < 1e-9, g(w,w)=F^2 < 1e-10, nabla_S g < 1e-7, "
            "symmetry/compatibility < 1e-6)")


def test_criterion_9_verify_all_runtime_and_determinism(tmp_path):
    t0 = time.perf_counter()
    code = cli.verify_all(seed=None, out_dir=tmp_path / "run1", stream=io.StringIO())
    elapsed = time.perf_counter() - t0
    cli.verify_all(seed=None, out_dir=tmp_path / "run2", stream=io.StringIO())
    identical = True
    for p in sorted((tmp_path / "run1").glob("*.csv")):
        q = tmp_path / "run2" / p.name
        if not q.exists() or p.read_bytes() != q.read_bytes():
            identical = False
            break
    ok = code == 0 and elapsed < 300.0 and identical
    _report(9, "verify-all", ok,
            f"(exit {code}, {elapsed:.1f}s < 300s, byte-identical reruns: {identical})")
