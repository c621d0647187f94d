"""Self-test of the benchmark itself (not of finslergeo).

    python3 perfbench/selftest.py

1. One seed generates identical inputs twice, and two seeds different ones
   (after the reference rounds, which every seed shares).
2. Seeds 0-3 give no failed check on any workload, and every run prints
   exactly the metrics BENCHMARK.json names, untraced and traced.
Takes about six minutes, most of it verify-corpus passes.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def canonical(value):
    """Inputs as comparable plain data (arrays by value, lifts by name)."""
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if hasattr(value, "tolist"):
        return value.tolist()
    if hasattr(value, "x") and hasattr(value, "y"):
        return [value.x.tolist(), value.y.tolist()]
    if hasattr(value, "c_flat"):
        return value.name
    if hasattr(value, "f2"):
        return f"{value.name}/{value.dim}"
    return value


def first_rounds(fg, name, seed, count=12):
    """The reference rounds and ``count`` seeded rounds after them."""
    wl = WORKLOADS[name](fg, seed)
    rounds = wl.rounds()
    drawn = [canonical(next(rounds)) for _ in range(wl.headroom_rounds + count)]
    return drawn[:wl.headroom_rounds], drawn[wl.headroom_rounds:]


def check_inputs(fg):
    for name in WORKLOADS:
        ref, seeded = first_rounds(fg, name, 3)
        ref4, seeded4 = first_rounds(fg, name, 4)
        assert (ref, seeded) == first_rounds(fg, name, 3), f"{name}: seed 3 inputs differ"
        assert ref == ref4, f"{name}: the reference rounds depend on the seed"
        assert seeded != seeded4, f"{name}: seeds 3 and 4 give the same inputs"
        print(f"ok  {name}: inputs repeat for one seed and differ across seeds, "
              f"after {len(ref)} reference round(s)")


def bench(*args):
    cmd = [sys.executable, str(HERE / "run.py"), *args]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=False)
    assert proc.returncode == 0, f"{cmd} exited {proc.returncode}: {proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    for name in WORKLOADS:
        for seed in range(4):
            out = bench("--workload", name, "--seed", str(seed), "--seconds", "5", "--trace", "0")
            assert set(out["metrics"]) == e2e, f"{name}: metrics {sorted(out['metrics'])}"
            assert out["attempted"] >= 1 and out["failed"] == 0 and out["correct"], \
                f"{name} seed {seed}: {out['failed']} of {out['attempted']} checks failed"
            print(f"ok  {name} seed {seed}: fail_frac 0 over {out['attempted']} checks")
    for name in WORKLOADS:
        out = bench("--workload", name, "--seed", "0", "--seconds", "5", "--trace", "1")
        assert set(out["metrics"]) == layers, f"{name}: traced metrics differ from BENCHMARK.json"
        assert out["failed"] == 0, f"{name}: traced run failed a check"
        print(f"ok  {name} traced: every per-layer metric, identical check records")


if __name__ == "__main__":
    check_inputs(run.load_program())
    check_runs()
    print("selftest passed")
