"""finslergeo benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload point-tour --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. ``--trace 0`` times the workload and reports the end-to-end
metrics. ``--trace 1`` runs a fixed number of rounds with per-layer counters
attached from outside (``tracer.py``), runs the same rounds untraced in a
fresh process, checks that both give identical check records, and reports
the per-layer metrics. Times are reference-machine seconds read on a
``QuietClock`` (see ``quietclock.py``). The last line of standard output is
one JSON object: correct, attempted, failed (checks) and metrics.

Exit status 2 means the benchmark could not run (no program to import, or a
setting it refuses); check failures are reported in the JSON, not the exit
status.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One thread everywhere: the machine has two cores and the caller is serial.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5      # this process plus four fresh set-up processes


class BenchError(Exception):
    """The benchmark cannot run here."""


def load_program():
    src = ROOT / "src"
    if not (src / "finslergeo" / "__init__.py").is_file():
        raise BenchError(f"no finslergeo sources under {src}")
    sys.path.insert(0, str(src))
    import finslergeo
    import finslergeo.cli  # noqa: F401  (binds fg.cli)
    if Path(finslergeo.__file__).resolve().parent != (src / "finslergeo").resolve():
        raise BenchError(f"imported finslergeo from {finslergeo.__file__}, not from {src}")
    return finslergeo


def set_up(args):
    """Import the program, build the workload and warm it up."""
    from workloads import WORKLOADS

    fg = load_program()
    wl = WORKLOADS[args.workload](fg, args.seed)
    wl.warm_up()
    return fg, wl


def setup_samples(args, first):
    """Set-up seconds of this process, then of fresh set-up processes."""
    samples = [first]
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_SAMPLES - 1):
        samples.append(child(cmd)["setup_s"])
    return samples


def child(cmd):
    """Run a benchmark process to its end; return its last output line as JSON."""
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170,
                          check=False)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[2:])} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(wl, checks, clock, seconds=None, rounds=None, tracer=None):
    """Closed loop over the workload's rounds: stop after ``rounds`` rounds, or
    at the first whole cycle past ``seconds`` once the reference rounds are done.

    Returns each round's op times, in reference seconds.
    """
    log = []
    start = time.perf_counter()
    for k, items in enumerate(wl.rounds()):
        if rounds is not None and k == rounds:
            break
        if rounds is None and k >= wl.headroom_rounds and k % wl.cycle == 0 \
                and time.perf_counter() - start >= seconds:
            break
        checks.in_prefix = k < wl.headroom_rounds
        op_s = []
        for item in items:
            if tracer:
                tracer.on = True
            t0 = clock.now()
            result = wl.call(item)
            op_s.append(clock.now() - t0)
            if tracer:
                tracer.on = False
            wl.check(item, result, checks)
        log.append(op_s)
    return log


def op_times(log):
    return [dt for op_s in log for dt in op_s]


def tail(values):
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    s = sorted(values)
    if len(s) < 11:
        return s[-1], 100.0
    return s[len(s) - 11], 100.0 * (len(s) - 10) / len(s)


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (ROOT / "src").rglob("*.py"))


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def info(fg):
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "finslergeo": fg.__version__,
            "commit": git_commit(), "src_lines": src_lines(), "threads": 1}


def emit(args, fg, checks, metrics, notes):
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("info " + json.dumps(info(fg)))
    for note in notes:
        print(note)
    for label, res, tol, rel, _ in checks.failures:
        print(f"FAILED check: {label}: {res} {rel} {tol}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": checks.failed == 0, "attempted": checks.attempted, "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def untraced(args, clock):
    from workloads import Checks

    with clock:
        fg, wl = set_up(args)
        setup_s = clock.now()
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return
        checks = Checks()
        start = time.perf_counter()
        log = run_rounds(wl, checks, clock, seconds=args.seconds)
        raw_s = time.perf_counter() - start
    setup = setup_samples(args, setup_s)
    op_s = op_times(log)
    tail_s, pct = tail(op_s)
    metrics = {
        "wall_s": (wl.wall_s(log), "s"),
        "ops_per_s": (len(op_s) / sum(op_s), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(op_s), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "headroom_min_dec": (checks.headroom_min, "log10"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [f"rounds={len(log)} ops={len(op_s)}, {raw_s:.2f} s of wall time; "
             f"the machine ran {clock.slowdown():.3f}x slower than the reference",
             f"op tail {1e3 * tail_s:.6g} ms at p{pct:.2f} of {len(op_s)} ops",
             f"setup_s samples: {' '.join(f'{s:.4f}' for s in setup)}",
             f"checks attempted={checks.attempted} failed={checks.failed} "
             f"fail_frac={checks.failed / checks.attempted:.6g} headroom_min_dec="
             f"{checks.headroom_min:.4f} over the first {wl.headroom_rounds} round(s)"]
    if hasattr(wl, "offset"):
        notes.append(f"seeded passes at verify-all seed offset {wl.offset}")
    emit(args, fg, checks, metrics, notes)


def replay(args, clock):
    """Run exactly ``--replay-rounds`` rounds untraced; print check records and op times."""
    from workloads import Checks

    with clock:
        _, wl = set_up(args)
        checks = Checks(keep=True)
        log = run_rounds(wl, checks, clock, rounds=args.replay_rounds)
    print(json.dumps({"records": checks.records, "headroom_min": checks.headroom_min,
                      "op_s": op_times(log), "wall_s": wl.wall_s(log)}))


def traced(args, clock):
    """Traced rounds here, then the same rounds untraced in a fresh process.

    The untraced twin runs in its own process so that neither half sees
    inputs the other has already evaluated: a cache in the program must
    not make one half look faster than the other.
    """
    import kernels
    from tracer import Tracer, per_layer_spec
    from workloads import Checks, WORKLOADS

    fg = load_program()
    with clock:
        with Tracer(fg, clock.now) as tr:
            tr.on = True              # set-up is traced for jets.space_build_s
            wl = WORKLOADS[args.workload](fg, args.seed)
            wl.warm_up()
            tr.on = False
            cases = kernels.setup_cases(fg.jets, fg.SplitMix64(args.seed))
            tr.reset()
            seen = Checks(keep=True)
            log = run_rounds(wl, seen, clock, rounds=wl.trace_rounds, tracer=tr)
            layers = tr.report(len(op_times(log)))
        layers.update(kernels.time_cases(cases, clock.now))   # on the unpatched kernel

    twin = child([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                  "--seed", str(args.seed), "--replay-rounds", str(wl.trace_rounds)])
    plain = [tuple(rec) for rec in twin["records"]]
    checks = Checks()
    for record in plain + seen.records:
        checks.add(*record)
    checks.exact("traced run reproduces the untraced check records and headroom",
                 seen.records == plain and seen.headroom_min == twin["headroom_min"])
    kernels.check_cases(cases, checks)
    layers["trace_overhead_frac"] = wl.wall_s(log) / twin["wall_s"] - 1.0
    tail_s, pct = tail(twin["op_s"])
    layers["op_tail_ms"] = 1e3 * tail_s
    metrics = {name: (layers[name], unit) for name, unit in per_layer_spec()}
    plain_failed = sum(1 for rec in plain if not rec[4])
    notes = [f"rounds={wl.trace_rounds} ops={len(op_times(log))} in each of the two runs; "
             f"untraced op_tail_ms is p{pct:.2f}",
             f"untraced: fail_frac={plain_failed / len(plain):.6g} "
             f"headroom_min_dec={twin['headroom_min']:.4f}",
             f"traced:   fail_frac={seen.failed / seen.attempted:.6g} "
             f"headroom_min_dec={seen.headroom_min:.4f}",
             f"trace overhead {100 * layers['trace_overhead_frac']:.1f}%: wall_s "
             f"{wl.wall_s(log):.6g} s traced against {twin['wall_s']:.6g} s untraced"]
    emit(args, fg, checks, metrics, notes)


def main(argv=None):
    from workloads import WORKLOADS   # imports numpy: set-up time, counted from T0

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up the workload, print the set-up seconds and exit")
    ap.add_argument("--replay-rounds", type=int, default=None,
                    help="run this many rounds untraced and print their check records")
    args = ap.parse_args(argv)
    if os.environ.get("FINSLERGEO_WORKERS", "1") != "1":
        # Its thread fan-out is bound by the interpreter lock; results would
        # measure lock contention, not the program.
        raise BenchError("FINSLERGEO_WORKERS must be unset or 1")
    from quietclock import QuietClock

    clock = QuietClock(since=T0)
    if args.replay_rounds is not None:
        replay(args, clock)
    elif args.trace and not args.setup_probe:
        traced(args, clock)
    else:
        untraced(args, clock)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
