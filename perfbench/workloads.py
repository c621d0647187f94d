"""The three benchmark workloads and the checks made on every op.

A workload is a seeded stream of rounds; a round is a fixed list of ops,
one per input class, so every run covers the classes in equal shares.
``call`` runs and times only the program's calls; ``check`` then verifies
the result, untimed. Inputs come only from the workload seed (drawn with
SplitMix64, the program's own portable generator), so a seed fixes every
input, and calling ``rounds`` again replays them.
"""

from __future__ import annotations

import io
import itertools
import math
import re
import statistics

import numpy as np


def headroom(record) -> float:
    """log10(tol/residual), or log10(residual/tol) for a '>' check; inf if not numeric."""
    _, res, tol, rel, _ = record
    if rel == "=":
        return math.inf
    if math.isnan(res):
        return -math.inf
    num, den = (tol, res) if rel == "<" else (res, tol)
    return math.log10(num / den) if den > 0 else math.inf


class Checks:
    """Check outcomes: counts, failures, and headroom over the reference prefix.

    ``keep`` retains every record (a traced run compares them); otherwise
    memory does not grow with the number of ops, so ``peak_rss_mb`` does
    not depend on how fast the program is.
    """

    def __init__(self, keep=False):
        self.keep = keep
        self.records = []   # (label, residual, tol, relation, ok)
        self.failures = []
        self.attempted = 0
        self.in_prefix = True
        self.headroom_min = math.inf

    def add(self, label, residual, tol, relation, ok):
        record = (label, residual, tol, relation, bool(ok))
        self.attempted += 1
        if not ok:
            self.failures.append(record)
        if self.in_prefix:
            self.headroom_min = min(self.headroom_min, headroom(record))
        if self.keep:
            self.records.append(record)

    def below(self, label, residual, tol):
        residual = float(residual)
        self.add(label, residual, tol, "<", residual < tol)

    def exact(self, label, ok):
        self.add(label, None, None, "=", ok)

    @property
    def failed(self) -> int:
        return len(self.failures)


# Fixed input streams, apart from any workload seed's stream.
REFERENCE_SEED = 0x9A3F_61C2_D4B7_0E15
WARM_UP_SEED = 0x51D7_0B2E_8C43_F96A


class Workload:
    """A seeded stream of rounds; subclasses define the op and its checks."""

    name = ""
    # Every run starts with this many reference rounds, the same for every
    # seed; headroom is the minimum over their checks. The minimum residual
    # margin over random points varies from seed to seed by more than any
    # useful bound, while over a fixed set it is a pure function of the code,
    # so any loss of accuracy shows exactly and a faster program (more
    # rounds) cannot lower it.
    headroom_rounds = 1
    # An untraced run stops only after a multiple of this many rounds.
    cycle = 1
    # A traced run runs exactly this many rounds, so its counts repeat.
    trace_rounds = 1

    def __init__(self, fg, seed: int):
        self.fg = fg
        self.seed = seed

    def stream(self, seed):
        """Infinite iterator of rounds drawn from ``seed``."""
        raise NotImplementedError

    def rounds(self):
        """The reference rounds, then the workload seed's stream.

        Calling it again replays the same inputs.
        """
        return itertools.chain(itertools.islice(self.stream(REFERENCE_SEED),
                                                self.headroom_rounds),
                               self.stream(self.seed))

    def call(self, item):
        """Run one op: the program's calls only, which the runner times."""
        raise NotImplementedError

    def check(self, item, result, checks):
        """Verify one op's result."""
        raise NotImplementedError

    def warm_up(self):
        """Build the lazy jet tables before timing: one unchecked op per class."""
        for item in next(self.stream(WARM_UP_SEED)):
            self.call(item)

    def wall_s(self, log):
        """Median round time; ``log`` holds each round's op seconds."""
        return statistics.median(sum(op_s) for op_s in log)


class VerifyCorpus(Workload):
    """The bundled scenario corpus through ``cli.verify_all(seed=...)``.

    An op, and a round, is one corpus pass. Rounds alternate the default
    corpus (seed offset 0, what ``verify-all`` runs), the first of which is
    the reference round, with the corpus at a seeded offset.
    ``wall_s`` times the default passes only: their work is fixed, while
    other offsets change the ODE and jet work by about 5%. The seeded
    passes add their checks. A traced run is one default pass.

    The seeded offset is 1 + seed mod 3, so one of offsets 1-3, at which
    ``verify-all`` passes. At about 6% of arbitrary offsets it fails:
    scenario 09 draws flags close to degenerate, where its 1e-9 flag
    invariance check does not hold (``verify-all --seed 271291275``) or
    the flag is refused outright (``--seed 1440089986``). That is a defect
    of the scenario's sampler, not a cost the benchmark should measure.
    """

    name = "verify-corpus"
    cycle = 2
    OFFSETS = 3

    _CHECK = re.compile(r"^\s*\[(PASS|FAIL)\] (.+): (\S+) ([<>]) (\S+)$")
    _EXACT = re.compile(r"^\s*\[(PASS|FAIL)\] (.+)$")
    _SUMMARY = re.compile(r"^(\S+)\s+(PASS|FAIL)$")

    def __init__(self, fg, seed):
        super().__init__(fg, seed)
        cli = fg.cli
        # Built so that set-up time covers metric construction; verify_all
        # builds its own.
        self.metrics = [cli.metric_from_config(cfg["metric"])
                        for _, cfg in cli.bundled_scenarios()]
        self.summary_header = f"{'scenario':44s} result"
        self.offset = 1 + seed % self.OFFSETS

    def rounds(self):
        while True:
            yield [0]
            yield [self.offset]

    def warm_up(self):
        # The jet spaces the corpus uses; a whole pass is too long for warm-up.
        jets = self.fg.jets
        for nvars, order in ((1, 1), (1, 2), (2, 1), (2, 2)):
            jets.space_for(nvars, order)
        for order in range(6):
            jets.space_for(4, order)

    def call(self, seed):
        out = io.StringIO()
        code = self.fg.cli.verify_all(seed=seed, stream=out)
        return code, out.getvalue()

    def check(self, seed, result, checks):
        code, text = result
        lines = text.splitlines()
        for line in lines:
            m = self._CHECK.match(line)
            if m:
                checks.add(m[2], float(m[3]), float(m[5]), m[4], m[1] == "PASS")
                continue
            m = self._EXACT.match(line)
            if m:
                checks.exact(m[2], m[1] == "PASS")
        summary = (lines[lines.index(self.summary_header) + 1:]
                   if self.summary_header in lines else [])
        scenarios = 0
        for line in summary:
            m = self._SUMMARY.match(line)
            if m:
                scenarios += 1
                checks.exact(f"scenario {m[1]} exit code 0", m[2] == "PASS")
        checks.exact(f"verify-all exit code 0 with a scenario table (seed {seed})",
                     code == 0 and scenarios > 0)

    def wall_s(self, log):
        """Median default-pass time."""
        return statistics.median(op_s[0] for op_s in log[0::2])


def _flag_direction(ms, w, rng):
    """A direction u spanning a non-degenerate flag with w.y (|sin angle| >= 0.2)."""
    y = w.y / np.linalg.norm(w.y)
    while True:
        u = rng.direction(ms.dim)
        if np.linalg.norm(u - (u @ y) * y) >= 0.2 * np.linalg.norm(u):
            return u


class PointTour(Workload):
    """The library tour at seeded, distinct tangent points, one per metric a round."""

    name = "point-tour"
    headroom_rounds = 25
    trace_rounds = 150
    CONDITIONS = ("T1", "T2", "T3", "M1", "M2", "M3", "M4", "M5", "M6", "M7")
    CLASSICAL = ("berwald", "cartan", "chern-rund", "hashiguchi")

    def __init__(self, fg, seed):
        super().__init__(fg, seed)
        cli = fg.cli
        sc04 = dict(cli.bundled_scenarios())["04_condition_matrix_randers.json"]
        self.randers_expect = sc04["parameters"]["expect"]
        self.randers_tol = float(sc04["parameters"]["tolerance"])
        self.metrics = [cli.metric_from_config(sc04["metric"]), fg.metrics.funk(2),
                        fg.metrics.sphere_stereographic(2), fg.metrics.funk(3)]
        self.lifts = [{k: fg.lifts.classical_lift(k, ms) for k in self.CLASSICAL}
                      for ms in self.metrics]

    def stream(self, seed):
        rng = self.fg.SplitMix64(seed)
        while True:
            items = []
            for i, ms in enumerate(self.metrics):
                w = self.fg.metrics.random_tangent(ms, rng)
                items.append((i, w, _flag_direction(ms, w, rng)))
            yield items

    def call(self, item):
        fg = self.fg
        i, w, u = item
        ms = self.metrics[i]
        try:
            fg.fundamental_tensor(ms, w)
            fg.cartan_tensor(ms, w)
            sd = fg.spray_coefficients(ms, w)
            fg.curvature_endomorphism(ms, w)
            k = fg.flag_curvature(ms, w, u)
            g_fast = fg.spray.spray_values(ms, w.x, w.y)
            fr = fg.PointFrame(ms, w, order=4)
            cond = {name: fg.lifts.condition_residuals(lift, fr, self.CONDITIONS)
                    for name, lift in self.lifts[i].items()}
            return sd.G, k, g_fast, cond
        except fg.FinslerError as exc:
            return exc

    def check(self, item, result, checks):
        i, w, _ = item
        ms = self.metrics[i]
        if isinstance(result, Exception):
            checks.exact(f"{ms.name}: {type(result).__name__}: {result}", False)
            return
        G, k, g_fast, cond = result
        checks.below("spray_values = spray_coefficients G", np.max(np.abs(g_fast - G)), 1e-12)
        if ms.kind == "riemannian":
            checks.below("sphere flag curvature = 1", abs(k - 1.0), 1e-6)
        elif ms.kind == "funk":
            checks.below("Funk flag curvature = -1/4", abs(k + 0.25), 1e-4)
            f = self.fg.metrics.metric_value(ms, w)
            checks.below("Funk spray G = F y / 2", np.max(np.abs(G - 0.5 * f * w.y)), 1e-12)
        elif ms.kind == "randers":
            for name, conds in self.randers_expect.items():
                for c in conds:
                    checks.below(f"randers_var {name} satisfies {c}", cond[name][c],
                                 self.randers_tol)


class LiftCurvature(Workload):
    """One ``lift_curvature`` call per seeded point; a round covers every
    (metric, lift kind) class once."""

    name = "lift-curvature"
    headroom_rounds = 10
    trace_rounds = 20
    KINDS = ("berwald", "random", "cartan")
    TOL = 1e-7   # scenario 10's tolerance

    def __init__(self, fg, seed):
        super().__init__(fg, seed)
        cli = fg.cli
        sc10 = dict(cli.bundled_scenarios())["10_lift_independence_randers.json"]
        self.metrics = [cli.metric_from_config(sc10["metric"]), fg.metrics.funk(2),
                        fg.metrics.funk(3)]
        self.classical = [{k: fg.lifts.classical_lift(k, ms) for k in ("berwald", "cartan")}
                          for ms in self.metrics]

    def stream(self, seed):
        fg = self.fg
        rng = fg.SplitMix64(seed)
        while True:
            items = []
            for i, ms in enumerate(self.metrics):
                for kind in self.KINDS:
                    w = fg.metrics.random_tangent(ms, rng)
                    u = rng.direction(ms.dim)
                    if kind == "random":
                        lift = fg.random_admissible_lift(ms, rng.next_u64() >> 33,
                                                         enforce_t1=True)
                    else:
                        lift = self.classical[i][kind]
                    items.append((ms, lift, w, u))
            yield items

    def call(self, item):
        ms, lift, w, u = item
        try:
            return self.fg.lift_curvature(lift, ms, w, u)
        except self.fg.FinslerError as exc:
            return exc

    def check(self, item, result, checks):
        ms, lift, w, u = item
        if isinstance(result, Exception):
            checks.exact(f"{ms.name} {lift.name}: {type(result).__name__}: {result}", False)
            return
        ref = self.fg.curvature_endomorphism(ms, w).R @ u
        checks.below("lift_curvature = R u", np.max(np.abs(result - ref)), self.TOL)


WORKLOADS = {w.name: w for w in (VerifyCorpus, PointTour, LiftCurvature)}
