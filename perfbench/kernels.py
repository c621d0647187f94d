"""Checked microbenchmarks of the jet product kernel.

For each (nvars, order) the reference product is built in set-up straight
from ``JetSpace.alphas``: every coefficient pair (a, b) with
|a| + |b| <= order adds c_a * d_b to the coefficient of a + b. Operands have
small integer coefficients, so every product and partial sum is exact in
float64 and the kernel must match the reference bit for bit. The pair count
reported beside the time comes from the reference, so a kernel that skips
work fails the check instead of looking fast.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracer import MUL_SPACES


class MulCase:
    def __init__(self, jets, nvars: int, order: int, rng):
        space = jets.space_for(nvars, order)
        alphas = [tuple(a) for a in space.alphas]
        index = {a: i for i, a in enumerate(alphas)}
        self.pairs = [(i, j, index[tuple(x + y for x, y in zip(a, b))])
                      for i, a in enumerate(alphas) for j, b in enumerate(alphas)
                      if sum(a) + sum(b) <= order]
        self.name = f"v{nvars}o{order}"
        self.size = len(alphas)
        self.a = jets.Jet(space, np.array([rng.uniform(-8, 9) // 1 for _ in alphas]))
        self.b = jets.Jet(space, np.array([rng.uniform(-8, 9) // 1 for _ in alphas]))

    def reference(self) -> np.ndarray:
        out = np.zeros(self.size)
        for i, j, k in self.pairs:
            out[k] += self.a.c[i] * self.b.c[j]
        return out

    def time_us(self, now, batches: int = 5, target_s: float = 0.2) -> float:
        """Median microseconds of one product, read on the clock ``now``.

        A batch spans several of the quiet clock's 50-ms samples, so the
        clock's correction for other tenants averages over it.
        """
        a, b = self.a, self.b
        t0 = now()
        a * b
        reps = max(10, int(target_s / max(now() - t0, 1e-7)))
        samples = []
        for _ in range(batches):
            t0 = now()
            for _ in range(reps):
                a * b
            samples.append((now() - t0) / reps)
        return 1e6 * statistics.median(samples)


def setup_cases(jets, rng) -> list[MulCase]:
    return [MulCase(jets, v, o, rng) for v, o in MUL_SPACES]


def time_cases(cases, now) -> dict:
    """Per-layer values: microseconds and pair count of each case's product."""
    out = {}
    for case in cases:
        out[f"jets.mul_us.{case.name}"] = case.time_us(now)
        out[f"jets.mul_pairs.{case.name}"] = float(len(case.pairs))
    return out


def check_cases(cases, checks):
    """Each case's kernel product must equal the dense reference bit for bit."""
    for case in cases:
        diff = float(np.max(np.abs((case.a * case.b).c - case.reference())))
        checks.exact(f"jet product {case.name} equals the dense reference", diff == 0.0)
