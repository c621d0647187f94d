import pytest

from finslergeo import metrics, spray
from finslergeo.jets import smath
from finslergeo.metrics import TangentVector
from finslergeo.rng import SplitMix64


@pytest.fixture(autouse=True)
def fresh_frame_memo():
    """Start every test with no memoized frame jets or y-jets: the metric
    fixtures live for the whole test run, so a test that patches
    ``lift_any``, ``solve_linear`` or a metric's rule would otherwise read
    jets an earlier test built."""
    spray._memo.clear()
    metrics._y_jets.clear()


@pytest.fixture(scope="session")
def euclid2():
    return metrics.euclidean(2)


@pytest.fixture(scope="session")
def sphere():
    return metrics.sphere_stereographic(2)


@pytest.fixture(scope="session")
def poincare():
    return metrics.poincare_disk(2)


@pytest.fixture(scope="session")
def funk():
    return metrics.funk(2)


@pytest.fixture(scope="session")
def randers_const():
    """Constant-coefficient Randers norm (locally Minkowski, Berwald type)."""
    return metrics.randers(2, [0.5, 0.0], name="randers_mink")


@pytest.fixture(scope="session")
def randers_var():
    """Position-dependent Randers metric: non-Berwald, nonzero flow tensor."""

    def beta(xs):
        return [0.35 + 0.2 * smath.sin(xs[1]), 0.2 * smath.cos(xs[0])]

    return metrics.randers(2, beta, name="randers_var")


@pytest.fixture()
def rng():
    return SplitMix64(2024)


def sample_tangent(ms, seed=0):
    return metrics.random_tangent(ms, SplitMix64(seed))


@pytest.fixture(scope="session")
def w_generic():
    return TangentVector([0.3, -0.4], [0.8, 0.5])
