"""Truncated multivariate Taylor (jet) arithmetic.

A ``Jet`` is the Taylor expansion of a scalar function about a center,
truncated at a total degree. Coefficients are stored per multi-index in
Taylor normalization (c_alpha = d^alpha f / alpha!). Arithmetic is exact on
the retained coefficients, so partial derivatives extracted from a jet are
exact derivatives of the evaluated expression.

Coefficients are always float64. A rule written once against ``smath``
serves both plain float evaluation and jet evaluation.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement, product

import numpy as np

from .errors import DomainError

__all__ = ["Jet", "JetSpace", "jet_lift", "partial", "smath"]

MAX_PUBLIC_ORDER = 4


def _multi_indices(nvars: int, order: int) -> list[tuple[int, ...]]:
    """All multi-indices with |alpha| <= order, sorted by (degree, lex).

    Degree-major ordering makes the enumeration for a lower order a prefix
    of the one for a higher order (same nvars), so truncation is a slice.
    """
    out: list[tuple[int, ...]] = []
    for deg in range(order + 1):
        block = set()
        for combo in combinations_with_replacement(range(nvars), deg):
            alpha = [0] * nvars
            for v in combo:
                alpha[v] += 1
            block.add(tuple(alpha))
        out.extend(sorted(block))
    return out


@lru_cache(maxsize=None)
def space_for(nvars: int, order: int) -> "JetSpace":
    return JetSpace(nvars, order)


class JetSpace:
    """Shared index tables for all jets with a given (nvars, order)."""

    def __init__(self, nvars: int, order: int):
        if nvars < 1 or order < 0:
            raise ValueError("need nvars >= 1 and order >= 0")
        self.nvars = nvars
        self.order = order
        self.alphas = _multi_indices(nvars, order)
        self.size = len(self.alphas)
        self.index = {a: i for i, a in enumerate(self.alphas)}

        ia, ib, ic = [], [], []
        for i, a in enumerate(self.alphas):
            da = sum(a)
            for j, b in enumerate(self.alphas):
                if da + sum(b) > order:
                    continue
                ia.append(i)
                ib.append(j)
                ic.append(self.index[tuple(x + y for x, y in zip(a, b))])
        self._mul_ia = np.array(ia, dtype=np.intp)
        self._mul_ib = np.array(ib, dtype=np.intp)
        self._mul_ic = np.array(ic, dtype=np.intp)

        # partial-derivative index maps: coeff of d f/dx_v at beta is
        # (beta_v + 1) * coeff of f at beta + e_v
        self._diff: list[tuple[np.ndarray, np.ndarray]] = []
        if order >= 1:
            lower = _multi_indices(nvars, order - 1)
            for v in range(nvars):
                src = np.empty(len(lower), dtype=np.intp)
                fac = np.empty(len(lower), dtype=np.float64)
                for i, a in enumerate(lower):
                    up = list(a)
                    up[v] += 1
                    src[i] = self.index[tuple(up)]
                    fac[i] = up[v]
                self._diff.append((src, fac))
        self._gathers: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _gather(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Coefficient index and alpha! weight for every ordered k-tuple of
        variables, each of shape (nvars,)*k; built once per k."""
        if not 0 <= k <= self.order:
            raise IndexError(f"derivative order {k} outside 0..{self.order}")
        if k not in self._gathers:
            shape = (self.nvars,) * k
            idx = np.empty(shape, dtype=np.intp)
            weight = np.empty(shape)
            for t in product(range(self.nvars), repeat=k):
                alpha = tuple(t.count(v) for v in range(self.nvars))
                idx[t] = self.index[alpha]
                weight[t] = _alpha_factorial(alpha)
            self._gathers[k] = (idx, weight)
        return self._gathers[k]

    def constant(self, value) -> "Jet":
        c = np.zeros(self.size)
        c[0] = value
        return Jet(self, c)

    def coordinate(self, var: int, center) -> "Jet":
        out = self.constant(center)
        if self.order >= 1:
            e = [0] * self.nvars
            e[var] = 1
            out.c[self.index[tuple(e)]] = 1.0
        return out

    def __repr__(self):
        return f"JetSpace(nvars={self.nvars}, order={self.order})"


def _val(scalar) -> float:
    return float(scalar.c[0] if isinstance(scalar, Jet) else scalar)


class smath:
    """Scalar math generic over float and Jet, for writing rules once."""

    @staticmethod
    def sqrt(u):
        if isinstance(u, Jet):
            return u.sqrt()
        if u <= 0.0:
            raise DomainError(f"sqrt of non-positive value {u}")
        return math.sqrt(u)

    @staticmethod
    def exp(u):
        return u.exp() if isinstance(u, Jet) else math.exp(u)

    @staticmethod
    def log(u):
        if isinstance(u, Jet):
            return u.log()
        if u <= 0.0:
            raise DomainError(f"log of non-positive value {u}")
        return math.log(u)

    @staticmethod
    def sin(u):
        return u.sin() if isinstance(u, Jet) else math.sin(u)

    @staticmethod
    def cos(u):
        return u.cos() if isinstance(u, Jet) else math.cos(u)

    @staticmethod
    def dot(u, v):
        acc = u[0] * v[0]
        for a, b in zip(u[1:], v[1:]):
            acc = acc + a * b
        return acc


class Jet:
    __slots__ = ("space", "c", "center")

    def __init__(self, space: JetSpace, coeffs: np.ndarray, center=None):
        self.space = space
        self.c = coeffs
        self.center = center

    @property
    def value(self):
        return self.c[0]

    @property
    def order(self) -> int:
        return self.space.order

    def __repr__(self):
        return f"Jet(nvars={self.space.nvars}, order={self.order}, value={self.value!r})"

    def _ring(self, other) -> bool:
        """True for a jet of this space, False for a scalar.

        Jets from different spaces colliding is almost always a missing
        truncate(), so that raises.
        """
        if not isinstance(other, Jet):
            return False
        if other.space is not self.space:
            raise ValueError("jet spaces differ; truncate explicitly first")
        return True

    def __add__(self, other):
        if self._ring(other):
            return Jet(self.space, self.c + other.c)
        c = self.c.copy()
        c[0] = c[0] + other
        return Jet(self.space, c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.c)

    def __sub__(self, other):
        if self._ring(other):
            return Jet(self.space, self.c - other.c)
        c = self.c.copy()
        c[0] = c[0] - other
        return Jet(self.space, c)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        sp = self.space
        if self._ring(other):
            prod = self.c[sp._mul_ia] * other.c[sp._mul_ib]
            return Jet(sp, np.bincount(sp._mul_ic, weights=prod, minlength=sp.size))
        return Jet(sp, self.c * other)

    __rmul__ = __mul__

    def _inverse(self):
        c0 = self.c[0]
        if abs(c0) < 1e-300:
            raise DomainError("division by a jet with zero value part")
        inv_c0 = 1.0 / c0
        u = self * inv_c0
        u.c[0] = u.c[0] - 1.0
        acc = self.space.constant(1.0)
        for _ in range(self.space.order):
            acc = 1.0 - u * acc
        return acc * inv_c0

    def __truediv__(self, other):
        if self._ring(other):
            return self * other._inverse()
        return Jet(self.space, self.c / other)

    def __rtruediv__(self, other):
        return self._inverse() * other

    def __pow__(self, p):
        if isinstance(p, (int, np.integer)) or (isinstance(p, float) and p == int(p)):
            e = int(p)
            if e < 0:
                return self._inverse() ** (-e)
            out = self.space.constant(1.0)
            base = self
            while e:
                if e & 1:
                    out = out * base
                e >>= 1
                if e:
                    base = base * base
            return out
        return (self.log() * p).exp()

    # -- analytic functions via series on the nilpotent part ---------------

    def sqrt(self):
        c0 = self.c[0]
        if c0 <= 0.0:
            raise DomainError(f"sqrt of non-positive jet value {c0}")
        k = self.space.order
        inv_c0 = 1.0 / c0
        u = self * inv_c0
        u.c[0] = u.c[0] - 1.0
        acc = self.space.constant(_binom_half(k))
        for j in reversed(range(k)):
            acc = acc * u + _binom_half(j)
        return acc * smath.sqrt(c0)

    def exp(self):
        k = self.space.order
        c0 = self.c[0]
        x = self - c0
        acc = self.space.constant(1.0 / math.factorial(k))
        for j in reversed(range(k)):
            acc = acc * x + 1.0 / math.factorial(j)
        return acc * smath.exp(c0)

    def log(self):
        c0 = self.c[0]
        if c0 <= 0.0:
            raise DomainError(f"log of non-positive jet value {c0}")
        k = self.space.order
        inv_c0 = 1.0 / c0
        u = self * inv_c0
        u.c[0] = u.c[0] - 1.0
        acc = self.space.constant((-1.0) ** (k + 1) / k if k >= 1 else 0.0)
        for j in reversed(range(1, k)):
            acc = acc * u + (-1.0) ** (j + 1) / j
        return acc * u + smath.log(c0)

    def sin(self):
        c0 = self.c[0]
        return _sin_cos(self - c0, smath.sin(c0), smath.cos(c0), self.space.order, True)

    def cos(self):
        c0 = self.c[0]
        return _sin_cos(self - c0, smath.sin(c0), smath.cos(c0), self.space.order, False)

    # -- derivative access ---------------------------------------------------

    def partial_poly(self, var: int) -> "Jet":
        """Formal partial derivative as a jet of order one lower (exact)."""
        if self.space.order == 0:
            raise IndexError("cannot differentiate an order-0 jet")
        src, fac = self.space._diff[var]
        lower = space_for(self.space.nvars, self.space.order - 1)
        return Jet(lower, self.c[src] * fac)

    def partial(self, alpha):
        """Raw partial derivative d^alpha f at the center."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.space.nvars:
            raise IndexError(f"multi-index length {len(alpha)} != nvars {self.space.nvars}")
        if any(a < 0 for a in alpha):
            raise IndexError("negative multi-index entry")
        if sum(alpha) > self.space.order:
            raise IndexError(f"|alpha|={sum(alpha)} exceeds jet order {self.space.order}")
        return self.c[self.space.index[alpha]] * _alpha_factorial(alpha)

    def derivative(self, k: int) -> np.ndarray:
        """All raw k-th partials at the center as a symmetric (nvars,)*k array.

        Entry t is d^k f / dz_t1 ... dz_tk, read as c_alpha * alpha! through
        the space's cached gather table, so it equals ``partial(alpha)``
        bit for bit. Tensors are slices of it; for a joint (x, y) jet in 2n
        variables, ``derivative(2)[n:, n:]`` is the fiber Hessian. Raises
        IndexError for k outside 0..order.
        """
        idx, weight = self.space._gather(k)
        return self.c[idx] * weight

    def truncate(self, order: int) -> "Jet":
        if order > self.space.order:
            raise ValueError("cannot raise the order of a jet")
        if order == self.space.order:
            return self
        lower = space_for(self.space.nvars, order)
        return Jet(lower, self.c[: lower.size].copy())


def _sin_cos(x, s0, c0, k, want_sin):
    # sin(a+x) = sin a cos x + cos a sin x, series in the nilpotent part x
    sin_x = x.space.constant(0.0)
    cos_x = x.space.constant(1.0)
    xp = x.space.constant(1.0)
    for j in range(1, k + 1):
        xp = xp * x
        if j % 2 == 1:
            sin_x = sin_x + xp * ((-1.0) ** ((j - 1) // 2) / math.factorial(j))
        else:
            cos_x = cos_x + xp * ((-1.0) ** (j // 2) / math.factorial(j))
    if want_sin:
        return sin_x * c0 + cos_x * s0
    return cos_x * c0 - sin_x * s0


def _alpha_factorial(alpha) -> float:
    fact = 1.0
    for a in alpha:
        fact *= math.factorial(a)
    return fact


@lru_cache(maxsize=None)
def _binom_half(j: int) -> float:
    out = 1.0
    for i in range(j):
        out *= (0.5 - i) / (i + 1)
    return out


# -- public operations --------------------------------------------------------


def lift_any(f, center, order: int) -> Jet:
    """Lift without the public order cap (``center`` holds floats)."""
    space = space_for(len(center), order)
    seeds = [space.coordinate(i, center[i]) for i in range(len(center))]
    out = f(seeds)
    if not isinstance(out, Jet) or out.space is not space:
        if isinstance(out, Jet):
            raise ValueError("rule returned a jet from an unexpected space")
        out = space.constant(float(out))
    out.center = list(center)
    return out


def jet_lift(f, center, order: int) -> Jet:
    """Taylor-expand a smooth scalar map about ``center`` to total ``order``.

    ``f`` receives a list of scalars (floats or jets) and must be built from
    +, -, *, /, ** and the ``smath`` functions so the same code path serves
    plain evaluation and jet evaluation.
    """
    if not 1 <= order <= MAX_PUBLIC_ORDER:
        raise ValueError(f"order must be in 1..{MAX_PUBLIC_ORDER}, got {order}")
    return lift_any(f, list(center), order)


def partial(jet: Jet, alpha):
    """Raw partial derivative d^alpha f of the lifted map at its center."""
    return jet.partial(alpha)


def solve_linear(amat, b):
    """Solve A x = b by Gaussian elimination with jet-valued entries.

    Pivots on value-part magnitude. Used to invert the fundamental tensor
    inside the truncated polynomial ring.
    """

    def inv(entry):
        return entry._inverse() if isinstance(entry, Jet) else 1.0 / entry

    n = len(b)
    a = [list(row) for row in amat]
    x = list(b)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(_val(a[r][col])))
        if abs(_val(a[piv][col])) < 1e-300:
            raise DomainError("singular matrix in jet linear solve")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            x[col], x[piv] = x[piv], x[col]
        for r in range(n):
            if r == col:
                continue
            factor = a[r][col] * inv(a[col][col])
            for cc in range(col, n):
                a[r][cc] = a[r][cc] - factor * a[col][cc]
            x[r] = x[r] - factor * x[col]
    return [x[i] * inv(a[i][i]) for i in range(n)]
