"""Truncated multivariate Taylor (jet) arithmetic, scalar- or tensor-valued.

A ``Jet`` is the Taylor expansion of a function about a center, truncated
at a total degree. Coefficients are stored per multi-index in Taylor
normalization (c_alpha = d^alpha f / alpha!) along the last axis of ``c``.
Any axes before it are leading axes: one jet carries a whole tensor field,
e.g. ``c.shape == (n, n, size)`` for a matrix of functions. Arithmetic, the
series functions and ``derivative(k)`` act entrywise and broadcast over the
leading axes like numpy, and indexing a jet indexes its leading axes.
``grad()`` returns all first formal partials, one order lower, as a new
last leading axis; ``contract`` sums jet products over leading indices and
``solve_linear`` solves a jet-valued linear system. Arithmetic is exact on
the retained coefficients, so derivatives read from a jet are exact
derivatives of the evaluated expression.

Each jet also carries two structural bounds. Its degree bound ``deg``:
every coefficient of a multi-index above it is exactly zero. Coordinates
have degree 1 and constants 0; + and - take the larger bound, a product the
sum (capped at the order), ``grad()`` one less, and indexing and a product
or quotient with a non-jet keep it (``truncate`` caps it at the new order).
Its variable support ``support``, a bit mask: every coefficient of a
multi-index that involves a variable outside the mask is exactly zero.
Coordinate v has bit v alone and a constant none; +, - and a product take
the union of their operands' masks, as does the stack of a rule's results
in ``lift_any``, and scalar arithmetic, the series functions, ``grad()``,
``truncate`` and indexing keep it, so that a factor such as a conformal
factor of x alone or |y| keeps to its own variables.

A jet product multiplies only the pairs (a, b) with a within the degree
bound and support of its first factor and b within those of its second: a
subsequence of the full pair table in its order, whose skipped products
are exact zeros, so every sum is the full table's bit for bit (for finite
coefficients). ``contract`` keeps the full table and returns the union of
the supports. A jet built from raw coefficients without bounds gets the
order and every variable, which prunes nothing.

Coefficients are always float64. A rule written once against ``smath``
serves both plain float evaluation and jet evaluation.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError

__all__ = ["Jet", "JetSpace", "contract", "lift_any", "smath", "solve_linear"]


def _multi_indices(nvars: int, order: int) -> np.ndarray:
    """All multi-indices with |alpha| <= order as the rows of an int array,
    sorted by (degree, lex).

    Degree-major ordering makes the enumeration for a lower order a prefix
    of the one for a higher order (same nvars), so truncation is a slice.
    """
    # lex order over the last k variables, k = 1 .. nvars: prepend each first
    # entry in turn to the rows whose degree leaves room for it
    rows = np.arange(order + 1)[:, None]
    for _ in range(nvars - 1):
        deg = rows.sum(axis=1)
        rows = np.concatenate([np.insert(rows[deg <= order - a], 0, a, axis=1)
                               for a in range(order + 1)])
    deg = rows.sum(axis=1)
    return np.concatenate([rows[deg == d] for d in range(order + 1)])


@lru_cache(maxsize=None)
def space_for(nvars: int, order: int) -> "JetSpace":
    return JetSpace(nvars, order)


class JetSpace:
    """Shared index tables for all jets with a given (nvars, order).

    Every table is read off one multi-index array (size, nvars) through a
    mixed-radix key with |alpha| as its leading digit and alpha_0 .. alpha_n-1
    after it, base order + 1. The keys increase along the (degree, lex)
    order, so a binary search finds an index, and key(a + b) = key(a) +
    key(b) while a + b stays in the space.
    """

    def __init__(self, nvars: int, order: int):
        if nvars < 1 or order < 0:
            raise ValueError("need nvars >= 1 and order >= 0")
        self.nvars = nvars
        self.order = order
        self._multi = A = _multi_indices(nvars, order)
        self.alphas = list(map(tuple, A.tolist()))
        self.size = len(self.alphas)
        self.index = {a: i for i, a in enumerate(self.alphas)}
        # entry [v, k]: coefficient k + 1 (the degree-1 block) of coordinate v
        self._unit_block = np.array(self.alphas[1:nvars + 1], float).T

        # the key's weight of alpha_v: its own digit plus its share of |alpha|
        self._radix = (order + 1) ** nvars + (order + 1) ** np.arange(nvars - 1, -1, -1)
        self._keys = keys = A @ self._radix
        deg = A.sum(axis=1)
        # the alphas of degree <= d are the first n_upto[d]
        n_upto = np.searchsorted(deg, np.arange(order + 1), side="right")

        # every pair with |a| + |b| <= order, a-major with b ascending: for a,
        # the b are the prefix of degree <= order - |a|
        count = n_upto[order - deg]
        ia = np.repeat(np.arange(self.size), count)
        ib = np.arange(len(ia)) - np.repeat(np.cumsum(count) - count, count)
        self._mul_ia, self._mul_ib = ia, ib
        self._mul_ic = np.searchsorted(keys, keys[ia] + keys[ib])
        self._deg = deg
        # a support has bit v for variable v
        self.all_vars = (1 << nvars) - 1
        # the pairs (ia, ib, ic) and the product's degree bound by the degree
        # bounds and supports of its factors
        self._pairs = {(order, order, self.all_vars, self.all_vars):
                       (ia, ib, self._mul_ic, order)}

        # gradient index map: coeff of d f/dz_v at beta is
        # (beta_v + 1) * coeff of f at beta + e_v, one row per variable v
        if order >= 1:
            lower = A[:n_upto[order - 1]]
            self._grad_src = np.searchsorted(keys, keys[:len(lower)] + self._radix[:, None])
            self._grad_fac = np.ascontiguousarray(lower.T + 1, dtype=float)
        self._gathers: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._scatters: dict[int, np.ndarray] = {}

    def _gather(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Coefficient index and alpha! weight for every ordered k-tuple of
        variables, each of shape (nvars,)*k; built once per k."""
        if not 0 <= k <= self.order:
            raise IndexError(f"derivative order {k} outside 0..{self.order}")
        if k not in self._gathers:
            shape = (self.nvars,) * k
            # the key of a tuple's alpha sums the radix of each variable in it
            tuples = np.indices(shape).reshape(k, self.nvars ** k)
            idx = np.searchsorted(self._keys, self._radix[tuples].sum(axis=0))
            factorials = np.array([math.factorial(j) for j in range(k + 1)], float)
            weight = factorials[self._multi[idx]].prod(axis=1)
            idx, weight = idx.reshape(shape), weight.reshape(shape)
            self._gathers[k] = (idx, weight)
        return self._gathers[k]

    def _degrees(self, support: int) -> np.ndarray:
        """Per alpha: |alpha|, or more than the order where alpha involves a
        variable outside ``support``."""
        outside = [v for v in range(self.nvars) if not support >> v & 1]
        return self._deg + (self.order + 1) * self._multi[:, outside].sum(axis=1)

    def _pruned(self, da: int, db: int, sa: int, sb: int) -> tuple:
        """The pairs (ia, ib, ic) with a within degree da and support sa and b
        within db and sb, in the full table's order, and the product's degree
        bound; built once per (da, db, sa, sb)."""
        key = (da, db, sa, sb)
        pairs = self._pairs.get(key)
        if pairs is None:
            ia, ib = self._mul_ia, self._mul_ib
            # integer degrees gathered over the pairs, as for the degree bound
            # alone: boolean masks gathered instead raised the lift-curvature
            # benchmark's peak memory by 0.4 MB
            keep = np.flatnonzero((self._degrees(sa)[ia] <= da) & (self._degrees(sb)[ib] <= db))
            pairs = self._pairs[key] = (ia[keep], ib[keep], self._mul_ic[keep],
                                        min(da + db, self.order))
        return pairs

    def _scatter(self, prod: np.ndarray, ic: np.ndarray) -> np.ndarray:
        """Sum pair products (..., pairs) into coefficients (..., size) at the
        pairs' targets ``ic``, one bincount in scalar-product order, so entries
        match scalar products bitwise."""
        m = prod.size // len(ic)
        if not m:
            # bincount over no entries gives int64, which jet arithmetic cannot take
            return np.zeros(prod.shape[:-1] + (self.size,))
        idx = self._scatters.get(m) if ic is self._mul_ic else None
        if idx is None:
            idx = (ic + np.arange(0, m * self.size, self.size)[:, None]).ravel()
            # kept for the full table only: one index per (pruned table, batch
            # size) would cost more memory than its build costs time
            if ic is self._mul_ic:
                self._scatters[m] = idx
        out = np.bincount(idx, weights=prod.ravel(), minlength=m * self.size)
        return out.reshape(prod.shape[:-1] + (self.size,))

    def constant(self, value) -> "Jet":
        c = np.zeros(self.size)
        c[0] = float(value)
        return Jet(self, c, 0, 0)

    def coordinates(self, center) -> "Jet":
        """The jet of the coordinate functions about ``center``.

        ``center`` has shape (..., nvars); the jet has leading axes
        (nvars, ...), so ``coordinates(center)[v]`` is coordinate v about
        every center of the batch at once.
        """
        center = np.asarray(center, float)
        batch = center.ndim - 1
        c = np.zeros((self.nvars,) + center.shape[:-1] + (self.size,))
        c[..., 0] = center.transpose(-1, *range(batch))
        if self.order >= 1:
            c[..., 1:self.nvars + 1] = self._unit_block.reshape(
                (self.nvars,) + (1,) * batch + (self.nvars,))
        return Jet(self, c, min(1, self.order))

    def __repr__(self):
        return f"JetSpace(nvars={self.nvars}, order={self.order})"


def _any(flags) -> bool:
    """``flags.any()``, cheap on the numpy scalar of a scalar jet."""
    return flags.any() if isinstance(flags, np.ndarray) else bool(flags)


def _map(fn, c0):
    """A scalar float function at a float, or at every entry of a float array."""
    if not isinstance(c0, np.ndarray):
        return fn(c0)
    return np.fromiter(map(fn, c0.ravel().tolist()), float, c0.size).reshape(c0.shape)


def _shift(c: np.ndarray, other) -> np.ndarray:
    """A copy of coefficients ``c`` with ``other`` added to each value part;
    an array ``other`` broadcasts against the leading axes like numpy, from the
    back, and where it has more or longer axes the coefficients broadcast too."""
    out = c.copy()
    try:
        if out.ndim == 1:
            out[0] += other   # a scalar jet: item access is several times cheaper
        else:
            out[..., 0] += other
    except ValueError:
        other = np.asarray(other, float)
        lead = np.broadcast_shapes(c.shape[:-1], other.shape)
        out = np.array(np.broadcast_to(c, lead + c.shape[-1:]))
        out[..., 0] += other
    return out


class smath:
    """Scalar math generic over float and Jet, for writing rules once.

    A float argument may also be a float array, taken entry by entry with
    the scalar ``math`` function, so that a rule evaluated at a batch of
    float points gives each point its single-point value bit for bit.
    """

    @staticmethod
    def sqrt(u):
        if isinstance(u, Jet):
            return u.sqrt()
        if _any(u <= 0.0):
            raise DomainError(f"sqrt of non-positive value {np.min(u)}")
        # np.sqrt is correctly rounded, so it equals math.sqrt entry by entry
        return np.sqrt(u) if isinstance(u, np.ndarray) else math.sqrt(u)

    @staticmethod
    def exp(u):
        return u.exp() if isinstance(u, Jet) else _map(math.exp, u)

    @staticmethod
    def log(u):
        if isinstance(u, Jet):
            return u.log()
        if _any(u <= 0.0):
            raise DomainError(f"log of non-positive value {np.min(u)}")
        return _map(math.log, u)

    @staticmethod
    def sin(u):
        return u.sin() if isinstance(u, Jet) else _map(math.sin, u)

    @staticmethod
    def cos(u):
        return u.cos() if isinstance(u, Jet) else _map(math.cos, u)

    @staticmethod
    def dot(u, v):
        acc = u[0] * v[0]
        for a, b in zip(u[1:], v[1:]):
            acc = acc + a * b
        return acc


class Jet:
    """Coefficients ``c`` of shape leading axes + (space.size,); a non-jet
    operand of arithmetic is a float or an array, which broadcasts against the
    leading axes like numpy: a sum, difference or product has the joint shape.

    ``deg`` is the structural degree bound and ``support`` the variable
    support (see the module docstring); they default to the order and to
    every variable, which is always sound.
    """

    __slots__ = ("space", "c", "deg", "support")
    # numpy operands defer to the jet's reflected operators
    __array_ufunc__ = None

    def __init__(self, space: JetSpace, coeffs: np.ndarray, _deg: int | None = None,
                 _support: int | None = None):
        self.space = space
        self.c = coeffs
        self.deg = space.order if _deg is None else _deg
        self.support = space.all_vars if _support is None else _support

    @property
    def value(self):
        return self.c[0] if self.c.ndim == 1 else self.c[..., 0]

    @property
    def order(self) -> int:
        return self.space.order

    @property
    def shape(self) -> tuple:
        """The leading axes."""
        return self.c.shape[:-1]

    def __repr__(self):
        lead = f", shape={self.shape}" if self.shape else ""
        return f"Jet(nvars={self.space.nvars}, order={self.order}{lead}, value={self.value!r})"

    def __getitem__(self, key):
        """Index the leading axes; the coefficient axis is never indexed."""
        if self.c.ndim == 1:
            raise TypeError("a scalar jet has no leading axes to index")
        key = key if isinstance(key, tuple) else (key,)
        return Jet(self.space, self.c[key + (slice(None),)], self.deg, self.support)

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
            return Jet(self.space, self.c + other.c, max(self.deg, other.deg),
                       self.support | other.support)
        return Jet(self.space, _shift(self.c, other), self.deg, self.support)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.c, self.deg, self.support)

    def __sub__(self, other):
        if self._ring(other):
            return Jet(self.space, self.c - other.c, max(self.deg, other.deg),
                       self.support | other.support)
        return Jet(self.space, _shift(self.c, -other), self.deg, self.support)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        sp = self.space
        if self._ring(other):
            key = (self.deg, other.deg, self.support, other.support)
            # the lookup inline: a method call would cost small products a few percent
            ia, ib, ic, deg = sp._pairs.get(key) or sp._pruned(*key)
            support = self.support | other.support
            if self.c.ndim == 1 and other.c.ndim == 1:
                prod = self.c[ia] * other.c[ib]
                return Jet(sp, np.bincount(ic, weights=prod, minlength=sp.size), deg, support)
            prod = self.c.take(ia, axis=-1) * other.c.take(ib, axis=-1)
            return Jet(sp, sp._scatter(prod, ic), deg, support)
        if isinstance(other, np.ndarray):
            other = other[..., None]
        return Jet(sp, self.c * other, self.deg, self.support)

    __rmul__ = __mul__

    def _inverse(self):
        c0 = self.value
        if _any(abs(c0) < 1e-300):
            raise DomainError("division by a jet with zero value part")
        inv_c0 = 1.0 / c0
        u = self * inv_c0
        u.c.T[0] -= 1.0
        acc = self.space.constant(1.0)
        for _ in range(self.space.order):
            acc = 1.0 - u * acc
        return acc * inv_c0

    def __truediv__(self, other):
        if self._ring(other):
            return self * other._inverse()
        if isinstance(other, np.ndarray):
            other = other[..., None]
        return Jet(self.space, self.c / other, self.deg, self.support)

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
        c0 = self.value
        if _any(c0 <= 0.0):
            raise DomainError(f"sqrt of non-positive jet value {np.min(c0)}")
        k = self.space.order
        inv_c0 = 1.0 / c0
        u = self * inv_c0
        u.c.T[0] -= 1.0
        acc = self.space.constant(_binom_half(k))
        for j in reversed(range(k)):
            acc = acc * u + _binom_half(j)
        return acc * smath.sqrt(c0)

    def exp(self):
        k = self.space.order
        c0 = self.value
        x = self - c0
        acc = self.space.constant(1.0 / math.factorial(k))
        for j in reversed(range(k)):
            acc = acc * x + 1.0 / math.factorial(j)
        return acc * smath.exp(c0)

    def log(self):
        c0 = self.value
        if _any(c0 <= 0.0):
            raise DomainError(f"log of non-positive jet value {np.min(c0)}")
        k = self.space.order
        inv_c0 = 1.0 / c0
        u = self * inv_c0
        u.c.T[0] -= 1.0
        acc = self.space.constant((-1.0) ** (k + 1) / k if k >= 1 else 0.0)
        for j in reversed(range(1, k)):
            acc = acc * u + (-1.0) ** (j + 1) / j
        return acc * u + smath.log(c0)

    def sin(self):
        c0 = self.value
        return _sin_cos(self - c0, smath.sin(c0), smath.cos(c0),
                        self.space.order, True)

    def cos(self):
        c0 = self.value
        return _sin_cos(self - c0, smath.sin(c0), smath.cos(c0),
                        self.space.order, False)

    # -- derivative access ---------------------------------------------------

    def grad(self) -> "Jet":
        """All first formal partials as a new last leading axis, one order lower.

        ``f.grad()[..., v]`` is the exact jet of df/dz_v, and
        ``f.grad().value`` equals ``f.derivative(1)``.
        """
        sp = self.space
        if sp.order == 0:
            raise IndexError("cannot differentiate an order-0 jet")
        lower = space_for(sp.nvars, sp.order - 1)
        return Jet(lower, self.c.take(sp._grad_src, axis=-1) * sp._grad_fac,
                   max(self.deg - 1, 0), self.support)

    def partial(self, alpha):
        """Raw partial derivative d^alpha f at the center."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.space.nvars:
            raise IndexError(f"multi-index length {len(alpha)} != nvars {self.space.nvars}")
        if any(a < 0 for a in alpha):
            raise IndexError("negative multi-index entry")
        if sum(alpha) > self.space.order:
            raise IndexError(f"|alpha|={sum(alpha)} exceeds jet order {self.space.order}")
        return self.c[..., self.space.index[alpha]] * _alpha_factorial(alpha)

    def derivative(self, k: int) -> np.ndarray:
        """All raw k-th partials at the center: leading axes + (nvars,)*k.

        Entry t is d^k f / dz_t1 ... dz_tk, read as c_alpha * alpha! through
        the space's cached gather table, so it equals ``partial(alpha)``
        bit for bit. Tensors are slices of it; for a joint (x, y) jet in 2n
        variables, ``derivative(2)[n:, n:]`` is the fiber Hessian. Raises
        IndexError for k outside 0..order.
        """
        idx, weight = self.space._gather(k)
        return self.c.take(idx, axis=-1) * weight

    def truncate(self, order: int) -> "Jet":
        if order > self.space.order:
            raise ValueError("cannot raise the order of a jet")
        if order == self.space.order:
            return self
        lower = space_for(self.space.nvars, order)
        return Jet(lower, self.c[..., : lower.size].copy(), min(self.deg, order), self.support)


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
    """Taylor-expand a map about ``center`` (floats) to total ``order`` >= 0.

    ``f`` must be built from +, -, *, /, ** and the ``smath`` functions, so
    that one rule serves plain and jet evaluation. It receives the list of
    coordinate jets and returns a scalar or a (nested) sequence of scalars,
    jets or floats; each level of nesting becomes a leading axis of the one
    jet returned. A ``center`` of shape
    (..., nvars) lifts at every center of the batch in one rule trace: the
    coordinate jets, and so the result (constants included), carry the
    batch axes last among the leading axes.
    """
    space = space_for(np.shape(center)[-1], order)
    coords = space.coordinates(center)
    out = f([Jet(space, row, coords.deg, 1 << v) for v, row in enumerate(coords.c)])
    return _stack(out, space, np.shape(center)[:-1])


def _stack(out, space: JetSpace, batch: tuple) -> Jet:
    """One jet of a rule's result in ``space``: a jet as it is, or a (nested)
    sequence of scalar jets and floats over ``batch``, each level of nesting
    a leading axis before the batch axes; a float is a constant over the batch."""
    leaves = []

    def nesting(item):
        """Collect the coefficients of item's leaves in order; return the
        shape of its nesting, so that the leaves are stacked once."""
        if isinstance(item, Jet):
            if item.space is not space:
                raise ValueError("rule returned a jet from an unexpected space")
            leaves.append(item)
            return ()
        if isinstance(item, (list, tuple, np.ndarray)):
            shapes = {nesting(v) for v in item}
            if len(shapes) != 1:
                raise ValueError("rule returned a ragged or empty sequence")
            return (len(item),) + shapes.pop()
        # a constant carries the batch axes too
        leaves.append(Jet(space, np.broadcast_to(space.constant(float(item)).c,
                                                 batch + (space.size,)), 0, 0))
        return ()

    shape = nesting(out)
    if isinstance(out, Jet):
        return out
    c = np.stack(np.broadcast_arrays(*(leaf.c for leaf in leaves)))
    support = 0
    for leaf in leaves:
        support |= leaf.support
    return Jet(space, c.reshape(shape + c.shape[1:]), max(leaf.deg for leaf in leaves),
               support)


def contract(spec: str, a: Jet, b: Jet) -> Jet:
    """Two-operand einsum over leading axes, with truncated jet products.

    ``spec`` names leading axes only, e.g. ``"mi,mjk->ijk"``; an index left
    out of the output is summed over. The letter Z is reserved.
    """
    sp = a.space
    if b.space is not sp:
        raise ValueError("jet spaces differ; truncate explicitly first")
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    # the full pair table: the few contractions of a low-degree jet save less
    # than a pruned table's scatter index costs to build
    prod = np.einsum(f"{sa}Z,{sb}Z->{out}Z", a.c.take(sp._mul_ia, axis=-1),
                     b.c.take(sp._mul_ib, axis=-1))
    return Jet(sp, sp._scatter(prod, sp._mul_ic), min(a.deg + b.deg, sp.order),
               a.support | b.support)


def solve_linear(a: Jet, b: Jet, a0inv) -> Jet:
    """Solve a x = b in the truncated ring by a Neumann series.

    ``a`` is a jet of shape (..., n, n) and ``a0inv`` the numeric inverse of
    its value part, (..., n, n); ``b`` is a jet of shape (..., n) + rest
    with the same leading batch axes (...), and x has b's shape. With d the
    nilpotent part of a (its value part zeroed), each pass of
    x <- a0inv (b - d x), from x = a0inv b, fixes one more degree, so
    ``order`` passes give the exact truncated solution. Each batch entry
    is bitwise equal to its own unbatched solve.
    """
    d = Jet(a.space, a.c.copy())
    d.c[..., 0] = 0.0
    lead = a.c.ndim - 2      # batch axes plus the solved-for axis

    # explicit sizes, not -1, so that an empty batch reshapes too
    def apply_inv(rhs):
        c = rhs.c.reshape(rhs.c.shape[:lead] + (math.prod(rhs.c.shape[lead:]),))
        return Jet(rhs.space, np.matmul(a0inv, c).reshape(rhs.c.shape))

    def apply_d(x):
        # the rest axes as one, so that one contraction spec serves every shape
        rest = math.prod(x.c.shape[lead:-1])
        flat = Jet(x.space, x.c.reshape(x.c.shape[:lead] + (rest, x.space.size)))
        return Jet(x.space, contract("...ij,...jr->...ir", d, flat).c.reshape(x.c.shape))

    x = apply_inv(b)
    for _ in range(b.order):
        x = apply_inv(b - apply_d(x))
    return x
