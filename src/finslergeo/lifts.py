"""Lifts of the canonical connection, their torsion/metric conditions,
curvature, and the induced direction-dependent affine connections.

A lift is encoded by its deviation from the Berwald base: a pair of
semibasic tensors, one per adapted-frame block. The covariant derivative of
a vertical section s reads

    over a horizontal direction a:  a^j (ds^i/dx^j|_adapted + (B + Cp)^i_jk s^k)
    over a vertical direction b:    b^j (ds^i/dy^j + Cc^i_jk s^k)

with B the Berwald coefficients and Cc/Cp the lift tensors with the output
index raised (layout [output, direction, section]). Admissibility is the
vanishing of both tensors when the section slot is fed the base direction.

The two tensors are the lift's halves: C, the vertical one, and C', the
horizontal one, whose family A = B + C' is all the calculus of variations
sees. Every entry point but ``lift_curvature``, which differentiates the
lift's fields, reads a lift at a frame through one reader, ``_reader``:
each half's flat tensor, its raise and its block of nabla g, built once.
A classical half is the frame's C or C' or zero, kept on the frame; a
rule lift's rules run once per reader.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import GridError, InvalidLift, NullReference
from .jets import Jet, _stack, contract, smath, solve_linear, space_for
from .metrics import NULL_DIRECTION_TOL, MetricSpec, TangentVector, _batch_note, require_points
from .rng import SplitMix64
from .spray import PointFrame, _matvec, adapted_split

ADMISSIBILITY_TOL = 1e-7

ALL_CONDITIONS = ("T1", "T2", "T3", "M1", "M2", "M3", "M4", "M5", "M6", "M7")
_RANDOM_AMPLITUDE = 0.4   # bound of the random lift's constant coefficients


class ClassicalKind(str, Enum):
    BERWALD = "berwald"
    CARTAN = "cartan"
    CHERN_RUND = "chern-rund"
    HASHIGUCHI = "hashiguchi"


# which of (C, C') each classical connection carries
_CLASSICAL_TABLE = {
    ClassicalKind.BERWALD: (False, False),
    ClassicalKind.CARTAN: (True, True),
    ClassicalKind.CHERN_RUND: (False, True),
    ClassicalKind.HASHIGUCHI: (True, False),
}


@dataclass(frozen=True)
class LiftPoint:
    """The tangent point a lift rule receives.

    ``x``, ``y``: coordinates; ``f2``: F^2 there; ``gw[i]``: half dF^2/dy^i,
    so that g_w(w, v) = smath.dot(gw, v) by Euler's identity. ``f2`` and
    ``gw`` are None for a bare spray. ``x``, ``y`` and ``gw`` are tensor
    carriers with the component axis first, and the batch axes (none for a
    single point) after it: on a frame, float arrays (``x[i]`` is
    coordinate i at every point of the frame's batch) and ``f2`` a float or
    a float array over the batch; inside ``lift_curvature``, order-1 jets in
    (x, y) over the batch of its points, ``x`` and ``y`` one jet each.
    """

    x: object
    y: object
    f2: object = None
    gw: object = None


class LiftSpec:
    """A lift of the canonical connection.

    Every rule gives a whole tensor in one call, ``rule(w) -> T[j][k][l]``:
    n x n x n, as a nested sequence or as one array or jet (any other shape
    raises ``InvalidLift``), with axes direction j, section k and slot l.
    ``c_flat`` / ``cprime_flat`` give the metric-lowered tensors, l the
    metric slot; ``c_raw`` / ``cprime_raw`` serve bare sprays, l the output
    index. A lift has flat rules or raw rules, not both (``InvalidLift``).
    ``kind`` marks the four classical connections; they have no rules (all
    four fields are None) and take C and C' from the frame instead.

    A rule receives ``w`` as a ``LiftPoint``: ``w.x``, ``w.y``, ``w.f2`` and
    ``w.gw``, as floats or float arrays over a frame's batch (once per
    frame) or as order-1 jets when ``lift_curvature`` differentiates the
    lift's fields (once for its whole batch, which the jets carry). Rules
    must be written with arithmetic, indexing and ``smath`` so that one rule
    serves both. A rule may compute with whole tensors: ``w.y[:, None] *
    w.gw[None, :]`` is the (n, n) outer product over the batch, and a numpy
    constant ``k`` combines with a carrier once padded by the batch axes,
    ``k.reshape(k.shape + (1,) * (len(np.shape(w.y)) - 1))``; it may then
    return the tensor, (n, n, n) followed by the carrier's batch axes. Or it
    may index entries (``w.y[a]`` is one scalar over the batch, and
    ``k[a, b, c] * s`` needs no padding) and return a nested sequence.
    """

    def __init__(self, name, c_flat=None, cprime_flat=None, c_raw=None,
                 cprime_raw=None, kind=None):
        rules = {"c_flat": c_flat, "cprime_flat": cprime_flat, "c_raw": c_raw,
                 "cprime_raw": cprime_raw}
        given = [field for field, rule in rules.items() if rule is not None]
        if any(f.endswith("_flat") for f in given) and any(f.endswith("_raw") for f in given):
            # a raw rule would win and the flat one be ignored in silence
            raise InvalidLift(f"lift {name}: flat and raw rules cannot be mixed, "
                              f"got {' and '.join(given)}")
        self.name = name
        self.c_flat = c_flat
        self.cprime_flat = cprime_flat
        self.c_raw = c_raw
        self.cprime_raw = cprime_raw
        self.kind = ClassicalKind(kind) if kind is not None else None

    def __repr__(self):
        return f"LiftSpec({self.name})"


@dataclass(frozen=True)
class AffineCoefficients:
    at: TangentVector
    A: np.ndarray  # (n,n,n): A^i_jk


@dataclass(frozen=True)
class SectionJet:
    """A vertical section s^i(x, y) with its first-order jets at a point,
    or at each point of a batch (leading axes)."""

    value: np.ndarray  # (..., n)
    dx: np.ndarray     # (..., n, n): dx[i,j] = ds^i/dx^j
    dy: np.ndarray     # (..., n, n)


# -- classical lifts ------------------------------------------------------------


def classical_lift(kind, ms: MetricSpec) -> LiftSpec:
    """The Berwald / Cartan / Chern-Rund / Hashiguchi lift of a metric.

    It carries no rules: every engine path reads its tensors from the
    frame through ``kind`` (see ``_CLASSICAL_TABLE``).
    """
    kind = ClassicalKind(kind)
    return LiftSpec(name=kind.value, kind=kind)


# -- lift tensors at a point -----------------------------------------------------


def _rule_fields(lift: LiftSpec, w, n):
    """Each of the lift's rules called once at carrier w, zero where a rule is absent.

    Nested [tensor][direction][section][slot], tensors (C, C'): the slot is
    the output index for raw rules and the metric slot for flat rules.
    """
    rules = (lift.c_raw, lift.cprime_raw) if _is_raw(lift) else (lift.c_flat, lift.cprime_flat)
    fields = [rule(w) if rule else np.zeros((n, n, n)) for rule in rules]
    batch = np.shape(w.y)[1:]
    for t in fields:
        if isinstance(t, (Jet, np.ndarray)):
            # a tensor carries the carrier's batch axes after its own, or none
            ok = t.shape[:3] == (n, n, n) and t.shape[3:] in ((), batch)
        else:
            # a float carrier over a batch gives array leaves, one more axis
            ok = np.array(t, dtype=object).shape[:3] == (n, n, n)
        if not ok:
            raise InvalidLift(f"lift {lift.name}: a rule returned no {n} x {n} x {n} tensor")
    return fields


def _is_raw(lift: LiftSpec) -> bool:
    return lift.c_raw is not None or lift.cprime_raw is not None


def _refuse_flat_on_a_spray(lift: LiftSpec, fr: PointFrame) -> None:
    """Refuse, at a bare spray's frame, a lift whose tensors need a metric:
    flat rules, or a classical lift that carries C or C'. Berwald's halves
    are zero, so it alone of the flat lifts serves a spray."""
    berwald = lift.kind is not None and not any(_CLASSICAL_TABLE[lift.kind])
    if fr.metric is None and not _is_raw(lift) and not berwald:
        raise InvalidLift(f"lift {lift.name}: flat lift tensors require a metric, "
                          f"got a bare spray")


def _rule_tensors(lift: LiftSpec, fr: PointFrame) -> np.ndarray:
    """The lift's rule fields at every point of fr, shape (..., 2, n, n, n):
    one call per rule on a float carrier over fr's batch, component axis
    first; a constant leaf is broadcast over the batch."""
    n, batch = fr.n, fr.x.shape[:-1]
    x, y = np.moveaxis(fr.x, -1, 0), np.moveaxis(fr.y, -1, 0)
    w = LiftPoint(x, y) if fr.f is None else LiftPoint(x, y, fr.f.value, np.moveaxis(fr.gw, -1, 0))
    leaves = [np.broadcast_to(np.asarray(t[j][k][l], float), batch)
              for t in _rule_fields(lift, w, n)
              for j in range(n) for k in range(n) for l in range(n)]
    return np.stack(leaves, axis=-1).reshape(batch + (2, n, n, n))


def lift_tensors(lift: LiftSpec, fr: PointFrame):
    """(Cc, Cp) with the output index raised, layout [..., output, direction, section].

    A batched frame gives tensors with its batch axes first.
    """
    t = _reader(lift, fr)
    return t("cc"), t("cp")


def _check_admissible(t, y):
    """Refuse raised lift tensors t, (..., (Cc, Cp), output, direction,
    section), that do not vanish on the base direction y, at every point of
    a batch; the message names the first bad point."""
    on_y = np.abs(t @ y[..., None, None, :, None]).max(axis=(-3, -2, -1))
    scale = ((1.0 + np.abs(t).max(axis=(-4, -3, -2, -1)))
             * np.maximum(1.0, np.sqrt((y * y).sum(axis=-1))))
    bad = on_y.max(axis=-1) > ADMISSIBILITY_TOL * scale
    if np.any(bad):
        k = int(np.argmax(bad))
        bad_c, bad_p = on_y.reshape(-1, 2)[k]
        raise InvalidLift(
            f"lift tensors do not vanish on the base direction: |C(.,w)|="
            f"{bad_c:.2e}, |C'(.,w)|={bad_p:.2e}" + _batch_note(np.shape(bad), k))


def _admissible_tensors(lift: LiftSpec, fr: PointFrame):
    """``lift_tensors(lift, fr)``, refused unless both vanish on the base direction."""
    cc, cp = lift_tensors(lift, fr)
    _check_admissible(np.stack([cc, cp], axis=-4), fr.y)
    return cc, cp


# -- connection application ------------------------------------------------------


def nabla_apply(lift: LiftSpec, src, w: TangentVector, X, section: SectionJet) -> np.ndarray:
    """Fiber components of nabla_X J(Y) for the given section jet at w.

    ``w``, ``X`` and the section may carry leading batch axes."""
    fr = PointFrame(src, w, order=4)
    cc, cp = _admissible_tensors(lift, fr)
    a, b = adapted_split(fr, X)
    gh = fr.B + cp
    s = section.value
    ds_adapted = section.dx - np.einsum("...im,...mj->...ij", section.dy, fr.N)
    out = _matvec(ds_adapted, a) + np.einsum("...ijk,...j,...k->...i", gh, a, s)
    out += _matvec(section.dy, b) + np.einsum("...ijk,...j,...k->...i", cc, b, s)
    return out


# -- metric compatibility -----------------------------------------------------


# the frame-only terms of nabla g, built once per frame: twice the Cartan and
# flow tensors, and dg_h[..., j,i,k] = dg_ik/dx^j - N^m_j 2C_mik
_FRAME_TERMS = {
    "2C": lambda fr: 2.0 * fr.C_low,
    "2C'": lambda fr: 2.0 * fr.Cp_low,
    "dg_h": lambda fr: fr.dg_dx - np.einsum("...mj,...mik->...jik", fr.N, _frame_term(fr, "2C")),
}


def _frame_term(fr: PointFrame, name):
    return fr._get(name, lambda: _FRAME_TERMS[name](fr))


def _g_block(base, g, t):
    """base - g_mk t^m_ji - g_im t^m_jk, [..., j, i, k]: a block of nabla g in
    the adapted frame for a raised lift half t over direction j."""
    return (base - np.einsum("...mk,...mji->...jik", g, t)
            - np.einsum("...im,...mjk->...jik", g, t))


# A lift's two halves: C, its vertical part, and C', its horizontal part.
# _reader reads each half by name: C as its flat tensor ccf, its raise cc
# and the componentwise nabla g over d/dy^j, v[..., j,i,k] =
# (nabla_{d/dy^j} g)(e_i, e_k); C' as cpf, cp and h, nabla g over delta/dx^j.
_HALVES = {"C": ("ccf", "cc", "v"), "C'": ("cpf", "cp", "h")}   # in _CLASSICAL_TABLE's order
_HALF_OF = {name: half for half, names in _HALVES.items() for name in names}


def _reader(lift: LiftSpec, fr: PointFrame):
    """t(name) -> the tensor ``name`` of ``_HALVES`` of the lift at fr, each
    built once.

    A classical half is the frame's Cartan tensor (C) or flow tensor (C')
    where the lift uses it, else an unraised zero whose v is 2C, equal to
    its ``_g_block`` up to the signs of zeros; its tensors are kept on the
    frame under (half, used, name), so every frame at the same points
    shares them. A rule lift's rules run once per reader, and its tensors
    live as long as the reader: flat rules are raised, raw rules lowered.
    A lift that needs a metric is refused at a bare spray's frame with
    ``InvalidLift``, as ``lift_curvature`` refuses it.
    """
    _refuse_flat_on_a_spray(lift, fr)
    if lift.kind is None:
        fields = _rule_tensors(lift, fr)
        raw = _is_raw(lift)
        if raw:   # the output index goes first
            fields = np.moveaxis(fields, -1, -3)
        # raw rules give each half's raise, flat rules its flat tensor
        given = {names[int(raw)]: fields[..., k, :, :, :]
                 for k, names in enumerate(_HALVES.values())}

        def t(name):
            if name not in given:
                given[name] = build(name, True)
            return given[name]
    else:
        uses = dict(zip(_HALVES, _CLASSICAL_TABLE[lift.kind]))

        def t(name):
            half = _HALF_OF[name]
            return fr._get((half, uses[half], name), lambda: build(name, uses[half]))

    def build(name, used):
        half = _HALF_OF[name]
        flat, raised, _ = _HALVES[half]
        if name == flat:
            if lift.kind is None:   # a raw rule's
                return np.einsum("...il,...ijk->...jkl", fr.g, t(raised))
            return ((fr.C_low if half == "C" else fr.Cp_low) if used
                    else np.zeros(fr.y.shape + (fr.n, fr.n)))
        if name == raised:
            return fr.raise_last(t(flat)) if used else t(flat)
        if name == "h":
            return _g_block(_frame_term(fr, "dg_h"), fr.g, fr.B + t("cp"))
        return _g_block(_frame_term(fr, "2C"), fr.g, t("cc")) if used else _frame_term(fr, "2C")

    return t


# name: (the half it reads, the residual tensor from the lift's reader t and the frame)
_RESIDUALS = {
    "Cp(y) asym": ("C'", lambda t, fr: (np.einsum("...ijk,...j->...ik", t("cp"), fr.y)
                                        - np.einsum("...ikj,...j->...ik", t("cp"), fr.y))),
    "Cc(y)": ("C", lambda t, fr: np.einsum("...ijk,...k->...ij", t("cc"), fr.y)),
    "Cp asym": ("C'", lambda t, fr: t("cp") - np.swapaxes(t("cp"), -1, -2)),
    "Cc": ("C", lambda t, fr: t("cc")),
    "h(y)": ("C'", lambda t, fr: np.einsum("...jik,...k->...ji", t("h"), fr.y)),
    "v(y)": ("C", lambda t, fr: np.einsum("...jik,...k->...ji", t("v"), fr.y)),
    "Ccf(y)": ("C", lambda t, fr: np.einsum("...jkl,...l->...jk", t("ccf"), fr.y)),
    "h": ("C'", lambda t, fr: t("h")),
    "v": ("C", lambda t, fr: t("v")),
    "h - 2C'": ("C'", lambda t, fr: t("h") - _frame_term(fr, "2C'")),
    "v - 2C": ("C", lambda t, fr: t("v") - _frame_term(fr, "2C")),
    "Ccf asym": ("C", lambda t, fr: t("ccf") - np.swapaxes(t("ccf"), -1, -2)),
}

# condition: the residual tensors whose sup norms it takes the max of
_CONDITIONS = {
    "T1": ("Cp(y) asym", "Cc(y)"),
    "T2": ("Cp asym",),
    "T3": ("Cp asym", "Cc"),
    "M1": ("h(y)", "v(y)"),
    "M2": ("Ccf(y)",),
    "M3": ("h", "v - 2C"),
    "M4": ("h - 2C'", "v"),
    "M5": ("h - 2C'", "v - 2C"),
    "M6": ("h", "v"),
    "M7": ("Ccf asym",),
}


@lru_cache(maxsize=64)
def _residual_plan(conditions):
    """(whether a condition is a metric one, the residual names that
    ``conditions`` read, one tuple per half of ``_HALVES``); an unknown
    condition raises ``ValueError``."""
    for cond in conditions:
        if cond not in _CONDITIONS:
            raise ValueError(f"unknown condition {cond!r}")
    names = dict.fromkeys(name for cond in conditions for name in _CONDITIONS[cond])
    return (any(cond.startswith("M") for cond in conditions),
            tuple(tuple(name for name in names if _RESIDUALS[name][0] == half)
                  for half in _HALVES))


def _sup(res) -> float:
    return float(np.abs(res).max())


# the residuals of an absent classical half that are zero by construction:
# they read only its zero tensor, or v, which is 2C - g 0 - g 0 = 2C
_ZERO_WHEN_ABSENT = frozenset(("Cc", "Cc(y)", "Ccf(y)", "Ccf asym", "v - 2C", "Cp asym",
                               "Cp(y) asym"))


def condition_residuals(lift: LiftSpec, fr: PointFrame, conditions=ALL_CONDITIONS):
    """Sup-norm residual of each requested condition over fr's point(s).

    Residuals are coefficient-tensor sup norms, i.e. the exact maximum over
    unit-box argument vectors and over a batched frame's points. Each
    residual tensor of ``_RESIDUALS`` reads one half of the lift, C or C',
    through the lift's ``_reader``, and is built and reduced once, however
    many conditions read it. A rule lift's rules are called once per call.
    A classical lift's half is the frame's C or C' tensor or zero, so its
    sup norms are kept on the frame with its tensors: the four classical
    lifts evaluate each half once per frame, four half-evaluations instead
    of eight, and every frame at the same points shares them (see
    ``PointFrame``). The residuals of an absent half that read only its zero
    tensor are taken as 0.0 and its v as 2C, unevaluated:
    the same sups bit for bit. An empty batch raises ``ValueError``,
    as does an unknown condition, and a metric condition on a bare spray's
    frame ``TypeError``; there a lift that needs a metric raises
    ``InvalidLift`` (see ``_reader``).
    """
    require_points(fr.y, "condition_residuals")
    conditions = tuple(conditions)
    metric, names = _residual_plan(conditions)
    if metric:
        fr._need_metric()
    t = _reader(lift, fr)
    sups = {}
    for half, used, half_names in zip(_HALVES, _CLASSICAL_TABLE.get(lift.kind, (True, True)),
                                      names):
        # a classical half's sups are kept on the frame with its tensors
        cached = {} if lift.kind is None else fr._get(("sup", half, used), dict)
        for name in half_names:
            if name not in cached:
                cached[name] = (0.0 if not used and name in _ZERO_WHEN_ABSENT
                                else _sup(_RESIDUALS[name][1](t, fr)))
            sups[name] = cached[name]
    return {cond: max([sups[name] for name in _CONDITIONS[cond]]) for cond in conditions}


# -- affine family ---------------------------------------------------------------


def affine_coefficients(lift: LiftSpec, src, w: TangentVector) -> AffineCoefficients:
    """A^i_jk(w) of the affine connection induced by the lift at direction w."""
    fr = PointFrame(src, w, order=4)
    _, cp = _admissible_tensors(lift, fr)
    return AffineCoefficients(at=w, A=fr.B + cp)


def covariant_derivative_curve(lift: LiftSpec, src, curve, W, V):
    """(D^W V / dt) along a curve from samples of W and V at its grid, the
    Chebyshev-Lobatto nodes of its span (any other grid is a ``GridError``).

    Uses the coefficient form Vdot + A(lambda(t), W(t))(lambdadot, V), Vdot
    spectral; the correction term of the non-horizontal-lift formula cancels
    exactly against the vertical transport term (a dedicated test
    re-verifies this against the raw two-term evaluation). The frames at all
    nodes are one order-4 frame over (curve.points, W.vectors).
    """
    from .variational import FieldAlongCurve, _derivative

    grid = np.asarray(curve.grid, float)
    if (W.vectors.shape != V.vectors.shape or len(grid) != len(W.vectors)
            or not np.allclose(W.grid, grid) or not np.allclose(V.grid, grid)):
        raise GridError("curve and field grids do not match")
    vdot = _derivative(grid, V.vectors)
    if np.min(np.linalg.norm(W.vectors, axis=1)) < NULL_DIRECTION_TOL:
        raise NullReference("reference field W vanishes at a node")
    a = affine_coefficients(lift, src, TangentVector(curve.points, W.vectors)).A
    out = vdot + np.einsum("...ijk,...j,...k->...i", a, curve.velocities, V.vectors)
    return FieldAlongCurve(grid=grid, vectors=out)


# -- honest curvature of a lift ---------------------------------------------------


def _move(a: np.ndarray, source: int, destination: int) -> np.ndarray:
    """``np.moveaxis`` for one axis as one transpose, which costs a fraction
    of it on the small arrays of a single point."""
    axes = list(range(a.ndim))
    axes.insert(destination % a.ndim, axes.pop(source))
    return a.transpose(axes)


def _fiber_jets(fr5: PointFrame) -> Jet:
    """Order-1 jets of the fiber coordinates y at fr5's point(s), (..., n)."""
    n = fr5.n
    sp = space_for(2 * n, 1)
    coords = sp.coordinates(np.concatenate([fr5.x, fr5.y], axis=-1)).c[n:]
    return Jet(sp, _move(coords, 0, -2))


def _classical_flat_jets(kind: ClassicalKind, fr5: PointFrame):
    """Order-1 jet of the flat (C, C') fields of a classical lift, stacked (..., 2, n, n, n).

    C' is minus the flow derivative of C with parallel arguments, the sign
    convention of ``PointFrame.Cp_low``; an absent tensor is zero.
    """
    use_c, use_cp = _CLASSICAL_TABLE[kind]
    c1 = fr5.field("C_low")
    cp1 = 0.0 * c1
    if use_cp:
        y1 = _fiber_jets(fr5)
        n1 = fr5.field("N")
        cp1 = -(contract("...lijk,...l->...ijk", fr5.field("dC_dx"), y1)
                - 2.0 * contract("...lijk,...l->...ijk", fr5.field("dC_dy"), fr5.field("G"))
                - contract("...mi,...mjk->...ijk", n1, c1)
                - contract("...mj,...imk->...ijk", n1, c1)
                - contract("...mk,...ijm->...ijk", n1, c1))
    return Jet(c1.space, np.stack([c1.c if use_c else 0.0 * c1.c, cp1.c], axis=-5))


def _lift_field_jets(lift: LiftSpec, fr5: PointFrame):
    """Order-1 jet of the raised lift fields at fr5's point(s), (..., 2, n, n, n)
    with layout [..., (Cc, Cp), output, direction, section].

    Classical lifts are assembled in the truncated ring from the order-5
    metric jet; rule lifts evaluate their rules once at the order-1 jet
    carrier, which holds the whole batch. Flat tensors of either kind are
    raised through one order-1 g^-1 solve. Berwald's fields are the zero
    jet, so it alone of the flat lifts serves a bare spray.
    """
    n = fr5.n
    _refuse_flat_on_a_spray(lift, fr5)
    if lift.kind is not None and not any(_CLASSICAL_TABLE[lift.kind]):
        # Berwald's fields are zero, so it needs no metric
        sp = space_for(2 * n, 1)
        return Jet(sp, np.zeros(fr5.x.shape[:-1] + (2, n, n, n, sp.size)))
    if lift.kind is not None:
        flat = _classical_flat_jets(lift.kind, fr5)
    else:
        sp = space_for(2 * n, 1)
        z = sp.coordinates(np.concatenate([fr5.x, fr5.y], axis=-1))
        f1 = gw1 = None
        if fr5.f is not None:
            gw = fr5.field("gw")
            f1, gw1 = fr5.f.truncate(1), Jet(gw.space, _move(gw.c, -2, 0))
        batch = fr5.x.shape[:-1]
        rules = [_stack(t, sp, batch)
                 for t in _rule_fields(lift, LiftPoint(z[:n], z[n:], f1, gw1), n)]
        c = np.stack(np.broadcast_arrays(*(t.c for t in rules)))
        # the batch axes go before the rules' (2, n, n, n)
        flat = Jet(sp, c.transpose(*range(4, c.ndim - 1), 0, 1, 2, 3, -1))
        if _is_raw(lift):
            return Jet(flat.space, _move(flat.c, -2, -4))
    # the metric slot goes first after the batch axes for the solve, then back
    slot_first = Jet(flat.space, _move(flat.c, -2, -5))
    raised = solve_linear(fr5.gpoly.truncate(1), slot_first, fr5.ginv)
    return Jet(raised.space, _move(raised.c, -5, -4))


def lift_curvature(lift: LiftSpec, src, w: TangentVector, u, vertical_noise=None) -> np.ndarray:
    """i_w^{-1} R(S, X)C computed from the lift's coefficient fields.

    X is the horizontal lift of u, optionally plus vertical noise (fiber
    components). The curvature expression is evaluated honestly: the
    intermediate sections nabla_{.}C are built as fields from the lift's
    coefficient-field jets and differentiated, with no analytic cancellation
    of the lift-dependent terms; lift independence is then a numerical fact
    to be observed, not an input.

    ``w``, ``u`` and ``vertical_noise`` may carry leading batch axes,
    (..., n): one order-5 frame and one evaluation of the lift's fields
    serve every point, the result is (..., n), and each point is bitwise
    equal to its own single-point call.
    """
    fr5 = PointFrame(src, w, order=5)
    n = fr5.n
    y = fr5.y
    u = np.asarray(u, float)
    fields = _lift_field_jets(lift, fr5)
    cc1, cp1 = fields[..., 0, :, :, :], fields[..., 1, :, :, :]
    _check_admissible(fields.value, y)
    y1 = _fiber_jets(fr5)
    gh1 = fr5.field("B") + cp1    # Gamma_h^i_{jm} = B + Cp as a field
    N, B = fr5.N, fr5.B
    dNdx = np.swapaxes(fr5.Gxy, -3, -2)    # [l, i, j]

    def split(field):
        """Value, delta/dx and d/dy of an order-1 (..., n, n) field, derivative index first."""
        d1 = _move(field.derivative(1), -1, -3)
        dy = d1[..., n:, :, :]
        return field.value, d1[..., :n, :, :] - np.einsum("...aj,...aik->...jik", N, dy), dy

    gh, cc = gh1.value, cc1.value
    # section fields P[i,k] = (nabla_{delta/dx^k} C)^i and V[i,m] = (nabla_{d/dy^m} C)^i
    P, dP_h, dPdy = split(contract("...ikr,...r->...ik", gh1, y1) - fr5.field("N"))
    V, dV_h, _ = split(contract("...imr,...r->...im", cc1, y1) + np.eye(n))

    # frame bracket curvature of the nonlinear connection
    rho = (np.einsum("...kmj->...mjk", dNdx) - np.einsum("...jmk->...mjk", dNdx)
           + np.einsum("...aj,...mka->...mjk", N, B) - np.einsum("...ak,...mja->...mjk", N, B))

    # R(delta_j, delta_k)C, contracted later with y^j u^k
    r_hh = (np.einsum("...mjk,...im->...ijk", rho, V)
            - np.einsum("...jik->...ijk", dP_h) - np.einsum("...ijm,...mk->...ijk", gh, P)
            + np.einsum("...kij->...ijk", dP_h) + np.einsum("...ikm,...mj->...ijk", gh, P))

    out = np.einsum("...ijk,...j,...k->...i", r_hh, y, u)
    if vertical_noise is not None:
        nu = np.asarray(vertical_noise, float)
        # R(delta_j, d/dy^m)C
        r_hv = (np.einsum("...bjm,...ib->...ijm", B, V)
                - np.einsum("...jim->...ijm", dV_h) - np.einsum("...ijr,...rm->...ijm", gh, V)
                + np.einsum("...mij->...ijm", dPdy) + np.einsum("...imr,...rj->...ijm", cc, P))
        out = out + np.einsum("...ijm,...j,...m->...i", r_hv, y, nu)
    return out


# -- random admissible lifts ------------------------------------------------------


def random_admissible_lift(ms: MetricSpec, seed: int, enforce_t1: bool = False,
                           enforce_m1m2: bool = False) -> LiftSpec:
    """A random smooth lift, encoded by generic flat rules.

    Both tensors get smooth (x, y)-dependent coefficients, their constant
    parts uniform in [-_RANDOM_AMPLITUDE, _RANDOM_AMPLITUDE]; the section slot
    is then projected g-orthogonally to the base direction (admissibility).
    ``enforce_t1`` also projects the direction slot of the C'-part;
    ``enforce_m1m2`` instead projects the metric slot of both parts.
    """
    n = ms.dim
    rng = SplitMix64(seed)

    def draw():
        k0, k1 = (np.array([rng.uniform(-_RANDOM_AMPLITUDE, _RANDOM_AMPLITUDE)
                            for _ in range(n ** 3)]).reshape(n, n, n) for _ in range(2))
        px = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        py = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        return k0, k1, px, py

    def project(t, cols, slot):
        """t with tensor slot ``slot`` projected: the sum over a of t (a in
        that slot) times cols[a] (j in that slot), added in smath.dot's order."""
        at = (slice(None),) * slot
        col = (None,) * slot + (slice(None),) + (None,) * (2 - slot)
        acc = t[at + (slice(0, 1),)] * cols[0][col]
        for a in range(1, n):
            acc = acc + t[at + (slice(a, a + 1),)] * cols[a][col]
        return acc

    def make_rule(params, project_u, project_v, project_t):
        k0, k1, px, py = params

        def rule(w):
            # constants take the carrier's batch axes as trailing axes of length 1
            pad = (1,) * (len(np.shape(w.y)) - 1)
            inv = 1.0 / w.f2
            # cols[a, j]: column j of the g_w-orthogonal projection killing the base direction
            cols = np.eye(n).reshape((n, n) + pad) - w.y[:, None] * w.gw[None, :] * inv
            s = smath.sin(smath.dot(px, w.x) + smath.dot(py, w.y))
            t = k0.reshape(k0.shape + pad) + k1.reshape(k1.shape + pad) * s
            for slot, projected in enumerate((project_u, project_v, project_t)):
                if projected:
                    t = project(t, cols, slot)
            return t

        return rule

    # the draws for C come before those for C'
    c_rule = make_rule(draw(), False, True, enforce_m1m2)
    p_rule = make_rule(draw(), enforce_t1, True, enforce_m1m2)
    tags = "".join([".t1" if enforce_t1 else "", ".m1m2" if enforce_m1m2 else ""])
    return LiftSpec(name=f"random[{seed}]{tags}", c_flat=c_rule, cprime_flat=p_rule)
