r"""Decay functions on the integer lattice and their derived transforms.

A decay function has the form

.. math ::

    F(r) = e^{-h(r)} \frac{L}{(1 + c r)^{\kappa}}, \qquad L, c > 0,\ \kappa > 2,

where the weight is the stretched weight ``h(r) = K r^s`` with ``K >= 0`` and
``s in (0, 1]``: nonnegative, nondecreasing and subadditive with ``h(0) = 0``
(``K = s = 1`` is the identity weight ``h(r) = r``, ``K = 0`` no weight).

The module provides

- pointwise (log-space) evaluation with the negative-argument clamp
  ``F(r) = F(0)`` for ``r < 0``,
- a certified upper bound for the lattice norm ``sum_x F(x)`` and the
  closed-form cap on the convolution constant ``C_F``,
- the interaction norm ``|Phi|_F`` (supremum over ordered site pairs),
- three derived decay functions, one type each: ``ShiftedEnvelope``
  (``F_0``, the bare envelope at a rescaled argument, with its certified
  tail), ``DressedDecay`` (``F_phi``, the fast-decay transform used for
  dressed interactions, at ``F_0``'s argument) and ``RegroupedDecay``
  (``G``, carried by interval regrouping, built by ``regroup_decay``).

All tail estimates are one-sided upper bounds built from exact antiderivatives
of monotone envelopes, so every reported sum is a certified upper bound on the
true series value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class WeightSpec:
    """Stretched weight ``h(r) = K r^s`` of a decay function, ``K >= 0`` and
    ``0 < s <= 1``; the default ``K = s = 1`` is ``h(r) = r``.  Every such
    weight is subadditive, since ``(a + b)^s <= a^s + b^s``."""

    K: float = 1.0
    s: float = 1.0

    def __post_init__(self):
        if self.K < 0:
            raise ValueError("stretched weight needs K >= 0")
        if not 0.0 < self.s <= 1.0:
            raise ValueError("stretched weight needs s in (0, 1]")

    def __call__(self, r):
        r = np.maximum(np.asarray(r, dtype=float), 0.0)
        return self.K * np.power(r, self.s)

    @property
    def is_zero(self):
        return self.K == 0.0


# ---------------------------------------------------------------------------
# base decay functions


@dataclass(frozen=True)
class FFunctionSpec:
    """Base decay function ``F(r) = exp(-h(r)) L / (1 + c r)^kappa``."""

    L: float = 1.0
    c: float = 1.0
    kappa: float = 4.0
    weight: WeightSpec = field(default_factory=WeightSpec)

    def __post_init__(self):
        if self.L <= 0 or self.c <= 0:
            raise ValueError("L and c must be positive")
        if self.kappa <= 2:
            raise ValueError("kappa must exceed 2")

    def bare(self):
        """The same polynomial envelope with the weight removed."""
        return FFunctionSpec(self.L, self.c, self.kappa,
                             WeightSpec(K=0.0, s=1.0))

    def __call__(self, r):
        return evaluate(self, r)


def log_evaluate(spec: FFunctionSpec, r):
    """log F(r), evaluated without underflow; r < 0 clamps to r = 0."""
    r = np.maximum(np.asarray(r, dtype=float), 0.0)
    return -spec.weight(r) + math.log(spec.L) - spec.kappa * np.log1p(spec.c * r)


def evaluate(spec: FFunctionSpec, r):
    return np.exp(log_evaluate(spec, r))


# ---------------------------------------------------------------------------
# certified tails

def poly_tail(B, A, gamma, T, degree=0, scale=1.0):
    r"""Certified upper bound for ``scale * sum_{n > T} n^degree (A + B n)^-gamma``.

    Requires ``gamma > degree + 1``, ``B > 0``, a decreasing integrand at
    ``T`` and ``A + B T >= 1``; the bound is the exact integral
    ``scale * \int_T^\infty u^degree (A + B u)^-gamma du``.
    """
    if degree not in (0, 1):
        raise ValueError("only degrees 0 and 1 are implemented")
    if gamma <= degree + 1:
        raise ValueError("tail diverges: gamma <= degree + 1")
    w = A + B * T
    if w < 1.0:
        raise ValueError("truncation point before envelope is valid")
    if degree == 1 and B * T * (gamma - 1) <= max(A, 0.0) + 1.0:
        # u (A+Bu)^-gamma may still be increasing here; push T further out.
        raise ValueError("truncation point too small for a monotone envelope")
    if degree == 0:
        val = w ** (1.0 - gamma) / (B * (gamma - 1.0))
    else:
        val = (w ** (2.0 - gamma) / (gamma - 2.0)
               - A * w ** (1.0 - gamma) / (gamma - 1.0)) / (B * B)
    return scale * val


def geometric_tail(q, T, scale=1.0):
    """Exact ``scale * sum_{n > T} n q^n`` for ``0 <= q < 1``:
    ``q^{T+1} ((T+1) - T q) / (1-q)^2``."""
    if not 0.0 <= q < 1.0:
        raise ValueError("geometric ratio must lie in [0, 1)")
    return scale * q ** (T + 1) * ((T + 1) - T * q) / (1.0 - q) ** 2


def norm_sum(spec: FFunctionSpec, truncation: int) -> float:
    """Certified upper bound for the lattice norm ``sum_{x in Z} F(|x|)``:
    the partial sum to ``truncation`` plus a tail bound.

    The weight factor on the tail is frozen at its value at the truncation
    point (weights are nondecreasing), leaving a polynomial series with an
    exact integral bound.
    """
    T = int(truncation)
    if T < 2:
        raise ValueError("truncation too small")
    n = np.arange(0, T + 1)
    vals = evaluate(spec, n)
    partial = float(vals[0] + 2.0 * vals[1:].sum())
    wfac = math.exp(-float(spec.weight(T + 1)))
    tail = 2.0 * poly_tail(spec.c, 1.0, spec.kappa, T, degree=0,
                           scale=spec.L * wfac)
    return partial + tail


def convolution_constant(spec: FFunctionSpec, truncation: int) -> float:
    r"""Certified upper bound for ``C_F = sup_d sum_z F(|z|) F(|d-z|) / F(d)``:
    the closed-form cap ``2^{kappa+1} |F_bare|``, with ``|F_bare|`` the
    lattice norm of the unweighted envelope certified by ``norm_sum`` at
    ``truncation`` (Nachtergaele, Sims and Young, J. Math. Phys. 60,
    061101, 2019).

    The weight drops out: ``h`` is nondecreasing and subadditive, so
    ``h(d) <= h(|z|) + h(|d-z|)``.  The larger of ``|z|`` and ``|d-z|`` is at
    least ``d/2``, so ``(1 + c d) / (1 + c max) <= 2`` and each summand is at
    most ``2^kappa F_bare(min(|z|, |d-z|)) <= 2^kappa (F_bare(|z|) +
    F_bare(|d-z|))``, whose sum over ``z`` is ``2^{kappa+1} |F_bare|`` at
    every ``d``.
    """
    return 2.0 ** (spec.kappa + 1.0) * norm_sum(spec.bare(), truncation)


# ---------------------------------------------------------------------------
# interaction norm


def f_norm(pairs, spec) -> float:
    r"""``|Phi|_F = sup_{x,y} (1/F(|x-y|)) sum_{Z containing x,y} |Phi(Z)|``.

    ``pairs`` yields one ``(Interval, operator_norm)`` pair per term.  The
    supremum runs over all ordered pairs of sites covered by at least one
    term, including ``x == y``.
    """
    pairs = list(pairs)
    if not pairs:
        return 0.0
    lo = min(s.a for s, _ in pairs)
    hi = max(s.b for s, _ in pairs)
    n = hi - lo + 1
    acc = np.zeros((n, n))
    for supp, w in pairs:
        i, j = supp.a - lo, supp.b - lo
        acc[i:j + 1, i:j + 1] += w
    dist = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    fvals = np.asarray(spec(dist), dtype=float)
    return float(np.max(acc / fvals))


# ---------------------------------------------------------------------------
# derived decay functions


def slow_growth(r, kappa):
    """The capped growth profile: constant below ``e^kappa``, then r/(log r)^kappa."""
    r = np.asarray(r, dtype=float)
    cap = (math.e / kappa) ** kappa
    out = np.full_like(r, cap)
    big = r > math.exp(kappa)
    if np.any(big):
        rb = r[big]
        out[big] = rb / np.log(rb) ** kappa
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ShiftedEnvelope:
    """``F_0``: the bare base envelope at the rescaled argument
    ``r/18 - R - 3/2``, constant on the plateau below ``18 R + 27``.
    ``R`` is the interaction range.  Beyond the plateau ``F_0`` is an
    affine-argument power law, so its sums carry an exact integral tail."""

    base: FFunctionSpec
    R: int

    # the rescaling r / SCALE - R - OFFSET, read by evaluation and tail alike
    SCALE = 18.0
    OFFSET = 1.5

    def __post_init__(self):
        if self.R < 0:
            raise ValueError("R must be nonnegative")

    def shift_argument(self, r):
        """The rescaled radius, clamped to the plateau at zero."""
        return np.maximum(np.asarray(r, dtype=float) / self.SCALE - self.R
                          - self.OFFSET, 0.0)

    def __call__(self, r):
        return evaluate(self.base.bare(), self.shift_argument(r))

    def tail(self, shift: float, T: int, degree: int) -> float:
        """Certified ``sum_{n > T} n^degree F_0((n + shift) / 2)``: past
        the plateau ``F_0((n + shift)/2) = L (a + b n)^-kappa`` with the
        rescaling's own ``a`` and ``b``."""
        base = self.base
        b = base.c * 0.5 / self.SCALE
        a = 1.0 + base.c * (0.5 * shift / self.SCALE - self.R - self.OFFSET)
        return poly_tail(b, a, base.kappa, T, degree=degree, scale=base.L)


@dataclass(frozen=True)
class DressedDecay:
    """``F_phi``: the fast-decay dressing of ``envelope``'s base at
    ``envelope``'s rescaled argument, for a filter of width ``gamma``.

    The filter's ``K`` and stretching exponent are those of the base
    weight, so a weightless base (``K = 0``) is refused.  ``nu`` is the
    propagation velocity of the dressed dynamics.  The weight factor is at
    most one, so ``F_phi <= F_0 = envelope``.
    """

    envelope: ShiftedEnvelope
    gamma: float
    nu: float

    def __post_init__(self):
        if min(self.gamma, self.nu, self.envelope.base.weight.K) <= 0:
            raise ValueError("gamma, nu, K must be positive")

    def __call__(self, r):
        r = self.envelope.shift_argument(r)
        base = self.envelope.base
        K = base.weight.K
        k0 = min(K, 2.0 / 7.0)
        arg = K * self.gamma * base.weight(r) / (2.0 * self.nu)
        expo = (k0 / K) * slow_growth(arg, base.kappa)
        return np.exp(-expo) * evaluate(base.bare(), r)


@dataclass(frozen=True)
class RegroupedDecay:
    """``G(r) = exp(-h(r)/2) C_phi / (1 + c r)^kappa``: the decay carried by
    interval regrouping, built by ``regroup_decay``."""

    base: FFunctionSpec
    C_phi: float

    def __call__(self, r):
        r = np.maximum(np.asarray(r, dtype=float), 0.0)
        w = self.base.weight(r)
        return np.exp(-0.5 * w) * self.C_phi / (1.0 + self.base.c * r) ** self.base.kappa


def regroup_decay(base: FFunctionSpec, truncation: int) -> RegroupedDecay:
    r"""Decay function carried by regrouping an interaction into intervals.

    ``G(r) = exp(-h(r)/2) C_phi / (1+c r)^kappa`` with
    ``C_phi = L sum_{n>=1} n exp(-h(n)/2)``, certified by a tail bound past
    ``truncation``.  A weightless base has divergent ``C_phi`` and is
    rejected, and so is a stretched weight whose summand ``n e^{-h(n)/2}`` is
    not yet decreasing at ``truncation`` (``K s T^s <= 2``).
    """
    w = base.weight
    if w.is_zero:
        # no weight leaves e^{-h/2} = 1: n e^{-h(n)/2} is not summable, so
        # no regrouped decay function exists.
        raise ValueError("regrouping needs an unbounded weight; "
                         "the prefactor series diverges")
    T = int(truncation)
    n = np.arange(1, T + 1)
    partial = float(base.L * np.sum(n * np.exp(-0.5 * w(n))))
    lam, s = 0.5 * w.K, w.s
    if s == 1.0:
        tail = geometric_tail(math.exp(-lam), T, scale=base.L)
    else:
        # integrand u e^{-lam u^s} must already be decreasing at T
        if T ** s <= 1.0 / (lam * s):
            raise ValueError("truncation too small to certify the prefactor tail")
        from scipy.special import gammaincc, gamma as gamma_fn
        a = 2.0 / s
        tail = base.L * gammaincc(a, lam * T ** s) * gamma_fn(a) / (s * lam ** a)
        tail *= 1.0 + 1e-12  # guard the special-function rounding
    return RegroupedDecay(base, partial + tail)
