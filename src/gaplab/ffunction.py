r"""Decay functions on the integer lattice and their derived transforms.

A decay function has the form

.. math ::

    F(r) = e^{-h(r)} \frac{L}{(1 + c r)^{\kappa}}, \qquad L, c > 0,\ \kappa > 2,

where the weight ``h`` is nonnegative, nondecreasing and subadditive with
``h(0) = 0``.  Three weight families are supported: the zero-cost identity
weight ``h(r) = r``, stretched weights ``h(r) = K r^s`` with ``s in (0, 1]``,
and tabulated weights.

The module provides

- pointwise (log-space) evaluation with the negative-argument clamp
  ``F(r) = F(0)`` for ``r < 0``,
- certified upper bounds for the lattice norm ``sum_x F(x)`` and for the
  convolution constant ``C_F``,
- the interaction norm ``|Phi|_F`` (supremum over ordered site pairs),
- derived decay functions: the fast-decay transform used for dressed
  interactions, its polynomial envelope, and the decay function carried by
  interval regrouping.

All tail estimates are one-sided upper bounds built from exact antiderivatives
of monotone envelopes, so every reported sum is a certified upper bound on the
true series value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


__all__ = [
    "WeightSpec",
    "FFunctionSpec",
    "DerivedFSpec",
    "NormSum",
    "evaluate",
    "log_evaluate",
    "norm_sum",
    "convolution_constant",
    "f_norm",
    "slow_growth",
    "transform_f_phi",
    "f_zero",
    "regroup_decay",
    "poly_tail",
    "geometric_tail",
]


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class WeightSpec:
    """Weight ``h`` of a decay function.

    Parameters
    ----------
    kind :
        ``"identity"`` (``h(r) = r``), ``"stretched"`` (``h(r) = K r^s``) or
        ``"table"`` (piecewise-linear interpolation of tabulated values,
        constant beyond the table).
    K, s :
        Stretched-weight parameters; ``K >= 0``, ``0 < s <= 1``.
    values :
        Table of ``h(0), h(1), ...`` for ``kind="table"``.
    """

    kind: str = "identity"
    K: float = 1.0
    s: float = 1.0
    values: tuple = ()

    def __post_init__(self):
        if self.kind not in ("identity", "stretched", "table"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "stretched":
            if self.K < 0:
                raise ValueError("stretched weight needs K >= 0")
            if not 0.0 < self.s <= 1.0:
                raise ValueError("stretched weight needs s in (0, 1]")
        if self.kind == "table":
            v = np.asarray(self.values, dtype=float)
            if v.size == 0 or v[0] != 0.0:
                raise ValueError("tabulated weight needs values starting at h(0)=0")
            if np.any(np.diff(v) < 0):
                raise ValueError("tabulated weight must be nondecreasing")

    def __call__(self, r):
        r = np.maximum(np.asarray(r, dtype=float), 0.0)
        if self.kind == "identity":
            return r
        if self.kind == "stretched":
            return self.K * np.power(r, self.s)
        v = np.asarray(self.values, dtype=float)
        return np.interp(r, np.arange(v.size), v)

    @property
    def is_zero(self):
        if self.kind == "identity":
            return False
        if self.kind == "stretched":
            return self.K == 0.0
        return all(x == 0.0 for x in self.values)


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
                             WeightSpec("stretched", K=0.0, s=1.0))

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


def geometric_tail(q, T, degree=0, scale=1.0):
    """Exact ``scale * sum_{n > T} n^degree q^n`` for ``0 <= q < 1``."""
    if not 0.0 <= q < 1.0:
        raise ValueError("geometric ratio must lie in [0, 1)")
    if q == 0.0:
        return 0.0
    head = q ** (T + 1)
    if degree == 0:
        return scale * head / (1.0 - q)
    if degree == 1:
        # sum_{n>T} n q^n = q^{T+1} ((T+1) - T q) / (1-q)^2
        return scale * head * ((T + 1) - T * q) / (1.0 - q) ** 2
    raise ValueError("only degrees 0 and 1 are implemented")


@dataclass(frozen=True)
class NormSum:
    """A certified series bound: value = partial + tail."""

    partial: float
    tail: float

    @property
    def value(self):
        return self.partial + self.tail


def norm_sum(spec: FFunctionSpec, truncation: int = 2000) -> NormSum:
    """Certified upper bound for the lattice norm ``sum_{x in Z} F(|x|)``.

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
    return NormSum(partial, tail)


def _check_subadditive(weight: WeightSpec, upto: int):
    r = np.arange(0, upto + 1)
    h = weight(r)
    for a in range(1, upto // 2 + 1):
        bad = h[a + 1:upto + 1] > h[1:upto + 1 - a] + h[a] + 1e-12
        if np.any(bad):
            raise ValueError("weight is not subadditive; convolution bound invalid")


def convolution_constant(spec: FFunctionSpec, truncation: int = 400) -> float:
    r"""Certified upper bound for ``C_F = sup_d sum_z F(|z|) F(|d-z|) / F(d)``.

    Small ``d`` are swept exactly with a tail cap; all remaining ``d`` are
    covered by the subadditivity cap ``2^{kappa+1} |F_bare|`` (splitting each
    product at the larger factor and absorbing the weight via
    ``h(|z|) + h(|d-z|) >= h(d)``).
    """
    T = int(truncation)
    _check_subadditive(spec.weight, min(2 * T, 2000))
    bare_norm = norm_sum(spec.bare(), truncation=max(T, 2000))
    far_cap = 2.0 ** (spec.kappa + 1.0) * bare_norm.value

    best = 0.0
    zwin = 4 * T
    z = np.arange(-zwin, zwin + 1)
    fz = evaluate(spec, np.abs(z))
    for d in range(0, T + 1):
        fdz = evaluate(spec, np.abs(d - z))
        core = float(np.dot(fz, fdz))
        # |z| > zwin implies |z| - d >= zwin - d, both factors monotone:
        wfac = math.exp(-float(spec.weight(zwin + 1 - d)))
        tail = 2.0 * spec.L * poly_tail(spec.c, 1.0 - spec.c * d, spec.kappa,
                                        zwin, degree=0,
                                        scale=spec.L * wfac)
        best = max(best, (core + tail) / float(evaluate(spec, d)))
    return max(best, far_cap)


# ---------------------------------------------------------------------------
# interaction norm


def f_norm(phi, spec) -> float:
    r"""``|Phi|_F = sup_{x,y} (1/F(|x-y|)) sum_{Z containing x,y} |Phi(Z)|``.

    ``phi`` is anything exposing ``term_supports_and_norms()`` yielding
    ``(Interval, operator_norm)`` pairs, or an iterable of such pairs.  The
    supremum runs over all ordered pairs of sites covered by at least one
    term, including ``x == y``.
    """
    if hasattr(phi, "term_supports_and_norms"):
        pairs = list(phi.term_supports_and_norms())
    else:
        pairs = list(phi)
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
class DerivedFSpec:
    """A decay function derived from a base spec.

    kind
        ``"transformed"`` — fast-decay dressing of the base envelope with the
        filter-dependent weight; plateau value below ``18 R + 27``.
        ``"shifted"`` — bare envelope at the rescaled argument
        ``r/18 - R - 3/2`` (the transformed function with its weight factor
        bounded by one).
        ``"regrouped"`` — decay carried by interval regrouping,
        ``exp(-h(r)/2) C_phi / (1 + c r)^kappa``.
    """

    kind: str
    base: FFunctionSpec
    R: int = 0
    gamma: float = 1.0
    nu: float = 1.0
    K_filter: float = 0.25
    t: float = 1.0
    C_phi: float = 0.0
    C_phi_tail: float = 0.0

    def shift_argument(self, r):
        """The rescaled radius used by the shifted/transformed kinds."""
        return np.maximum(np.asarray(r, dtype=float) / 18.0 - self.R - 1.5, 0.0)

    def _dressed(self, r):
        base = self.base
        k0 = min(self.K_filter, 2.0 / 7.0)
        arg = self.K_filter * self.gamma * base.weight(r) / (2.0 * self.nu)
        expo = (k0 / self.K_filter) * slow_growth(arg, base.kappa)
        return np.exp(-expo) * evaluate(base.bare(), r)

    def __call__(self, r):
        r = np.maximum(np.asarray(r, dtype=float), 0.0)
        if self.kind == "transformed":
            return self._dressed(self.shift_argument(r))
        if self.kind == "shifted":
            return evaluate(self.base.bare(), self.shift_argument(r))
        if self.kind == "regrouped":
            w = self.base.weight(r)
            return np.exp(-0.5 * w) * self.C_phi / (1.0 + self.base.c * r) ** self.base.kappa
        raise ValueError(f"unknown derived kind {self.kind!r}")


def transform_f_phi(base: FFunctionSpec, gamma: float, nu: float,
                    K: float, t: float, R: int) -> DerivedFSpec:
    """Fast-decay transform of ``base`` for a filter with parameters (K, t, gamma).

    ``nu`` is the propagation velocity of the dressed dynamics and ``R`` the
    interaction range entering the argument rescaling.  ``t`` must match the
    stretching exponent of the base weight.
    """
    if min(gamma, nu, K) <= 0:
        raise ValueError("gamma, nu, K must be positive")
    if not 0.0 < t <= 1.0:
        raise ValueError("t must lie in (0, 1]")
    if R < 0:
        raise ValueError("R must be nonnegative")
    w = base.weight
    s_eff = 1.0 if w.kind == "identity" else (w.s if w.kind == "stretched" else None)
    if s_eff is not None and abs(s_eff - t) > 1e-12:
        raise ValueError("t must equal the stretching exponent of the base weight")
    return DerivedFSpec("transformed", base, R=R, gamma=gamma, nu=nu,
                        K_filter=K, t=t)


def f_zero(base: FFunctionSpec, R: int) -> DerivedFSpec:
    """Polynomial envelope of the transformed function (weight factor dropped)."""
    if R < 0:
        raise ValueError("R must be nonnegative")
    return DerivedFSpec("shifted", base, R=R)


def regroup_decay(base: FFunctionSpec, truncation: int = 2000) -> DerivedFSpec:
    r"""Decay function carried by regrouping an interaction into intervals.

    ``G(r) = exp(-h(r)/2) C_phi / (1+c r)^kappa`` with
    ``C_phi = L sum_{n>=1} n exp(-h(n)/2)``; a certified tail bound is stored
    alongside.  A weightless base has divergent ``C_phi`` and is rejected.
    """
    w = base.weight
    if w.is_zero or w.kind == "table":
        # bounded weights leave e^{-h/2} bounded below: n e^{-h(n)/2} is not
        # summable, so no regrouped decay function exists.
        raise ValueError("regrouping needs an unbounded weight; "
                         "the prefactor series diverges")
    T = int(truncation)
    n = np.arange(1, T + 1)
    partial = float(base.L * np.sum(n * np.exp(-0.5 * w(n))))
    lam = 0.5 * w.K if w.kind == "stretched" else 0.5
    s = w.s if w.kind == "stretched" else 1.0
    if s == 1.0:
        tail = geometric_tail(math.exp(-lam), T, degree=1, scale=base.L)
    else:
        # integrand u e^{-lam u^s} must already be decreasing at T
        if T ** s <= 1.0 / (lam * s):
            raise ValueError("truncation too small to certify the prefactor tail")
        from scipy.special import gammaincc, gamma as gamma_fn
        a = 2.0 / s
        tail = base.L * gammaincc(a, lam * T ** s) * gamma_fn(a) / (s * lam ** a)
        tail *= 1.0 + 1e-12  # guard the special-function rounding
    return DerivedFSpec("regrouped", base, C_phi=partial + tail, C_phi_tail=tail)
