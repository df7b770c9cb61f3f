import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaplab.cli import DEFAULTS, base_envelope
from gaplab.ffunction import (DressedDecay, FFunctionSpec, ShiftedEnvelope,
                              WeightSpec, convolution_constant, evaluate,
                              f_norm, geometric_tail, log_evaluate, norm_sum,
                              poly_tail, regroup_decay, slow_growth)
from gaplab.lattice import Interval
from oracles import TRUNCATION


BASE = FFunctionSpec(L=1.0, c=1.0, kappa=4.0,
                     weight=WeightSpec(K=0.5, s=1.0))


def test_spec_validation():
    with pytest.raises(ValueError):
        FFunctionSpec(L=0.0)
    with pytest.raises(ValueError):
        FFunctionSpec(c=-1.0)
    with pytest.raises(ValueError):
        FFunctionSpec(kappa=2.0)


def test_evaluate_matches_formula():
    r = np.array([0, 1, 5])
    expect = np.exp(-0.5 * r) / (1.0 + r) ** 4
    np.testing.assert_allclose(evaluate(BASE, r), expect, rtol=1e-14)


def test_evaluate_clamps_negative_argument():
    assert evaluate(BASE, -3.0) == evaluate(BASE, 0.0) == 1.0


def test_bare_drops_the_weight():
    bare = BASE.bare()
    r = np.arange(8)
    np.testing.assert_allclose(evaluate(bare, r), 1.0 / (1.0 + r) ** 4,
                               rtol=1e-14)


# --- certified tails ---------------------------------------------------------


@pytest.mark.parametrize("degree", [0, 1])
def test_poly_tail_dominates_direct_sum(degree):
    B, A, gamma, T = 1.0, 1.0, 4.0, 50
    n = np.arange(T + 1, 200000)
    direct = float(np.sum(n ** degree * (A + B * n) ** -gamma))
    bound = poly_tail(B, A, gamma, T, degree=degree)
    assert direct <= bound
    assert bound <= direct * 1.2     # and it is not wildly loose


def test_geometric_tail_is_exact():
    q, T = 0.6, 12
    n = np.arange(T + 1, 400)
    direct = float(np.sum(n * q ** n))
    assert geometric_tail(q, T) == pytest.approx(direct, rel=1e-12)
    assert geometric_tail(0.0, T) == 0.0


def test_poly_tail_rejects_divergent():
    with pytest.raises(ValueError):
        poly_tail(1.0, 1.0, 1.0, 10, degree=0)
    with pytest.raises(ValueError):
        poly_tail(1.0, 1.0, 2.0, 10, degree=1)


def test_norm_sum_certifies_lattice_norm():
    ns = norm_sum(BASE, 60)
    x = np.arange(-5000, 5001)
    direct = float(np.sum(evaluate(BASE, np.abs(x))))
    assert direct <= ns
    assert ns == pytest.approx(direct, rel=1e-6)
    # tighter truncation only grows the certified tail, never the total below
    loose = norm_sum(BASE, 10)
    assert loose >= direct


def test_convolution_constant_dominates_riemann_oracle():
    """Direct evaluation of sup_d sum_z F(|z|)F(|d-z|)/F(d) on a finite probe
    window must stay below the certified constant."""
    cf = convolution_constant(BASE, TRUNCATION)
    z = np.arange(-800, 801)
    fz = evaluate(BASE, np.abs(z))
    worst = 0.0
    for d in range(0, 120):
        fdz = evaluate(BASE, np.abs(d - z))
        worst = max(worst, float(np.dot(fz, fdz)) / float(evaluate(BASE, d)))
    assert worst <= cf
    # it is the closed-form cap of the bare envelope
    assert cf == 2.0 ** (BASE.kappa + 1.0) * norm_sum(BASE.bare(), TRUNCATION)


@settings(max_examples=40, deadline=None)
@given(kappa=st.floats(2.0, 6.0, exclude_min=True),
       c=st.floats(0.1, 3.0), L=st.floats(0.1, 5.0),
       K=st.floats(0.0, 3.0), s=st.floats(0.0, 1.0, exclude_min=True))
def test_convolution_constant_is_the_cap_and_dominates_the_sum(kappa, c, L,
                                                               K, s):
    """For every stretched weight, however steep, C_F is the closed-form cap
    and bounds the convolution sums, taken in log space so that no factor
    underflows where F(d) does."""
    spec = FFunctionSpec(L=L, c=c, kappa=kappa, weight=WeightSpec(K=K, s=s))
    cf = convolution_constant(spec, TRUNCATION)
    assert cf == 2.0 ** (kappa + 1.0) * norm_sum(spec.bare(), TRUNCATION)
    z = np.arange(-400, 401)
    d = np.arange(0, 161)[:, None]
    logs = (log_evaluate(spec, np.abs(z)) + log_evaluate(spec, np.abs(d - z))
            - log_evaluate(spec, d))
    assert float(np.exp(logs).sum(axis=1).max()) <= cf


# --- interaction norm --------------------------------------------------------


def test_f_norm_single_term():
    # one term of norm w on [2,4]: the sup is attained at the (2,4) pair
    pairs = [(Interval(2, 4), 0.7)]
    expect = 0.7 / float(evaluate(BASE, 2))
    assert f_norm(pairs, BASE) == pytest.approx(expect, rel=1e-12)


def test_f_norm_accumulates_overlapping_terms():
    pairs = [(Interval(0, 1), 1.0), (Interval(1, 2), 1.0)]
    # x = y = 1 collects both terms; F(0) = 1
    assert f_norm(pairs, BASE) >= 2.0


def test_f_norm_empty():
    assert f_norm([], BASE) == 0.0


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 4),
                          st.floats(0.01, 5.0)), min_size=1, max_size=8))
def test_f_norm_against_brute_force(raw):
    pairs = [(Interval(a, a + d), w) for a, d, w in raw]
    spec = BASE
    lo = min(s.a for s, _ in pairs)
    hi = max(s.b for s, _ in pairs)
    worst = 0.0
    for x in range(lo, hi + 1):
        for y in range(lo, hi + 1):
            tot = sum(w for s, w in pairs if x in s and y in s)
            worst = max(worst, tot / float(evaluate(spec, abs(x - y))))
    assert f_norm(pairs, spec) == pytest.approx(worst, rel=1e-12)


# --- derived decay functions -------------------------------------------------


def test_slow_growth_profile():
    kappa = 4.0
    cap = (math.e / kappa) ** kappa
    assert slow_growth(1.0, kappa) == pytest.approx(cap)
    big = 1e6
    assert slow_growth(big, kappa) == pytest.approx(big / math.log(big) ** kappa)


def test_transform_validates_its_parameters():
    """The filter's ``K`` is the base weight's: a weightless base is
    refused with the nonpositive width and velocity, and a negative range
    by the shifted envelope it is dressed at."""
    for base, R, bad in ((BASE, 1, {"gamma": 0.0}), (BASE, 1, {"nu": -1.0}),
                         (BASE.bare(), 1, {}), (BASE, -1, {})):
        with pytest.raises(ValueError):
            DressedDecay(ShiftedEnvelope(base, R),
                         **{"gamma": 0.8, "nu": 1.0, **bad})
    DressedDecay(ShiftedEnvelope(BASE, 1), gamma=0.8, nu=1.0)


def test_each_envelope_refuses_bad_parameters_when_built_directly():
    """Each type checks its own parameters as it is built, with the lines
    ``constants.F`` reports: no factory stands between a caller and
    them."""
    with pytest.raises(ValueError, match="gamma, nu, K must be positive"):
        DressedDecay(ShiftedEnvelope(BASE.bare(), 1), 0.8, 1.0)
    with pytest.raises(ValueError, match="R must be nonnegative"):
        ShiftedEnvelope(BASE, -1)


def test_transform_plateau_and_decay():
    spec = DressedDecay(ShiftedEnvelope(BASE, 1), gamma=0.8, nu=2.0)
    # constant on the rescaled-argument plateau r/18 - R - 3/2 <= 0
    plateau = 18 * (1 + 1.5)
    vals = spec(np.array([0.0, 10.0, plateau]))
    assert vals[0] == vals[1] == vals[2]
    # eventually decreasing and dominated by the bare envelope at the
    # rescaled argument
    r = np.array([200.0, 400.0, 800.0])
    v = spec(r)
    assert v[0] > v[1] > v[2] > 0
    bare_at = evaluate(BASE.bare(), spec.envelope.shift_argument(r))
    assert np.all(v <= bare_at + 1e-15)


def test_f_zero_is_the_bare_envelope_shifted():
    f0 = ShiftedEnvelope(BASE, R=1)
    r = np.array([-5.0, 0.0, 50.0, 100.0])
    np.testing.assert_allclose(
        f0(r), evaluate(BASE.bare(), np.maximum(r / 18.0 - 2.5, 0.0)),
        rtol=1e-14)
    # the transformed function never exceeds its polynomial envelope
    spec = DressedDecay(f0, gamma=0.8, nu=2.0)
    r = np.linspace(0, 500, 251)
    assert np.all(spec(r) <= f0(r) * (1 + 1e-12))


@pytest.mark.parametrize("T", [200, 2000])
@pytest.mark.parametrize("degree", [0, 1])
@pytest.mark.parametrize("shift", [-3.0, -1.0])
def test_f_zero_tail_brackets_its_remainder(shift, degree, T):
    """At the default ``constants.F``, ``F_0``'s tail bounds the remainder
    ``sum_{n > T} n^degree F_0((n + shift)/2)``, summed through ``F_0``
    itself, by at most its first term: the integral of a decreasing
    summand past ``T`` lies between its sums over ``n > T`` and ``n >= T``.
    So the tail's rescaling is the evaluation's.  The remainder is summed
    over ``cut`` terms; those past them add under ``(T / cut)^2 < 1e-5`` of
    it, and the bracket's width is over ``1e-4`` of it."""
    f0 = ShiftedEnvelope(base_envelope(DEFAULTS), R=1)
    cut, chunk = 2 * 10 ** 6, 2 * 10 ** 5
    remainder = 0.0
    for lo in range(T + 1, T + cut + 1, chunk):
        n = np.arange(lo, lo + chunk, dtype=float)
        remainder += float(np.sum(n ** degree * f0(0.5 * (n + shift))))
    first = T ** degree * float(f0(0.5 * (T + shift)))
    assert first > 1e-4 * remainder
    tail = f0.tail(shift, T, degree)
    assert remainder <= tail <= remainder + first


def test_regroup_decay_prefactor_closed_form():
    # identity weight: C_phi = L sum n e^{-n/2} = L e^{-1/2} / (1-e^{-1/2})^2
    spec = FFunctionSpec(weight=WeightSpec())
    got = regroup_decay(spec, 200)
    q = math.exp(-0.5)
    assert got.C_phi == pytest.approx(q / (1 - q) ** 2, rel=1e-10)


@pytest.mark.parametrize("s,truncation", [(0.5, 8000), (0.8, 300)])
def test_regroup_decay_stretched_tail_is_certified(s, truncation):
    """A stretched weight takes the ``gammaincc`` tail: ``C_phi`` is at least
    ``L sum_n n e^{-h(n)/2}`` summed until its terms underflow, and within
    1e-9 of it relative.  The truncations leave a tail the partial sum
    alone misses by far more than that."""
    spec = FFunctionSpec(L=1.5, weight=WeightSpec(K=0.5, s=s))
    brute, lo = 0.0, 1
    while True:
        n = np.arange(lo, lo + 10 ** 6, dtype=float)
        terms = n * np.exp(-0.5 * spec.weight(n))
        brute += float(np.sum(terms))
        if terms[-1] == 0.0:
            break
        lo += 10 ** 6
    brute *= spec.L
    head = np.arange(1, truncation + 1.0)
    head = spec.L * float(np.sum(head * np.exp(-0.5 * spec.weight(head))))
    assert brute - head > 1e-9 * brute
    c_phi = regroup_decay(spec, truncation).C_phi
    assert brute <= c_phi <= brute * (1.0 + 1e-9)


def test_regroup_decay_rejects_bounded_weight():
    with pytest.raises(ValueError):
        regroup_decay(FFunctionSpec(weight=WeightSpec(K=0.0, s=1.0)),
                      TRUNCATION)


def test_regroup_decay_evaluates():
    g = regroup_decay(BASE, TRUNCATION)
    r = np.array([0.0, 3.0])
    expect = np.exp(-0.5 * 0.5 * r) * g.C_phi / (1.0 + r) ** 4
    np.testing.assert_allclose(g(r), expect, rtol=1e-13)


def test_weight_spec_validation():
    with pytest.raises(ValueError):
        WeightSpec(K=-1.0, s=1.0)
    with pytest.raises(ValueError):
        WeightSpec(K=1.0, s=0.0)
    with pytest.raises(ValueError):
        WeightSpec(K=1.0, s=1.5)
    assert WeightSpec(K=0.0, s=1.0).is_zero
    assert not WeightSpec().is_zero


def test_default_weight_is_the_identity_weight():
    r = np.arange(5000.0)
    for x in (r, r + 0.37):
        assert np.array_equal(WeightSpec()(x), x)
