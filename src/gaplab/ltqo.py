r"""Local indistinguishability of kernel states, measured.

For a volume ``V`` with kernel projector ``P`` and an observable ``A``
supported on a subregion ``X``, the witness is

    w(A) = | P A P - omega(A) P |_2,            omega(A) = tr(P A) / rank(P).

Everything is evaluated in a compressed form: with an orthonormal kernel
basis ``v_1 .. v_m`` reshaped over (left, X, right) factors, the tensor

    K[a, i, b, j] = sum_{L,R} conj(v_a[L, i, R]) v_b[L, j, R]

determines ``P A P`` on the kernel, and the centred map

    D[(a, b), (i, j)] = K[a, i, b, j] - delta_ab omega_ij

takes ``vec A`` to ``vec(M(A) - omega(A) 1)`` with ``M(A)`` the m-by-m
kernel block of ``P A P``, so ``w(A)`` is the 2-norm of one matrix-vector
product and no operator on the full volume is ever formed.

Both ends of the supremum over ``|A| <= 1`` are read off ``D``'s slices
in one pass (``witness_bracket``).  With ``D_ab`` the ``d_X``-by-``d_X``
slice at kernel indices ``(a, b)``, the entry ``X(A)_ab`` of
``X(A) = M(A) - omega(A) 1`` is ``tr(D_ab^T A)``.  The upper end is
``|N|_2`` with ``N_ab = |D_ab|_1``, the trace norm: ``|X_ab| <= N_ab |A|``
and ``|X|_2 <= | |X| |_2 <= |N|_2``.  The lower end is the largest ``w(A)``
over ``2 m^2`` explicit observables of norm 1, for each ``(a, b)`` and each
phase in ``{1, i}`` the sign matrix of the Hermitian part of
``phase D_ab^T``, which makes ``Re(phase X_ab)`` as large as one
observable can.  On a fermionic chain every operator is even, so
``ltqo_witness`` zeroes the odd columns of ``D`` where it builds the map,
and the exact-zero certificate and the upper end read what is left: when
the certificate holds, ``w = 0`` for every even ``A``.  The alternating
ascent (``ascent_lower_bound``) is kept as the reference the one-pass
lower end is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Interval, ball
from .interaction import Interaction
from .operator_algebra import parity_matrix
from .spectra import kernel_basis_dense


@dataclass
class WitnessTensor:
    """The centred map ``D`` of a kernel of rank ``m`` on a subregion,
    ``(m², d_X²)``; the caller keys it by the subregion."""

    D: np.ndarray
    rank: int

    def centred(self, a: np.ndarray) -> np.ndarray:
        """``M(A) - omega(A) 1`` for an observable ``A`` on the region."""
        return (self.D @ a.ravel()).reshape(self.rank, self.rank)

    def value(self, a: np.ndarray) -> float:
        """Largest ``|eigenvalue|`` of ``centred(a)``, read as the ascent
        reads it, from ``eigh``."""
        return float(np.max(np.abs(np.linalg.eigh(self.centred(a))[0])))


def witness_tensor(basis: np.ndarray, local_dim: int, vol: Interval,
                   region: Interval) -> WitnessTensor:
    """The centred map of the kernel ``basis`` (columns, over ``vol``) on
    ``region``; ``omega`` is formed once here."""
    if region.intersection(vol) != region:
        raise ValueError(f"{region} not inside {vol}")
    d, m = local_dim, basis.shape[1]
    dx = d ** len(region)
    v = basis.T.reshape(m, d ** (region.a - vol.a), dx, d ** (vol.b - region.b))
    k = np.einsum("alir,bljr->aibj", v.conj(), v)
    omega = np.einsum("aiaj->ij", k) / m
    dev = k - np.einsum("ab,ij->aibj", np.eye(m), omega)
    # complex, as the observables are: a real D would be cast on every product
    d = dev.transpose(0, 2, 1, 3).reshape(m * m, dx * dx).astype(complex)
    return WitnessTensor(d, m)


def exact_zero_certificate(wt: WitnessTensor) -> float:
    """``max|D|``; 0 means w(A) = 0 for every ``A`` the map reads (every
    even one on a fermionic chain, whose odd columns ``ltqo_witness``
    zeroes)."""
    return float(np.max(np.abs(wt.D)))


def _slices(wt: WitnessTensor) -> np.ndarray:
    """The slices ``D_ab``, ``(m², d_X, d_X)``."""
    dx = math.isqrt(wt.D.shape[1])
    return wt.D.reshape(-1, dx, dx)


def witness_upper(wt: WitnessTensor) -> float:
    """``|N|_2`` of the trace norms ``N_ab = |D_ab|_1``: ``w(A) <= |A|
    |N|_2`` for every observable the map reads."""
    trace_norms = np.linalg.svd(_slices(wt), compute_uv=False).sum(axis=-1)
    return float(np.linalg.norm(trace_norms.reshape(wt.rank, wt.rank), 2))


def witness_bracket(wt: WitnessTensor):
    """``(lower, upper, A)``: the supremum of ``w`` over observables of norm
    at most 1 lies in ``[lower, upper]``, and ``lower`` is ``wt.value(A)``
    of the explicit Hermitian ``A``.

    ``upper`` is ``witness_upper``; ``lower`` the largest ``value`` over the
    sign matrices of the Hermitian parts of ``D_ab^T`` and ``i D_ab^T``,
    whose eigenvalues are all ``+1`` or ``-1``.
    """
    lower, best = -np.inf, None
    for z in _slices(wt).swapaxes(-1, -2):
        for phase in (1.0, 1j):
            herm = phase * z
            herm = 0.5 * (herm + herm.conj().T)
            zev, zvec = np.linalg.eigh(herm)
            a = (zvec * np.where(zev < 0.0, -1.0, 1.0)) @ zvec.conj().T
            value = wt.value(a)
            if value > lower:
                lower, best = value, a
    return lower, witness_upper(wt), best


def ascent_lower_bound(wt: WitnessTensor, seed: int = 0, restarts: int = 20,
                       iters: int = 200):
    """Best witness value found over unit-norm Hermitian observables.

    Alternating ascent between the top eigenvector ``u`` of
    ``M(A) - omega(A) 1`` and the extreme-point observable
    ``A = V sign(Lambda) V*`` of the linearized objective, whose gradient is
    ``(conj(u) ⊗ u) D``, stopped once a step gains less than ``1e-8`` in
    relative terms.  That sign matrix is taken as it is, Hermitian with
    eigenvalues ±1; only each random start is normalised.  Each value is
    the largest ``|eigenvalue|`` of the ``eigh`` the next step reads ``u``
    from.  Returns ``(value, A)``; the value is a certified lower bound on
    the supremum since ``A`` is explicit.
    """
    rng = np.random.default_rng(seed)
    dx = math.isqrt(wt.D.shape[1])

    def project(a):
        a = 0.5 * (a + a.conj().T)
        nrm = float(np.max(np.abs(np.linalg.eigvalsh(a))))
        return a / nrm if nrm > 0 else a

    best_val, best_a = -np.inf, None
    for _ in range(restarts):
        a = project(rng.standard_normal((dx, dx))
                    + 1j * rng.standard_normal((dx, dx)))
        evals, evecs = np.linalg.eigh(wt.centred(a))
        val = float(np.max(np.abs(evals)))
        for _ in range(iters):
            idx = int(np.argmax(np.abs(evals)))
            u, sign = evecs[:, idx], np.sign(evals[idx]) or 1.0
            # A -> sign <u, (M(A) - omega(A) 1) u> linearized as tr(Z A)
            z = sign * (np.outer(u.conj(), u).ravel() @ wt.D).reshape(dx, dx).T
            z = 0.5 * (z + z.conj().T)
            zev, zvec = np.linalg.eigh(z)
            a_new = (zvec * np.sign(zev + 1e-300)) @ zvec.conj().T
            evals_new, evecs_new = np.linalg.eigh(wt.centred(a_new))
            val_new = float(np.max(np.abs(evals_new)))
            if val_new - val <= 1e-8 * max(1.0, abs(val)):
                if val_new > val:
                    a, val = a_new, val_new
                break
            a, val, evals, evecs = a_new, val_new, evals_new, evecs_new
        if val > best_val:
            best_val, best_a = val, a
    return best_val, best_a


def ltqo_witness(eta: Interaction, lam: Interval, x: int, n: int, k: int,
                 seen: dict) -> tuple[float, float]:
    """Witness for the ball pair ``b(x, k) inside b(x, n)`` within ``lam``,
    as ``(value, upper)``.

    ``upper`` is ``witness_upper``.  ``value`` is ``witness_bracket``'s
    one-pass lower end on a spin chain, and the exact-zero certificate on a
    fermionic one, where no lower end is formed.  Every fermionic operator
    is even, so a fermionic map's odd columns are zeroed here, once, where
    the map is built, and both ends read the even columns alone.  ``seen``
    holds what the caller's run has already computed: kernels by the
    volume's length and the ``translation_key`` of its terms from its left
    end (so translated volumes share one), and by that and the region's
    placement in the volume the witness read off its centred map, so each
    is computed once; a kernel is solved in its charge blocks.
    """
    vol, region = ball(lam, x, n), ball(lam, x, k)
    phi = eta.restricted(vol)
    volume = (len(vol), phi.translation_key(vol.a))
    key = (volume, region.a - vol.a, len(region))
    if key not in seen:
        if volume not in seen:
            seen[volume] = kernel_basis_dense(phi, vol)
        wt = witness_tensor(seen[volume], eta.local_dim, vol, region)
        if eta.kind == "fermion":
            p = parity_matrix(len(region))
            wt.D[:, (p[:, None] != p[None, :]).ravel()] = 0.0
            seen[key] = exact_zero_certificate(wt), witness_upper(wt)
        else:
            seen[key] = witness_bracket(wt)[:2]
    return seen[key]
