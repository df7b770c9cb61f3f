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

The supremum over ``|A| <= 1`` is approached from below by alternating
ascent over Hermitian sign matrices; a matching upper transfer is available
whenever the exact-zero certificate holds (then ``w = 0`` for every ``A``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Interval, ball
from .interaction import Interaction, local_hamiltonian
from .operator_algebra import parity_matrix
from .spectra import kernel_basis_dense


@dataclass
class WitnessTensor:
    """The centred map ``D`` of the kernel on a subregion, ``(m², d_X²)``."""

    D: np.ndarray
    rank: int
    region: Interval

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
    return WitnessTensor(d, m, region)


def _parity_mask(n_sites: int) -> np.ndarray:
    p = parity_matrix(n_sites)
    return (p[:, None] == p[None, :])


def exact_zero_certificate(wt: WitnessTensor, even_only: bool = False) -> float:
    """``max|D|``; 0 means w(A) = 0 for all A.

    With ``even_only`` only the columns of parity-preserving matrix entries
    are read, certifying the witness for even observables.
    """
    cols = _parity_mask(len(wt.region)).ravel() if even_only else slice(None)
    return float(np.max(np.abs(wt.D[:, cols])))


def ascent_lower_bound(wt: WitnessTensor, seed: int = 0, restarts: int = 20,
                       iters: int = 200, even_only: bool = False):
    """Best witness value found over unit-norm Hermitian observables.

    Alternating ascent between the top eigenvector ``u`` of
    ``M(A) - omega(A) 1`` and the extreme-point observable
    ``A = V sign(Lambda) V*`` of the linearized objective, whose gradient is
    ``(conj(u) ⊗ u) D``, stopped once a step gains less than ``1e-8`` in
    relative terms.  That sign matrix is taken as it is: Hermitian with
    eigenvalues ±1, and even when ``even_only`` masks the objective (the
    mask zeroes its rounding); only each random start is normalised.  Each
    value is the largest ``|eigenvalue|`` of the ``eigh`` the next step
    reads ``u`` from.  Returns ``(value, A)``; the value is a certified
    lower bound on the supremum since ``A`` is explicit.
    """
    rng = np.random.default_rng(seed)
    dx = math.isqrt(wt.D.shape[1])
    mask = _parity_mask(len(wt.region)) if even_only else None

    def project(a):
        if mask is not None:
            a = np.where(mask, a, 0.0)
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
            if mask is not None:
                z = np.where(mask, z, 0.0)
            zev, zvec = np.linalg.eigh(z)
            a_new = (zvec * np.sign(zev + 1e-300)) @ zvec.conj().T
            if mask is not None:
                a_new = np.where(mask, a_new, 0.0)
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
                 seen: dict, even_only: bool = False,
                 ascent: tuple | None = None) -> float:
    """Witness for the ball pair ``b(x, k) inside b(x, n)`` within ``lam``.

    The ascent's lower bound for ``ascent = (seed, restarts, iters)``, the
    exact-zero certificate without one.  ``seen`` holds what the caller's
    run has already computed: kernels by the volume's length and its terms
    (each as its offset in the volume, its length and its matrix bytes, so
    translated volumes share one), centred maps by that and the region's
    placement in the volume, ascents by both and their inputs, so each is
    computed once.  A volume is assembled only when its kernel is not yet
    known.
    """
    vol, region = ball(lam, x, n), ball(lam, x, k)
    phi = eta.restricted(vol)
    volume = (len(vol), tuple((t.support.a - vol.a, len(t.support),
                               t.op.matrix.tobytes()) for t in phi.terms))
    key = (volume, region.a - vol.a, len(region))
    if volume not in seen:
        seen[volume] = kernel_basis_dense(local_hamiltonian(phi, vol))
    if key not in seen:
        seen[key] = witness_tensor(seen[volume], eta.local_dim, vol, region)
    wt = seen[key]
    if ascent is None:
        return exact_zero_certificate(wt, even_only=even_only)
    if (key, even_only, ascent) not in seen:
        seen[key, even_only, ascent] = ascent_lower_bound(
            wt, *ascent, even_only=even_only)[0]
    return seen[key, even_only, ascent]
