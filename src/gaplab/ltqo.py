r"""Local indistinguishability of kernel states, measured.

For a volume ``V`` with kernel projector ``P`` and an observable ``A``
supported on a subregion ``X``, the witness is

    w(A) = | P A P - omega(A) P |_2,            omega(A) = tr(P A) / rank(P).

Everything is evaluated in a compressed form: with an orthonormal kernel
basis ``v_1 .. v_m`` reshaped over (left, X, right) factors, the tensor

    K[a, i, b, j] = sum_{L,R} conj(v_a[L, i, R]) v_b[L, j, R]

determines ``P A P`` on the kernel as the m-by-m matrix
``M(A) = sum_{ij} K[:, i, :, j] A[i, j]``, so ``w(A) = |M(A) - omega(A) 1|_2``
with no operator on the full volume ever formed.

The supremum over ``|A| <= 1`` is approached from below by alternating
ascent over Hermitian sign matrices; a matching upper transfer is available
whenever the exact-zero certificate holds (then ``w = 0`` for every ``A``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Interval, ball, cutoff
from .interaction import Interaction, local_hamiltonian
from .operator_algebra import parity_matrix
from .spectra import kernel_basis_dense


@dataclass
class WitnessTensor:
    """Kernel-compressed action of observables on a subregion."""

    K: np.ndarray          # (m, dX, m, dX)
    rank: int
    local_dim: int
    region: Interval

    @property
    def omega_matrix(self) -> np.ndarray:
        """r with omega(A) = sum_ij r[i,j] A[i,j] (reduced state, transposed)."""
        return np.einsum("aiaj->ij", self.K) / self.rank

    def apply(self, a: np.ndarray) -> np.ndarray:
        return np.einsum("aibj,ij->ab", self.K, a)

    def value(self, a: np.ndarray) -> float:
        m = self.apply(a)
        omega = np.einsum("ij,ij->", self.omega_matrix, a)
        return float(np.linalg.norm(m - omega * np.eye(self.rank), 2))


def witness_tensor(eta: Interaction, vol: Interval, region: Interval) -> WitnessTensor:
    if region.intersection(vol) != region:
        raise ValueError(f"{region} not inside {vol}")
    d = eta.local_dim
    basis = kernel_basis_dense(local_hamiltonian(eta.restricted(vol), vol))
    m = basis.shape[1]
    dl = d ** (region.a - vol.a)
    dx = d ** len(region)
    dr = d ** (vol.b - region.b)
    v = basis.T.reshape(m, dl, dx, dr)
    k = np.einsum("alir,bljr->aibj", v.conj(), v)
    return WitnessTensor(k, m, d, region)


def _parity_mask(n_sites: int) -> np.ndarray:
    p = parity_matrix(n_sites)
    return (p[:, None] == p[None, :])


def exact_zero_certificate(wt: WitnessTensor, even_only: bool = False) -> float:
    """Max deviation of K from ``delta_ab * omega``; 0 means w(A) = 0 for all A.

    With ``even_only`` the deviation is only measured on parity-preserving
    matrix entries, certifying the witness for even observables.
    """
    m, dx = wt.rank, wt.K.shape[1]
    dev = wt.K - np.einsum("ab,ij->aibj", np.eye(m), wt.omega_matrix)
    if even_only:
        mask = _parity_mask(len(wt.region))
        dev = dev * mask[None, :, None, :]
    return float(np.max(np.abs(dev)))


def _gradient_matrix(wt: WitnessTensor, u: np.ndarray, sign: float) -> np.ndarray:
    # linearization of A -> sign * <u, (M(A) - omega(A) 1) u> as tr(Z A)
    g = np.einsum("a,aibj,b->ij", u.conj(), wt.K, u)
    w = sign * (g - wt.omega_matrix)
    z = w.T
    return 0.5 * (z + z.conj().T)


def ascent_lower_bound(wt: WitnessTensor, seed: int = 0, restarts: int = 20,
                       iters: int = 200, even_only: bool = False):
    """Best witness value found over unit-norm Hermitian observables.

    Alternating ascent between the top eigenvector of ``M(A) - omega(A) 1``
    and the extreme-point observable ``A = V sign(Lambda) V*`` of the
    linearized objective, stopped once a step gains less than ``1e-8`` in
    relative terms.  Returns ``(value, A)``; the value is a certified
    lower bound on the supremum since ``A`` is explicit.
    """
    rng = np.random.default_rng(seed)
    dx = wt.K.shape[1]
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
        val = wt.value(a)
        for _ in range(iters):
            b = wt.apply(a) - np.einsum("ij,ij->", wt.omega_matrix, a) * np.eye(wt.rank)
            evals, evecs = np.linalg.eigh(b)
            idx = int(np.argmax(np.abs(evals)))
            u, sign = evecs[:, idx], np.sign(evals[idx]) or 1.0
            z = _gradient_matrix(wt, u, sign)
            if mask is not None:
                z = np.where(mask, z, 0.0)
                z = 0.5 * (z + z.conj().T)
            zev, zvec = np.linalg.eigh(z)
            a_new = zvec @ np.diag(np.sign(zev + 1e-300)) @ zvec.conj().T
            a_new = project(a_new)
            val_new = wt.value(a_new)
            if val_new - val <= 1e-8 * max(1.0, abs(val)):
                if val_new > val:
                    a, val = a_new, val_new
                break
            a, val = a_new, val_new
        if val > best_val:
            best_val, best_a = val, a
    return best_val, best_a


@dataclass
class WitnessRow:
    x: int
    n: int
    k: int
    separation: int
    value: float
    zero_deviation: float


def ltqo_witness(eta: Interaction, lam: Interval, x: int, n: int, k: int,
                 seed: int = 0, even_only: bool = False, restarts: int = 20,
                 iters: int = 200) -> WitnessRow:
    """Witness for the ball pair ``b(x, k) inside b(x, n)`` within ``lam``."""
    vol = ball(lam, x, n)
    region = ball(lam, x, k)
    wt = witness_tensor(eta, vol, region)
    value, _ = ascent_lower_bound(wt, seed=seed, even_only=even_only,
                                  restarts=restarts, iters=iters)
    sep = cutoff(lam, x, n) - k
    dev = exact_zero_certificate(wt, even_only=even_only)
    return WitnessRow(x, n, k, sep, value, dev)
