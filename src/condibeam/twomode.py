"""Brute-force two-mode beam-splitter simulation (the ground-truth oracle).

The unitary commutes with the total photon number, so it is built and
applied block by block over the total-photon-number sectors.  Within each
sector the generator of the mixing rotation is a real antisymmetric
tridiagonal matrix; exponentiating it through a Hermitian eigendecomposition
keeps every block exactly unitary.  Sectors with total <= cutoff are
complete and therefore carry no truncation error at all; higher sectors are
truncated, which is why closed-form comparisons are restricted to the safe
block.

Everything here is deliberately independent of the closed-form construction
in the conditional module: the two routes check each other.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CutoffMismatchError, DegenerateBeamSplitterError, ZeroProbabilityError
from .fock import FockOperator, _freeze
from .polynomials import log_factorial

__all__ = [
    "TwoModeState",
    "TwoModeOperator",
    "DensityOperator",
    "PhotonCountingPovm",
    "product_state",
    "bs_unitary",
    "bs_unitary_factored",
    "oracle_y",
    "photon_counting_povm",
    "conditional_reduce",
    "conditional_reduce_mixed",
]


@dataclass(frozen=True)
class TwoModeState:
    """Amplitudes over the product basis |k1, k2>, axis 0 = signal mode."""

    amps: np.ndarray
    cutoff: int

    def __post_init__(self):
        amps = _freeze(self.amps)
        d = self.cutoff + 1
        if amps.shape != (d, d):
            raise ValueError(f"amps has shape {amps.shape}, expected ({d}, {d})")
        object.__setattr__(self, "amps", amps)

    def norm(self):
        return float(np.linalg.norm(self.amps))


def product_state(v1, v2):
    """|v1> (signal) tensor |v2> (reference)."""
    if v1.cutoff != v2.cutoff:
        raise CutoffMismatchError(f"cutoff mismatch: {v1.cutoff} vs {v2.cutoff}")
    return TwoModeState(np.outer(v1.amps, v2.amps), v1.cutoff)


def _sector_range(total, cutoff):
    """Signal-mode indices k1 present in the sector k1 + k2 = total."""
    return max(0, total - cutoff), min(cutoff, total)


@dataclass(frozen=True)
class TwoModeOperator:
    """Photon-number-conserving two-mode operator stored sector by sector.

    ``blocks[M]`` is the matrix over signal indices k1 = lo..hi of the
    sector k1 + k2 = M (k2 = M - k1).  A dense matrix over the full product
    basis is available through :meth:`matrix` for small cutoffs.
    """

    blocks: tuple
    cutoff: int

    def apply(self, state):
        if state.cutoff != self.cutoff:
            raise CutoffMismatchError(
                f"cutoff mismatch: {self.cutoff} vs {state.cutoff}")
        out = np.zeros_like(state.amps)
        for total, block in enumerate(self.blocks):
            lo, hi = _sector_range(total, self.cutoff)
            k1 = np.arange(lo, hi + 1)
            vec = state.amps[k1, total - k1]
            res = block @ vec
            out[k1, total - k1] = res
        return TwoModeState(out, self.cutoff)

    def dag(self):
        return TwoModeOperator(tuple(b.conj().T for b in self.blocks), self.cutoff)

    def matrix(self):
        """Dense matrix over the product basis, row/col index = k1*(N+1)+k2."""
        d = self.cutoff + 1
        mat = np.zeros((d * d, d * d), dtype=complex)
        for total, block in enumerate(self.blocks):
            lo, hi = _sector_range(total, self.cutoff)
            k1 = np.arange(lo, hi + 1)
            idx = k1 * d + (total - k1)
            mat[np.ix_(idx, idx)] = block
        return mat


@dataclass(frozen=True)
class DensityOperator:
    """Single-mode density matrix with physicality checks."""

    mat: np.ndarray
    cutoff: int

    def __post_init__(self):
        mat = _freeze(self.mat)
        d = self.cutoff + 1
        if mat.shape != (d, d):
            raise ValueError(f"mat has shape {mat.shape}, expected ({d}, {d})")
        object.__setattr__(self, "mat", mat)

    @classmethod
    def from_pure(cls, v):
        return cls(np.outer(v.amps, v.amps.conj()), v.cutoff)

    def validate(self):
        """Hermiticity within 1e-12, unit trace within 1e-10, eigenvalues >= -1e-10."""
        herm = np.max(np.abs(self.mat - self.mat.conj().T))
        if herm > 1e-12:
            raise ValueError(f"density matrix not Hermitian: deviation {herm:.3e}")
        tr = self.mat.trace()
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace {tr!r} is not 1")
        lam_min = float(np.linalg.eigvalsh(self.mat).min())
        if lam_min < -1e-10:
            raise ValueError(f"density matrix has eigenvalue {lam_min:.3e} < 0")
        return self

    def fidelity_with_pure(self, v):
        """<v| rho |v> for a normalized pure state v."""
        return float(np.real(np.vdot(v.amps, self.mat @ v.amps)))


def _sector_phases(total, cutoff, phi):
    """exp(i * phi * (k1 - k2)/2) over the sector, as a vector."""
    lo, hi = _sector_range(total, cutoff)
    k1 = np.arange(lo, hi + 1)
    return np.exp(1j * phi * (k1 - (total - k1)) / 2.0)


def bs_unitary(bs, policy):
    """Beam-splitter unitary built sector by sector.

    Each sector gets phase factors from the photon-number-difference
    generator and the exponential of the antisymmetric mixing generator
    (a1^dag a2 - a2^dag a1), computed by Hermitian eigendecomposition so the
    block is unitary to machine precision.  Valid for every parameter value,
    T = 0 included.
    """
    cutoff = policy.cutoff
    blocks = []
    for total in range(2 * cutoff + 1):
        lo, hi = _sector_range(total, cutoff)
        size = hi - lo + 1
        k1 = np.arange(lo, hi + 1)
        # K = a1^dag a2 - a2^dag a1 restricted to the sector (real antisymmetric)
        up = np.sqrt((k1[:-1] + 1.0) * (total - k1[:-1]))  # k1 -> k1 + 1
        gen = np.zeros((size, size))
        gen[np.arange(1, size), np.arange(size - 1)] = up
        gen[np.arange(size - 1), np.arange(1, size)] = -up
        lam, vec = np.linalg.eigh(1j * gen)
        rot = (vec * np.exp(-1j * bs.theta * lam)) @ vec.conj().T
        left = _sector_phases(total, cutoff, bs.phi_t + bs.phi_r)
        right = _sector_phases(total, cutoff, bs.phi_t - bs.phi_r)
        blocks.append(left[:, None] * rot * right[None, :])
    return TwoModeOperator(tuple(blocks), cutoff)


def _nilpotent_exp(c, up):
    """exp(c J) for the matrix J whose only nonzero entries are J[i+1, i] = up[i].

    J is nilpotent, so the exponential series ends after len(up) terms:
    exp(cJ)[i+k, i] = c^k / k! * up[i] * ... * up[i+k-1].  Built one
    subdiagonal at a time in O(size^2).
    """
    size = len(up) + 1
    out = np.zeros((size, size), dtype=complex)
    idx = np.arange(size)
    diag = np.ones(size, dtype=complex)
    for k in range(size):
        out[idx[k:], idx[:size - k]] = diag
        diag = diag[:-1] * up[k:] * (c / (k + 1))
    return out


def bs_unitary_factored(bs, policy):
    """The same unitary from its factored form (requires T != 0).

    T^(n1) exp(-R* a2^dag a1) exp(R a1^dag a2) T^(-n2), assembled per
    sector; used as an independent cross-check of :func:`bs_unitary`.
    Within a sector a1^dag a2 has a single nonzero subdiagonal and
    a2^dag a1 is its transpose, so both exponentials are finite series,
    built exactly by :func:`_nilpotent_exp` (no Pade approximant).
    Sectors with total <= cutoff agree with the generator form exactly;
    truncated sectors differ, so comparisons stay on the safe block.
    """
    t = bs.transmittance
    r = bs.reflectance
    if abs(t) < 1e-15:
        raise DegenerateBeamSplitterError("factored form needs T != 0")
    cutoff = policy.cutoff
    blocks = []
    for total in range(2 * cutoff + 1):
        lo, hi = _sector_range(total, cutoff)
        k1 = np.arange(lo, hi + 1)
        up = np.sqrt((k1[:-1] + 1.0) * (total - k1[:-1]))  # a1^dag a2: k1 -> k1 + 1
        block = (np.diag(t ** k1)
                 @ _nilpotent_exp(-np.conj(r), up).T
                 @ _nilpotent_exp(r, up)
                 @ np.diag((1.0 / t) ** (total - k1)))
        blocks.append(block)
    return TwoModeOperator(tuple(blocks), cutoff)


def oracle_y(ref_in, ref_out, bs, policy):
    """Conditional operator from the full two-mode simulation.

    Y[j, i] = <j| <ref_out| U |i> |ref_in>, contracted sector by sector.
    """
    unitary = bs_unitary(bs, policy)
    vin = ref_in.state(policy).amps
    vout = ref_out.state(policy).amps.conj()
    dim = policy.dim
    ymat = np.zeros((dim, dim), dtype=complex)
    for total, block in enumerate(unitary.blocks):
        lo, hi = _sector_range(total, policy.cutoff)
        k1 = np.arange(lo, hi + 1)
        ymat[np.ix_(k1, k1)] += (vout[total - k1][:, None]
                                 * block
                                 * vin[total - k1][None, :])
    return FockOperator(ymat, policy.cutoff)


@dataclass(frozen=True)
class PhotonCountingPovm:
    """Photon counting with quantum efficiency eta.

    Element n is diagonal with entries C(k, n) eta^n (1 - eta)^(k - n),
    built only from retained levels k <= cutoff; each k-row of binomial
    weights sums to one, so completeness holds exactly in the truncated
    space.
    """

    weights: np.ndarray  # weights[n, k] = <k| Pi(n) |k>
    eta: float
    cutoff: int

    def __post_init__(self):
        object.__setattr__(self, "weights", _freeze(self.weights, float))

    def element(self, n):
        return FockOperator(np.diag(self.weights[n].astype(complex)), self.cutoff)

    def __len__(self):
        return self.weights.shape[0]

    def outcome_distribution(self, rho):
        """p(n) for all outcomes on a single-mode density matrix."""
        pops = np.real(np.diag(rho.mat))
        return self.weights @ pops


def photon_counting_povm(eta, policy):
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"efficiency must be in (0, 1], got {eta}")
    dim = policy.dim
    weights = np.zeros((dim, dim))
    if eta == 1.0:
        np.fill_diagonal(weights, 1.0)
        return PhotonCountingPovm(weights, eta, policy.cutoff)
    k = np.arange(dim)
    lg = log_factorial(k)
    for n in range(dim):
        ks = np.arange(n, dim)
        logw = (lg[ks] - lg[n] - lg[ks - n]
                + n * np.log(eta) + (ks - n) * np.log1p(-eta))
        weights[n, ks] = np.exp(logw)
    return PhotonCountingPovm(weights, eta, policy.cutoff)


def conditional_reduce(state_in, povm_element, bs, policy):
    """Propagate a pure two-mode state and condition on a POVM outcome.

    Returns the normalized reduced signal-mode density matrix and the
    outcome probability p = Tr[ U rho U^dag (1 x Pi) ].
    """
    vout = bs_unitary(bs, policy).apply(state_in).amps
    rho1 = vout @ povm_element.mat.T @ vout.conj().T
    p = float(np.real(np.trace(rho1)))
    if p < 1e-14:
        raise ZeroProbabilityError(
            f"measurement outcome has probability {p:.3e}")
    rho1 = (rho1 + rho1.conj().T) / (2.0 * p)  # symmetrize FP noise
    return DensityOperator(rho1, policy.cutoff).validate(), p


def conditional_reduce_mixed(rho_in1, ref_ensemble, meas_ensemble, bs, policy):
    """Mixed reference state and non-projective measurement.

    ``ref_ensemble`` is a list of (weight, ReferencePrep) describing the
    input reference mode; ``meas_ensemble`` a list of
    (p(l | state), ReferencePrep) decomposing the POVM element of the
    observed outcome l.  The output state is the weighted sum of Y rho Y^dag
    over all ensemble pairs, with Y from the two-mode oracle, normalized by
    the total outcome probability.
    """
    w_in = [w for w, _ in ref_ensemble]
    if any(w < 0 for w in w_in) or abs(sum(w_in) - 1.0) > 1e-10:
        raise ValueError("input ensemble weights must be >= 0 and sum to 1")
    if any(w < 0 for w, _ in meas_ensemble):
        raise ValueError("measurement ensemble weights must be >= 0")
    dim = policy.dim
    accum = np.zeros((dim, dim), dtype=complex)
    for w, prep_in in ref_ensemble:
        if w == 0.0:
            continue
        for pl, prep_out in meas_ensemble:
            if pl == 0.0:
                continue
            y = oracle_y(prep_in, prep_out, bs, policy).mat
            accum += (w * pl) * (y @ rho_in1.mat @ y.conj().T)
    p = float(np.real(np.trace(accum)))
    if p < 1e-14:
        raise ZeroProbabilityError(
            f"measurement outcome has probability {p:.3e}")
    accum = (accum + accum.conj().T) / (2.0 * p)
    return DensityOperator(accum, policy.cutoff).validate(), p
