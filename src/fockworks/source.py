"""Heralded single photons from two-mode squeezed vacuum.

The squeezer Hamiltonian a1 a2 + a1^dag a2^dag applied to vacuum for a
"time" r produces sum_n c_n |n, n>. The closed form used here fixes the
phase convention to real positive amplitudes c_n = tanh(r)^n / cosh(r);
the evolution convention exp(-i r H)|00> produces an extra (-i)^n per
term, which the validation oracle accounts for explicitly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockError, FockState
from .measure import Bucket, Counter, DetectorModel, measure_modes


@dataclass(frozen=True)
class SqueezeParam:
    """Squeezing strength r >= 0 and the photon-pair cutoff kept in states."""

    r: float
    cutoff: int = 24

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("squeezing strength must be >= 0")
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")


TAIL_BOUND = 1e-12


def pair_amplitudes(p: SqueezeParam):
    """Closed-form amplitudes c_n, n = 0..cutoff, renormalized after truncation.

    Raises if the truncated tail weight exceeds the bound.
    """
    t = math.tanh(p.r)
    c = [t ** n / math.cosh(p.r) for n in range(p.cutoff + 1)]
    tail = 1.0 - sum(x * x for x in c)
    if tail > TAIL_BOUND:
        raise FockError(f"cutoff {p.cutoff} leaves tail weight {tail:.2e} > {TAIL_BOUND}")
    norm = math.sqrt(sum(x * x for x in c))
    return [x / norm for x in c]


def two_mode_squeezed_vacuum(p: SqueezeParam) -> FockState:
    """sum_n c_n |n, n> with c_{n+1}/c_n = tanh(r), c_n real positive."""
    amps = {(n, n): c for n, c in enumerate(pair_amplitudes(p))}
    return FockState(2, amps)


def squeezed_vacuum_by_exponentiation(p: SqueezeParam, pad: int = 6) -> FockState:
    """Validation oracle: exponentiate the truncated pair Hamiltonian.

    Builds H on span{|n,n>} with <n-1|H|n> = n and <n+1|H|n> = n+1 and
    applies exp(-i r H) to vacuum through the eigendecomposition of the
    real symmetric H. Amplitudes carry the (-i)^n phases of that
    convention.
    """
    dim = p.cutoff + 1 + pad
    h = np.zeros((dim, dim))
    for n in range(dim - 1):
        h[n + 1, n] = n + 1
        h[n, n + 1] = n + 1
    lam, v = np.linalg.eigh(h)
    vec = v @ (np.exp(-1j * p.r * lam) * v[0])
    amps = {(n, n): vec[n] for n in range(p.cutoff + 1)}
    return FockState(2, amps).normalized()


def heralded_single_photon(p: SqueezeParam, det: DetectorModel = Bucket()):
    """Condition the squeezed pair on a detection in mode 1 (the idler).

    Returns (herald_probability, conditional_state, fidelity) where
    fidelity is the single-photon overlap |<1|psi>|^2 of the heralded
    mode. A counter heralding on exactly one photon gives fidelity 1; a
    bucket mixes in the higher pairs, with fidelity 1 - tanh(r)^2
    approaching one as the squeezing weakens.
    """
    if p.r == 0:
        return 0.0, None, 0.0
    state = two_mode_squeezed_vacuum(p)
    branches = measure_modes(state, [1], det)
    if isinstance(det, Counter):
        herald = next((b for b in branches if b.outcome[0][1] == 1), None)
    else:
        herald = next((b for b in branches if b.outcome[0][1] >= 1), None)
    if herald is None:
        return 0.0, None, 0.0
    conditional = herald.post_state
    fid = abs(conditional.amplitude((1,))) ** 2
    return herald.probability, conditional, fid
