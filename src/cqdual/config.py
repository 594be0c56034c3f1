"""Central numeric tolerances. Every cutoff used by the library lives here."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances shared across all modules.

    rank_cut is the global spectral cutoff: eigenvalues at or below it are
    treated as exact zeros, which keeps purification dimensions minimal and
    logarithms finite; a pure pair whose difference up to phase has a smaller
    norm counts as one state, and the dispersion derivative gap divides by
    at least it. prior_sum is the largest distance from 1 allowed for the sum
    of a state's prior or of an ensemble's weights. diagonal is the
    largest off-diagonal magnitude for which a family of operators still
    counts as diagonal (classical) and takes the closed-form table paths, and
    the most a joint table's entry may round below zero before the decoupling
    closed form refuses it. gram_diagonal is the largest distance from 1
    allowed for a pure ensemble's Gram diagonal. psd_clamp is the most
    negative eigenvalue, relative to the spectral scale, that psd_sqrt clamps
    to zero instead of refusing. profile_match is the largest invariant-profile
    gap at which two channels count as equivalent, the tolerance of the
    profile rows in cqdual.checks.
    ascent_value is the width at which the decoupling ascent's certified
    bracket [value, upper] counts as closed, and the step-to-step change below
    which an ascent whose bracket stays open counts as stalled: its first
    stall starts the one rescue burst, its second ends the ascent, reported as
    not converged. ascent_max_iter caps the steps of the ascent's single run
    of the fixed-point map.
    bound_mix is the weight delta of I/d in sigma_delta = (1 - delta) sigma +
    delta I/d, the full-rank density at which the two-operator ascent takes
    Alberti's bound when its Uhlmann start sigma leaves the bracket open,
    as when sigma is rank deficient and has no bound of its own; delta/d
    stays above the ascent's rank test (nonzero) up to dimension 4096.
    The floors below keep divisions, roots and logarithms finite.
    nonzero is the least value that counts as nonzero where a zero would be
    divided by or have its phase taken: the ascent's rank test on sigma's
    eigenvalues (sigma is full rank, so Alberti's bound applies, only when its
    least eigenvalue exceeds it), its test of the averaged operators' trace at
    the start, and the overlap whose phase a pure pair's swap witness aligns.
    invertible is the least singular value of sqrt(sigma) Y_i for which the
    ascent counts Y_i† sigma Y_i as invertible. underflow floors denominators
    and logarithm arguments that may round to zero: the ascent's traces and
    inverse singular values, a compressed conditional's trace and the
    finite-blocklength masses and fractions. roundoff is the rounding floor
    at unit scale: fidelity's cuts of the spectra of rho and of Y† sigma Y
    (each relative to max(1, its largest eigenvalue)), the norm below which
    a channel state's measurement outcome has zero probability, and the mass
    still missing at which np_beta counts 1 - eps as reached.
    """

    hermiticity: float = 1e-10
    density_eigenvalue_floor: float = -1e-10
    trace_one: float = 1e-9
    prior_sum: float = 1e-12
    unit_norm: float = 1e-9
    rank_cut: float = 1e-12
    diagonal: float = 1e-12
    gram_psd: float = 1e-9
    gram_diagonal: float = 1e-10
    psd_clamp: float = 1e-6
    witness: float = 1e-8
    profile_match: float = 1e-7
    ascent_value: float = 1e-10
    bound_mix: float = 1e-10
    ascent_max_iter: int = 4000
    nonzero: float = 1e-14
    invertible: float = 1e-150
    underflow: float = 1e-300
    roundoff: float = 1e-15


TOL = Tolerances()


class Unsupported(ValueError):
    """A well-formed request past a size cap or outside what a computation
    takes; the CLI reports it as a usage error (exit 2), any other error as a fault."""


SCHEMA_VERSION = "0.1.0"
