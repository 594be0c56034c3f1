"""Duality toolkit for classical-input quantum-output channels and linear codes.

Builds the dual of any finite-dimensional CQ channel and verifies, numerically
and exactly where the theory says so, the entropy-sum identities between a
channel and its dual, their compatibility with polar-code convolutions and
with linear-code duality, the resulting finite-blocklength sum rules, and EXIT
function duality.
"""

from .config import TOL, Tolerances, SCHEMA_VERSION, Unsupported
from .linalg import (
    PureState,
    fidelity,
    gram_embed,
    hermitian_eig,
    partial_trace,
    psd_sqrt,
    purify,
    tensor,
    trace_distance,
    von_neumann_entropy,
)
from .channels import (
    ChannelState,
    CqChannel,
    InvariantProfile,
    channel_from_json,
    channel_state,
    channel_to_json,
    classical_dual_overlaps,
    degrade_to_bsc,
    dual,
    invariant_profile,
    make_bec,
    make_bsc,
    make_bsc_dual,
    make_classical,
    make_pure,
    profiles_match,
    symmetrize,
    trace_distance_vs_dual_fidelity,
    upgrade_to_pure,
)
from .entropies import (
    CqState,
    DualityReport,
    EntropyFamily,
    MAX_ENTROPY,
    MIN_ENTROPY,
    VON_NEUMANN,
    capacity,
    capacity_duality_check,
    cond_entropy,
    decoupling_q,
    dispersion,
    duality_check,
    from_channel,
    guessing_prob,
    np_beta,
    petz_down,
)
from .polar import (
    CHECK,
    VARIABLE,
    better,
    convolution_duality_check,
    convolve,
    polarization_experiment,
    trajectory,
    trajectory_duality_gap,
    worse,
)
from .codes import CodePair, build_code, preset_pair, weight_enumerator
from .codedchannels import (
    CodedAnalysis,
    PureEnsemble,
    coded_duality_check,
    compression_extraction_bruteforce,
    dual_coded_ensemble,
    encoder_duality_check,
    ensemble_cond_entropy,
    exit_duality_check,
    exit_function,
    exit_scan,
    structured_state_gap,
)
from .fbl import (
    bsc_metaconverse,
    bsc_union_achievability,
    compute_curves,
    emit_curves,
    extractor_bounds,
)

__version__ = SCHEMA_VERSION
