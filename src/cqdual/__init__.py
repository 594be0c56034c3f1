"""Duality toolkit for classical-input quantum-output channels and linear codes.

Builds the dual of any finite-dimensional CQ channel and verifies, numerically
and exactly where the theory says so, the entropy-sum identities between a
channel and its dual, their compatibility with polar-code convolutions and
with linear-code duality, the resulting finite-blocklength sum rules, and EXIT
function duality.

Only `config` is imported with the package. Every other public name, and
every submodule, is loaded on first access (PEP 562), so a caller pays at
start-up only for the modules it uses.
"""

from .config import TOL, Tolerances, SCHEMA_VERSION, Unsupported

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "linalg": (
            "PureState", "fidelity", "gram_embed", "hermitian_eig", "partial_trace",
            "psd_sqrt", "purify", "tensor", "trace_distance", "von_neumann_entropy",
        ),
        "channels": (
            "ChannelState", "CqChannel", "CqState", "InvariantProfile", "channel_from_json",
            "channel_state", "channel_to_json", "classical_dual_overlaps", "degrade_to_bsc",
            "dual", "invariant_profile", "make_bec", "make_bsc", "make_bsc_dual",
            "make_classical", "make_pure", "symmetrize",
            "trace_distance_vs_dual_fidelity", "upgrade_to_pure",
        ),
        "entropies": (
            "DualityReport", "EntropyFamily", "MAX_ENTROPY", "MIN_ENTROPY",
            "VON_NEUMANN", "capacity", "capacity_duality_check", "cond_entropy",
            "decoupling_q", "dispersion", "duality_check", "from_channel", "guessing_prob",
            "np_beta", "petz_down",
        ),
        "polar": (
            "CHECK", "VARIABLE", "better", "convolution_duality_check", "convolve",
            "polarization_experiment", "trajectory", "trajectory_duality_gap", "worse",
        ),
        "codes": ("CodePair", "build_code", "preset_pair", "weight_enumerator"),
        "codedchannels": (
            "CodedAnalysis", "PureEnsemble", "coded_duality_check",
            "compression_extraction_bruteforce", "dual_coded_ensemble",
            "encoder_duality_check", "ensemble_cond_entropy", "exit_duality_check",
            "exit_function", "exit_scan", "structured_state_gap",
        ),
        "fbl": (
            "bsc_metaconverse", "bsc_union_achievability", "compute_curves", "extractor_bounds",
        ),
    }.items()
    for name in names
}
_SUBMODULES = ("linalg", "channels", "entropies", "polar", "codes", "codedchannels", "fbl")

__all__ = ["TOL", "Tolerances", "SCHEMA_VERSION", "Unsupported", "config", *_SUBMODULES,
           *_EXPORTS]

__version__ = SCHEMA_VERSION


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
