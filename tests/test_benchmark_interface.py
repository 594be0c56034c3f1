"""The names and keywords the benchmark in perfbench/ binds or passes.

perfbench wraps the functions listed in tracer.TRACED, calls library names
from its workloads, and passes some of them keywords. A rename, move or
deletion on the library side should fail here, not only in a benchmark run.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from cqdual import channels as ch
from cqdual import codedchannels, codes, entropies, polar

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _traced() -> dict[str, list[str]]:
    """tracer.TRACED, read from the source without importing perfbench."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TRACED")


@pytest.mark.parametrize(
    "name", [f"{mod}.{fn}" for mod, fns in _traced().items() for fn in fns]
)
def test_traced_names_exist(name):
    mod, fn = name.split(".")
    assert callable(getattr(importlib.import_module(f"cqdual.{mod}"), fn))


def _workload_names() -> list[str]:
    """Every <module>.<name> that perfbench/workloads.py reads off a cqdual
    module, by alias (`from cqdual import entropies as en`) or by import
    (`from cqdual.config import SCHEMA_VERSION`), read from the source."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    aliases, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "cqdual":
            aliases.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cqdual."):
            names.update(f"{node.module[len('cqdual.'):]}.{a.name}" for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(f"{aliases[node.value.id]}.{node.attr}")
    return sorted(names)


def test_workload_names_are_read():
    # the reader sees the calls the workloads are built from
    assert {"entropies.CqState", "entropies.from_channel", "corpus.binary_channel_corpus",
            "fbl.log2_beta_bsc", "cli.main", "config.SCHEMA_VERSION"} <= set(_workload_names())


@pytest.mark.parametrize("name", _workload_names())
def test_workload_names_resolve(name):
    mod, attr = name.split(".")
    assert hasattr(importlib.import_module(f"cqdual.{mod}"), attr), name


@pytest.mark.parametrize(
    "module, fn, keywords",
    [
        ("codedchannels", "coded_duality_check", ["seed"]),
        ("codedchannels", "compression_extraction_tables", ["seed"]),
        ("codedchannels", "exit_duality_check", ["channel_family"]),
        ("entropies", "duality_check", ["dual_channel", "check_disjointness"]),
        ("polar", "polarization_experiment", ["beta", "seed", "complement"]),
    ],
)
def test_benchmark_keywords_are_accepted(module, fn, keywords):
    params = inspect.signature(getattr(importlib.import_module(f"cqdual.{module}"), fn)).parameters
    for kw in keywords:
        assert kw in params and params[kw].kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ), f"{module}.{fn} takes no {kw}="


def test_benchmark_result_fields():
    # the tracer reads .levels[*].dim of a trajectory and .restarts of an ascent
    levels = polar.trajectory(ch.make_bsc(0.11), [0]).levels
    assert [s.dim for s in levels] == [3]
    assert "restarts" in {f.name for f in dataclasses.fields(entropies.QResult)}
    # perfbench/workloads.py reads these results' attributes and keys
    bsc = ch.make_bsc(0.11)
    state = entropies.from_channel(bsc)
    rep3 = codes.repetition_pair(3)
    assert isinstance(codedchannels.exit_duality_check(0.3, rep3, channel_family="bec").gap, float)
    assert isinstance(polar.convolution_duality_check(bsc, bsc).max_gap, float)
    assert isinstance(entropies.guessing_prob(state).value, float)
    assert isinstance(entropies.decoupling_q(state).value, float)
    assert isinstance(polar.polarization_experiment(ch.make_bec(0.3), 2, 4).frac_b_small, float)
    quantities = codedchannels.coded_duality_check(0.11, rep3, seed=0).quantities
    assert {"vn_sum", "minmax_sum", "maxmin_sum", "vn_sum_2", "minmax_sum_2", "srm_cross_gap",
            "srm_cross_gap_2"} <= set(quantities)


def test_family_labels_of_check_duality_all(capsys):
    # workloads.py names its checks f"{fam.label}_sum" and scores check-duality's
    # reports by their "family" strings
    from cqdual import cli

    assert cli.main(["check-duality", "--channel", "bsc:0.11", "--family", "all"]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert [r["family"] for r in reports] == [
        "von_neumann", "min", "max", "petz_down(0.5)", "petz_down(0.75)", "petz_down(1.25)",
        "petz_down(1.5)",
    ]


@pytest.mark.parametrize("source", ["state", "ensemble"])
def test_families_reach_the_traced_functions(monkeypatch, source):
    # the tracer replaces these module names in place, so a family's value must
    # look them up when it is read, once per family that uses them
    if source == "state":
        x, evaluate = entropies.from_channel(ch.make_bsc_dual(0.11)), entropies.cond_entropy
        traced = {"min": (entropies, "guessing_prob"), "max": (entropies, "decoupling_q")}
    else:
        x = codedchannels.dual_coded_ensemble(0.11, codes.repetition_pair(2), "deterministic")
        evaluate = codedchannels.ensemble_cond_entropy
        traced = {"min": (codedchannels, "ensemble_guessing"),
                  "max": (codedchannels, "ensemble_decoupling")}
    traced["petz"] = (entropies, "petz_curve")
    calls = []
    for key, (module, name) in traced.items():
        orig = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _orig=orig, _key=key: calls.append(_key) or _orig(*a))
    for fam, want in ((entropies.VON_NEUMANN, []), (entropies.MIN_ENTROPY, ["min"]),
                      (entropies.MAX_ENTROPY, ["max"]), (entropies.petz_down(0.5), ["petz"])):
        calls.clear()
        evaluate(x, fam)
        assert calls == want, fam.label


@pytest.mark.parametrize("call, want", [
    (lambda: codedchannels.exit_duality_check(0.11, codes.hamming74_pair(), channel_family="bsc"),
     {"exit_duality_check": 1, "ensemble_cond_entropy": 7}),
    (lambda: codedchannels.coded_duality_check(0.11, codes.repetition_pair(3)),
     {"coded_duality_check": 1, "classical_coded_table": 2, "ensemble_cond_entropy": 2,
      "ensemble_decoupling": 2, "ensemble_guessing": 2, "gram_embed": 2, "guessing_prob": 1,
      "max_fidelity_sum": 2}),
    (lambda: codedchannels.compression_extraction_tables(
        entropies.from_channel(ch.make_bsc(0.11)), 2),
     {"compression_extraction_tables": 1, "max_fidelity_sum": 4, "gram_embed": 4,
      "ensemble_decoupling": 4}),
    (lambda: codedchannels.compression_extraction_tables(
        entropies.from_channel(ch.make_bsc(0.11)), 3),
     {"compression_extraction_tables": 1, "max_fidelity_sum": 15, "gram_embed": 15,
      "ensemble_decoupling": 15}),
    (lambda: codedchannels.compression_extraction_tables(
        entropies.from_channel(ch.make_classical([[0.8, 0.2], [0.3, 0.7]])), 2),
     {"compression_extraction_tables": 1, "max_fidelity_sum": 16, "gram_embed": 16,
      "ensemble_decoupling": 16}),
], ids=["exit_bsc_hamming74", "coded_rep3", "frontier_bsc_n2", "frontier_bsc_n3",
        "frontier_asymmetric_n2"])
def test_traced_codedchannels_call_counts(monkeypatch, call, want):
    # the per-layer view of a traced run counts calls of the traced names; a
    # refactor that calls one more or less often moves it silently
    calls = {}

    def counted(name, fn):
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    _bind_traced(monkeypatch, counted)
    call()
    assert {name: n for name, n in calls.items() if n} == want


def _bind_traced(monkeypatch, wrap):
    """Replace each function of tracer.TRACED by wrap(name, function), bound in
    every cqdual module that holds it, as the tracer binds its spans."""
    traced = [(name, getattr(importlib.import_module(f"cqdual.{mod}"), name))
              for mod, names in _traced().items() for name in names]
    modules = [m for n, m in sys.modules.items() if n == "cqdual" or n.startswith("cqdual.")]
    for name, orig in traced:
        wrapper = wrap(name, orig)
        for module in modules:
            for attr, val in list(vars(module).items()):
                if val is orig:
                    monkeypatch.setattr(module, attr, wrapper)


def _workloads():
    """perfbench/workloads.py itself, loaded as a module."""
    path = PERFBENCH / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _identity_check(w):
    """perfbench's identity_corpus check on w, from workloads.py itself."""
    return _workloads()._channel_check(w)


@pytest.mark.parametrize("workload", ["identity_corpus", "polar_depth", "coded_blocklength",
                                      "cli_readme"], ids=lambda w: w.title().replace("_", ""))
def test_workload_passes_hold_and_repeat(workload):
    # only a traced run checks these: it adds the long checks, runs the README
    # commands in-process, and requires every pass's gaps to repeat the
    # warm-up's. A change that breaks either would pass an untraced run and
    # fail the traced one
    module = _workloads()
    wl = module.WORKLOADS[workload](module.ACCEPTANCE_SEED, True)
    passes = []
    for _ in range(2):
        gaps = {c.name: c.run() for c in wl.checks + wl.long_checks}
        assert [(name, label, gap, tol) for name, run in gaps.items()
                for label, gap, tol in run if not gap <= tol] == []
        passes.append(repr(gaps))
    assert passes[0] == passes[1]


@pytest.mark.parametrize("workload, check, want", [
    ("IdentityCorpus", None, {"eigh": 0, "eigvalsh": 0}),
    ("PolarDepth", "polarization_bec16", {"eigh": 0, "eigvalsh": 4}),
    ("CodedBlocklength", "coded_dense_oracle", {"eigh": 0, "eigvalsh": 9}),
], ids=["identity_corpus", "polarization_bec16", "coded_dense_oracle"])
def test_eigensolves_outside_the_traced_names(monkeypatch, workload, check, want):
    # a traced pass's coverage is the share of its time inside traced names;
    # the eigensolves of a warm pass made outside all of them are the part of
    # the rest that the library decides. Channels built by the check itself
    # (the BEC pair of the polarization check) or a dense oracle state account
    # for them. A refactor that reads a kept solve outside its traced name
    # moves these counts
    module = _workloads()
    wl = getattr(module, workload)(module.ACCEPTANCE_SEED)
    checks = [c for c in wl.checks if check in (None, c.name)]
    for c in checks:
        c.run()  # the warm-up pass
    depth = [0]

    def spanned(name, fn):
        def wrapper(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    _bind_traced(monkeypatch, spanned)
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        orig = getattr(np.linalg, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            counts[_name] += depth[0] == 0
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for c in checks:
        c.run()
    assert counts == want


def test_identity_check_eigensolver_counts(monkeypatch):
    # kernel.eigh.calls and kernel.eigvalsh.calls of one identity_corpus check on
    # a non-classical corpus channel: the first check, then each later one, which
    # reads what the channel's state kept (perfbench builds its channels once).
    # A change that decomposes more or less often moves these silently
    from cqdual import corpus

    w = corpus.binary_channel_corpus(20240811, 1)[0]
    assert w._state._table is None
    run = _identity_check(w)
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        orig = getattr(np.linalg, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    seen = []
    for _ in range(3):
        counts.update(eigh=0, eigvalsh=0)
        assert all(gap <= tol for _, gap, tol in run())
        seen.append(dict(counts))
    # before dispersion read the kept decompositions: 18/8, then 12/5
    assert seen == [{"eigh": 14, "eigvalsh": 8}] + [{"eigh": 8, "eigvalsh": 5}] * 2
