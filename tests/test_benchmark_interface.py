"""The names and keywords the benchmark in perfbench/ binds or passes.

perfbench wraps the functions listed in tracer.TRACED, calls library names
from its workloads, and passes some of them keywords. A rename, move or
deletion on the library side should fail here, not only in a benchmark run.
"""

import ast
import dataclasses
import importlib
import inspect
import json
from pathlib import Path

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
