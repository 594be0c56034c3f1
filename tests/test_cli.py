import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cqdual
from cqdual import channels as ch, checks, cli, codes
from cqdual.corpus import random_channel
from cqdual.fbl import CSV_HEADER


def run_cli(args):
    return cli.main(args)


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--version"])
    assert exc.value.code == 0
    assert "cqdual" in capsys.readouterr().out


def test_unknown_flag_exits_2():
    # --format is only taken by the commands that can write both JSON and CSV
    for args in (
        ["check-duality", "--nope"],
        ["check-duality", "--channel", "bsc:0.11", "--format", "csv"],
        ["fbl", "--format", "json"],
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 2


def test_parse_grid_forms():
    assert cli.parse_grid("100:300:100") == [100.0, 200.0, 300.0]
    assert cli.parse_grid("0.1,0.2") == [0.1, 0.2]


def test_parse_grid_caps_a_range_before_building_it():
    assert len(cli.parse_grid("1:10000:1")) == 10000
    assert len(cli.parse_grid("0:99999:1")) == cli._GRID_CAP
    with pytest.raises(cqdual.Unsupported, match="has 100001 points; the cap is 100000"):
        cli.parse_grid("0:100000:1")


def test_check_duality_json(tmp_path):
    out = tmp_path / "rep.json"
    assert run_cli([
        "check-duality", "--channel", "bsc:0.11", "--family", "all",
        "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["version"]
    gaps = {r["family"]: r["gap"] for r in doc["reports"]}
    assert gaps["von_neumann"] < 1e-6
    assert gaps["min"] < 1e-4 and gaps["max"] < 1e-4
    assert all(v < 1e-6 for k, v in gaps.items() if k.startswith("petz"))


def test_dual_channel_roundtrip(tmp_path):
    out = tmp_path / "dual.json"
    assert run_cli(["dual", "--channel", "bec:0.3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["dual"]["d"] == 2
    assert "profile" in doc


def test_convolve_command(tmp_path):
    out = tmp_path / "conv.json"
    assert run_cli([
        "convolve", "--channel", "bsc:0.11", "--channel2", "bsc:0.3",
        "--kind", "check", "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert doc["channel"]["dim"] == 4


def test_polarize_csv_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [
        "polarize", "--channel", "bec:0.3", "--n", "12", "--trials", "200",
        "--seed", "5", "--format", "csv",
    ]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().split("\n")
    assert lines[0].startswith("#") and "seed=5" in lines[0]
    assert lines[1] == "trial,b_final,one_minus_b_final"
    assert len(lines) == 202


def test_code_analyze_csv(capsys):
    assert run_cli(["code-analyze", "--code", "rep31", "--p", "0.11", "--format", "csv"]) == 0
    comment, header, *rows = capsys.readouterr().out.splitlines()
    assert comment.startswith("# cqdual=") and "code='rep31'" in comment and "p=0.11" in comment
    assert header == "quantity,value"
    names = [row.split(",")[0] for row in rows]
    assert names == sorted(names)
    ana = cqdual.coded_duality_check(0.11, codes.preset_pair("rep31"))
    assert {k: float(v) for k, v in (row.split(",") for row in rows)} == ana.quantities


def test_polarize_erasure_channel_from_file(tmp_path, capsys):
    # the deep scalar path is chosen from the transition, not the spec's kind
    path = tmp_path / "bec.json"
    path.write_text(json.dumps({"transition": [[0.7, 0.0, 0.3], [0.0, 0.7, 0.3]]}))
    rows = []
    for spec in (f"classical:@{path}", "bec:0.3"):
        assert run_cli(["polarize", "--channel", spec, "--n", "16", "--trials", "200",
                        "--format", "csv"]) == 0
        rows.append([ln for ln in capsys.readouterr().out.splitlines()
                     if not ln.startswith("#")])
    assert rows[0] == rows[1]
    assert len(rows[0]) == 201


def _polarize_report(tmp_path, capsys, transition):
    path = tmp_path / "chan.json"
    path.write_text(json.dumps({"transition": transition}))
    assert run_cli(["polarize", "--channel", f"classical:@{path}", "--n", "4",
                    "--trials", "50"]) == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(capsys.readouterr().out, parse_constant=reject)["report"]


def test_polarize_json_without_capacity_is_strict(tmp_path, capsys):
    # a Z-channel is neither symmetric by witnesses nor an erasure channel, so
    # it has no capacity here; strict JSON gets null, not NaN
    assert _polarize_report(tmp_path, capsys, [[1.0, 0.0], [0.3, 0.7]])["capacity"] is None


def test_polarize_erasure_file_capacity(tmp_path, capsys):
    # an erasure channel read from a file reports the capacity of bec:0.3
    report = _polarize_report(tmp_path, capsys, [[0.7, 0.0, 0.3], [0.0, 0.7, 0.3]])
    assert abs(report["capacity"] - 0.7) < 1e-12


def test_polarize_symmetric_file_capacity(tmp_path, capsys):
    # a BSC read from a file is symmetric by the swap of its output symbols,
    # so it reports the capacity of bsc:0.11
    report = _polarize_report(tmp_path, capsys, [[0.89, 0.11], [0.11, 0.89]])
    assert run_cli(["polarize", "--channel", "bsc:0.11", "--n", "4", "--trials", "50"]) == 0
    named = json.loads(capsys.readouterr().out)["report"]
    assert abs(report["capacity"] - named["capacity"]) < 1e-12


def test_code_analyze(tmp_path):
    out = tmp_path / "code.json"
    assert run_cli([
        "code-analyze", "--code", "rep31", "--p", "0.11", "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["analysis"]["quantities"]["vn_sum"] - 1.0) < 1e-6


def test_code_analyze_from_file(tmp_path):
    path = tmp_path / "mycode.txt"
    codes.save_code_pair(codes.repetition_pair(2), path)
    out = tmp_path / "out.json"
    assert run_cli([
        "code-analyze", "--code", f"@{path}", "--p", "0.2", "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert doc["analysis"]["n"] == 2


def test_exit_scan_csv(tmp_path):
    out = tmp_path / "scan.csv"
    assert run_cli([
        "exit-scan", "--channel", "bec", "--code", "hamming74",
        "--grid", "0.2:0.8:0.2", "--out", str(out),
    ]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[1] == "p,exit,exit_dual,sum"
    body = [ln for ln in lines[2:] if not ln.startswith("#")]
    for ln in body:
        p, lhs, rhs, tot = (float(v) for v in ln.split(","))
        assert abs(tot - 1.0) < 1e-9


def test_fbl_csv_schema(tmp_path):
    out = tmp_path / "fbl.csv"
    assert run_cli([
        "fbl", "--n-grid", "100:300:100", "--p", "0.11", "--eps", "1e-3",
        "--out", str(out),
    ]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[1] == CSV_HEADER
    rows = [ln.split(",") for ln in lines[2:]]
    for row in rows:
        assert float(row[3]) >= float(row[4])


def test_classical_channel_from_file(tmp_path):
    spec = tmp_path / "zchan.json"
    spec.write_text(json.dumps({"transition": [[1.0, 0.0], [0.3, 0.7]]}))
    out = tmp_path / "dual.json"
    assert run_cli(["dual", "--channel", f"classical:@{spec}", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["dual"]["d"] == 2


def test_channel_file_with_stale_label_keys_loads(tmp_path):
    # older channel files also carry kind, params and dilation_dims; only the
    # outputs and witnesses are read
    wd = ch.dual(ch.make_bsc(0.11))
    doc = ch.channel_to_dict(wd)
    doc.update(kind="dual", params={"of": "bsc", "p": 0.11}, dilation_dims=[2, 2])
    spec = tmp_path / "old.json"
    spec.write_text(json.dumps(doc))
    back = cli.parse_channel_spec(f"channel:@{spec}")
    for a, b in zip((*wd.outputs, *wd.witnesses), (*back.outputs, *back.witnesses)):
        assert (a == b).all()
    assert len(back.witnesses) == len(wd.witnesses)


def test_pure_channel_from_file(tmp_path):
    spec = tmp_path / "pure.json"
    s = 1 / np.sqrt(2)
    spec.write_text(json.dumps({"vectors": [[[1.0, 0.0], [0.0, 0.0]], [[s, 0.0], [s, 0.0]]]}))
    out = tmp_path / "dual.json"
    assert run_cli(["dual", "--channel", f"pure:@{spec}", "--out", str(out)]) == 0


@pytest.mark.parametrize(
    "args",
    [
        ["check-duality", "--channel", "bsc:1.5"],
        ["check-duality", "--channel", "bsc:abc"],
        ["dual", "--channel", "classical:@{missing}"],
        ["polarize", "--channel", "bsc:0.11"],
        ["polarize", "--channel", "bsc:0.11", "--trials", "0"],
        ["polarize", "--channel", "bsc:0.11", "--n", "0", "--trials", "5"],
        ["polarize", "--channel", "bsc:0.11", "--n", "-1", "--trials", "5"],
        ["check-duality", "--channel", "bsc:0.11", "--family", "bogus"],
        ["check-duality", "--channel", "bsc:0.11", "--family", "petz:abc"],
        ["check-duality", "--channel", "bsc:0.11", "--family", "petz:3"],
        ["code-analyze", "--code", "rep31", "--p", "1.5"],
        ["code-analyze", "--code", "rep31", "--p", "-0.1"],
        ["code-analyze", "--code", "rep31", "--p", "nan"],
        ["fbl", "--n-grid", "0"],
        ["fbl", "--n-grid", "100,20000"],
        ["fbl", "--n-grid", "nan"],
        ["fbl", "--p", "0.5"],
        ["fbl", "--p", "0"],
        ["fbl", "--eps", "0"],
        ["fbl", "--eps", "1"],
        ["fbl", "--n-grid", "150.7"],
        ["selftest", "--fast", "--seed", "-1"],
        ["selftest", "--fast", "--seed", str(2**128)],
        ["polarize", "--channel", "bec:0.3", "--n", "4", "--trials", "10", "--seed", "-1"],
        ["polarize", "--channel", "bec:0.3", "--n", "4", "--trials", "10", "--seed", str(2**128)],
        ["polarize", "--channel", "bec:0.3", "--n", "4", "--trials", "10", "--beta", "nan"],
        ["polarize", "--channel", "bec:0.3", "--n", "4", "--trials", "10", "--beta", "inf"],
        ["polarize", "--channel", "bec:0.3", "--n", "4", "--trials", "10", "--beta", "-1"],
        ["polarize", "--channel", "bec:0.3", "--n", "4", "--trials", "10", "--beta", "0"],
        ["check-duality", "--channel", "bsc"],
        ["check-duality", "--channel", "classical:t.json"],
        ["check-duality", "--channel", "weird:@{present}"],
        ["exit-scan", "--channel", "bec", "--code", "rep31", "--grid", "0:1:0"],
        # size caps, refused before anything is allocated
        ["polarize", "--channel", "bec:0.3", "--n", "16", "--trials", str(10**15)],
        ["exit-scan", "--channel", "bec", "--code", "rep31", "--grid", "0:1:1e-12"],
        ["fbl", "--n-grid", "1:10000:1e-9"],
        # an unknown kind is named before any file is opened
        ["check-duality", "--channel", "weird:@{missing}"],
        ["check-duality", "--channel", "weird:0.3"],
        # a grid point that is not finite is refused, not skipped
        ["exit-scan", "--channel", "bec", "--code", "rep31", "--grid", "nan"],
        ["exit-scan", "--channel", "bec", "--code", "rep31", "--grid", "inf"],
        ["exit-scan", "--channel", "bec", "--code", "rep31", "--grid", "0.3,nan"],
        ["exit-scan", "--channel", "bec", "--code", "rep31", "--grid", "0.3,-inf"],
        # order 2 pairs with order 0, which petz_down refuses
        ["check-duality", "--channel", "bsc:0.11", "--family", "petz:2"],
        ["check-duality", "--channel", "bsc:0.11", "--family", "petzzz"],
    ],
)
def test_usage_errors_exit_2(tmp_path, capsys, args):
    present = tmp_path / "present.json"
    present.write_text("{}")
    args = [a.format(missing=tmp_path / "missing.json", present=present) for a in args]
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cqdual: error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("family, message", [
    ("petz:2", "Petz order 2 pairs with order 0, which is not computed"),
    ("petzzz", "unknown family 'petzzz'"),
])
def test_family_refusal_names_its_cause(capsys, family, message):
    assert run_cli(["check-duality", "--channel", "bsc:0.11", "--family", family]) == 2
    assert capsys.readouterr().err == f"cqdual: error: {message}\n"


@pytest.mark.parametrize("spec", ["weird:@{missing}", "weird:0.3"])
def test_unknown_channel_kind_is_named_before_any_file(tmp_path, capsys, spec):
    spec = spec.format(missing=tmp_path / "missing.json")
    assert run_cli(["check-duality", "--channel", spec]) == 2
    assert capsys.readouterr().err == "cqdual: error: unknown channel kind 'weird'\n"


def test_exit_scan_skips_finite_points_outside_the_unit_interval(capsys):
    assert run_cli(["exit-scan", "--channel", "bec", "--code", "rep31",
                    "--grid", "0,0.3,1.5,-2"]) == 0
    rows = [ln for ln in capsys.readouterr().out.split("\n")[2:] if ln and ln[0] != "#"]
    assert [float(r.split(",")[0]) for r in rows] == [0.3]


@pytest.mark.parametrize(
    "args, value, code, expected",
    [
        (["exit-scan", "--channel", "bec", "--code", "rep31", "--grid"], "-0.1,0.3", 0,
         ("out", [0.3])),
        (["fbl", "--n-grid"], "-100:100:100", 2,
         ("err", "cqdual: error: n must be in [1, 10^4]\n")),
    ],
    ids=["exit_scan_grid", "fbl_n_grid"],
)
def test_a_value_starting_with_a_dash_reads_as_its_equals_form(capsys, args, value, code, expected):
    spaced = run_cli([*args, value]), capsys.readouterr()
    joined = run_cli([*args[:-1], f"{args[-1]}={value}"]), capsys.readouterr()
    assert spaced == joined
    status, captured = spaced
    assert status == code
    stream, want = expected
    if stream == "out":  # the grid's one point inside (0, 1)
        rows = [ln for ln in captured.out.split("\n")[2:] if ln and ln[0] != "#"]
        assert [float(r.split(",")[0]) for r in rows] == want and captured.err == ""
    else:
        assert captured.out == "" and captured.err == want


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("p=0.3\nn_grid=100:200:100\n")
    out = tmp_path / "fbl.csv"
    assert run_cli(["--config", str(cfg), "fbl", "--eps", "1e-2", "--out", str(out)]) == 0
    header = out.read_text().split("\n")[0]
    assert "p=0.3" in header
    # flags still win over config values
    out2 = tmp_path / "fbl2.csv"
    assert run_cli([
        "--config", str(cfg), "fbl", "--eps", "1e-2", "--p", "0.11", "--out", str(out2),
    ]) == 0
    assert "p=0.11" in out2.read_text().split("\n")[0]
    # values take their option's type, so false switches a flag off
    flags = tmp_path / "flags.cfg"
    flags.write_text("complement=false\nn=4\ntrials=10\n")
    out3 = tmp_path / "pol.json"
    assert run_cli([
        "--config", str(flags), "polarize", "--channel", "bec:0.3", "--out", str(out3),
    ]) == 0
    doc = json.loads(out3.read_text())
    assert doc["report"]["complemented"] is False
    assert doc["meta"]["params"]["n"] == 4
    flags.write_text("complement=maybe\n")
    assert run_cli(["--config", str(flags), "polarize", "--channel", "bec:0.3"]) == 2
    flags.write_text("no_such_option=1\n")
    assert run_cli(["--config", str(flags), "polarize", "--channel", "bec:0.3"]) == 2
    # keys of other commands are skipped, so one file serves several commands
    out4 = tmp_path / "code.json"
    assert run_cli([
        "--config", str(cfg), "code-analyze", "--code", "rep31", "--out", str(out4),
    ]) == 0
    assert json.loads(out4.read_text())["meta"]["params"]["p"] == 0.3


def test_internal_errors_are_not_usage_errors(monkeypatch):
    # only the library's Unsupported refusals are usage errors; any other
    # ValueError raised while a command computes, LinAlgError included, is a fault
    def broken(*args, **kwargs):
        raise ValueError("matrix not Hermitian")

    def unsolved(*args, **kwargs):
        raise np.linalg.LinAlgError("eigh did not converge")

    for fault, error, match in ((broken, ValueError, "not Hermitian"),
                                (unsolved, np.linalg.LinAlgError, "did not converge")):
        # each command imports its library module when it runs, so the fault
        # is patched where the function is defined
        for target, args in (
            ("cqdual.entropies.duality_check", ["check-duality", "--channel", "bsc:0.11"]),
            ("cqdual.polar.polarization_experiment",
             ["polarize", "--channel", "bsc:0.11", "--n", "2", "--trials", "2"]),
            ("cqdual.codedchannels.exit_scan",
             ["exit-scan", "--channel", "bsc", "--code", "rep31"]),
            ("cqdual.codedchannels.coded_duality_check",
             ["code-analyze", "--code", "rep31", "--p", "0.11"]),
            ("cqdual.fbl.compute_curves", ["fbl"]),
        ):
            monkeypatch.setattr(target, fault)
            with pytest.raises(error, match=match):
                run_cli(args)
            monkeypatch.undo()


def test_polarize_past_the_dimension_cap_exits_2(tmp_path, capsys):
    spec = tmp_path / "dualbec.json"
    spec.write_text(ch.channel_to_json(ch.dual(ch.make_bec(0.3))))
    assert run_cli(["polarize", "--channel", f"channel:@{spec}", "--n", "4", "--trials", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cqdual: error: trajectory hit the dimension cap after level 2")


@pytest.mark.parametrize(
    "channel, n, message",
    [
        ("bsc", 11, "pure-dual EXIT blocklength capped at 10"),
        ("bsc", 13, "classical EXIT blocklength capped at 12"),
        ("bec", 30, "erasure EXIT needs 2^30 mask words"),
    ],
)
def test_exit_scan_past_a_cap_exits_2(tmp_path, capsys, channel, n, message):
    path = tmp_path / f"rep{n}.txt"
    codes.save_code_pair(codes.repetition_pair(n), path)
    assert run_cli(["exit-scan", "--channel", channel, "--code", f"@{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cqdual: error: {message}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "args, message",
    [
        (["convolve", "--channel", "classical:@{three}", "--channel2", "bsc:0.1"],
         "convolutions are defined for binary-input channels"),
        (["code-analyze", "--code", "@{n15}", "--p", "0.11"],
         "blocklength capped at 14 for exhaustive tables"),
        (["code-analyze", "--code", "@{q3}", "--p", "0.11"],
         "channel input alphabet must match the code field"),
    ],
    ids=["convolve_three_inputs", "code_analyze_n15", "code_analyze_q3"],
)
def test_library_refusals_exit_2(tmp_path, capsys, args, message):
    three = tmp_path / "three.json"
    three.write_text(json.dumps({"transition": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]}))
    codes.save_code_pair(codes.repetition_pair(15), tmp_path / "n15.txt")
    codes.save_code_pair(codes.build_code(np.eye(3, dtype=int), 1, q=3), tmp_path / "q3.txt")
    args = [a.format(three=three, n15=tmp_path / "n15.txt", q3=tmp_path / "q3.txt") for a in args]
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cqdual: error: {message}\n"


@pytest.mark.parametrize(
    "args, content, message",
    [
        (["dual", "--channel", "channel:@{f}"], '{"foo": 1}', "a list under 'outputs'"),
        (["dual", "--channel", "channel:@{f}"], "[1, 2]", "a list under 'outputs'"),
        (["dual", "--channel", "channel:@{f}"], '{"outputs": [[[1, 0]]]}',
         "expected rows of [re, im] pairs"),
        (["dual", "--channel", "classical:@{f}"], '{"foo": 1}', "a list under 'transition'"),
        (["dual", "--channel", "classical:@{f}"], '{"transition": [[null, 1], [0.5, 0.5]]}',
         "matrix not Hermitian"),
        (["dual", "--channel", "classical:@{f}"], '{"transition": [[{}, 1], [0.5, 0.5]]}',
         "transition entries must be numbers"),
        (["dual", "--channel", "pure:@{f}"], '{"foo": 1}', "a list under 'vectors'"),
        (["dual", "--channel", "pure:@{f}"], '{"vectors": [[1, 0]]}',
         "expected rows of [re, im] pairs"),
        (["dual", "--channel", "channel:@{f}"], '{"outputs": []}', "need at least one output"),
        (["dual", "--channel", "classical:@{f}"], '{"transition": []}',
         "need at least one output"),
        (["dual", "--channel", "pure:@{f}"], '{"vectors": []}', "need at least one output"),
        (["code-analyze", "--code", "@{f}", "--p", "0.11"], "", "expected a 'q n k' line"),
        (["code-analyze", "--code", "@{f}", "--p", "0.11"], "2 3 1\n100\n030\n001\n",
         "digit 3 is not below q = 2"),
        (["code-analyze", "--code", "@{f}", "--p", "0.11"], "2 3 1\n100\n010\n001\n111\n",
         "expected 3 rows of length 3"),
    ],
    ids=["channel_no_outputs", "channel_not_object", "channel_row_of_numbers",
         "classical_no_transition", "classical_null_entry", "classical_object_entry",
         "pure_no_vectors", "pure_vector_of_numbers", "channel_empty_outputs",
         "classical_empty_transition", "pure_empty_vectors", "empty_code", "code_digit_past_q",
         "code_row_past_n"],
)
def test_malformed_files_exit_2(tmp_path, capsys, args, content, message):
    path = tmp_path / "input"
    path.write_text(content)
    assert run_cli([a.format(f=path) for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cqdual: error: ") and message in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "args, keys",
    [
        (["dual", "--channel", "bec:0.3"], {"channel"}),
        (["check-duality", "--channel", "bsc:0.11", "--family", "von_neumann"],
         {"channel", "family"}),
        (["convolve", "--channel", "bsc:0.11", "--channel2", "bsc:0.3"],
         {"channel", "channel2", "kind"}),
        (["polarize", "--channel", "bec:0.3", "--n", "4", "--trials", "10"],
         {"beta", "channel", "complement", "n", "trials"}),
        (["code-analyze", "--code", "rep31", "--p", "0.11"], {"code", "p"}),
        (["exit-scan", "--channel", "bec", "--code", "rep31", "--grid", "0.3", "--format", "json"],
         {"channel", "code", "grid"}),
    ],
    ids=["dual", "check-duality", "convolve", "polarize", "code-analyze", "exit-scan"],
)
def test_meta_params_are_the_commands_own_flags(capsys, args, keys):
    # --seed, --out and --format steer the run and stay out of params
    assert run_cli(args + ["--seed", "3"]) == 0
    meta = json.loads(capsys.readouterr().out)["meta"]
    assert set(meta["params"]) == keys
    assert meta["seed"] == 3


@pytest.mark.parametrize("family", ["all", "min", "max"])
def test_check_duality_refuses_min_max_beyond_binary_input(tmp_path, capsys, family):
    spec = tmp_path / "three.json"
    spec.write_text(ch.channel_to_json(random_channel(np.random.default_rng(1), 2, d=3)))
    assert run_cli(["check-duality", "--channel", f"channel:@{spec}", "--family", family]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    first = "max" if family == "max" else "min"  # all stops at min, its first refused family
    assert captured.err.startswith(f"cqdual: error: the {first} entropy sum")
    # the families that do not need an optimal measurement still run
    assert run_cli(["check-duality", "--channel", f"channel:@{spec}", "--family", "petz"]) == 0


# name -> tolerance of every line `selftest --fast` printed before its checks
# became the rows of cqdual.checks
_FAST_LINES_BEFORE_TABLE = {
    **{f"entropy_sum_vn[{i}]": 1e-6 for i in range(8)},
    **{f"state_disjointness[{i}]": 1e-9 for i in range(8)},
    **{f"entropy_sum_petz_down({a})[{i}]": 1e-6 for a in (0.5, 1.5) for i in range(4)},
    **{f"entropy_sum_{s}[{i}]": 1e-4 for s in ("minmax", "maxmin") for i in range(4)},
    **{f"dispersion_match[{i}]": 1e-5 for i in range(4)},
    **{f"capacity_sum_bsc({p})": 1e-8 for p in (0.05, 0.11, 0.25, 0.45)},
    **{f"convolution_duality[{i}]": 1e-6 for i in range(3)},
    "trajectory_duality_bsc": 1e-5,
    "polarization_good_fraction": 0.05, "polarization_dual_fraction": 0.05,
    "coded_sum_vn": 1e-6, "coded_sum_minmax": 1e-5, "coded_sum_vn_2": 1e-6,
    "coded_srm_cross": 1e-5, "exit_sum_bec": 1e-10, "exit_sum_bsc": 1e-6,
    **{f"blocklength_sum_n{n}_eps{e}": 0.5 for n in (2, 3) for e in (0.2, 0.3, 0.5)},
    "structured_state_identity": 1e-7, "fbl_ordering": 0.0, "fbl_gap_500": 0.0,
    "beta_kernel_vs_enumeration": 1e-10,
}


def test_selftest_fast(capsys):
    assert run_cli(["selftest", "--fast"]) == 0
    *lines, summary = capsys.readouterr().out.splitlines()
    assert summary.startswith("selftest: all checks passed")
    assert all(ln.startswith("PASS ") for ln in lines)
    tols = {ln.split()[1]: float(ln.split()[3].removeprefix("tol=")) for ln in lines}
    assert len(tols) == len(lines)  # names are unique
    assert len(_FAST_LINES_BEFORE_TABLE) == 62
    for name, tol in _FAST_LINES_BEFORE_TABLE.items():
        assert tols[name] <= tol, name


def test_selftest_failure_exits_1_and_names_the_worst_offender(monkeypatch, capsys):
    rows = {row.name: row for row in checks.ROWS}
    # capacity_anchor's gap is about 6e-6, so a tolerance of 1e-9 fails it
    monkeypatch.setattr(checks, "ROWS", [rows["entropy_sum_vn"],
                                         replace(rows["capacity_anchor"], tol=1e-9)])
    assert run_cli(["selftest", "--fast"]) == 1
    *lines, summary = capsys.readouterr().out.splitlines()
    fails = [ln.split()[1] for ln in lines if ln.startswith("FAIL ")]
    assert len(fails) == 1 and len(lines) == 9
    assert summary == f"selftest: 1 failure(s); worst offender: {fails[0]}"


# The README's commands other than the full selftest.
_SCIPY_FREE_COMMANDS = [
    ["--version"],
    ["check-duality", "--channel", "bsc:0.11", "--family", "all"],
    ["dual", "--channel", "bec:0.3"],
    ["convolve", "--channel", "bsc:0.11", "--channel2", "bsc:0.3", "--kind", "check"],
    ["polarize", "--channel", "bec:0.3", "--n", "16", "--trials", "10000", "--seed", "7",
     "--format", "csv"],
    ["code-analyze", "--code", "hamming74", "--p", "0.11"],
    ["exit-scan", "--channel", "bec", "--code", "hamming74", "--grid", "0.05:0.95:0.05"],
    ["fbl", "--n-grid", "100:500:100", "--p", "0.11", "--eps", "1e-3"],
]

_STARTUP_PROBE = """
import contextlib, io, json, sys
import cqdual, cqdual.cli
assert "scipy" not in sys.modules, "import"
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cqdual.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == 0, argv
    assert "scipy" not in sys.modules, argv
    assert "cqdual.checks" not in sys.modules, argv
"""


def _run_fresh(probe: str, arg) -> str:
    """stdout of probe in a fresh interpreter, with arg as JSON in argv[1].

    Start-up is checked in a fresh interpreter because this test module's
    neighbours import numpy, scipy and every cqdual module.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(cqdual.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(arg)],
        capture_output=True, text=True, env=env, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_startup_leaves_scipy_unloaded():
    # only the evr retry of the eigensolver needs scipy, and only selftest the checks table
    _run_fresh(_STARTUP_PROBE, _SCIPY_FREE_COMMANDS)


_MODULES_PROBE = """
import contextlib, io, json, sys
import cqdual
argv = json.loads(sys.argv[1])
if argv is not None:
    import cqdual.cli
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cqdual.cli.main(argv)
        except SystemExit:
            pass
print(json.dumps(sorted(sys.modules)))
"""


def _modules_loaded(argv) -> set[str]:
    """Modules loaded by `import cqdual` and, unless argv is None, cqdual.cli.main(argv)."""
    return set(json.loads(_run_fresh(_MODULES_PROBE, argv)))


def test_import_loads_config_alone():
    mods = _modules_loaded(None)
    assert "numpy" not in mods
    assert {m for m in mods if m.startswith("cqdual.")} == {"cqdual.config"}


# `dual` without --channel is an argparse error
@pytest.mark.parametrize("argv", [["--version"], ["dual"]])
def test_version_and_usage_errors_load_no_numpy(argv):
    mods = _modules_loaded(argv)
    assert "numpy" not in mods and "cqdual.checks" not in mods


def test_fbl_loads_no_scipy_and_no_channel_modules():
    mods = _modules_loaded(["fbl", "--n-grid", "100:500:100"])
    assert "cqdual.fbl" in mods and "scipy" not in mods
    assert not mods & {"cqdual.channels", "cqdual.entropies", "cqdual.polar",
                       "cqdual.codedchannels", "cqdual.checks"}


def test_convolve_kind_choices_are_the_polar_constants():
    from cqdual import polar

    _, commands = cli._build_parser()
    kind = next(a for a in commands["convolve"]._actions if a.dest == "kind")
    assert tuple(kind.choices) == (polar.VARIABLE, polar.CHECK)
    assert kind.default == polar.VARIABLE


def test_exports_resolve_to_their_submodules_own_objects():
    import importlib

    for name in cqdual.__all__:
        obj = getattr(cqdual, name)
        if name in cqdual._EXPORTS:
            module = importlib.import_module(f"cqdual.{cqdual._EXPORTS[name]}")
            assert obj is getattr(module, name), name
            if callable(obj):  # the table names the module that defines it
                assert obj.__module__ == module.__name__, name
        elif isinstance(obj, type(cqdual)):
            assert obj is importlib.import_module(f"cqdual.{name}"), name
        else:
            assert obj is getattr(cqdual.config, name), name


# what `from cqdual import *` bound when the package imported every submodule
_STAR_NAMES = set("""
    CHECK ChannelState CodePair CodedAnalysis CqChannel CqState DualityReport
    EntropyFamily InvariantProfile MAX_ENTROPY MIN_ENTROPY PureEnsemble PureState
    SCHEMA_VERSION TOL Tolerances Unsupported VARIABLE VON_NEUMANN better
    bsc_metaconverse bsc_union_achievability build_code capacity capacity_duality_check
    channel_from_json channel_state channel_to_json channels classical_dual_overlaps
    coded_duality_check codedchannels codes compression_extraction_bruteforce
    compute_curves cond_entropy config convolution_duality_check convolve decoupling_q
    degrade_to_bsc dispersion dual dual_coded_ensemble duality_check
    encoder_duality_check ensemble_cond_entropy entropies exit_duality_check
    exit_function exit_scan extractor_bounds fbl fidelity from_channel gram_embed
    guessing_prob hermitian_eig invariant_profile linalg make_bec make_bsc make_bsc_dual
    make_classical make_pure np_beta partial_trace petz_down polar
    polarization_experiment preset_pair psd_sqrt purify
    structured_state_gap symmetrize tensor trace_distance
    trace_distance_vs_dual_fidelity trajectory trajectory_duality_gap upgrade_to_pure
    von_neumann_entropy weight_enumerator worse
""".split())


def test_star_import_binds_the_same_names():
    ns: dict = {}
    exec("from cqdual import *", ns)
    assert set(ns) - {"__builtins__"} == _STAR_NAMES
