import json

import numpy as np
import pytest

from cqdual import cli, codes
from cqdual.fbl import CSV_HEADER


def run_cli(args):
    return cli.main(args)


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--version"])
    assert exc.value.code == 0
    assert "cqdual" in capsys.readouterr().out


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["check-duality", "--nope"])
    assert exc.value.code == 2


def test_parse_grid_forms():
    assert cli.parse_grid("100:300:100") == [100.0, 200.0, 300.0]
    assert cli.parse_grid("0.1,0.2") == [0.1, 0.2]


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
    ],
)
def test_usage_errors_exit_2(tmp_path, capsys, args):
    args = [a.format(missing=tmp_path / "missing.json") for a in args]
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cqdual: error: ")
    assert captured.err.count("\n") == 1


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
    def broken(*args, **kwargs):
        raise ValueError("matrix not Hermitian")

    monkeypatch.setattr(cli._en, "duality_check", broken)
    with pytest.raises(ValueError, match="not Hermitian"):
        run_cli(["check-duality", "--channel", "bsc:0.11"])


def test_selftest_fast():
    assert run_cli(["selftest", "--fast"]) == 0
