"""Command-line driver: duals, duality checks, experiments, and the self-test.

Every command writes CSV or JSON with an embedded {version, seed, params}
header so identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING

from .config import SCHEMA_VERSION, Unsupported

if TYPE_CHECKING:
    from .codes import CodePair
    from .entropies import EntropyFamily

# Each command imports the submodules it calls, so that a process pays at
# start-up only for the command it runs.

__all__ = ["main", "parse_channel_spec", "parse_code_spec", "parse_grid"]

# the most points a start:stop:step grid may expand to
_GRID_CAP = 10**5


def parse_channel_spec(spec: str):
    """Channel from 'kind:param' or 'kind:@file.json'."""
    import numpy as np

    from . import channels as _ch

    if ":" not in spec:
        raise ValueError(f"channel spec {spec!r} needs the form kind:param")
    kind, arg = spec.split(":", 1)
    kind = kind.lower()
    named = {"bsc": _ch.make_bsc, "bec": _ch.make_bec, "bscdual": _ch.make_bsc_dual}
    if kind in named:
        return named[kind](float(arg))
    if kind not in ("classical", "pure", "channel"):  # before any file is opened
        raise ValueError(f"unknown channel kind {kind!r}")
    if not arg.startswith("@"):
        raise ValueError(f"{kind} channels need a @file argument")
    with open(arg[1:], "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if kind == "classical":
        try:
            table = np.asarray(_ch._json_list(doc, "transition"), dtype=float)
        except TypeError as exc:  # an entry that is neither a number nor a list
            raise ValueError(f"transition entries must be numbers ({exc})") from exc
        return _ch.make_classical(table)
    if kind == "pure":
        return _ch.make_pure(_ch._decode_matrix(_ch._json_list(doc, "vectors")))
    return _ch.channel_from_dict(doc)


def parse_code_spec(spec: str) -> CodePair:
    from . import codes as _codes

    if spec.startswith("@"):
        return _codes.load_code_pair(spec[1:])
    return _codes.preset_pair(spec)


def parse_grid(spec: str) -> list[float]:
    """'start:stop:step' (inclusive within half a step) or comma-separated values.
    A range past _GRID_CAP points is refused (Unsupported) before it is built."""
    if ":" in spec:
        start, stop, step = (float(v) for v in spec.split(":"))
        if step <= 0:
            raise ValueError("grid step must be positive")
        count = math.floor((stop - start) / step + 0.5) + 1
        if count > _GRID_CAP:
            raise Unsupported(f"grid {spec!r} has {count} points; the cap is {_GRID_CAP}")
        return [start + i * step for i in range(count)]
    return [float(v) for v in spec.split(",") if v]


def _probability_grid(spec: str) -> list[float]:
    """The points of parse_grid(spec) inside (0, 1); finite points outside it are
    skipped, and a point that is not finite is refused."""
    grid = parse_grid(spec)
    for p in grid:
        if not math.isfinite(p):
            raise ValueError(f"grid value {p!r} is not finite")
    return [p for p in grid if 0.0 < p < 1.0]


class _UsageError(Exception):
    """Bad command-line input; main() prints it, as it does Unsupported, on one line and exits 2."""


def _parse(fn, *values):
    """fn(*values) on command-line values, with bad input raised as a usage error."""
    try:
        return fn(*values)
    except (ValueError, OverflowError, OSError) as exc:
        raise _UsageError(exc) from exc


def _meta(args) -> dict:
    """{version, seed, params}, params being the command's own flags as parsed, less
    those that steer it rather than say what it computes."""
    steering = {"command", "config", "func", "seed", "out", "format"}
    params = {k: v for k, v in vars(args).items() if k not in steering}
    return {"version": SCHEMA_VERSION, "seed": args.seed, "params": params}


def _emit(args, payload: dict | str) -> None:
    """Write a JSON document, adding the run's meta, or finished text to --out or stdout."""
    if isinstance(payload, dict):
        text = json.dumps({"meta": _meta(args), **payload}, indent=2, sort_keys=True) + "\n"
    else:
        text = payload
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(args, header: str, rows: list[str]) -> str:
    """CSV lines under a comment line that carries the run's meta."""
    meta = _meta(args)
    params = " ".join(f"{k}={v!r}" for k, v in sorted(meta["params"].items()))
    lines = [f"# cqdual={meta['version']} seed={meta['seed']} {params}", header, *rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_dual(args) -> int:
    from . import channels as _ch

    w = _parse(parse_channel_spec, args.channel)
    wd = _ch.dual(w)
    doc = {"dual": _ch.channel_to_dict(wd)}
    if w.input_size == 2:
        doc["profile"] = _ch.invariant_profile(wd).to_dict()
    _emit(args, doc)
    return 0


def _families_from_flag(flag: str) -> list[EntropyFamily]:
    from . import channels as _ch
    from . import entropies as _en

    petz = [_en.petz_down(a) for a in _ch.PROFILE_ALPHAS]
    named = {"all": [_en.VON_NEUMANN, _en.MIN_ENTROPY, _en.MAX_ENTROPY, *petz],
             "von_neumann": [_en.VON_NEUMANN], "min": [_en.MIN_ENTROPY],
             "max": [_en.MAX_ENTROPY], "petz": petz}
    if flag in named:
        return named[flag]
    if not flag.startswith("petz:"):
        raise ValueError(f"unknown family {flag!r}")
    fam = _en.petz_down(float(flag[len("petz:"):]))
    try:
        fam.dual()
    except ValueError:
        raise ValueError(f"Petz order {fam.alpha:g} pairs with order {2.0 - fam.alpha:g}, "
                         "which is not computed") from None
    return [fam]


def _cmd_check_duality(args) -> int:
    from . import channels as _ch
    from . import entropies as _en

    w = _parse(parse_channel_spec, args.channel)
    families = _parse(_families_from_flag, args.family)
    wd = _ch.dual(w)
    reports = [_en.duality_check(w, fam, dual_channel=wd).to_dict() for fam in families]
    _emit(args, {"reports": reports})
    return 0


def _cmd_convolve(args) -> int:
    from . import channels as _ch
    from . import polar as _polar

    w = _parse(parse_channel_spec, args.channel)
    wp = _parse(parse_channel_spec, args.channel2)
    out = _polar.convolve(w, wp, args.kind)
    profile = _ch.invariant_profile(out).to_dict()
    _emit(args, {"channel": _ch.channel_to_dict(out), "profile": profile})
    return 0


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**128:  # the range the Philox key of polarize takes
        raise _UsageError(f"--seed {seed} is outside [0, 2**128)")


def _cmd_polarize(args) -> int:
    from . import polar as _polar

    _check_seed(args.seed)
    if not (math.isfinite(args.beta) and args.beta > 0):
        raise _UsageError(f"--beta {args.beta!r} is not a positive finite number")
    w = _parse(parse_channel_spec, args.channel)
    report = _polar.polarization_experiment(
        w, args.n, args.trials, beta=args.beta, seed=args.seed, complement=args.complement
    )
    if args.format == "csv":
        rows = [
            f"{t},{float(b)!r},{float(b_c)!r}"
            for t, (b, b_c) in enumerate(zip(report.final_b, report.final_b_complement))
        ]
        _emit(args, _csv_text(args, "trial,b_final,one_minus_b_final", rows))
    else:
        _emit(args, {"report": report.to_dict()})
    return 0


def _cmd_code_analyze(args) -> int:
    from . import channels as _ch
    from . import codedchannels as _cc

    cp = _parse(parse_code_spec, args.code)
    _parse(_ch.make_bsc, args.p)  # refuses a crossover outside [0, 1] before the analysis
    ana = _cc.coded_duality_check(args.p, cp)
    if args.format == "csv":
        rows = [f"{k},{float(v)!r}" for k, v in sorted(ana.quantities.items())]
        _emit(args, _csv_text(args, "quantity,value", rows))
    else:
        _emit(args, {"analysis": ana.to_dict()})
    return 0


def _cmd_exit_scan(args) -> int:
    from . import codedchannels as _cc

    cp = _parse(parse_code_spec, args.code)
    grid = _parse(_probability_grid, args.grid)
    scan = _cc.exit_scan(args.channel, cp, grid)
    if args.format == "json":
        _emit(args, {"scan": scan.to_dict()})
    else:
        rows = [",".join(repr(float(v)) for v in row) for row in scan.rows]
        text = _csv_text(args, "p,exit,exit_dual,sum", rows)
        if scan.transition is not None:
            tail = ("transition", "capacity_at_transition", "capacity_residual")
            text += "# " + " ".join(f"{k}={getattr(scan, k)!r}" for k in tail) + "\n"
        _emit(args, text)
    return 0


def _blocklength(v: float) -> int:
    if int(v) != v:  # int() refuses inf and nan itself
        raise ValueError(f"blocklength {v!r} is not an integer")
    return int(v)


def _cmd_fbl(args) -> int:
    from . import fbl as _fbl

    ns = _parse(lambda spec: [_blocklength(v) for v in parse_grid(spec)], args.n_grid)
    rows = [c.csv_row() for c in _fbl.compute_curves(ns, args.p, args.eps)]
    _emit(args, _csv_text(args, _fbl.CSV_HEADER, rows))
    return 0


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def _cmd_selftest(args) -> int:
    from .checks import ROWS

    _check_seed(args.seed)
    worst_name, worst_ratio = "", 0.0
    failures = 0
    for row in ROWS:
        for name, gap in row.gaps(row.fast if args.fast else row.full, args.seed):
            ok = gap <= row.tol
            ratio = gap / row.tol if row.tol > 0 else (0.0 if ok else float("inf"))
            if ratio > worst_ratio:
                worst_name, worst_ratio = name, ratio
            if not ok:
                failures += 1
            print(f"{'PASS' if ok else 'FAIL'} {name} gap={gap:.3e} tol={row.tol:.1e}")
    if failures:
        print(f"selftest: {failures} failure(s); worst offender: {worst_name}")
        return 1
    print(f"selftest: all checks passed (closest margin: {worst_name})")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="cqdual",
        description="Construct duals of classical-input quantum-output channels "
        "and verify entropy, convolution, code and blocklength dualities.",
    )
    parser.add_argument("--version", action="version", version=f"cqdual {SCHEMA_VERSION}")
    parser.add_argument("--config", help="key=value file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=None):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output path (default: stdout)")
        if fmt:  # only the commands that can write both JSON and CSV take --format
            p.add_argument("--format", choices=("json", "csv"), default=fmt)

    p = sub.add_parser("dual", help="construct the dual channel")
    p.add_argument("--channel", required=True)
    common(p)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("check-duality", help="entropy-sum reports for a channel")
    p.add_argument("--channel", required=True)
    p.add_argument("--family", default="all")
    common(p)
    p.set_defaults(func=_cmd_check_duality)

    p = sub.add_parser("convolve", help="convolve two binary-input channels")
    p.add_argument("--channel", required=True)
    p.add_argument("--channel2", required=True)
    p.add_argument("--kind", choices=("variable", "check"), default="variable")
    common(p)
    p.set_defaults(func=_cmd_convolve)

    p = sub.add_parser("polarize", help="random-convolution polarization experiment")
    p.add_argument("--channel", required=True)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--beta", type=float, default=0.4)
    p.add_argument("--complement", action="store_true")
    common(p, "json")
    p.set_defaults(func=_cmd_polarize)

    p = sub.add_parser("code-analyze", help="coded entropy sums for a BSC and a code")
    p.add_argument("--code", required=True, help="preset name or @file")
    p.add_argument("--p", type=float, required=True)
    common(p, "json")
    p.set_defaults(func=_cmd_code_analyze)

    p = sub.add_parser("exit-scan", help="EXIT curve over a parameter grid")
    p.add_argument("--channel", choices=("bec", "bsc"), required=True)
    p.add_argument("--code", required=True)
    p.add_argument("--grid", default="0.05:0.95:0.05")
    common(p, "csv")
    p.set_defaults(func=_cmd_exit_scan)

    p = sub.add_parser("fbl", help="finite-blocklength bound curves for the BSC")
    p.add_argument("--n-grid", default="100:500:100")
    p.add_argument("--p", type=float, default=0.11)
    p.add_argument("--eps", type=float, default=1e-3)
    common(p)
    p.set_defaults(func=_cmd_fbl)

    p = sub.add_parser("selftest", help="run the invariant suite; nonzero exit on failure")
    p.add_argument("--fast", action="store_true")
    p.add_argument("--seed", type=int, default=20240811)
    p.set_defaults(func=_cmd_selftest)
    return parser, sub.choices


def _apply_config(commands: dict[str, argparse.ArgumentParser], argv: list[str]) -> list[str]:
    """Splice the key=value lines of a --config file into argv as flags.

    The flags go right after the command name, so explicit flags, which come
    later, win, and argparse converts and validates them like typed ones. A
    key that only other commands define is skipped, so one file can serve
    several commands; a key that no command defines is refused.
    """
    if "--config" not in argv[:-1]:  # a trailing --config is argparse's to reject
        return argv
    idx = argv.index("--config")
    path = argv[idx + 1]
    argv = argv[:idx] + argv[idx + 2 :]
    pos = next((i for i, a in enumerate(argv) if a in commands), None)
    if pos is None:
        return argv
    command = commands[argv[pos]]
    dests = {a.dest for a in command._actions}
    known = {a.dest for p in commands.values() for a in p._actions}
    flags = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _UsageError(exc) from exc
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#") or "=" not in line:
            continue
        key, val = (part.strip() for part in line.split("=", 1))
        dest = key.replace("-", "_")
        if dest not in known:
            raise _UsageError(f"config key {key!r} is not an option of any command")
        if dest not in dests:
            continue
        opt = "--" + key.replace("_", "-")
        if command.get_default(dest) is False:
            # a store_true flag: present or absent
            if val.lower() not in ("true", "false"):
                raise _UsageError(f"config {key}={val!r}: expected true or false")
            if val.lower() == "true":
                flags.append(opt)
        else:
            flags.append(f"{opt}={val}")
    return argv[: pos + 1] + flags + argv[pos + 1 :]


def _join_dashed_values(argv: list[str]) -> list[str]:
    """Write `--flag -0.1,0.3` as `--flag=-0.1,0.3`.

    argparse reads a token that starts with '-' as an option unless it is one
    plain negative number, so a grid or range that starts below zero would
    leave its flag without a value. A token of '-' and a digit or '.' is a
    value here, since no option is spelled that way.
    """
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (prev.startswith("--") and "=" not in prev and len(tok) > 1 and tok[0] == "-"
                and (tok[1].isdigit() or tok[1] == ".")):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(_join_dashed_values(_apply_config(commands, argv)))
        return args.func(args)
    except (_UsageError, Unsupported) as exc:
        print(f"cqdual: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
