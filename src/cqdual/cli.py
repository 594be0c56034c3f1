"""Command-line driver: duals, duality checks, experiments, and the self-test.

Every command writes CSV or JSON with an embedded {version, seed, params}
header so identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

import numpy as np

from .config import SCHEMA_VERSION
from . import channels as _ch
from . import codedchannels as _cc
from . import codes as _codes
from . import corpus as _corpus
from . import entropies as _en
from . import fbl as _fbl
from . import polar as _polar

__all__ = ["main", "parse_channel_spec", "parse_code_spec", "parse_grid"]


def parse_channel_spec(spec: str):
    """Channel from 'kind:param' or 'kind:@file.json'."""
    if ":" not in spec:
        raise ValueError(f"channel spec {spec!r} needs the form kind:param")
    kind, arg = spec.split(":", 1)
    kind = kind.lower()
    if kind in ("bsc", "bec", "bscdual"):
        return _ch.make_named(kind, float(arg))
    if not arg.startswith("@"):
        raise ValueError(f"{kind} channels need a @file argument")
    with open(arg[1:], "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if kind == "classical":
        return _ch.make_classical(np.asarray(doc["transition"], dtype=float))
    if kind == "pure":
        vecs = [
            np.array([complex(re, im) for re, im in v]) for v in doc["vectors"]
        ]
        return _ch.make_pure(vecs)
    if kind == "channel":
        return _ch.channel_from_dict(doc)
    raise ValueError(f"unknown channel kind {kind!r}")


def parse_code_spec(spec: str) -> _codes.CodePair:
    if spec.startswith("@"):
        return _codes.load_code_pair(spec[1:])
    return _codes.preset_pair(spec)


def parse_grid(spec: str) -> list[float]:
    """'start:stop:step' (inclusive within half a step) or comma-separated values."""
    if ":" in spec:
        start, stop, step = (float(v) for v in spec.split(":"))
        if step <= 0:
            raise ValueError("grid step must be positive")
        count = int(np.floor((stop - start) / step + 0.5)) + 1
        return [start + i * step for i in range(count)]
    return [float(v) for v in spec.split(",") if v]


class _UsageError(Exception):
    """Bad command-line input; main() prints it on one line and exits 2."""


def _parse(fn, spec: str):
    """fn(spec) on a command-line value, with bad input raised as a usage error."""
    try:
        return fn(spec)
    except (ValueError, OSError) as exc:
        raise _UsageError(exc) from exc


def _meta(args, **params) -> dict:
    return {"version": SCHEMA_VERSION, "seed": getattr(args, "seed", 0), "params": params}


def _emit(args, payload: dict | str) -> None:
    if isinstance(payload, dict):
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = payload
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(meta: dict, header: str, rows: list[str]) -> str:
    buf = io.StringIO()
    params = " ".join(f"{k}={v!r}" for k, v in sorted(meta["params"].items()))
    buf.write(f"# cqdual={meta['version']} seed={meta['seed']} {params}\n")
    buf.write(header + "\n")
    for row in rows:
        buf.write(row + "\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_dual(args) -> int:
    w = _parse(parse_channel_spec, args.channel)
    wd = _ch.dual(w)
    doc = {
        "meta": _meta(args, channel=args.channel),
        "dual": _ch.channel_to_dict(wd),
    }
    if w.input_size == 2:
        doc["profile"] = _ch.invariant_profile(wd, seed=args.seed).to_dict()
    _emit(args, doc)
    return 0


_FAMILY_CHOICES = ("all", "von_neumann", "min", "max", "petz")


def _families_from_flag(flag: str) -> list[_en.EntropyFamily]:
    if flag == "all":
        fams = [_en.VON_NEUMANN, _en.MIN_ENTROPY, _en.MAX_ENTROPY]
        fams.extend(_en.petz_down(a) for a in _ch.PROFILE_ALPHAS)
        return fams
    if flag == "von_neumann":
        return [_en.VON_NEUMANN]
    if flag == "min":
        return [_en.MIN_ENTROPY]
    if flag == "max":
        return [_en.MAX_ENTROPY]
    if flag.startswith("petz"):
        if ":" in flag:
            return [_en.petz_down(float(flag.split(":", 1)[1]))]
        return [_en.petz_down(a) for a in _ch.PROFILE_ALPHAS]
    raise ValueError(f"unknown family {flag!r}")


def _cmd_check_duality(args) -> int:
    w = _parse(parse_channel_spec, args.channel)
    wd = _ch.dual(w)
    reports = [
        _en.duality_check(w, fam, seed=args.seed, dual_channel=wd).to_dict()
        for fam in _families_from_flag(args.family)
    ]
    _emit(args, {"meta": _meta(args, channel=args.channel, family=args.family), "reports": reports})
    return 0


def _cmd_convolve(args) -> int:
    w = _parse(parse_channel_spec, args.channel)
    wp = _parse(parse_channel_spec, args.channel2)
    out = _polar.convolve(w, wp, args.kind)
    doc = {
        "meta": _meta(args, channel=args.channel, channel2=args.channel2, kind=args.kind),
        "channel": _ch.channel_to_dict(out),
        "profile": _ch.invariant_profile(out, seed=args.seed).to_dict(),
    }
    _emit(args, doc)
    return 0


def _cmd_polarize(args) -> int:
    w = _parse(parse_channel_spec, args.channel)
    if args.n > _polar.GENERIC_LEVEL_CAP and _polar._erasure_probability(w) is None:
        raise _UsageError(
            f"generic channels support n <= {_polar.GENERIC_LEVEL_CAP}; "
            "only erasure channels have a deep scalar path"
        )
    report = _polar.polarization_experiment(
        w, args.n, args.trials, beta=args.beta, seed=args.seed, complement=args.complement
    )
    meta = _meta(
        args,
        channel=args.channel,
        n=args.n,
        trials=args.trials,
        beta=args.beta,
        complement=args.complement,
    )
    if args.format == "csv":
        rows = [
            f"{r['trial']},{r['b_final']!r},{r['one_minus_b_final']!r}"
            for r in _polar.experiment_to_csv_rows(report)
        ]
        _emit(args, _csv_text(meta, "trial,b_final,one_minus_b_final", rows))
    else:
        _emit(args, {"meta": meta, "report": report.to_dict()})
    return 0


def _cmd_code_analyze(args) -> int:
    cp = _parse(parse_code_spec, args.code)
    ana = _cc.coded_duality_check(args.p, cp, seed=args.seed)
    meta = _meta(args, code=args.code, p=args.p)
    if args.format == "csv":
        rows = [f"{k},{float(v)!r}" for k, v in sorted(ana.quantities.items())]
        _emit(args, _csv_text(meta, "quantity,value", rows))
    else:
        _emit(args, {"meta": meta, "analysis": ana.to_dict()})
    return 0


def _cmd_exit_scan(args) -> int:
    cp = _parse(parse_code_spec, args.code)
    grid = _parse(parse_grid, args.grid)
    grid = [p for p in grid if 0.0 < p < 1.0]
    scan = _cc.exit_scan(args.channel, cp, grid, seed=args.seed)
    meta = _meta(args, channel=args.channel, code=args.code, grid=args.grid)
    if args.format == "json":
        _emit(args, {"meta": meta, "scan": scan.to_dict()})
    else:
        rows = [
            f"{p!r},{float(lhs)!r},{float(rhs)!r},{float(tot)!r}"
            for p, lhs, rhs, tot in scan.rows
        ]
        text = _csv_text(meta, "p,exit,exit_dual,sum", rows)
        if scan.transition is not None:
            text += (
                f"# transition={scan.transition!r} "
                f"capacity_at_transition={scan.capacity_at_transition!r} "
                f"capacity_residual={scan.capacity_residual!r}\n"
            )
        _emit(args, text)
    return 0


def _cmd_fbl(args) -> int:
    ns = [int(v) for v in _parse(parse_grid, args.n_grid)]
    text = _fbl.emit_curves(ns, args.p, args.eps, seed=args.seed)
    _emit(args, text)
    return 0


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def _selftest_checks(fast: bool, seed: int):
    count = 8 if fast else 20
    chans = _corpus.binary_channel_corpus(seed, count)
    for i, w in enumerate(chans):
        rep = _en.duality_check(w, _en.VON_NEUMANN, seed=seed)
        yield f"entropy_sum_vn[{i}]", rep.gap, 1e-6
        yield f"state_disjointness[{i}]", rep.disjointness_gap, 1e-9
    for i, w in enumerate(chans[: count // 2]):
        for fam in (_en.petz_down(0.5), _en.petz_down(1.5)):
            yield f"entropy_sum_{fam.label}[{i}]", _en.duality_check(w, fam, seed=seed).gap, 1e-6
        yield f"entropy_sum_minmax[{i}]", _en.duality_check(w, _en.MIN_ENTROPY, seed=seed).gap, 1e-4
        yield f"entropy_sum_maxmin[{i}]", _en.duality_check(w, _en.MAX_ENTROPY, seed=seed).gap, 1e-4
        st, std = _en.from_channel(w), _en.from_channel(_ch.dual(w))
        yield f"dispersion_match[{i}]", abs(_en.dispersion(st)[1] - _en.dispersion(std)[1]), 1e-5
    for p in (0.05, 0.11, 0.25, 0.45):
        yield f"capacity_sum_bsc({p})", _en.capacity_duality_check(_ch.make_bsc(p)).gap, 1e-8
    rng = np.random.default_rng(seed)
    pairs = 3 if fast else 6
    for i in range(pairs):
        w = _corpus.random_channel(rng, 2)
        wp = _corpus.random_symmetric_channel(rng, 2)
        rep = _polar.convolution_duality_check(w, wp, seed=seed)
        yield f"convolution_duality[{i}]", rep.max_gap, 1e-6
    yield "trajectory_duality_bsc", _polar.trajectory_duality_gap(_ch.make_bsc(0.11), [0, 1], seed=seed), 1e-5
    pol = _polar.polarization_experiment(_ch.make_bec(0.3), 16, 10_000, beta=0.4, seed=seed)
    yield "polarization_good_fraction", abs(pol.frac_b_small - 0.7), 0.05
    dualpol = _polar.polarization_experiment(_ch.make_bec(0.7), 16, 10_000, beta=0.4, seed=seed, complement=True)
    yield "polarization_dual_fraction", abs(dualpol.frac_b_small - 0.3), 0.05
    ana = _cc.coded_duality_check(0.11, _codes.hamming74_pair(), seed=seed)
    yield "coded_sum_vn", abs(ana.quantities["vn_sum"] - 4.0), 1e-6
    yield "coded_sum_minmax", abs(ana.quantities["minmax_sum"] - 4.0), 1e-5
    yield "coded_sum_vn_2", abs(ana.quantities["vn_sum_2"] - 3.0), 1e-6
    yield "coded_srm_cross", ana.quantities["srm_cross_gap"], 1e-5
    yield "exit_sum_bec", _cc.exit_duality_check(0.4, _codes.hamming74_pair(), channel_family="bec").gap, 1e-10
    yield "exit_sum_bsc", _cc.exit_duality_check(0.11, _codes.repetition_pair(3), channel_family="bsc").gap, 1e-6
    src = _en.from_channel(_ch.make_bsc(0.11))
    nmax = 3 if fast else 4
    for n in range(2, nmax + 1):
        tables = _cc.compression_extraction_tables(src, n, seed=seed)
        for eps in (0.2, 0.3, 0.5):
            _, _, total = _cc.compression_extraction_bruteforce(src, n, eps, tables)
            yield f"blocklength_sum_n{n}_eps{eps}", abs(total - n), 0.5
    gap = 0.0
    for i in range(5 if fast else 20):
        py = rng.dirichlet([1.0, 1.0])
        sig = [_corpus.random_density(rng, 2) for _ in range(2)]
        gap = max(gap, _cc.structured_state_gap(py, sig, seed=seed))
    yield "structured_state_identity", gap, 1e-7
    curves = _fbl.compute_curves([100, 300, 500], 0.11, 1e-3)
    worst = max(c.union_achievability - c.metaconverse for c in curves)
    yield "fbl_ordering", max(0.0, worst), 0.0
    yield "fbl_gap_500", max(0.0, curves[-1].metaconverse - curves[-1].union_achievability - 8.0), 0.0
    import itertools

    outs = list(itertools.product([0, 1], repeat=10))
    pvec = np.array([0.11 ** sum(o) * 0.89 ** (10 - sum(o)) for o in outs])
    qvec = np.full(len(outs), 2.0**-10)
    b_exh = _en.np_beta(pvec, qvec, 0.1)
    b_kern = 2.0 ** _fbl.log2_beta_bsc(10, 0.11, 0.1)
    yield "beta_kernel_vs_enumeration", abs(b_exh - b_kern) / b_exh, 1e-10


def _cmd_selftest(args) -> int:
    worst_name, worst_ratio = "", 0.0
    failures = 0
    for name, gap, tol in _selftest_checks(args.fast, args.seed):
        ok = gap <= tol
        ratio = gap / tol if tol > 0 else (0.0 if ok else float("inf"))
        if ratio > worst_ratio:
            worst_name, worst_ratio = name, ratio
        if not ok:
            failures += 1
        print(f"{'PASS' if ok else 'FAIL'} {name} gap={gap:.3e} tol={tol:.1e}")
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

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

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
    p.add_argument("--kind", choices=(_polar.VARIABLE, _polar.CHECK), default=_polar.VARIABLE)
    common(p)
    p.set_defaults(func=_cmd_convolve)

    p = sub.add_parser("polarize", help="random-convolution polarization experiment")
    p.add_argument("--channel", required=True)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--beta", type=float, default=0.4)
    p.add_argument("--complement", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_polarize)

    p = sub.add_parser("code-analyze", help="coded entropy sums for a BSC and a code")
    p.add_argument("--code", required=True, help="preset name or @file")
    p.add_argument("--p", type=float, required=True)
    common(p)
    p.set_defaults(func=_cmd_code_analyze)

    p = sub.add_parser("exit-scan", help="EXIT curve over a parameter grid")
    p.add_argument("--channel", choices=("bec", "bsc"), required=True)
    p.add_argument("--code", required=True)
    p.add_argument("--grid", default="0.05:0.95:0.05")
    common(p)
    p.set_defaults(func=_cmd_exit_scan)
    p.set_defaults(format="csv")

    p = sub.add_parser("fbl", help="finite-blocklength bound curves for the BSC")
    p.add_argument("--n-grid", default="100:500:100")
    p.add_argument("--p", type=float, default=0.11)
    p.add_argument("--eps", type=float, default=1e-3)
    common(p)
    p.set_defaults(func=_cmd_fbl, format="csv")

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


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(_apply_config(commands, argv))
        return args.func(args)
    except _UsageError as exc:
        print(f"cqdual: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
