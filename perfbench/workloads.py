"""The benchmark's workloads: inputs made from a seed, and the checks run on them.

A workload is built once per process; that is the set-up the benchmark times.
Every pass then runs the same checks on the same inputs. A check is one unit
of work whose result is scored against the acceptance tolerances of
tests/test_acceptance.py. The tolerances are copied here so that a later
change to the tests cannot silently change what the benchmark measures.

Each check returns a list of (label, gap, tolerance) triples and fails when
any gap exceeds its tolerance or when it raises.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

ACCEPTANCE_SEED = 20240811

# criteria 1, 2, 4, 11
TOL_CORE = 1e-6
TOL_MINMAX = 1e-4
TOL_DISJOINT = 1e-9
TOL_DISPERSION = 1e-5
# criterion 5
TOL_CONVOLUTION = 1e-6
TOL_TRAJECTORY = 1e-5
TOL_POLAR_FRACTION = 0.05
# criterion 7
TOL_CODED_VN = 1e-6
TOL_CODED_MINMAX = 1e-5
TOL_CODED_ORACLE = 1e-8
# criterion 8: m + l = n is an integer identity; any deviation is >= 1
TOL_FRONTIER = 0.5
# criterion 9
TOL_EXIT_BEC = 1e-10
TOL_EXIT_BSC = 1e-6
# criterion 10
TOL_FBL_GAP_BITS = 8.0
TOL_BETA_KERNEL = 1e-12

Gaps = list  # list[tuple[str, float, float]]


@dataclass(frozen=True)
class Check:
    name: str
    run: Callable[[], Gaps]


class Workload:
    """Inputs of one workload and the checks of one pass over them.

    wall_s adds up each check's fastest time over a run's passes. Where
    `typical` is set it is instead the median check's fastest time (see
    IdentityCorpus). pass_estimate_s is one pass's time on the quiet tuning
    host. A run makes --seconds / pass_estimate_s passes, rounded up, so the
    number of passes, and with it the fastest of them, depends on --seconds
    alone and not on how busy the host is.

    long_checks run only in traced runs. On a shared host a check that takes
    seconds never runs whole in a quiet stretch, so its fastest time follows
    the host's load. These checks are the heavy regimes: LAPACK at dim 196,
    the n = 3 blocklength table and Hamming's dim-128 ascents. Their counts
    and self times show in the per-layer metrics.
    """

    typical = False
    pass_estimate_s: float
    checks: list[Check]
    long_checks: list[Check] = []


# ---------------------------------------------------------------------------
# identity_corpus: criteria 1, 2, 4 and 11 on the seeded binary-channel corpus
# ---------------------------------------------------------------------------

# corpus.binary_channel_corpus cycles dims (2, 3, 4) and four styles, so 24
# consecutive channels hold each (dim, style) pair twice.
CORPUS_SIZE = 24


class IdentityCorpus(Workload):
    """One check per channel: every identity of criteria 1, 2, 4 and 11.

    About 2% of channels make an ascent crawl for thousands of iterations
    and cost ten times the rest; whether a seed's corpus holds one such
    channel or none would swing a sum over 24 channels by 30%. wall_s is
    therefore the median channel's time to a verdict; the slow tail shows in
    check.p95_ms and in the ascent's iteration and restart counts.
    """

    typical = True
    pass_estimate_s = 2.0

    def __init__(self, seed: int):
        from cqdual import corpus

        channels = corpus.binary_channel_corpus(seed, CORPUS_SIZE)
        self.checks = [Check(f"channel[{j}]", _channel_check(w)) for j, w in enumerate(channels)]


def _channel_check(w) -> Callable[[], Gaps]:
    from cqdual import channels as ch
    from cqdual import entropies as en

    def run():
        wd = ch.dual(w)
        rep = en.duality_check(w, en.VON_NEUMANN, dual_channel=wd)
        out = [("vn_sum", rep.gap, TOL_CORE), ("disjointness", rep.disjointness_gap, TOL_DISJOINT)]
        for fam, tol in ((en.petz_down(0.5), TOL_CORE), (en.petz_down(1.5), TOL_CORE),
                         (en.MIN_ENTROPY, TOL_MINMAX), (en.MAX_ENTROPY, TOL_MINMAX)):
            rep = en.duality_check(w, fam, dual_channel=wd, check_disjointness=False)
            out.append((f"{fam.label}_sum", rep.gap, tol))
        st, std = en.from_channel(w), en.from_channel(wd)
        p_w, q_wd = en.guessing_prob(st).value, en.decoupling_q(std).value
        q_w, p_wd = en.decoupling_q(st).value, en.guessing_prob(std).value
        out += [("guess_vs_dual_decouple", abs(p_w - q_wd), TOL_MINMAX),
                ("decouple_vs_dual_guess", abs(q_w - p_wd), TOL_MINMAX),
                ("dispersion", abs(en.dispersion(st)[1] - en.dispersion(std)[1]), TOL_DISPERSION)]
        return out

    return run


# ---------------------------------------------------------------------------
# polar_depth: criteria 5 and 6
# ---------------------------------------------------------------------------

POLAR_PAIRS = 4
POLAR_BSC = 0.11
POLAR_TRIALS = 10_000


def criterion5_pool(count: int) -> list:
    """Criterion 5's symmetric pool at the acceptance seed."""
    from cqdual import channels as ch
    from cqdual import corpus

    rng = np.random.default_rng(ACCEPTANCE_SEED)
    pool = []
    for i in range(count):
        style = i % 4
        if style == 0:
            pool.append(ch.make_bsc(float(rng.uniform(0.02, 0.5))))
        elif style == 1:
            pool.append(ch.make_bec(float(rng.uniform(0.05, 0.95))))
        elif style == 2:
            pool.append(ch.make_bsc_dual(float(rng.uniform(0.02, 0.5))))
        else:
            pool.append(corpus.random_symmetric_channel(rng, int(rng.integers(2, 4))))
    return pool


class PolarDepth(Workload):
    """Criterion 5's first four pairs and dual-BEC trajectory, plus seeded cases.

    Convolution and trajectory cost swings with the channel parameters: one
    pair with a BSC at p = 0.5 takes 7.8 s where its neighbours take 0.15 s,
    BSC [1, 1] takes 0.4 s at p = 0.08 and 11 s at p = 0.435, and one dim-2
    random symmetric channel at [1, 0] takes 0.7 s where another takes 1.05 s.
    Drawn per seed, these would swamp any comparison between runs, so the
    pairs, the random symmetric channel and the BEC are criterion 5's own and
    the BSC trajectories sit at the README's 0.11. The seed draws the
    polarization bits.

    Criterion 5's BEC (erasure 0.27738...) is also the case on which eigh
    fails to converge at one BLAS thread; erasure 0.3 would hide that defect.
    Its trajectory takes 9-12 s, so it is a long check.
    """

    pass_estimate_s = 1.7

    def __init__(self, seed: int):
        from cqdual import channels as ch
        from cqdual import polar

        pool = criterion5_pool(2 * POLAR_PAIRS)

        def pair(a, b):
            return lambda: [("max_gap", polar.convolution_duality_check(a, b).max_gap, TOL_CONVOLUTION)]

        def traj(w, bits):
            return lambda: [("gap", polar.trajectory_duality_gap(w, bits), TOL_TRAJECTORY)]

        def polarization():
            rep = polar.polarization_experiment(ch.make_bec(0.3), 16, POLAR_TRIALS, beta=0.4, seed=seed)
            dual_rep = polar.polarization_experiment(
                ch.make_bec(0.7), 16, POLAR_TRIALS, beta=0.4, seed=seed, complement=True
            )
            return [("good_fraction", abs(rep.frac_b_small - 0.70), TOL_POLAR_FRACTION),
                    ("dual_fraction", abs(dual_rep.frac_b_small - 0.30), TOL_POLAR_FRACTION)]

        self.checks = [Check(f"convolution_duality[{k}]", pair(pool[2 * k], pool[2 * k + 1]))
                       for k in range(POLAR_PAIRS)]
        self.checks += [
            Check("trajectory_bsc[1,1]", traj(ch.make_bsc(POLAR_BSC), [1, 1])),
            Check("trajectory_bscdual[1,0]", traj(ch.make_bsc_dual(POLAR_BSC), [1, 0])),
            Check("trajectory_random_symmetric[1,0]", traj(pool[3], [1, 0])),
            Check("polarization_bec16", polarization),
        ]
        # bits [1, 0] on the BEC take the dual side through [0, 1], up to
        # dim 248 with rank-196 outputs
        self.long_checks = [Check("trajectory_bec[1,0]", traj(pool[1], [1, 0]))]


# ---------------------------------------------------------------------------
# coded_blocklength: criteria 7, 8 (n <= 3), 9 and 10
# ---------------------------------------------------------------------------

CODED_P = 0.11
FRONTIER_EPS = (0.2, 0.3, 0.5)


class CodedBlocklength(Workload):
    """Criteria 7-10 on BSC(0.11); the seed drives the ascents' random restarts.

    The coded sums run on rep31 and parity32, about 0.1 s each. The n = 3
    blocklength table (4 s) and Hamming's coded sums (2 s, dim-128 ascents)
    are long checks.
    """

    pass_estimate_s = 0.8

    def __init__(self, seed: int):
        from cqdual import channels as ch
        from cqdual import codedchannels as cc
        from cqdual import codes
        from cqdual import entropies as en
        from cqdual import fbl

        source = en.from_channel(ch.make_bsc(CODED_P))
        hamming = codes.hamming74_pair()
        small = [codes.preset_pair(name) for name in ("rep31", "parity32")]
        exit_codes = [codes.preset_pair(name) for name in ("rep31", "hamming74")]

        def frontier(n):
            def run():
                tables = cc.compression_extraction_tables(source, n, seed=seed)
                out = []
                for eps in FRONTIER_EPS:
                    _, _, total = cc.compression_extraction_bruteforce(source, n, eps, tables)
                    out.append((f"eps{eps}", float(abs(total - n)), TOL_FRONTIER))
                return out

            return run

        def coded(cp):
            def run():
                q = cc.coded_duality_check(CODED_P, cp, seed=seed).quantities
                k, m = cp.k, cp.n - cp.k
                return [
                    ("vn_sum", abs(q["vn_sum"] - k), TOL_CODED_VN),
                    ("minmax_sum", abs(q["minmax_sum"] - k), TOL_CODED_MINMAX),
                    ("maxmin_sum", abs(q["maxmin_sum"] - k), TOL_CODED_MINMAX),
                    ("vn_sum_2", abs(q["vn_sum_2"] - m), TOL_CODED_VN),
                    ("minmax_sum_2", abs(q["minmax_sum_2"] - m), TOL_CODED_MINMAX),
                    ("srm_cross", max(q["srm_cross_gap"], q["srm_cross_gap_2"]), TOL_CODED_MINMAX),
                ]

            return run

        def oracle():
            dual_cp = hamming.dual()
            e = cc.dual_coded_ensemble(CODED_P, dual_cp, "deterministic")
            cols = cc.dual_coded_states_dense(CODED_P, dual_cp.codewords())
            dense = en.CqState(
                np.full(8, 1 / 8),
                tuple(np.outer(cols[:, k], cols[:, k].conj()) for k in range(8)),
            )
            gap = abs(cc.ensemble_cond_entropy(e, en.VON_NEUMANN)
                      - en.cond_entropy(dense, en.VON_NEUMANN))
            return [("dense_oracle", gap, TOL_CODED_ORACLE)]

        def exit_sums():
            out = []
            for p in np.arange(0.1, 0.91, 0.1):
                gap = cc.exit_duality_check(float(p), hamming, channel_family="bec").gap
                out.append((f"bec{p:.1f}", gap, TOL_EXIT_BEC))
            for cp in exit_codes:
                gap = cc.exit_duality_check(CODED_P, cp, channel_family="bsc").gap
                out.append((f"bsc_{cp.name}", gap, TOL_EXIT_BSC))
            return out

        def bounds():
            curves = fbl.compute_curves(range(100, 2001, 100), CODED_P, 1e-3)
            disorder = sum(
                (c.metaconverse < c.union_achievability) + (c.extractor_upper < c.extractor_lower)
                for c in curves
            )
            at500 = next(c for c in curves if c.n == 500)
            gap = at500.metaconverse - at500.union_achievability
            out = [("orderings_violated", float(disorder), 0.5),
                   ("gap_500_outside_0_to_8", float(not 0.0 <= gap <= TOL_FBL_GAP_BITS), 0.5)]
            for n in (6, 10, 12):
                outs = itertools.product((0, 1), repeat=n)
                pv = np.array([CODED_P ** sum(o) * (1 - CODED_P) ** (n - sum(o)) for o in outs])
                exact = en.np_beta(pv, np.full(len(pv), 2.0**-n), 1e-1)
                kern = 2.0 ** fbl.log2_beta_bsc(n, CODED_P, 1e-1)
                out.append((f"beta_kernel_n{n}", abs(exact - kern) / exact, TOL_BETA_KERNEL))
            return out

        self.checks = [Check("blocklength_sum_n2", frontier(2))]
        self.checks += [Check(f"coded_sums_{cp.name}", coded(cp)) for cp in small]
        self.checks += [
            Check("coded_dense_oracle", oracle),
            Check("exit_sums", exit_sums),
            Check("fbl_bounds", bounds),
        ]
        self.long_checks = [Check("blocklength_sum_n3", frontier(3)),
                            Check("coded_sums_hamming74", coded(hamming))]


# ---------------------------------------------------------------------------
# cli_readme: the README's command lines, each in a fresh interpreter
# ---------------------------------------------------------------------------

# The README's command block, minus the full `selftest` (77 s, beyond one
# run's budget). --seed takes the workload seed on every command that has it.
README_COMMANDS = [
    ["--version"],
    ["check-duality", "--channel", "bsc:0.11", "--family", "all"],
    ["dual", "--channel", "bec:0.3"],
    ["convolve", "--channel", "bsc:0.11", "--channel2", "bsc:0.3", "--kind", "check"],
    ["polarize", "--channel", "bec:0.3", "--n", "16", "--trials", "10000", "--format", "csv"],
    ["code-analyze", "--code", "hamming74", "--p", "0.11"],
    ["exit-scan", "--channel", "bec", "--code", "hamming74", "--grid", "0.05:0.95:0.05"],
    ["fbl", "--n-grid", "100:500:100", "--p", "0.11", "--eps", "1e-3"],
]


def _csv_rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _verify_output(argv: list[str], text: str) -> Gaps:
    """Score a command's stdout against the identities it reports."""
    from cqdual.config import SCHEMA_VERSION

    cmd = argv[0]
    if cmd == "--version":
        return [("version", float(text != f"cqdual {SCHEMA_VERSION}\n"), 0.5)]
    if cmd == "check-duality":
        out = []
        for rep in json.loads(text)["reports"]:
            tol = TOL_MINMAX if rep["family"] in ("min", "max") else TOL_CORE
            out.append((rep["family"], rep["gap"], tol))
            out.append((rep["family"] + "_disjointness", rep["disjointness_gap"], TOL_DISJOINT))
        return out
    if cmd == "code-analyze":
        q = json.loads(text)["analysis"]["quantities"]
        return [
            ("vn_sum", abs(q["vn_sum"] - 4.0), TOL_CODED_VN),
            ("minmax_sum", abs(q["minmax_sum"] - 4.0), TOL_CODED_MINMAX),
            ("vn_sum_2", abs(q["vn_sum_2"] - 3.0), TOL_CODED_VN),
            ("srm_cross", max(q["srm_cross_gap"], q["srm_cross_gap_2"]), TOL_CODED_MINMAX),
        ]
    if cmd == "exit-scan":
        return [(f"sum@{r[0]}", abs(float(r[3]) - 1.0), TOL_EXIT_BEC) for r in _csv_rows(text)]
    if cmd == "fbl":
        bad = sum(float(r[3]) < float(r[4]) or float(r[5]) < float(r[6]) for r in _csv_rows(text))
        return [("orderings_violated", float(bad), 0.5)]
    if cmd == "polarize":
        return [("rows", float(len(_csv_rows(text)) != 10_000), 0.5)]
    key = {"dual": "dual", "convolve": "channel"}[cmd]
    return [("has_" + key, float(key not in json.loads(text)), 0.5)]


class CliReadme(Workload):
    """Runs each command as `python -m cqdual.cli` in a fresh interpreter.

    The traced run calls cli.main in-process instead, because spans are
    recorded in the benchmark's own process. Every command's stdout is hashed;
    a hash that differs from the first pass's counts as a failed check.
    """

    pass_estimate_s = 4.8

    def __init__(self, seed: int, in_process: bool):
        import cqdual.cli  # the import cost every invocation pays

        self.in_process = in_process
        self.first_hash: dict[str, str] = {}
        self.checks = [
            Check("cqdual " + " ".join(argv), self._command(argv))
            for argv in (a if a[0] == "--version" else a + ["--seed", str(seed % 2**31)]
                         for a in README_COMMANDS)
        ]

    def _run(self, argv: list[str]) -> tuple[int, str]:
        if self.in_process:
            from cqdual import cli

            buf = io.StringIO()
            with redirect_stdout(buf):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:  # argparse's --version exits
                    code = exc.code or 0
            return code, buf.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "cqdual.cli", *argv],
            capture_output=True, text=True, timeout=120, check=False,
        )
        return proc.returncode, proc.stdout

    def _command(self, argv: list[str]) -> Callable[[], Gaps]:
        key = " ".join(argv)

        def run():
            code, text = self._run(argv)
            digest = hashlib.sha256(text.encode()).hexdigest()
            ref = self.first_hash.setdefault(key, digest)
            return [("exit_code", float(code != 0), 0.5),
                    ("stdout_matches_first_pass", float(digest != ref), 0.5),
                    *_verify_output(argv, text)]

        return run


WORKLOADS = {
    "identity_corpus": lambda seed, traced: IdentityCorpus(seed),
    "polar_depth": lambda seed, traced: PolarDepth(seed),
    "coded_blocklength": lambda seed, traced: CodedBlocklength(seed),
    "cli_readme": lambda seed, traced: CliReadme(seed, in_process=traced),
}
