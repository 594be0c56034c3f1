"""Acceptance suite.

Each test runs the rows of `cqdual.checks` tagged with its criterion, at the
rows' acceptance instance counts, holds every gap to its row's tolerance and
prints a single PASS/FAIL line (run with -s to see them inline). The rows are
the ones `cqdual selftest` runs at smaller counts. Every quantity on both
sides of an identity is computed independently; nothing is derived from the
identity under test.
"""

import time

from cqdual import checks

SEED = 20240811


def _accept(criterion: int, cap: float | None = None) -> None:
    start = time.time()
    parts, ok = [], True
    for row in (r for r in checks.ROWS if criterion in r.criteria):
        gaps = list(row.gaps(row.accept, SEED))
        bad = [label for label, gap in gaps if not gap <= row.tol]
        worst = max(gap for _, gap in gaps)
        ok &= not bad
        parts.append(f"{row.name} {worst:.2e} over {len(gaps)} (tol {row.tol:.0e})"
                     + (f" failing at {bad}" if bad else ""))
    elapsed = time.time() - start
    if cap is not None:
        ok &= elapsed <= cap
        parts.append(f"{elapsed:.1f}s (cap {cap:.0f}s)")
    detail = "; ".join(parts)
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_1_entropy_sums():
    _accept(1, cap=60.0)


def test_criterion_2_guess_decouple_exchange():
    _accept(2)


def test_criterion_3_capacity_sums():
    _accept(3)


def test_criterion_4_dispersion():
    _accept(4)


def test_criterion_5_convolution_duality():
    _accept(5)


def test_criterion_6_polarization():
    _accept(6, cap=10.0)


def test_criterion_7_coded_sums():
    _accept(7)


def test_criterion_8_blocklength_sums():
    _accept(8, cap=120.0)


def test_criterion_9_exit_sums():
    _accept(9)


def test_criterion_10_blocklength_bounds():
    _accept(10, cap=60.0)


def test_criterion_11_state_identities():
    _accept(11)
