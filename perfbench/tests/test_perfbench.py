"""Tests of the benchmark itself: small workloads, oracles, checks, tracer.

Run from the repository root with `python3 -m pytest perfbench/tests`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import run
import workloads
from oracles import CheckError
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def small_run(request, hc, tmp_path_factory):
    jobs = workloads.build(request.param, 7, tmp_path_factory.mktemp("inputs"), hc, size="small")
    return [(job, job.run(hc)) for job in jobs]


def test_small_workload_passes_its_checks(small_run):
    for job, output in small_run:
        job.check(output)


def perturb(output):
    """The same answer with one value changed."""
    if isinstance(output, tuple):
        code, text = output
        payload = json.loads(text)
        if "dims" in payload:
            payload["dims"][-1] += 1
        elif "reports" in payload:
            report = payload["reports"][0]
            report["verdict"] = "inconclusive" if report["verdict"] != "inconclusive" else "no-amenable-form"
        elif "member" in payload:
            payload["member"] = not payload["member"]
        elif "basis" in payload:
            payload["basis"].append("x3^3")
        return code, json.dumps(payload)
    if isinstance(output[0], int):
        return output[:-1] + [output[-1] + 1]
    return output + [f"{output[0]} + 1"]


def test_every_check_rejects_a_perturbed_answer(small_run):
    for job, output in small_run:
        with pytest.raises(CheckError):
            job.check(perturb(output))


def test_cli_checks_reject_a_wrong_exit_code(small_run):
    for job, output in small_run:
        if isinstance(output, tuple):
            with pytest.raises(CheckError):
                job.check((1, output[1]))


def test_oracles_reproduce_hand_values():
    assert oracles.t2_factorial(3) == [1, 0, 2, 0, 2, 0, 1]
    assert oracles.gaussian_binomial_t2(5, 2) == [1, 0, 1, 0, 2, 0, 2, 0, 2, 0, 1, 0, 1]
    assert oracles.gaussian_binomial_t2(4, 2) == [1, 0, 1, 0, 2, 0, 1, 0, 1]
    so8 = [0] * 23
    for a in (0, 4, 8):
        for b, c in ((0, 1), (7, 2), (14, 1)):
            so8[a + b] += c
    assert oracles.SO8_SO3SO3 == so8
    # B2 coinvariants: (1-t^4)(1-t^8)/(1-t^2)^2 = (1+t^2)(1+t^2+t^4+t^6)
    assert oracles.regular_sequence_series([4, 8], [2, 2], 10) == [1, 0, 2, 0, 2, 0, 2, 0, 1, 0, 0]
    assert oracles.formal_dimension([2, 2, 2], [1, 3, 5]) == 6
    assert oracles.pad(oracles.exterior_series([3, 7, 7, 11]), 16)[16] == 0


def test_obstruction_oracle_matches_the_known_verdicts():
    data = ROOT / "src" / "homcoh" / "data"
    cases = [p.read_text() for p in sorted((data / "cases").glob("*.case"))]
    reports, code = oracles.expected_reports((data / "catalog.txt").read_text(), cases, None)
    assert [r["verdict"] for r in reports] == [
        "no-amenable-form", "no-amenable-form", "inconclusive", "vacuous-h-compact",
    ]
    assert code == 2
    assert reports[2]["checks"]["tncz"]["coefficient"] == 1


def test_series_checks_reject_bad_answers():
    good = [1, 0, 2, 0, 2, 0, 1, 0, 0]
    oracles.check_poincare_duality(good, 6, "flag3")
    oracles.check_zero_above(good, 6, "flag3")
    with pytest.raises(CheckError):
        oracles.check_poincare_duality([1, 0, 2, 0, 1, 0, 1], 6, "flag3")
    with pytest.raises(CheckError):
        oracles.check_zero_above(good[:-1] + [1], 6, "flag3")
    with pytest.raises(CheckError):
        oracles.check_series(good[:-1], oracles.t2_factorial(3), 8, "flag3")


def test_basis_checks_reject_bad_answers():
    names = ["x", "y"]
    basis = [oracles.parse_poly_text(t, names) for t in ("x^2 - y^2", "x*y")]
    oracles.check_reduced_basis(basis, "ok")
    with pytest.raises(CheckError):  # not monic
        oracles.check_reduced_basis([{e: 2 * c for e, c in basis[0].items()}, basis[1]], "scaled")
    with pytest.raises(CheckError):  # a term divisible by another leading term
        oracles.check_reduced_basis([oracles.poly_add(basis[0], {(1, 1): 1}), basis[1]], "unreduced")
    with pytest.raises(CheckError):
        oracles.check_same_basis(basis[:1], basis, "short")


def test_polynomial_text_round_trips_through_homcoh(hc):
    names = ["x2", "x3"]
    poly = {(2, 0): oracles.Fraction(3, 2), (1, 1): -1, (0, 2): 1, (0, 0): -5}
    text = oracles.poly_to_text(poly, names)
    parsed = hc.poly.parse_polynomial(text, hc.poly.VariableContext.standard(names))
    assert oracles.parse_poly_text(str(parsed), names) == poly


def test_random_basis_is_unimodular():
    import random

    rng = random.Random(3)
    for n in (3, 4, 5):
        m = workloads.random_unimodular(rng, n)
        det = oracles.Fraction(1)
        rows = [[oracles.Fraction(x) for x in row] for row in m]
        for c in range(n):  # Gaussian elimination: no pivoting needed for L*U
            det *= rows[c][c]
            for r in range(c + 1, n):
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
        assert det == 1


def test_tracer_counts_and_restores(hc, tmp_path):
    jobs = workloads.build("coinvariant-groebner", 1, tmp_path, hc, size="small")
    original = hc.groebner.buchberger
    tracer = Tracer()
    tracer.install(hc)
    try:
        jobs[0].run(hc)
    finally:
        tracer.uninstall()
    assert hc.groebner.buchberger is original
    values = tracer.metrics(1, 0.0)
    assert values["groebner.buchberger.calls"] == 1
    assert 0 < values["groebner.spairs_nonzero"] <= values["groebner.spairs"]
    assert values["groebner.normal_form.calls"] > values["groebner.spairs"]
    assert values["poly.arith.calls"] > 0 and values["poly.arith.self_s"] > 0
    assert values["linalg.rank.calls"] == 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "obstruction-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_clock_samples_the_speed_during_a_call():
    def busy(seconds):
        end = run.perf_counter() + seconds
        while run.perf_counter() < end:
            pass
        return "done"

    result, seconds, (kernel_s, calls) = run.Clock().measure(busy, 0.3)
    assert result == "done"
    assert calls >= run.MIN_SAMPLES and kernel_s > 0
    assert 0.2 < seconds < 0.3  # the kernel's time is taken off


def test_times_scale_by_their_own_samples_or_the_pool():
    ref = run.KERNEL_REFERENCE_S
    slow = (10 * 2 * ref, 10)  # kernel ran at half the reference speed
    fast = (1 * ref / 2, 1)  # too few samples to count on their own
    assert run.at_reference_speed([(4.0, slow)]) == [pytest.approx(2.0)]
    pooled = run.speed_factor([slow, fast])
    assert run.at_reference_speed([(4.0, slow), (1.0, fast)]) == [
        pytest.approx(2.0), pytest.approx(pooled),
    ]
