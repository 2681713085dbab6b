"""The output oracles flag corrupted records, and accept the true ones.

Run with ``python -m pytest bench/tests`` from the repository root.  Each
corrupted record starts from a correct one built from the paper's formulas
and breaks one field.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracles  # noqa: E402
import workloads  # noqa: E402
from workloads import Job  # noqa: E402

COEFFS = (0.8, 0.6)
TRIALS = 100_000
LAM = 0.1


def _mc_job(kind, command="simulate", coeffs=COEFFS):
    fidelity = 1.0 - LAM + LAM / len(coeffs) ** 2
    return Job(command, (command,), kind, coeffs, LAM, fidelity, TRIALS)


def _mc_payload(job):
    p = oracles.optimal_p(job.kind, job.coeffs)
    beta = oracles.closed_form_beta(job.kind, job.coeffs, p)
    exact = oracles.depolarized_rate(job.kind, job.coeffs, p, LAM)
    n_pass = round(exact * TRIALS)
    rate = n_pass / TRIALS
    payload = {
        "strategy": {
            "label": job.kind, "d": oracles.strategy_dim(job.kind, len(job.coeffs)),
            "p": p, "beta": beta, "nu": 1.0 - beta, "homogeneous": job.kind in ("V", "VI"),
        },
        "record": {
            "n_trials": TRIALS, "n_pass": n_pass, "pass_rate": rate,
            "std_err": math.sqrt(rate * (1 - rate) / TRIALS), "exact_rate": exact, "seed": 7,
        },
    }
    if job.command == "estimate-fidelity":
        payload["estimate"] = {"f_hat": (rate - beta) / (1 - beta), "std_err": 0.0}
    return payload


def _analyze(kind, coeffs):
    job = Job("analyze", ("analyze",), kind, coeffs)
    p = oracles.optimal_p(kind, coeffs)
    beta = oracles.closed_form_beta(kind, coeffs, p)
    nu = 1.0 - beta
    report = {
        "label": kind, "d": oracles.strategy_dim(kind, len(coeffs)), "p": p,
        "beta": beta, "nu": nu, "homogeneous": kind in ("V", "VI"), "optimal_p": p,
        "epsilon": 0.01, "delta": 0.01,
        "tests_needed": math.ceil(math.log(0.01) / math.log(1 - nu * 0.01)),
        "tests_needed_adversarial": oracles.adversarial_tests(beta, 0.01, 0.01),
    }
    return job, {"analysis": report}


def _figure1(grid):
    job = Job("figure1", ("figure1", "--grid-size", str(grid), "--epsilon", "0.01",
                          "--delta", "0.01"), grid_size=grid)
    lines = [oracles.FIGURE1_HEADER]
    for i in range(grid):
        t = (i + 1) * math.pi / 4 / grid
        c2 = math.cos(t) ** 2
        n = lambda nu: math.ceil(math.log(0.01) / math.log(1 - nu * 0.01))  # noqa: E731
        lines.append(
            f"{t:.17g},{n(oracles.plm_nu(t))},{n(0.5)},{n(1 / (1 + c2))},{n(2 / 3)},"
            f"{oracles.adversarial_tests(max(1 / math.e, c2 / (1 + c2)), 0.01, 0.01):.17g},"
            f"{oracles.adversarial_tests(1 / math.e, 0.01, 0.01):.17g}"
        )
    return job, "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", ["I", "II", "III", "IV", "V", "VI"])
def test_true_records_pass(kind):
    job = _mc_job(kind)
    assert oracles.check_output(job, json.dumps(_mc_payload(job))) == []
    coeffs = (0.7, 0.5, 0.4, 0.3, 0.1, 0.0)
    norm = math.sqrt(sum(c * c for c in coeffs))
    job, payload = _analyze(kind, tuple(c / norm for c in coeffs))
    assert oracles.check_output(job, json.dumps(payload)) == []


def test_estimate_record_passes():
    job = _mc_job("VI", "estimate-fidelity")
    assert oracles.check_output(job, json.dumps(_mc_payload(job))) == []


def test_figure1_table_passes():
    job, text = _figure1(50)
    assert oracles.check_output(job, text) == []


@pytest.mark.parametrize("kind", ["II", "IV", "VI"])
def test_beta_off_by_1e6_is_flagged(kind):
    job = _mc_job(kind)
    payload = _mc_payload(job)
    payload["strategy"]["beta"] += 1e-6
    assert any("beta" in p for p in oracles.check_monte_carlo(payload, job))
    job, report = _analyze(kind, (0.6, 0.48, 0.48, 0.424264068711928))
    report["analysis"]["beta"] -= 1e-6
    assert any("beta" in p for p in oracles.check_analyze(report, job))


def test_kind_ii_must_report_the_embedded_dimension():
    coeffs = (0.6, 0.48, 0.48, 0.424264068711928)
    job, report = _analyze("II", coeffs)
    assert report["analysis"]["d"] == 5
    report["analysis"]["d"] = 4
    assert oracles.check_analyze(report, job)


@pytest.mark.parametrize("kind", ["I", "IV", "V"])
def test_pass_rate_off_by_10_sigma_is_flagged(kind):
    job = _mc_job(kind)
    payload = _mc_payload(job)
    record = payload["record"]
    sigma = math.sqrt(record["exact_rate"] * (1 - record["exact_rate"]) / TRIALS)
    record["n_pass"] -= math.ceil(10 * sigma * TRIALS)
    record["pass_rate"] = record["n_pass"] / TRIALS
    assert any("5 sigma" in p for p in oracles.check_monte_carlo(payload, job))


def test_wrong_exact_rate_is_flagged():
    job = _mc_job("VI")
    payload = _mc_payload(job)
    payload["record"]["exact_rate"] += 1e-6
    problems = oracles.check_monte_carlo(payload, job)
    assert any("(1 - beta) F + beta" in p for p in problems)
    assert any("closed form" in p for p in problems)


def test_f_hat_off_by_10_sigma_is_flagged():
    job = _mc_job("V", "estimate-fidelity")
    payload = _mc_payload(job)
    beta = payload["strategy"]["beta"]
    rate = payload["record"]["pass_rate"]
    payload["estimate"]["f_hat"] += 10 * math.sqrt(rate * (1 - rate) / TRIALS) / (1 - beta)
    assert any("f_hat" in p for p in oracles.check_monte_carlo(payload, job))


def test_wrong_tests_needed_is_flagged():
    job, report = _analyze("III", (0.6, 0.48, 0.48, 0.424264068711928))
    report["analysis"]["tests_needed"] += 1
    assert any("tests_needed" in p for p in oracles.check_analyze(report, job))


@pytest.mark.parametrize("column", [1, 2, 3, 4])
def test_wrong_figure1_count_is_flagged(column):
    job, text = _figure1(50)
    lines = text.splitlines()
    fields = lines[17].split(",")
    fields[column] = str(int(fields[column]) + 1)
    lines[17] = ",".join(fields)
    problems = oracles.check_output(job, "\n".join(lines) + "\n")
    assert len(problems) == 1 and "row 16" in problems[0]


def test_figure1_missing_row_is_flagged():
    job, text = _figure1(50)
    assert oracles.check_output(job, "\n".join(text.splitlines()[:-1]) + "\n")


def test_count_slack_accepts_only_boundary_round_off():
    assert oracles.count_ok(3, 6.0, 2.0)
    assert oracles.count_ok(4, 6.0 + 1e-12, 2.0)  # q is 3 up to round-off
    assert not oracles.count_ok(4, 6.0, 2.0 + 1e-3)


def test_depolarized_rate_matches_homogeneous_form():
    coeffs = (0.8, 0.6)
    for kind in ("V", "VI"):
        p = oracles.optimal_p(kind, coeffs)
        fidelity = 1 - LAM + LAM / 4
        assert oracles.depolarized_rate(kind, coeffs, p, LAM) == pytest.approx(
            (1 - p) * fidelity + p, abs=1e-15
        )


def test_workloads_are_seed_deterministic(tmp_path):
    for name in workloads.WORKLOADS:
        first = workloads.build(name, 5, tmp_path)
        assert first == workloads.build(name, 5, tmp_path)
        assert first != workloads.build(name, 6, tmp_path)


def test_file_noise_fidelity_matches_written_state(tmp_path):
    jobs = workloads.build("mc-many-tests", 3, tmp_path)
    (job,) = [j for j in jobs if j.depolarize is None]
    noise = job.argv[job.argv.index("--noise") + 1]
    data = json.loads(Path(noise.removeprefix("file:")).read_text())
    d = len(job.coeffs)
    psi = [0.0] * (d * d)
    for j, c in enumerate(job.coeffs):
        psi[j * d + j] = c
    fidelity = sum(psi[a] * data["real"][a][b] * psi[b]
                   for a in range(d * d) for b in range(d * d) if psi[a] and psi[b])
    assert fidelity == pytest.approx(job.fidelity, abs=1e-12)


def test_oracles_do_not_import_the_package():
    source = Path(oracles.__file__).read_text()
    assert "import biverify" not in source and "from biverify" not in source


def test_p_off_by_1e6_is_flagged():
    job = _mc_job("II")
    payload = _mc_payload(job)
    payload["strategy"]["p"] += 1e-6
    assert any(p.startswith("p ") for p in oracles.check_monte_carlo(payload, job))
