"""Tests for the command-line interface: exit codes, formats, reproducibility."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest

from biverify import bases, designs
from biverify.cli import CSV_HEADER, JobConfig, _config_from_args, build_parser, main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_design_strategy_report(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--theta", str(math.pi / 4), "--strategy", "II", "--json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["analysis"]["nu"] == pytest.approx(2 / 3, abs=1e-10)
        assert payload["analysis"]["tests_needed"] == 689

    def test_design_strategy_not_homogeneous_off_symmetry(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--theta", str(math.pi / 6), "--strategy", "II", "--json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["analysis"]["homogeneous"] is False
        assert payload["analysis"]["nu"] == pytest.approx(4 / 7, abs=1e-10)

    def test_homogeneous_report(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--theta", str(math.pi / 4), "--strategy", "VI", "--json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["analysis"]["homogeneous"] is True
        assert payload["analysis"]["beta"] == pytest.approx(1 / math.e, abs=1e-10)
        assert payload["analysis"]["tests_needed_adversarial"] == pytest.approx(
            100 * math.e * math.log(100), rel=1e-6
        )

    def test_text_report_mentions_key_quantities(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--theta", "0.5", "--strategy", "I"], capsys
        )
        assert code == 0
        assert "beta = " in out and "nu = " in out and "tests needed" in out

    def test_separable_state_exits_2(self, capsys):
        code, _, err = run_cli(
            ["analyze", "--schmidt", "1,0", "--strategy", "II"], capsys
        )
        assert code == 2
        assert "SeparableState" in err

    def test_epsilon_below_resolution_exits_2(self, capsys):
        """At epsilon = 1e-17, 1 - nu*epsilon rounds to 1 and no test count
        exists: a usage error, not a failed check with a traceback."""
        code, out, err = run_cli(
            ["analyze", "--theta", "0.5", "--strategy", "II", "--epsilon", "1e-17"],
            capsys,
        )
        assert code == 2 and out == ""
        assert "OutOfRangeError" in err and "rounds to 1" in err

    def test_kind_i_p_with_unit_beta_exits_2(self, capsys):
        """At p = 1e-17, 1 - p rounds to 1, so beta = max(p, 1 - p) would
        leave no gap: the build refuses p itself, in one line."""
        code, out, err = run_cli(
            ["analyze", "--theta", "0.5", "--strategy", "I", "--p", "1e-17"], capsys
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert "OutOfRangeError: p = 1e-17 leaves no spectral gap for kind I" in err

    @pytest.mark.parametrize("p", ["-0.5", "1.0", "nan"])
    def test_kind_i_p_outside_its_range_exits_2(self, p, capsys):
        """Kind I checks its p range as II-IV do, instead of reading a beta of
        1.5 or nan off an out-of-range p."""
        code, out, err = run_cli(
            ["analyze", "--theta", "0.5", "--strategy", "I", "--p", p], capsys
        )
        assert code == 2 and out == ""
        assert "OutOfRangeError: p must be in [0, 1) for kind I" in err

    def test_design_kind_p_with_unit_beta_exits_2(self, capsys):
        """At p = 0, beta = c_0^2 for kind II, and c_0^2 rounds to 1 at
        c_1 = 1e-9: the build refuses p, before any test count is taken."""
        code, out, err = run_cli(
            ["analyze", "--schmidt", "1,1e-9", "--strategy", "II", "--p", "0"], capsys
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert "OutOfRangeError: p = 0.0 leaves no spectral gap for kind II" in err

    def test_kind_i_p_below_one_by_an_ulp_exits_2(self, capsys):
        """At p = 1 - 2^-53 the build is sound with nu = 2^-53, and the test
        count fails because 1 - nu*epsilon rounds to 1."""
        code, out, err = run_cli(
            ["analyze", "--theta", "0.5", "--strategy", "I", "--p", "0.9999999999999999"],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert "OutOfRangeError" in err and "1 - nu*epsilon rounds to 1" in err

    def test_near_product_target_is_not_separable(self, capsys):
        """c_0 rounds to 1 at c_1 = 1e-8, but the target has Schmidt rank 2."""
        code, out, _ = run_cli(
            ["analyze", "--schmidt", "1,1e-8", "--strategy", "II", "--json"], capsys
        )
        assert code == 0
        assert json.loads(out)["analysis"]["nu"] == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("scale", ["e200", "e-170"])
    def test_amplitudes_beyond_double_square_range(self, scale, capsys):
        """Amplitudes whose square sum over- or underflows a double analyze as
        their direction, with no warning: the report of 3,2,1 to round-off."""
        args = ["analyze", "--d", "3", "--strategy", "III", "--json", "--schmidt"]
        schmidt = ",".join(f"{k}{scale}" for k in (3, 2, 1))
        code, out, err = run_cli(args + [schmidt], capsys)
        assert (code, err) == (0, "")
        expected = json.loads(run_cli(args + ["3,2,1"], capsys)[1])["analysis"]
        assert json.loads(out)["analysis"] == pytest.approx(expected, rel=1e-14)

    def test_invalid_strategy_exits_2(self, capsys):
        code, _, err = run_cli(
            ["analyze", "--theta", "0.5", "--strategy", "IX"], capsys
        )
        assert code == 2
        assert "OutOfRange" in err


class TestFigure1:
    def test_symmetric_point_row_and_format(self, tmp_path, capsys):
        out_path = tmp_path / "fig.csv"
        code, _, _ = run_cli(
            ["figure1", "--grid-size", "8", "--out", str(out_path)], capsys
        )
        assert code == 0
        raw = out_path.read_bytes()
        assert b"\r" not in raw, "CSV must use LF line endings"
        lines = raw.decode("utf-8").strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 9
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(math.pi / 4, rel=1e-15)
        assert [int(x) for x in last[1:5]] == [1149, 919, 689, 689]

    def test_single_row_grid(self, tmp_path, capsys):
        out_path = tmp_path / "one.csv"
        code, _, _ = run_cli(
            ["figure1", "--grid-size", "1", "--out", str(out_path)], capsys
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 2

    def test_design_column_monotone(self, tmp_path, capsys):
        out_path = tmp_path / "mono.csv"
        run_cli(["figure1", "--grid-size", "40", "--out", str(out_path)], capsys)
        rows = [l.split(",") for l in out_path.read_text().strip().split("\n")[1:]]
        n_ii = [int(r[3]) for r in rows]
        assert n_ii == sorted(n_ii, reverse=True)

    def test_io_error_exits_3(self, capsys):
        code, _, err = run_cli(
            ["figure1", "--out", "/nonexistent-dir/fig.csv"], capsys
        )
        assert code == 3
        assert "io error" in err


class TestCheckDesign:
    def test_phase_design_passes(self, capsys):
        code, out, _ = run_cli(["check-design", "--d", "6", "--m", "20"], capsys)
        assert code == 0
        assert "PASS" in out
        assert "residual=" in out

    def test_prime_dimension_uses_mub_set(self, capsys):
        code, out, _ = run_cli(["check-design", "--d", "5"], capsys)
        assert code == 0
        assert "MUB" in out and "PASS" in out

    def test_too_few_bases_exits_2(self, capsys):
        code, _, err = run_cli(["check-design", "--d", "6", "--m", "10"], capsys)
        assert code == 2
        assert "TooFewBases" in err

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_invalid_tolerance_exits_2(self, tol, capsys):
        """An invalid tolerance is a usage error, not a failed check."""
        code, out, err = run_cli(["check-design", "--d", "5", "--tol", tol], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: OutOfRangeError: tolerance must be finite")

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_invalid_tolerance_forms_no_design(self, tol, capsys, monkeypatch):
        """The tolerance is refused before the design is formed or
        certified."""

        def refused(*args, **kwargs):
            pytest.fail("check-design formed the design before checking --tol")

        monkeypatch.setattr(designs, "_design", refused)
        code, _, err = run_cli(["check-design", "--d", "200", "--tol", tol], capsys)
        assert code == 2 and "tolerance must be finite" in err

    @pytest.mark.parametrize("d", range(2, 18))
    def test_exact_at_zero_tolerance(self, d, capsys):
        """The certificate is exact: every built-in design passes --tol 0,
        where the float identity missed by round-off at d = 16 and 17."""
        code, out, _ = run_cli(["check-design", "--d", str(d), "--tol", "0"], capsys)
        assert code == 0
        assert "PASS residual=0.000e+00 (tolerance 0.0e+00)" in out

    def test_reads_the_table_certificate_once(self, capsys, monkeypatch):
        """check-design runs the table certificate once, and neither forms
        the row table, builds the design's bases nor runs the dense 2-design
        check."""
        calls = []
        residual = designs._Design.residual

        def counted(design):
            calls.append(design.name)
            return residual(design)

        def refused(*args, **kwargs):
            pytest.fail("check-design built the bases or ran the dense check")

        monkeypatch.setattr(designs._Design, "residual", counted)
        monkeypatch.setattr(bases, "_basis_set", refused)
        monkeypatch.setattr(bases, "_rows", refused)
        monkeypatch.setattr(bases, "verify_2design", refused)
        code, out, _ = run_cli(["check-design", "--d", "6", "--m", "20"], capsys)
        assert code == 0 and "PASS" in out
        assert calls == ["phase-basis design d=6 m=20"]


class TestRefusedAllocation:
    """A design whose row table cannot be allocated exits 2 with one error
    line: numpy refuses the 136 GiB table of m - 1 = 3037000498 rows.
    check-design and analyze form no table, so only simulate, which reads
    the rows, can reach this."""

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--d", "3", "--schmidt", "3,2,1", "--strategy", "III",
             "--m", "3037000499", "--noise", "none", "--trials", "10"],
        ],
        ids=["simulate-III"],
    )
    def test_memory_error_exits_2(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: MemoryError: ")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestSimulate:
    ARGS = [
        "simulate",
        "--theta",
        str(math.pi / 6),
        "--strategy",
        "II",
        "--noise",
        "depolarize:0.1",
        "--trials",
        "20000",
        "--seed",
        "42",
    ]

    def test_reproducible_bytes(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(self.ARGS + ["--out", str(out1)], capsys)[0] == 0
        assert run_cli(self.ARGS + ["--out", str(out2)], capsys)[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_record_fields_and_config_round_trip(self, capsys):
        code, out, _ = run_cli(self.ARGS, capsys)
        assert code == 0
        payload = json.loads(out)
        record = payload["record"]
        assert record["n_trials"] == 20000
        assert record["seed"] == 42
        assert record["pass_rate"] == record["n_pass"] / record["n_trials"]
        assert abs(record["pass_rate"] - record["exact_rate"]) <= 4 * record["std_err"]
        # the echoed config re-parses to an identical JobConfig
        echoed = JobConfig.from_dict(payload["config"])
        assert echoed == JobConfig(
            strategy="II",
            theta=math.pi / 6,
            noise="depolarize:0.1",
            trials=20000,
            seed=42,
        )

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "job.json"
        cfg.write_text(
            json.dumps(
                {
                    "strategy": "V",
                    "theta": math.pi / 4,
                    "noise": "depolarize:0.2",
                    "trials": 5000,
                    "seed": 7,
                }
            )
        )
        code, out, _ = run_cli(
            ["simulate", "--config", str(cfg), "--trials", "1000"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["trials"] == 1000
        assert payload["config"]["strategy"] == "V"
        assert payload["record"]["n_trials"] == 1000

    def test_noise_from_file(self, tmp_path, capsys):
        rho = np.eye(4) / 4
        noise = tmp_path / "rho.json"
        noise.write_text(json.dumps({"real": rho.tolist()}))
        code, out, _ = run_cli(
            [
                "simulate",
                "--theta",
                str(math.pi / 6),
                "--strategy",
                "I",
                "--noise",
                f"file:{noise}",
                "--trials",
                "2000",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert 0.0 < payload["record"]["pass_rate"] < 1.0

    def test_embedded_strategy_simulation(self, capsys):
        """Kind II on d=4 embeds into d=5; the noise state is embedded too."""
        code, out, _ = run_cli(
            [
                "simulate",
                "--schmidt",
                "2,1,1,1",
                "--strategy",
                "II",
                "--noise",
                "depolarize:0.05",
                "--trials",
                "2000",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["strategy"]["d"] == 5
        record = payload["record"]
        assert abs(record["pass_rate"] - record["exact_rate"]) <= 5 * record["std_err"]


class TestEstimateFidelity:
    def test_depolarized_estimate(self, capsys):
        s0sq = math.cos(math.pi / 4) ** 2
        p = s0sq / (1 + s0sq)
        code, out, _ = run_cli(
            [
                "estimate-fidelity",
                "--theta",
                str(math.pi / 4),
                "--strategy",
                "V",
                "--p",
                str(p),
                "--noise",
                "depolarize:0.2",
                "--trials",
                "100000",
                "--seed",
                "1",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        est = payload["estimate"]
        assert abs(est["f_hat"] - 0.85) <= 3 * est["std_err"]

    def test_non_homogeneous_exits_2(self, capsys):
        code, _, err = run_cli(
            [
                "estimate-fidelity",
                "--theta",
                "0.5",
                "--strategy",
                "II",
                "--trials",
                "1000",
            ],
            capsys,
        )
        assert code == 2
        assert "NotHomogeneous" in err


class TestJobConfig:
    def test_dict_round_trip(self):
        config = JobConfig(strategy="III", d=3, schmidt=[2.0, 1.0, 1.0], seed=5)
        assert JobConfig.from_dict(config.to_dict()) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(Exception):
            JobConfig.from_dict({"widgets": 3})

    def test_requires_exactly_one_target_spec(self):
        from biverify.errors import OutOfRangeError

        with pytest.raises(OutOfRangeError):
            JobConfig(strategy="I").target_state()
        with pytest.raises(OutOfRangeError):
            JobConfig(strategy="I", theta=0.5, schmidt=[1.0, 1.0]).target_state()


class TestUnreadFlags:
    """A flag a subcommand would ignore is a usage error (exit 2)."""

    BASE = {
        "figure1": ["--grid-size", "2"],
        "check-design": ["--d", "5"],
        "simulate": ["--theta", "0.5", "--strategy", "II"],
        "estimate-fidelity": ["--theta", "0.5", "--strategy", "V"],
    }

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("figure1", ["--seed", "1"]),
            ("figure1", ["--json"]),
            ("figure1", ["--config", "/nonexistent"]),
            ("check-design", ["--seed", "1"]),
            ("check-design", ["--json"]),
            ("check-design", ["--config", "/nonexistent"]),
            ("simulate", ["--json"]),
            ("estimate-fidelity", ["--json"]),
        ],
        ids=lambda value: value if isinstance(value, str) else value[0],
    )
    def test_exits_2(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, *self.BASE[command], *flag])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag[0]}" in captured.err

    def test_analyze_keeps_its_flags(self, tmp_path, capsys):
        """analyze echoes the Monte Carlo flags in its JSON config."""
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"strategy": "VI", "theta": 0.5}))
        code, out, _ = run_cli(
            ["analyze", "--config", str(cfg), "--seed", "9", "--trials", "7",
             "--noise", "depolarize:0.1", "--json"],
            capsys,
        )
        assert code == 0
        config = json.loads(out)["config"]
        assert (config["seed"], config["trials"], config["noise"]) == (9, 7, "depolarize:0.1")


class TestAbbreviatedFlags:
    """A prefix of a flag is refused, not taken for the flag it prefixes."""

    @pytest.mark.parametrize(
        "argv, abbreviation",
        [
            (["figure1", "--grid-size", "2", "--d", "0.5"], "--d"),
            (["analyze", "--str", "II", "--theta", "0.5"], "--str"),
            (["analyze", "--strategy", "II", "--theta", "0.5", "--eps", "0.5"], "--eps"),
        ],
        ids=["figure1-d", "analyze-str", "analyze-eps"],
    )
    def test_exits_2(self, argv, abbreviation, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {abbreviation}" in captured.err


# JobConfig field -> (config file value, flag value, parsed flag value)
OVERRIDES = {
    "strategy": ("III", "IV", "IV"),
    "d": (3, "5", 5),
    "schmidt": ([2.0, 1.0], "3,1", [3.0, 1.0]),
    "theta": (0.5, "0.25", 0.25),
    "p": (0.5, "0.25", 0.25),
    "m": (4, "6", 6),
    "epsilon": (0.1, "0.05", 0.05),
    "delta": (0.1, "0.05", 0.05),
    "noise": ("depolarize:0.1", "none", "none"),
    "trials": (10, "20", 20),
    "seed": (1, "2", 2),
}


@pytest.mark.parametrize("field", [f.name for f in fields(JobConfig)])
def test_flag_overrides_config_file(field, tmp_path):
    """Every JobConfig field is read from --config and overridden by the job
    flag of the same name (the job subcommands share one set of flags)."""
    file_value, flag, parsed = OVERRIDES[field]
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({field: file_value}))
    argv = ["simulate", "--config", str(cfg)]
    assert getattr(_config_from_args(build_parser().parse_args(argv)), field) == file_value
    config = _config_from_args(build_parser().parse_args([*argv, f"--{field}", flag]))
    assert getattr(config, field) == parsed


class TestMalformedInput:
    """Bad input files and flags are validation errors (exit 2), not crashes."""

    def assert_validation_error(self, code, err):
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_config_field_of_wrong_type(self, tmp_path, capsys):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"strategy": "V", "theta": 0.5, "trials": "100"}))
        code, _, err = run_cli(["simulate", "--config", str(cfg)], capsys)
        self.assert_validation_error(code, err)
        assert "'trials'" in err

    def test_trials_above_int64(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--theta", "0.5", "--strategy", "VI",
             "--trials", "9223372036854775808"],
            capsys,
        )
        self.assert_validation_error(code, err)
        assert "n_trials" in err

    def test_unparsable_depolarizing_weight(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--theta", "0.5", "--strategy", "V", "--noise", "depolarize:abc"],
            capsys,
        )
        self.assert_validation_error(code, err)

    @pytest.mark.parametrize("schmidt", ["nan,1", "inf,1"])
    def test_non_finite_schmidt_amplitude(self, schmidt, capsys):
        code, _, err = run_cli(
            ["analyze", "--schmidt", schmidt, "--strategy", "II"], capsys
        )
        self.assert_validation_error(code, err)
        assert "amplitudes must be finite" in err
        assert "product state" not in err and "RuntimeWarning" not in err

    def test_empty_schmidt_flag_is_not_ignored(self, capsys):
        """--schmidt "" is read like any other value, not dropped in favour of
        --theta."""
        code, _, err = run_cli(
            ["analyze", "--theta", "0.5", "--schmidt", "", "--strategy", "II"], capsys
        )
        self.assert_validation_error(code, err)
        assert "exactly one of schmidt or theta" in err

    def test_noise_file_with_nan_entry(self, tmp_path, capsys):
        """json reads NaN; the density operator must reject it."""
        noise = tmp_path / "rho.json"
        real = np.diag([1.0, 0.0, 0.0, 0.0]).tolist()
        real[1][1] = float("nan")
        noise.write_text(json.dumps({"real": real}))
        assert "NaN" in noise.read_text()
        code, _, err = run_cli(
            ["simulate", "--theta", "0.5", "--strategy", "V", "--noise", f"file:{noise}"],
            capsys,
        )
        self.assert_validation_error(code, err)
        assert "must be finite" in err

    def test_noise_file_with_non_square_matrix(self, tmp_path, capsys):
        """A 3x4 matrix is refused by its shape, not as non-Hermitian."""
        noise = tmp_path / "rho.json"
        noise.write_text(json.dumps({"real": (np.ones((3, 4)) / 3).tolist()}))
        code, _, err = run_cli(
            ["simulate", "--theta", "0.5", "--strategy", "V", "--noise", f"file:{noise}"],
            capsys,
        )
        self.assert_validation_error(code, err)
        assert "DimensionMismatchError" in err and "(3, 4)" in err

    @pytest.mark.parametrize(
        "entry", ["0.25", 10**400, [0.25]], ids=["numeric-string", "huge", "ragged"]
    )
    def test_noise_file_entry_that_is_no_number(self, entry, tmp_path, capsys):
        """Every entry of a noise file is a JSON number: a numeric string,
        an int no double holds and a ragged row are refused, not cast."""
        noise = tmp_path / "rho.json"
        real = np.diag([0.25] * 4).tolist()
        real[0][0] = entry
        noise.write_text(json.dumps({"real": real}))
        code, _, err = run_cli(
            ["simulate", "--theta", "0.5", "--strategy", "V", "--noise", f"file:{noise}"],
            capsys,
        )
        self.assert_validation_error(code, err)
        assert "noise file" in err

    def test_noise_file_without_real_part(self, tmp_path, capsys):
        noise = tmp_path / "rho.json"
        noise.write_text(json.dumps({"imag": np.zeros((4, 4)).tolist()}))
        code, _, err = run_cli(
            ["simulate", "--theta", "0.5", "--strategy", "V", "--noise", f"file:{noise}"],
            capsys,
        )
        self.assert_validation_error(code, err)
        assert '"real"' in err
