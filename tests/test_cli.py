import json
import subprocess
import sys

import pytest

from freeqg import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert out.endswith("\n")
    return code, json.loads(out)


class TestFuse:
    def test_orth_fundamental_square(self, capsys):
        code, record = run_json(capsys, "fuse", "--group", "o", "1", "1")
        assert code == 0
        assert record["command"] == "fuse"
        assert record["rows"] == [
            {"label": "0", "multiplicity": "1"},
            {"label": "2", "multiplicity": "1"},
        ]

    def test_orth_with_unit(self, capsys):
        code, record = run_json(capsys, "fuse", "--group", "o", "0", "5")
        assert code == 0
        assert record["rows"] == [{"label": "5", "multiplicity": "1"}]

    def test_unit_pair(self, capsys):
        code, record = run_json(capsys, "fuse", "--group", "u", "a", "b")
        assert code == 0
        assert record["rows"] == [
            {"label": "", "multiplicity": "1"},
            {"label": "ab", "multiplicity": "1"},
        ]

    def test_dimension_column(self, capsys):
        code, record = run_json(capsys, "fuse", "--group", "u", "--N", "3", "a", "b")
        assert code == 0
        dims = {row["label"]: row["dimension"] for row in record["rows"]}
        assert dims == {"": "1", "ab": "8"}

    def test_iterated_unit_product_collects_multiplicities(self, capsys):
        code, record = run_json(capsys, "fuse", "--group", "u", "a", "b", "a", "b")
        assert code == 0
        mults = {row["label"]: row["multiplicity"] for row in record["rows"]}
        # ((a.b).a).b = 2*unit + 3*ab + abab; checked against dimensions at
        # N=3: 3**4 = 2*1 + 3*8 + 55
        assert mults == {"": "2", "ab": "3", "abab": "1"}


class TestDims:
    def test_orth(self, capsys):
        code, record = run_json(capsys, "dims", "--group", "o", "--N", "2", "5")
        assert code == 0
        assert record["rows"] == [{"label": "5", "dimension": "6"}]

    def test_unit(self, capsys):
        code, record = run_json(capsys, "dims", "--group", "u", "--N", "3", "ab")
        assert code == 0
        assert record["rows"] == [{"label": "ab", "dimension": "8"}]

    def test_unit_empty_word(self, capsys):
        code, record = run_json(capsys, "dims", "--group", "u", "--N", "3", "")
        assert code == 0
        assert record["rows"] == [{"label": "", "dimension": "1"}]

    def test_big_dimension_is_string(self, capsys):
        code, record = run_json(capsys, "dims", "--group", "o", "--N", "5", "80")
        assert code == 0
        value = record["rows"][0]["dimension"]
        assert isinstance(value, str)
        assert int(value) > 2**53


class TestCoeffs:
    def test_orth_table(self, capsys):
        code, record = run_json(
            capsys, "coeffs", "--group", "o", "--t", "2.5", "--N", "5", "--m", "2"
        )
        assert code == 0
        rows = {row["label"]: row["coeff"] for row in record["rows"]}
        assert rows["0"] == 1
        assert rows["2"] == pytest.approx(5.25 / 24, rel=1e-14)
        assert record["params"]["level_max"][0] == 1

    def test_unit_table_has_three_rows_at_level_one(self, capsys):
        code, record = run_json(
            capsys, "coeffs", "--group", "u", "--t", "2.5", "--N", "3", "--m", "1"
        )
        assert code == 0
        assert len(record["rows"]) == 3
        assert "r" in record["params"]

    def test_entry_cap_exit_code(self, capsys):
        code, _ = run(
            capsys,
            "coeffs", "--group", "u", "--t", "2.5", "--N", "3", "--m", "12",
            "--entry-cap", "64",
        )
        assert code == 4


class TestCertify:
    ARGS = ("certify", "--group", "o", "--t", "2.5", "--N", "3", "--D", "1", "--eps", "1e-3")

    def test_certificate_contract(self, capsys):
        code, record = run_json(capsys, *self.ARGS)
        assert code == 0
        row = record["rows"][0]
        assert row["tail_bound"] <= row["eps"]
        assert row["m"] == 90

    def test_byte_identical_repeats(self, capsys):
        _, first = run(capsys, *self.ARGS)
        _, second = run(capsys, *self.ARGS)
        assert first == second

    def test_larger_eps_never_needs_larger_m(self, capsys):
        _, loose = run_json(capsys, "certify", "--group", "u", "--t", "2.5", "--N", "3",
                            "--R", "1", "--eps", "1e-2")
        _, tight = run_json(capsys, "certify", "--group", "u", "--t", "2.5", "--N", "3",
                            "--R", "1", "--eps", "1e-4")
        assert loose["rows"][0]["m"] <= tight["rows"][0]["m"]

    def test_missing_rd_constant_is_parse_error(self, capsys):
        code, _ = run(capsys, "certify", "--group", "o", "--t", "2.5", "--N", "3",
                      "--eps", "1e-3")
        assert code == 2

    def test_t_at_n_is_domain_error(self, capsys):
        code, _ = run(capsys, "certify", "--group", "o", "--t", "3", "--N", "3",
                      "--D", "1", "--eps", "1e-3")
        assert code == 3

    @pytest.mark.parametrize("extra", [
        ("--eps", "nan", "--D", "1"),
        ("--eps", "1e-3", "--D", "nan"),
        ("--eps", "1e-3", "--D", "inf"),
        ("--eps", "1e-3", "--D", "1e308"),
    ], ids=["eps-nan", "D-nan", "D-inf", "D-1e308"])
    def test_non_finite_input_exits_3_promptly(self, extra, src_env):
        argv = [sys.executable, "-m", "freeqg.cli", "certify", "--group", "o",
                "--t", "2.9", "--N", "3", *extra]
        result = subprocess.run(argv, capture_output=True, text=True, timeout=30, env=src_env)
        assert result.returncode == 3, result.stderr
        assert result.stdout == ""
        assert "domain error" in result.stderr


class TestVerify:
    def test_moments_suite_passes(self, capsys):
        code, record = run_json(capsys, "verify", "moments")
        assert code == 0
        assert all(row["failures"] == 0 for row in record["rows"])
        assert record["params"]["seed"] == 42

    def test_forms_suite_case_count(self, capsys):
        code, record = run_json(capsys, "verify", "forms", "--max-len", "10")
        assert code == 0
        by_name = {row["check"]: row for row in record["rows"]}
        assert by_name["form_oracle_equality"]["cases"] == 2047
        assert by_name["form_oracle_equality"]["failures"] == 0

    def test_decay_suite_small(self, capsys):
        code, record = run_json(capsys, "verify", "decay", "--N", "3", "--grid", "5",
                                "--max-len", "5")
        assert code == 0
        assert all(row["failures"] == 0 for row in record["rows"])

    def test_fusion_suite_small(self, capsys):
        code, record = run_json(capsys, "verify", "fusion", "--max-label", "6",
                                "--max-len", "4")
        assert code == 0
        assert all(row["failures"] == 0 for row in record["rows"])


class TestFormatsAndErrors:
    def test_csv_output(self, capsys):
        code, out = run(capsys, "dims", "--group", "o", "--N", "3", "2", "3",
                        "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "dimension,label"
        assert lines[1] == "8,2"
        assert lines[2] == "21,3"

    def test_parse_error_bad_level(self, capsys):
        assert run(capsys, "fuse", "--group", "o", "1", "x")[0] == 2

    def test_parse_error_bad_word(self, capsys):
        assert run(capsys, "fuse", "--group", "u", "ax")[0] == 2

    def test_parse_error_unknown_flag(self, capsys):
        assert cli.main(["fuse", "--group", "o", "--bogus", "1"]) == 2

    def test_domain_error_small_n(self, capsys):
        assert run(capsys, "dims", "--group", "o", "--N", "1", "3")[0] == 3

    def test_negative_level_is_domain_error(self, capsys):
        assert run(capsys, "fuse", "--group", "o", "--", "-1")[0] == 3

    def test_json_is_sorted_and_deterministic(self, capsys):
        _, first = run(capsys, "coeffs", "--group", "o", "--t", "2.7", "--N", "4", "--m", "3")
        _, second = run(capsys, "coeffs", "--group", "o", "--t", "2.7", "--N", "4", "--m", "3")
        assert first == second
        record = json.loads(first)
        assert list(record) == sorted(record)
