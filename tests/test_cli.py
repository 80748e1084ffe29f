import contextlib
import csv
import hashlib
import io
import json
import math
import shlex
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeqg import AlternatingForm, cli, verify


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

    @pytest.mark.parametrize("levels", [
        ["100000000", "100000000"],
        ["--N", "3", str(2**64), str(2**64)],
        [str(2**20), str(2**20)],  # 2**20 + 1 summands, one past the cap
        [str(2**60), str(2**20), "0"],
    ])
    def test_orth_product_past_the_summand_cap_exits_at_once(self, capsys, levels):
        # the fold used to build every summand first: 10**8 + 1 of them here
        start = time.perf_counter()
        code = cli.main(["fuse", "--group", "o", *levels])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.out) == (4, "")
        assert captured.err == "freeqg: resource error: the product has more than 1048576 summands\n"
        assert elapsed < 1.0

    def test_levels_are_checked_before_the_summand_count(self, capsys):
        assert run(capsys, "fuse", "--group", "o", "--", "100000000", "100000000", "-1")[0] == 3

    def test_orth_product_of_huge_levels_under_the_cap(self, capsys):
        code, record = run_json(capsys, "fuse", "--group", "o", str(10**30), "3")
        assert code == 0
        assert [row["label"] for row in record["rows"]] == [str(10**30 + d) for d in (-3, -1, 1, 3)]


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

    @pytest.mark.parametrize("group", ["o", "u"])
    def test_negative_entry_cap_is_domain_error(self, capsys, group):
        # the unitary table exited 4 ("above the cap -1"); the orthogonal one ignored it
        code = cli.main(["coeffs", "--group", group, "--t", "2.5", "--N", "3", "--m", "3",
                         "--entry-cap", "-1"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "entry_cap must be >= 0" in captured.err

    def test_huge_level_is_refused_before_any_work(self, capsys):
        code, out = run(capsys, "coeffs", "--group", "u", "--t", "2.5", "--N", "3",
                        "--m", str(10**18))
        assert (code, out) == (4, "")


    # sha256 of stdout, recorded before the unitary table moved to the word
    # trie and the JSON writer gained its fast paths
    @pytest.mark.parametrize("argv,digest", [
        ("--group u --t 2.7 --N 4 --m 12",
         "470f0a3178ace78be0f2832faa6a07e8531886c4ed74940c5af62a9129746bf4"),
        ("--group u --t 2.7 --N 4 --m 12 --format csv",
         "ac8427d3a0fbb3fa82e80361637d7cd3ff7621b66c83f71e13122ab26167a0d8"),
        ("--group u --t 2.5 --N 3 --m 9",
         "51668450bae06427d899d8f5603a1d3cba73dfb562180fba40017fd21aff0b1c"),
        ("--group u --t 2.5 --N 3 --m 9 --format csv",
         "ad9a7568346d6009f64d4e564de09416cda07035dba343af95f292ad01b67efa"),
        ("--group u --t 3.0 --N 3 --m 9",
         "648ac8e5a6f856f003fb94884d1e014785f132767b72632fe3c856b057a2e1cd"),
        ("--group u --t 3.0 --N 3 --m 9 --format csv",
         "7b468b998a200d84fe6e8b92577dde8171802635a6618795aaf28475e4b715e4"),
        ("--group u --t 2.9 --N 5 --m 0",
         "a924c75f96de8776ff072af32fc8bc059448d6f23dfec248f590be2f0f85f685"),
        ("--group u --t 2.9 --N 5 --m 0 --format csv",
         "826ea66100ef3779296f8be97364a14ec3da98cdac00d322b67904dbee54b125"),
        ("--group o --t 2.9 --N 3 --m 60",
         "017057701f33ba27516aa69d27b13ab84bd129b8d63cd7725c349691bf93f7c0"),
        # recorded before the writers built their cells column by column
        ("--group u --t 2.7 --N 4 --m 13",
         "75825d864bbf26ed97361aef66232210291a9f5c553525be109c60e156686586"),
        ("--group u --t 2.7 --N 4 --m 13 --format csv",
         "d28fc4a2d513afe0c895cd2bc11daa2aa14d1277c298bda85eb8acb3037e0ec6"),
        ("--group o --t 2.9 --N 3 --m 728",
         "5142e08c00fcfad9794804c140a1065be6b8f24c59efe7f121b55151c368f1f4"),
        ("--group o --t 2.9 --N 3 --m 728 --format csv",
         "d01991c07e350837eb3ac26e7b24b3b4354b9bd5fe2db5b7e89479c8867c1c1f"),
        # recorded before the writers took the unitary levels as runs
        ("--group u --t 2.7 --N 4 --m 14",
         "50d6517b0021067fd75975a483661cdb06db60cd26fa4bdaef166587ca715d80"),
        ("--group u --t 2.7 --N 4 --m 14 --format csv",
         "6923d3afd54e713dfd366f64f23339e8b183d39409901a1b5cb7d4c88bc79f92"),
    ])
    def test_stdout_bytes_pinned(self, capsys, argv, digest):
        code, out = run(capsys, "coeffs", *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_orth_level_past_double_overflow_is_domain_error(self, capsys):
        # u_738(3) overflows a double; the message used to blame a coefficient of 0.0
        code = cli.main(["coeffs", "--group", "o", "--t", "2.9", "--N", "3", "--m", "740"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "level n=738 for N=3" in captured.err


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

    @pytest.mark.parametrize("group,message", [
        ("o", "freeqg: --group o requires --D (orthogonal rapid-decay constant)\n"),
        ("u", "freeqg: --group u requires --R (unitary rapid-decay constant)\n"),
    ], ids=["o", "u"])
    def test_missing_rd_constant_message(self, capsys, group, message):
        # each group ignores the other group's constant
        other = "--R" if group == "o" else "--D"
        code = cli.main(["certify", "--group", group, "--t", "2.5", "--N", "3", "--eps", "1e-3",
                         other, "1"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", message)

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


    def test_underflowed_tail_is_not_certified_as_zero(self, capsys):
        # the tail used to underflow to 0 before pi * D was applied: m = 21979
        # with tail_bound 0, where the real bound is about 2e-15
        code, record = run_json(capsys, "certify", "--group", "o", "--t", "2.9", "--N", "3",
                                "--D", "1e300", "--eps", "1e-300")
        assert code == 0
        row = record["rows"][0]
        assert row["m"] == 41394
        assert 0.0 < row["tail_bound"] <= 1e-300


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

    # sha256 of stdout, recorded before the suites took their records from
    # one tally: each suite at its defaults and at one smaller setting
    @pytest.mark.parametrize("argv,digest", [
        ("fusion", "1c860096c49665f20794de54c60b61c40cc3c668fbcf806bea5c0d43f1f514e6"),
        ("moments", "5f7ba7d83e2d703c12c9afef27e322d91fc910a8eab09062b4962d7ff0763be0"),
        ("forms", "64279d75edef95d653271f7355b606fd8d62c3a52e3d0620d8707326f77bac68"),
        ("dims", "10f971af7ffd9f298d52a0886a59faaa64b153ade14d5afa67f7c4b7569c9892"),
        ("decay", "433d9c1f99b1812f4fc4953bd2f8d69c3e9564b6fba9644371731154921903ac"),
        ("fusion --max-label 4 --max-len 3",
         "afaf6319d56cdd742c7cfaca0bf8d7f1eb59e17293fefa799be273bec7a0712b"),
        ("moments --subdivisions 2000 --seed 3",
         "a3de71bd621f4735b3480db33433d2bee851dd1758ef0281b65409b75a734294"),
        ("forms --max-len 6", "1c89b2162eca599cb1892aafc9b32a103225ce6b3705ac10274fcbb8f593d441"),
        ("dims --max-len 4 --samples 300 --seed 7 --max-label 9",
         "993cf234f6f319ee2b8faaf9dba5d8d770f5410d20ded369375de2fc4f4dcc86"),
        ("decay --N 3 --N 7 --grid 5 --max-len 5",
         "77f22ad3124e7e801bcaa6efa455684713231fce073b49c97d500138420082b2"),
    ])
    def test_stdout_bytes_pinned(self, capsys, argv, digest):
        code, out = run(capsys, "verify", *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_failure_counts(self, monkeypatch):
        # One dependency per check is broken on a known set of cases, and
        # every record must count exactly those: (check, cases, failures).
        def patch(name, make):
            monkeypatch.setattr(verify, name, make(getattr(verify, name)))

        # fuse_orth doubles its multiplicities when r > s or r == 1;
        # fuse_unitary adds the summand "b" + h twice when g == "a", which
        # both repeats a length and a multiplicity (2 failures per case)
        patch("fuse_orth", lambda real: lambda r, s: (
            {k: 2 for k in real(r, s)} if r > s or r == 1 else real(r, s)))
        patch("fuse_unitary", lambda real: lambda g, h: (
            {**real(g, h), "b" + h: 2} if g == "a" else real(g, h)))
        words = 15  # of length <= 3
        assert verify.verify_fusion(max_label=4, unit_max_len=3) == [
            ("orth_multiplicity_free", 25, 10 + 4),  # r > s, and (1, s >= 1)
            ("orth_commutative", 25, 20 - 6),  # r != s, but not (1, s), (s, 1) for s >= 2
            ("orth_char_recursion", 4, 4),
            ("orth_associative", 125, 5 * 14),  # (b, c) doubled, for any a
            ("unit_multiplicity_free", words**2, 2 * words),
            ("unit_conjugation_symmetry", words**2, 2 * words - 1),  # g == "a" or h == "b"
        ]

        monkeypatch.undo()
        patch("catalan", lambda real: lambda m: real(m) + m % 2)
        patch("char_moment_orth", lambda real: lambda k: real(k) + (k % 4 == 3))
        assert verify.verify_moments(max_m=8) == [
            ("moment_triple_even", 9, 4),  # m = 1, 3, 5, 7
            ("moment_odd_zero", 9, 4),  # k = 3, 7, 11, 15
        ]

        monkeypatch.undo()
        # the oracle reads every odd-length word as the unit; the run rule
        # drops the last letter of words ending in "bb"
        patch("char_expand_oracle", lambda real: lambda w: (
            AlternatingForm((0,), ()) if len(w) % 2 else real(w)))
        patch("alternating_form", lambda real: lambda w: (
            real(w[:-1]) if w.endswith("bb") else real(w)))
        assert verify.verify_forms(max_len=6) == [
            ("form_oracle_equality", 127, 42 + 1 + 4 + 16),  # odd lengths, even ones ending "bb"
            ("form_shape", 127, 1 + 2 + 4 + 8 + 16),  # ending "bb", lengths 2..6
        ]

        monkeypatch.undo()
        patch("dim_check_fusion", lambda real: lambda r, s, n: real(r, s, n) and (r + s) % 2 == 0)
        patch("dim_check_fusion_unitary", lambda real: lambda g, h, n: real(g, h, n) and n != 4)
        patch("dim_unitary_recursive", lambda real: lambda w, n: real(w, n) + (n == 3))
        assert verify.verify_dims(max_label=4, exhaustive_len=2, random_pairs=50, random_len=4,
                                  seed=5) == [
            ("orth_dim_consistency", 4 * 25, 4 * 12),  # r + s odd, at each of 4 N
            ("unit_dim_consistency_exhaustive", 2 * 49, 49),  # 7 words of length <= 2
            ("unit_dim_consistency_random", 2 * 50, 50),
            ("unit_dim_two_routes", 3 * (31 + 5), 31 + 5),  # at N = 3 only
        ]

        monkeypatch.undo()
        # the level-1 ratio reads -t/N, which is negative and falls in t;
        # a_t reads 0 on odd-length words; u_0 reads 2 at negative x
        def coeff_ratios(real):
            def patched(m, t, N, t0):
                values = list(real(m, t, N, t0))
                values[1] = -t / N
                return values
            return patched

        patch("coeff_ratios", coeff_ratios)
        patch("a_coeff_from_form", lambda real: lambda form, t, N, t0: (
            0.0 if form.length % 2 else real(form, t, N, t0)))
        patch("cheby_u", lambda real: lambda n, x: real(n, x) + (n == 0 and x < 0))
        assert verify.verify_decay(ns=(3, 4), grid_points=4, max_n=6, max_len=3) == [
            ("orth_coeff_decay", 2 * 4 * 7, 2 * 4),
            ("unit_coeff_decay", 2 * 4 * 15, 2 * 4 * 10),  # 10 words of odd length <= 3
            # per N at level 1: the value at t = N is not 1, and 3 falls in t
            ("orth_coeff_monotone_in_t", 2 * 6 * 4, 2 * (1 + 3)),
            ("central_state_bound", 2 * 4 * 7, 2 * 2),  # grid -N, -N/3, N/3, N
        ]

    @pytest.mark.parametrize("argv", [
        ("decay", "--grid", "-1"),
        ("decay", "--grid", "0"),
        ("decay", "--grid", "1", "--N", "3"),
        ("fusion", "--max-label", "-1"),
        ("dims", "--samples", "-1"),
    ], ids=["grid-neg", "grid-0", "grid-1", "max-label-neg", "samples-neg"])
    def test_unusable_sizes_are_domain_errors(self, capsys, argv):
        # these leaked ValueError/IndexError, gave a false FAIL (grid 1) or
        # passed on negative case counts
        code = cli.main(["verify", *argv])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "domain error" in captured.err


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

    @pytest.mark.parametrize("argv", [
        ("certify", "--group", "o", "--t", "2.9", "--N", str(2**1024), "--eps", "1e-3", "--D", "1"),
        ("coeffs", "--group", "o", "--t", "2.9", "--N", str(2**1024), "--m", "3"),
    ], ids=["certify", "coeffs"])
    def test_n_beyond_doubles_is_domain_error(self, capsys, argv):
        # float(N) used to leak OverflowError: int too large to convert to float
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert "N must convert to a double" in captured.err

    def test_json_is_sorted_and_deterministic(self, capsys):
        _, first = run(capsys, "coeffs", "--group", "o", "--t", "2.7", "--N", "4", "--m", "3")
        _, second = run(capsys, "coeffs", "--group", "o", "--t", "2.7", "--N", "4", "--m", "3")
        assert first == second
        record = json.loads(first)
        assert list(record) == sorted(record)


# Tokens for the exit-code contract guard: values that are out of range, not
# numbers, too large for a double or an int's digits, and labels that are
# malformed, long or huge.
NUMBERS = ["nan", "inf", "-inf", "-1", "0", "1e308", str(2**64), str(2**1024), "", "x"]
NOT_INTS = ["nan", "inf", "-inf", "1e308", "", "x"]
LEVELS = ["0", "1", "2", "7", str(10**8), str(2**64), str(2**1024)]
WORDS = ["", "a", "ab", "ba", "aab", "c", "aAb", "a b", "a" * 30000, "ab" * 300]


@st.composite
def cli_argvs(draw):
    """An argv for one of the five commands, its values drawn from the token pools.

    A value comes from its option's valid pool, or one time in six from the
    bad one, so that many requests get past the parser.
    """
    def pick(valid, bad=NUMBERS):
        return draw(st.sampled_from(draw(st.sampled_from([valid] * 5 + [bad]))))

    def option(name, valid, bad=NUMBERS, required=False):
        return [name, pick(valid, bad)] if required or draw(st.booleans()) else []

    command = draw(st.sampled_from(["fuse", "dims", "coeffs", "certify", "verify"]))
    argv = [command, *option("--format", ["jsonl", "csv"], ["x"])]
    if command == "verify":
        # the sizes stay small or do not parse: the suites have no work cap
        argv.append(pick(sorted(verify.SUITES), ["x"]))
        for name in ("--max-len", "--max-label", "--grid", "--samples", "--subdivisions"):
            argv += option(name, ["1", "2", "3"], ["-1", "0", *NOT_INTS], required=True)
        return argv + option("--seed", ["0", "7"]) + option("--N", ["3", "4"])
    group = pick(["o", "u"], ["x"])
    argv += ["--group", group]
    if command in ("fuse", "dims"):
        argv += option("--N", ["2", "3", "4"], required=command == "dims")
        labels = LEVELS if group == "o" else WORDS
        return [*argv, "--", *(pick(labels) for _ in range(draw(st.integers(1, 3))))]
    argv += ["--t", pick(["2.5", "2.9", "3"]), "--N", pick(["3", "4"]), *option("--t0", ["2.6"])]
    if command == "coeffs":
        return argv + ["--m", pick(["0", "3", "10"]), *option("--entry-cap", ["100"])]
    return argv + ["--eps", pick(["1e-6"]), *option("--D", ["1.5"], required=group == "o"),
                   *option("--R", ["1.5"], required=group == "u")]


def failures_in(out: str) -> int:
    if out.startswith("{"):
        return sum(row["failures"] for row in json.loads(out)["rows"])
    return sum(int(row["failures"]) for row in csv.DictReader(io.StringIO(out)))


class TestExitCodeContract:
    """Every argv ends in exit 0-4 within a bounded time, never in a traceback."""

    @settings(max_examples=400, deadline=None)
    @given(cli_argvs())
    def test_every_argv_keeps_the_contract(self, argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        elapsed = time.perf_counter() - start
        assert code in (0, 1, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert failures_in(out.getvalue()) > 0
        if code >= 2:
            assert out.getvalue() == ""
        assert elapsed < 2.0


# One request per command and group, with and without the dimension column.
RECORD_ARGVS = [
    "fuse --group o --N 3 2 3",
    "fuse --group u a b a",
    "fuse --group u --N 4 ab ba",
    "dims --group o --N 5 80 3",
    "dims --group u --N 3 ab ''",
    "coeffs --group o --t 2.7 --N 4 --m 5",
    "coeffs --group u --t 2.7 --N 4 --m 3",
    "certify --group o --t 2.9 --N 3 --eps 1e-6 --D 2",
    "certify --group u --t 3.5 --N 4 --eps 1e-4 --R 1.5",
    "verify forms --max-len 6",
    "verify moments --subdivisions 200",
]


class TestRecordSchema:
    """Both writers take a record's columns from its first row."""

    # sha256 of stdout, recorded before the JSON and CSV writers shared one
    # key list per record
    @pytest.mark.parametrize("argv,fmt,digest", [
        ("fuse --group o --N 3 2 3", "jsonl",
         "f1b36737f19f16abb04e8065495721bed386d568468bc663dfc374358fe3d932"),
        ("fuse --group o --N 3 2 3", "csv",
         "4fadbbeba27d8e2e15d4979ba84910f41705538434376126850c1ef231f31afc"),
        ("fuse --group u a b a", "jsonl",
         "002b50541272937039d54bcade259f499c17fd58a2c393a45acd07ed319ff1f0"),
        ("fuse --group u a b a", "csv",
         "0a737b1007bf585930e1d04944fa78729ea710b0300175b93262140d067c5558"),
        ("dims --group o --N 5 80 3", "jsonl",
         "5611785a539b83ebd2dd3f6474ccb9700b5340ddb9e0bf6c5806fabf6c18a0d2"),
        ("dims --group o --N 5 80 3", "csv",
         "b84f94807e9e53a07cca408c440b214fe11455d4fc3dfa9a757e94783a1b7738"),
        ("dims --group u --N 3 ab ''", "jsonl",
         "bd7982e76b8c06589d34a33167db032f14d477f5c580de0ed61a3e6dfc6dc482"),
        ("dims --group u --N 3 ab ''", "csv",
         "d6f45d74a142b95bbefb7bcc7f65d1fce3299512184b0fd13e9f6d33a2585ed2"),
        ("certify --group o --t 2.9 --N 3 --eps 1e-6 --D 2", "jsonl",
         "01903ce6fa4a145a33dabfec9c95996261f325f29bcbb44f3a26ce3c9bd73f47"),
        ("certify --group o --t 2.9 --N 3 --eps 1e-6 --D 2", "csv",
         "ba2094c1b3e58990091d1f7606262af2f093baad08db5e12412c72072bba8914"),
        ("certify --group u --t 3.5 --N 4 --eps 1e-4 --R 1.5", "jsonl",
         "9aeaf86884bc34e3dda533dfd457e76206b7d1180d0f97340615abbe99be8f67"),
        ("certify --group u --t 3.5 --N 4 --eps 1e-4 --R 1.5", "csv",
         "72a6d91a933385c6ff0806ead61ff7a6ea60c14c23c40f416c9aac7c7255781e"),
        ("verify forms --max-len 6", "jsonl",
         "1c89b2162eca599cb1892aafc9b32a103225ce6b3705ac10274fcbb8f593d441"),
        ("verify forms --max-len 6", "csv",
         "915ac67d35674ae5104560d5244eda7d272ffe7289086ff22e42fc01b850e7b0"),
    ])
    def test_stdout_bytes_pinned(self, capsys, argv, fmt, digest):
        code, out = run(capsys, *shlex.split(argv), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv", RECORD_ARGVS)
    def test_rows_share_one_key_set(self, capsys, argv):
        code, record = run_json(capsys, *shlex.split(argv))
        assert code == 0
        assert record["rows"]
        assert {tuple(sorted(row)) for row in record["rows"]} == {tuple(sorted(record["rows"][0]))}

    @pytest.mark.parametrize("argv", RECORD_ARGVS)
    def test_csv_header_is_the_sorted_json_keys(self, capsys, argv):
        _, record = run_json(capsys, *shlex.split(argv))
        _, out = run(capsys, *shlex.split(argv), "--format", "csv")
        lines = out.splitlines()
        assert lines[0].split(",") == sorted(record["rows"][0])
        assert len(lines) == 1 + len(record["rows"])


@pytest.fixture
def str_digits_limit():
    """The interpreter's int-to-str limit, set to its default of 4300 for one test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def first_level_past(limit, N):
    # the smallest n with u_n(N) >= 10**limit, by the integer recursion
    n, prev, cur, bound = 1, 1, N, 10**limit
    while cur < bound:
        n, prev, cur = n + 1, cur, N * cur - prev
    return n


class TestDimensionDigits:
    """A dimension too long for ``str`` exits 4, and one that fits prints."""

    @pytest.mark.parametrize("N", [3, 4, 8])
    def test_limit_is_tight_for_levels(self, capsys, str_digits_limit, N):
        top = first_level_past(str_digits_limit, N)
        code, record = run_json(capsys, "dims", "--group", "o", "--N", str(N), str(top - 1))
        assert code == 0
        assert len(record["rows"][0]["dimension"]) == str_digits_limit
        code = cli.main(["dims", "--group", "o", "--N", str(N), str(top)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (4, "")
        assert f"label {top} for N={N}" in captured.err

    def test_limit_is_tight_for_words(self, capsys, str_digits_limit):
        # the word a^k has dimension 3**k at N = 3
        k = math.ceil(str_digits_limit / math.log10(3))
        assert 3 ** (k - 1) < 10**str_digits_limit <= 3**k
        code, _ = run(capsys, "dims", "--group", "u", "--N", "3", "a" * (k - 1), "ab" * 500)
        assert code == 0
        code, out = run(capsys, "dims", "--group", "u", "--N", "3", "ab", "a" * k)
        assert (code, out) == (4, "")

    def test_limit_is_exact_for_levels_at_n2(self, capsys, str_digits_limit):
        # u_n(2) = n + 1: the level 10**limit - 2 has a dimension of exactly limit nines
        level = 10**str_digits_limit - 2
        code, record = run_json(capsys, "dims", "--group", "o", "--N", "2", str(level))
        assert code == 0
        assert record["rows"][0]["dimension"] == "9" * str_digits_limit
        code, out = run(capsys, "dims", "--group", "o", "--N", "2", str(level + 1))
        assert (code, out) == (4, "")

    def test_limit_is_exact_for_words_at_n2(self, capsys, str_digits_limit):
        # the word a^k has dimension 2**k at N = 2
        k = math.ceil(str_digits_limit / math.log10(2))
        assert 2 ** (k - 1) < 10**str_digits_limit <= 2**k
        code, record = run_json(capsys, "dims", "--group", "u", "--N", "2", "a" * (k - 1))
        assert code == 0
        assert record["rows"][0]["dimension"] == str(2 ** (k - 1))
        code, out = run(capsys, "dims", "--group", "u", "--N", "2", "a" * k)
        assert (code, out) == (4, "")

    def test_limit_at_an_n_past_a_double(self, capsys, str_digits_limit):
        # u_10(N) has 4,000 digits and u_11(N) 4,400 at N = 10**400
        N = str(10**400)
        code, record = run_json(capsys, "dims", "--group", "o", "--N", N, "0", "1", "10")
        assert code == 0
        assert [row["dimension"] for row in record["rows"]][:2] == ["1", N]
        assert len(record["rows"][2]["dimension"]) == 4000
        code, out = run(capsys, "dims", "--group", "o", "--N", N, "0", "1", "10", "11")
        assert (code, out) == (4, "")

    def test_follows_the_interpreter_limit(self, capsys, str_digits_limit):
        assert run(capsys, "dims", "--group", "o", "--N", "3", "10300")[0] == 4
        sys.set_int_max_str_digits(5000)
        assert run(capsys, "dims", "--group", "o", "--N", "3", "10300")[0] == 0

    @pytest.mark.parametrize("argv,code", [
        ("dims --group o --N 3 10300", 4),
        ("dims --group o --N 8 4800", 4),
        ("dims --group u --N 3 " + "a" * 30000, 4),
        ("fuse --group o --N 3 6000 6000", 4),
        ("dims --group o --N 3 100000000", 4),
        ("dims --group o --N 3 " + "9" * 400, 4),
        ("dims --group o --N 2 1000000000", 0),
        ("dims --group o --N 2 " + " ".join(d * 4299 for d in "987"), 0),
    ], ids=["o-3-10300", "o-8-4800", "u-3-a30000", "fuse-o-3-6000-6000", "o-3-1e8",
            "o-3-400-digits", "o-2-1e9", "o-2-three-4299-digits"])
    def test_exit_code_within_wall_time(self, capsys, str_digits_limit, argv, code):
        start = time.perf_counter()
        result = cli.main(argv.split())
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert result == code
        assert elapsed < 2.0
        assert "Traceback" not in captured.err
        if code == 4:
            assert captured.out == ""
            assert "resource error" in captured.err

    def test_long_word_is_named_by_its_length(self, capsys, str_digits_limit):
        code = cli.main(["dims", "--group", "u", "--N", "3", "a" * 30000])
        captured = capsys.readouterr()
        assert (code, captured.out) == (4, "")
        assert len(captured.err.encode()) < 200
        assert f"label {'a' * 20!r}... of 30000 letters for N=3" in captured.err

    def test_small_n_and_negative_level_are_still_domain_errors(self, capsys, str_digits_limit):
        for argv in (["dims", "--group", "o", "--N", "1", "3"],
                     ["dims", "--group", "u", "--N", "1", "ab"],
                     ["dims", "--group", "o", "--N", "3", "--", "-1"],
                     ["fuse", "--group", "o", "--N", "1", "1", "1"]):
            assert cli.main(argv) == 3
            assert "domain error" in capsys.readouterr().err


NUMPY_PROBE = """
import contextlib, io, json, sys
seen = {}
import freeqg
seen["import freeqg"] = "numpy" in sys.modules
import freeqg.cli
seen["import freeqg.cli"] = "numpy" in sys.modules
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = freeqg.cli.main(argv)
    seen[" ".join(argv[:1])] = ["numpy" in sys.modules, code]
print(json.dumps(seen))
"""


class TestProcessState:
    """One process serves many requests: numpy loads late, nothing carries over."""

    def test_numpy_loads_only_on_first_use(self, src_env):
        requests = [
            ["certify", "--group", "o", "--t", "2.5", "--N", "3", "--D", "1", "--eps", "1e-3"],
            ["coeffs", "--group", "u", "--t", "2.7", "--N", "4", "--m", "3"],
            ["dims", "--group", "u", "--N", "3", "aba"],
            ["fuse", "--group", "o", "1", "1"],
            ["verify", "decay", "--N", "3", "--grid", "2", "--max-len", "2"],
        ]
        result = subprocess.run([sys.executable, "-c", NUMPY_PROBE, json.dumps(requests)],
                                capture_output=True, text=True, timeout=60, env=src_env)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == {
            "import freeqg": False,
            "import freeqg.cli": False,
            "certify": [False, 0],
            "coeffs": [False, 0],
            "dims": [False, 0],
            "fuse": [False, 0],
            "verify": [True, 0],
        }

    def test_module_caches_are_bounded(self):
        # a process serving many requests must not grow a cache without
        # limit; the parser cache takes no arguments, so it holds one entry
        import importlib
        import pkgutil

        import freeqg

        unbounded = []
        for info in pkgutil.iter_modules(freeqg.__path__):
            module = importlib.import_module(f"freeqg.{info.name}")
            for name, value in vars(module).items():
                if hasattr(value, "cache_info") and value.cache_info().maxsize is None:
                    unbounded.append(f"{info.name}.{name}")
        assert unbounded == ["cli._build_parser"]

    def test_in_process_sequence_matches_fresh_processes(self, capsys, src_env):
        decay = ["verify", "decay", "--grid", "2", "--max-len", "2"]
        sequence = [
            ["certify", "--group", "o", "--bogus"],
            ["certify", "--group", "o", "--t", "2.5", "--N", "3", "--D", "1", "--eps", "1e-3"],
            [*decay, "--N", "3", "--N", "4"],
            decay,
            ["coeffs", "--group", "u", "--t", "2.7", "--N", "4", "--m", "3", "--format", "csv"],
            ["dims", "--group", "o", "--N", "3", "5"],
        ]
        in_process = [run(capsys, *argv) for argv in sequence]
        assert cli._build_parser() is cli._build_parser()
        fresh = []
        for argv in sequence:
            result = subprocess.run([sys.executable, "-m", "freeqg.cli", *argv],
                                    capture_output=True, text=True, timeout=60, env=src_env)
            fresh.append((result.returncode, result.stdout))
        assert in_process == fresh
        assert [code for code, _ in in_process] == [2, 0, 0, 0, 0, 0]
        # the default --N of verify decay is (3, 4, 5, 6) after a request that
        # appended 3 and 4: 61 levels at 2 grid points per N
        cases = [
            {row["check"]: row["cases"] for row in json.loads(out)["rows"]}["orth_coeff_decay"]
            for _, out in in_process[2:4]
        ]
        assert cases == [2 * 2 * 61, 4 * 2 * 61]


# The JSON writer before its fast paths, kept as the reference.
def reference_json_token(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".15g")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return reference_json_string(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(reference_json_token(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(
            f"{reference_json_string(str(k))}:{reference_json_token(v)}" for k, v in items
        ) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def reference_json_string(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


texts = st.text(alphabet=st.sampled_from('ab"\\\x00\x01\x1f\x7f é€αβ\u2028𝔘')) | st.text()
scalars = (st.none() | st.booleans() | st.integers() | st.integers(min_value=10**30)
           | st.floats() | texts)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(texts | st.integers(), inner, max_size=4),
    max_leaves=20,
)


@st.composite
def row_lists(draw):
    """Lists of dicts over one key set; sometimes one row lacks a key or has an extra one."""
    keys = draw(st.lists(texts | st.integers(-2, 2), max_size=4, unique=True))
    rows = draw(st.lists(st.fixed_dictionaries({k: values for k in keys}), min_size=1,
                         max_size=5))
    change = draw(st.sampled_from(["none", "missing", "extra", "non-dict"]))
    index = draw(st.integers(0, len(rows) - 1))
    if change == "missing" and keys:
        rows[index].pop(draw(st.sampled_from(keys)))
    elif change == "extra":
        rows[index][draw(texts)] = draw(scalars)
    elif change == "non-dict":
        rows[index] = draw(scalars)
    return rows


class TestJsonWriter:
    @settings(max_examples=200, deadline=None)
    @given(values | row_lists())
    def test_matches_reference_writer(self, value):
        assert cli._json_token(value) == reference_json_token(value)

    def test_examples(self):
        for value in ([], [[]], [{}], [{}, {}], (1, 2.5), [{"b": True, "a": None}] * 3,
                      [{"k": 1}, {"k": 2, "x": 3}], [{1: "a", "1": "b"}, {"1": "b", 1: "a"}],
                      {"s": '"\\\x00\x1fé'}, 10**40, -(10**40), False, True):
            assert cli._json_token(value) == reference_json_token(value)


def reference_csv(keys, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(keys)
    writer.writerows([cli._csv_cell(row[key]) for key in keys] for row in rows)
    return buf.getvalue()


keys_text = st.text(alphabet=st.sampled_from('ab%"\\,\r\n\x00é')) | texts
column_kinds = {
    "float": st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    "int": st.integers() | st.integers(min_value=10**30),
    "str": texts,
    "mixed": (scalars | st.sampled_from([True, 1, 1.0, 0.0, -0.0])
              | st.floats().map(np.float64)),
}


@st.composite
def column_records(draw):
    """Records whose columns share one length; each column of one kind, or mixed.

    Some records give one more column as runs, possibly their only column.
    """
    runs = draw(st.booleans())
    keys = draw(st.lists(keys_text, min_size=1 - runs, max_size=4, unique=True))
    length = draw(st.integers(1, 6))
    columns = {
        key: draw(st.lists(column_kinds[draw(st.sampled_from(sorted(column_kinds)))],
                           min_size=length, max_size=length))
        for key in keys
    }
    if runs:
        cuts = sorted(draw(st.sets(st.integers(1, length - 1))) if length > 1 else ())
        counts = [end - start for start, end in zip([0, *cuts], [*cuts, length])]
        values = draw(st.lists(column_kinds[draw(st.sampled_from(sorted(column_kinds)))],
                               min_size=len(counts), max_size=len(counts)))
        columns[draw(keys_text.filter(lambda key: key not in columns))] = cli.Runs(
            zip(values, counts))
    params = draw(st.dictionaries(texts, scalars, max_size=3))
    return {"command": draw(texts), "params": params, "columns": columns}


def expanded(column):
    """A column's values, one per row, with any runs expanded."""
    if isinstance(column, cli.Runs):
        return [value for value, count in column for _ in range(count)]
    return column


# Characters JSON does not escape, non-ASCII ones among them (they encode to "?"), and the 34
# characters it does escape.
UNESCAPED = ["\x7f", "\u2028", "\u00e9", "\ud800", "?"]
ESCAPED = [chr(i) for i in range(0x20)] + ['"', "\\"]


class TestColumnWriter:
    """_emit over columns writes what the row writers wrote over the same rows."""

    @staticmethod
    def check(record):
        keys = sorted(record["columns"])
        rows = [dict(zip(keys, values))
                for values in zip(*(expanded(record["columns"][k]) for k in keys))]
        out = io.StringIO()
        cli._emit(record, "jsonl", out)
        assert out.getvalue() == (
            '{"command":' + reference_json_token(record["command"])
            + ',"params":' + reference_json_token(record["params"])
            + ',"rows":' + reference_json_token(rows) + "}\n"
        )
        out = io.StringIO()
        cli._emit(record, "csv", out)
        assert out.getvalue() == reference_csv(keys, rows)

    @settings(max_examples=300, deadline=None)
    @given(column_records())
    def test_matches_the_row_writers(self, record):
        self.check(record)

    @pytest.mark.parametrize("columns", [
        {"x": [0.0, -0.0, 0.5, 0.5]},
        {"x": [-0.0, 0.25, -0.0]},
        {"x": [math.nan, 0.5, math.nan, float("nan")], "y": [math.inf, -math.inf, 1e300, 5e-324]},
        {"x": [True, 1, 1.0, False, 0, -0.0]},
        {"x": [10**40, -(10**31), 7]},
        {"x": [np.float64(0.1), 0.1, np.float64(-0.0)]},
        {"x": ['a"b', "c\\d", "e\x00", "plain"]},
        {"%s": ["1"], 'k"': ["2"], "k\\": ["3"], "%%": ["4"]},
        {"k": [""]},
        {"k": ["", ""], "j": ["x", ""]},
        # cells and keys that csv.writer quotes, and the lone empty cell it quotes
        {"x": ["a,b", 'c"d', "e\rf", "g\nh", "plain"], "y": [1, 2, 3, 4, 5]},
        {"x": ["a,b", "c"], "y": [1, 2]},
        {",": ["1"], '"': ["2"], "\r": ["3"], "\n": ["4"], "k": ["5"]},
        {",": [1.5], "y": [2]},
        # runs: a run value that needs escaping or quoting, or holds %, and a run column alone
        {"level": cli.Runs([(0, 1), (1, 2), (2, 4)]), "label": ["", "a", "b", "aa", "ab", "ba", "bb"]},
        {"k": cli.Runs([("a,b", 2), ('"', 1)]), "j": [1, 2, 3]},
        {"k": cli.Runs([("a", 1), ("b,c", 1)]), "j": [1, 2]},
        {"%s": cli.Runs([("%", 1), ("%%s", 2)]), "%": [0.5, -0.0, 0.5], "\\": ["\x00", "", "x"]},
        {"k": cli.Runs([(0.5, 2), (-0.0, 1), (math.nan, 1)]), ",": ["a", "b", "c", "d"]},
        {"k": cli.Runs([("", 2)])},
        {"k": cli.Runs([("x", 1), (7, 2)])},
        # a str column with one character JSON does not escape, or with one it does, alone
        *({"x": ["ab", "a" + char + "b", char], "y": [1, 2, 3]} for char in UNESCAPED),
        *({"x": [char], "y": [0]} for char in ESCAPED),
    ])
    def test_examples(self, columns):
        self.check({"command": "coeffs", "params": {"t": 2.5}, "columns": columns})

    @pytest.mark.parametrize("char", UNESCAPED + ESCAPED)
    def test_only_unescaped_str_columns_take_the_fast_path(self, char):
        # the fast path puts the column's strings in the row template unchanged
        fast = '"%s"', "%s"
        for fmt, slot in zip(("jsonl", "csv"), fast):
            assert (cli._cells(["ab", char], fmt)[0] == slot) == (char in UNESCAPED)
