import hashlib
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
