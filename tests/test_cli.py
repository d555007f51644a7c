import hashlib
import json
import subprocess
import sys

import pytest

from triprod.suite import builtin_lines, numbered_lines, strip_lines

BASE = [sys.executable, "-m", "triprod"]
FAST = ["--trials", "120"]


def run_cli(*args, **kwargs):
    return subprocess.run(BASE + list(args), capture_output=True, text=True, **kwargs)


def test_suite_passes_and_exits_zero():
    result = run_cli("suite", *FAST)
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert len(lines) == len(builtin_lines(8))
    assert all(line.startswith("PASS") for line in lines)
    assert "no counterexample found" in lines[0]


def test_suite_dim4_reports_stronger_facts():
    result = run_cli("suite", "--dim", "4", *FAST)
    assert result.returncode == 0
    assert "assoc(u1,u2,u3) == 0*i0" in result.stdout
    assert "(u1*u2)*u3 == u1*(u2*u3)" in result.stdout
    assert all(line.startswith("PASS") for line in result.stdout.splitlines())


def test_suite_binary64_with_tolerance():
    result = run_cli("suite", "--backend", "binary64", "--tolerance", "1e-9", *FAST)
    assert result.returncode == 0
    assert all(line.startswith("PASS") for line in result.stdout.splitlines())


def test_suite_json_schema():
    result = run_cli("suite", "--format", "json", *FAST)
    assert result.returncode == 0
    for line in result.stdout.splitlines():
        obj = json.loads(line)
        assert list(obj) == [
            "identity", "status", "trials", "failures", "max_deviation",
            "witness", "dim", "backend", "seed",
        ]
        assert obj["status"] == "PASS"
        assert obj["trials"] == 120
        assert obj["dim"] == 8
        assert obj["backend"] == "exact"
        assert obj["seed"] == 42


def test_suite_output_is_byte_stable():
    first = run_cli("suite", *FAST)
    second = run_cli("suite", *FAST)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0
    json_first = run_cli("suite", "--format", "json", *FAST)
    json_second = run_cli("suite", "--format", "json", *FAST)
    assert json_first.stdout == json_second.stdout


# sha256 of the stdout of `triprod suite --trials 20 --seed 42`, per backend
# and dim.  They pin every sampled coefficient and, on binary64, the order of
# every float operation: a faster kernel, sampler or evaluator must leave
# them unchanged.  A change here is a change to every report users see.
PINNED_REPORTS = {
    ("exact", "8"): "e70eac7d4f0b74f4e9ac894206fb08d81c16b5dce4309362c9120c126145d156",
    ("exact", "4"): "b434b3f254bf278453a69dd45eb892fab1a22017ab45642f914eed0a6ba4b524",
    ("binary64", "8"): "a6fce1050b0aa3a856f3cd358e5e0c4acfdf04cb9df16f323bbd58a1f7bdb0ea",
    ("binary64", "4"): "f8883d337b2efe05b5d532e9ce0aa03ddfb18e5f8763203e54a45997141d6bea",
}


@pytest.mark.parametrize("backend,dim", sorted(PINNED_REPORTS))
def test_suite_reports_are_pinned(backend, dim):
    result = run_cli("suite", "--trials", "20", "--seed", "42", "--backend", backend, "--dim", dim)
    assert result.returncode == 0
    digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
    assert digest == PINNED_REPORTS[(backend, dim)]


# Suite samples are small integers, so binary64 suite arithmetic is mostly
# exact and would hide a reordered float operation.  These rational inputs
# round at nearly every step.  The digest pins the arguments, the product and
# the three parts (the first seven lines), which only products, sums and
# halvings make; the inner products and lengths after them go through the
# built-in sum(), whose float rounding differs from Python 3.12 on.
ROUNDING_TRIPLE = (
    "1/3,-2/7,5/11,1/13,-17/19,23/29,-1/31,37/41",
    "3/5,1/9,-4/17,11/23,-7/27,13/31,1/37,-19/43",
    "5/7,2/3,1/29,-31/37,3/41,-5/47,43/53,-1/59",
)


def test_decompose_binary64_parts_are_pinned():
    result = run_cli("decompose", "--backend", "binary64", *ROUNDING_TRIPLE)
    assert result.returncode == 0
    parts = "".join(result.stdout.splitlines(keepends=True)[:7])
    assert parts.splitlines()[-1].startswith("associator     = ")
    digest = hashlib.sha256(parts.encode("utf-8")).hexdigest()
    assert digest == "16cbd159b522945343b4bcd159abc9e971353be355b1e9bfbe2ff40469ea8fef"
    # The whole report, inner products and squared lengths included, as
    # Python 3.11 printed it: sums of products are added left to right, never
    # with the compensated float `sum()` of Python 3.12 and later.
    whole = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
    assert whole == "384428eceed75a2afffb30549c9d93331f84e6dfcd63593217396c5a85b9e055"


def _one_error_line(stderr: str) -> bool:
    return stderr.startswith("error: ") and stderr.count("\n") == 1


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python prints integers of any length")
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_decompose_result_too_long_to_print(fmt):
    result = run_cli("decompose", "--dim", "2", "--format", fmt, "1e5000,0", "1,0", "1,0")
    assert result.returncode == 3
    assert _one_error_line(result.stderr)
    assert "digits" in result.stderr
    assert result.stdout == ""


def test_decompose_binary64_result_beyond_range():
    # 1e308**3 overflows: the parts would print as inf and nan.
    result = run_cli("decompose", "--backend", "binary64", "--dim", "1", "1e308", "1e308", "1e308")
    assert result.returncode == 3
    assert _one_error_line(result.stderr)
    assert "binary64 range" in result.stderr
    assert result.stdout == ""


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python prints integers of any length")
def test_decompose_result_too_long_to_print_from_printable_inputs():
    # Each input has 1501 digits; their product has 4501.
    result = run_cli("decompose", "--dim", "1", "1e1500", "1e1500", "1e1500", timeout=60)
    assert result.returncode == 3
    assert _one_error_line(result.stderr)
    assert "a result has more than" in result.stderr
    assert result.stdout == ""


# Fraction("1e10000000") alone takes seconds to build its power of ten; a
# coefficient like it must be answered at once.
@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python prints integers of any length")
@pytest.mark.parametrize("coeff", ["1e10000000", "-1e-10000000", "2.5E+99999999"])
def test_decompose_exact_coefficient_too_long_to_print(coeff):
    result = run_cli("decompose", "--dim", "1", "--", coeff, "1", "1", timeout=30)
    assert result.returncode == 3
    assert _one_error_line(result.stderr)
    assert f"coefficient {coeff!r} has more than" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("coeff", ["1e10000000", "-10.5e+99999999"])
def test_decompose_binary64_huge_exponent_overflows(coeff):
    result = run_cli("decompose", "--backend", "binary64", "--dim", "1", "--", coeff, "1", "1",
                     timeout=30)
    assert result.returncode == 3
    assert _one_error_line(result.stderr)
    assert f"coefficient {coeff!r} is beyond the binary64 range" in result.stderr


@pytest.mark.parametrize("backend,coeff,printed", [
    ("binary64", "1e-10000000", "0.0"),
    ("binary64", "-1e-10000000", "-0.0"),  # as float(Fraction(-1, 10**10000000))
    ("binary64", "-0.0e10000000", "0.0"),
    ("exact", "-0.000e-10000000", "0"),
])
def test_decompose_huge_exponent_rounds_as_before(backend, coeff, printed):
    result = run_cli("decompose", "--backend", backend, "--dim", "1", "--", coeff, "1", "1",
                     timeout=30)
    assert result.returncode == 0
    assert result.stdout.startswith(f"u1             = {printed}\n")


@pytest.mark.parametrize("coeff", ["1e_10000000", "1..5e10000000", "e10000000", "1e10000000e1"])
def test_decompose_malformed_huge_exponent(coeff):
    result = run_cli("decompose", "--dim", "1", "--", coeff, "1", "1", timeout=30)
    assert result.returncode == 3
    assert _one_error_line(result.stderr)
    assert "bad coefficient" in result.stderr


def test_check_binary64_overflow_is_a_failure(tmp_path):
    # Coefficients near 1e200 overflow every product to inf, and inf - inf
    # to NaN; both lines are false at dim 8 and must never PASS.
    path = tmp_path / "overflow.ids"
    path.write_text("(u1*u2)*u3 == u1*(u2*u3)\nu1*u2 == u2*u1\n")
    result = run_cli("check", str(path), "--backend", "binary64", "--trials", "5",
                     "--coeff-range", str(10**200))
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    assert len(lines) == 2
    for line in lines:
        assert "FAIL" in line
        assert "max_deviation=nan" in line or "max_deviation=inf" in line


def test_coeff_range_beyond_binary64():
    result = run_cli("suite", "--backend", "binary64", "--coeff-range", str(10**400))
    assert result.returncode == 3
    assert _one_error_line(result.stderr)
    assert result.stdout == ""


def test_numbered_lines_skip_comments_and_blanks():
    text = "u1 == u1  # first\n\n# only a comment\n  i0*u1 == u1\n"
    assert numbered_lines(text) == [(1, "u1 == u1"), (4, "i0*u1 == u1")]
    assert strip_lines(text) == ["u1 == u1", "i0*u1 == u1"]


def test_tolerance_rejected_on_exact_backend():
    result = run_cli("suite", "--tolerance", "1e-9", *FAST)
    assert result.returncode == 3
    assert "binary64" in result.stderr


@pytest.mark.parametrize("tolerance", ["nan", "-1", "0", "inf"])
def test_tolerance_must_be_positive_and_finite(tolerance):
    result = run_cli("suite", "--backend", "binary64", "--tolerance", tolerance, *FAST)
    assert result.returncode == 3
    assert _one_error_line(result.stderr)
    assert result.stdout == ""


def test_check_non_utf8_file(tmp_path):
    path = tmp_path / "latin1.ids"
    path.write_bytes(b"u1 == u1\nnormsq(u1) == 1 # \xe9\n")
    result = run_cli("check", str(path), *FAST)
    assert result.returncode == 3
    assert _one_error_line(result.stderr)
    assert "UTF-8" in result.stderr


def test_check_reports_malformed_identities(tmp_path):
    path = tmp_path / "malformed.ids"
    path.write_text(
        "u1 == \u00b2*u1\n"                               # a non-ASCII digit
        + "u1 == " + "(" * 3000 + "u1" + ")" * 3000 + "\n"  # nested too deeply
        + "i0*u1 == u1\n",
        encoding="utf-8",
    )
    result = run_cli("check", str(path), *FAST)
    assert result.returncode == 3
    assert result.stderr == ""
    lines = result.stdout.splitlines()
    assert lines[0].startswith("line 1: PARSE_ERROR") and "col 7: unexpected character" in lines[0]
    assert lines[1].startswith("line 2: PARSE_ERROR") and "nested too deeply" in lines[1]
    assert lines[2].startswith("line 3: PASS")


def test_stdout_closed_early_exits_quietly(tmp_path):
    # Far more output than a pipe buffers, so writes still fail after the
    # reader has gone, as they do for `triprod suite | head -1`.
    path = tmp_path / "many.ids"
    path.write_text("i0 == i0\n" * 3000, encoding="utf-8")
    proc = subprocess.Popen(BASE + ["check", str(path), "--trials", "1"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"line 1: PASS")
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert stderr == b""


def test_check_passing_file(tmp_path):
    path = tmp_path / "ok.ids"
    path.write_text(
        "# decomposition of the triple product\n"
        "(u1*conj(u2))*u3 == acomm3(u1,u2,u3) + cross3(u1,u2,u3) + assoc(u1,u2,u3)\n",
        encoding="utf-8",
    )
    result = run_cli("check", str(path), *FAST)
    assert result.returncode == 0
    assert result.stdout.startswith("line 2: PASS")


def test_check_associativity_fails_with_witness(tmp_path):
    path = tmp_path / "assoc.ids"
    path.write_text("(u1*u2)*u3 == u1*(u2*u3)\n", encoding="utf-8")
    result = run_cli("check", str(path), *FAST)
    assert result.returncode == 1
    assert "FAIL" in result.stdout
    assert "witness:" in result.stdout


def test_check_missing_file():
    result = run_cli("check", "/no/such/file.ids")
    assert result.returncode == 2
    assert result.stderr != ""


def test_check_parse_error_reports_all_lines(tmp_path):
    path = tmp_path / "mixed.ids"
    path.write_text(
        "i0*u1 == u1\n"
        "inner(u1,\n"
        "u1*i0 == u1\n",
        encoding="utf-8",
    )
    result = run_cli("check", str(path), *FAST)
    assert result.returncode == 3
    lines = result.stdout.splitlines()
    assert len(lines) == 3  # every line reported, parse error included
    assert lines[0].startswith("line 1: PASS")
    assert lines[1].startswith("line 2: PARSE_ERROR")
    assert lines[2].startswith("line 3: PASS")


def test_check_parse_error_outranks_failures(tmp_path):
    path = tmp_path / "both.ids"
    path.write_text(
        "(u1*u2)*u3 == u1*(u2*u3)\n"   # fails at dim 8
        "inner(u1,\n",                 # does not parse
        encoding="utf-8",
    )
    result = run_cli("check", str(path), *FAST)
    assert result.returncode == 3
    assert "FAIL" in result.stdout and "PARSE_ERROR" in result.stdout


def test_decompose_unit_center():
    result = run_cli(
        "decompose", "0,1,0,0,0,0,0,0", "1,0,0,0,0,0,0,0", "0,0,1,0,0,0,0,0",
    )
    assert result.returncode == 0
    out = result.stdout
    assert "anticommutator = 0,0,0,0,0,0,0,0" in out
    assert "cross          = 0,0,0,1,0,0,0,0" in out  # cross2(e1, e2) = e3
    assert "associator     = 0,0,0,0,0,0,0,0" in out


def test_decompose_basis_triple_json():
    result = run_cli(
        "decompose", "0,1,0,0,0,0,0,0", "0,0,1,0,0,0,0,0", "0,0,0,0,1,0,0,0",
        "--format", "json",
    )
    assert result.returncode == 0
    obj = json.loads(result.stdout)
    assert obj["associator"] == ["0", "0", "0", "0", "0", "0", "0", "-1"]
    assert obj["squared_lengths"] == {"anticommutator": "0", "cross": "0", "associator": "1"}
    assert obj["squared_length_sum"] == "1"
    assert obj["norm_product"] == "1"
    assert set(obj["inner_products"].values()) == {"0"}


def test_decompose_accepts_rational_coefficients():
    result = run_cli("decompose", "--dim", "2", "1/2,0", "1,0", "2,0")
    assert result.returncode == 0
    assert "(u1*conj(u2))*u3 = 1,0" in result.stdout


def test_decompose_binary64_backend():
    result = run_cli(
        "decompose", "--dim", "4", "--backend", "binary64",
        "1/2,0,0,0", "1,0,0,0", "2,0,0,0",
    )
    assert result.returncode == 0
    assert "(u1*conj(u2))*u3 = 1.0,0.0,0.0,0.0" in result.stdout


def test_decompose_wrong_length():
    result = run_cli("decompose", "0,1", "1,0", "0,0", "--dim", "8")
    assert result.returncode == 3
    assert "expected 8" in result.stderr


def test_decompose_binary64_overflow():
    result = run_cli(
        "decompose", "--backend", "binary64",
        "1e400,0,0,0,0,0,0,0", "0,1,0,0,0,0,0,0", "0,0,1,0,0,0,0,0",
    )
    assert result.returncode == 3
    assert _one_error_line(result.stderr)
    assert "1e400" in result.stderr


def test_decompose_malformed_coefficient():
    result = run_cli("decompose", "--dim", "2", "a,b", "1,0", "0,1")
    assert result.returncode == 3
    assert "bad coefficient" in result.stderr


def test_table_dim2():
    result = run_cli("table", "--dim", "2")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 4
    assert "-e0" in lines[-1]  # e1*e1 = -i0


def test_table_dim8_has_64_entries():
    result = run_cli("table")
    assert result.returncode == 0
    body = result.stdout.splitlines()[2:]
    assert len(body) == 8
    cells = [cell for line in body for cell in line.split("|")[1].split()]
    assert len(cells) == 64


def test_table_dim4_antisymmetric_off_diagonal():
    result = run_cli("table", "--dim", "4")
    body = result.stdout.splitlines()[2:]
    grid = [line.split("|")[1].split() for line in body]
    for i in range(1, 4):
        for j in range(1, 4):
            if i != j:
                flipped = ("-" if grid[j][i][0] == "+" else "+") + grid[j][i][1:]
                assert grid[i][j] == flipped


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_suite_lower_dims_pass(dim):
    result = run_cli("suite", "--dim", str(dim), "--trials", "60")
    assert result.returncode == 0
