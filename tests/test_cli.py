import gc
import io
import json
import math
import random
from fractions import Fraction

import pytest

from oracles import render_polynomial
from pseudopoly import AuditConfig, ExactSequence, InputError, IntPolynomial
from pseudopoly import generate_primary, ruzsa_audit
from pseudopoly import hankel
from pseudopoly.hankel import HankelRecord, InvarianceReport
from pseudopoly.cli import (
    CONGRUENCE_TERMS_LIMIT,
    GEN_TERMS_LIMIT,
    INVARIANCE_TERMS_LIMIT,
    LEJA_POINTS_LIMIT,
    TRANSFORM_TERMS_LIMIT,
    run_cli,
)
from pseudopoly.formats import (
    audit_json_obj,
    dumps,
    hankel_csv,
    hankel_json_obj,
    invariance_json_obj,
    parse_polynomial,
    parse_sequence,
    render_sequence,
)


def fibonacci(count):
    terms = [0, 1]
    while len(terms) < count:
        terms.append(terms[-1] + terms[-2])
    return terms[:count]


def write_sequence(tmp_path, name, terms):
    path = tmp_path / name
    path.write_text("\n".join(str(t) for t in terms) + "\n")
    return str(path)


class TestFormats:
    def test_parse_newline_format(self):
        seq = parse_sequence("1\n-2\n3\n")
        assert list(seq) == [1, -2, 3]

    def test_parse_json_strings(self):
        seq = parse_sequence('["5", "-17", "123456789012345678901234567890"]')
        assert list(seq) == [5, -17, 123456789012345678901234567890]

    def test_parse_rejects_floats(self):
        with pytest.raises(InputError):
            parse_sequence("[1.5, 2]")
        with pytest.raises(InputError):
            parse_sequence("1.5\n2\n")

    def test_parse_rejects_empty(self):
        with pytest.raises(InputError):
            parse_sequence("   \n  ")

    def test_render_round_trip(self):
        seq = ExactSequence.of([3, -1, 4])
        assert list(parse_sequence(render_sequence(seq, "lines"))) == [3, -1, 4]
        assert list(parse_sequence(render_sequence(seq, "json"))) == [3, -1, 4]

    def test_polynomial_round_trip(self):
        poly = IntPolynomial.of([2, -7, 0, 1])
        assert parse_polynomial(render_polynomial(poly)) == poly

    def test_polynomial_rejects_fractions(self):
        with pytest.raises(InputError):
            parse_polynomial('["1/2"]')

    def test_renders_integers_past_the_str_digit_limit(self):
        # str() refuses ints of more than 4300 digits; reports print them whole
        big = 10**4999 + 7
        digits = "1" + "0" * 4998 + "7"
        records = [
            HankelRecord(1, -big, big, (), True, None),
            HankelRecord(2, Fraction(big, 3), 1, (), True, None),
        ]
        obj = json.loads(dumps(hankel_json_obj(records)))
        assert [r["det"] for r in obj] == ["-" + digits, digits + "/3"]
        assert obj[0]["required_divisor"] == digits
        assert hankel_csv(records).splitlines()[1:] == [
            f"1,-{digits},{digits},true,",
            f"2,{digits}/3,1,true,",
        ]
        assert str(IntPolynomial.of([big, -big])) == f"{digits} - {digits}*x"

    def test_invariance_failure_is_written_with_its_order_and_check(self):
        report = InvarianceReport(False, 5, (3, "entrywise"))
        assert dumps(invariance_json_obj(report)) == (
            '{\n  "checked_max": 5,\n  "first_failure": {\n    "check": "entrywise",\n'
            '    "n": 3\n  },\n  "passed": false\n}\n'
        )

    @pytest.mark.parametrize(
        "value",
        [{1, 2}, b"bytes", {1: "a"}, {"a": [{"b": 0, 2: 3}]}, [frozenset()]],
        ids=["set", "bytes", "int-key", "nested-int-key", "frozenset"],
    )
    def test_dumps_rejects_what_json_cannot_encode(self, value):
        with pytest.raises(TypeError):
            dumps(value)

    def test_dumps_makes_no_reference_cycles(self):
        # A cycle would hold every piece of the report until the cyclic
        # collector ran, raising the peak memory of a run of audits.
        report = audit_json_obj(ruzsa_audit(generate_primary([1, -2, 3] * 10, 30), AuditConfig()))
        gc.collect()
        gc.disable()
        try:
            dumps(report)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestGen:
    def test_gen_poly(self, capsys):
        code = run_cli(
            ["gen", "poly", "--coeffs", '["2", "-7", "0", "1"]', "--n-max", "5"]
        )
        assert code == 0
        assert capsys.readouterr().out == "2\n-4\n-4\n8\n38\n"

    def test_gen_poly_from_file(self, tmp_path, capsys):
        path = tmp_path / "poly.json"
        path.write_text('["0", "0", "1"]')
        assert run_cli(["gen", "poly", "--coeffs", f"@{path}", "--n-max", "4"]) == 0
        assert capsys.readouterr().out == "0\n1\n4\n9\n"

    def test_gen_primary_is_seeded_and_congruent(self, capsys):
        assert run_cli(["gen", "primary", "--n-max", "12", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert run_cli(["gen", "primary", "--n-max", "12", "--seed", "3"]) == 0
        assert capsys.readouterr().out == first
        terms = [int(line) for line in first.split()]
        assert len(terms) == 12

    def test_gen_hall_zero_perturbation(self, capsys):
        assert run_cli(["gen", "hall", "--n-max", "6", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == ["0"] * 6

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "primary", "--n-max", "5", "--bound", "-1"],
            ["gen", "hall", "--n-max", "5", "--seed", "1", "--bound", "-1"],
        ],
        ids=["primary", "hall"],
    )
    def test_negative_bound_is_input_error(self, argv, capsys):
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --bound must be >= 0")

    @pytest.mark.parametrize(
        "generator",
        [["poly", "--coeffs", '["1"]'], ["primary"], ["hall", "--seed", "1"]],
        ids=["poly", "primary", "hall"],
    )
    def test_n_max_guard(self, generator, capsys):
        argv = ["gen", *generator, "--n-max", str(GEN_TERMS_LIMIT + 1)]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --n-max")
        assert "exceeds the limit" in captured.err

    def test_n_max_at_the_limit(self, capsys):
        argv = ["gen", "poly", "--coeffs", '["1"]', "--n-max", str(GEN_TERMS_LIMIT)]
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == "1\n" * GEN_TERMS_LIMIT


class TestCheckAndTransform:
    def test_congruence_violation_exit_code(self, tmp_path, capsys):
        path = write_sequence(tmp_path, "pow2.txt", [2**n for n in range(10)])
        code = run_cli(["check", "congruences", "--mode", "primary", "--input", path])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert report["violations"][0]["modulus"] == 2

    def test_congruence_pass(self, tmp_path, capsys):
        path = write_sequence(tmp_path, "sq.txt", [n * n for n in range(10)])
        assert run_cli(["check", "congruences", "--input", path]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_congruence_length_guard(self, tmp_path, capsys):
        terms = [n * n for n in range(CONGRUENCE_TERMS_LIMIT + 1)]
        at_limit = write_sequence(tmp_path, "at.txt", terms[:-1])
        assert run_cli(["check", "congruences", "--mode", "full", "--input", at_limit]) == 0
        capsys.readouterr()
        over = write_sequence(tmp_path, "over.txt", terms)
        assert run_cli(["check", "congruences", "--mode", "full", "--input", over]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "exceeds the limit" in captured.err

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_transform_length_guard(self, direction, tmp_path, capsys):
        ones = [1] * (TRANSFORM_TERMS_LIMIT + 1)
        at_limit = write_sequence(tmp_path, "at.txt", ones[:-1])
        assert run_cli(["transform", direction, "--input", at_limit]) == 0
        assert len(capsys.readouterr().out.splitlines()) == TRANSFORM_TERMS_LIMIT
        over = write_sequence(tmp_path, "over.txt", ones)
        assert run_cli(["transform", direction, "--input", over]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: sequence length")
        assert "exceeds the limit" in captured.err
        assert run_cli(["transform", direction, "--help"]) == 0
        assert f"at most {TRANSFORM_TERMS_LIMIT} terms" in capsys.readouterr().out

    def test_transform_round_trip(self, tmp_path, capsys):
        path = write_sequence(tmp_path, "seq.txt", [3, 1, 4, 1, 5])
        assert run_cli(["transform", "forward", "--input", path]) == 0
        forward = capsys.readouterr().out
        back = tmp_path / "b.txt"
        back.write_text(forward)
        assert run_cli(["transform", "inverse", "--input", str(back)]) == 0
        assert capsys.readouterr().out == "3\n1\n4\n1\n5\n"


class TestHankelCommands:
    def test_invariance_on_fibonacci(self, tmp_path, capsys):
        path = write_sequence(tmp_path, "fib.txt", fibonacci(21))
        assert run_cli(["hankel", "verify-invariance", "--n-max", "10", "--input", path]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_invariance_length_guard(self, tmp_path, capsys):
        terms = [n * n for n in range(INVARIANCE_TERMS_LIMIT + 1)]
        at_limit = write_sequence(tmp_path, "at.txt", terms[:-1])
        assert run_cli(["hankel", "verify-invariance", "--input", at_limit]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["checked_max"] == (INVARIANCE_TERMS_LIMIT + 1) // 2
        over = write_sequence(tmp_path, "over.txt", terms)
        assert run_cli(["hankel", "verify-invariance", "--input", over]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: sequence length")
        assert "exceeds the limit" in captured.err
        assert run_cli(["hankel", "verify-invariance", "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())  # as wrapped at any width
        assert f"at most {INVARIANCE_TERMS_LIMIT} terms" in help_text

    def test_invariance_of_wide_terms_at_full_order(self, tmp_path, capsys):
        # as many terms as the limit allows, each with 4,299 digits, are
        # checked at the largest order
        rng = random.Random(67)
        terms = [rng.choice([-1, 1]) * rng.randrange(10**4298, 10**4299)
                 for _ in range(INVARIANCE_TERMS_LIMIT)]
        path = write_sequence(tmp_path, "wide.txt", terms)
        assert run_cli(["hankel", "verify-invariance", "--input", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["checked_max"] == INVARIANCE_TERMS_LIMIT // 2

    def test_table_csv_columns(self, tmp_path, capsys):
        path = write_sequence(tmp_path, "fib.txt", fibonacci(9))
        assert run_cli(["hankel", "table", "--input", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,det,required_divisor,divisible,normalized_growth"
        assert lines[1].startswith("1,0,1,true,")
        assert len(lines) == 6  # header + orders 1..5

    def test_divisibility_failure_exit_code(self, tmp_path, capsys):
        # det of order 3 is -1, which misses the required factor of 2
        path = write_sequence(tmp_path, "odd.txt", [1, 1, 1, 2, 1])
        code = run_cli(["hankel", "verify-divisibility", "--input", path])
        assert code == 1

    def test_divisibility_passes_on_squares(self, tmp_path, capsys):
        path = write_sequence(tmp_path, "sq.txt", [n * n for n in range(15)])
        assert run_cli(["hankel", "verify-divisibility", "--input", path]) == 0


class TestRationalDetect:
    def test_fibonacci_reconstruction(self, tmp_path, capsys):
        path = write_sequence(tmp_path, "fib.txt", fibonacci(40))
        assert run_cli(["rational", "detect", "--input", path, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rational"] is True
        assert report["numerator"] == "x"
        assert report["denominator"] == "1 - x - x^2"
        assert report["order"] == 2

    def test_undetected_is_still_exit_zero(self, tmp_path, capsys):
        path = write_sequence(tmp_path, "fact.txt", [math.factorial(n) for n in range(15)])
        assert run_cli(["rational", "detect", "--input", path]) == 0
        assert json.loads(capsys.readouterr().out)["rational"] is False


class TestThetaAndCapacity:
    def test_theta_table(self, capsys):
        assert run_cli(["theta", "table", "--n-max", "10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,theta,partial_sum,ratio"
        assert len(lines) == 12
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(math.log(210), rel=1e-12)

    def test_capacity_bound(self, capsys):
        assert run_cli(["capacity", "bound", "--endpoints", "1,-1"]) == 0
        assert json.loads(capsys.readouterr().out)["bound"] == pytest.approx(0.5)

    def test_capacity_estimate(self, capsys):
        assert run_cli(["capacity", "estimate", "--endpoints", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.20 <= report["estimate"] <= 0.26
        assert report["bound"] == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--endpoints", "1.7e308,-1.7e308", "--leja-points", "8"],
            ["estimate", "--endpoints", "5e-324", "--leja-points", "8"],
            ["bound", "--endpoints", "1.7e308+1.7e308j"],
        ],
        ids=["distances-overflow", "too-few-distinct-points", "modulus-overflows"],
    )
    def test_float_range_is_input_error(self, argv, capsys):
        # these used to print "estimate": NaN, or die on an OverflowError
        assert run_cli(["capacity", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--endpoints", "5e-324"],
            ["estimate", "--endpoints", "5e-324", "--leja-points", "2",
             "--discretization", "16"],
        ],
        ids=["bound", "estimate"],
    )
    def test_bound_that_underflows_to_zero_is_a_numeric_failure(self, argv, capsys):
        # 5e-324 / 4 rounds to 0, which used to be printed as the bound,
        # below the estimate of 5e-324 beside it
        assert run_cli(["capacity", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric failure:")

    def test_bad_endpoint_is_input_error(self, capsys):
        assert run_cli(["capacity", "bound", "--endpoints", "1,spam"]) == 2

    @pytest.mark.parametrize("endpoints", ["nan", "inf,1j"])
    def test_non_finite_endpoint_is_input_error(self, endpoints, capsys):
        assert run_cli(["capacity", "bound", "--endpoints", endpoints]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


    @pytest.mark.parametrize(
        "argv",
        [
            ["theta", "table", "--n-max", "1000001"],
            ["capacity", "estimate", "--endpoints", "1", "--leja-points", "1025"],
            ["capacity", "estimate", "--endpoints", "1,-1,1j", "--discretization", "333334"],
        ],
        ids=["theta-n-max", "leja-points", "candidates"],
    )
    def test_size_guard_is_input_error(self, argv, capsys):
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "exceeds the limit" in captured.err

    def test_leja_points_limit_is_accepted_and_one_past_it_is_not(self, capsys):
        argv = ["capacity", "estimate", "--endpoints", "1", "--leja-points"]
        assert run_cli([*argv, str(LEJA_POINTS_LIMIT)]) == 0
        assert json.loads(capsys.readouterr().out)["leja_points"] == LEJA_POINTS_LIMIT
        assert run_cli([*argv, str(LEJA_POINTS_LIMIT + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --leja-points {LEJA_POINTS_LIMIT + 1} exceeds the limit {LEJA_POINTS_LIMIT}\n"
        )
        assert run_cli(["capacity", "estimate", "--help"]) == 0
        assert f"(at most {LEJA_POINTS_LIMIT})" in capsys.readouterr().out


class TestAuditCommand:
    def test_polynomial_sequence(self, tmp_path, capsys):
        terms = [n**3 - 7 * n + 2 for n in range(40)]
        path = write_sequence(tmp_path, "cubic.txt", terms)
        assert run_cli(["audit", "--input", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "ruzsa-audit/1"
        assert report["verdict"] == "polynomial"
        assert report["degree"] == 3
        assert report["denominator_is_power_of_one_minus_x"] is True

    def test_csv_summary(self, tmp_path, capsys):
        terms = [n**2 for n in range(20)]
        path = write_sequence(tmp_path, "sq.txt", terms)
        assert run_cli(["audit", "--input", path, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("verdict,degree,length,")
        assert lines[1].startswith("polynomial,2,20,")

    def test_congruence_violation_exit_code(self, tmp_path, capsys):
        path = write_sequence(tmp_path, "pow2.txt", [2**n for n in range(12)])
        assert run_cli(["audit", "--input", path]) == 1
        assert json.loads(capsys.readouterr().out)["verdict"] == "congruence_violation"

    def test_non_finite_growth_bound_is_input_error(self, tmp_path, capsys):
        path = write_sequence(tmp_path, "sq.txt", [n * n for n in range(12)])
        assert run_cli(["audit", "--input", path, "--growth-bound", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_n_max_trims_only_the_table(self, tmp_path, capsys):
        terms = [n**3 - 7 * n + 2 for n in range(40)]
        path = write_sequence(tmp_path, "cubic.txt", terms)
        assert run_cli(["audit", "--input", path, "--n-max", "5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [row["n"] for row in report["hankel"]] == [1, 2, 3, 4, 5]
        assert len(report["rationality"]["det_table"]) == 20
        assert report["config"]["n_max"] == 5
        assert report["verdict"] == "polynomial"

    def test_n_max_past_the_largest_order_is_input_error(self, tmp_path, capsys):
        path = write_sequence(tmp_path, "cubic.txt", [n**3 - 7 * n + 2 for n in range(40)])
        assert run_cli(["audit", "--input", path, "--n-max", "21"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_byte_identical_reports(self, tmp_path, capsys):
        path = write_sequence(tmp_path, "seq.txt", [n * n for n in range(16)])
        assert run_cli(["audit", "--input", path]) == 0
        first = capsys.readouterr().out
        assert run_cli(["audit", "--input", path]) == 0
        assert capsys.readouterr().out == first


class TestErrorPaths:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert run_cli(["theta", "table", "--n-max", "5", "--bogus"]) == 2

    def test_missing_file(self, capsys):
        assert run_cli(["check", "congruences", "--input", "/nonexistent/seq.txt"]) == 2

    def test_bad_sequence_content(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("one\ntwo\n")
        assert run_cli(["check", "congruences", "--input", str(path)]) == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0

    def test_line_numbers_count_leading_blank_lines(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("\n\n1\n2\n+3\n"))
        assert run_cli(["audit"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 5 is not a decimal integer: '+3'")

    @pytest.mark.parametrize(
        "text",
        [
            '["1_000", "2"]',
            '[" 7 ", "2"]',
            '["+3", "2"]',
            '["\uff17", "2"]',
            "1_0\n2\n",
            "+3\n2\n",
            "\u0663\n2\n",
        ],
        ids=["json-underscore", "json-spaces", "json-plus", "json-fullwidth",
             "line-underscore", "line-plus", "line-arabic-indic"],
    )
    def test_sequence_needs_strict_decimals(self, text, tmp_path, capsys):
        path = tmp_path / "seq.txt"
        path.write_text(text, encoding="utf-8")
        assert run_cli(["transform", "forward", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "not a decimal integer" in captured.err

    @pytest.mark.parametrize(
        "text",
        ["[" + "7" * 5000 + ", 1]\n", '["' + "7" * 5000 + '", "1"]\n', "7" * 5000 + "\n1\n"],
        ids=["json-literal", "json-string", "line"],
    )
    def test_integer_past_the_digit_limit_is_input_error(self, text, tmp_path, capsys):
        path = tmp_path / "seq.txt"
        path.write_text(text, encoding="utf-8")
        assert run_cli(["audit", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "more than 4300 digits, the input limit" in captured.err

    def test_polynomial_needs_strict_decimals(self, capsys):
        assert run_cli(["gen", "poly", "--coeffs", '["1_0"]', "--n-max", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not a decimal integer string")

    @pytest.mark.parametrize("depth", [900, 1000, 100_000])
    @pytest.mark.parametrize("command", ["audit", "gen-poly", "check"])
    def test_deeply_nested_json_is_input_error(self, command, depth, tmp_path, capsys,
                                               monkeypatch):
        # json.loads recurses once per level, so deep nesting either passes
        # the decoder as one bad entry or runs out of recursion; both are
        # input errors, and the error line does not echo the whole input
        text = "[" * depth + "]" * depth
        path = tmp_path / "nested.json"
        path.write_text(text)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        argv = {
            "audit": ["audit"],
            "gen-poly": ["gen", "poly", "--coeffs", text, "--n-max", "3"],
            "check": ["check", "congruences", "--input", str(path)],
        }[command]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert len(captured.err) < 300

    def test_long_bad_entry_is_not_echoed_whole(self, capsys):
        coeffs = '["' + "x" * 10_000 + '"]'
        assert run_cli(["gen", "poly", "--coeffs", coeffs, "--n-max", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not a decimal integer string: 'xxx")
        assert len(captured.err) < 300

    @pytest.mark.parametrize(
        "command,terms,message",
        [
            ("audit", [10**400] + [1] * 10, "error: |det H_1|^(1/1) is past the float range"),
            ("hankel", [10**400] + [1] * 10, "error: |det H_1|^(1/1) is past the float range"),
            ("audit", [7, 10**400] + [1] * 10, "error: |a_1|^(1/1) is past the float range"),
        ],
        ids=["audit-det", "hankel-table-det", "audit-growth"],
    )
    def test_root_past_the_float_range_is_input_error(self, command, terms, message,
                                                       tmp_path, capsys):
        # the normalized growth |det H_n|^(1/n^2) and the growth proxy
        # |a_n|^(1/n) are floats; a root past their range is refused
        argv = {"audit": ["audit"], "hankel": ["hankel", "table"]}[command]
        path = write_sequence(tmp_path, "huge.txt", terms)
        assert run_cli(argv + ["--input", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"

    def test_denominator_past_the_float_range_is_a_numeric_failure(self, tmp_path, capsys):
        # a_n = 10^310 a_(n-1) - a_(n-2): the root finder's input, the
        # coefficients of 1 - 10^310 x + x^2, do not fit in a float
        terms = [0, 1]
        while len(terms) < 12:
            terms.append(10**310 * terms[-1] - terms[-2])
        path = write_sequence(tmp_path, "wide.txt", terms)
        assert run_cli(["audit", "--input", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric failure: a denominator factor is past the float range")

    def test_pole_that_underflows_to_zero_is_a_numeric_failure(self, tmp_path, capsys):
        # 1/(1 + 10^600 x^2) has poles +-10^-300 i; its monic factor
        # underflows, and the root finder would place both at 0
        terms = [0 if k % 2 else (-1) ** (k // 2) * 10 ** (300 * k) for k in range(12)]
        path = write_sequence(tmp_path, "underflow.txt", terms)
        assert run_cli(["audit", "--input", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric failure:")

    @pytest.mark.parametrize("source", ["input", "coeffs", "stdin"])
    def test_input_that_is_not_utf8_is_input_error(self, source, tmp_path, capsys, monkeypatch):
        path = tmp_path / "bytes.txt"
        path.write_bytes(b"\xff\xfe1\n")
        monkeypatch.setattr(
            "sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff1\n"), encoding="utf-8")
        )
        argv = {
            "input": ["audit", "--input", str(path)],
            "coeffs": ["gen", "poly", "--coeffs", f"@{path}", "--n-max", "3"],
            "stdin": ["audit"],
        }[source]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read ")
        assert "can't decode byte 0xff" in captured.err

    def test_internal_invariant_exits_three(self, tmp_path, capsys, monkeypatch):
        # a recurrence that does not reproduce the prefix is a bug, not a
        # property of the input, and must not look like a finding (exit 1)
        original = hankel._leading_minors

        def corrupt_denominator(values, n):
            minors, den = original(values, n)
            return minors, None if den is None else den[:-1] + [den[-1] + 1]

        monkeypatch.setattr(hankel, "_leading_minors", corrupt_denominator)
        path = write_sequence(tmp_path, "cubic.txt", [n**3 - 7 * n + 2 for n in range(40)])
        assert run_cli(["audit", "--input", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("INTERNAL INVARIANT VIOLATED")

    def test_non_divisible_minor_of_a_congruent_prefix_exits_three(
        self, tmp_path, capsys, monkeypatch
    ):
        # a congruent prefix whose last minor is moved off its required
        # divisor contradicts a theorem: a bug, not a finding
        original = hankel._leading_minors

        def last_minor_moved(values, n):
            minors, den = original(values, n)
            return minors[:-1] + [minors[-1] + 1], den

        monkeypatch.setattr(hankel, "_leading_minors", last_minor_moved)
        terms = list(generate_primary([1, -2, 0, 3] * 8, 31))
        path = write_sequence(tmp_path, "primary.txt", terms)
        assert run_cli(["audit", "--input", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("INTERNAL INVARIANT VIOLATED")
        assert "non-divisible Hankel determinants at orders [16]" in captured.err

    def test_recurrence_with_a_common_factor_exits_three(self, tmp_path, capsys, monkeypatch):
        # (1 - x) too many in the denominator still gives a recurrence of the
        # prefix, but not a reduced function: also a bug, not a finding
        original = hankel._leading_minors

        def times_one_minus_x(values, n):
            minors, den = original(values, n)
            return minors, None if den is None else [
                a - b for a, b in zip(den + [0], [0] + den)
            ]

        monkeypatch.setattr(hankel, "_leading_minors", times_one_minus_x)
        path = write_sequence(tmp_path, "cubic.txt", [n**3 - 7 * n + 2 for n in range(40)])
        assert run_cli(["audit", "--input", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("INTERNAL INVARIANT VIOLATED")
