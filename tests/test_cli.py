import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import circleforms
from circleforms import cli, forms
from circleforms.cli import canonical_json, main, parse_poly, parse_r_grid
from circleforms import InternalConsistencyError, LaurentPoly, StructuredMatrix
from circleforms.laurent import SparsePoly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_poly(self):
        assert parse_poly("2,8") == LaurentPoly.from_coeffs([2, 8])
        assert parse_poly("-3/4") == LaurentPoly.from_coeffs([Fraction(-3, 4)])

    def test_imaginary_coefficient_rejected(self):
        with pytest.raises(cli.UsageError):
            parse_poly("1,i")
        with pytest.raises(cli.UsageError):
            parse_poly("1+2i")

    def test_garbage_rejected(self):
        with pytest.raises(cli.UsageError):
            parse_poly("1,two")
        with pytest.raises(cli.UsageError):
            parse_poly("")

    def test_r_grid(self):
        assert parse_r_grid("1, -1/2") == [1, Fraction(-1, 2)]
        with pytest.raises(cli.UsageError):
            parse_r_grid("1,0")
        for blank in ("", "  "):
            with pytest.raises(cli.UsageError, match="empty rescaling grid"):
                parse_r_grid(blank)


class TestVerifyForm:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "verify-form", "--m", "1", "--h", "1")
        assert code == 0
        assert "real circle form verified" in out

    def test_linear_form(self, capsys):
        code, _, _ = run(capsys, "verify-form", "--m", "2", "--h", "0")
        assert code == 0

    def test_non_real_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify-form", "--m", "2", "--h", "1,i")
        assert code == 2
        assert "non-real" in err

    def test_bad_m_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify-form", "--m", "0", "--h", "1")
        assert code == 2


class TestEquiv:
    def test_equivalent_pair(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        code, out, _ = run(capsys, "equiv", "--m", "2", "--h", "1,1",
                           "--hp", "2,8", "--out", str(cert))
        assert code == 0
        assert "1/2" in out
        doc = json.loads(cert.read_text())
        assert doc["r"] == "1/2"
        StructuredMatrix.from_json(doc["N"])

    def test_inequivalent_pair(self, capsys):
        code, out, _ = run(capsys, "equiv", "--m", "1", "--h", "0", "--hp", "1")
        assert code == 1
        assert "inequivalent" in out

    def test_real_witness_without_rational(self, capsys):
        code, out, _ = run(capsys, "equiv", "--m", "2", "--h", "0,1", "--hp", "0,3")
        assert code == 0
        assert "no rational witness" in out

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "equiv", "--m", "2", "--h", "1,1", "--hp", "2,8",
                           "--out", str(tmp_path))
        assert code == 2
        assert err.startswith("error: cannot write")

    def test_json_output_is_canonical(self, capsys):
        code, out, _ = run(capsys, "equiv", "--m", "2", "--h", "1,1",
                           "--hp", "2,8", "--json")
        assert code == 0
        doc = json.loads(out)
        assert canonical_json(doc) == out.strip()
        assert doc["equivalent"] is True
        assert doc["rational_witness"] == "1/2"

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "equiv", "--m", "2", "--h", "1,1", "--hp", "2,8", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["equivalent"] is True
        assert doc["rational_witness"] == "1/2"
        assert doc["certificate"]["r"] == "1/2"
        assert doc["certificate"]["N"]["e"] == 5


class TestVerifyCertificate:
    def test_round_trip(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        run(capsys, "equiv", "--m", "2", "--h", "1,1", "--hp", "2,8", "--out", str(cert))
        code, out, _ = run(capsys, "verify-certificate", "--m", "2", "--h", "1,1",
                           "--hp", "2,8", "--file", str(cert))
        assert code == 0
        assert "valid" in out

    def test_tampered_certificate(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        run(capsys, "equiv", "--m", "2", "--h", "1,1", "--hp", "2,8", "--out", str(cert))
        doc = json.loads(cert.read_text())
        doc["r"] = "2"
        cert.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify-certificate", "--m", "2", "--h", "1,1",
                           "--hp", "2,8", "--file", str(cert))
        assert code == 1
        assert "INVALID" in out

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify-certificate", "--m", "2", "--h", "1",
                           "--hp", "1", "--file", str(tmp_path / "nope.json"))
        assert code == 2

    @pytest.mark.parametrize("field,value", [("r", "1/0"), ("r", "Infinity"), ("e", 3),
                                             ("r", 0.1), ("r", True), ("e", 5.0), ("e", "5"),
                                             ("P", {"re": 1.0}), ("P", {"re": True}),
                                             ("P", {"re": "1", "im": 0.5}),
                                             ("valuation", 0.9), ("valuation", "0")])
    def test_malformed_certificate_is_usage_error(self, capsys, tmp_path, field, value):
        cert = tmp_path / "cert.json"
        run(capsys, "equiv", "--m", "2", "--h", "1,1", "--hp", "2,8", "--out", str(cert))
        doc = json.loads(cert.read_text())
        if field == "r":
            doc["r"] = value
        elif field == "e":
            doc["N"]["e"] = value
        elif field == "valuation":
            doc["N"]["P"] = {"valuation": value, "coeffs": doc["N"]["P"]}
        else:
            doc["N"][field][0] = value
        cert.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify-certificate", "--m", "2", "--h", "1,1",
                             "--hp", "2,8", "--file", str(cert))
        assert code == 2
        assert out == ""
        assert err.startswith("error: " if (field, value) == ("e", 3) else "error: cannot load certificate")

    @pytest.mark.parametrize("valuation", [3, 10 ** 30], ids=["3", "10^30"])
    def test_positive_valuation_is_usage_error(self, capsys, tmp_path, valuation):
        # to_json never writes one, and it would let a short document carry
        # exponents of any size
        one = [{"re": "1"}]
        entry = {"valuation": valuation, "coeffs": one}
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"r": "1", "N": {"e": 3, "P": one, "Q": one, "S": one,
                                                     "R": entry}}))
        code, out, err = run(capsys, "verify-certificate", "--m", "1", "--h", "1",
                             "--hp", "1", "--file", str(cert))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot load certificate") and "Traceback" not in err

    def test_integer_rationals_are_read_exactly(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        run(capsys, "equiv", "--m", "2", "--h", "0", "--hp", "0", "--out", str(cert))
        doc = json.loads(cert.read_text())
        assert doc["r"] == "1" and doc["N"]["P"][0] == {"re": "1"}
        doc["r"] = 1
        doc["N"]["P"][0] = {"re": 1, "im": 0}
        cert.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify-certificate", "--m", "2", "--h", "0",
                           "--hp", "0", "--file", str(cert))
        assert (code, out) == (0, "certificate valid\n")


class TestClassify:
    def test_ten_forms(self, capsys, tmp_path):
        doc = {"forms": [["1", str(c)] for c in range(1, 11)]}
        path = tmp_path / "forms.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "classify", "--m", "2", "--file", str(path))
        assert code == 0
        assert "10 classes" in out

    def test_json_payload(self, capsys, tmp_path):
        doc = {"forms": [["0"], ["0", "1"], ["0", "0", "1"], ["0", "2"]]}
        path = tmp_path / "forms.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "classify", "--m", "2", "--file", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["classes"] == [[0, 2], [1, 3]]

    def test_missing_file_flag(self, capsys):
        code, _, err = run(capsys, "classify", "--m", "2")
        assert code == 2

    @pytest.mark.parametrize("text", ['{"forms": [["1/0"]]}', '{"forms": [[Infinity]]}',
                                      "[" * 100000 + "]" * 100000,
                                      '{"forms": [[0.1, 1], ["1/10", 1], "12", [1, 2]]}',
                                      '{"forms": [[0.1, 1]]}', '{"forms": [[true]]}',
                                      '{"forms": ["12"]}', '{"forms": "12"}', '{"forms": {}}'])
    def test_malformed_forms_are_usage_errors(self, capsys, tmp_path, text):
        path = tmp_path / "forms.json"
        path.write_text(text)
        code, out, err = run(capsys, "classify", "--m", "2", "--file", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot load forms")


class TestInternalErrors:
    @pytest.mark.parametrize("exc", [ValueError("kernel bug"), TypeError("kernel bug"),
                                     InternalConsistencyError("kernel bug")])
    def test_kernel_exception_exits_3_with_traceback(self, capsys, monkeypatch, exc):
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "decide_equiv", broken)
        code, out, err = run(capsys, "equiv", "--m", "2", "--h", "1", "--hp", "1")
        assert code == 3
        assert out == ""
        assert err.startswith(f"internal error: {type(exc).__name__}: kernel bug")
        assert "Traceback" in err

    @pytest.mark.parametrize("flags", [[], ["--json"], ["--out", "cert.json"]],
                             ids=["text", "json", "out"])
    def test_failed_certificate_build_exits_3_in_every_mode(self, capsys, monkeypatch,
                                                            tmp_path, flags):
        # a rational witness always has its certificate built and re-checked,
        # also in text mode, which does not print it
        def broken(*args):
            raise InternalConsistencyError("certificate determinant is not 1")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "build_certificate", broken)
        code, out, err = run(capsys, "equiv", "--m", "2", "--h", "1,1", "--hp", "2,8", *flags)
        assert (code, out) == (3, "")
        assert err.startswith("internal error: InternalConsistencyError: certificate determinant")
        assert not (tmp_path / "cert.json").exists()


class TestOracle:
    def test_findings_json(self, capsys, tmp_path):
        out_path = tmp_path / "found.json"
        code, out, _ = run(capsys, "oracle", "--m", "2", "--h", "1,1", "--hp", "2,8",
                           "--deg", "4", "--r-grid", "1,1/2", "--out", str(out_path))
        assert code == 0
        findings = json.loads(out_path.read_text())
        assert findings and findings[0]["r"] == "1/2"

    def test_findings_are_certificates(self, capsys, tmp_path):
        # each finding is a document that verify-certificate accepts as it is
        out_path = tmp_path / "found.json"
        pair = ("--m", "2", "--h", "1,1", "--hp", "2,8")
        run(capsys, "oracle", *pair, "--deg", "4", "--r-grid", "1,1/2", "--out", str(out_path))
        findings = json.loads(out_path.read_text())
        assert findings
        for k, finding in enumerate(findings):
            cert = tmp_path / f"finding{k}.json"
            cert.write_text(json.dumps(finding))
            code, out, _ = run(capsys, "verify-certificate", *pair, "--file", str(cert))
            assert (code, out) == (0, "certificate valid\n")

    def test_negative_search_still_exits_zero(self, capsys):
        code, out, _ = run(capsys, "oracle", "--m", "1", "--h", "0", "--hp", "1",
                           "--deg", "3", "--r-grid", "1,-1")
        assert code == 0
        assert "not a proof of inequivalence" in out

    @pytest.mark.parametrize("deg", ["10000", "17", "-1"])
    def test_degree_out_of_range_refused_before_search(self, capsys, monkeypatch, deg):
        def no_search(*args):
            raise AssertionError("search started")

        monkeypatch.setattr(cli, "search_conjugator", no_search)
        monkeypatch.setattr(cli, "parse_poly", no_search)
        code, out, err = run(capsys, "oracle", "--m", "1", "--h", "0", "--hp", "1",
                             "--deg", deg)
        assert code == 2
        assert out == ""
        assert "--deg must be an integer from 0 to 16" in err

    @pytest.mark.parametrize("grid", ["", " "])
    def test_blank_grid_is_usage_error(self, capsys, monkeypatch, grid):
        monkeypatch.setattr(cli, "search_conjugator", lambda *args: [])
        code, out, err = run(capsys, "oracle", "--m", "1", "--h", "0", "--hp", "1",
                             "--r-grid", grid)
        assert (code, out, err) == (2, "", "error: empty rescaling grid\n")

    def test_default_grid(self, capsys, monkeypatch):
        grids = []
        monkeypatch.setattr(cli, "search_conjugator", lambda *args: grids.append(args[4]) or [])
        code, out, _ = run(capsys, "oracle", "--m", "1", "--h", "0", "--hp", "1")
        assert code == 0
        assert grids == [[1, -1]]
        assert "over 2 rescaling(s)" in out

    def test_degree_cap_admits_its_bound(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "search_conjugator", lambda *args: [])
        code, _, _ = run(capsys, "oracle", "--m", "1", "--h", "0", "--hp", "1", "--deg", "16")
        assert code == 0


class TestCase12AndQuotient:
    def test_case12(self, capsys):
        code, out, _ = run(capsys, "case12")
        assert code == 0
        assert "linearizes" in out

    def test_quotient(self, capsys):
        code, out, _ = run(capsys, "quotient", "--m", "1")
        assert code == 0
        assert "relation" in out


# Each subcommand that takes --m, with the other arguments it requires.
M_SUBCOMMANDS = {
    "verify-form": ["--h", "1"],
    "equiv": ["--h", "1", "--hp", "1"],
    "verify-certificate": ["--h", "1", "--hp", "1", "--file", "missing.json"],
    "classify": ["--file", "missing.json"],
    "oracle": ["--h", "1", "--hp", "1"],
    "quotient": [],
}


class TestMCap:
    @pytest.mark.parametrize("command", sorted(M_SUBCOMMANDS))
    def test_above_cap_refused_before_parsing(self, capsys, monkeypatch, command):
        def nothing_built(*args):
            raise AssertionError("work started above the --m cap")

        for name in ("parse_poly", "FormSpec", "verify_relation", "search_conjugator"):
            monkeypatch.setattr(cli, name, nothing_built)
        code, out, err = run(capsys, command, "--m", str(cli.MAX_M + 1), *M_SUBCOMMANDS[command])
        assert code == 2
        assert out == ""
        assert err == f"error: --m must be at most {cli.MAX_M}\n"

    def test_quotient_admits_the_cap(self, capsys):
        code, _, _ = run(capsys, "quotient", "--m", str(cli.MAX_M))
        assert code == 0

    def test_help_states_the_cap(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify-form", "--help"])
        assert f"1..{cli.MAX_M}" in capsys.readouterr().out


def exit_and_streams(capsys, parse, argv):
    """The exit status and captured (stdout, stderr) of a parse that exits."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestParserTable:
    @pytest.mark.parametrize("name,options", [(c[0], c[3]) for c in cli.COMMANDS])
    def test_help_lists_exactly_the_table_options(self, capsys, name, options):
        code, out, _ = exit_and_streams(capsys, main, [name, "--help"])
        assert code == 0
        listed = re.findall(r"^  (-[-\w]+)", out.split("options:", 1)[1], re.MULTILINE)
        assert listed == ["-h", *options, "--json"]


class TestUnicodeDigits:
    def test_arabic_indic_digit_reads_as_its_value(self, capsys):
        # parse_rational keeps Fraction's grammar, whose digits are Unicode decimals
        assert run(capsys, "verify-form", "--m", "1", "--h", "\u0661", "--json") == \
            run(capsys, "verify-form", "--m", "1", "--h", "1", "--json")


class TestParserBuiltOnce:
    def test_one_build_serves_every_call(self, capsys):
        cli.build_parser.cache_clear()
        assert run(capsys, "quotient", "--m", "1")[0] == 0
        assert exit_and_streams(capsys, main, ["verify-form", "--m", "1"])[0] == 2
        assert run(capsys, "case12", "--json")[0] == 0
        assert run(capsys, "verify-form", "--m", "0", "--h", "1")[0] == 2
        assert cli.build_parser.cache_info().misses == 1

    @pytest.mark.parametrize("argv", [
        ["--help"], ["oracle", "--help"], ["verify-form", "--m", "1"],
        ["equiv", "--m", "2", "--h", "-1,2", "--hp", "1"], ["nope"], [],
    ])
    def test_help_and_usage_bytes_match_a_fresh_parser(self, capsys, argv):
        main(["case12"])  # the shared parser has parsed before
        capsys.readouterr()
        shared = exit_and_streams(capsys, main, argv)
        fresh = exit_and_streams(capsys, cli.build_parser.__wrapped__().parse_args, argv)
        assert shared == fresh
        assert exit_and_streams(capsys, main, argv) == shared


def count_calls(monkeypatch, name, *modules):
    """Replace `name` in each module by one counting wrapper of the original
    in the first; return the list that collects one entry per call."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


class TestBuildsOncePerCall:
    @pytest.mark.parametrize("m,h", [("1", "1"), ("2", "1,1"), ("3", "0,2,-1")])
    def test_verify_form_builds_the_twist_once(self, capsys, monkeypatch, m, h):
        calls = count_calls(monkeypatch, "make_twist", forms)
        code, _, _ = run(capsys, "verify-form", "--m", m, "--h", h)
        assert code == 0
        assert len(calls) == 1

    def test_case12_builds_the_conjugator_once(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, "case12_conjugator", forms)
        code, _, _ = run(capsys, "case12")
        assert code == 0
        assert len(calls) == 1

    def test_case12_builds_the_twist_once(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, "case12_twist", forms)
        code, _, _ = run(capsys, "case12")
        assert code == 0
        assert len(calls) == 1


class TestFamilySharedChecks:
    def test_verify_form_shows_family_checks_in_order(self, capsys):
        code, out, _ = run(capsys, "verify-form", "--m", "2", "--h", "1,1")
        assert code == 0
        shown = [line.split()[1] for line in out.splitlines()[:-1]]
        assert shown == list(forms.family_checks(forms.FormSpec(2, parse_poly("1,1"))))

    def test_failed_check_fails_cli_and_selftest_criterion(self, capsys, monkeypatch):
        from circleforms import acceptance

        monkeypatch.setattr(forms, "verify_splitting", lambda twist, splitting: False)
        code, out, _ = run(capsys, "verify-form", "--m", "1", "--h", "1")
        assert code == 1
        assert "FAIL  splitting" in out
        assert "ok  cocycle" in out
        assert out.endswith("verdict: verification FAILED\n")
        passed, detail = acceptance.twist_family_suite()
        assert not passed
        assert detail.startswith("failed at m=1, h=")
        assert detail.endswith(": splitting")


class TestDigitLimit:
    """Rationals longer than the int/str conversion limit are refused with
    exit 2, on input before they are computed and on output before anything
    is printed or written."""

    LIMIT = str(sys.get_int_max_str_digits())

    @pytest.mark.parametrize("value", ["1e5000", "1e999999999"])
    def test_long_h_refused_at_once(self, capsys, value):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify-form", "--m", "1", "--h", f"1,{value}")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err.startswith("error: rational coefficient too long") and self.LIMIT in err

    @pytest.mark.parametrize("value", ["1e5000", "1e999999999"])
    def test_long_classify_coefficient_refused_at_once(self, capsys, tmp_path, value):
        path = tmp_path / "forms.json"
        path.write_text(json.dumps({"forms": [["1"], ["1", value]]}))
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", "--m", "2", "--file", str(path))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot load forms") and self.LIMIT in err

    def test_exponent_form_reads_exactly(self):
        assert parse_poly("1e3,-25e-1") == LaurentPoly.from_coeffs([1000, Fraction(-5, 2)])

    @pytest.mark.parametrize("flags", [["--json"], ["--out", "cert.json"]])
    def test_result_too_long_to_print_is_refused(self, capsys, tmp_path, monkeypatch, flags):
        monkeypatch.chdir(tmp_path)
        h = "1,0," + "9" * 1200  # the certificate holds powers of h beyond the limit
        code, out, err = run(capsys, "equiv", "--m", "2", "--h", h, "--hp", "1", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: a rational in the result has more than " + self.LIMIT)
        assert not (tmp_path / "cert.json").exists()

    def test_text_mode_does_not_format_the_certificate(self, capsys):
        h = "1,0," + "9" * 1200
        code, out, err = run(capsys, "equiv", "--m", "2", "--h", h, "--hp", "1")
        assert code == 0
        assert out == "equivalent, rational witness r = 1\n"
        assert err == ""


class TestCase12SharedChecks:
    def test_failed_check_fails_cli_and_selftest_criterion(self, capsys, monkeypatch):
        from circleforms import acceptance

        # real, det 1, and S != -Q: not an involution
        one, t = LaurentPoly.one(), LaurentPoly.variable()
        twist = StructuredMatrix(4, one, t, LaurentPoly.zero(), one)
        monkeypatch.setattr(forms, "case12_twist", lambda: twist)
        monkeypatch.setattr(acceptance, "case12_twist", lambda: twist)
        code, out, _ = run(capsys, "case12")
        assert code == 1
        assert "FAIL  bundle_conditions" in out
        assert "FAIL  involution_relations" in out
        assert "ok  conjugator_not_real" in out
        assert out.endswith("case12 verification FAILED\n")
        passed, detail = acceptance.case12_suite()
        assert not passed
        assert detail.startswith("failed: ")
        assert "bundle_conditions" in detail

    def test_non_involution_twist_fails_involution_relations(self, capsys, monkeypatch):
        one, t = LaurentPoly.one(), LaurentPoly.variable()
        twist = StructuredMatrix(4, one - t, LaurentPoly.constant(2), -one, one + t + t ** 2 + t ** 3)
        monkeypatch.setattr(forms, "case12_twist", lambda: twist)
        code, out, _ = run(capsys, "case12")
        assert code == 1
        assert "FAIL  involution_relations" in out


class TestSelftest:
    def test_reports_each_criterion(self, capsys, monkeypatch):
        from circleforms import acceptance

        monkeypatch.setattr(acceptance, "CRITERIA", [
            ("alpha", "first stub", lambda: (True, "fine")),
            ("beta", "second stub", lambda: (True, "also fine")),
        ])
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "PASS alpha" in out and "PASS beta" in out

    def test_failure_exit_code(self, capsys, monkeypatch):
        from circleforms import acceptance

        monkeypatch.setattr(acceptance, "CRITERIA", [
            ("gamma", "failing stub", lambda: (False, "broken")),
        ])
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert "FAIL gamma" in out


class TestCanonicalJson:
    def test_round_trip_bytes(self):
        m = StructuredMatrix.identity(3)
        text = canonical_json(m.to_json())
        reparsed = StructuredMatrix.from_json(json.loads(text))
        assert canonical_json(reparsed.to_json()) == text


class TestJsonModeFormatsNoText:
    @pytest.mark.parametrize("argv", [
        ["classify", "--m", "2", "--file", "forms.json"],
        ["oracle", "--m", "1", "--h", "1", "--hp", "1", "--deg", "2"],
        ["quotient", "--m", "1"],
    ], ids=["classify", "oracle", "quotient"])
    def test_no_polynomial_or_matrix_is_formatted(self, capsys, monkeypatch, tmp_path, argv):
        # the text lines are built only in text mode; --json bytes are unchanged
        monkeypatch.chdir(tmp_path)
        (tmp_path / "forms.json").write_text('{"forms": [["1", "2"], ["1/2", 1], ["1", "2"]]}')
        expected = run(capsys, *argv, "--json")

        def refuse(self):
            raise AssertionError("text formatted under --json")

        monkeypatch.setattr(SparsePoly, "__str__", refuse)
        monkeypatch.setattr(StructuredMatrix, "__repr__", refuse)
        code, out, err = run(capsys, *argv, "--json")
        assert (code, out, err) == expected and code == 0 and json.loads(out)


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ["verify-form", "--m", "2", "--h", "1,1", "--json"],
        ["verify-form", "--m", "2", "--h", "1,1"],
        ["quotient", "--m", "1"],
    ], ids=["json", "text", "quotient"])
    def test_closed_stdout_is_a_usage_error(self, argv):
        # a pipe whose reader is gone: exit 2 with one error line, and no
        # second failure when the interpreter flushes stdout at exit
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(circleforms.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        try:
            proc = subprocess.run([sys.executable, "-m", "circleforms.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        err = proc.stderr.decode()
        assert proc.returncode == 2
        assert err == "error: cannot write to stdout\n"
        assert "Traceback" not in err
