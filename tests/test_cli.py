import json
import time

import pytest

import nakai_forge.groebner as groebner
import nakai_forge.pipeline as pipeline
from nakai_forge.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMember:
    def test_not_member(self, capsys):
        code, out, _ = run(capsys, "member", "x*y", "--ideal", "x^2,y^2", "--vars", "x,y")
        assert code == 0
        assert "NOT MEMBER" in out

    def test_member_with_cofactors(self, capsys):
        code, out, _ = run(capsys, "member", "x^2 + x*y", "--ideal", "x", "--vars", "x,y")
        assert code == 0
        assert out.startswith("MEMBER")

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "member", "x*y", "--ideal", "x^2,y^2", "--vars", "x,y", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["member"] is False
        assert payload["normal_form"] == "x*y"


class TestMilnor:
    def test_fermat(self, capsys):
        code, out, _ = run(capsys, "milnor", "x^3+y^3+z^3", "--vars", "x,y,z")
        assert code == 0
        assert out.strip() == "8"

    def test_brieskorn(self, capsys):
        code, out, _ = run(capsys, "milnor", "x^2 + y^3 + z^4", "--vars", "x,y,z")
        assert code == 0
        assert out.strip() == "6"

    def test_not_isolated(self, capsys):
        code, out, _ = run(capsys, "milnor", "x^2*y", "--vars", "x,y,z")
        assert code == 1

    def test_not_quasi_homogeneous_counts_standard_monomials(self, capsys):
        # no weights, so the quotient is counted: the critical points
        # x = 0 and x = -2/3 of x^2 + x^3
        code, out, _ = run(capsys, "milnor", "x^2 + y^2 + z^2 + x^3", "--vars", "x,y,z")
        assert code == 0
        assert out.strip() == "2"

    def test_unit_jacobian_counts_an_empty_box(self, capsys):
        # no unique weights, and J = (1 + 2*x*y, x^2) is the unit ideal: the
        # box below the pure powers of its basis (1) is empty
        code, out, _ = run(capsys, "milnor", "x + x^2*y", "--vars", "x,y")
        assert code == 0
        assert out.strip() == "0"
        code, out, _ = run(capsys, "check", "x + x^2*y", "--vars", "x,y", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["jacobian_zero_dimensional"] is True
        assert payload["milnor_number"] == 0


def test_large_degree_milnor_number_is_fast(capsys):
    # (N - 1)^n standard monomials: 199^3 here, read off the weights instead
    start = time.perf_counter()
    code, out, _ = run(capsys, "milnor", "x^200 + y^200 + z^200", "--vars", "x,y,z")
    assert code == 0 and out.strip() == "7880599"
    code, out, _ = run(capsys, "check", "x^200 + y^200 + z^200", "--vars", "x,y,z", "--json")
    assert code == 0 and json.loads(out)["milnor_number"] == 7880599
    assert time.perf_counter() - start < 5


class TestCheck:
    def test_paper_example(self, capsys):
        code, out, _ = run(capsys, "check", "x^2*y + y^2*z + z^2*x", "--vars", "x,y,z")
        assert code == 0
        assert "degree 3" in out
        assert "milnor number:         8" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "check", "x^2+y^3", "--vars", "x,y,z", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["homogeneous"] is False

    def test_brieskorn_isolated(self, capsys):
        code, out, _ = run(capsys, "check", "x^2 + y^3 + z^4", "--vars", "x,y,z")
        assert code == 0
        assert "weights:               (6, 4, 3), weighted degree 12" in out
        assert "isolated singularity:  yes" in out
        code, out, _ = run(capsys, "check", "x^2 + y^3 + z^4", "--vars", "x,y,z", "--json")
        payload = json.loads(out)
        assert payload["isolated_quasi_homogeneous_singularity"] is True
        assert payload["weights"] == [6, 4, 3] and payload["degree"] == 12
        assert payload["milnor_number"] == 6

    @pytest.mark.parametrize("text, weights, zero_dim, milnor", [
        # unique weights: decided modulo a prime, as witness decides
        ("x^2*z + 2*x*y*z + y^2*z + z^3", [1, 1, 1], False, None),
        # no weights: a basis over Q decides and its standard monomials count
        ("x^2 + y^2 + z^2 + x^3", None, True, 2),
    ])
    def test_both_sides_of_the_weights_split(self, capsys, text, weights, zero_dim, milnor):
        code, out, _ = run(capsys, "check", text, "--vars", "x,y,z", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["weights"] == weights
        assert payload["jacobian_zero_dimensional"] is zero_dim
        assert payload["milnor_number"] == milnor
        assert payload["isolated_quasi_homogeneous_singularity"] is False


class TestIdentity:
    def test_paper_triple(self, capsys):
        code, out, _ = run(capsys, "identity", "x^2*y + y^2*z + z^2*x",
                           "--vars", "x,y,z", "-i", "1", "-j", "1", "-k", "2")
        assert code == 0
        assert "holds" in out

    @pytest.mark.parametrize("indices", [("4", "1", "1"), ("0", "1", "1"), ("1", "1", "-2")])
    def test_index_out_of_range_is_a_usage_error(self, capsys, indices):
        i, j, k = indices
        code, out, err = run(capsys, "identity", "x^3+y^3+z^3", "--vars", "x,y,z", "-i", i, "-j", j, "-k", k)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "out of range 1..3" in err


class TestSymmetrize:
    def test_fermat(self, capsys):
        code, out, _ = run(capsys, "symmetrize", "x^3+y^3+z^3", "--vars", "x,y,z")
        assert code == 0
        assert "candidate tuple images:" in out
        assert "symmetric tuple images:" in out

    def test_rejects_non_isolated(self, capsys):
        code, out, _ = run(capsys, "symmetrize", "x^2*y", "--vars", "x,y,z")
        assert code == 1
        # homogeneous, so past the weights gate, but singular along x = -y, z = 0
        code, out, _ = run(capsys, "symmetrize", "x^2*z + 2*x*y*z + y^2*z + z^3", "--vars", "x,y,z")
        assert code == 1
        assert "isolated" in out


class TestWitnessAndVerify:
    def test_witness_writes_verifiable_certificate(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        code, out, _ = run(capsys, "witness", "x^2*y + y^2*z + z^2*x",
                           "--vars", "x,y,z", "--out", str(out_path))
        assert code == 0
        assert "WITNESS_FOUND" in out
        code, out, _ = run(capsys, "verify", str(out_path))
        assert code == 0
        assert "VALID" in out

    def test_witness_prints_functional_value(self, capsys):
        code, out, _ = run(capsys, "witness", "x^2*y + y^2*z + z^2*x", "--vars", "x,y,z", "--json")
        # d1(y1) is the operator's coefficient at 2 e_1; the lemma replaces
        # the value of a dual vector
        diagonal = next(e["value"] for e in json.loads(out)["lifted_operator"]["coefficients"]
                        if e["index"] == [2, 0, 0])
        code, out, _ = run(capsys, "witness", "x^2*y + y^2*z + z^2*x", "--vars", "x,y,z")
        assert code == 0
        assert f"witness: d1(y1) = {diagonal}" in out
        assert ("d1(y1) = W_1*y1*Hess(h) mod y1^2 for the isolated h = g(0, y2, ..., yn), so it lies "
                "outside (y1, g_2, ..., g_n)^2 + (g) (socle lemma)") in out
        assert "lambda" not in out and "normal form" not in out

    def test_witness_prints_slice_as_polynomial(self, capsys):
        # the second slice candidate has coefficients (1, -1, 0)
        code, out, _ = run(capsys, "witness", "x^2*y + y^2*z + z^2*x", "--vars", "x,y,z")
        assert code == 0
        assert "slice:   y1 = x - y (attempt 2)\n" in out

    def test_witness_json_stdout(self, capsys):
        code, out, _ = run(capsys, "witness", "x^3+y^3+z^3", "--vars", "x,y,z", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "WITNESS_FOUND"

    def test_witness_rejected_input(self, capsys):
        code, out, _ = run(capsys, "witness", "x^2*y", "--vars", "x,y,z")
        assert code == 1
        assert "not_isolated" in out

    @staticmethod
    def _stopped(capsys, tmp_path, text, message):
        # a resource limit exits 3 with its message on stderr, and writes no
        # certificate, to stdout or to --out
        out_path = tmp_path / "cert.json"
        code, out, err = run(capsys, "witness", text, "--vars", "x,y,z", "--json", "--out", str(out_path))
        assert (code, out, err) == (3, "", f"resource limit: {message}\n")
        assert not out_path.exists()

    def test_witness_resource_exhausted(self, capsys, monkeypatch, tmp_path):
        # the cyclic cubic needs 2 slices
        monkeypatch.setattr(pipeline, "MAX_SLICE_ATTEMPTS", 1)
        self._stopped(capsys, tmp_path, "x^2*y + y^2*z + z^2*x", "no isolating slice found within 1 attempts")

    def test_witness_slice_too_large_to_substitute(self, capsys, tmp_path):
        self._stopped(capsys, tmp_path, "x^1000 + y^1000 + x*z^999",
                      "power 1000 of slice row 1 is too large to expand")

    def test_witness_spair_cap(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(groebner, "DEFAULT_MAX_PAIRS", 1)
        self._stopped(capsys, tmp_path, "x^2*y + y^2*z + z^2*x", "S-pair cap 1 exceeded")

    def test_verify_tampered(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        run(capsys, "witness", "x^3+y^3+z^3", "--vars", "x,y,z", "--out", str(out_path))
        doc = json.loads(out_path.read_text())
        doc["lifted_operator"]["coefficients"][0]["value"] += " + y1"
        out_path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(out_path))
        assert code == 4
        assert "INVALID" in out

    def test_verify_malformed(self, capsys, tmp_path):
        # the second document holds an integer over json's 4300-digit limit
        bad = tmp_path / "bad.json"
        for text in ("{}", '{"attempts": 1' + "0" * 5000 + "}"):
            bad.write_text(text)
            code, _, err = run(capsys, "verify", str(bad))
            assert code == 2

    def test_determinism(self, capsys, tmp_path):
        (tmp_path / "one").mkdir()
        (tmp_path / "two").mkdir()
        a, b = tmp_path / "one" / "cert.json", tmp_path / "two" / "cert.json"
        code1, out1, _ = run(capsys, "witness", "x^2*y + y^2*z + z^2*x", "--vars", "x,y,z", "--out", str(a))
        code2, out2, _ = run(capsys, "witness", "x^2*y + y^2*z + z^2*x", "--vars", "x,y,z", "--out", str(b))
        assert code1 == code2 == 0
        assert out1.splitlines()[:-1] == out2.splitlines()[:-1]
        assert a.read_bytes() == b.read_bytes()

    def test_file_input_with_header(self, capsys, tmp_path):
        poly_file = tmp_path / "input.poly"
        poly_file.write_text("vars: x, y, z\nx^3 + y^3 + z^3\n")
        code, out, _ = run(capsys, "witness", str(poly_file))
        assert code == 0
        assert "WITNESS_FOUND" in out


class TestUsageErrors:
    def test_syntax_error(self, capsys):
        code, _, err = run(capsys, "milnor", "x^^2", "--vars", "x")
        assert code == 2
        assert "error" in err

    def test_unknown_variable(self, capsys):
        code, _, err = run(capsys, "milnor", "x + q", "--vars", "x,y")
        assert code == 2

    def test_missing_vars(self, capsys):
        code, _, err = run(capsys, "milnor", "x^2")
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_flag_the_handler_does_not_read(self, capsys, tmp_path):
        out_path = tmp_path / "f.json"
        for argv in (
            ("check", "x^3+y^3+z^3", "--vars", "x,y,z", "--out", str(out_path)),
            ("milnor", "x^3+y^3+z^3", "--vars", "x,y,z", "--json"),
            ("identity", "x^3+y^3+z^3", "--vars", "x,y,z", "-i", "1", "-j", "1", "-k", "2",
             "--order", "lex"),
            ("witness", "x^3+y^3+z^3", "--vars", "x,y,z", "--prefilter"),
            ("symmetrize", "x^3+y^3+z^3", "--vars", "x,y,z", "--max-pairs", "10"),
            ("witness", "x^3+y^3+z^3", "--vars", "x,y,z", "--max-pairs", "10"),
            # the slice search and the monomial order are fixed
            ("witness", "x^3+y^3+z^3", "--vars", "x,y,z", "--seed", "1"),
            ("witness", "x^3+y^3+z^3", "--vars", "x,y,z", "--bound", "5"),
            ("examples", "--retries", "1"),
            ("check", "x^3+y^3+z^3", "--vars", "x,y,z", "--order", "lex"),
            ("member", "x", "--ideal", "x,y", "--vars", "x,y", "--order", "lex"),
        ):
            code, _, _ = run(capsys, *argv)
            assert code == 2, argv
        assert not out_path.exists()


class TestExamples:
    def test_corpus_summary(self, capsys):
        code, out, _ = run(capsys, "examples")
        assert code == 0
        assert "WITNESS_FOUND" in out
        assert "fermat-quartic" in out
        # the quasi-homogeneous Brieskorn entries find witnesses as expected
        for name in ("brieskorn-2-3-4", "brieskorn-3-3-4"):
            row = next(line.split() for line in out.splitlines() if line.startswith(name))
            assert "WITNESS_FOUND" in row and "ok" in row
        for line in out.splitlines()[1:]:
            assert "UNEXPECTED" not in line

    def test_corpus_json(self, capsys):
        code, out, _ = run(capsys, "examples", "--json")
        assert code == 0
        records = json.loads(out)
        assert len(records) == 6
        assert all(r["verdict"] == r["expected"] for r in records)
        assert {r["name"]: r["milnor_number"] for r in records}["brieskorn-2-3-4"] == 6
