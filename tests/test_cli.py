"""End-to-end tests for the command line interface and its file formats."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import load_tracer
from skewbrack import cli, koszul, polyvec
from skewbrack.cli import (
    MAX_DIMENSION,
    MAX_GROUP_OMEGA_TERMS,
    MAX_PIECE_ACTIONS,
    MAX_PIECE_TERMS,
    build_parser,
    cochain_to_classfile,
    load_class_file,
    load_group_file,
    main,
    piece_size,
)
from skewbrack.cochain import Cochain, cohomology_basis
from skewbrack.fixtures import EXAMPLES, bracket_pair
from skewbrack.groups import resolve_word
from skewbrack.koszul import KoszulElt, appendix_suite
from skewbrack.polyvec import Poly, Polyvector
from skewbrack.scalars import parse_scalar

GROUP_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "groups"


def fixture(name):
    return str(EXAMPLES / name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- group cmd


def test_group_report_sign_pair(capsys):
    code, out, _ = run(capsys, "group", fixture("klein_signs_k3.json"))
    assert code == 0
    assert "order: 4" in out
    assert "[3] g1*g2  codim 2  omega d1^d3" in out
    assert out.count("codim 1") == 2


def test_group_report_trivial(capsys):
    code, out, _ = run(capsys, "group", fixture("trivial_k2.json"))
    assert code == 0
    assert "order: 1" in out
    assert "codim 0" in out


def test_group_report_two_sign_pairs_json(capsys):
    code, out, _ = run(capsys, "group", fixture("two_sign_pairs_k5.json"),
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 4
    assert [el["codim"] for el in data["elements"]] == [0, 2, 2, 4]
    assert data["kernel"] == ["e"]


# Files that do not decode as JSON: truncated, not UTF-8 (a UTF-16
# byte-order mark), an integer past Python's 4,300-digit limit, and
# nesting past the recursion limit.
UNPARSEABLE = [b'{"dimension": 1,', b"\xff\xfe",
               b'{"dimension": ' + b"1" * 4301 + b"}",
               b"[" * 100000 + b"]" * 100000]


def assert_names_file(code, err, path):
    """Exit 2 with one stderr line naming the broken file."""
    assert code == 2
    assert err.startswith(f"error: {path}: not valid JSON: ") and len(err.splitlines()) == 1, err


def test_group_file_reads_as_utf8_in_an_ascii_locale(tmp_path):
    # RFC 8259 has JSON in UTF-8: a non-ASCII generator name reads the
    # same under the C locale with locale coercion and UTF-8 mode off;
    # --json escapes it, so stdout's encoding plays no part
    doc = json.loads(Path(fixture("sign_k1.json")).read_text(encoding="utf-8"))
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps({**doc, "names": ["\u03c3"]}, ensure_ascii=False),
                    encoding="utf-8")
    base = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    base["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    runs = []
    for locale in ({"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
                   {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"}):
        runs.append(subprocess.run(
            [sys.executable, "-m", "skewbrack.cli", "group", str(path), "--json"],
            capture_output=True, text=True, env={**base, **locale}, timeout=60))
    ascii_run, utf8_run = runs
    assert ascii_run.returncode == utf8_run.returncode == 0, ascii_run.stderr
    assert ascii_run.stdout == utf8_run.stdout
    assert json.loads(ascii_run.stdout)["elements"][1]["word"] == "\u03c3"


def test_group_file_errors(tmp_path, capsys):
    # each document goes to a file of its own name: rewriting one file
    # costs far more than creating one on some file systems
    for k, raw in enumerate(UNPARSEABLE):
        bad = tmp_path / f"unparseable{k}.json"
        bad.write_bytes(raw)
        code, _, err = run(capsys, "group", str(bad))
        assert_names_file(code, err, bad)

    bad = tmp_path / "bad.json"
    bad.write_text('[2, 1]')
    code, _, err = run(capsys, "group", str(bad))
    assert code == 2 and err.startswith(f"error: {bad}: group file must be a JSON object")

    bad.write_text('{"dimension": 2, "cyclotomicOrder": 1}')
    code, _, err = run(capsys, "group", str(bad))
    assert code == 2 and "generators" in err

    bad.write_text('{"dimension": 2, "cyclotomicOrder": 1, '
                   '"generators": [[["1", "?"], ["0", "1"]]]}')
    code, _, err = run(capsys, "group", str(bad))
    assert code == 2 and "position" in err

    bad.write_text('{"dimension": 2, "cyclotomicOrder": 1, '
                   '"generators": [[["1", "1"], ["0", "1"]]]}')
    code, _, err = run(capsys, "group", str(bad))
    assert code == 2 and "not finite" in err

    code, _, err = run(capsys, "group", str(tmp_path / "missing.json"))
    assert code == 2

    # JSON booleans are not integers
    sign = [[["-1", "0"], ["0", "1"]]]
    for k, (field, doc) in enumerate([
        ("generators", {"dimension": 2, "cyclotomicOrder": 1, "generators": []}),
        ("generators", {"dimension": 2, "cyclotomicOrder": 1, "generators": "x"}),
        ("bound", {"dimension": 2, "cyclotomicOrder": 1, "generators": sign,
                   "bound": True}),
        ("dimension", {"dimension": True, "cyclotomicOrder": 1,
                       "generators": [[["-1"]]]}),
        # too large: refused before enumeration, which multiplies n x n
        # matrices, and before group prints omega_g, of up to C(n, n/2) terms
        ("dimension", {"dimension": MAX_DIMENSION + 1, "cyclotomicOrder": 1,
                       "generators": [[["-1" if i == j else "0"
                                        for j in range(MAX_DIMENSION + 1)]
                                       for i in range(MAX_DIMENSION + 1)]]}),
        ("cyclotomicOrder", {"dimension": 2, "cyclotomicOrder": True,
                             "generators": sign}),
        # too large: refused before any cyclotomic arithmetic
        ("cyclotomicOrder", {"dimension": 2, "cyclotomicOrder": 10**30,
                             "generators": sign}),
        ("cyclotomicOrder", {"dimension": 2, "cyclotomicOrder": 5000,
                             "generators": sign}),
        # the first order above the ceiling; a sparse value's inverse at
        # order 401 took 16 s before refusing the group
        ("cyclotomicOrder", {"dimension": 1, "cyclotomicOrder": 101,
                             "generators": [[["1 + 2*z"]]]}),
        # a name must not read as the identity or as an element index
        ("names", {"dimension": 2, "cyclotomicOrder": 1, "generators": sign,
                   "names": ["e"]}),
        ("names", {"dimension": 2, "cyclotomicOrder": 1, "generators": sign,
                   "names": ["3"]}),
        ("names", {"dimension": 2, "cyclotomicOrder": 1, "generators": sign,
                   "names": [" s"]}),
        # g<k> names the k-th generator in class files, and no other
        ("names", {"dimension": 2, "cyclotomicOrder": 1, "generators": sign * 2,
                   "names": ["g2", "g1"]}),
        # too large: refused before enumeration, which would not end soon
        ("bound", {"dimension": 1, "cyclotomicOrder": 1,
                   "generators": [[["2"]]], "bound": 65536}),
    ]):
        bad = tmp_path / f"field{k}.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "group", str(bad))
        assert code == 2 and f"{field} must be" in err


def test_a_repeated_malformed_literal_fails_at_its_first_occurrence(tmp_path, capsys):
    # each distinct literal is parsed once; a malformed one still fails
    # where it first occurs, with the message of its own parse
    with pytest.raises(ValueError) as info:
        parse_scalar("z^", 1)
    bad = tmp_path / "bad.json"
    broken = [["z^", "0"], ["0", "z^"]]
    bad.write_text(json.dumps({"dimension": 2, "cyclotomicOrder": 1,
                               "generators": [[["1", "0"], ["0", "1"]], broken, broken]}))
    assert run(capsys, "group", str(bad)) == (2, "", f"error: {bad}: generator 2: {info.value}\n")

    terms = [{"group": "e", "coeff": coeff, "exponents": [0, 0, 0], "wedge": [1, 2]}
             for coeff in ("1", "z^", "z^")]
    bad.write_text(json.dumps({"homologicalDegree": 2, "terms": terms}))
    assert (run(capsys, "bracket", fixture("klein_signs_k3.json"), str(bad),
                fixture("class_wedge12_first.json"))
            == (2, "", f"error: {bad}: term 2: coeff: {info.value}\n"))


def test_a_literal_of_non_ascii_digits_is_refused_with_its_generator(tmp_path, capsys):
    # "-\u0661" is -1 written in Arabic-Indic digits
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dimension": 1, "cyclotomicOrder": 1,
                               "generators": [[["-\u0661"]]]}))
    assert run(capsys, "group", str(bad)) == (
        2, "", f"error: {bad}: generator 1: unexpected character '\u0661' at position 1\n")


@pytest.mark.parametrize("order, generator", [
    (1, [["1", "1"], ["1", "1"]]),
    # determinant -1 - z^2 = 0 over Q(zeta4)
    (4, [["1", "z"], ["z", "-1"]]),
])
def test_a_singular_generator_is_refused(tmp_path, capsys, order, generator):
    bad = tmp_path / "singular.json"
    bad.write_text(json.dumps({"dimension": 2, "cyclotomicOrder": order,
                               "generators": [generator]}))
    assert run(capsys, "group", str(bad)) == (
        2, "", f"error: {bad}: generators: generators must be invertible\n")


def test_group_generator_names(tmp_path, capsys):
    named = tmp_path / "named.json"
    named.write_text(json.dumps({
        "dimension": 3,
        "cyclotomicOrder": 1,
        "generators": [
            [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]],
        ],
        "names": ["s", "t"],
    }))
    code, out, _ = run(capsys, "group", str(named))
    assert code == 0
    assert "s*t" in out and "g1" not in out


def test_group_refuses_more_omega_terms_than_the_bound(tmp_path, capsys, monkeypatch):
    # (Z/2)^k on k^16 generated by the reflections that send x_t to -x_t
    # - 2 (x_k + ... + x_16), t <= k: the moved dual coordinates of the
    # element flipping S involve S and the last 16 - k coordinates, so
    # its omega_g has up to C(|S| + 16 - k, |S|) terms
    def tail_flips(k, tail="-2"):
        return {"dimension": 16, "cyclotomicOrder": 1,
                "generators": [[["-1" if i == j == t else tail if i == t and j >= k
                                 else "1" if i == j else "0" for j in range(16)]
                                for i in range(16)] for t in range(k)]}

    def most_terms(k):
        return sum(comb(k, s) * comb(16 - k + s, s) for s in range(k + 1))

    path = tmp_path / "flips.json"
    built = []
    monkeypatch.setattr(cli, "volume_form", lambda group, g: built.append(g))
    path.write_text(json.dumps(tail_flips(7)))
    # the bound reads codim as a rank per class and k_g off the columns
    # of 1 - g, so the refusal computes no geometry
    tracer = load_tracer().Tracer()
    with tracer:
        code, out, err = run(capsys, "group", str(path))
    assert tracer.counts()["groups.geometry.calls"] == 0
    assert most_terms(7) > MAX_GROUP_OMEGA_TERMS
    assert code == 2 and out == "" and not built
    assert f"{most_terms(7)} terms" in err and f"more than {MAX_GROUP_OMEGA_TERMS}" in err
    monkeypatch.undo()
    path.write_text(json.dumps(tail_flips(6)))
    code, out, _ = run(capsys, "group", str(path))
    assert most_terms(6) <= MAX_GROUP_OMEGA_TERMS
    assert code == 0 and "order: 64" in out
    # flipping seven coordinates in the standard basis, each omega_g is
    # one wedge: 128 terms, not the C(23, 7) of an omega_g that could
    # involve every coordinate
    path.write_text(json.dumps(tail_flips(7, tail="0")))
    code, out, _ = run(capsys, "group", str(path))
    assert comb(23, 7) > MAX_GROUP_OMEGA_TERMS
    assert code == 0 and "order: 128" in out


# -------------------------------------------------------- cohomology cmd


def test_cohomology_trivial_counts(capsys):
    code, out, _ = run(capsys, "cohomology", fixture("trivial_k2.json"),
                       "--p", "1", "--m", "1")
    assert code == 0
    assert "4 classes (cross-check 4)" in out


def test_cohomology_sign_line_empty(capsys):
    code, out, _ = run(capsys, "cohomology", fixture("sign_k1.json"),
                       "--p", "1", "--m", "0")
    assert code == 0
    assert "0 classes" in out


def test_cohomology_volume_class_on_k5(capsys):
    code, out, _ = run(capsys, "cohomology", fixture("two_sign_pairs_k5.json"),
                       "--p", "3", "--m", "0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["match"] and data["count"] == data["crossCheck"]
    hits = [t for c in data["classes"] for t in c["terms"]
            if t["group"] == "s" and t["wedge"] == [1, 2, 3]]
    assert hits


def test_cohomology_prints_generator_names(capsys):
    code, out, _ = run(capsys, "cohomology", fixture("two_sign_pairs_k5.json"),
                       "--p", "2", "--m", "0")
    assert code == 0
    assert "  (d1^d2) s\n" in out and '"group": "s"' in out
    assert "g1" not in out and "g2" not in out


def test_cohomology_fails_when_the_character_count_disagrees(capsys, monkeypatch):
    monkeypatch.setattr(cli, "cohomology_dim_character", lambda group, p, m: [5])
    code, out, err = run(capsys, "cohomology", fixture("trivial_k2.json"),
                         "--p", "1", "--m", "1")
    assert code == 1 and "4 classes (cross-check 5)" in out
    assert err == ("internal error: basis count 4 does not match "
                   "the character count 5\n")

    def not_an_integer(group, p, m):
        raise ArithmeticError("the character count is 1/3")

    monkeypatch.setattr(cli, "cohomology_dim_character", not_an_integer)
    code, _, err = run(capsys, "cohomology", fixture("trivial_k2.json"),
                       "--p", "1", "--m", "1")
    assert code == 1 and err == "internal error: the character count is 1/3\n"


def test_cohomology_degree_out_of_range(capsys):
    code, _, err = run(capsys, "cohomology", fixture("sign_k1.json"),
                       "--p", "2", "--m", "0")
    assert code == 2 and err == "error: --p must be at most the dimension 1, got 2\n"


def test_cohomology_refuses_oversized_piece_early(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "cohomology", fixture("two_sign_pairs_k5.json"),
                         "--p", "2", "--m", "16")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: --m 16 at --p 2 gives 48450 terms")


def test_cohomology_refuses_a_huge_m_before_sizing_the_piece(capsys):
    # the piece of a 2,000-digit --m has a count past Python's digit limit
    # for printing an int, so --m is checked before the piece is sized
    huge = "9" * 2000
    code, out, err = run(capsys, "cohomology", fixture("two_sign_pairs_k5.json"),
                         "--p", "0", "--m", huge)
    assert code == 2 and out == ""
    assert err == ("error: --m must be at most 16, the total degree a class "
                   f"file takes, got {huge}\n")


def test_cohomology_refuses_m_past_the_class_file_degree(capsys):
    # on k^1 every piece has one term, so only this bound stops --m
    start = time.perf_counter()
    code, out, err = run(capsys, "cohomology", fixture("sign_k1.json"),
                         "--p", "0", "--m", "17")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == ("error: --m must be at most 16, the total degree a class "
                   "file takes, got 17\n")


def test_cohomology_classes_at_the_largest_m_load_back(tmp_path, capsys):
    path = fixture("sign_k1.json")
    code, out, _ = run(capsys, "cohomology", path, "--p", "0", "--m", "16", "--json")
    assert code == 0
    group, _ = load_group_file(path)
    classes = json.loads(out)["classes"]
    basis = cohomology_basis(group, 0, 16)
    assert len(classes) == len(basis) == 1
    for data, c in zip(classes, basis):
        saved = tmp_path / "class.json"
        saved.write_text(json.dumps(data))
        assert load_class_file(str(saved), group) == c


def test_cohomology_of_the_binary_tetrahedral_group(capsys):
    # SL(2, 3) in SL(2) over Q(zeta4), the first group file with an entry
    # that is not an integer; in exterior degree 0 its classes are the
    # invariant polynomials, which Klein's forms of degrees 6, 8 and 12
    # generate
    path = fixture("binary_tetrahedral_k2_z4.json")
    code, out, _ = run(capsys, "group", path, "--json")
    data = json.loads(out)
    assert code == 0 and data["order"] == 24 and len(data["conjugacyClasses"]) == 7
    for p, m, count in [(0, 6, 1), (0, 8, 1), (0, 10, 0), (0, 12, 2), (2, 0, 7)]:
        code, out, _ = run(capsys, "cohomology", path, "--p", str(p), "--m", str(m), "--json")
        data = json.loads(out)
        assert code == 0 and data["match"] and data["count"] == count, (p, m, data["count"])


def test_cohomology_refuses_piece_too_large_for_its_group(capsys):
    # 700 terms is under the term bound, but S5's centralizers make the
    # averages 112,700 single actions
    start = time.perf_counter()
    code, out, err = run(capsys, "cohomology", str(GROUP_DATA / "s5.json"),
                         "--p", "2", "--m", "4")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == ("error: --m 4 at --p 2 needs 112700 single actions to "
                   "average over the centralizers, more than 30000\n")


def test_piece_bounds_accept_every_piece_in_use():
    # p, m <= 3 covers every piece the tests and the benchmark compute; the
    # stored S5 classes have m <= 1
    groups = {path.stem: load_group_file(str(path))[0]
              for path in [*EXAMPLES.glob("*.json"), *GROUP_DATA.glob("*.json")]
              if not path.name.startswith("class_")}
    largest = 0
    for name, group in groups.items():
        for p in range(min(group.dim, 3) + 1):
            for m in range(2 if name == "s5" else 4):
                terms, actions = piece_size(group, p, m)
                assert terms <= MAX_PIECE_TERMS and actions <= MAX_PIECE_ACTIONS, (name, p, m)
                largest = max(largest, actions)
    assert largest == piece_size(groups["rot"], 3, 3)[1] == 12600


def run_usage_error(capsys, *argv):
    """Run a command that argparse rejects; returns its stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--p", "--m"])
def test_cohomology_rejects_negative_degrees(capsys, flag):
    args = {"--p": "1", "--m": "0", flag: "-1"}
    err = run_usage_error(capsys, "cohomology", fixture("sign_k1.json"),
                          *[t for item in args.items() for t in item])
    assert f"argument {flag}: must be non-negative" in err


@pytest.mark.parametrize("suite, flag", [
    ("appendix", "--max"),
    ("homotopy", "--dim"),
    ("homotopy", "--s"),
    ("homotopy", "--z"),
    ("homotopy", "--t"),
    ("schouten", "--dim"),
    ("schouten", "--pairs"),
])
def test_verify_rejects_negative_bounds(capsys, suite, flag):
    err = run_usage_error(capsys, "verify", suite, flag, "-3")
    if flag in ("--max", "--dim", "--pairs"):
        # a zero bound would pass vacuously, so these start at 1
        assert f"argument {flag}: must be positive, got -3" in err
        err = run_usage_error(capsys, "verify", suite, flag, "0")
        assert f"argument {flag}: must be positive, got 0" in err
    else:
        assert f"argument {flag}: must be non-negative, got -3" in err


def test_integer_options_still_reject_non_integers(capsys):
    err = run_usage_error(capsys, "verify", "appendix", "--max", "two")
    assert "argument --max: invalid int value: 'two'" in err
    # digits past Python's 4,300-digit limit on int()
    err = run_usage_error(capsys, "verify", "appendix", "--max", "1" * 4301)
    assert "argument --max: invalid int value: '111" in err, err[-200:]


@pytest.mark.parametrize("text", ["\u0661", "1_0", " 1", "+1"])
@pytest.mark.parametrize("command, flag", [
    (["cohomology", fixture("sign_k1.json"), "--p", "1"], "--m"),
    (["verify", "schouten"], "--pairs"),
    (["verify", "schouten"], "--seed"),
])
def test_integer_options_take_ascii_digits_only(capsys, command, flag, text):
    # int() alone reads an Arabic-Indic one, 1_0, " 1" and +1; an option
    # takes a - and 0-9 only, as scalar literals do
    err = run_usage_error(capsys, *command, flag, text)
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1, err
    assert errors[0].endswith(f": error: argument {flag}: invalid int value: {text!r}"), err


def test_a_negative_seed_still_runs(capsys):
    code, out, _ = run(capsys, "verify", "schouten", "--dim", "1", "--pairs", "1",
                       "--seed", "-3")
    assert code == 0 and out.splitlines()[-1] == "verify: all checks pass"


# ----------------------------------------------------------- bracket cmd


def test_bracket_two_sign_pairs(capsys):
    code, out, _ = run(capsys, "bracket", fixture("two_sign_pairs_k5.json"),
                       fixture("class_volume3_first.json"),
                       fixture("class_fixed_volume2_second.json"))
    assert code == 0
    assert "bracket: (d1^d2^d4^d5) s*t" in out
    assert "grading: D(2) x D(2) -> D(4)" in out
    assert "  term at (s, t): d1^d2^d4^d5" in out and "g1" not in out


def test_bracket_json_prints_generator_names(capsys):
    code, out, _ = run(capsys, "bracket", fixture("two_sign_pairs_k5.json"),
                       fixture("class_volume3_first.json"),
                       fixture("class_fixed_volume2_second.json"), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["display"] == "(d1^d2^d4^d5) s*t"
    assert {t["group"] for t in data["result"]["terms"]} == {"s*t"}
    assert [(t["left"], t["right"]) for t in data["terms"]] == [("s", "t")]


def test_bracket_rotation_pair_cyclotomic(capsys):
    code, out, _ = run(capsys, "bracket", fixture("rotation_pair_k5_z6.json"),
                       fixture("class_volume3_first.json"),
                       fixture("class_fixed_volume2_second.json"), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["terms"] == [{
        "group": "g1*g2", "coeff": "1",
        "exponents": [0, 0, 0, 0, 0], "wedge": [1, 2, 4, 5]}]
    assert data["grading"] == {"left": 2, "right": 2, "output": 4}


def test_bracket_requires_invariance(capsys):
    code, _, err = run(capsys, "bracket", fixture("klein_signs_k3.json"),
                       fixture("class_wedge12_first.json"),
                       fixture("class_x2_wedge23_second.json"))
    assert code == 2
    assert "not G-invariant" in err


def test_bracket_reynolds_averages_to_zero(tmp_path, capsys):
    group_file = fixture("klein_signs_k3.json")
    first = fixture("class_wedge12_first.json")
    code, out, _ = run(capsys, "bracket", group_file, first,
                       fixture("class_x2_wedge23_second.json"), "--reynolds")
    assert code == 0
    assert "bracket: 0" in out
    assert "left operand is zero after --reynolds" in out
    assert "right operand is zero after --reynolds" in out

    # x2*d2 at e is invariant, so only the left operand averages to zero
    invariant = tmp_path / "invariant.json"
    invariant.write_text(json.dumps({"homologicalDegree": 1, "terms": [
        {"group": "e", "coeff": "1", "exponents": [0, 1, 0], "wedge": [2]}]}))
    code, out, _ = run(capsys, "bracket", group_file, first, str(invariant),
                       "--reynolds", "--project", "--json")
    assert code == 0
    assert json.loads(out)["zeroOperands"] == ["left"]
    code, out, _ = run(capsys, "bracket", group_file, first, str(invariant),
                       "--reynolds", "--project")
    assert "left operand is zero after --reynolds --project" in out
    assert "right operand" not in out

    # nonzero operands: no extra line or key
    code, out, _ = run(capsys, "bracket", group_file, str(invariant),
                       str(invariant), "--reynolds", "--json")
    assert code == 0 and "zeroOperands" not in json.loads(out)


def test_bracket_perp_fixture_vanishes(capsys):
    code, out, _ = run(capsys, "bracket", fixture("overlap_signs_k3.json"),
                       fixture("class_x3_wedge12_first.json"),
                       fixture("class_x1_wedge23_second.json"), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["terms"] == []
    assert data["vanishing"]


S4_CLASSES = GROUP_DATA.parent / "classes" / "s4"


def s4_over_zeta3(tmp_path):
    # S4 permuting coordinates over Q takes the degree-1 loops of act and
    # _convolve, and the same matrices over Q(zeta3) the general ones
    q = str(GROUP_DATA / "s4.json")
    doc = json.loads(Path(q).read_text())
    doc["cyclotomicOrder"] = 3
    z3 = tmp_path / "s4_z3.json"
    z3.write_text(json.dumps(doc))
    classes = [str(S4_CLASSES / "p2m1_1.json"), str(S4_CLASSES / "p1m1_1.json")]
    return [([command, q, *args, "--json"], [command, str(z3), *args, "--json"])
            for command, args in (("cohomology", ["--p", "2", "--m", "1"]), ("bracket", classes))]


def s4_bracket_averaged_first(tmp_path):
    # the operands are invariant and reduced, so averaging and projecting
    # them first changes nothing; reynolds moves the seven components of
    # the eight-component class that are not its representative
    argv = ["bracket", str(GROUP_DATA / "s4.json"), str(S4_CLASSES / "p2m1_2.json"),
            str(S4_CLASSES / "p1m1_1.json"), "--json"]
    return [(argv, [*argv, "--reynolds", "--project"])]


def rotation_pair_literals_rewritten(tmp_path):
    # the same values in other accepted forms: z^8 = z^2 over Q(zeta6),
    # '*' left out, whitespace between tokens, an unreduced fraction
    files = [fixture(f"{name}.json") for name in
             ("rotation_pair_k5_z6", "class_volume3_first", "class_fixed_volume2_second")]
    rewritten = [tmp_path / Path(path).name for path in files]
    for path, new in zip(files, rewritten):
        text = Path(path).read_text()
        text = text.replace('"z^2"', '" z ^ 8 "').replace('"z^4"', '"1 z^4"')
        new.write_text(text.replace('"1"', '"2/2 * z^0"'))
    assert '" z ^ 8 "' in rewritten[0].read_text()
    assert '"2/2 * z^0"' in rewritten[1].read_text()
    return [(["bracket", *files, "--json"], ["bracket", *map(str, rewritten), "--json"])]


@pytest.mark.parametrize("derive", [s4_over_zeta3, s4_bracket_averaged_first,
                                    rotation_pair_literals_rewritten])
def test_equivalent_inputs_give_the_same_output(tmp_path, capsys, derive):
    for argv, same in derive(tmp_path):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert run(capsys, *same) == (0, out, "")


def test_bracket_of_degree_zero_classes_reloads(tmp_path, capsys):
    # a degree-0 class has no slot to insert into, so the bracket is the
    # zero class of degree 0, and its class file is a valid operand again
    group_file = fixture("klein_signs_k3.json")
    x2 = tmp_path / "x2.json"
    x2.write_text(json.dumps({"homologicalDegree": 0, "terms": [
        {"group": "e", "coeff": "1", "exponents": [0, 1, 0], "wedge": []}]}))
    code, out, _ = run(capsys, "bracket", group_file, str(x2), str(x2), "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {"homologicalDegree": 0, "terms": []}
    again = tmp_path / "result.json"
    again.write_text(json.dumps(result))
    code, out, _ = run(capsys, "bracket", group_file, str(again), str(x2), "--json")
    assert code == 0
    assert json.loads(out)["result"] == result


def test_bracket_project_flag(tmp_path, capsys):
    # x1*d1 at g1 is invariant and a cocycle but carries a moved variable
    unreduced = tmp_path / "unreduced.json"
    unreduced.write_text(json.dumps({
        "homologicalDegree": 1,
        "terms": [
            {"group": "g1", "coeff": "1", "exponents": [1, 0, 0],
             "wedge": [1]},
        ],
    }))
    invariant = tmp_path / "invariant.json"
    invariant.write_text(json.dumps({
        "homologicalDegree": 1,
        "terms": [
            {"group": "e", "coeff": "1", "exponents": [0, 1, 0],
             "wedge": [2]},
        ],
    }))
    code, _, err = run(capsys, "bracket", fixture("klein_signs_k3.json"),
                       str(invariant), str(unreduced))
    assert code == 2 and "reduced" in err
    code, out, _ = run(capsys, "bracket", fixture("klein_signs_k3.json"),
                       str(invariant), str(unreduced), "--project")
    assert code == 0
    assert "bracket: 0" in out


# ------------------------------------------------------------ round trip


def test_class_file_round_trip(tmp_path):
    # each class goes to a file of its own name: rewriting one file costs
    # far more than creating one on some file systems
    group, names = load_group_file(fixture("two_sign_pairs_k5.json"))
    seen = 0
    for p in range(4):
        for m in range(3):
            for c in cohomology_basis(group, p, m):
                data = cochain_to_classfile(c)
                path = tmp_path / f"c{seen}.json"
                path.write_text(json.dumps(data))
                back = load_class_file(str(path), group)
                assert back == c
                seen += 1
    assert seen > 20


def test_class_file_round_trip_cyclotomic(tmp_path):
    group, _ = load_group_file(fixture("rotation_pair_k5_z6.json"))
    _, x, y, expected = bracket_pair("rotation-k5-z6")
    for k, c in enumerate((x, y, expected)):
        # two loads of one group file enumerate alike
        data = cochain_to_classfile(c)
        path = tmp_path / f"c{k}.json"
        path.write_text(json.dumps(data))
        back = load_class_file(str(path), group)
        assert cochain_to_classfile(back) == data


def test_class_file_sums_repeated_and_cancelling_terms(tmp_path):
    group, _ = load_group_file(fixture("klein_signs_k3.json"))
    terms = [  # (group, coeff, exponents, wedge)
        ("e", "1", [1, 0, 0], [1]),
        ("g1", "1/2", [0, 2, 0], [2]),
        ("e", "2", [1, 0, 0], [1]),  # repeated: sums to 3
        ("e", "1", [0, 1, 0], [3]),
        ("e", "-1", [0, 1, 0], [3]),  # cancels its wedge term
        ("g2", "5", [0, 0, 1], [1]),
        ("g2", "-5", [0, 0, 1], [1]),  # cancels the whole component
        ("g1", "3", [0, 2, 0], [2]),
    ]
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"homologicalDegree": 1, "terms": [
        {"group": g, "coeff": c, "exponents": e, "wedge": w} for g, c, e, w in terms]}))
    comps = {}
    for g, c, e, w in terms:  # one term at a time, added up
        pv = Polyvector.term(parse_scalar(c, 1), tuple(e), tuple(i - 1 for i in w), 1)
        k = resolve_word(group, g)
        comps[k] = comps[k] + pv if k in comps else pv
    got = load_class_file(str(path), group)
    assert got == Cochain(group, 1, comps)
    assert sorted(got.terms) == [0, resolve_word(group, "g1")]


def test_class_file_resolves_each_distinct_group_word_once(tmp_path, monkeypatch):
    calls = []

    def spy(group, word):
        calls.append(word)
        return resolve_word(group, word)

    monkeypatch.setattr(cli, "resolve_word", spy)
    group, _ = load_group_file(str(GROUP_DATA / "s4.json"))
    path = GROUP_DATA.parent / "classes" / "s4" / "p2m1_2.json"
    words = [t["group"] for t in json.loads(path.read_text())["terms"]]
    assert len(words) == 72
    got = load_class_file(str(path), group)
    assert calls == list(dict.fromkeys(words)) and len(calls) == 8
    assert sorted(got.terms) == sorted({resolve_word(group, w) for w in words})

    # a bad word still fails at the first term that names it
    calls.clear()
    term = {"coeff": "1", "exponents": [0, 0, 0, 0], "wedge": [1, 2]}
    bad = tmp_path / "bad-word.json"
    bad.write_text(json.dumps({"homologicalDegree": 2, "terms": [
        {**term, "group": w} for w in ("g1", "g1", "h1", "h1")]}))
    with pytest.raises(ValueError, match=r"term 3: group: bad generator token 'h1'$"):
        load_class_file(str(bad), group)
    assert calls == ["g1", "h1"]


def test_class_file_loads_in_time_linear_in_its_terms(tmp_path):
    # 4,000 terms at one element over all 969 monomials on k^3 of degree
    # at most 16; each term once copied its wedge's whole polynomial
    group, _ = load_group_file(fixture("klein_signs_k3.json"))
    monos = [(a, b, d - a - b) for d in range(17)
             for a in range(d + 1) for b in range(d - a + 1)]
    assert len(monos) == 969
    terms = [{"group": "e", "coeff": str(k % 7 - 3), "exponents": list(monos[k % 969]),
              "wedge": [1 + k % 3]} for k in range(4000)]
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"homologicalDegree": 1, "terms": terms}))
    start = time.perf_counter()
    got = load_class_file(str(path), group)
    assert time.perf_counter() - start < 1
    want = {}
    for t in terms:
        key = (t["wedge"][0] - 1,), tuple(t["exponents"])
        want[key] = want.get(key, 0) + int(t["coeff"])
    polys = {}
    for (idx, exps), c in want.items():
        polys.setdefault(idx, {})[exps] = c
    assert got == Cochain(group, 1, {0: Polyvector(3, 1, {
        idx: Poly(3, 1, poly) for idx, poly in polys.items()})})


def test_class_file_errors(tmp_path, capsys):
    group_file = fixture("klein_signs_k3.json")
    ok = fixture("class_wedge12_first.json")

    # each document goes to a file of its own name, as in test_group_file_errors
    for k, raw in enumerate(UNPARSEABLE):
        bad = tmp_path / f"unparseable{k}.json"
        bad.write_bytes(raw)
        for x, y in ((str(bad), ok), (ok, str(bad))):
            code, _, err = run(capsys, "bracket", group_file, x, y)
            assert_names_file(code, err, bad)

    bad = tmp_path / "bad.json"
    bad.write_text('"terms"')
    code, _, err = run(capsys, "bracket", group_file, str(bad), ok)
    assert code == 2 and err.startswith(f"error: {bad}: class file must be a JSON object")

    bad.write_text(json.dumps({"homologicalDegree": 2, "terms": [
        {"group": "g9", "coeff": "1", "exponents": [0, 0, 0],
         "wedge": [1, 2]}]}))
    code, _, err = run(capsys, "bracket", group_file, str(bad), ok)
    assert code == 2 and "term 1" in err

    # errors from resolving the group word name the field
    for gref in ("h1", 99):
        bad = tmp_path / f"gref-{gref}.json"
        bad.write_text(json.dumps({"homologicalDegree": 2, "terms": [
            {"group": gref, "coeff": "1", "exponents": [0, 0, 0],
             "wedge": [1, 2]}]}))
        code, _, err = run(capsys, "bracket", group_file, str(bad), ok)
        assert code == 2 and "term 1: group: " in err

    # generator numbers and element indices are ASCII digits only: an
    # Arabic-Indic one or a superscript is a bad token, not a number
    for k, gref in enumerate(("g\u0661", "\u0661", "g\u00b2", "\u00b2")):
        bad = tmp_path / f"token{k}.json"
        bad.write_text(json.dumps({"homologicalDegree": 2, "terms": [
            {"group": gref, "coeff": "1", "exponents": [0, 0, 0],
             "wedge": [1, 2]}]}))
        code, _, err = run(capsys, "bracket", group_file, str(bad), ok)
        assert code == 2 and f"term 1: group: bad generator token {gref!r}" in err

    bad = tmp_path / "wedge-order.json"
    bad.write_text(json.dumps({"homologicalDegree": 2, "terms": [
        {"group": "g1", "coeff": "1", "exponents": [0, 0, 0],
         "wedge": [2, 1]}]}))
    code, _, err = run(capsys, "bracket", group_file, str(bad), ok)
    assert code == 2 and "increasing" in err

    bad = tmp_path / "zero-denominator.json"
    bad.write_text(json.dumps({"homologicalDegree": 2, "terms": [
        {"group": "g1", "coeff": "1/0", "exponents": [0, 0, 0],
         "wedge": [1, 2]}]}))
    code, _, err = run(capsys, "bracket", group_file, str(bad), ok)
    assert code == 2

    term = {"group": "g1", "coeff": "1", "exponents": [0, 0, 0], "wedge": [1, 2]}
    for k, (field, doc) in enumerate([
        ("terms", {"homologicalDegree": 2, "terms": 5}),
        ("homologicalDegree", {"homologicalDegree": True, "terms": [term]}),
        ("group", {"homologicalDegree": 2, "terms": [{**term, "group": ["g1"]}]}),
        ("group", {"homologicalDegree": 2, "terms": [{**term, "group": True}]}),
        ("exponents", {"homologicalDegree": 2,
                       "terms": [{**term, "exponents": [True, 0, 0]}]}),
        ("wedge", {"homologicalDegree": 2, "terms": [{**term, "wedge": [True, 2]}]}),
    ]):
        bad = tmp_path / f"field{k}.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "bracket", group_file, str(bad), ok)
        assert code == 2 and f"{field} must be" in err

    # an unbounded degree is refused at load, before any substitution
    bad = tmp_path / "degree.json"
    bad.write_text(json.dumps({"homologicalDegree": 2, "terms": [
        {**term, "exponents": [10**30, 0, 0]}]}))
    group, _ = load_group_file(group_file)
    with pytest.raises(ValueError, match="exponents must be"):
        load_class_file(str(bad), group)
    code, _, err = run(capsys, "bracket", group_file, str(bad), ok)
    assert code == 2 and "exponents must be" in err


# --------------------------------------------------------- input fuzzing

VALID_GROUP = {
    "dimension": 3,
    "cyclotomicOrder": 1,
    "generators": [
        [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]],
    ],
    "names": ["s", "t"],
    "bound": 64,
}
VALID_CLASS = {
    "homologicalDegree": 2,
    "terms": [
        {"group": "s*t", "coeff": "1", "exponents": [0, 1, 0], "wedge": [1, 3]},
        {"group": "e", "coeff": "-1/2", "exponents": [1, 0, 0], "wedge": [1, 2]},
    ],
}
BAD_VALUES = [None, True, False, "x", 0.5, [], [1], {}, {"a": 1}, -1, 10**30]


def field_paths(doc, prefix=()):
    """Every (path to container, key) below doc, dicts and lists alike."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from field_paths(value, prefix + (key,))


def mutated(doc, prefix, key, value, delete):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for step in prefix:
        parent = parent[step]
    if delete:
        del parent[key]
    else:
        parent[key] = value
    return doc


@st.composite
def one_mutation(draw):
    """A valid (group, class) pair with one field of one document deleted
    (dict keys only) or replaced by a value of the wrong kind or size."""
    which = draw(st.sampled_from(["group", "class"]))
    docs = {"group": VALID_GROUP, "class": VALID_CLASS}
    prefix, key = draw(st.sampled_from(list(field_paths(docs[which]))))
    delete = isinstance(key, str) and draw(st.booleans())
    value = None if delete else draw(st.sampled_from(BAD_VALUES))
    docs[which] = mutated(docs[which], prefix, key, value, delete)
    return docs


def test_name_of_g_and_a_non_ascii_digit_is_a_plain_name(tmp_path):
    # "g" and an Arabic-Indic one is not g<k>, and a superscript two or an
    # Arabic-Indic one is not an element index, so each may name generator
    # 2, and a class file reaches that generator by the name
    path = tmp_path / "g.json"
    for name in ("g\u0661", "\u00b2", "\u0661"):
        path.write_text(json.dumps({**VALID_GROUP, "names": ["s", name]}))
        group, _ = load_group_file(str(path))
        assert resolve_word(group, name) == resolve_word(group, "g2"), name
        assert resolve_word(group, name) != resolve_word(group, "g1"), name


def test_valid_fuzz_documents_load(tmp_path, capsys):
    group_file, class_file = tmp_path / "g.json", tmp_path / "c.json"
    group_file.write_text(json.dumps(VALID_GROUP))
    class_file.write_text(json.dumps(VALID_CLASS))
    code, out, _ = run(capsys, "bracket", str(group_file), str(class_file),
                       str(class_file), "--reynolds", "--project")
    assert code == 0 and "zero after" not in out


@settings(max_examples=150, deadline=None)
@given(docs=one_mutation())
def test_malformed_documents_exit_2_naming_the_file(tmp_path_factory, docs):
    tmp = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for which, doc in docs.items():
        paths[which] = tmp / f"{which}.json"
        paths[which].write_text(json.dumps(doc))
    for argv in (["group", str(paths["group"])],
                 ["bracket", str(paths["group"]), str(paths["class"]),
                  str(paths["class"]), "--reynolds", "--project"]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), (argv, err.getvalue())
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1, lines
            assert any(lines[0].startswith(f"error: {p}: ") for p in paths.values()), lines


@pytest.mark.parametrize("fault", [KeyError, RuntimeError])
def test_a_fault_inside_a_command_is_not_a_usage_error(monkeypatch, fault):
    # every input error is a ValueError or an OSError; anything else
    # raised inside a command is a fault of the program, and it leaves
    # main rather than exit with 2, the code for bad input
    def broken(group, p, m):
        raise fault("fault")

    monkeypatch.setattr(cli, "cohomology_dim_character", broken)
    with pytest.raises(fault):
        main(["cohomology", fixture("trivial_k2.json"), "--p", "1", "--m", "1"])


def test_validation_survives_python_optimize(tmp_path):
    # python -O strips assert statements; the loaders must not rely on them
    sign = [[["-1", "0"], ["0", "1"]]]
    group_docs = [
        {"dimension": 2, "cyclotomicOrder": 1},
        {"dimension": 2, "cyclotomicOrder": 1, "generators": [[["1", "?"], ["0", "1"]]]},
        {"dimension": 2, "cyclotomicOrder": 1, "generators": [[["1", "1"], ["0", "1"]]]},
        {"dimension": 2, "cyclotomicOrder": 1, "generators": [[["1", "0"]]]},
        {"dimension": True, "cyclotomicOrder": 1, "generators": [[["-1"]]]},
        {"dimension": 2, "cyclotomicOrder": 10**30, "generators": sign},
    ]
    term = {"group": "g1", "coeff": "1", "exponents": [0, 0, 0], "wedge": [1, 2]}
    class_docs = [
        {"homologicalDegree": 2, "terms": [{**term, "group": "g9"}]},
        {"homologicalDegree": 2, "terms": [{**term, "wedge": [2, 1]}]},
        {"homologicalDegree": 2, "terms": [{**term, "wedge": [1, 4]}]},
        {"homologicalDegree": 2, "terms": [{**term, "coeff": "1/0"}]},
        {"homologicalDegree": 2, "terms": [{**term, "exponents": [0, 0]}]},
        {"homologicalDegree": 2, "terms": 5},
    ]
    cases = [["group", doc] for doc in group_docs]
    cases += [["bracket", fixture("klein_signs_k3.json"), doc,
               fixture("class_wedge12_first.json")] for doc in class_docs]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    for pos, (command, *files) in enumerate(cases):
        bad = tmp_path / f"bad{pos}.json"
        argv = [command]
        for f in files:
            if isinstance(f, dict):
                bad.write_text(json.dumps(f))
                f = str(bad)
            argv.append(f)
        proc = subprocess.run([sys.executable, "-O", "-m", "skewbrack.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr.startswith("error: "), proc.stderr


@pytest.mark.parametrize("argv", [
    ["group", str(GROUP_DATA / "s5.json"), "--json"],
    # a report that fits in stdout's buffer meets the broken pipe only
    # when the buffer is flushed
    ["group", fixture("klein_signs_k3.json")],
])
def test_broken_pipe_on_stdout_exits_as_sigpipe(argv):
    # `skewbrack group ... --json | head -2`: the reader of stdout has gone
    # before the report is written, which is neither bad input nor a
    # failed check; the process ends quietly with 128 + SIGPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    # stdout block-buffered, as in a shell pipeline
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "skewbrack.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_broken_pipe_on_a_redirected_stdout_is_an_error():
    # an in-process caller that redirects stdout sees the error reported
    # as before: no file descriptor of its own is touched
    class Gone(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    err = io.StringIO()
    with redirect_stdout(Gone()), redirect_stderr(err):
        code = main(["group", fixture("klein_signs_k3.json")])
    assert code == 2
    assert err.getvalue() == "error: [Errno 32] Broken pipe\n"


# ---------------------------------------------------------------- verify


def test_verify_appendix_small(capsys):
    code, out, _ = run(capsys, "verify", "appendix", "--max", "3")
    assert code == 0
    assert "17/17 identities pass" in out


def test_verify_appendix_json(capsys):
    code, out, _ = run(capsys, "verify", "appendix", "--max", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] and data["identities"] == 17 and data["failures"] == []
    assert data["checked"] == len(appendix_suite(3))


def test_verify_homotopy_small(capsys):
    code, out, _ = run(capsys, "verify", "homotopy", "--dim", "2",
                       "--s", "1", "--z", "1", "--t", "2")
    assert code == 0
    assert "residual zero" in out


def test_verify_schouten_small(capsys):
    code, out, _ = run(capsys, "verify", "schouten", "--pairs", "5",
                       "--dim", "1")
    assert code == 0
    assert "derivation commutator" in out


def test_verify_examples(capsys):
    code, out, _ = run(capsys, "verify", "examples")
    assert code == 0
    assert "FAIL" not in out


def break_xi(xi):
    # one coefficient off by one, at one tuple
    return lambda s, t, z, r: xi(s, t, z, r) + ((s, t, z, r) == (1, 2, 0, 2))


@pytest.mark.parametrize("argv, target, broken, first", [
    (["appendix", "--max", "3"], (koszul, "xi"), break_xi,
     "  FAIL lEQ1 at (1, 2, 0, 2)"),
    (["homotopy", "--dim", "2", "--s", "1", "--z", "1", "--t", "2"], (koszul, "phi"),
     lambda phi: lambda e: KoszulElt.zero(*e.head), "  FAIL at S=() Z=() middle=(1, 0)"),
], ids=["appendix", "homotopy"])
def test_verify_reports_each_failure(capsys, monkeypatch, argv, target, broken, first):
    # the piece the suite checks is broken: it exits 1, with one FAIL line
    # per entry of the JSON failure list
    monkeypatch.setattr(*target, broken(getattr(*target)))
    code, out, _ = run(capsys, "verify", *argv)
    lines = out.splitlines()
    fails = [line for line in lines if line.startswith("  FAIL ")]
    assert code == 1 and lines[-1] == "verify: FAILURES detected"
    assert fails[0] == first and len(fails) == len(lines) - 2
    code, out, _ = run(capsys, "verify", *argv, "--json")
    data = json.loads(out)
    assert code == 1 and data["pass"] is False
    assert len(data["failures"]) == len(fails)


@pytest.mark.parametrize("target, broken, random_failures, law_kinds", [
    ((koszul, "vector_field_commutator"), lambda f: lambda x, y: -f(x, y),
     [0, 1, 2, 3, 4], set()),
    ((polyvec, "schouten"), lambda f: lambda x, y: x.wedge(y), [], {"antisymmetry", "jacobi"}),
], ids=["commutator-negated", "schouten-as-wedge"])
def test_verify_schouten_reports_each_failure(capsys, monkeypatch, target, broken,
                                              random_failures, law_kinds):
    monkeypatch.setattr(*target, broken(getattr(*target)))
    argv = ["verify", "schouten", "--dim", "1", "--pairs", "5"]
    code, out, _ = run(capsys, *argv)
    assert code == 1 and out.splitlines()[-1] == "verify: FAILURES detected"
    code, out, _ = run(capsys, *argv, "--json")
    data = json.loads(out)
    assert code == 1 and data["pass"] is False
    assert data["randomFailures"] == random_failures
    assert {f[0] for f in data["lawFailures"]} == law_kinds


def test_main_runs_every_subcommand_on_the_parser_built_at_import(capsys, monkeypatch):
    # main parses with the parser built once, when the module is loaded
    def rebuild():
        raise AssertionError("the parser was rebuilt")

    monkeypatch.setattr(cli, "build_parser", rebuild)
    for argv in (["group", fixture("klein_signs_k3.json")],
                 ["cohomology", fixture("klein_signs_k3.json"), "--p", "1", "--m", "0"],
                 ["bracket", fixture("two_sign_pairs_k5.json"),
                  fixture("class_volume3_first.json"), fixture("class_fixed_volume2_second.json")],
                 ["verify", "appendix", "--max", "1"],
                 ["verify", "homotopy", "--dim", "1", "--s", "1", "--z", "1", "--t", "1"],
                 ["verify", "schouten", "--dim", "1", "--pairs", "1"],
                 ["verify", "examples", "--json"]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out, argv


# The size options of each verify suite and the largest value of each; a
# suite refuses every other option.
VERIFY_CAPS = {
    "appendix": {"max": 15},
    "homotopy": {"dim": 4, "s": 4, "z": 4, "t": 4},
    "schouten": {"dim": 3, "pairs": 1000},
    "examples": {},
}
VERIFY_SIZE_FLAGS = [(suite, flag) for suite, caps in VERIFY_CAPS.items() for flag in caps]


def run_refused(capsys, *argv):
    """Run a command that argparse refuses within a second, printing
    nothing on stdout; returns its stderr."""
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    return err


@pytest.mark.parametrize("suite, flag", VERIFY_SIZE_FLAGS)
def test_verify_refuses_oversized_bounds_early(capsys, suite, flag):
    limit = VERIFY_CAPS[suite][flag]
    err = run_refused(capsys, "verify", suite, f"--{flag}", str(limit + 1))
    assert err.endswith(f"error: argument --{flag}: must be at most {limit}, "
                        f"got {limit + 1}\n")


@pytest.mark.parametrize("suite, flag, value", [
    ("examples", "dim", "9"),
    ("appendix", "pairs", "5"),
    *((suite, flag, "1") for suite in VERIFY_CAPS
      for flag in {f for caps in VERIFY_CAPS.values() for f in caps} - set(VERIFY_CAPS[suite])),
])
def test_verify_refuses_the_options_of_other_suites(capsys, suite, flag, value):
    err = run_refused(capsys, "verify", suite, f"--{flag}", value)
    assert err.endswith(f"error: unrecognized arguments: --{flag} {value}\n")


@pytest.mark.parametrize("suite", ["appendix", "homotopy", "schouten"])
def test_verify_runs_every_option_at_its_maximum(capsys, monkeypatch, suite):
    # the suite itself is stubbed: at the maximums it would run for seconds;
    # each suite is bound to its subparser, so the parser is built again
    seen = []
    monkeypatch.setattr(cli, f"_verify_{suite}",
                        lambda args: seen.append(args) or (True, {}, []))
    monkeypatch.setattr(cli, "PARSER", build_parser())
    argv = [t for flag, limit in VERIFY_CAPS[suite].items() for t in (f"--{flag}", str(limit))]
    code, _, err = run(capsys, "verify", suite, *argv)
    assert code == 0 and err == ""
    assert [{flag: getattr(seen[0], flag) for flag in VERIFY_CAPS[suite]}] == [VERIFY_CAPS[suite]]


def test_verify_bounds_accept_the_defaults_and_every_value_in_use():
    parser = build_parser()
    used = {  # the values the tests pass, through the CLI or the library
        "appendix": {"max": [3, 6]},
        "homotopy": {"dim": [2, 3], "s": [1, 2], "z": [1, 2], "t": [2, 3]},
        "schouten": {"dim": [1, 2, 3], "pairs": [5, 50]},
    }
    for suite, caps in VERIFY_CAPS.items():
        assert set(caps) == set(used.get(suite, ()))
        defaults = vars(parser.parse_args(["verify", suite]))
        # each suite declares its own size options and no other
        assert set(defaults) - {"command", "suite", "func", "run", "json", "seed"} == set(caps)
        for flag, limit in caps.items():
            assert defaults[flag] <= limit
            assert max(used[suite][flag]) <= limit


@pytest.mark.parametrize("argv", [
    [], ["group"], ["cohomology"], ["bracket"], ["verify"],
    *(["verify", suite] for suite in VERIFY_CAPS),
])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(" ".join(["usage: skewbrack", *argv]))
