"""Command line interface: group reports, cohomology bases, brackets of
decorated classes, and the verification sweeps.

File formats are JSON with exact scalar strings.  A group file holds
{"dimension": n, "cyclotomicOrder": N, "generators": [matrix, ...]},
each matrix an n x n array of scalar strings, plus an optional "names"
list for the generators and an optional enumeration "bound".  A class
file holds {"homologicalDegree": p, "terms": [...]} where each term is
{"group": word or element index, "coeff": scalar string,
"exponents": [e1..en], "wedge": [i1 < ... < ip]}; wedge entries are
1-based, matching the printed names d1..dn.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
141 (128 + SIGPIPE) when the reader of stdout has gone.
"""

import argparse
import json
import os
import sys
from functools import lru_cache
from math import comb

from .bracket import gerstenhaber, perp_vanishing_applies
from .cochain import (
    Cochain,
    cohomology_basis,
    cohomology_dim_character,
    project,
    reynolds,
    support_codim,
    volume_form,
)
from .groups import MAX_GROUP_ORDER, check_generator_names, enumerate_group, resolve_word
from .koszul import (
    appendix_suite,
    chain_bracket_cochain,
    homotopy_sweep,
    schouten_random_check,
)
from .linalg import Matrix, echelon_span, one_minus_columns
from .polyvec import Poly, Polyvector, schouten_graded_laws
from .scalars import parse_scalar, print_scalar


# ----------------------------------------------------------- file formats

# Size bounds on input, checked before any arithmetic.  The order bounds
# the field degree and the cost of each inverse, a product of phi(N) - 1
# conjugates; the group order, groups.MAX_GROUP_ORDER, bounds the
# enumeration, which lists that many elements before it refuses an
# infinite group; the total degree of a class term bounds the work of
# substituting into it, and cohomology --m is held to it so that every
# printed class loads back.  The dimension n bounds the work per element:
# a matrix product takes n^3 scalar products, and group prints each
# omega_g, of up to C(n, codim g) terms.  On a dense
# order-2 action of k^n (-1 on half of a basis, conjugated by a random
# matrix with entries in {-1, 0, 1}) group takes 0.33 s at n = 14, 2.1 s
# at 16 and 8 s at 18 (Python 3.11.7, 2 cores).  omega_g wedges the
# codim moved dual coordinates of g, so it has at most C(k, codim g)
# terms, k the coordinates that these involve: the nonzero columns of
# 1 - g, whose row space they span.  group refuses a group whose sum of
# that over its elements is above MAX_GROUP_OMEGA_TERMS, before it
# builds any omega_g or geometry.  It reads codim once per class
# representative r, as the echelon_span length of the columns of 1 - r
# from linalg.one_minus_columns, and k by comparing columns with the
# identity's.  S6 permuting six coordinates of k^16 (720 elements, a sum
# of 5,671) takes 0.8-1.0 s and prints 777 KB, and (Z/2)^10 flipping ten
# coordinates of k^12 (one term per omega_g, 1,024) 0.9-1.0 s and 633 KB;
# a dense conjugate of that S6 (about 1.1 million) is refused in
# 0.16-0.19 s.  Near the bound, on conjugates by a unipotent matrix with
# entries in {-1, 0, 1}, group takes 1.2-1.3 s and prints 633 KB on S6
# permuting six coordinates of k^8 (a sum of 35,720; geometry is 0.45 s
# of it, enumeration 0.04 s) and 0.7 s and 620 KB on (Z/2)^6 flipping
# six coordinates of k^15 (42,018); at k^16 (66,499, refused) it would
# take 1.1 s and print 1.0 MB (Python 3.11.7, 2 cores, end to end with
# the output written to a file).  A cohomology piece has
# C(n, p) C(m + n - 1, n - 1) terms per element, and the basis eliminates
# sparse rows over them; its cross-check, the character count, reads
# traces only and costs little.  On k^5, --p 2 takes 0.08 s at 700 terms
# and 0.18 s (21 MB) at 2,100.  Averaging each term over the centralizer
# C(g) of each class representative g, kept on the group as
# group.centralizers, takes terms * sum_[g] |C(g)| single actions, which
# grows with the group: on the S5 permutation action --p 1 --m 3 takes
# 0.33 s at 28,175 actions, --p 3 --m 3 0.60 s at 56,350 and --p 2 --m 4
# 1.19 s (32 MB) at 112,700, while on the rotation pair --p 2 --m 4 takes
# 0.11 s at 25,200 (Python 3.11.7, 2 cores, with the bounds lifted).
MAX_CYCLOTOMIC_ORDER = 100
MAX_DIMENSION = 16
MAX_GROUP_OMEGA_TERMS = 50000
MAX_TERM_DEGREE = 16
MAX_PIECE_TERMS = 1000
MAX_PIECE_ACTIONS = 30000


def _is_int(value):
    """Whether a parsed JSON value is an integer (JSON true/false load
    as bool, which Python counts as int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _read_json(path):
    """The document in the file at path.  A file that does not decode as
    JSON (truncated, not UTF-8, an integer past Python's digit limit,
    nested past the recursion limit) raises ValueError naming path."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc


# parse_scalar, each distinct (text, order) parsed once: files repeat a few
# literals (0, 1, -1) many times.  A malformed one raises at each use.
_parse_literal = lru_cache(maxsize=4096)(parse_scalar)


def load_group_file(path):
    """Parse a group file; returns (group, generator names or None)."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: group file must be a JSON object")
    for key in ("dimension", "cyclotomicOrder", "generators"):
        if key not in data:
            raise ValueError(f"{path}: missing field {key!r}")
    n = data["dimension"]
    order = data["cyclotomicOrder"]
    if not _is_int(n) or n < 1:
        raise ValueError(f"{path}: dimension must be a positive integer")
    if n > MAX_DIMENSION:
        raise ValueError(f"{path}: dimension must be at most {MAX_DIMENSION}")
    if not _is_int(order) or order < 1:
        raise ValueError(f"{path}: cyclotomicOrder must be a positive integer")
    if order > MAX_CYCLOTOMIC_ORDER:
        raise ValueError(f"{path}: cyclotomicOrder must be at most "
                         f"{MAX_CYCLOTOMIC_ORDER}")
    raw_gens = data["generators"]
    if not isinstance(raw_gens, list) or not raw_gens:
        raise ValueError(f"{path}: generators must be a nonempty list")
    gens = []
    for pos, rows in enumerate(raw_gens, 1):
        if (not isinstance(rows, list) or len(rows) != n
                or any(not isinstance(r, list) or len(r) != n for r in rows)):
            raise ValueError(f"{path}: generator {pos} is not {n}x{n}")
        try:
            gens.append(Matrix(order, [[_parse_literal(str(e), order) for e in r] for r in rows]))
        except ValueError as exc:
            raise ValueError(f"{path}: generator {pos}: {exc}") from exc
    names = data.get("names")
    if names is not None:
        try:
            check_generator_names(names, len(gens))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    bound = data.get("bound", MAX_GROUP_ORDER)
    if not _is_int(bound) or bound < 1:
        raise ValueError(f"{path}: bound must be a positive integer")
    if bound > MAX_GROUP_ORDER:
        raise ValueError(f"{path}: bound must be at most {MAX_GROUP_ORDER}")
    try:
        group = enumerate_group(gens, bound, names)
    except (ValueError, RuntimeError) as exc:
        raise ValueError(f"{path}: generators: {exc}") from exc
    return group, names


def load_class_file(path, group):
    """Parse a class file against an already-loaded group."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: class file must be a JSON object")
    for key in ("homologicalDegree", "terms"):
        if key not in data:
            raise ValueError(f"{path}: missing field {key!r}")
    p = data["homologicalDegree"]
    if not _is_int(p) or p < 0:
        raise ValueError(f"{path}: homologicalDegree must be a nonnegative integer")
    if not isinstance(data["terms"], list):
        raise ValueError(f"{path}: terms must be a list")
    n, order = group.dim, group.scalar_order
    comps = {}
    resolved = {}  # group word or index -> element index, each resolved once
    for pos, term in enumerate(data["terms"], 1):
        where = f"{path}: term {pos}"
        if not isinstance(term, dict):
            raise ValueError(f"{where}: must be an object")
        for key in ("group", "coeff", "exponents", "wedge"):
            if key not in term:
                raise ValueError(f"{where}: missing field {key!r}")
        gref = term["group"]
        if not isinstance(gref, str) and not _is_int(gref):
            raise ValueError(f"{where}: group must be a word or an element index")
        g = resolved.get(gref)
        if g is None:
            try:
                g = resolved[gref] = resolve_word(group, gref)
            except ValueError as exc:
                raise ValueError(f"{where}: group: {exc}") from exc
        try:
            coeff = _parse_literal(str(term["coeff"]), order)
        except ValueError as exc:
            raise ValueError(f"{where}: coeff: {exc}") from exc
        exps = term["exponents"]
        if (not isinstance(exps, list) or len(exps) != n
                or any(not _is_int(e) or e < 0 for e in exps)):
            raise ValueError(f"{where}: exponents must be {n} nonnegative integers")
        if sum(exps) > MAX_TERM_DEGREE:
            raise ValueError(f"{where}: exponents must be of total degree "
                             f"at most {MAX_TERM_DEGREE}")
        wedge = term["wedge"]
        if (not isinstance(wedge, list) or len(wedge) != p
                or any(not _is_int(i) for i in wedge)
                or any(not 1 <= i <= n for i in wedge)
                or any(a >= b for a, b in zip(wedge, wedge[1:]))):
            raise ValueError(f"{where}: wedge must be a strictly increasing "
                             f"list of {p} indices in 1..{n}")
        poly = comps.setdefault(g, {}).setdefault(tuple(i - 1 for i in wedge), {})
        exps = tuple(exps)
        poly[exps] = poly[exps] + coeff if exps in poly else coeff
    return Cochain(group, p, {
        g: Polyvector(n, order, {idx: Poly(n, order, poly)
                                 for idx, poly in wedges.items()})
        for g, wedges in comps.items()})


def cochain_to_classfile(c):
    """Serialize a cochain to the class-file dictionary form."""
    terms = []
    for g in sorted(c.terms):
        word = c.group.words[g]
        pv = c.terms[g]
        for idx in sorted(pv.terms, key=lambda i: (len(i), i)):
            poly = pv.terms[idx]
            for exps in sorted(poly.terms):
                terms.append({
                    "group": word,
                    "coeff": print_scalar(poly.terms[exps]),
                    "exponents": list(exps),
                    "wedge": [i + 1 for i in idx],
                })
    return {"homologicalDegree": c.degree, "terms": terms}


# ---------------------------------------------------------------- reports


def _emit(report, text, as_json):
    """Print the report as JSON, or else the lines that text() yields;
    the text is built only when it is printed."""
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        for line in text():
            print(line)


def cmd_group(args):
    group, _ = load_group_file(args.file)
    ident = Matrix.identity(group.dim, group.scalar_order)
    codims = [None] * len(group)
    for cls in group.conj_classes:
        # codim is a class function, the rank of 1 - g
        codim = len(echelon_span(one_minus_columns(group.matrices[cls[0]]), group.scalar_order))
        for k in cls:
            codims[k] = codim
    terms = 0
    for i, codim in enumerate(codims):
        # omega_g wedges the codim moved dual coordinates, which span the
        # row space of 1 - g, so its wedges use only the k coordinates of
        # the nonzero columns of 1 - g: the columns where g is not 1
        moved = sum(a != b for a, b in zip(zip(*group.matrices[i].rows), zip(*ident.rows)))
        terms += comb(moved, codim)
    if terms > MAX_GROUP_OMEGA_TERMS:
        raise ValueError(f"{args.file}: the omega_g of the group may have {terms} "
                         f"terms in all (C(k, codim g) summed over its elements, "
                         f"k the coordinates its moved dual coordinates involve), "
                         f"more than {MAX_GROUP_OMEGA_TERMS}")
    elements = []
    for i, codim in enumerate(codims):
        elements.append({
            "index": i,
            "word": group.words[i],
            "matrix": [[print_scalar(e) for e in row] for row in group.matrices[i].rows],
            "codim": codim,
            "omega": str(volume_form(group, i)),
        })
    report = {
        "order": len(group),
        "dimension": group.dim,
        "cyclotomicOrder": group.scalar_order,
        "elements": elements,
        "conjugacyClasses": [[elements[i]["word"] for i in cls]
                             for cls in group.conj_classes],
        # a matrix group acts faithfully: only the identity acts trivially
        "kernel": [group.words[0]],
    }

    def text():
        yield f"order: {report['order']}"
        yield f"dimension: {report['dimension']}"
        yield f"cyclotomic order: {report['cyclotomicOrder']}"
        yield "conjugacy classes: " + "  ".join(
            "{" + ", ".join(cls) + "}" for cls in report["conjugacyClasses"])
        yield "kernel: " + ", ".join(report["kernel"])
        yield "elements:"
        for el in elements:
            yield (f"  [{el['index']}] {el['word']}  codim {el['codim']}"
                   f"  omega {el['omega']}")
            for row in el["matrix"]:
                yield "      [ " + "  ".join(row) + " ]"

    _emit(report, text, args.json)
    return 0


def piece_size(group, p, m):
    """The terms per group element of the (p, m) piece, and the single
    actions its centralizer averages take, terms * sum_[g] |C(g)| over
    the stored centralizers."""
    n = group.dim
    terms = comb(n, p) * comb(m + n - 1, n - 1)
    return terms, terms * sum(len(cent) for cent in group.centralizers)


def cmd_cohomology(args):
    group, _ = load_group_file(args.file)
    n = group.dim
    if args.p > n:
        raise ValueError(f"--p must be at most the dimension {n}, got {args.p}")
    terms, actions = piece_size(group, args.p, args.m)
    if terms > MAX_PIECE_TERMS:
        raise ValueError(f"--m {args.m} at --p {args.p} gives {terms} terms per "
                         f"group element, more than {MAX_PIECE_TERMS}")
    if actions > MAX_PIECE_ACTIONS:
        raise ValueError(f"--m {args.m} at --p {args.p} needs {actions} single "
                         f"actions to average over the centralizers, more than "
                         f"{MAX_PIECE_ACTIONS}")
    if args.m > MAX_TERM_DEGREE:
        raise ValueError(f"--m must be at most {MAX_TERM_DEGREE}, the total "
                         f"degree a class file takes, got {args.m}")
    basis = cohomology_basis(group, args.p, args.m)
    try:
        count = cohomology_dim_character(group, args.p, args.m)
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    classes = [cochain_to_classfile(c) for c in basis]
    report = {
        "p": args.p,
        "m": args.m,
        "count": len(basis),
        "crossCheck": count,
        "match": len(basis) == count,
        "classes": classes,
    }

    def text():
        yield (f"cohomology in exterior degree {args.p}, polynomial degree "
               f"{args.m}: {len(basis)} classes (cross-check {count})")
        for c, data in zip(basis, classes):
            yield f"  {c}"
            yield "    " + json.dumps(data)

    _emit(report, text, args.json)
    if len(basis) != count:
        print(f"internal error: basis count {len(basis)} does not match "
              f"the character count {count}", file=sys.stderr)
        return 1
    return 0


def cmd_bracket(args):
    group, _ = load_group_file(args.file)
    x = load_class_file(args.x, group)
    y = load_class_file(args.y, group)
    steps = []
    if args.reynolds:
        x, y = reynolds(x), reynolds(y)
        steps.append("--reynolds")
    if args.project:
        x, y = project(x), project(y)
        steps.append("--project")
    zero_operands = [side for side, c in (("left", x), ("right", y))
                     if steps and c.is_zero()]
    report_obj = gerstenhaber(x, y)
    i, j = support_codim(x), support_codim(y)
    result = report_obj.result
    words = group.words
    report = {
        "result": cochain_to_classfile(result),
        "display": str(result),
        "grading": {"left": i, "right": j, "output": i + j},
        "terms": [{"left": words[g], "right": words[h], "value": str(pv)}
                  for (g, h), pv in sorted(report_obj.per_component_terms.items())],
        "vanishing": [{"left": words[g], "right": words[h], "reason": reason}
                      for g, h, reason in report_obj.vanishing_diagnostics],
    }
    if zero_operands:
        report["zeroOperands"] = zero_operands

    def text():
        yield f"bracket: {report['display']}"
        yield f"grading: D({i}) x D({j}) -> D({i + j})"
        for side in zero_operands:
            yield f"{side} operand is zero after {' '.join(steps)}"
        for t in report["terms"]:
            yield f"  term at ({t['left']}, {t['right']}): {t['value']}"
        for v in report["vanishing"]:
            yield f"  vanished at ({v['left']}, {v['right']}): {v['reason']}"
        yield "class file: " + json.dumps(report["result"])

    _emit(report, text, args.json)
    return 0


# ----------------------------------------------------------------- verify


def _verify_appendix(args):
    bound = args.max
    entries = appendix_suite(bound)
    failures = [e for e in entries if not e["pass"]]
    names_seen = sorted({e["identity"] for e in entries})
    report = {
        "suite": "appendix",
        "identities": len(names_seen),
        "checked": len(entries),
        "failures": [{"identity": e["identity"], "tuple": list(e["tuple"])}
                     for e in failures],
    }
    lines = [f"appendix: {len(names_seen) - len({f['identity'] for f in report['failures']})}"
             f"/{len(names_seen)} identities pass ({len(entries)} tuples, "
             f"bound {bound})"]
    for f in report["failures"]:
        lines.append(f"  FAIL {f['identity']} at {tuple(f['tuple'])}")
    return not failures, report, lines


def _verify_homotopy(args):
    checked, failures = homotopy_sweep(args.dim, args.s, args.z, args.t)
    report = {
        "suite": "homotopy",
        "checked": checked,
        "failures": [[list(s), list(z), list(e)] for s, z, e in failures],
    }
    lines = [f"homotopy: residual zero on {checked - len(failures)}/{checked} "
             f"basis inputs (dim {args.dim}, s <= {args.s}, z <= {args.z}, "
             f"t <= {args.t})"]
    for s, z, e in failures:
        lines.append(f"  FAIL at S={s} Z={z} middle={e}")
    return not failures, report, lines


def _verify_schouten(args):
    checked_r, fail_r = schouten_random_check(args.pairs, args.seed)
    checked_l, fail_l = schouten_graded_laws(args.dim)
    ok = not fail_r and not fail_l
    report = {
        "suite": "schouten",
        "randomPairs": checked_r,
        "randomFailures": fail_r,
        "lawChecks": checked_l,
        "lawFailures": [list(f) for f in fail_l],
    }
    lines = [
        f"schouten: chain bracket matches the derivation commutator on "
        f"{checked_r - len(fail_r)}/{checked_r} random vector-field pairs",
        f"schouten: antisymmetry and jacobi hold on "
        f"{checked_l - len(fail_l)}/{checked_l} basis tuples (dim {args.dim})",
    ]
    return ok, report, lines


def _verify_examples(args):
    from .fixtures import bracket_pair
    results = []

    group, x, y, expected = bracket_pair("klein-signs-k3")
    chain = chain_bracket_cochain(x, y)
    results.append(("sign pair on k^3: chain bracket", chain == expected))
    results.append(("sign pair on k^3: classes average to zero",
                    reynolds(x).is_zero() and reynolds(y).is_zero()))
    zero_bracket = gerstenhaber(reynolds(x), reynolds(y)).result
    results.append(("sign pair on k^3: averaged bracket is zero",
                    zero_bracket.is_zero()))

    for name, orders in (("two-sign-pairs-k5", "2,2"), ("rotation-k5-z6", "3,2")):
        group, x, y, expected = bracket_pair(name)
        rep = gerstenhaber(x, y)
        tag = f"plane pair k^5 orders {orders}"
        results.append((f"{tag}: bracket is the product volume class",
                        rep.result == expected and not rep.result.is_zero()))
        s, t = resolve_word(group, "g1"), resolve_word(group, "g2")
        results.append((f"{tag}: perp criterion does not apply",
                        not perp_vanishing_applies(group, s, t)))

    group, x, y = bracket_pair("overlap-signs-k3")
    g, h = resolve_word(group, "g1"), resolve_word(group, "g2")
    results.append(("overlapping signs on k^3: perp criterion applies",
                    perp_vanishing_applies(group, g, h)))
    results.append(("overlapping signs on k^3: bracket vanishes",
                    gerstenhaber(x, y).result.is_zero()))

    ok = all(flag for _, flag in results)
    report = {
        "suite": "examples",
        "checks": [{"name": name, "pass": flag} for name, flag in results],
    }
    lines = [f"examples: {'pass' if flag else 'FAIL'}  {name}"
             for name, flag in results]
    return ok, report, lines


def cmd_verify(args):
    ok, report, lines = args.run(args)
    report["pass"] = ok
    lines.append("verify: all checks pass" if ok
                 else "verify: FAILURES detected")
    _emit(report, lambda: lines, args.json)
    return 0 if ok else 1


# ------------------------------------------------------------------ main


def _count(least, largest=None):
    """argparse type for counts and degrees: an integer from least, which
    is 0 or 1, to largest (unbounded when None)."""
    word = "positive" if least else "non-negative"

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"must be {word}, got {value}")
        if largest is not None and value > largest:
            raise argparse.ArgumentTypeError(f"must be at most {largest}, "
                                             f"got {value}")
        return value

    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="skewbrack",
        description="Exact brackets on group-decorated polyvector fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_group = sub.add_parser("group", help="report a group file")
    p_group.add_argument("file")
    p_group.add_argument("--json", action="store_true")
    p_group.set_defaults(func=cmd_group)

    p_coh = sub.add_parser("cohomology", help="basis of a bidegree piece")
    p_coh.add_argument("file")
    p_coh.add_argument("--p", type=_count(0), required=True,
                       help="exterior (homological) degree")
    p_coh.add_argument("--m", type=_count(0), required=True,
                       help="polynomial degree")
    p_coh.add_argument("--json", action="store_true")
    p_coh.set_defaults(func=cmd_cohomology)

    p_br = sub.add_parser("bracket", help="bracket of two class files")
    p_br.add_argument("file", help="group file")
    p_br.add_argument("x", help="left class file")
    p_br.add_argument("y", help="right class file")
    p_br.add_argument("--reynolds", action="store_true",
                      help="average the inputs over the group first")
    p_br.add_argument("--project", action="store_true",
                      help="project the inputs to reduced form first")
    p_br.add_argument("--json", action="store_true")
    p_br.set_defaults(func=cmd_bracket)

    p_ver = sub.add_parser("verify", help="run a verification sweep")
    suites = p_ver.add_subparsers(dest="suite", required=True)
    # A suite takes only its own options, spelled out: schouten would
    # otherwise read homotopy's --s as its own --seed.  Each size option's
    # largest value is checked before any work.
    # appendix takes 1.1 s at --max 12, 2.7 s at 15 and 10 s at 20.
    p_app = suites.add_parser("appendix", allow_abbrev=False,
                              help="the coefficient identities")
    p_app.add_argument("--max", type=_count(1, 15), default=6,
                       help="bound for s, t, z")
    # homotopy takes 0.5 s with the defaults, 4.7 s at --dim 4 --s 4 --z 4
    # --t 3, 13 s at --t 4 and 34 s at --t 5, and 15 s at --dim 5 with the
    # other defaults; --s and --z count wedge letters, so more than --dim
    # checks nothing more.
    p_hom = suites.add_parser("homotopy", allow_abbrev=False,
                              help="the homotopy residual")
    p_hom.add_argument("--dim", type=_count(1, 4), default=3, help="dimension")
    p_hom.add_argument("--s", type=_count(0, 4), default=2,
                       help="bound for the left block")
    p_hom.add_argument("--z", type=_count(0, 4), default=2,
                       help="bound for the right block")
    p_hom.add_argument("--t", type=_count(0, 4), default=3,
                       help="bound for the middle degree")
    # schouten takes about 5.5 s at its default --dim 3 and 63 s at --dim 4
    # (Python 3.11.7, 2 cores); each random pair costs about 3.3 ms, so
    # --pairs 1000 adds 3.3 s.
    p_sch = suites.add_parser("schouten", allow_abbrev=False,
                              help="the Schouten bracket laws")
    p_sch.add_argument("--dim", type=_count(1, 3), default=3, help="dimension")
    p_sch.add_argument("--pairs", type=_count(1, 1000), default=50,
                       help="number of random pairs")
    p_sch.add_argument("--seed", type=int, default=0, help="random seed")
    p_ex = suites.add_parser("examples", allow_abbrev=False,
                             help="the worked bracket examples")
    for p_suite, run in ((p_app, _verify_appendix), (p_hom, _verify_homotopy),
                         (p_sch, _verify_schouten), (p_ex, _verify_examples)):
        p_suite.add_argument("--json", action="store_true")
        p_suite.set_defaults(func=cmd_verify, run=run)
    return parser


PARSER = build_parser()


def main(argv=None):
    args = PARSER.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (ValueError, OSError) as exc:
        if isinstance(exc, BrokenPipeError) and sys.stdout is sys.__stdout__:
            # the reader of stdout has gone (`| head`): exit with the
            # status of a process that SIGPIPE killed, 128 + 13, with
            # stdout on /dev/null so that the flush at exit cannot fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 141
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
