"""The Gerstenhaber bracket on the group-decorated cochain complex.

The bracket of two invariant reduced cocycles is assembled pairwise, as
the paper states it: for components X_g and Y_h, the term at gh is the
Schouten bracket [X_g, Y_h] of polyvector fields projected to the
reduced subspace of gh.  Both inputs are G-invariant, so the term of the
conjugate pair (a^-1 g a, a^-1 h a) is the one of (g, h) moved by a; it
is computed once per orbit of component pairs under simultaneous
conjugation and moved along the generators to the rest of the orbit.
Vanishing criteria from the codimension grading are provided alongside.
"""

from .cochain import Cochain, is_invariant, project_component, support_codims
from .linalg import echelon_span, one_minus_columns
from .polyvec import act, schouten
from .scalars import Cyc, Frozen


class BracketReport(Frozen):
    """Bracket value plus per-pair diagnostics.

    result: the bracket as a cochain.
    per_component_terms: (g, h) -> projected Schouten bracket of X_g and
        Y_h, nonzero entries only; summing them at gh reassembles result.
    vanishing_diagnostics: (g, h, reason) for every pair that contributed
        nothing, with reason "schouten zero" or "projection kill"
        (pair_commutator says why there is no third).
    """

    __slots__ = ("result", "per_component_terms", "vanishing_diagnostics")


def moved_intersection(group, g, h):
    """The reduced echelon basis of (1-g)V meet (1-h)V, as dense tuples.

    Zassenhaus: in the echelon form of a row (w, 0) per column w of 1 - h
    and (u, u) per column u of 1 - g, a row with its pivot in the second
    block is (a + b, a) = (0, a) with a in (1-g)V and -a = b in (1-h)V;
    these a are the reduced echelon basis of the intersection.  The
    (w, 0) rows go first, so the dependent ones vanish on n columns."""
    n, zero = group.dim, Cyc.zero(group.scalar_order)
    rows = one_minus_columns(group.matrices[h])
    rows += [u | {n + j: e for j, e in u.items()} for u in one_minus_columns(group.matrices[g])]
    return [tuple(row.get(n + j, zero) for j in range(n))
            for row in echelon_span(rows, group.scalar_order) if min(row) >= n]


def perp_vanishing_applies(group, g, h):
    """Whether the intersection W of the two moved subspaces is nonzero
    and stable under every generator; when that holds for all conjugates,
    the bracket of classes supported on the two conjugacy classes
    vanishes.  A generator s carries (1-g)V onto (1-sgs^-1)V, so sW is
    the intersection for sgs^-1 and shs^-1, and a reduced echelon basis
    is unique: s keeps W exactly when the two are equal.  A generator
    that conjugates the pair to itself keeps W with no elimination, and
    generators that conjugate it to one pair share one elimination."""
    mult, inverses = group.mult_table, group.inverses
    inter = moved_intersection(group, g, h)
    conjugates = [(mult[mult[s][g]][inverses[s]], mult[mult[s][h]][inverses[s]])
                  for s in group.generator_indices]
    return bool(inter) and all(moved_intersection(group, *pair) == inter
                               for pair in dict.fromkeys(conjugates) if pair != (g, h))


def _require(cond, message):
    if not cond:
        raise ValueError(message)


def _proven(c, key, check):
    """Whether c passes check, whose result each source value keeps
    under key in its proof memo (Cochain.proof): a value from the
    constructor is its own one source, and any other c passes when every
    source does and is checked itself otherwise."""
    proof = c.proof
    if proof.__class__ is dict:
        if key not in proof:
            proof[key] = check(c)
        return proof[key]
    return all(_proven(s, key, check) for s in proof) or check(c)


def _reduced_at_representatives(c):
    group, terms = c.group, c.terms
    return all(project_component(group, cls[0], terms[cls[0]]) == terms[cls[0]]
               for cls in group.conj_classes if cls[0] in terms)


def pair_commutator(group, g, xg, h, yh):
    """The term of reduced X_g and Y_h: the Schouten bracket [X_g, Y_h]
    projected at gh, or the reason it vanishes.  "schouten zero" means
    the bracket itself is zero; "projection kill" means the projection
    removes it.

    When the moved subspaces (1-g)V and (1-h)V meet in a nonzero w, the
    bracket itself is zero, so the projection never removes a nonzero
    bracket there.  X_g is a sum of terms f P with f constant along
    (1-g)V and P a constant polyvector divisible by omega_g, so by w;
    likewise Y_h of terms q Q.  Constant polyvectors commute, so
    [f P, q Q] = +-f (i_dq P) ^ Q +- q (i_df Q) ^ P.  Writing P = w ^ P',
    dq(w) = 0 gives i_dq P = -w ^ i_dq P', whose wedge with Q, also
    divisible by w, is 0; the second term vanishes the same way."""
    raw = schouten(xg, yh)
    if raw.is_zero():
        return "schouten zero"
    projected = project_component(group, group.mult_table[g][h], raw)
    return "projection kill" if projected.is_zero() else projected


def gerstenhaber(x, y):
    """Bracket of two G-invariant reduced cocycles.

    Each input must already be invariant (apply reynolds first if not)
    and in reduced form (apply project first if not).  Reduced cochains
    are cocycles: every reduced wedge contains omega_g, and the wedge part
    of E_g lies in the moved directions, so E_g ^ X_g = 0.  The result is
    again an invariant cocycle, of homological degree |x| + |y| - 1,
    supported in codimension degree i + j.  When both inputs have degree
    0 the bracket is zero (nothing to insert into), and it is returned as
    the zero cochain of degree 0.

    Invariance is checked by is_invariant, |cls| act calls per class cls
    of each support.  It gives X_{a^-1 g a} = X_g.a, and p_{a^-1 g a}(X.a)
    = p_g(X).a, so reduced form is checked on one component per conjugacy
    class of each support.  Each operand is proven through _proven, once
    per source (Cochain.proof): a value from the constructor is checked
    once, and the result kept in its memo; a sum, difference or multiple
    passes a check when all its sources do, since the action and
    project_component are linear, and is checked itself otherwise.  The
    checks run in the same order and raise the same messages either
    way, and no operand that fails them is accepted.  Likewise the pair
    (a^-1 g a, a^-1 h a) has the projected Schouten bracket of (g, h)
    moved by a, and the same vanishing reason: pairs are walked in
    sorted (g, h) order, and each pair not yet reached is computed.  Its
    orbit under simultaneous conjugation is then walked along the
    generators: from a reached pair (p, q) with value v, each generator
    s reaches (s^-1 p s, s^-1 q s) with value v.s, and a vanishing reason
    is copied as it is.  Since (v.a).s = v.(as), that is the value moved
    by the element reaching it, one act with a generator's matrices per
    pair of the orbit.

    Placing each term v(g, h) at hg instead of gh gives the same bracket.
    (g, h) -> (hgh^-1, h) maps the pairs with hg = k onto those with
    product k, and v(hgh^-1, h) = v(g, h).h^-1, which is v(g, h) when
    codim gh = codim g + codim h, as at every nonzero term the tests
    meet.  Then 1 - gh = (1-h) + (1-g)h gives (1-gh)V = (1-g)V + (1-h)V
    and V^gh = V^g meet V^h: h fixes V^gh and the forms vanishing on
    (1-gh)V, and acts on omega_gh as on omega_h, being 1 on (1-gh)V
    modulo (1-h)V.  On omega_h it acts trivially, since Y_h = q d_J ^
    omega_h is nonzero and fixed by h.
    """
    _require(x.group is y.group, "cochains live over different groups")
    _require(_proven(x, "invariant", is_invariant),
             "left operand is not G-invariant (apply reynolds first)")
    _require(_proven(y, "invariant", is_invariant),
             "right operand is not G-invariant (apply reynolds first)")
    group = x.group
    for side, c in (("left", x), ("right", y)):
        _require(_proven(c, "reduced", _reduced_at_representatives),
                 f"{side} operand is not in reduced form (apply project first)")
    degree = max(x.degree + y.degree - 1, 0)
    pairs = [(g, h) for g in sorted(x.terms) for h in sorted(y.terms)]
    mult, inverses, actions = group.mult_table, group.inverses, group.actions
    values = {}
    for g, h in pairs:
        if (g, h) in values:
            continue
        values[(g, h)] = pair_commutator(group, g, x.terms[g], h, y.terms[h])
        reached = [(g, h)]
        for p, q in reached:  # grows while it is walked
            value = values[(p, q)]
            for s in group.generator_indices:
                s_inv = inverses[s]
                moved = (mult[mult[s_inv][p]][s], mult[mult[s_inv][q]][s])
                if moved not in values:
                    values[moved] = (value if isinstance(value, str)
                                     else act(value, [actions[s]]))
                    reached.append(moved)
    comps = {}
    per_terms = {}
    diagnostics = []
    for g, h in pairs:
        value = values[(g, h)]
        if isinstance(value, str):
            diagnostics.append((g, h, value))
            continue
        k = mult[g][h]
        per_terms[(g, h)] = value
        comps[k] = comps[k] + value if k in comps else value
    return BracketReport(Cochain(group, degree, comps), per_terms, diagnostics)


def minimal_degree_vanishing(x, y):
    """Whether both inputs sit in minimal homological degree off the
    identity, the one element acting trivially: every component supported
    at another element, with exterior part exactly the volume form
    (exterior degree equal to codim).  When true, the bracket represents
    zero."""
    return all(0 not in c.terms and all(k == c.degree for k in support_codims(c))
               for c in (x, y))
