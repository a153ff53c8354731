"""The Gerstenhaber bracket on the group-decorated cochain complex.

The bracket of two invariant reduced cocycles is assembled pairwise, as
the paper states it: for components X_g and Y_h, the term at gh is the
Schouten bracket [X_g, Y_h] of polyvector fields projected to the
reduced subspace of gh.  Both inputs are G-invariant, so the term of the
conjugate pair (a^-1 g a, a^-1 h a) is the one of (g, h) moved by a; it
is computed once per orbit of component pairs under simultaneous
conjugation and moved to the rest of the orbit.  Vanishing criteria
from the codimension grading are provided alongside.
"""

from .cochain import Cochain, is_invariant, project_component, support_codims
from .groups import geometry
from .linalg import Matrix, kernel_basis, rref, solve_membership
from .polyvec import act, schouten
from .scalars import Frozen


class BracketReport(Frozen):
    """Bracket value plus per-pair diagnostics.

    result: the bracket as a cochain.
    per_component_terms: (g, h) -> projected Schouten bracket of X_g and
        Y_h, nonzero entries only; summing them at gh reassembles result.
    vanishing_diagnostics: (g, h, reason) for every pair that contributed
        nothing, with reason one of "schouten zero", "perp-intersection",
        "projection kill".
    """

    __slots__ = ("result", "per_component_terms", "vanishing_diagnostics")


def moved_intersection(group, g, h):
    """Basis of the intersection of the moved subspaces of g and h.

    The first n - codim rows of an element's dual_change vanish exactly
    on its moved subspace, so the intersection is the kernel of those
    rows of g and of h stacked."""
    n, order = group.dim, group.scalar_order
    rows = []
    for geom in (geometry(group, g), geometry(group, h)):
        rows += geom.dual_change.rows[:n - geom.codim]
    if not rows:
        # neither element fixes a nonzero vector
        return list(Matrix.identity(n, order).rows)
    return list(rref(Matrix(order, kernel_basis(Matrix(order, rows))))[0].rows)


def perp_vanishing_applies(group, g, h):
    """Whether the intersection of the two moved subspaces is nonzero and
    stable under every generator; when that holds for all conjugates, the
    bracket of classes supported on the two conjugacy classes vanishes."""
    order = group.scalar_order
    inter = moved_intersection(group, g, h)
    if not inter:
        return False
    for k in group.generator_indices:
        gen = group.matrices[k]
        for v in inter:
            if solve_membership(inter, tuple(gen.apply(list(v))), order) is None:
                return False
    return True


def _require(cond, message):
    if not cond:
        raise ValueError(message)


def pair_commutator(group, g, xg, h, yh):
    """The term of X_g and Y_h: the Schouten bracket [X_g, Y_h] projected
    at gh, or the reason it vanishes.  "schouten zero" means the bracket
    itself is zero; "perp-intersection" and "projection kill" mean the
    projection removes it, with and without a nonzero intersection of
    the moved subspaces of g and h."""
    raw = schouten(xg, yh)
    if raw.is_zero():
        return "schouten zero"
    projected = project_component(group, group.mult_table[g][h], raw)
    if projected.is_zero():
        return ("perp-intersection" if moved_intersection(group, g, h)
                else "projection kill")
    return projected


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

    Invariance gives X_{a^-1 g a} = X_g.a, and p_{a^-1 g a}(X.a) =
    p_g(X).a, so reduced form is checked on one component per conjugacy
    class of each support.  Likewise the pair (a^-1 g a, a^-1 h a) has
    the projected Schouten bracket of (g, h) moved by a, and the same
    vanishing reason: pairs are walked in sorted (g, h) order, each pair
    not yet reached is computed, and its value is moved to its whole
    orbit under simultaneous conjugation.

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
    _require(is_invariant(x), "left operand is not G-invariant (apply reynolds first)")
    _require(is_invariant(y), "right operand is not G-invariant (apply reynolds first)")
    group = x.group
    for side, c in (("left", x), ("right", y)):
        reps = (cls[0] for cls in group.conj_classes if cls[0] in c.terms)
        _require(all(project_component(group, r, c.terms[r]) == c.terms[r] for r in reps),
                 f"{side} operand is not in reduced form (apply project first)")
    degree = max(x.degree + y.degree - 1, 0)
    pairs = [(g, h) for g in sorted(x.terms) for h in sorted(y.terms)]
    mult, inverses = group.mult_table, group.inverses
    values = {}
    for g, h in pairs:
        if (g, h) in values:
            continue
        value = values[(g, h)] = pair_commutator(group, g, x.terms[g], h, y.terms[h])
        for a in range(1, len(group)):
            a_inv = inverses[a]
            moved = (mult[mult[a_inv][g]][a], mult[mult[a_inv][h]][a])
            if moved in values:
                continue
            values[moved] = (value if isinstance(value, str)
                             else act(value, [group.action(a)]))
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
