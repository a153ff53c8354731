"""Group-decorated polyvector cochains.

A cochain is a finite sum over group elements g of polyvectors X_g, with
differential given componentwise by left wedge against the Euler field of
g.  The module provides the G-action, Reynolds averaging, the reduced
projection p_g of a polyvector (project_component) and of a cochain
(project), the volume forms omega_g (volume_form, the reduced
basis element of degree (codim, 0)), the codimension grading
(support_codims, support_codim), and exact cohomology computations per
(exterior degree, polynomial degree) piece.
"""

from fractions import Fraction
from itertools import combinations
from operator import attrgetter

from .groups import geometry
from .linalg import echelon_span
from .polyvec import Poly, Polyvector, SparseTerms, act, euler_field, monomials
from .scalars import Cyc


class Cochain(SparseTerms):
    """Map from group-element indices to polyvectors of one exterior degree.

    Absent components are zero.  The group is carried along so actions and
    differentials can resolve matrices and conjugation without extra
    arguments; its scalar order, ``order``, is the group's.

    proof is the cache of bracket.gerstenhaber's two preconditions.  A
    value from the constructor is its own source and holds a dict, empty
    at first, in which the bracket keeps the result of each check it
    runs on the value, under the fixed keys "invariant" and "reduced".
    A sum, difference or multiple holds instead the tuple of the source
    values it was built from, each once by identity, and the zero
    cochain holds none: both checks are linear, so it passes a check
    that all of them pass.  The entries cannot go stale, since the value
    is immutable, and they are freed with it; equality and hashing
    ignore them.
    """

    __slots__ = ("group", "degree", "proof")
    head = property(attrgetter("group", "degree"))
    order = property(attrgetter("group.scalar_order"))

    def __new__(cls, group, degree, terms):
        clean = {}
        head, size = (group.dim, group.scalar_order), len(group)
        for g, pv in terms.items():
            if type(g) is not int or not 0 <= g < size:
                raise ValueError("cochain keys must be element indices of its group")
            if not isinstance(pv, Polyvector) or pv.head != head:
                raise ValueError("cochain components must be polyvectors of the group's (n, order)")
            if pv.is_zero():
                continue
            if pv.degree() != degree:
                raise ValueError("component exterior degree disagrees with cochain degree")
            clean[g] = pv
        return cls._new(clean, group, degree, {})

    @classmethod
    def zero(cls, group, degree):
        return cls._new({}, group, degree, ())

    def _derived(self, terms, *operands):
        sources = {}  # id -> source: each once, and every one alive here
        for c in operands:
            proof = c.proof
            for s in (c,) if proof.__class__ is dict else proof:
                sources[id(s)] = s
        return Cochain._new(terms, self.group, self.degree, tuple(sources.values()))

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for g in sorted(self.terms):
            bits.append(f"({self.terms[g]}) {self.group.words[g]}")
        return " + ".join(bits)

    def __repr__(self):
        return f"Cochain({self})"


def differential(c):
    """Componentwise left wedge with the Euler field; raises both the
    exterior and the polynomial degree by one."""
    out = {}
    for g, pv in c.terms.items():
        w = euler_field(c.group.matrices[g]).wedge(pv)
        if not w.is_zero():
            out[g] = w
    return Cochain(c.group, c.degree + 1, out)


def is_cocycle(c):
    return differential(c).is_zero()


def act_cochain(c, h):
    """Right action: the component at g moves to h^-1 g h, a bijection of
    G, with the polyvector transported through h.  No module of the
    package calls it; it is the tests' definition of invariance, and it
    stays here because the benchmark's tracer counts it here by name."""
    group = c.group
    mult, h_inv, pair = group.mult_table, group.inverses[h], [group.actions[h]]
    return Cochain(group, c.degree, {mult[mult[h_inv][g]][h]: act(pv, pair)
                                     for g, pv in c.terms.items()})


def reynolds(c):
    """Group average (1/|G|) sum_h c.h; idempotent, image invariant.  The h
    moving k to its class representative r are a^-1 C(r), a =
    conjugators[k], so the average at r is the centralizer average of
    (1/|class|) sum_k X_k.a^-1, spread over the class.  X_r itself, whose
    a is the identity, is summed as it is."""
    group = c.group
    out = {}
    for cls, cent in zip(group.conj_classes, group.centralizers):
        moved = [c.terms[k] if k == cls[0] else
                 act(c.terms[k], [group.actions[group.inverses[group.conjugators[k]]]])
                 for k in cls if k in c.terms]
        if moved:
            total = sum(moved[1:], moved[0]) * Cyc.of(Fraction(1, len(cls)), group.scalar_order)
            average = centralizer_reynolds(group, total, cent)
            if not average.is_zero():
                out.update(spread_invariant(group, cls, average).terms)
    return Cochain(group, c.degree, out)


def is_invariant(c):
    """Whether c.h == c for every h in G, checked one conjugacy class at a
    time.  c is invariant exactly when its support is a union of whole
    classes and, for each class cls in it with representative r, X_r is
    fixed by C(r) and X_k = X_r.a_k for a_k = conjugators[k]: then any
    h has a_k h = z a_(h^-1 k h) with z in C(r), so X_k.h = X_(h^-1 k h).
    C(r) fixes X_r exactly when X_r is the mean of its images under the
    generators of C(r), group.centralizer_gens, which one act call over
    their pairs computes; with the |cls| - 1 members, that is |cls| act
    calls per class.  The trivial centralizer, of the identity alone, has
    no generators and fixes X_r with no call.

    Why the mean decides: embed Q(zeta_N) in C.  C(r) is finite and act
    keeps the bidegree, so C(r) has an invariant positive-definite
    Hermitian form on the polyvectors of X_r's degrees (the average of
    any one over C(r)).  If x = X_r is the mean of x.s over the generators
    s, then |x|^2 = mean Re<x.s, x> <= mean |x.s| |x| = |x|^2, so
    Cauchy-Schwarz holds with equality for each s, and with |x.s| = |x|
    that forces x.s = x: every generator, so all of C(r), fixes x.
    Conversely a fixed x is its own mean: act divides the summed
    numerators by len(pairs) exactly, so the mean is equal to x
    coefficient for coefficient.

    The classes of the support are found from their representatives: it
    is a union of whole classes exactly when every member of the classes
    whose representative it holds is in it and their sizes add up to its
    own, which tests membership only within those classes before any
    act."""
    group = c.group
    terms = c.terms
    present = [(cls, gens) for cls, gens in zip(group.conj_classes, group.centralizer_gens)
               if cls[0] in terms]
    if (sum(len(cls) for cls, _ in present) != len(terms)
            or not all(k in terms for cls, _ in present for k in cls[1:])):
        return False
    for cls, gens in present:
        xr = terms[cls[0]]
        if gens and act(xr, [group.actions[s] for s in gens]) != xr:
            return False
        if any(act(xr, [group.actions[group.conjugators[k]]]) != terms[k] for k in cls[1:]):
            return False
    return True


def project_component(group, g, pv):
    """The reduced projection p_g of a polyvector pv at element g.

    In coordinates adapted to V = V^g + (1-g)V, kills every polynomial
    term containing a moved variable and every wedge not divisible by
    omega_g, then transforms back.  A polyvector that loses no term is
    returned as it is, the same object, so a reduced one costs one act
    when codim g > 0 and none at the identity.
    """
    geom = geometry(group, g)
    if not geom.codim:
        return pv
    n, order = group.dim, group.scalar_order
    moved = range(n - geom.codim, n)
    omega = set(moved)
    adapted = act(pv, [(geom.adapted, geom.dual_change)])
    kept = {}
    for idx, p in adapted.terms.items():
        if omega.issubset(idx):
            terms = {e: a for e, a in p.terms.items() if not any(e[j] for j in moved)}
            if terms:
                kept[idx] = p if len(terms) == len(p.terms) else Poly._new(terms, n, order)
    if not kept:
        return Polyvector.zero(n, order)
    if kept == adapted.terms:
        return pv
    return act(Polyvector._new(kept, n, order), [(geom.dual_change, geom.adapted)])


def project(c):
    """project_component at each element of the support: it kills every
    coboundary and keeps the reduced representative of each class, so a
    cocycle is a coboundary exactly when its projection is zero."""
    group = c.group
    return Cochain(group, c.degree, {g: project_component(group, g, pv)
                                     for g, pv in c.terms.items()})


def is_reduced(c):
    """Whether c is in reduced form: its own projection."""
    return project(c) == c


def ambient_keys(n, p, m):
    """Deterministic coordinate order for one group component of the
    bigraded (p, m) piece: wedge index tuples, then exponent tuples."""
    if p < 0 or p > n or m < 0:
        return []
    return [(idx, e) for idx in combinations(range(n), p) for e in monomials(n, m)]


def _sparse_rows(pvs, keys):
    """The nonzero polyvectors as sparse rows {column: Cyc}, a term's
    column being the position of its (wedge, exponents) key in keys."""
    column = {key: j for j, key in enumerate(keys)}
    return [{column[idx, exps]: c for idx, p in pv.terms.items() for exps, c in p.terms.items()}
            for pv in pvs if not pv.is_zero()]


def centralizer_reynolds(group, pv, cent):
    """Average a single-component polyvector over a centralizer cent, one
    of group.centralizers; the average stays at the same element.  It is
    one act call over the pairs of cent, read off group.actions, which
    returns their mean."""
    actions = group.actions
    return act(pv, [actions[h] for h in cent])


def spread_invariant(group, cls, pv):
    """Extend a polyvector at cls[0], invariant under its centralizer, to
    the G-invariant cochain on the conjugacy class cls: its component at
    cls[0] is pv itself, and at each other k, in class order, pv moved
    by conjugators[k]."""
    moved = {k: act(pv, [group.actions[group.conjugators[k]]]) for k in cls[1:]}
    return Cochain(group, pv.degree(), {cls[0]: pv, **moved})


def reduced_basis_at(group, geom, p, m):
    """Monomial basis of S^m(V^g) (x) Lambda^{p-codim}(V^g)* wedge omega_g
    at one element, written in ambient coordinates.  As in project, an
    element of codim 0, the identity, needs no change of coordinates."""
    n, order = group.dim, group.scalar_order
    codim = geom.codim
    fixed_cnt = n - codim
    if p < codim or p - codim > fixed_cnt:
        return []
    out = []
    wedge_tail = tuple(range(fixed_cnt, n))
    for exps_fixed in monomials(fixed_cnt, m):
        exps = exps_fixed + (0,) * codim
        for head in combinations(range(fixed_cnt), p - codim):
            term = Polyvector.term(1, exps, head + wedge_tail, order)
            out.append(act(term, [(geom.dual_change, geom.adapted)]) if codim else term)
    return out


def volume_form(group, g):
    """omega_g, the wedge of the moved dual coordinates of g: the one
    reduced basis element in degree (codim, 0), scaled so that its
    coefficient at its least wedge is 1."""
    geom = geometry(group, g)
    (omega,) = reduced_basis_at(group, geom, geom.codim, 0)
    lead = omega.terms[min(omega.terms)].terms[(0,) * group.dim]
    return omega * lead.inverse()


def support_codims(c):
    """The codims of the conjugacy classes that meet the support of c, in
    class order, each read at the class representative."""
    group = c.group
    return [geometry(group, cls[0]).codim for cls in group.conj_classes
            if not c.terms.keys().isdisjoint(cls)]


def support_codim(c):
    """The codimension degree of c: the largest codim of an element in
    its support, 0 for the zero cochain.  A nonzero bracket of invariant
    reduced cocycles of codimension degrees i and j has degree i + j."""
    return max(support_codims(c), default=0)


def _check_piece(group, p, m):
    """Refuse a bidegree with no piece: p outside 0..dim V, or m < 0."""
    if not (0 <= p <= group.dim and m >= 0):
        raise ValueError(f"no cohomology piece in degree ({p}, {m}): the exterior "
                         f"degree must be in 0..{group.dim} and the polynomial degree >= 0")


def cohomology_basis(group, p, m):
    """Deterministic basis of the degree-(p, m) cohomology.

    Per conjugacy class: enumerate the reduced monomial basis at the class
    representative, average over the centralizer, echelonize, and spread
    each surviving row to its G-invariant class-supported cochain.
    """
    _check_piece(group, p, m)
    n, order = group.dim, group.scalar_order
    keys = ambient_keys(n, p, m)
    out = []
    for cls, cent in zip(group.conj_classes, group.centralizers):
        basis = reduced_basis_at(group, geometry(group, cls[0]), p, m)
        if not basis:
            continue
        averages = [centralizer_reynolds(group, b, cent) for b in basis]
        for row in echelon_span(_sparse_rows(averages, keys), order):
            grouped = {}
            for j, c in row.items():
                idx, exps = keys[j]
                grouped.setdefault(idx, {})[exps] = c
            pv = Polyvector(n, order, {idx: Poly(n, order, t) for idx, t in grouped.items()})
            out.append(spread_invariant(group, cls, pv))
    return out


def cohomology_dim_direct(group, p, m):
    """Dimension of the (p, m) piece from the full ambient complex.

    Works classwise.  At a representative g the Euler wedge d = E_g ^ -
    commutes with the centralizer average R, so the invariant cohomology
    has dimension rank R(S) - rank d(R(S)) - rank d(R(T)), where S and T
    are all of S(V) (x) Lambda V* in degrees (p, m) and (p-1, m-1).
    No reduced-subspace data is consulted.
    """
    _check_piece(group, p, m)
    n, order = group.dim, group.scalar_order

    def averages(cent, q, k):
        return [centralizer_reynolds(group, Polyvector.term(1, exps, idx, order), cent)
                for idx, exps in ambient_keys(n, q, k)]

    def rank(pvs, q, k):
        return len(echelon_span(_sparse_rows(pvs, ambient_keys(n, q, k)), order))

    total = 0
    for cls, cent in zip(group.conj_classes, group.centralizers):
        e_g = euler_field(group.matrices[cls[0]])
        here = averages(cent, p, m)
        below = averages(cent, p - 1, m - 1)
        total += (rank(here, p, m)
                  - rank([e_g.wedge(a) for a in here], p + 1, m + 1)
                  - rank([e_g.wedge(a) for a in below], p, m))
    return total


def cohomology_dim_character(group, p, m):
    """Dimensions of the (p, m) piece per conjugacy class, from the
    character alone: one count per class of group.conj_classes, in that
    order, and the dimension of the piece is their sum.

    The piece is the sum over classes [g] of the C(g)-invariants of
    S^m(V^g) (x) Lambda^{p-c}(V^g)* (x) det((1-g)V)*, c = codim V^g, and
    Molien's formula counts each:
    1/|C(g)| sum_h h_m(h^-1|V^g) e_{p-c}(h|V^g) e_c(h|(1-g)V).  Each h
    commutes with g, and the mean of the powers of g projects onto V^g,
    so tr(h^k|V^g) is the mean of chi(h^k g^j) and tr(h^k|(1-g)V) =
    chi(h^k) - tr(h^k|V^g); Newton's identities turn these power sums
    into h_m and e_q.  Reads the traces of the matrices and the group's
    tables only: no action, elimination or geometry, so it shares no
    code with cohomology_basis.  A class count that is not a nonnegative
    integer raises ArithmeticError.
    """
    _check_piece(group, p, m)
    n, order = group.dim, group.scalar_order
    mult, inverses = group.mult_table, group.inverses
    diagonals = [[r[i] for i, r in enumerate(a.rows)] for a in group.matrices]
    chi = [sum(d[1:], d[0]) if d else Cyc.zero(order) for d in diagonals]
    counts = []
    for cls, cent in zip(group.conj_classes, group.centralizers):
        g = cls[0]
        g_powers = [0]
        while mult[g_powers[-1]][g]:
            g_powers.append(mult[g_powers[-1]][g])
        # g_powers[0] is the identity, so each sum starts from chi[x]
        mean = Cyc.of(Fraction(1, len(g_powers)), order)

        def trace(x):
            return sum((chi[mult[x][y]] for y in g_powers[1:]), chi[x]) * mean

        # codim from the identity's trace first: a class the piece misses
        # builds no other trace
        fixed_trace = {0: trace(0)}
        codim = n - int(fixed_trace[0].as_fraction())
        q = p - codim
        if q < 0 or q > n - codim:
            counts.append(0)
            continue
        fixed_trace.update((x, trace(x)) for x in cent if x)
        terms = []
        for h in cent:
            h_powers = [h]
            while len(h_powers) < max(m, q, codim):
                h_powers.append(mult[h_powers[-1]][h])
            fixed = [fixed_trace[x] for x in h_powers]
            moved = [chi[x] - t for x, t in zip(h_powers, fixed)]
            fixed_inv = [fixed_trace[inverses[x]] for x in h_powers]
            terms.append(_newton(fixed_inv, m, 1) * _newton(fixed, q, -1)
                         * _newton(moved, codim, -1))
        dim = sum(terms[1:], terms[0]) * Fraction(1, len(cent))
        if not dim.is_rational() or dim.den != 1 or dim.num[0] < 0:
            raise ArithmeticError(f"the character count at class {group.words[g]} "
                                  f"in degree ({p}, {m}) is {dim}, not a "
                                  f"nonnegative integer")
        counts.append(dim.num[0])
    return counts


def _newton(power_sums, q, sign):
    """h_q (sign 1) or e_q (sign -1) of the eigenvalues whose k-th power
    sum is power_sums[k - 1], a nonempty list of Cycs, by Newton's
    identities k x_k = sum_i sign^(i-1) x_(k-i) p_i: each term is added,
    or subtracted for sign -1 and i even, and the sum divided by k once
    (for k > 1)."""
    order = power_sums[0].order
    out = [Cyc.one(order)]
    for k in range(1, q + 1):
        acc = out[k - 1] * power_sums[0]
        for i in range(2, k + 1):
            t = out[k - i] * power_sums[i - 1]
            acc = acc - t if sign < 0 and i % 2 == 0 else acc + t
        out.append(acc if k == 1 else acc * Cyc.of(Fraction(1, k), order))
    return out[q]
