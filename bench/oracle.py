"""Independent affine arithmetic for checking answers the corpus cannot predict.

Written from the definitions only, without the package under test: elements
are (linear, translation) pairs of tuples, with Fraction translations.
"""

from __future__ import annotations

from fractions import Fraction


def identity(n: int):
    return (tuple(tuple(int(i == j) for j in range(n)) for i in range(n)),
            (Fraction(0),) * n)


def mul(g, h):
    """g*h: first apply h, then g."""
    A, a = g
    B, b = h
    lin = tuple(tuple(sum(A[i][k] * B[k][j] for k in range(len(A)))
                      for j in range(len(A))) for i in range(len(A)))
    tr = tuple(a[i] + sum(A[i][k] * b[k] for k in range(len(A))) for i in range(len(A)))
    return lin, tr


def _int_inverse(A):
    """Inverse of an integer matrix with determinant +-1 (Gauss-Jordan)."""
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(A)]
    for c in range(n):
        p = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[p] = M[p], M[c]
        pivot = M[c][c]
        M[c] = [x / pivot for x in M[c]]
        for r in range(n):
            if r != c and M[r][c] != 0:
                f = M[r][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return tuple(tuple(int(x) for x in row[n:]) for row in M)


def inv(g):
    A, a = g
    Ai = _int_inverse(A)
    return Ai, tuple(-sum(Ai[i][k] * a[k] for k in range(len(A))) for i in range(len(A)))


def power(g, k: int):
    out = identity(len(g[0]))
    for _ in range(k):
        out = mul(out, g)
    return out


def rank(rows) -> int:
    """Rank over Q."""
    M = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(M[0]) if M else 0):
        p = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        for i in range(len(M)):
            if i != r and M[i][c] != 0:
                f = M[i][c] / M[r][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        r += 1
    return r


def holonomy(group):
    """Linear part -> one lift, for the finite group generated mod Z^n."""
    n, gens = group
    ident = identity(n)
    lifts = {ident[0]: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                p = mul(w, g)
                if p[0] not in lifts:
                    lifts[p[0]] = p
                    nxt.append(p)
        frontier = nxt
    return lifts


def betti(lifts) -> int:
    """Dimension of the common fixed space of the holonomy."""
    n = len(next(iter(lifts)))
    rows = [tuple(h[i][j] - (i == j) for j in range(n)) for h in lifts for i in range(n)]
    return n - rank(rows)


def is_member(lifts, g) -> bool:
    """g lies in the group: its linear part is in the holonomy and its
    translation agrees with that coset's lift modulo Z^n."""
    lift = lifts.get(g[0])
    return lift is not None and all((x - y).denominator == 1
                                    for x, y in zip(g[1], lift[1]))


def ball(group, radius: int) -> set:
    """Products of at most `radius` generators, inverses and unit translations."""
    n, gens = group
    steps = []
    for g in gens:
        steps += [g, inv(g)]
    for i in range(n):
        for s in (1, -1):
            steps.append((identity(n)[0],
                          tuple(Fraction(s * int(i == j)) for j in range(n))))
    elems = {identity(n)}
    frontier = list(elems)
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for g in steps:
                p = mul(w, g)
                if p not in elems:
                    elems.add(p)
                    nxt.append(p)
        frontier = nxt
    return elems


def extremal_free_core(A: set) -> set:
    """Largest subset of A without extremal points.

    a is not extremal in S iff a*b^-1*a lies in S for some b != a in S (the
    element g = b*a^-1 then has g*a = b and g^-1*a in S). Subsets without
    extremal points are closed under union, so repeatedly removing the
    extremal points reaches the largest one.
    """
    S = set(A)
    inverses = {a: inv(a) for a in S}
    while S:
        extremal = {a for a in S
                    if not any(b != a and mul(mul(a, inverses[b]), a) in S for b in S)}
        if not extremal:
            break
        S -= extremal
    return S


def is_hw_embedding(alpha, beta) -> bool:
    """alpha, beta satisfy both Hantzsche-Wendt relators, and the squares
    a = alpha^2, b = beta^2, c = (alpha*beta)^2 span a rank-3 lattice (which
    makes the induced homomorphism injective)."""
    n = len(alpha[0])
    one = identity(n)
    a2, b2 = power(alpha, 2), power(beta, 2)
    if mul(mul(mul(inv(alpha), b2), alpha), b2) != one:
        return False
    if mul(mul(mul(inv(beta), a2), beta), a2) != one:
        return False
    vectors = []
    for u in (a2, b2, power(mul(alpha, beta), 2)):
        # the first power of u that is a pure translation
        cur, k = u, 1
        while cur[0] != one[0]:
            cur, k = mul(cur, u), k + 1
            if k > 1000:
                return False
        vectors.append(cur[1])
    return rank(vectors) == 3
