"""Seeded workload corpora and their expected answers.

Inputs are direct products of the bundled groups, each conjugated by a random
unimodular basis change and a rational origin shift. Both steps keep every
isomorphism invariant, so the expected answer for a product follows from the
factor table below alone; nothing here imports the package under test, and
the AGS text is read and written by this module's own small parser.

Rules used to combine factors (G = G1 x ... x Gm acting block-diagonally):

* dimension, first Betti number: sums; holonomy order: product;
* G is non-diffuse iff some factor is (diffuse groups are closed under
  subgroups and extensions);
* G contains the Hantzsche-Wendt group iff some factor does (a homomorphism
  from it to a torsion-free group is trivial or injective, so one of the
  projections is injective);
* the Calabi kernel of G is the product of the factors' kernels, so the
  reduction chain is the level-by-level sum of the factors' chains;
* every group of order < 60 is solvable;
* the holonomy H1 x ... x Hm has all Sylow subgroups cyclic iff, for every
  prime, at most one factor has a non-trivial Sylow subgroup and that one is
  cyclic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

FIXTURES = Path("src") / "bieberbach" / "fixtures"


@dataclass(frozen=True)
class Factor:
    """Known invariants of one bundled group.

    ``chain`` lists (dimension, b1) of the group and of each successive
    Calabi kernel; it ends at a free abelian level (b1 = dimension) or at a
    level with b1 = 0. ``sylow`` maps each prime dividing the holonomy order
    to whether that Sylow subgroup is cyclic.
    """

    path: str
    dimension: int
    holonomy_order: int
    betti: int
    non_diffuse: bool
    contains_hw: bool
    chain: tuple[tuple[int, int], ...]
    sylow: tuple[tuple[int, bool], ...]


def _cat(name: str) -> str:
    return f"catalog_dims1to3/{name}.ags"


# Dimensions 1-3: the classification of closed flat manifolds of dimension
# <= 3 (Wolf, "Spaces of Constant Curvature", 3.5; Conway-Rossetti,
# "Describing the platycosms"). Only G6 (Hantzsche-Wendt) has b1 = 0, and it
# is the only one that is non-diffuse or contains a Hantzsche-Wendt subgroup
# (a finite-index subgroup cannot have smaller b1, and only B3, B4, G6 have
# holonomy Z2^2). The last two rows are the paper's worked examples: the
# 4-dimensional 05/01/06/006 (b1 = 1, Calabi kernel the Hantzsche-Wendt
# group) and the 5-dimensional min.88.1.1.15 (trivial center, holonomy of
# order 8, no Hantzsche-Wendt subgroup).
FACTORS: dict[str, Factor] = {
    "z1": Factor(_cat("dim1_z1"), 1, 1, 1, False, False, ((1, 1),), ()),
    "z2": Factor(_cat("dim2_z2"), 2, 1, 2, False, False, ((2, 2),), ()),
    "klein": Factor(_cat("dim2_klein_bottle"), 2, 2, 1, False, False,
                    ((2, 1), (1, 1)), ((2, True),)),
    "g1": Factor(_cat("dim3_g1_torus"), 3, 1, 3, False, False, ((3, 3),), ()),
    "g2": Factor(_cat("dim3_g2"), 3, 2, 1, False, False,
                 ((3, 1), (2, 2)), ((2, True),)),
    "g3": Factor(_cat("dim3_g3"), 3, 3, 1, False, False,
                 ((3, 1), (2, 2)), ((3, True),)),
    "g4": Factor(_cat("dim3_g4"), 3, 4, 1, False, False,
                 ((3, 1), (2, 2)), ((2, True),)),
    "g5": Factor(_cat("dim3_g5"), 3, 6, 1, False, False,
                 ((3, 1), (2, 2)), ((2, True), (3, True))),
    "g6": Factor(_cat("dim3_g6_hw"), 3, 4, 0, True, True,
                 ((3, 0),), ((2, False),)),
    "b1": Factor(_cat("dim3_b1"), 3, 2, 2, False, False,
                 ((3, 2), (1, 1)), ((2, True),)),
    "b2": Factor(_cat("dim3_b2"), 3, 2, 2, False, False,
                 ((3, 2), (1, 1)), ((2, True),)),
    "b3": Factor(_cat("dim3_b3"), 3, 4, 1, False, False,
                 ((3, 1), (2, 1), (1, 1)), ((2, False),)),
    "b4": Factor(_cat("dim3_b4"), 3, 4, 1, False, False,
                 ((3, 1), (2, 1), (1, 1)), ((2, False),)),
    "ex4": Factor("example_05010606.ags", 4, 4, 1, True, True,
                  ((4, 1), (3, 0)), ((2, False),)),
    "min88": Factor("min88.ags", 5, 8, 0, True, False,
                    ((5, 0),), ((2, False),)),
}

CATALOG_FACTORS = tuple(k for k, f in FACTORS.items() if f.path.startswith("catalog"))


# ---------------------------------------------------------------- AGS text

Group = tuple  # (dimension, ((linear, translation), ...))


def rational(token: str) -> Fraction:
    num, _, den = token.partition("/")
    return Fraction(int(num), int(den or 1))


def read_blocks(text: str):
    """(dimension, name, [(keyword, linear, translation), ...]) of AGS text."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if len(lines) < 2 or lines[0] != ["ags", "1"] or lines[1][0] != "dim":
        raise ValueError("not an AGS file")
    n = int(lines[1][1])
    name = None
    body = lines[2:]
    if body and body[0][0] == "name":
        name = " ".join(body[0][1:])
        body = body[1:]
    if len(body) % (n + 2):
        raise ValueError("truncated AGS block")
    blocks = []
    for i in range(0, len(body), n + 2):
        keyword = " ".join(body[i])
        rows = [[rational(t) for t in row] for row in body[i + 1:i + n + 2]]
        if any(len(row) != n + 1 for row in rows) or rows[n] != [0] * n + [1]:
            raise ValueError("malformed affine matrix")
        linear = tuple(tuple(int(e) for e in row[:n]) for row in rows[:n])
        blocks.append((keyword, linear, tuple(row[n] for row in rows[:n])))
    return n, name, blocks


def read_ags(text: str) -> Group:
    """Dimension and generators of an AGS group file."""
    n, _, blocks = read_blocks(text)
    if any(kw != "gen" for kw, _, _ in blocks):
        raise ValueError("expected gen blocks")
    return n, tuple((lin, tr) for _, lin, tr in blocks)


def _text(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def write_ags(group: Group, name: str) -> str:
    n, gens = group
    out = ["ags 1", f"dim {n}", f"name {name}"]
    for linear, tr in gens:
        out.append("gen")
        for i in range(n):
            out.append(" ".join([str(e) for e in linear[i]] + [_text(tr[i])]))
        out.append(" ".join(["0"] * n + ["1"]))
    return "\n".join(out) + "\n"


def load_factor(root: Path, key: str) -> Group:
    return read_ags((root / FIXTURES / FACTORS[key].path).read_text())


# ------------------------------------------------ products and conjugation

def direct_product(groups) -> Group:
    """Block-diagonal product; the lattice Z^n stays implicit."""
    n = sum(g[0] for g in groups)
    gens = []
    offset = 0
    for m, factor_gens in groups:
        for linear, tr in factor_gens:
            big = [[int(i == j) for j in range(n)] for i in range(n)]
            vec = [Fraction(0)] * n
            for i in range(m):
                for j in range(m):
                    big[offset + i][offset + j] = linear[i][j]
                vec[offset + i] = tr[i]
            gens.append((tuple(map(tuple, big)), tuple(vec)))
        offset += m
    return n, tuple(gens)


def random_unimodular(rng: random.Random, n: int, moves: int):
    """(P, P^-1): a random signed permutation followed by `moves` row moves."""
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    P = [[signs[i] * int(perm[i] == j) for j in range(n)] for i in range(n)]
    Pinv = [[P[j][i] for j in range(n)] for i in range(n)]
    for _ in range(moves if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        # row_i += c * row_j on P; column_j -= c * column_i on P^-1
        P[i] = [a + c * b for a, b in zip(P[i], P[j])]
        for row in Pinv:
            row[j] -= c * row[i]
    return P, Pinv


def _mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _apply(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def conjugate_group(group: Group, rng: random.Random, moves: int) -> Group:
    """q^-1 g q for q = (P, t): new basis P, origin shift t with small denominators.

    q maps Z^n onto Z^n + t, so the conjugate keeps the standard lattice.
    """
    n, gens = group
    P, Pinv = random_unimodular(rng, n, moves)
    t = [Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3, 4))) for _ in range(n)]
    out = []
    for linear, tr in gens:
        A = [list(r) for r in linear]
        new_linear = _mul(_mul(Pinv, A), P)
        shifted = [a + x - y for a, x, y in zip(tr, _apply(A, t), t)]
        out.append((tuple(map(tuple, new_linear)), tuple(_apply(Pinv, shifted))))
    return n, tuple(out)


# ---------------------------------------------------------- expected rows

def product_chain(keys) -> str:
    """Chain text (``n:k:Action;...``) of the product of the given factors."""
    states = [list(FACTORS[k].chain) for k in keys]
    steps = []
    level = 0
    while True:
        dim = betti = 0
        for chain in states:
            if level < len(chain):
                d, b = chain[level]
            else:
                d, b = chain[-1]
                if b == d:          # reduced to the trivial group
                    d = b = 0
            dim += d
            betti += b
        if dim == 0 or betti == dim:
            steps.append(f"{dim}:{betti}:TrivialGroup")
            return ";".join(steps)
        if betti == 0:
            steps.append(f"{dim}:0:TrivialCenter")
            return ";".join(steps)
        steps.append(f"{dim}:{betti}:CalabiReduce")
        level += 1


@dataclass(frozen=True)
class Expected:
    dimension: int
    betti: int
    holonomy_order: int
    solvable: bool
    sylow_cyclic: bool
    non_diffuse: bool
    contains_hw: bool
    chain: str

    def csv_row(self, name: str) -> str:
        def flag(b):
            return "true" if b else "false"
        verdict = "non-diffuse" if self.non_diffuse else "diffuse"
        return ",".join([name, str(self.dimension), str(self.betti),
                         str(self.holonomy_order), flag(self.solvable),
                         flag(self.sylow_cyclic), verdict, self.chain])


def expected_for(keys) -> Expected:
    fs = [FACTORS[k] for k in keys]
    order = 1
    for f in fs:
        order *= f.holonomy_order
    primes: dict[int, list[bool]] = {}
    for f in fs:
        for p, cyclic in f.sylow:
            primes.setdefault(p, []).append(cyclic)
    return Expected(
        dimension=sum(f.dimension for f in fs),
        betti=sum(f.betti for f in fs),
        holonomy_order=order,
        solvable=order < 60,
        sylow_cyclic=all(len(c) == 1 and c[0] for c in primes.values()),
        non_diffuse=any(f.non_diffuse for f in fs),
        contains_hw=any(f.contains_hw for f in fs),
        chain=product_chain(keys),
    )


# ------------------------------------------------------------- workloads

# Factor tuples per workload. The multisets are fixed so that every seed does
# the same work; the seed picks the conjugations and the order.

# classify: one `classify DIR` call over all of these; dims 1-6, holonomy
# orders up to 36 (g5 x g5).
CLASSIFY_PRODUCTS = (
    tuple((k,) for k in FACTORS)
    + tuple(("z1", k) for k in ("klein", "g2", "g3", "g4", "g5", "g6", "b1", "b2",
                                "b3", "b4", "ex4", "min88"))
    + tuple(("klein", k) for k in ("g2", "g3", "g4", "g5", "g6", "b3", "ex4"))
    + (("g5", "g5"), ("g3", "g6"), ("g6", "b4"), ("g4", "b4"), ("g2", "b2"),
       ("klein", "klein", "klein"))
)

# hw: contained queries (a factor is g6 or 05/01/06/006) and not-contained
# ones (min88 and products without a Hantzsche-Wendt factor).
HW_PRODUCTS = (
    ("g6",), ("ex4",), ("g6", "z1"), ("g6", "klein"), ("g6", "g1"), ("ex4", "z1"),
    ("min88",), ("b3",), ("b4",), ("g5",), ("b3", "z1"), ("g2", "klein"),
    ("b4", "klein"), ("g4", "z2"),
)

# witness: dims 1-3 only (larger groups take up to minutes per query); b3, b4,
# g3 and g5 are left out to keep one pass over the corpus near five seconds.
WITNESS_PRODUCTS = (("z1",), ("z2",), ("klein",), ("g1",), ("g2",), ("g4",),
                    ("b1",), ("g6",))


@dataclass(frozen=True)
class Item:
    name: str
    keys: tuple[str, ...]
    group: Group
    expected: Expected


def build_items(root: Path, products, rng: random.Random, moves: int, prefix: str = "q"):
    """One conjugated product per factor tuple, in a seeded order; ``moves`` is
    the number of elementary row moves in each basis change."""
    cache = {k: load_factor(root, k) for k in {k for p in products for k in p}}
    items = []
    for keys in products:
        product = direct_product([cache[k] for k in keys])
        items.append((keys, conjugate_group(product, rng, moves)))
    rng.shuffle(items)
    return [Item(f"{prefix}{i:02d}_{'x'.join(keys)}", keys, group, expected_for(keys))
            for i, (keys, group) in enumerate(items)]


def write_items(items, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for item in items:
        (directory / f"{item.name}.ags").write_text(write_ags(item.group, item.name))
