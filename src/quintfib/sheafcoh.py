"""Cech cohomology of the constructible sheaves on the base graph.

The direct-image sheaves of the torus fibration restrict to constructible
sheaves supported on the discriminant graph.  For the top one the kernel
sheaf K3 has stalks

    24-dimensional at each triple barycenter  (sum-zero part of Z^25),
    4-dimensional at each pair barycenter    (sum-zero part of Z^5),
    4-dimensional on each leg                (sum-zero part of Z^5),

and its Cech complex on the graph is C^0 (dim 280) -> C^1 (dim 120), held
as the 120 sparse rows of its differential (720 nonzeros under the
canonical labeling).  At a triple barycenter with sorted indices (i, j, k),
the generator x_{lm} restricts to u_l on the apex-k leg, v_m on the apex-i
leg and w_n on the apex-j leg with n = -l-m (mod 5).  The pair-barycenter
restriction is the identity under canonical component labeling; cohomology
is invariant under every relabeling consistent with the index rule, which
is what justifies the convention (see `random_relabeling`).

Sum-zero stalks are coordinatized by dropping the 0-th component (it equals
minus the sum of the rest).  The differential on a leg is the restriction
from the pair end minus the restriction from the triple end.

The allowed intersection chains of the middle system take their
dimensions from the dual invariants of the leg and vertex monodromies, and
the boundary residues of their generating 1-cycle are sums of chart
expansions (`monodromy.expand`) of its incident coefficients.

Everything in this module is exact integer linear algebra (`ratkernel`).
"""

from dataclasses import dataclass

from . import monodromy, ratkernel
from .basecomplex import INDEX_SET, enumerate_graph


# the graph is constant, so it is enumerated once
_VERTICES, _LEGS = map(tuple, enumerate_graph())
_TRIPLES = tuple(tuple(sorted(v.indices)) for v in _VERTICES if v.kind == "triple")
_PAIRS = tuple(tuple(sorted(v.indices)) for v in _VERTICES if v.kind == "pair")

# stalk dimensions at a triple barycenter, at a pair barycenter and on a leg
# of the kernel sheaves of the top (K3) and the middle (K2) direct image
K3_STALKS = (24, 4, 4)
K2_STALKS = (8, 0, 4)


def _cech_dims(stalks):
    """(c0, c1) of the Cech complex of a sheaf with these stalk dimensions."""
    triple, pair, leg = stalks
    return len(_TRIPLES) * triple + len(_PAIRS) * pair, len(_LEGS) * leg


@dataclass(frozen=True)
class Relabeling:
    """A consistent relabeling of the stalk generators.

    `triple_affine` maps a sorted triple to (unit, alpha, beta): indices
    transform as l -> unit*l + alpha, m -> unit*m + beta (mod 5), which
    forces n -> unit*n - alpha - beta, so the index rule is preserved.
    `pair_leg_perms` maps (sorted pair, apex) to a permutation of 0..4
    applied between the pair stalk components and the leg components.
    A triple or (pair, apex) that is not listed keeps its labels.
    """

    triple_affine: dict
    pair_leg_perms: dict


_IDENTITY = Relabeling({}, {})


def random_relabeling(rng):
    """A random relabeling consistent with the antidiagonal index rule.

    `rng` is a `random.Random` or a numpy `Generator`: it is drawn only
    through `choice` and `shuffle`, which both have.  A `Generator` gives
    the stream that seeded runs pin: `choice` of the four units draws as
    `1 + integers(4)`, `choice` of the five shifts as `integers(5)`, and a
    shuffled `[0, ..., 4]` as `permutation(5)`.
    """
    tri = {t: (int(rng.choice((1, 2, 3, 4))), int(rng.choice(range(5))),
               int(rng.choice(range(5))))
           for t in _TRIPLES}
    perms = {}
    for leg in _LEGS:
        perm = list(range(5))
        rng.shuffle(perm)
        perms[tuple(sorted(leg.pair)), leg.apex] = tuple(perm)
    return Relabeling(tri, perms)


def _leg_labels(triple, apex, relabeling):
    """Leg component of each generator x_{lm} of a sorted triple's stalk,
    (l, m) in row-major order.

    The apex-k, apex-i and apex-j legs of (i, j, k) read x_{lm} through the
    functionals l, m and n = -l-m, i.e. (a, b) = (1, 0), (0, 1), (-1, -1)
    applied to the relabeled (unit*l + alpha, unit*m + beta).
    """
    i, j, k = triple
    a, b = {k: (1, 0), i: (0, 1), j: (-1, -1)}[apex]
    unit, alpha, beta = relabeling.triple_affine.get(triple, (1, 0, 0))
    return [(a * (unit * l + alpha) + b * (unit * m + beta)) % 5
            for l in range(5) for m in range(5)]


def _restriction(labels, rows, offset, sign):
    """Write sign times the restriction from a stalk to a leg stalk, between
    sum-zero coordinates, into the leg's 4 sparse rows, in place, at the
    stalk's column offset.

    Generator s goes to leg component labels[s].  Generator 0 is dropped
    (it is minus the sum of the rest), so column offset + s - 1 is
    e_{labels[s]} - e_{labels[0]} on components 1..4; row t - 1 holds
    component t as {column: entry}, nonzeros only.
    """
    zero = labels[0]
    for s, a in enumerate(labels[1:], offset):
        if a != zero:
            if a:
                rows[a - 1][s] = sign
            if zero:
                rows[zero - 1][s] = -sign


@dataclass
class CechComplex:
    """C^0 -> C^1 for the sheaf on the graph.

    The differential is held as its c1 sparse rows, {C^0 column: nonzero
    int}; its triplets are derived from them.
    """

    c0: int
    rows: list

    @property
    def c1(self):
        return len(self.rows)

    def cohomology_dims(self):
        r = ratkernel.rank(self.rows)
        return self.c0 - r, self.c1 - r

    def sparse_triplets(self):
        """(row, column, entry) of each nonzero, in row-major order."""
        return [(i, j, row[j]) for i, row in enumerate(self.rows) for j in sorted(row)]


def build_K3(relabeling=None):
    """Assemble the Cech complex of the kernel sheaf of the top direct image.

    The differential on a leg is (restriction from the pair barycenter)
    minus (restriction from the triple barycenter); legs are oriented from
    the triple to the pair end.  Its 120 sparse rows, four per leg, are
    written in one pass: the triple stalk's generators x_{lm} in row-major
    order with sign -1, then the pair stalk's through the relabeling's
    permutation with +1.  No relabeling keeps the canonical labels.
    """
    relabeling = relabeling or _IDENTITY
    t_dim, p_dim, _ = K3_STALKS
    tri_offset = {t: t_dim * i for i, t in enumerate(_TRIPLES)}
    pair_offset = {p: t_dim * len(_TRIPLES) + p_dim * i for i, p in enumerate(_PAIRS)}
    rows = []
    for leg in _LEGS:
        pair = tuple(sorted(leg.pair))
        triple = tuple(sorted(leg.pair | {leg.apex}))
        perm = relabeling.pair_leg_perms.get((pair, leg.apex), (0, 1, 2, 3, 4))
        leg_rows = [{}, {}, {}, {}]
        _restriction(_leg_labels(triple, leg.apex, relabeling), leg_rows,
                     tri_offset[triple], -1)
        _restriction(perm, leg_rows, pair_offset[pair], 1)
        rows += leg_rows
    return CechComplex(_cech_dims(K3_STALKS)[0], rows)


def K3_cohomology(relabeling=None):
    """(h0, h1) of the kernel sheaf by exact rank."""
    return build_K3(relabeling).cohomology_dims()


@dataclass(frozen=True)
class SurjectivityReport:
    rank_ambient: int
    rank_kernel_sheaf: int
    image_characterized: bool
    x00_pattern: tuple
    surjective: bool


def surjectivity_check_pijk():
    """Exact-rank verification of the triple-barycenter restriction map at P_123.

    The ambient map sends x_{lm} to (u_l, v_m, w_n); its image is exactly
    the triples of vectors with equal component sums (rank 13), and the
    kernel-sheaf restriction of the sum-zero part onto the three sum-zero
    leg stalks has rank 12, i.e. is surjective.
    """
    triple = (1, 2, 3)
    i, j, k = triple
    # the labels of the legs that read l, m and n
    labels = [_leg_labels(triple, apex, _IDENTITY) for apex in (k, i, j)]
    amb = [[0] * 25 for _ in range(15)]
    for r, leg_labels in enumerate(labels):
        for col, a in enumerate(leg_labels):
            amb[5 * r + a][col] = 1
    rank_amb = ratkernel.rank(amb)
    # the image must satisfy (sum of block a) == (sum of block b) == (sum of block c)
    functionals = ([1] * 5 + [-1] * 5 + [0] * 5, [0] * 5 + [1] * 5 + [-1] * 5)
    annihilates = all(sum(f * x for f, x in zip(functional, col)) == 0
                      for functional in functionals for col in zip(*amb))
    characterized = annihilates and rank_amb == 13
    # restricted map on sum-zero coordinates
    restricted = [{} for _ in range(12)]
    for r, leg_labels in enumerate(labels):
        _restriction(leg_labels, restricted[4 * r:4 * r + 4], 0, 1)
    rank_ker = ratkernel.rank(restricted)
    x00 = tuple(int(amb[5 * r + leg_labels[0]][0] == 1)
                for r, leg_labels in enumerate(labels))
    return SurjectivityReport(rank_amb, rank_ker, characterized,
                              x00, rank_ker == 12)


@dataclass(frozen=True)
class K2Report:
    """Dimension counting for the kernel sheaf of the middle direct image.

    The sheaf has 8-dimensional stalks at the ten triple barycenters, zero
    stalk at pair barycenters (stated input: its germ there has only the
    zero section) and 4-dimensional leg stalks.  Only counting enters: no
    restriction maps for it are on record.
    """

    c0: int
    c1: int
    chi: int
    h0: int
    h1: int
    h1_R2: int


def K2_dimension_count():
    c0, c1 = _cech_dims(K2_STALKS)
    chi = c0 - c1
    h0 = 0  # stated input, not derived here
    h1 = h0 - chi
    return K2Report(c0, c1, chi, h0, h1, h1_R2=h1 + 1)


@dataclass(frozen=True)
class E2Table:
    """4x4 grid of Betti numbers of the base with direct-image coefficients.

    entries[q][p] is the dimension in base-degree p and fiber-degree q.
    """

    entries: tuple

    def entry(self, p, q):
        return self.entries[q][p]

    def display_rows(self):
        """Rows printed top-down from fiber degree 3 to 0."""
        return tuple(self.entries[q] for q in (3, 2, 1, 0))

    def antidiagonal_sum(self, s):
        return sum(self.entries[q][p] for q in range(4) for p in range(4)
                   if p + q == s)

    def alternating_sum(self):
        return sum((-1) ** (p + q) * self.entries[q][p]
                   for q in range(4) for p in range(4))

    def centrally_symmetric(self):
        return all(self.entries[q][p] == self.entries[3 - q][3 - p]
                   for q in range(4) for p in range(4))


def assemble_E2(fibration):
    """The E2 table of the quintic or the mirror fibration.

    On the quintic side the top row is computed from the kernel-sheaf
    cohomology (h0 = 160 + 1 for the constant part, h3 = 1); the middle rows
    consume the dimension-count result (h1 = 41) and the intersection-chain
    inputs h1 = h2 = 1 for the first direct image.  On the mirror side both
    middle systems are the rank-3 local system with full monodromy, and the
    ends are constant.
    """
    if fibration == "mirror":
        return E2Table(((1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1)))
    if fibration != "quintic":
        raise ValueError(f"unknown fibration {fibration!r}")
    return quintic_E2(K3_cohomology())


def quintic_E2(k3_cohomology):
    """The quintic's E2 table from the (h0, h1) of the unrelabeled K3
    kernel sheaf, for a caller that holds them already."""
    h0_k3, h1_k3 = k3_cohomology
    return E2Table(((1, 0, 0, 1), (0, 1, 1, 0),
                    (0, K2_dimension_count().h1_R2, 1, 0),
                    (h0_k3 + 1, h1_k3, 0, 1)))


@dataclass(frozen=True)
class ICChainData:
    """Dimensions of the allowed intersection chains for the middle system.

    Coefficients live in the fiber-degree-one local system, i.e. the dual
    of the cycle system; invariant subspaces are simultaneous kernels of
    (T - I) on the dual side.
    """

    c0: int
    c1: int
    c2: int
    c3: int

    @property
    def chi(self):
        return self.c0 - self.c1 + self.c2 - self.c3

    def dims(self):
        return (self.c0, self.c1, self.c2, self.c3)


def ic_chain_dims(atlas):
    """Chain dimensions (30, 60, 60, 30) of the allowed complex, with the
    leg and vertex monodromies read from a `monodromy.atlas()`.

    0-simplices: the five main vertices and the five opposite-face
    barycenters, full rank-3 coefficients.  1-simplices: the twenty segments
    joining a main vertex to a non-opposite facet barycenter.  2-chains:
    one fan per leg with leg-invariant coefficients.  3-chains: one fan per
    graph vertex with coefficients invariant under its monodromy group.

    The coefficients are dual: T acts as T^{-T}, and T^{-T} - I =
    -T^{-T} (T^T - I), T^{-T} unimodular, has the row lattice of T^T - I,
    the columns of T - I, so the invariants of a family, the common kernel
    of its T^{-T} - I, have dimension 3 - `monodromy.vanishing_rank`.
    """
    c2 = sum(3 - monodromy.vanishing_rank([op]) for op in atlas.legs.values())
    c3 = sum(3 - monodromy.vanishing_rank(ops) for ops in atlas.vertices.values())
    return ICChainData(10 * 3, 20 * 3, c2, c3)


@dataclass(frozen=True)
class BoundaryResidue:
    vertex: str
    residue: tuple

    @property
    def vanishes(self):
        return all(x == 0 for x in self.residue)


def check_cycle_L():
    """Boundary residues of the generating 1-cycle of the allowed complex.

    The chain puts the coefficient gamma_j^i on the segment joining the main
    vertex P_i to the barycenter of the facet opposite P_j.  Every allowed
    0-simplex is treated alike: with v its index (i at P_i, j at the facet
    opposite P_j), the signed incident coefficients are expanded in the
    chart U_v^{min(others)} and summed.  The terms are gamma_j^i with sign
    -1 at P_i, where all four segments leave, and gamma_j^i with sign +1 at
    the facet opposite P_j, where all four arrive.

    At a facet barycenter the incident coefficients all share that facet's
    divisor base, so the reduction is honestly chart-local: the divisor
    lattice's sum relation kills the residue.  At a main vertex the four
    coefficients arrive through four different facets; expanding them in
    one chart amounts to antisymmetry (gamma_j^i = -gamma_i^j) followed by
    the sum relation of the lattice based at i.
    (The cancellation is confirmed by the winding model of the corner
    region: each arriving class is minus the corner frame plus five times
    one generator, and the four contributions cancel exactly.)
    """
    reports = []
    for sign in (-1, +1):
        for v in range(1, 6):
            others = sorted(INDEX_SET - {v})
            chart = monodromy.ChartId(v, others[0])
            if sign < 0:
                label = f"P_{v}"
                symbols = [monodromy.CycleSymbol(j, v) for j in others]
            else:
                label = "P_{%s}" % "".join(str(i) for i in others)
                symbols = [monodromy.CycleSymbol(v, i) for i in others]
            terms = zip(*(monodromy.expand(sym, chart) for sym in symbols))
            reports.append(BoundaryResidue(label, tuple(sign * sum(t) for t in terms)))
    return reports


def spectral_json(fibration):
    """Tables, component rows and derived checks, JSON-ready."""
    table = assemble_E2(fibration)
    return {
        "fibration": fibration,
        "table_rows_top_down": [list(r) for r in table.display_rows()],
        "component_h_numbers": {f"h_R{q}": list(table.entries[q]) for q in range(4)},
        "checks": {
            "middle_antidiagonal_sum": table.antidiagonal_sum(3),
            "alternating_sum": table.alternating_sum(),
            "centrally_symmetric": table.centrally_symmetric(),
        },
    }
