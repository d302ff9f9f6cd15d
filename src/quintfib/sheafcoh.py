"""Cech cohomology of the constructible sheaves on the base graph.

The direct-image sheaves of the torus fibration restrict to constructible
sheaves supported on the discriminant graph.  For the top one the kernel
sheaf K3 has stalks

    24-dimensional at each triple barycenter  (sum-zero part of Q^25),
    4-dimensional at each pair barycenter    (sum-zero part of Q^5),
    4-dimensional on each leg                (sum-zero part of Q^5),

and its Cech complex on the graph is C^0 (dim 280) -> C^1 (dim 120).  At a
triple barycenter with sorted indices (i, j, k), the generator x_{lm}
restricts to u_l on the apex-k leg, v_m on the apex-i leg and w_n on the
apex-j leg with n = -l-m (mod 5).  The pair-barycenter restriction is the
identity under canonical component labeling; cohomology is invariant under
every relabeling consistent with the index rule, which is what justifies
the convention (see `random_relabeling`).

Sum-zero stalks are coordinatized by dropping the 0-th component (it equals
minus the sum of the rest).  The differential on a leg is the restriction
from the pair end minus the restriction from the triple end.

The allowed intersection chains of the middle system take their
dimensions from the dual invariants of the leg and vertex monodromies, and
the boundary residues of their generating 1-cycle are sums of chart
expansions (`monodromy.expand`) of its incident coefficients.

Everything in this module is exact rational linear algebra.
"""

from dataclasses import dataclass

import numpy as np

from . import monodromy, ratkernel
from .basecomplex import INDEX_SET, enumerate_graph


# the graph is constant, so it is enumerated once
_VERTICES, _LEGS = map(tuple, enumerate_graph())
_TRIPLES = tuple(tuple(sorted(v.indices)) for v in _VERTICES if v.kind == "triple")
_PAIRS = tuple(tuple(sorted(v.indices)) for v in _VERTICES if v.kind == "pair")


def leg_roles(triple):
    """apex -> index-role map at a sorted triple (i, j, k).

    Role 'l' reads the first index of x_{lm}, role 'm' the second, role 'n'
    the antidiagonal class n = -l-m (mod 5).
    """
    i, j, k = triple
    return {k: "l", i: "m", j: "n"}


@dataclass(frozen=True)
class ConstructibleSheafSpec:
    """Stalk dimensions of a constructible sheaf on the graph strata.

    Only the kernel sheaf of the top direct image carries explicit
    restriction maps (`triple_restriction`, `pair_restriction`).
    """

    name: str
    edge_dim: int
    pair_dim: int
    triple_dim: int

    def c0(self):
        return len(_TRIPLES) * self.triple_dim + len(_PAIRS) * self.pair_dim

    def c1(self):
        return len(_LEGS) * self.edge_dim


K3_SPEC = ConstructibleSheafSpec("K3", edge_dim=4, pair_dim=4, triple_dim=24)
K2_SPEC = ConstructibleSheafSpec("K2", edge_dim=4, pair_dim=0, triple_dim=8)


@dataclass(frozen=True)
class Relabeling:
    """A consistent relabeling of the stalk generators.

    `triple_affine` maps a sorted triple to (unit, alpha, beta): indices
    transform as l -> unit*l + alpha, m -> unit*m + beta (mod 5), which
    forces n -> unit*n - alpha - beta, so the index rule is preserved.
    `pair_leg_perms` maps (sorted pair, apex) to a permutation of 0..4
    applied between the pair stalk components and the leg components.
    """

    triple_affine: dict
    pair_leg_perms: dict


def random_relabeling(rng):
    """A random relabeling consistent with the antidiagonal index rule."""
    tri = {}
    for t in _TRIPLES:
        unit = int(rng.choice([1, 2, 3, 4]))
        tri[t] = (unit, int(rng.integers(5)), int(rng.integers(5)))
    perms = {}
    for leg in _LEGS:
        pair = tuple(sorted(leg.pair))
        perms[(pair, leg.apex)] = tuple(int(x) for x in rng.permutation(5))
    return Relabeling(tri, perms)


def _triple_labels(triple, relabeling):
    """(l, m) -> ambient index functions for the three roles at a triple."""
    unit, alpha, beta = (1, 0, 0)
    if relabeling is not None and triple in relabeling.triple_affine:
        unit, alpha, beta = relabeling.triple_affine[triple]

    def lab(role, l, m):
        if role == "l":
            return (unit * l + alpha) % 5
        if role == "m":
            return (unit * m + beta) % 5
        n = (-l - m) % 5
        return (unit * n - alpha - beta) % 5

    return lab


def _sum_zero_columns(labels, zero_label):
    """Restriction between sum-zero coordinates: 4 x len(labels).

    Column s is e_{labels[s]} - e_{zero_label}, the image of generator s
    after the dropped 0-th generator's substitution, on components 1..4.
    """
    mat = ratkernel.zeros(4, len(labels))
    for s, a in enumerate(labels):
        for t in range(1, 5):
            v = (a == t) - (zero_label == t)
            if v:
                mat[t - 1, s] = v
    return mat


def triple_restriction(triple, apex, relabeling):
    """4x24 restriction matrix from a triple stalk to an incident leg stalk.

    Columns run over (l, m) != (0, 0) in row-major order; the implicit
    x_{00} = -(sum) substitution contributes the correction column-wise.
    """
    role = leg_roles(triple)[apex]
    lab = _triple_labels(triple, relabeling)
    labels = [lab(role, l, m) for l in range(5) for m in range(5) if (l, m) != (0, 0)]
    return _sum_zero_columns(labels, lab(role, 0, 0))


def pair_restriction(pair, apex, relabeling):
    """4x4 restriction matrix from a pair stalk to an incident leg stalk."""
    perm = tuple(range(5))
    if relabeling is not None and (pair, apex) in relabeling.pair_leg_perms:
        perm = relabeling.pair_leg_perms[(pair, apex)]
    return _sum_zero_columns(perm[1:], perm[0])


@dataclass
class CechComplex:
    """C^0 -> C^1 for the sheaf on the graph."""

    differential: np.ndarray

    @property
    def c0(self):
        return self.differential.shape[1]

    @property
    def c1(self):
        return self.differential.shape[0]

    def cohomology_dims(self):
        r = ratkernel.rank(self.differential)
        return self.c0 - r, self.c1 - r

    def sparse_triplets(self):
        out = []
        d = self.differential
        for i in range(d.shape[0]):
            for j in range(d.shape[1]):
                if d[i, j] != 0:
                    out.append((i, j, int(d[i, j])))
        return out


def build_K3(relabeling=None):
    """Assemble the Cech complex of the kernel sheaf of the top direct image.

    The differential on a leg is (restriction from the pair barycenter)
    minus (restriction from the triple barycenter); legs are oriented from
    the triple to the pair end.
    """
    t_dim, p_dim, e_dim = K3_SPEC.triple_dim, K3_SPEC.pair_dim, K3_SPEC.edge_dim
    tri_offset = {t: t_dim * i for i, t in enumerate(_TRIPLES)}
    pair_offset = {p: t_dim * len(_TRIPLES) + p_dim * i for i, p in enumerate(_PAIRS)}
    d = ratkernel.zeros(K3_SPEC.c1(), K3_SPEC.c0())
    for e_idx, leg in enumerate(_LEGS):
        pair = tuple(sorted(leg.pair))
        triple = tuple(sorted(leg.pair | {leg.apex}))
        r0, ct, cp = e_dim * e_idx, tri_offset[triple], pair_offset[pair]
        d[r0:r0 + e_dim, ct:ct + t_dim] = -triple_restriction(triple, leg.apex, relabeling)
        d[r0:r0 + e_dim, cp:cp + p_dim] = pair_restriction(pair, leg.apex, relabeling)
    return CechComplex(d)


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
    lab = _triple_labels(triple, None)
    i, j, k = triple
    roles = [("l", k), ("m", i), ("n", j)]
    amb = ratkernel.zeros(15, 25)
    col = 0
    for l in range(5):
        for m in range(5):
            for r_idx, (role, _) in enumerate(roles):
                amb[5 * r_idx + lab(role, l, m), col] = 1
            col += 1
    rank_amb = ratkernel.rank(amb)
    # the image must satisfy (sum of block a) == (sum of block b) == (sum of block c)
    functionals = ratkernel.zeros(2, 15)
    for t in range(5):
        functionals[0, t] = 1
        functionals[0, 5 + t] = -1
        functionals[1, 5 + t] = 1
        functionals[1, 10 + t] = -1
    annihilates = all((functionals @ amb)[r, c] == 0
                      for r in range(2) for c in range(25))
    characterized = annihilates and rank_amb == 13
    # restricted map on sum-zero coordinates
    blocks = [triple_restriction(triple, apex, None) for _, apex in roles]
    restricted = np.concatenate(blocks, axis=0)
    rank_ker = ratkernel.rank(restricted)
    x00 = tuple(int(amb[5 * r_idx + lab(role, 0, 0), 0] == 1)
                for r_idx, (role, _) in enumerate(roles))
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
    c0 = K2_SPEC.c0()
    c1 = K2_SPEC.c1()
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
    fibration: str

    def entry(self, p, q):
        return self.entries[q][p]

    def display_rows(self):
        """Rows printed top-down from fiber degree 3 to 0."""
        return tuple(tuple(self.entries[q]) for q in (3, 2, 1, 0))

    def antidiagonal_sum(self, s):
        return sum(self.entries[q][p] for q in range(4) for p in range(4)
                   if p + q == s)

    def alternating_sum(self):
        return sum((-1) ** (p + q) * self.entries[q][p]
                   for q in range(4) for p in range(4))

    def centrally_symmetric(self):
        return all(self.entries[q][p] == self.entries[3 - q][3 - p]
                   for q in range(4) for p in range(4))


def quintic_components():
    """Betti-number rows of the four direct-image sheaves on the quintic side.

    The top row is computed from the kernel-sheaf cohomology (h0 = 160 + 1
    for the constant part, h3 = 1); the middle rows consume the
    dimension-count result (h1 = 41) and the intersection-chain inputs
    h1 = h2 = 1 for the first direct image.
    """
    h0_k3, h1_k3 = K3_cohomology()
    k2 = K2_dimension_count()
    return {
        "h_R0": (1, 0, 0, 1),
        "h_R1": (0, 1, 1, 0),
        "h_R2": (0, k2.h1_R2, 1, 0),
        "h_R3": (h0_k3 + 1, h1_k3, 0, 1),
    }


def mirror_components():
    """Betti-number rows on the mirror side: both middle systems are the
    rank-3 local system with full monodromy, the ends are constant."""
    return {
        "h_R0": (1, 0, 0, 1),
        "h_R1": (0, 1, 1, 0),
        "h_R2": (0, 1, 1, 0),
        "h_R3": (1, 0, 0, 1),
    }


def assemble_E2(fibration):
    """Assemble an E2 table from its per-sheaf Betti rows."""
    if fibration not in ("quintic", "mirror"):
        raise ValueError(f"unknown fibration {fibration!r}")
    components = quintic_components() if fibration == "quintic" \
        else mirror_components()
    entries = tuple(tuple(components[f"h_R{q}"]) for q in range(4))
    return E2Table(entries, fibration)


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


def ic_chain_dims():
    """Chain dimensions (30, 60, 60, 30) of the allowed complex.

    0-simplices: the five main vertices and the five opposite-face
    barycenters, full rank-3 coefficients.  1-simplices: the twenty segments
    joining a main vertex to a non-opposite facet barycenter.  2-chains:
    one fan per leg with leg-invariant coefficients.  3-chains: one fan per
    graph vertex with coefficients invariant under its monodromy group.
    """
    c2 = sum(len(monodromy.dual_invariants([monodromy.leg_monodromy(leg)]))
             for leg in _LEGS)
    c3 = sum(len(monodromy.dual_invariants(monodromy.vertex_monodromies(v)))
             for v in _VERTICES)
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
            residue = sum(sign * monodromy.expand(sym, chart) for sym in symbols)
            reports.append(BoundaryResidue(label, tuple(int(x) for x in residue)))
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
