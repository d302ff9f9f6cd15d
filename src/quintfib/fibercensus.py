"""Catalog of singular fibers and Euler-characteristic bookkeeping.

Three fibrations are cataloged over the boundary 3-sphere of the simplex:

- `constructed`: the fibration produced by the gradient flow, whose singular
  locus is the fattened discriminant (codimension 1 in the base);
- `expected`: the fibration with singular locus the graph Gamma, with
  Kodaira-type fibers I5 over legs, II_{5x5} over triple barycenters and
  III_5 over pair barycenters;
- `mirror`: the quotient of the expected fibration by the Z_5^3 symmetry
  group, with fiber types I, II, III; its census is derived, each expected
  row's fiber mapped through `quotient_fiber`.

Euler numbers are cataloged values and, where an honest collapse model is
available, independently recomputed; disagreements are flagged rather than
silently resolved.  For the two mirror point-fiber types the collapse
accounting of the described models lands on the swapped pair of signs;
both assignments give the same fiberwise total, and the catalog keeps the
stated ones with the flag raised.
"""

from dataclasses import dataclass, replace
from typing import Optional

from .basecomplex import enumerate_graph


@dataclass(frozen=True)
class FiberType:
    """Topological type of a fiber, with its Euler number where stated.

    `euler` is the cataloged value (None when no value is stated);
    `euler_recomputed` is the collapse-accounting value where a model
    exists; `flagged` marks a disagreement between the two.
    """

    name: str
    euler: Optional[int]
    singular_set: str
    euler_recomputed: Optional[int]
    collapse_count: Optional[int] = None

    @property
    def flagged(self):
        return (self.euler is not None and self.euler_recomputed is not None
                and self.euler != self.euler_recomputed)


# Collapse accounting: a compact fiber obtained from a product-of-circles
# model by collapsing k disjoint circles (or tori) to points gains +k; a
# necklace of k two-ended collapsed cylinders has chi = 2k - k = k; a graph
# collapse contributes chi of the graph.
FIBER_TYPES = {
    "Smooth": FiberType("Smooth", 0, "none", euler_recomputed=0),
    # constructed fibration over the fattened-discriminant strata
    "GradI50": FiberType("GradI50", None,
                         "50 circles collapsed to 50 singular points",
                         collapse_count=50, euler_recomputed=50),
    "GradI25": FiberType("GradI25", None,
                         "25 circles collapsed to 25 singular points",
                         collapse_count=25, euler_recomputed=25),
    "GradII5": FiberType("GradII5", None,
                         "5 two-tori collapsed to 5 singular points",
                         collapse_count=5, euler_recomputed=5),
    # expected fibration over the graph
    "I5": FiberType("I5", 0, "5 circles", collapse_count=5,
                    euler_recomputed=0),
    "II5x5": FiberType("II5x5", -25, "graph with 25 collapsed-circle vertices",
                       collapse_count=25, euler_recomputed=-25),
    "III5": FiberType("III5", 5, "5 points", collapse_count=5,
                      euler_recomputed=5),
    # mirror quotient fibration
    "I": FiberType("I", 0, "1 circle", collapse_count=1, euler_recomputed=0),
    "II": FiberType("II", 1, "pair-of-pants contractor graph",
                    collapse_count=1, euler_recomputed=-1),
    "III": FiberType("III", -1, "1 point", collapse_count=1,
                     euler_recomputed=1),
}

FIBRATIONS = ("constructed", "expected", "mirror")


@dataclass(frozen=True)
class CensusRow:
    """One stratum class of the base with its fiber type and multiplicity."""

    stratum: str
    fiber: FiberType
    count: int
    dimension: int
    note: str = ""


def census(fibration):
    """Census rows of the chosen fibration, one per stratum class."""
    if fibration not in FIBRATIONS:
        raise ValueError(f"unknown fibration {fibration!r}; "
                         f"expected one of {FIBRATIONS}")
    t = FIBER_TYPES
    if fibration == "constructed":
        return [
            CensusRow("complement of the fattened discriminant", t["Smooth"],
                      1, 3, "smooth 3-torus fibers"),
            CensusRow("fattened-discriminant interior (per component)",
                      t["GradI50"], 10, 2,
                      "50-sheet covering of the singular surface"),
            CensusRow("fattened-discriminant boundary curves (per component)",
                      t["GradI25"], 10, 1,
                      "fiber torus meets the singular surface at 25 points"),
            CensusRow("fattened-discriminant vertex points", t["GradII5"],
                      20, 0, "two per component; circle fiber meets the "
                             "singular surface at 5 points"),
        ]
    if fibration == "mirror":
        return [row if row.fiber.name == "Smooth"
                else replace(row, fiber=quotient_fiber(row.fiber))
                for row in census("expected")]
    vertices, edges = enumerate_graph()
    pairs = sum(1 for v in vertices if v.kind == "pair")
    triples = sum(1 for v in vertices if v.kind == "triple")
    return [
        CensusRow("complement of the graph", t["Smooth"], 1, 3),
        CensusRow("legs", t["I5"], len(edges), 1),
        CensusRow("triple barycenters", t["II5x5"], triples, 0),
        CensusRow("pair barycenters", t["III5"], pairs, 0),
    ]


def euler_ledger_from_rows(rows):
    """Sum of count x fiber Euler number over Euler-contributing strata.

    Positive-dimensional strata with product-type fibers contribute zero and
    are skipped; a stratum whose fiber has no cataloged Euler number makes
    the ledger undefined.
    """
    total = 0
    breakdown = []
    for row in rows:
        if row.dimension > 0:
            breakdown.append((row.stratum, row.count, row.fiber.name, 0))
            continue
        if row.fiber.euler is None:
            raise ValueError(
                f"no Euler number is cataloged for fiber type {row.fiber.name}; "
                "the ledger of this fibration is descriptive only")
        contrib = row.count * row.fiber.euler
        breakdown.append((row.stratum, row.count, row.fiber.name, contrib))
        total += contrib
    return total, breakdown


def euler_ledger(fibration):
    """Total Euler number of the fibered space from the fiberwise ledger."""
    return euler_ledger_from_rows(census(fibration))[0]


@dataclass(frozen=True)
class SingularSurface:
    """An irreducible component of the singular-point surface."""

    label: str
    euler: int
    genus: int

    def __post_init__(self):
        if self.euler != 2 - 2 * self.genus:
            raise ValueError("Euler number and genus are inconsistent")


def genus_from_euler(chi):
    if chi % 2 != 0 or chi > 2:
        raise ValueError(f"no closed orientable surface has chi = {chi}")
    return (2 - chi) // 2


def singular_surface(indices, quotient=False):
    """The singular surface component over a triple of indices.

    Its Euler number is assembled from the expected census: the three
    pair-barycenter fibers contribute 5 points each, the central fiber is
    the collapsed graph (chi = -25), and the leg parts are open cylinders
    contributing zero.  That gives chi = -10, genus 6.

    The residual order-5 symmetry acting on the component fixes the five
    points where one of the three surviving coordinates vanishes, so the
    quotient is computed by the ramified 5-fold cover count
    chi - 5 = 5 (chi_quotient - 5), giving a rational curve (genus 0,
    chi = 2).  Naive division of chi by 5 would contradict the genus.
    """
    idx = frozenset(indices)
    if len(idx) != 3 or not idx <= {1, 2, 3, 4, 5}:
        raise ValueError("a singular surface is labeled by a triple of indices")
    chi = 3 * FIBER_TYPES["III5"].collapse_count + FIBER_TYPES["II5x5"].euler
    name = "Sigma_{%s}" % "".join(str(i) for i in sorted(idx))
    if quotient:
        ramified = 5
        chi = (chi - ramified) // 5 + ramified
        name = name + "/Z5"
    return SingularSurface(name, chi, genus_from_euler(chi))


QUOTIENT_MAP = {"I5": "I", "II5x5": "II", "III5": "III"}


def quotient_fiber(fiber_type):
    """Image of an expected-fibration fiber type under the symmetry quotient.

    The group is the fiberwise Z_5^3 symmetry; each factor acts along a
    cycle direction, so I5 -> I, II_{5x5} -> II and III_5 -> III with the
    cataloged Euler numbers 0, +1, -1.
    """
    name = fiber_type.name if isinstance(fiber_type, FiberType) else str(fiber_type)
    if name not in QUOTIENT_MAP:
        raise ValueError(f"no quotient rule for fiber type {name!r}")
    return FIBER_TYPES[QUOTIENT_MAP[name]]


def census_json(fibration):
    rows = census(fibration)
    return {
        "fibration": fibration,
        "rows": [{
            "stratum": r.stratum,
            "fiber": r.fiber.name,
            "euler": r.fiber.euler,
            "count": r.count,
            "dimension": r.dimension,
            "singular_set": r.fiber.singular_set,
            "note": r.note,
        } for r in rows],
    }
