"""The full verification suite: every headline number as a machine check.

Each check computes a quantity through the library modules and compares it
with its frozen expected value; `verify_all` runs the whole battery and
returns a report that renders as a table or as byte-stable JSON (timings
excluded from the stability contract).

Checks are tagged `symbolic` (exact integer/rational results) or `numeric`
(flow, pairings, root counting), and either tag can be skipped wholesale.
The symbolic checks share one `ExactData` per run: the chart atlas of
`monodromy.atlas()`, the sizes and ranks of the unrelabeled K3 Cech
complex, and the ranks of its ten triple blocks.

The numeric checks import numpy and the flow layer when they run, so a run
that skips them loads neither; the symbolic checks run on Python ints, and
c12 draws its saturation lattices from a seeded `random.Random`.
"""

import random
import time
from math import isfinite
import warnings
from dataclasses import dataclass
from typing import NamedTuple

from . import basecomplex, fibercensus, monodromy, ratkernel, sheafcoh, toriccrepant
from .basecomplex import GraphEdge, GraphVertex
from .monodromy import ChartId

SCHEMA_VERSION = 2


@dataclass(frozen=True)
class VerifyConfig:
    seed: int
    psi: float = 10.0
    samples: int = 100
    skip: str = ""  # '', 'numeric' or 'symbolic'

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"the sample count must be at least 1, got {self.samples}")
        if self.seed < 0:
            raise ValueError(f"the seed must not be negative, got {self.seed}")
        if self.skip not in ("", "numeric", "symbolic"):
            raise ValueError(f"skip must be '', 'numeric' or 'symbolic', got {self.skip!r}")
        if not (isfinite(self.psi) and self.psi != 0):
            raise ValueError(f"psi must be finite and nonzero, got {self.psi}")
        if self.psi == 1 and self.skip != "numeric":
            # the one real psi with psi^5 = 1; its member has 125 nodes,
            # which no numeric check can see
            raise ValueError(f"psi = {self.psi} is the conifold psi^5 = 1, where the "
                             "quintic is singular; the numeric checks need a smooth "
                             "member, so skip them ('numeric')")

    def as_dict(self):
        return {"psi": self.psi, "samples": self.samples, "seed": self.seed,
                "skip": self.skip}


@dataclass
class CheckResult:
    check_id: str
    criterion: int
    kind: str
    label: str
    expected: str
    computed: str
    status: str
    detail: str
    runtime_s: float


@dataclass
class VerificationReport:
    config: VerifyConfig
    checks: list

    @property
    def passed(self):
        return all(c.status in ("pass", "skipped") for c in self.checks)

    def as_dict(self):
        out = {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.as_dict(),
            "passed": self.passed,
            "checks": [],
        }
        for c in self.checks:
            out["checks"].append({
                "id": c.check_id,
                "criterion": c.criterion,
                "kind": c.kind,
                "label": c.label,
                "expected": c.expected,
                "computed": c.computed,
                "status": c.status,
                "detail": c.detail,
                "runtime_s": round(c.runtime_s, 4),
            })
        return out

    def render_table(self):
        lines = []
        width = max(len(c.label) for c in self.checks) + 2
        for c in self.checks:
            mark = {"pass": "PASS", "fail": "FAIL", "skipped": "skip"}[c.status]
            lines.append(f"[{mark}] {c.label:<{width}} expected {c.expected}"
                         f"  computed {c.computed}  ({c.runtime_s:.2f}s)")
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


class ExactData(NamedTuple):  # not a dataclass, for its import cost (see Atlas)
    """The exact data that the symbolic checks share: the chart atlas (the
    legal transitions and the leg and vertex operators), the (c0, c1) and
    (h0, h1) of the unrelabeled K3 Cech complex, and {sorted triple: rank}
    of its ten triple blocks (`sheafcoh.triple_blocks`).  The complex
    itself is not kept: the run holds this through the numeric checks."""

    atlas: monodromy.Atlas
    k3_chains: tuple
    k3_cohomology: tuple
    k3_block_ranks: dict


def exact_data():
    """One run's `ExactData`: the atlas, and the K3 complex built and
    ranked once, whole and by triple block."""
    k3 = sheafcoh.build_K3()
    blocks = sheafcoh.triple_blocks(k3.rows)
    return ExactData(monodromy.atlas(), (k3.c0, k3.c1), k3.cohomology_dims(),
                     {t: ratkernel.rank(b) for t, b in blocks.items()})


# golden matrices of the transition/monodromy battery, as rows
GOLDEN_STEPS = [
    ((5, 4), (5, 2), ((1, -1, 0), (0, -1, 1), (0, -1, 0))),
    ((5, 2), (1, 2), ((0, 1, 0), (0, 0, 1), (-1, -1, -1))),
    ((1, 2), (1, 4), ((0, -1, 0), (1, -1, 0), (0, -1, 1))),
    ((1, 4), (5, 4), ((-1, -1, -1), (1, 0, 0), (0, 1, 0))),
]
GOLDEN_LEG_LOOP = ((1, -5, 0), (0, 1, 0), (0, 0, 1))
GOLDEN_LEG_LOOP_REV = ((1, 5, 0), (0, 1, 0), (0, 0, 1))
GOLDEN_TRIPLE_VERTEX = {
    2: ((1, 0, 5), (0, 1, 0), (0, 0, 1)),     # pair {3,4}
    3: ((1, -5, 0), (0, 1, 0), (0, 0, 1)),    # pair {2,4}
    4: ((1, 5, -5), (0, 1, 0), (0, 0, 1)),    # pair {2,3}
}
GOLDEN_PAIR_VERTEX = {
    1: ((1, 0, 0), (0, 1, 0), (0, 5, 1)),
    3: ((1, -5, 0), (0, 1, 0), (0, 0, 1)),
    5: ((1, 5, 0), (0, 1, 0), (0, -5, 1)),
}
GOLDEN_E2_QUINTIC = ((161, 0, 0, 1), (0, 41, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1))
GOLDEN_E2_MIRROR = ((1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1))


def check_monodromy_goldens(cfg, exact):
    atlas = exact.atlas
    ok = True
    for a, b, golden in GOLDEN_STEPS:
        ok &= atlas.transitions[ChartId(*a), ChartId(*b)] == golden
    leg = GraphEdge(frozenset({2, 4}), 3)
    bp = ChartId(5, 4)
    fwd = atlas.leg_monodromy(leg, bp, 1)
    rev = atlas.leg_monodromy(leg, bp, -1)
    ok &= fwd.matrix == GOLDEN_LEG_LOOP
    ok &= rev.matrix == GOLDEN_LEG_LOOP_REV
    for indices, goldens in (({2, 3, 4}, GOLDEN_TRIPLE_VERTEX),
                             ({2, 4}, GOLDEN_PAIR_VERTEX)):
        vertex = GraphVertex(frozenset(indices))
        # a vertex holds one operator per leg, in edges_at order
        for leg, op in zip(basecomplex.edges_at(vertex), atlas.vertices[vertex]):
            ok &= op.matrix == goldens[leg.apex]
    return ("all golden matrices", "match" if ok else "mismatch", ok, "")


def check_vertex_battery(cfg, exact):
    mul = ratkernel.matmul3
    detail = []
    for v, ops in exact.atlas.vertices.items():
        for a in ops:
            for b in ops:
                if mul(a.matrix, b.matrix) != mul(b.matrix, a.matrix):
                    detail.append(f"{v}: noncommuting")
        prod = monodromy.IDENTITY
        for op in ops:
            prod = mul(op.matrix, prod)
        if prod != monodromy.IDENTITY:
            detail.append(f"{v}: product != Id")
        want = 1 if v.kind == "triple" else 2
        got = monodromy.vanishing_rank(ops)
        if got != want:
            detail.append(f"{v}: W0 rank {got} != {want}")
    return ("20 commuting triples, product=Id, W0 ranks 1/2",
            "violated" if detail else "verified", not detail, "; ".join(detail))


def check_euler_ledgers(cfg, exact):
    exp = fibercensus.euler_ledger("expected")
    mir = fibercensus.euler_ledger("mirror")
    g = fibercensus.singular_surface((1, 2, 3)).genus
    gq = fibercensus.singular_surface((1, 2, 3), quotient=True).genus
    got = (exp, mir, g, gq)
    return ("(-200, 0, 6, 0)", got, got == (-200, 0, 6, 0), "")


def check_sheaf_cohomology(cfg, exact):
    c0, c1 = exact.k3_chains
    h0, h1 = exact.k3_cohomology
    k2 = sheafcoh.K2_dimension_count()
    ic = sheafcoh.ic_chain_dims(exact.atlas)
    residues_ok = all(r.vanishes for r in sheafcoh.check_cycle_L())
    got = (c0, c1, h0, h1, k2.c0, k2.c1, k2.chi, k2.h1_R2,
           ic.dims(), ic.chi, residues_ok)
    want = (280, 120, 160, 0, 80, 120, -40, 41, (30, 60, 60, 30), 0, True)
    return (want, got, got == want, "")


def check_e2_tables(cfg, exact):
    q = sheafcoh.quintic_E2(exact.k3_cohomology)
    m = sheafcoh.assemble_E2("mirror")
    got = (q.display_rows(), m.display_rows(), q.antidiagonal_sum(3),
           m.antidiagonal_sum(3), q.alternating_sum(), m.alternating_sum())
    want = (GOLDEN_E2_QUINTIC, GOLDEN_E2_MIRROR, 204, 4, -200, 0)
    return (want, got, got == want, "")


def check_toric(cfg, exact):
    pts = toriccrepant.enumerate_crepant_rays()
    cl = toriccrepant.classify_rays()
    cones = toriccrepant.triangulate_dilated_triangle()
    dc = toriccrepant.divisor_census()
    hodge = toriccrepant.mirror_hodge_summary()
    chi = toriccrepant.mirror_euler_number()
    got = (len(pts), len(cl["edge"]) // 3, len(cl["interior"]),
           all(toriccrepant.crepancy_check(p.coords) for p in pts),
           all(c.is_unimodular() for c in cones),
           dc.total, hodge, chi, chi + fibercensus.euler_ledger("expected"))
    want = (21, 4, 6, True, True, 100, (1, 0, 101, 4, 101, 0, 1), 200, 0)
    return (want, got, got == want, "")


def check_flow_conservation(cfg):
    import numpy as np
    from . import flowlab
    from .flowlab.points import _x_infinity_rows
    rng = np.random.default_rng(cfg.seed)
    fcfg = flowlab.FlowConfig(psi=cfg.psi, tol=1e-10)
    starts, _ = _x_infinity_rows(rng, cfg.samples)
    ends, diag = flowlab.flow_batch(starts, fcfg.flow_target_time, fcfg)
    reached = diag.reason == "reached_target"
    guarded = int(np.count_nonzero(~reached))
    im_max = float(np.max(diag.im_s_drift[reached], initial=0.0))
    f_max = float(np.max(diag.f_drift[reached], initial=0.0))
    dist_max = float(np.max(flowlab.distances_to_quintic(ends[reached], cfg.psi),
                            initial=0.0))
    ok = im_max < 1e-8 and f_max < 1e-8 and dist_max < 1e-6 and guarded == 0
    return ("drifts < 1e-8, endpoint < 1e-6",
            f"im {im_max:.1e}, f {f_max:.1e}, dist {dist_max:.1e}, guarded {guarded}",
            ok, "")


def check_gradient_forms(cfg):
    """The row kernels of V and ds against the closed form of V on the x4 = 0
    slice and against central differences of s, ten chart-5 rows each."""
    import numpy as np
    from . import flowlab
    from .flowlab.gradient import _field_rows
    from .flowlab.points import _s_gradient_rows
    rng = np.random.default_rng(cfg.seed + 1)

    def rows(n):  # moduli in [0.7, 1.3] and uniform phases
        u = rng.uniform((0.7, 0.0), (1.3, 2 * np.pi), (10, n, 2))
        return u[..., 0] * np.exp(1j * u[..., 1])

    slice_rows = np.concatenate([rows(3), np.zeros((10, 1))], axis=1)
    v = _field_rows(slice_rows, flowlab.FlowConfig())[0]
    closed_max = float(np.max(np.abs(v - flowlab.closed_form_V_D4(slice_rows))))
    x = rows(4)
    g = _s_gradient_rows(x)[0].conj()
    g_fd = flowlab.finite_difference_gradient(x)
    fd_max = float(np.max(np.max(np.abs(g - g_fd), axis=1) / np.max(np.abs(g), axis=1)))
    ok = closed_max < 1e-10 and fd_max < 1e-6
    return ("closed form < 1e-10, fd < 1e-6",
            f"closed {closed_max:.1e}, fd {fd_max:.1e}", ok, "")


def check_pairing_matrix(cfg):
    from . import flowlab
    detail = []
    loops = [(i, j, k) for (i, j) in ((1, 2), (5, 4))
             for k in sorted(set(range(1, 6)) - {i, j})]
    forms = [[(l, j) for l in sorted(set(range(1, 6)) - {j})] for _, j, _ in loops]
    for (i, j, k), results in zip(loops, flowlab.loop_pairings(loops, forms, cfg.psi)):
        for res in results:
            l = res.form[0]
            want = -1 if l == i else (1 if l == k else 0)
            if res.value != want or res.residue >= 1e-6:
                detail.append(
                    f"<gamma_{i}{j}^{k}, alpha_{l}{j}> = {res.value}"
                    f" (want {want}, residue {res.residue:.1e})")
    return ("delta_kl with a -1 column, residues < 1e-6",
            "violated" if detail else "verified", not detail, "; ".join(detail))


def covering_sample_points(seed):
    """c10's sample points: 20 seeded fattened-interior points and 5 edge points.

    Each round draws as many candidate pairs (r1, r2) in [0.7, 1.6]^2 as
    interior points are missing, in one block, and keeps the Interior2 ones
    in draw order.  A block holds the values that one pair per draw would
    read, so the points are those of a pair-at-a-time sampler.
    """
    import numpy as np
    rng = np.random.default_rng(seed + 2)
    interior = []
    while len(interior) < 20:
        pairs = rng.uniform(0.7, 1.6, size=(20 - len(interior), 2)).tolist()
        interior += [(r1, r2) for r1, r2 in pairs if basecomplex.classify_fattened(
            r1, r2) == basecomplex.FattenedStratum.INTERIOR2]
    edge = []
    for r1 in np.linspace(0.75, 0.97, 3):
        edge.append((r1, (1.0 - r1 ** 5) ** 0.2))        # r1^5 + r2^5 = 1
    for r2 in (1.05, 1.12):
        edge.append(((r2 ** 5 - 1.0) ** 0.2, r2))        # r1^5 + 1 = r2^5
    return interior, edge


def check_covering_counts(cfg):
    from . import flowlab
    detail = []
    interior, edge = covering_sample_points(cfg.seed)
    vertices = [(1.0, 0.0), (0.0, 1.0)]
    counts = [flowlab.covering_count(r1, r2, tol=tol)
              for r1, r2 in interior + edge + vertices for tol in (1e-9, 5e-10)]
    wants = [50] * len(interior) + [25] * len(edge) + [5] * len(vertices)
    for (r1, r2), n1, n2, want in zip(interior + edge + vertices, counts[::2],
                                      counts[1::2], wants):
        if n1 != want or n2 != want:
            detail.append(f"({r1:.3f},{r2:.3f}): {n1}/{n2} want {want}")
    return ("50/25/5 stable under tol halving",
            "violated" if detail else "verified", not detail, "; ".join(detail))


def check_harvey_lawson(cfg):
    from . import flowlab
    res = flowlab.hl_fiber_probe((0, 1, 1), n_samples=64, seed=cfg.seed)
    origin = flowlab.hl_fiber_probe((0, 0, 0), n_samples=max(100, cfg.samples),
                                    seed=cfg.seed)
    ok = (res.slag_defect < 1e-6
          and origin.classification[0] == "singular"
          and origin.axis_ranks == (1, 1, 1)
          and len(origin.generic_ranks) >= 100
          and all(r == 3 for r in origin.generic_ranks))
    return ("defect < 1e-6; origin fiber: axis rank drop only",
            f"defect {res.slag_defect:.1e}, axis {origin.axis_ranks}, "
            f"generic all rank 3: {all(r == 3 for r in origin.generic_ranks)}",
            ok, "")


def check_property_suite(cfg, exact):
    detail = []
    # transition determinants +-1 over every legal ordered chart pair
    for (a, b), t in exact.atlas.transitions.items():
        d = ratkernel.det(t)
        if abs(d) != 1:
            detail.append(f"det {a}->{b} = {d}")
    # every leg is the standard shear in its oriented frame
    for leg, op in exact.atlas.legs.items():
        m = monodromy.in_basis(op, monodromy.standard_shear_basis(
            leg, op.basepoint.divisor))
        if m != GOLDEN_LEG_LOOP:
            detail.append(f"{leg}: nonstandard shear")
    # K3 cohomology is relabeling invariant: pair-leg permutations miss the
    # ten triple blocks and an affine relabeling maps a block's columns
    # unimodularly, so ten of rank 12 give rank 120 = c1 under every one
    for triple, r in exact.k3_block_ranks.items():
        if r != 12:
            detail.append(f"K3 block of triple {triple} has rank {r} != 12")
    # central symmetry: pointwise for the mirror table; the quintic page is
    # genuinely asymmetric (161 against 1), its abutted Betti numbers are
    # what satisfy the palindrome
    q = sheafcoh.quintic_E2(exact.k3_cohomology)
    m = sheafcoh.assemble_E2("mirror")
    if not m.centrally_symmetric():
        detail.append("mirror table asymmetric")
    betti = [sum(q.entry(p, k - p) for p in range(4) if 0 <= k - p <= 3)
             for k in range(7)]
    if betti != betti[::-1]:
        detail.append(f"quintic abutted Betti not palindromic: {betti}")
    # saturation is idempotent and primitive on random lattices
    rng = random.Random(cfg.seed + 3)
    for _ in range(20):
        vecs = [[rng.randint(-9, 9) for _ in range(4)]
                for _ in range(rng.randint(1, 3))]
        sat = ratkernel.saturate(vecs)
        again = ratkernel.saturate([list(v) for v in sat])
        if [list(v) for v in sat] != [list(v) for v in again]:
            detail.append("saturation not idempotent")
        if not all(ratkernel.is_primitive(v) for v in sat):
            detail.append("saturation output not primitive")
    return ("determinants, shears, relabelings, symmetry, saturation",
            "violated" if detail else "verified", not detail, "; ".join(detail))


CHECKS = [
    ("c01-monodromy-goldens", 1, "symbolic",
     "transition and monodromy golden matrices", check_monodromy_goldens),
    ("c02-vertex-battery", 2, "symbolic",
     "vertex triples: commute, product Id, W0 ranks", check_vertex_battery),
    ("c03-euler-ledgers", 3, "symbolic",
     "Euler ledgers and singular-surface genera", check_euler_ledgers),
    ("c04-sheaf-cohomology", 4, "symbolic",
     "kernel-sheaf cohomology and chain dims", check_sheaf_cohomology),
    ("c05-e2-tables", 5, "symbolic",
     "spectral tables with antidiagonal/alternating sums", check_e2_tables),
    ("c06-toric", 6, "symbolic",
     "crepant rays, triangulation, divisors, Hodge vector", check_toric),
    ("c07-flow-conservation", 7, "numeric",
     "flow drifts and endpoint residence", check_flow_conservation),
    ("c08-gradient-forms", 8, "numeric",
     "closed-form field and finite-difference gradient", check_gradient_forms),
    ("c09-pairing-matrix", 9, "numeric",
     "loop/form pairing matrix in two charts", check_pairing_matrix),
    ("c10-covering-counts", 10, "numeric",
     "covering counts over fattened strata", check_covering_counts),
    ("c11-harvey-lawson", 11, "numeric",
     "special-Lagrangian probe and rank-drop locus", check_harvey_lawson),
    ("c12-property-suite", 12, "symbolic",
     "determinant/shear/relabeling/symmetry/saturation sweep",
     check_property_suite),
]


def verify_all(config):
    """Run every acceptance check; failures are recorded, never raised.

    A numeric check is called as fn(config), a symbolic one as
    fn(config, exact) with the run's `ExactData`, which the first symbolic
    check to run builds within its own timing and failure handling; a run
    without symbolic checks builds none.
    """
    checks = []
    exact = None
    for check_id, criterion, kind, label, fn in CHECKS:
        if config.skip and kind == config.skip:
            checks.append(CheckResult(
                check_id, criterion, kind, label, "-", "-", "skipped",
                f"skipped by config ({config.skip})", 0.0))
            continue
        t0 = time.perf_counter()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                if kind == "numeric":
                    expected, computed, ok, detail = fn(config)
                else:
                    if exact is None:
                        exact = exact_data()
                    expected, computed, ok, detail = fn(config, exact)
        except Exception as err:  # a crash is a failure, not an abort
            expected, computed, ok, detail = "-", "-", False, f"error: {err!r}"
        dt = time.perf_counter() - t0
        status = "pass" if ok else "fail"
        if not ok and not detail:
            detail = f"expected {expected}, got {computed}"
        checks.append(CheckResult(
            check_id, criterion, kind, label, str(expected), str(computed),
            status, detail, dt))
    return VerificationReport(config, checks)
