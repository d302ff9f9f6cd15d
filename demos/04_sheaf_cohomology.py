"""Cech cohomology of the kernel sheaves and the two spectral tables.

The kernel sheaf of the top direct image lives on the discriminant graph
with stalks 24 / 4 / 4 on triple barycenters, pair barycenters and legs.
Its 280 -> 120 differential has full rank, so 160 global sections and no
first cohomology; the middle kernel sheaf is handled by dimension count.
Together with the intersection-chain inputs these assemble the two
spectral tables, whose alternating sums reproduce the Euler numbers.
"""

import numpy as np

from quintfib import monodromy, ratkernel, sheafcoh

cx = sheafcoh.build_K3()
h0, h1 = cx.cohomology_dims()
print(f"kernel sheaf of the top direct image: C0 = {cx.c0}, C1 = {cx.c1}")
print(f"  rank of the differential = {ratkernel.rank(cx.rows)}")
print(f"  h0 = {h0}, h1 = {h1}")

rep = sheafcoh.surjectivity_check_pijk()
print(f"\ntriple-barycenter restriction: ambient rank {rep.rank_ambient} "
      f"(image = equal component sums), sum-zero rank {rep.rank_kernel_sheaf}, "
      f"surjective: {rep.surjective}")

rng = np.random.default_rng(1)
rel = sheafcoh.random_relabeling(rng)
print(f"  cohomology after a random consistent relabeling: "
      f"{sheafcoh.K3_cohomology(rel)}")

k2 = sheafcoh.K2_dimension_count()
print(f"\nmiddle kernel sheaf: c0 = {k2.c0}, c1 = {k2.c1}, chi = {k2.chi}, "
      f"h1 = {k2.h1}; middle direct image h1 = {k2.h1_R2}")

ic = sheafcoh.ic_chain_dims(monodromy.atlas())
print(f"\nallowed chain dims {ic.dims()}, chi = {ic.chi}")
print("boundary residues of the generating 1-cycle:")
for r in sheafcoh.check_cycle_L()[:3]:
    print(f"  {r.vertex}: residue {r.residue}")
print("  ... (all ten vanish)")

for fibration in ("quintic", "mirror"):
    t = sheafcoh.assemble_E2(fibration)
    print(f"\n{fibration} table (fiber degree high to low):")
    for row in t.display_rows():
        print("   " + "  ".join(f"{x:>4d}" for x in row))
    print(f"  middle sum {t.antidiagonal_sum(3)}, "
          f"alternating sum {t.alternating_sum()}")
