"""Singular fiber censuses and the fiberwise Euler ledgers.

Three fibrations over the boundary 3-sphere: the constructed one (singular
over the fattened discriminant), the expected one (singular over the
graph), and the quotient fibration of the mirror.  Only point strata carry
Euler weight; the expected ledger lands on the quintic's -200 and the
mirror ledger cancels to zero.
"""

from quintfib import fibercensus as fc

for fibration in fc.FIBRATIONS:
    print(f"{fibration} fibration:")
    for row in fc.census(fibration):
        chi = "-" if row.fiber.euler is None else row.fiber.euler
        print(f"  {row.stratum:<55} {row.count:>3} x {row.fiber.name:<7} chi {chi}")
    print()

print("expected ledger:")
total, breakdown = fc.euler_ledger_from_rows(fc.census("expected"))
for stratum, count, fiber, contrib in breakdown:
    print(f"  {stratum:<30} {count:>3} x {fiber:<7} -> {contrib}")
print(f"  total chi = {total}")

print(f"\nmirror ledger total = {fc.euler_ledger('mirror')}")

s = fc.singular_surface((1, 2, 3))
sq = fc.singular_surface((1, 2, 3), quotient=True)
print(f"\nsingular surface {s.label}: chi {s.euler}, genus {s.genus}")
print(f"order-5 quotient {sq.label}: chi {sq.euler}, genus {sq.genus} "
      "(five totally ramified points)")

print("\nquotient fiber types:")
for name in ("I5", "II5x5", "III5"):
    q = fc.quotient_fiber(name)
    print(f"  {name:>6} -> {q.name} (chi {q.euler})")
