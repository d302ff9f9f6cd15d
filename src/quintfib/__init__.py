"""Exact and numerical toolkit for torus fibrations of the quintic pencil.

Subpackages and modules:

- ratkernel:    exact integer linear algebra (rank, determinants, kernels,
                unimodular inverses, Hermite normal form, lattice saturation)
- basecomplex:  the 4-simplex base, discriminant graph, fattened discriminant
                strata, mirror involution of the base
- monodromy:    chart/cycle algebra, transition matrices, monodromy operators,
                vanishing-cycle filtrations, dual operators
- fibercensus:  catalog of singular fibers and Euler-characteristic ledgers
- sheafcoh:     Cech cohomology of the constructible sheaves on the base,
                Leray E2 tables, intersection-chain bookkeeping
- toriccrepant: toric crepant resolution of the mirror quotient singularities
- flowlab:      numerical laboratory for the normalized gradient flow, loop
                pairings, covering counts and Harvey-Lawson fibers
- cli:          command-line front end, including ``verify-all``
"""

__version__ = "0.1.0"
