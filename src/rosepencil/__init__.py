"""Fiedler-like pencils and structure-preserving Rosenbrock linearizations
of rational matrices given in state-space realization form.

Subpackages/modules:

- ``tuples``      index-tuple combinatorics (SIP, csf, consecutions, admissible tuples, ...)
- ``polymat``     matrix polynomials, block transpose, structure predicates
- ``realize``     realizations G(lam) = P(lam) + C (lam E - A)^{-1} B and system matrices
- ``pencils``     FP / GFP / GFPR pencil builders (blocks scattered from a block map, bordered)
- ``structured``  block-symmetric, symmetric, T-even/T-odd, (skew-)Hamiltonian,
                  skew-symmetric linearizations; quasi-identity signs; Cauchy-Maslov index
- ``recover``     eigenvector / minimal-basis / minimal-index recovery maps
- ``verify``      numeric oracles (determinants, eigenvalues, nullspaces, degree sweeps)
- ``cli``         command-line front end
"""

__version__ = "0.1.0"
