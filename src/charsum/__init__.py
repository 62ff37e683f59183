"""charsum: exact evaluation and empirical verification of Dirichlet
character sums over shifted primes, with ASSERT/MONITOR bound reports."""

from .characters import (
    DirichletCharacter,
    UnitGroupBasis,
    conductor,
    enumerate_characters,
    gauss_sums,
    induce_primitive,
    unit_group_basis,
)
from .integers import (
    FactoredInteger,
    MangoldtTable,
    divisors,
    euler_phi,
    factor,
    mangoldt_sieve,
    mobius,
    omega,
    smooth_count,
    tau_r,
)
from .sums import (
    CongruenceInstance,
    SumValue,
    burgess_moment_2r,
    congruence_census,
    double_sum,
    hb_decompose,
    mobius_recombination,
    restricted_sum,
    rho_divisor_count,
    shifted_prime_sum,
    short_sum,
    sy_sum,
)
from .bounds import (
    BoundCheckRecord,
    big_divisor_tail,
    burgess_check_2r,
    identities_verify,
    lemma8_rhs,
    lemma8_verify,
    smooth_bound_check,
    theorem_report,
    theorem_rhs,
)
from .util import PreconditionError, SplitMix64, WorkBudgetError

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
