"""Exact periodic-point counting for compact product-group automorphisms.

Construct plans with a prescribed logarithmic growth rate of periodic points,
count those points exactly (factored big integers throughout), cross-check
against a brute-force enumeration oracle, relate period counts to
least-period counts by Moebius inversion, and analyze toral counterparts:
Lehmer sequences, Mahler measures, and truncated dynamical zeta functions.
"""

from .construction import (
    ComponentSpec,
    ConstructionPlan,
    build_plan,
    count_table,
    deficit_report,
    enumerate_oracle,
    load_plan,
    save_plan,
)
from .numtheory import (
    BudgetError,
    FactoredNatural,
    divisors,
    is_prime,
    least_prime_congruent_one,
    mobius,
)
from .orbits import (
    CountSequence,
    GrowthDiagnostics,
    RealizabilityError,
    growth_diagnostics,
    least_from_fixed,
    lemma_sandwich_check,
)
from .targets import GrowthTarget
from .toral import (
    DegeneracyError,
    IntegerPolynomial,
    MahlerResult,
    delta_n_resultant,
    mahler_measure,
    toral_fix_sequence,
)
from .zeta import ZetaSeries, orbit_product_form, rationality_probe, zeta_truncate

__version__ = "0.1.0"
