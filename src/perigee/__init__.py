"""Exact periodic-point counting for compact product-group automorphisms.

Construct plans with a prescribed logarithmic growth rate of periodic points,
count those points exactly (factored big integers throughout), cross-check
against a brute-force enumeration oracle, relate period counts to
least-period counts by Moebius inversion, and analyze toral counterparts:
Lehmer sequences, Mahler measures, and truncated dynamical zeta functions.

Importing the package executes none of its layers.  Each one is registered
in sys.modules through importlib.util.LazyLoader, so its body runs on the
first access to one of its attributes, and the names below resolve through
the module __getattr__ of PEP 562: a command executes only the layers it runs.
"""

import importlib.util
import sys

_EXPORTS = {
    "numtheory": ("BudgetError", "FactoredNatural", "divisors", "is_prime",
                  "least_prime_congruent_one", "mobius"),
    "precision": (),
    "orbits": ("CountSequence", "GrowthDiagnostics", "RealizabilityError",
               "growth_diagnostics", "least_from_fixed", "lemma_sandwich_check"),
    "targets": ("GrowthTarget",),
    "construction": ("ComponentSpec", "ConstructionPlan", "build_plan", "count_table",
                     "deficit_report", "enumerate_oracle", "load_plan", "save_plan"),
    "toral": ("DegeneracyError", "IntegerPolynomial", "MahlerResult", "delta_n_resultant",
              "mahler_measure", "toral_fix_sequence"),
    "zeta": ("ZetaSeries", "orbit_product_form", "rationality_probe", "zeta_truncate"),
}
__all__ = [*_EXPORTS, *(name for names in _EXPORTS.values() for name in names)]
__version__ = "0.1.0"


def _register(layer):
    """perigee.<layer>, in sys.modules and unexecuted until first read."""
    spec = importlib.util.find_spec(__name__ + "." + layer)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


globals().update((layer, _register(layer)) for layer in _EXPORTS)


def __getattr__(name):
    for layer, names in _EXPORTS.items():
        if name in names:
            return getattr(globals()[layer], name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *__all__})
