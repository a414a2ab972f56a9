"""The package's own surface: the names it exports and the README's library snippet."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import perigee

ROOT = Path(__file__).resolve().parent.parent

# every name `from perigee import ...` has given since the package re-exported them
EXPORTS = (
    "BudgetError", "ComponentSpec", "ConstructionPlan", "CountSequence", "DegeneracyError",
    "FactoredNatural", "GrowthDiagnostics", "GrowthTarget", "IntegerPolynomial",
    "MahlerResult", "RealizabilityError", "ZetaSeries", "build_plan", "count_table",
    "deficit_report", "delta_n_resultant", "divisors", "enumerate_oracle",
    "growth_diagnostics", "is_prime", "least_from_fixed", "least_prime_congruent_one",
    "lemma_sandwich_check", "load_plan", "mahler_measure", "mobius", "orbit_product_form",
    "rationality_probe", "save_plan", "toral_fix_sequence", "zeta_truncate",
    "construction", "numtheory", "orbits", "precision", "targets", "toral", "zeta",
    "__version__",
)


@pytest.mark.parametrize("name", EXPORTS)
def test_every_export_imports_and_is_listed(name):
    namespace = {}
    exec("from perigee import %s" % name, namespace)
    assert namespace[name] is getattr(perigee, name)
    assert name in dir(perigee)


def test_exported_names_are_the_layers_own():
    from perigee import construction, toral

    assert perigee.build_plan is construction.build_plan
    assert perigee.DegeneracyError is toral.DegeneracyError


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'perigee' has no attribute 'nonesuch'"):
        perigee.nonesuch
    with pytest.raises(ImportError, match="nonesuch"):
        exec("from perigee import nonesuch", {})


def test_readme_library_snippet_runs():
    # as written, in a fresh interpreter, so each layer executes on first use
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    snippet = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))
    ))
    done = subprocess.run(
        [sys.executable, "-c", snippet], env=env, capture_output=True, text=True, timeout=120
    )
    assert (done.returncode, done.stderr) == (0, "")
