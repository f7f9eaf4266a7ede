"""Exact-arithmetic invariants of central simple and Azumaya algebras.

Five computation modules and a CLI:

* valuation: p-adic valuations, Legendre oracle, factorial closed forms,
  exact multinomials;
* chowring: Z[l1,...,lm]/(l_i^{d_i}) and Segre-image degrees two ways;
* bounds: splitting-field degree bounds (general, prime-power, baseline);
* karpenko: cycle-degree lower bounds and corestriction-impossibility
  certificates, in closed form and symbolically;
* brauer: generic Brauer classes mod p and index-reduction gcds.

All arithmetic is exact (Python big integers); there is no floating
point anywhere in the package.

Importing the package loads none of its modules.  A re-exported name
such as `csatools.vp` is looked up in its home module at each access
(PEP 562), importing that module on first use, and `csatools.<module>`
imports the module itself.  Nothing is copied into the package
namespace, so a patched or traced module attribute is always what the
package returns.
"""

import importlib

__version__ = "0.1.0"

# home module -> the names the package re-exports from it
_EXPORTS = {
    "bounds": ("AlgebraShape", "BoundImprovement", "BoundReport", "PrimePowerBound",
               "baseline_bound", "bound_improvement", "cofactor_m", "general_bound",
               "prime_power_bound"),
    "brauer": ("BrauerVector", "combine", "index_reduction", "model_index",
               "prop1_case_table", "prop1_scenario", "prop2_scenario"),
    "chowring": ("ChowClass", "hyperplane_sum", "multiply", "point_degree",
                 "power", "segre_degree_closed_form", "segre_degree_expansion", "unit"),
    "errors": ("ConsistencyError",),
    "karpenko": ("AuxiliaryInequalities", "CorestrictionCertificate", "auxiliary_inequalities",
                 "corestriction_certificate", "karpenko_lower_bound", "proof_inequalities"),
    "valuation": ("Prime", "is_prime_64bit", "multinomial", "vp",
                  "vp_factorial_k_times_prime_power", "vp_factorial_misc",
                  "vp_factorial_oracle", "vp_factorial_prime_power"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = frozenset({*_EXPORTS, "cli", "verify"})

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_MODULES, *__all__})
