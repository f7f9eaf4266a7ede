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
"""

from .bounds import (
    AlgebraShape,
    BaselinePoint,
    BoundImprovement,
    BoundReport,
    baseline_bound,
    bound_improvement,
    cofactor_m,
    general_bound,
    prime_power_bound,
)
from .brauer import (
    BrauerVector,
    combine,
    index_reduction,
    model_index,
    prop1_case_table,
    prop1_scenario,
    prop2_scenario,
)
from .chowring import (
    ChowClass,
    RingShape,
    hyperplane,
    hyperplane_sum,
    multiply,
    point_degree,
    power,
    segre_degree_closed_form,
    segre_degree_expansion,
    unit,
    zero,
)
from .errors import ConsistencyError
from .karpenko import (
    AuxiliaryInequalities,
    CorestrictionCertificate,
    auxiliary_inequalities,
    corestriction_certificate,
    karpenko_lower_bound,
    proof_inequalities,
)
from .valuation import (
    Prime,
    is_prime_64bit,
    multinomial,
    vp,
    vp_factorial_k_times_prime_power,
    vp_factorial_misc,
    vp_factorial_oracle,
    vp_factorial_prime_power,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraShape",
    "AuxiliaryInequalities",
    "BaselinePoint",
    "BoundImprovement",
    "BoundReport",
    "BrauerVector",
    "ChowClass",
    "ConsistencyError",
    "CorestrictionCertificate",
    "Prime",
    "RingShape",
    "auxiliary_inequalities",
    "baseline_bound",
    "bound_improvement",
    "cofactor_m",
    "combine",
    "corestriction_certificate",
    "general_bound",
    "hyperplane",
    "hyperplane_sum",
    "index_reduction",
    "is_prime_64bit",
    "karpenko_lower_bound",
    "model_index",
    "multinomial",
    "multiply",
    "point_degree",
    "power",
    "prime_power_bound",
    "proof_inequalities",
    "prop1_case_table",
    "prop1_scenario",
    "prop2_scenario",
    "segre_degree_closed_form",
    "segre_degree_expansion",
    "unit",
    "vp",
    "vp_factorial_k_times_prime_power",
    "vp_factorial_misc",
    "vp_factorial_oracle",
    "vp_factorial_prime_power",
    "zero",
]
