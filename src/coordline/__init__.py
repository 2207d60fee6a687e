"""Strong-coordination codes over multi-hop line networks.

Construction, simulation, and verification of layered channel-resolvability
coordination schemes, plus analytic rate-region membership checks.
"""

from .codebooks import Codebook, build_codebooks
from .codec import run_scheme
from .errors import PreconditionError, ResourceCapError, UsageError
from .evalharness import (
    coordination_tv,
    cr_independence,
    exact_induced,
    mc_coordination_tv,
    piecing_check,
)
from .fme import LinearSystem, fme_project
from .linestruct import (
    AuxSpec,
    NetworkSpec,
    aux_from_tags,
    build_aux_joint,
    index_sets,
    j_set,
    make_network,
    order_pairs,
    validate_aux,
)
from .probability import (
    Alphabet,
    ConditionalKernel,
    JointPmf,
    condition,
    divergences,
    info_measure,
    marginalize,
    pmf_from_table,
    product_extend,
    staircase_map,
)
from .rates import (
    CodebookRates,
    Mode,
    RatePoint,
    deterministic_region_check,
    functional_region_check,
    large_cr_region_check,
    markov_region_check,
    rate_transfer,
    resource_map,
    thm1_check,
    thm2_check,
    zero_local_region_check,
)

__version__ = "0.1.0"
