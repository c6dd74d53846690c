"""Exact generic cluster characters for cluster categories of acyclic quivers."""

from .characters import (
    ClusterObject,
    cc_generic,
    cc_module,
    cc_object,
    coindex_of,
    g_vector_of_index,
    index_of,
    shifted_object,
    zero_object,
)
from .cluster import (
    EnumerationResult,
    Seed,
    cluster_monomials_up_to,
    enumerate_seeds,
    exchange_matrix,
    initial_seed,
    is_cluster_monomial,
    mutate_matrix,
    mutate_seed,
)
from .errors import ClusterCharError
from .generic import (
    CharacterCache,
    MultiplicativityReport,
    ProjDecomposition,
    ProjectiveMap,
    StabilityReport,
    check_multiplicativity,
    cone_of_proj_map,
    generic_character,
    generic_decomposition,
    min_proj_decomposition,
    sample_generic_proj_map,
    stability_check,
    virtual_generic_decomposition,
)
from .laurent import LaurentPoly, canonical_serialize, denominator_vector, monomial, parse_laurent
from .linalg import GF, QQ
from .quiver import (
    EulerData,
    Quiver,
    antisym_form_simple,
    euler_form,
    euler_matrix,
    positive_roots,
    quiver_from_dict,
    quiver_from_text,
    validate_quiver,
)
from .replab import (
    GrassmannianCount,
    Representation,
    count_subreps,
    decompose,
    direct_sum,
    ext_dim,
    generic_representation,
    grassmannian_euler,
    hom_dim,
    injective_representation,
    projective_representation,
    random_representation,
    simple_representation,
    zero_representation,
)

__version__ = "0.1.0"
