"""etarho: exact and numerical eta/rho-invariant calculus.

Subpackages group by concern:

- ``cyclotomic``: exact arithmetic in Q(zeta_n), rationals, float embeddings
- ``chars``: finite groups, conjugacy classes, class-function spaces, characters
- ``rho``: induction of rho data along inclusions, denominator rings
- ``lens``: lens-space delocalized/twisted rho tables and nonvanishing searches
- ``circle``: heat-kernel eta terms on the circle covering and convergence verdicts
- ``zoo``: normal forms, conjugacy balls and growth for the example groups
- ``cli``: the batch command-line front end (``etarho`` entry point)
"""

from .cyclotomic import (
    CyclotomicValue,
    OrderMismatchError,
)
from .chars import (
    ClassFunction,
    FiniteGroup,
    RhoVector,
    VirtualRep,
    class_space_basis,
    fourier_eta,
    is_in_R0,
    pair_phi,
    rank_minus,
    rank_plus,
    tau_orbits,
)
from .rho import (
    DenominatorRing,
    SubgroupInclusion,
    induce_rho,
    rho2_from_delocalized,
    ring_from_orders,
)
from .lens import (
    LensSpace,
    NotFound,
    lens_delocalized_rho,
    lens_twisted_rho,
    search_nonvanishing,
    span_rank,
)
from .circle import (
    CircleExact,
    EtaReport,
    QuadratureConfig,
    QuadratureError,
    SubsetFamily,
    Verdict,
    classify_convergence,
    eta_partial,
    eta_term,
    kernel_value,
    product_with_ahat,
)
from .zoo import (
    CapExceededError,
    Cyclic,
    HnnShift,
    Lamplighter,
    Product,
    QSemidirect,
    WordBall,
    class_ball,
    class_ball_rationals,
    class_intersect_integers,
    conjugate_of_one_test,
    growth_classify,
    normalize,
    word_ball,
)
from .exactlinalg import exact_rank

__version__ = "0.1.0"
