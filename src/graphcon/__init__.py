"""Contraction-order analysis and periodic-point solving on metric spaces.

The package decides whether a self-map contracts its own orbit steps at a
given iteration order, locates periodic points by residue-subsequence
iteration with a geometric tail-bound stopping rule, and cross-validates
every finite-space result against an exhaustive exact-arithmetic oracle.
"""

from .analysis import (
    ClassCheck,
    ContractionClass,
    ContractionReport,
    RatioSample,
    Verdict,
    alpha_exact,
    alpha_sampled,
    check_iterated_class,
    ratio,
    ratio_limit_probe,
)
from .errors import (
    BadParamsError,
    ConsistencyViolationError,
    GammaOutOfRangeError,
    GraphconError,
    IdentityViolationError,
    InstanceFormatError,
    InvalidPointError,
    MetricAxiomError,
    NegativeEntryError,
    NonFiniteEntryError,
    NonSquareError,
    NotConvergedError,
    SymmetryViolationError,
    ToleranceAmbiguityError,
    TriangleViolationError,
    UnknownIdError,
)
from .gallery import GALLERY_IDS, GalleryReport, build_case, run_gallery
from .instances import instance_from_dict, load_instance, point_json
from .maps import MapModel, ShiftMap, TableMap, iterate, prime_period
from .oracle import (
    CrosscheckResult,
    OracleResult,
    crosscheck,
    enumerate_periodic,
    random_instance,
)
from .solver import (
    LimitCase,
    PeriodicSolution,
    SubsequenceState,
    advance_subsequences,
    cauchy_tail_bound,
    classify_limits,
    divisors,
    solve,
)
from .spaces import (
    FiniteSpace,
    SeqPoint,
    SequenceFamily,
    SequenceSpace,
    as_fraction,
    validate_finite,
)

__version__ = "0.1.0"
