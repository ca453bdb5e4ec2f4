"""Exact-arithmetic analysis of piecewise-linear interval maps with
machine-checkable certificates bounding backward limit sets."""

from .exactnum import (
    Interval,
    IntervalSet,
    parse_interval_set,
    parse_rational,
)
from .plmap import (
    InvalidMap,
    PLMap,
    compose,
    image,
    iterate,
    make_plmap,
    map_digest,
    parse_map,
    preimage,
)
from .orbits import (
    PeriodicOrbit,
    PeriodicStructure,
    forward_orbit,
    periodic_orbits,
    sharkovsky_precedes,
)
from .markov import (
    CycleFailure,
    CycleOfIntervals,
    ExceptionalReport,
    MarkovSystem,
    Verdict,
    check_cycle_of_intervals,
    exceptional_set,
    is_mixing,
    is_transitive,
    markov_partition,
)
from .backlimits import (
    AvoidanceCert,
    BackwardTree,
    Budget,
    ContractionCert,
    CycleMembershipCert,
    ExactTailCert,
    RejectedSeed,
    SalphaEnclosure,
    avoided_region,
    beta_upper,
    cert_from_obj,
    cert_to_obj,
    certified_period_set,
    find_contraction,
    find_exact_tail,
    salpha_enclosure,
    verify_certificate,
)
from . import corpus

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
