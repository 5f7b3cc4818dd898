"""Elliptical billiards, confocal caustics, and their elliptic-curve models.

The package follows one computational thread: trajectories in an ellipse
are tangent to a confocal caustic; the caustic's phase curve is an
elliptic curve in Legendre form; the billiard map becomes translation by
a section, whose Betti coordinates (rotation numbers) count periodic
trajectories; Birkhoff cosine sums are constant exactly on periodic
caustics; and, separately, orbits of plane projective automorphisms
meeting three lines are enumerated in exact arithmetic.
"""

from .conics import (
    CausticKind,
    CausticParam,
    Ellipse,
    PhasePoint,
    Shot,
    Trajectory,
    advance,
    caustic_of_line,
    caustic_phase_point,
    classify_caustic,
    first_hit,
    invariant_density,
    inward,
    phase_invariant,
    reflect,
    simulate,
)
from .legendre import (
    ConjugationChecker,
    Infinity,
    LegendreCurve,
    LegendrePoint,
    add,
    billiard_section,
    conjugation_defect,
    j_invariant,
    lambda_of,
    masser_point,
    mul,
    neg,
    phase_to_legendre,
    point_distance,
)
from .periods import (
    BettiCoords,
    BettiModel,
    betti_billiard,
    betti_scan,
    lambda_for_beta2,
    manin_residual,
    omega2,
    picard_fuchs_residual,
    rotation_number,
)
from .orbits import (
    AnglePair,
    BoomerangHit,
    CausticExtrema,
    ConvergenceError,
    CountBreakdown,
    HoleHit,
    PeriodicDirection,
    angle_pair_scan,
    boomerang_scan,
    caustic_extrema,
    closure_error,
    connecting_trajectory,
    count_periodic,
    count_periodic_range,
    find_periodic_directions,
    hole_scan,
    parallelogram_angle_pairs,
    predicted_count,
    reflection_residual,
    segment_caustics,
)
from .birkhoff import (
    MoebiusFit,
    birkhoff_sum,
    h_weight,
    moebius_fit,
    symmetric_sum,
    value_multiplicity,
)
from .dml import (
    ExponentialFamily,
    FamilyReport,
    FiniteSet,
    GroupClass,
    GroupKind,
    LineFamily,
    OrbitHit,
    ProjectiveLine,
    ProjectiveMap,
    RecurrenceReport,
    classify,
    det_condition,
    family_detect,
    fixed_point_check,
    recurrence_zeros,
    triple_orbit_search,
)

__version__ = "0.1.0"
