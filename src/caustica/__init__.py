"""Elliptical billiards, confocal caustics, and their elliptic-curve models.

The package follows one computational thread: trajectories in an ellipse
are tangent to a confocal caustic; the caustic's phase curve is an
elliptic curve in Legendre form; the billiard map becomes translation by
a section, whose Betti coordinates (rotation numbers) count periodic
trajectories; Birkhoff cosine sums are constant exactly on periodic
caustics; and, separately, orbits of plane projective automorphisms
meeting three lines are enumerated in exact arithmetic.

Importing the package loads none of its modules.  A public name
(`caustica.Ellipse`, `from caustica import count_periodic`) imports the
module that defines it on first use, and so does a submodule attribute
(`caustica.orbits`); a CLI run therefore loads only the modules its
subcommand calls.
"""

import importlib

_EXPORTS = {
    "conics": (
        "CausticKind", "CausticParam", "Ellipse", "PhasePoint", "Shot",
        "Trajectory", "advance", "caustic_of_line", "caustic_phase_point",
        "caustic_phase_points", "classify_caustic", "first_hit",
        "invariant_density", "inward", "phase_invariant", "reflect",
        "simulate", "tangential",
    ),
    "legendre": (
        "ConjugationChecker", "Infinity", "LegendreCurve", "LegendrePoint",
        "add", "billiard_section", "conjugation_defect", "j_invariant",
        "lambda_of", "masser_point", "mul", "neg", "phase_to_legendre",
        "point_distance",
    ),
    "periods": (
        "BettiCoords", "BettiModel", "betti_billiard", "betti_scan",
        "lambda_for_beta2", "manin_residual", "omega2",
        "picard_fuchs_residual", "rotation_number",
    ),
    "orbits": (
        "AnglePair", "BoomerangHit", "CausticExtrema", "ConvergenceError",
        "CountBreakdown", "HoleHit", "PeriodicDirection", "angle_pair_scan",
        "boomerang_scan", "caustic_extrema", "closure_error",
        "connecting_trajectory", "count_periodic", "count_periodic_range",
        "find_periodic_directions", "hole_scan", "parallelogram_angle_pairs",
        "predicted_count", "reflection_residual", "segment_caustics",
    ),
    "birkhoff": (
        "MoebiusFit", "birkhoff_sum", "birkhoff_sums", "h_weight",
        "moebius_fit", "symmetric_sum", "value_multiplicity", "window_sums",
    ),
    "dml": (
        "ExponentialFamily", "FamilyReport", "FiniteSet", "GroupClass",
        "GroupKind", "LineFamily", "OrbitHit", "ProjectiveLine",
        "ProjectiveMap", "RecurrenceReport", "classify", "det_condition",
        "family_detect", "fixed_point_check", "recurrence_zeros",
        "triple_orbit_search",
    ),
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}
_SUBMODULES = _EXPORTS.keys() | {"_roots", "cli"}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    """A public name, read from its module on every access, or a
    submodule, imported on first access."""
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
