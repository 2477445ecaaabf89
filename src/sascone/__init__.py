"""sascone: positivity in the w-Sasaki cone of weighted 3-sphere joins.

The library decides positive vs indefinite for rays in the w-cone of a
join, computes the exact positivity range, integer topological and
contact invariants, quasi-regular quotient data, and constructs and
certifies explicit admissible metric profiles with positive Ricci
curvature. All classification arithmetic is exact (integers and
rationals); the metric kernel uses closed-form integration in double
precision. Every public type is an immutable value.

`import sascone` loads no submodule. Each public name resolves on first
use: the module `__getattr__` imports the submodule that defines it, then
caches the value here, so later lookups are plain attribute reads.
`__all__` is the sorted list of those names, and `from sascone import *`
binds them all.
"""

import importlib as _importlib

# The submodule that defines each public name.
_HOMES = {
    name: module
    for module, names in (
        ("classifier", ("PositivityRange", "RangeKind", "TypeVerdict", "WholeConeReport",
                        "classify_ray", "h1_signed", "positivity_range", "positivity_range_raw",
                        "whole_cone_rules")),
        ("core", ("BaseManifold", "JoinParams", "ReebRay", "parse_base", "validate_join")),
        ("errors", ("BaseMismatchError", "BracketFailureError", "InvalidParameterError",
                    "NonpositiveVolumeError", "NotCoprimeError", "NotFanoError", "OddTotalError",
                    "PreconditionError", "ProductCaseError", "SasconeError",
                    "SmoothnessViolationError", "ValidationError")),
        ("goldens", ("CheckOutcome", "GoldenCheck", "default_checks", "replay_tables")),
        ("profile", ("MetricProfile", "ProfileParams", "ProfileSample", "VerificationReport",
                     "build_profile", "g_dt", "g_func", "profile_params_from_ray", "solve_k")),
        ("quotient", ("OrbChernReport", "QuotientData", "orb_c1_report", "orb_fano_predicate",
                      "quotient_data", "ricci_box_holds")),
        ("topology", ("BouquetLabel", "b_invariant_wcone", "bouquet_label", "bouquet_level_set",
                      "bouquet_partition", "c1_gamma_coeff_sphere_join", "spin_check",
                      "torsion_order")),
    )
    for name in names
}


def __getattr__(name: str) -> object:
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOMES.keys())


__version__ = "0.1.0"

__all__ = sorted(_HOMES)
