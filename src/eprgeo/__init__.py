"""Spin correlations for geodesic particle pairs in curved spacetime.

The package integrates timelike geodesics in static spherically symmetric
spacetimes, carries frames and spin-half amplitudes along them by parallel
transport, matches measurement axes between separated detectors, and evaluates
singlet correlations, CHSH combinations, and dephasing from path bundles.

The names below are the ones the README, the demos and the benchmark use;
everything else is imported from its submodule.
"""

from .decoherence import (
    averaged_state,
    averaged_states,
    degraded_correlation,
    fidelity_with_error,
    sample_bundle,
)
from .errors import DomainExitError
from .geodesic import integrate_geodesic
from .pipeline import integrate_pair, matched_axis, pair_transport
from .precession import (
    circular_orbit_tangent,
    geodetic_angle_exact,
    integrate_orbit,
    orbit_period,
    rest_frame_holonomy_angle,
    spinor_holonomy_angle,
)
from .report import Report, emit_report
from .scenario import TOOL_VERSION, parse_scenario, run_scenario
from .spacetime import Event, make_spacetime
from .spin import CANONICAL_CHSH_DIRECTIONS, chsh, correlation, correlation_matrix

__version__ = TOOL_VERSION

__all__ = [
    "CANONICAL_CHSH_DIRECTIONS",
    "DomainExitError",
    "Event",
    "Report",
    "averaged_state",
    "averaged_states",
    "chsh",
    "circular_orbit_tangent",
    "correlation",
    "correlation_matrix",
    "degraded_correlation",
    "emit_report",
    "fidelity_with_error",
    "geodetic_angle_exact",
    "integrate_geodesic",
    "integrate_orbit",
    "integrate_pair",
    "make_spacetime",
    "matched_axis",
    "orbit_period",
    "pair_transport",
    "parse_scenario",
    "rest_frame_holonomy_angle",
    "run_scenario",
    "sample_bundle",
    "spinor_holonomy_angle",
    "__version__",
]
