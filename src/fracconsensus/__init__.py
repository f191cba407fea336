"""Delayed consensus for networks mixing integer- and fractional-order agents:
simulation, analytic delay bounds, and frequency-domain stability certificates.
"""

from .bounds import (
    InapplicableBoundError,
    bound_report,
    degree_delay_bound,
    gain_delay_curve,
    max_gain_for_delay,
    mixed_order_delay_bound,
    spectral_delay_bound,
)
from .fracsolve import (
    AgentModel,
    SolverParams,
    Trajectory,
    caputo_of_monomial,
    gl_caputo_estimate,
    gl_coefficients,
    simulate,
)
from .freqcert import (
    Verdict,
    certify,
    critical_frequency_criterion,
    disc_margin,
    eigen_loci,
    omega_grid,
)
from .graph import (
    Digraph,
    degree_vector,
    has_spanning_root,
    is_symmetric,
    laplacian,
    spectrum,
)
from .scenario import (
    BisectionBracketError,
    ConvergenceVerdict,
    Scenario,
    ScenarioFormatError,
    bisect_critical_delay,
    classify,
    parse_scenario,
    save_scenario,
    scenario_to_dict,
    snap_delay,
)

__version__ = "0.1.0"
