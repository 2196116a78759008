# Quasipolynomial discrete-time systems: representation, canonical
# Lotka-Volterra reduction, dynamical classification, and numerical
# cross-validation.

from . import errors
from .systems import (
    DEFAULT_SIGN_TOL,
    EXP_ARG_LIMIT,
    MINUS,
    PLUS,
    ZERO,
    LVSystem,
    QPSystem,
    as_state,
    is_lotka_volterra,
    load_system,
    pattern_string,
    sign_pattern,
    step,
    system_from_dict,
)
from .transform import (
    ClassInvariants,
    QMTMatrix,
    apply_qmt,
    canonical_lv,
    class_invariants,
    map_state,
)
from .theorems import (
    DIAMOND_RHO_THRESHOLD,
    MAROTTO_RHO_THRESHOLD,
    Conclusion,
    HierarchicalOrderWitness,
    HypothesisCheck,
    TheoremVerdict,
    check_all_theorems,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    check_theorem4,
    check_theorem5,
    check_theorem6,
    check_theorem7,
    is_hierarchically_ordered,
    perp,
)
from .dynamics import (
    EmpiricalVerdict,
    Trajectory,
    conjugacy_deviation,
    empirical_attractivity,
    empirical_permanence,
    largest_lyapunov,
    lv_interior_fixed_point,
    qp_fixed_point,
    qp_jacobian,
    simulate,
    write_trajectory_csv,
)
from .scalar_map import (
    ScanResult,
    SnapBackWitness,
    XiAnalysis,
    analyze_xi,
    find_period3,
    find_snap_back,
    threshold_scan,
    write_scan_csv,
    xi,
    xi_deriv,
)

__version__ = "0.1.0"
