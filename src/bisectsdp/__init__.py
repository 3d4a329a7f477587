"""SDP lower bounds for minimum graph bisection.

The toolkit builds several semidefinite relaxations of the minimum graph
bisection problem in one conic standard form, solves them with a dense
interior-point method, strengthens the order-n relaxation with boolean
quadric polytope triangle cuts, and certifies the resulting bounds so they
can be rounded safely. Tabu search and exact enumeration provide the upper
side of the bound sandwich.
"""

from .graphs import (
    Assignment,
    BisectionInstance,
    Graph,
    InstanceFormatError,
    cut_value,
    gen_gnp,
    gen_johnson,
    gen_lcf,
    generate,
    laplacian,
    parse_instance,
    serialize_instance,
)
from .model import (
    ConicProblem,
    RelaxationKind,
    build_basic,
    build_new,
    build_wz,
    integer_point,
    strictly_feasible_point,
)
from .solver import (
    ConicSolution,
    SafeBound,
    SolverConfig,
    SolverStatus,
    UnsupportedProblem,
    min_eigenvalue,
    safe_lower_bound,
    solve,
)
from .cuts import Cut, CutType, LoopConfig, append_cuts, cutting_plane_loop, separate
from .equivalence import (
    FeasibilityReport,
    check_bordered_psd_equivalence,
    check_linking_identities,
    feasibility_report,
    lift_new_to_wz,
    project_wz_to_basic,
    project_wz_to_new,
)
from .heuristic import TabuConfig, brute_force, tabu_search
from .report import BoundReport, RoundTrace, ceil_bound

__version__ = "0.1.0"
