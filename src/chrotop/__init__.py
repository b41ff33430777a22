"""Chromatic subdivisions, round-based execution spaces, and finite-depth
task solvability checking."""

from .simplicial import (
    CarrierMap,
    Complex,
    Simplex,
    SimplicialMap,
    Vertex,
    carried_by,
    check_carrier_map,
    check_simplicial_chromatic,
)
from .subdivision import (
    BarycentricPoint,
    TerminatingSubdivision,
    chr_iterate,
    coordinates,
    diameter_Dk,
    partial_chr_step,
)
from .tasks import Task, inputless_consensus, set_agreement, validate_task
from .models import (
    ExecutionWord,
    ModelSpec,
    builtin_model,
    enumerate_prefixes,
    enumerate_round_schedules,
    iis,
    is_excluded_limit,
    m1,
    m2,
)
from .metric import (
    Ball,
    ViewSequence,
    ball_trichotomy,
    exec_distance,
    product_distance,
    view_distance,
)
from .protocol import (
    DecisionProtocol,
    check_solves,
    extract_map,
    run,
    synthesize_from_stable_map,
    synthesize_from_time_map,
)
from .checker import (
    TimeTComplex,
    Verdict,
    build_time_T,
    certify_consensus_impossible,
    connecting_map_fST,
    search_decision_map,
    solve,
    sperner_evidence,
    verify_termination_certificate,
)

__version__ = "0.1.0"
