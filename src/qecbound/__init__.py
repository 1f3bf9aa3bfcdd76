"""Sound and probabilistic bounds on decoder logical error rates.

Compile QEC programs to detector error models, enumerate the error space
in weight order, classify bitstrings with a decoder, and maintain sound
lower/upper bounds on the logical error rate (Accuracy) or on its
worst-case over a box of error rates (Robustness), optionally tightened
by sampling with KL-Chernoff confidence intervals.
"""

from .compiler import (
    CompileError,
    DemParseError,
    DetectorErrorModel,
    check_well_defined,
    compile_to_dem,
    parse_dem,
    write_dem,
    write_symbolic_dem,
)
from .decoders import (
    Decoder,
    ExternalDecoder,
    GreedyDecoder,
    MlDecoder,
    build_greedy_decoder,
    build_ml_decoder,
    connect_external_decoder,
)
from .driver import (
    BoundsTrace,
    RunConfig,
    TraceRecord,
    convergence_shots,
    emit_trace,
    run_accuracy,
    run_robustness,
)
from .errorspace import VisitOrder, observable_of, syndrome_of
from .frontend import ParseError, QecProgram, parse_program, parse_symbolic_program
from .polynomial import (
    Hyperrectangle,
    accuracy_bounds,
    maximize,
    minimize,
    robustness_bounds,
)
from .sampling import (
    ConfidenceInterval,
    kl_confidence_interval,
    probabilistic_bounds,
)

__all__ = [
    "CompileError",
    "DemParseError",
    "DetectorErrorModel",
    "check_well_defined",
    "compile_to_dem",
    "parse_dem",
    "write_dem",
    "write_symbolic_dem",
    "Decoder",
    "ExternalDecoder",
    "GreedyDecoder",
    "MlDecoder",
    "build_greedy_decoder",
    "build_ml_decoder",
    "connect_external_decoder",
    "BoundsTrace",
    "RunConfig",
    "TraceRecord",
    "convergence_shots",
    "emit_trace",
    "run_accuracy",
    "run_robustness",
    "VisitOrder",
    "observable_of",
    "syndrome_of",
    "ParseError",
    "QecProgram",
    "parse_program",
    "parse_symbolic_program",
    "Hyperrectangle",
    "accuracy_bounds",
    "maximize",
    "minimize",
    "robustness_bounds",
    "ConfidenceInterval",
    "kl_confidence_interval",
    "probabilistic_bounds",
]

__version__ = "0.1.0"
