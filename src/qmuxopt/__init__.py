"""qmuxopt: polarity optimization for binary quantum multiplexers.

Converts standard-form multiplexers into fixed-polarity and mixed-polarity
forms via butterfly cascades over their single-qubit targets, costs the
results with a multi-controlled-gate model, and searches the polarity
space exhaustively or at random.  The classical fixed-polarity /
Kronecker XOR-form engine the quantum forms generalize is included, along
with PLA benchmark ingestion and a CLI.
"""

__version__ = "0.1.0"

from .boolrm import (  # noqa: F401
    FPRM,
    KRM,
    BoolFunc,
    RMSpectrum,
    literal_cost,
    rm_inverse_transform,
    rm_search,
    rm_transform,
)
from .cost import CostReport, gate_cost, multiplexer_cost  # noqa: F401
from .mux import (  # noqa: F401
    FPQF,
    KQF,
    STANDARD,
    Multiplexer,
    forward_transform,
    inverse_transform,
    max_semantic_deviation,
    negative_control_realization,
    semantics,
)
from .muxio import dump_qmux, load_qmux, parse_qmux, save_qmux  # noqa: F401
from .pla import load_pla, parse_pla, to_bool_func, to_multiplexer  # noqa: F401
from .randmux import POOL_FULL, POOL_NVV, GatePool, generate  # noqa: F401
from .reference import (  # noqa: F401
    BaseFunction,
    butterfly_stage,
    control_count,
    known_cases,
    map_coefficient,
    rm_transform_matrix,
    triangular_solve,
)
from .search import (  # noqa: F401
    SearchConfig,
    SearchReport,
    exhaustive_search,
    random_polarity_search,
    run_search,
)
