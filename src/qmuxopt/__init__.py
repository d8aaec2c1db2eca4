"""qmuxopt: polarity optimization for binary quantum multiplexers.

Converts standard-form multiplexers into fixed-polarity and mixed-polarity
forms via butterfly cascades over their single-qubit targets, costs the
results with a multi-controlled-gate model, and searches the polarity
space exhaustively or at random.  The classical fixed-polarity /
Kronecker XOR-form engine the quantum forms generalize is included, along
with PLA benchmark ingestion and a CLI.

Importing the package loads none of its modules: each name below is
imported from its module on first use (PEP 562), so a CLI run loads only
what its subcommand needs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "boolrm": (
        "FPRM", "KRM", "BoolFunc", "RMSpectrum", "literal_cost",
        "rm_inverse_transform", "rm_search", "rm_transform",
    ),
    "cost": ("CostReport", "gate_cost", "multiplexer_cost"),
    "mux": (
        "FPQF", "KQF", "STANDARD", "Multiplexer", "forward_transform", "inverse_transform",
        "max_semantic_deviation", "negative_control_realization", "semantics",
    ),
    "muxio": ("dump_qmux", "load_qmux", "parse_qmux", "save_qmux"),
    "pla": ("load_pla", "parse_pla", "to_bool_func", "to_multiplexer"),
    "randmux": ("POOL_FULL", "POOL_NVV", "GatePool", "generate"),
    "search": (
        "SearchConfig", "SearchReport", "exhaustive_search", "random_polarity_search",
        "run_search",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
