"""Exact planning for hybrid-fuel aircraft on noise-restricted graphs.

The problem: find the minimum-cost path and generator on/off schedule
from start to goal, subject to battery bounds, fuel depletion, generator
startup drain, and edges where running the generator is forbidden.

Modules: :mod:`instance` (data model and JSON formats), :mod:`heuristics`
(admissible cost-to-go tables), :mod:`labeling` (the exact solver),
:mod:`verify` (exhaustive oracle and MILP export/import),
:mod:`generators` (random benchmark families), :mod:`cli` (command-line
harness).
"""

from .instance import (DEFAULT_QUANTIZATION, EdgeParams, FormatError,
                       Instance, InvalidInstanceError, Solution,
                       build_solution, check_solution, dumps, load, loads,
                       path_cost, replay, save, solution_dumps,
                       solution_loads, validate)
from .heuristics import HeuristicTable, make_table, sld_table, sup_path, \
    sup_table, zero_table
from .labeling import (Label, OpenList, SolveResult, SolveStats,
                       SolverConfig, extend, solve)
from .verify import (MilpImportError, MilpModel, OracleBudgetError,
                     OracleResult, build_milp, check_substitution,
                     import_milp_solution, oracle_solve)
from .generators import GenSpec, generate

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_QUANTIZATION", "EdgeParams", "FormatError", "GenSpec",
    "HeuristicTable", "Instance", "InvalidInstanceError", "Label",
    "MilpImportError", "MilpModel", "OpenList", "OracleBudgetError",
    "OracleResult", "Solution", "SolveResult", "SolveStats", "SolverConfig",
    "build_milp", "build_solution", "check_solution", "check_substitution",
    "dumps", "extend", "generate", "import_milp_solution", "load", "loads",
    "make_table", "oracle_solve", "path_cost", "replay", "save",
    "sld_table", "solution_dumps", "solution_loads", "solve", "sup_path",
    "sup_table", "validate", "zero_table",
]
