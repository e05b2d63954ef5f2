"""Treewidth-exploiting dynamic programming for counting answer sets of
ground disjunctive programs and (weighted, projected) models of CNF."""

from .aspdp import (
    count_answer_sets,
    count_optimal,
    enumerate_answer_sets,
    is_consistent,
)
from .errors import (
    BagMismatchError,
    FormatError,
    HandlerFailureError,
    HeaderMismatchError,
    InvariantError,
    ParseError,
    ProjectionOutOfRangeError,
    TdcountError,
    TooLargeError,
    UnsupportedRuleError,
    VariableTokenError,
)
from .graphs import (
    Graph,
    incidence_graph,
    incidence_graph_cnf,
    primal_graph,
    primal_graph_cnf,
    write_gr,
)
from .model import Atom, CnfFormula, GroundProgram, MinimizeStatement, Rule, render_program
from .oracle import (
    brute_answer_sets,
    brute_count_models,
    brute_optimum,
    brute_projected_count,
    brute_treewidth,
    brute_weighted_count,
)
from .parsers import parse_dimacs, parse_ground_program, parse_smodels
from .projection import ProjectionPass, projected_count
from .satdp import count_models, weighted_count
from .treedecomp import (
    NiceTreeDecomposition,
    NodeKind,
    TreeDecomposition,
    Violation,
    ViolationKind,
    decompose,
    elimination_ordering,
    make_nice,
    read_td,
    td_from_ordering,
    validate_td,
    width,
    write_td,
)

__version__ = "0.1.0"
