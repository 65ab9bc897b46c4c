"""Rule-based inference compiled to reversible X/CNOT/CCNOT circuits.

The stack, bottom to top: boolean rule networks with a textual DSL
(:mod:`qrbs.rules`), categorical differential diagnosis over attribute
complexes (:mod:`qrbs.categorical`), a reversible-circuit IR with an
OpenQASM 2.0 subset interchange (:mod:`qrbs.circuit`), a compiler from
networks to circuits (:mod:`qrbs.compiler`), dense and basis-state
simulation engines (:mod:`qrbs.simulator`), a bit-plane kernel that
runs rules and circuits over many input assignments at once for
verification and logic-base reduction (:mod:`qrbs.planes`), and a TNM
staging application built on all of it (:mod:`qrbs.idc`).

Only the dense engine (:mod:`qrbs.dense`, loaded on the first dense
run) uses numpy, which the ``dense`` extra installs; the fast path runs
without it. Its names, :class:`~qrbs.dense.StateVector` and
:func:`~qrbs.dense.init_state` among them, are imported from
:mod:`qrbs.dense`. Importing the package only registers numpy to load on
first use (:func:`_defer_numpy`).
"""

import importlib.util
import sys

from .categorical import (
    Complex,
    ConstraintRule,
    ConstraintSet,
    LogicBase,
    Presence,
    Verdict,
    build_elb,
    complex_index,
    diagnose,
    index_to_complex,
    parse_constraints,
    reduce_to_rlb,
)
from .circuit import (
    CCNOT,
    CNOT,
    Circuit,
    Gate,
    Measure,
    X,
    export_qasm,
    gate_counts,
    import_qasm,
)
from .compiler import (
    CompiledCircuit,
    CompileOptions,
    VerificationReport,
    compile_expr,
    compile_network,
    verify_compilation,
)
from .errors import (
    CircuitError,
    CompileError,
    CycleError,
    DslSyntaxError,
    NetworkError,
    OneHotError,
    QasmError,
    QrbsError,
    SimulationError,
    StagingError,
    VerificationError,
    VocabularyError,
)
from .idc import (
    ClinicalFindings,
    StageSet,
    StagingResult,
    TnmClass,
    build_idc_circuit,
    build_idc_network,
    classify_tnm,
    decode_stages,
    stage,
    tnm_to_input_qubit,
    verify_reference_table,
)
from .rules import (
    And,
    Atom,
    BoolExpr,
    Implies,
    Not,
    Or,
    Rule,
    RuleNetwork,
    evaluate_expr,
    evaluate_network,
    format_expr,
    format_network,
    parse_rules,
    topological_order,
)
from .simulator import RunResult, run

__version__ = "0.1.0"


def _defer_numpy() -> None:
    """Register numpy in ``sys.modules`` as a module that loads on its first attribute access.

    A process that only runs the fast path then never loads numpy, while
    code that looks numpy up in ``sys.modules`` (to report its version,
    say) still finds it, and loads it at that moment. Nothing is done if
    numpy is already imported, blocked (``sys.modules["numpy"] = None``)
    or not installed.
    """
    if "numpy" in sys.modules:
        return
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        return
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)


_defer_numpy()
