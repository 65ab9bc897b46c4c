"""Lowers rule networks onto the reversible gate set.

Each boolean connective becomes a fixed gate block writing into a fresh
ancilla qubit: conjunction is one CCNOT, disjunction is two CNOTs plus a
CCNOT, negation copies then flips. Wider chains fold left to right from
the two-input blocks. Input qubits are only ever used as controls, so
input values survive the run; intermediate ancillae are not uncomputed
(circuits are single feed-forward passes measured at the end, so garbage
qubits are harmless and uncomputation would only inflate gate count).

With subexpression sharing on (the default), structurally identical
subexpressions reuse one result qubit instead of recomputing; chains are
flat in the AST, so how a chain was parenthesised does not matter.

:func:`verify_compilation` checks a compiled circuit against the rules,
on every input assignment or on a chosen list of them. Both run on the
bit-plane kernel of :mod:`qrbs.planes`: :func:`~qrbs.planes.sweep` yields
the input planes of every assignment, or of the chosen list, a batch at a
time, and one loop runs the rules and the gate list once per batch, one
integer operation per connective or gate.
Mismatches are counted first and only the assignments whose bits differ
are decoded, up to ``MAX_MISMATCHES`` of them, chosen list or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Mapping

from . import planes
from .circuit import CCNOT, CNOT, Circuit, Gate, Measure, X
from .errors import CompileError, NetworkError, VerificationError
from .rules import And, Atom, BoolExpr, Implies, Not, Or, RuleNetwork, _input_bits

# Verification calls neither of these; they stay importable from here because
# perfbench/tracing.py's Tracer.install wraps compiler.evaluate_network and
# compiler.run by name.
from .rules import evaluate_network  # noqa: F401
from .simulator import run  # noqa: F401

__all__ = [
    "MAX_MISMATCHES",
    "CompileContext",
    "CompileOptions",
    "CompiledCircuit",
    "Mismatch",
    "VerificationReport",
    "compile_expr",
    "compile_network",
    "verify_compilation",
]


@dataclass(frozen=True)
class CompileOptions:
    """Compilation policy knobs.

    ``share_subexpressions``: reuse result qubits for structurally
    identical subexpressions. ``measure_inputs_directly``: an output
    fact that resolves to a bare input (or a single-literal chain of
    rules) is measured from its source qubit instead of being copied to
    a fresh ancilla first. ``ancilla_budget``: hard cap on extra qubits,
    or None for unlimited.
    """

    share_subexpressions: bool = True
    measure_inputs_directly: bool = True
    ancilla_budget: int | None = None


class CompileContext:
    """Fact-to-qubit bindings, ancilla allocation and the emitted gate list."""

    def __init__(
        self, fact_qubits: Mapping[str, int], first_ancilla: int, options: CompileOptions
    ):
        self.fact_qubits: dict[str, int] = dict(fact_qubits)
        self.options = options
        self.gates: list[Gate] = []
        self._first_ancilla = first_ancilla
        self._next = first_ancilla
        self._memo: dict[tuple, int] = {}

    @property
    def num_qubits(self) -> int:
        return self._next

    @property
    def ancilla_count(self) -> int:
        return self._next - self._first_ancilla

    def fresh(self) -> int:
        budget = self.options.ancilla_budget
        if budget is not None and self.ancilla_count >= budget:
            raise CompileError(f"ancilla budget of {budget} exceeded")
        qubit = self._next
        self._next += 1
        return qubit

    def _shared(self, key: tuple) -> int | None:
        if self.options.share_subexpressions:
            return self._memo.get(key)
        return None


def compile_expr(expr: BoolExpr, context: CompileContext) -> int:
    """Emit gates computing ``expr`` and return the qubit holding the result."""
    kind = type(expr)
    if kind is Atom:
        if expr.name not in context.fact_qubits:
            raise NetworkError(f"atom {expr.name!r} is not bound to a qubit")
        return context.fact_qubits[expr.name]
    if kind is And or kind is Or:
        connective = "and" if kind is And else "or"
        qubits = [compile_expr(op, context) for op in expr.operands]
        return reduce(lambda qa, qb: _emit_pair(connective, qa, qb, context), qubits)
    if kind is Not:
        source = compile_expr(expr.operand, context)
        key = ("not", source)
        if (hit := context._shared(key)) is not None:
            return hit
        target = context.fresh()
        context.gates.append(CNOT(source, target))
        context.gates.append(X(target))
        context._memo[key] = target
        return target
    if kind is Implies:
        return compile_expr(Or(Not(expr.left), expr.right), context)
    raise TypeError(f"not a boolean expression: {expr!r}")


def _emit_pair(kind: str, qa: int, qb: int, context: CompileContext) -> int:
    if qa == qb:
        return qa  # x & x == x | x == x
    key = (kind, qa, qb)
    if (hit := context._shared(key)) is not None:
        return hit
    target = context.fresh()
    if kind == "and":
        context.gates.append(CCNOT(qa, qb, target))
    else:
        context.gates.append(CNOT(qa, target))
        context.gates.append(CNOT(qb, target))
        context.gates.append(CCNOT(qa, qb, target))
    context._memo[key] = target
    return target


@dataclass
class CompiledCircuit:
    """A lowered network: the circuit plus its qubit and bit assignments."""

    circuit: Circuit
    input_map: dict[str, int]
    output_map: dict[str, tuple[int, int]]  # fact -> (qubit measured, classical bit)
    ancilla_count: int

    def metadata(self) -> dict:
        """JSON-friendly summary (widths, maps, labels, gate tallies)."""
        from .circuit import gate_counts

        return {
            "num_qubits": self.circuit.num_qubits,
            "num_clbits": self.circuit.num_clbits,
            "ancilla_count": self.ancilla_count,
            "input_map": dict(self.input_map),
            "output_map": {f: list(qc) for f, qc in self.output_map.items()},
            "qubit_labels": {str(k): v for k, v in sorted(self.circuit.qubit_labels.items())},
            "clbit_labels": {str(k): v for k, v in sorted(self.circuit.clbit_labels.items())},
            "gate_counts": gate_counts(self.circuit),
        }


def compile_network(
    network: RuleNetwork, options: CompileOptions | None = None
) -> CompiledCircuit:
    """Lower a rule network to a reversible circuit.

    Input facts take qubits 0..k-1 in declaration order, ancillae follow,
    and each output fact is measured into the classical bit matching its
    position in the output declaration. Deterministic: identical network
    and options give an identical gate list.
    """
    options = options or CompileOptions()
    input_map = {fact: i for i, fact in enumerate(network.input_facts)}
    context = CompileContext(input_map, len(network.input_facts), options)
    result_facts: dict[int, str] = {}
    for rule in network.ordered_rules:
        qubit = compile_expr(rule.antecedent, context)
        context.fact_qubits[rule.consequent] = qubit
        result_facts.setdefault(qubit, rule.consequent)

    num_inputs = len(network.input_facts)
    measure_plan: list[tuple[str, int]] = []
    for fact in network.outputs:
        qubit = context.fact_qubits[fact]
        if qubit < num_inputs and not options.measure_inputs_directly:
            copy = context.fresh()
            context.gates.append(CNOT(qubit, copy))
            result_facts.setdefault(copy, fact)
            qubit = copy
        measure_plan.append((fact, qubit))

    qubit_labels = {i: fact for fact, i in input_map.items()}
    qubit_labels.update({q: f for q, f in result_facts.items() if q >= num_inputs})
    clbit_labels = {i: fact for i, (fact, _) in enumerate(measure_plan)}
    circuit = Circuit(context.num_qubits, len(network.outputs), qubit_labels, clbit_labels)
    circuit.extend(context.gates)
    output_map: dict[str, tuple[int, int]] = {}
    for clbit, (fact, qubit) in enumerate(measure_plan):
        circuit.append(Measure(qubit, clbit))
        output_map[fact] = (qubit, clbit)
    return CompiledCircuit(circuit, input_map, output_map, context.ancilla_count)


# ---------------------------------------------------------------------------
# Verification against the classical evaluator
# ---------------------------------------------------------------------------


# Verification refuses, with a VerificationError, to list more
# (assignment, output) mismatches than this.
MAX_MISMATCHES = 10_000


@dataclass(frozen=True)
class Mismatch:
    assignment: tuple[tuple[str, int], ...]
    fact: str
    expected: int
    actual: int


@dataclass(frozen=True)
class VerificationReport:
    assignments_checked: int
    mismatches: tuple[Mismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def __str__(self) -> str:
        if self.ok:
            return f"verified {self.assignments_checked} assignments, no mismatches"
        lines = [
            f"{len(self.mismatches)} mismatches over {self.assignments_checked} assignments:"
        ]
        for m in self.mismatches:
            given = ", ".join(f"{fact}={bit}" for fact, bit in m.assignment)
            lines.append(f"  [{given}] {m.fact}: expected {m.expected}, got {m.actual}")
        return "\n".join(lines)


def _check_maps(network: RuleNetwork, compiled: CompiledCircuit) -> None:
    """Refuse maps that verification cannot read.

    Every input fact needs a qubit of the circuit, and every output a fact
    of the network and a classical bit of the circuit.
    """
    num_qubits, num_clbits = compiled.circuit.num_qubits, compiled.circuit.num_clbits
    for fact in network.input_facts:
        if fact not in compiled.input_map:
            raise CompileError(f"input fact {fact!r} has no qubit in the input map")
        qubit = compiled.input_map[fact]
        if not 0 <= qubit < num_qubits:
            raise CompileError(
                f"input map puts {fact!r} on qubit {qubit}, "
                f"outside the {num_qubits}-qubit circuit"
            )
    known = set(network.input_facts).union(network.consequents)
    for fact, (_, clbit) in compiled.output_map.items():
        if fact not in known:
            raise CompileError(f"output map names {fact!r}, which is no fact of the network")
        if not 0 <= clbit < num_clbits:
            raise CompileError(
                f"output map reads {fact!r} from classical bit {clbit}, "
                f"outside the {num_clbits} classical bits"
            )


def verify_compilation(
    network: RuleNetwork,
    compiled: CompiledCircuit,
    max_inputs: int = 24,
    assignments: Iterable[Mapping[str, int]] | None = None,
) -> VerificationReport:
    """Compare circuit semantics against forward evaluation.

    By default every one of the ``2^k`` input assignments is checked
    (``k`` capped at ``max_inputs``), and mismatches come by assignment
    word (bit ``i`` is input ``i``) ascending, then in ``output_map``
    order. Pass ``assignments`` to check a chosen list instead:
    mismatches then come in list order, a repeated assignment is
    reported again, and a missing or unknown input fact raises the
    :class:`NetworkError` of :func:`~qrbs.rules.evaluate_network`.
    Either way the rules and the circuit run on bit-planes, ancillae
    start at 0, as in a real run, and a mismatch lists its assignment's
    values as 0 or 1.

    A :class:`CompileError` refuses an ``input_map`` that misses an input
    fact or leaves the qubits, and an ``output_map`` that names a fact the
    network lacks or leaves the classical bits.

    Mismatches are counted before any is decoded; with more than
    ``MAX_MISMATCHES`` of them, a :class:`VerificationError` with the
    count is raised instead of a report.
    """
    _check_maps(network, compiled)
    facts = network.input_facts
    if assignments is None:
        if len(facts) > max_inputs:
            raise CompileError(
                f"exhaustive verification capped at {max_inputs} inputs, got {len(facts)}"
            )
        rows = None
    else:
        rows = (_input_bits(network, assignment) for assignment in assignments)

    wrong_batches = []  # (ones, input, expected and wrong planes) of the batches with a mismatch
    checked = count = 0
    for ones, inputs, _ in planes.sweep(facts, rows):
        checked += ones.bit_length()
        values = dict(inputs)
        for rule in network.ordered_rules:
            values[rule.consequent] = planes.evaluate(rule.antecedent, values, ones)
        qubits = [0] * compiled.circuit.num_qubits
        for fact, plane in inputs.items():
            qubits[compiled.input_map[fact]] = plane
        measured = planes.run(compiled.circuit, qubits, ones)
        expected = {fact: values[fact] for fact in compiled.output_map}
        wrong = {
            fact: expected[fact] ^ measured[clbit]
            for fact, (_, clbit) in compiled.output_map.items()
        }
        found = sum(plane.bit_count() for plane in wrong.values())
        count += found
        if found and count <= MAX_MISMATCHES:
            wrong_batches.append((ones, inputs, expected, wrong))
    if count > MAX_MISMATCHES:
        raise VerificationError(
            f"{count} mismatches over {checked} assignments, "
            f"more than the {MAX_MISMATCHES} a report lists"
        )
    mismatches: list[Mismatch] = []
    for ones, inputs, expected, wrong in wrong_batches:
        # bit j of an input plane is bit j % 8 of its byte j // 8: no big-int shift per input
        size = (ones.bit_length() + 7) >> 3
        # a Mismatch lists facts sorted
        given = [(fact, inputs[fact].to_bytes(size, "little")) for fact in sorted(inputs)]
        for j in planes.set_bits(reduce(or_, wrong.values())):
            assignment = tuple((fact, data[j >> 3] >> (j & 7) & 1) for fact, data in given)
            for fact, plane in wrong.items():
                if plane >> j & 1:
                    bit = expected[fact] >> j & 1
                    mismatches.append(Mismatch(assignment, fact, bit, bit ^ 1))
    return VerificationReport(checked, tuple(mismatches))
