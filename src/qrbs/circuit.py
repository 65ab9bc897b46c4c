"""Reversible-circuit intermediate representation.

The gate set is {X, CNOT, CCNOT} plus terminal measurement, so every
circuit acts as a permutation of computational basis states, which the
tests check against a brute-force permutation table of their own.
Circuits export to an OpenQASM 2.0 subset and import back losslessly.
The gates are plain frozen records that check nothing: a gate enters a
:class:`Circuit` only through :meth:`Circuit.append`, the one place that
checks gates, so the engines run them unchecked.

Qubit ``k`` corresponds to bit ``k`` of a basis index (q0 is least
significant); classical bits follow the same convention.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import CircuitError, QasmError

__all__ = [
    "X",
    "CNOT",
    "CCNOT",
    "Measure",
    "Gate",
    "Circuit",
    "MAX_REGISTER",
    "export_qasm",
    "gate_counts",
    "gate_qubits",
    "import_qasm",
]

@dataclass(frozen=True)
class X:
    target: int


@dataclass(frozen=True)
class CNOT:
    control: int
    target: int


@dataclass(frozen=True)
class CCNOT:
    control1: int
    control2: int
    target: int


@dataclass(frozen=True)
class Measure:
    qubit: int
    clbit: int


Gate = X | CNOT | CCNOT | Measure


def gate_qubits(gate: Gate) -> tuple[int, ...]:
    kind = type(gate)
    if kind is CCNOT:
        return (gate.control1, gate.control2, gate.target)
    if kind is CNOT:
        return (gate.control, gate.target)
    if kind is X:
        return (gate.target,)
    if kind is Measure:
        return (gate.qubit,)
    raise TypeError(f"not a gate: {gate!r}")


def _check_index(index: object, what: str) -> int:
    """``index`` as a plain ``int``; refuse a ``bool``, or a value with no ``__index__``."""
    if isinstance(index, bool) or not hasattr(type(index), "__index__"):
        raise CircuitError(f"{what} {index!r} is not an integer")
    return operator.index(index)


def _int_indices(gate: Gate) -> Gate:
    """``gate`` rebuilt with plain ``int`` indices; refuse a ``bool`` or non-integer index.

    The engines shift by the indices as given, and ``1 << np.uint8(9)`` is 0.
    """
    if type(gate) is Measure:
        qubit = _check_index(gate.qubit, "qubit index")
        return Measure(qubit, _check_index(gate.clbit, "classical bit index"))
    return type(gate)(*(_check_index(qubit, "qubit index") for qubit in gate_qubits(gate)))


class Circuit:
    """Ordered gate list over ``num_qubits`` qubits and ``num_clbits`` classical bits.

    :meth:`append` is the one check on a gate; the gates themselves are
    plain records. It admits only gates whose indices are integers
    (``bool`` excluded; a numpy integer is stored as the plain ``int`` it
    stands for) in range, which also refuses a negative index, and
    whose qubits are distinct: a CNOT's control differs from its target
    and a CCNOT's three qubits from one another. It admits no unitary gate
    on a qubit after it was measured, and each classical bit is written by
    at most one measurement. The registers and :attr:`gates` are
    read-only, so :meth:`append` and :meth:`extend` are the only way in and
    every engine runs the gates unchecked. Labels are metadata only and
    never affect behaviour.
    """

    def __init__(
        self,
        num_qubits: int,
        num_clbits: int = 0,
        qubit_labels: Mapping[int, str] | None = None,
        clbit_labels: Mapping[int, str] | None = None,
    ):
        num_qubits = _check_index(num_qubits, "qubit register size")
        num_clbits = _check_index(num_clbits, "classical register size")
        if num_qubits < 0 or num_clbits < 0:
            raise CircuitError("register sizes must be non-negative")
        self._num_qubits = num_qubits
        self._num_clbits = num_clbits
        self._gates: list[Gate] = []
        self.qubit_labels: dict[int, str] = dict(qubit_labels or {})
        self.clbit_labels: dict[int, str] = dict(clbit_labels or {})
        self._measured: set[int] = set()
        self._written_clbits: set[int] = set()

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def num_clbits(self) -> int:
        return self._num_clbits

    @property
    def gates(self) -> tuple[Gate, ...]:
        return tuple(self._gates)

    def append(self, gate: Gate) -> "Circuit":
        qubits = gate_qubits(gate)
        for qubit in qubits:
            if type(qubit) is not int:
                return self.append(_int_indices(gate))
            if not 0 <= qubit < self._num_qubits:
                raise CircuitError(
                    f"qubit {qubit} out of range for a {self.num_qubits}-qubit circuit"
                )
        kind = type(gate)
        if kind is Measure:
            if type(gate.clbit) is not int:
                return self.append(_int_indices(gate))
            if not 0 <= gate.clbit < self._num_clbits:
                raise CircuitError(
                    f"classical bit {gate.clbit} out of range "
                    f"({self.num_clbits} classical bits)"
                )
            if gate.clbit in self._written_clbits:
                raise CircuitError(f"classical bit {gate.clbit} already written")
            self._written_clbits.add(gate.clbit)
            self._measured.add(gate.qubit)
        else:
            if kind is not X and len(set(qubits)) < len(qubits):
                if kind is CNOT:
                    raise CircuitError(f"control equals target (qubit {gate.target})")
                raise CircuitError(f"controls and target must be pairwise distinct, got {qubits}")
            if self._measured and not self._measured.isdisjoint(qubits):
                touched = self._measured.intersection(qubits)
                raise CircuitError(f"unitary gate on qubit {min(touched)} after it was measured")
        self._gates.append(gate)
        return self

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        for gate in gates:
            self.append(gate)
        return self

    def copy(self) -> "Circuit":
        other = Circuit(self.num_qubits, self.num_clbits, self.qubit_labels, self.clbit_labels)
        other.extend(self.gates)
        return other

    def reversed(self) -> "Circuit":
        """Gates in reverse order; undoes the circuit (every gate is an involution)."""
        if self._measured:
            raise CircuitError("cannot reverse a circuit that contains measurements")
        other = Circuit(self.num_qubits, self.num_clbits, self.qubit_labels, self.clbit_labels)
        other.extend(reversed(self.gates))
        return other

    def __len__(self) -> int:
        return len(self._gates)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits
            and self.num_clbits == other.num_clbits
            and self._gates == other._gates
        )

    def __repr__(self) -> str:
        return (
            f"Circuit(num_qubits={self.num_qubits}, num_clbits={self.num_clbits}, "
            f"gates={len(self._gates)})"
        )


def gate_counts(circuit: Circuit) -> dict:
    """Tallies per gate kind plus width summary; JSON-friendly."""
    names = {X: "x", CNOT: "cx", CCNOT: "ccx", Measure: "measure"}
    counts = dict.fromkeys(names.values(), 0)
    for gate in circuit.gates:
        counts[names[type(gate)]] += 1
    counts["total"] = len(circuit)
    counts["num_qubits"] = circuit.num_qubits
    counts["num_clbits"] = circuit.num_clbits
    return counts


# ---------------------------------------------------------------------------
# OpenQASM 2.0 subset interchange
# ---------------------------------------------------------------------------


def export_qasm(circuit: Circuit) -> str:
    """Serialize to the OpenQASM 2.0 subset {x, cx, ccx, measure}.

    Output is deterministic, LF-terminated, one statement per line.
    """
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.num_qubits}];"]
    if circuit.num_clbits:
        lines.append(f"creg c[{circuit.num_clbits}];")
    for gate in circuit.gates:
        match gate:
            case X(target):
                lines.append(f"x q[{target}];")
            case CNOT(control, target):
                lines.append(f"cx q[{control}],q[{target}];")
            case CCNOT(control1, control2, target):
                lines.append(f"ccx q[{control1}],q[{control2}],q[{target}];")
            case Measure(qubit, clbit):
                lines.append(f"measure q[{qubit}] -> c[{clbit}];")
    return "\n".join(lines) + "\n"


# Largest qreg/creg size import_qasm accepts; compiled networks stay far below it.
MAX_REGISTER = 1 << 20

_MAX_DIGITS = len(str(MAX_REGISTER))

# The statements import_qasm reads, as one pattern: a register declaration
# (groups 1-3), a gate (groups 4-5) or a measurement (groups 6-7).
_QASM_STATEMENT_RE = re.compile(
    r"(?:(qreg|creg)\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]"
    r"|(x|cx|ccx)\s+(.+)"
    r"|measure\s+(.+?)\s*->\s*(.+))\Z"
)
_QASM_INCLUDE_RE = re.compile(r'include\s+"[^"]*"\Z')  # read and ignored
_QASM_REF_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]\Z")
_QASM_GATES = {"x": (X, 1), "cx": (CNOT, 2), "ccx": (CCNOT, 3)}  # name -> (gate, arity)


def _qasm_number(digits: str, what: str) -> int:
    # int() of a long enough digit string raises a bare ValueError (and is slow), so
    # anything with more digits than MAX_REGISTER is refused before converting
    if len(digits.lstrip("0")) > _MAX_DIGITS:
        shown = digits if len(digits) <= 24 else digits[:20] + "..."
        raise QasmError(
            f"{what} {shown} ({len(digits)} digits) exceeds the limit of {MAX_REGISTER}"
        )
    return int(digits)


class _References(dict):
    """Reference text -> index in one register, for one import.

    A text is parsed and checked once, on first use; only references to a
    declared register get in, and a register, once declared, cannot change.
    """

    def __init__(self, what: str):
        super().__init__()
        self.what = what  # "qubit" or "classical bit", for messages
        self.register: tuple[str, int] | None = None  # (name, size) once declared

    def __missing__(self, token: str) -> int:
        text = token.strip()
        match = _QASM_REF_RE.match(text)
        if not match or self.register is None or match[1] != self.register[0]:
            raise QasmError(f"bad {self.what} reference {text!r}")
        index = self[token] = _qasm_number(match[2], f"{self.what} index")
        return index


def import_qasm(text: str) -> Circuit:
    """Parse the exporter's OpenQASM subset back into a :class:`Circuit`."""
    qubits = _References("qubit")
    clbits = _References("classical bit")
    pending: list[Gate] = []

    code = (raw.split("//", 1)[0] for raw in text.splitlines())  # '//' starts a comment
    statements = list(filter(None, [part.strip() for line in code for part in line.split(";")]))
    if not statements or statements[0] != "OPENQASM 2.0":
        raise QasmError("missing OPENQASM 2.0 header")
    for statement in statements[1:]:
        match = _QASM_STATEMENT_RE.match(statement)
        if match is None:
            if _QASM_INCLUDE_RE.match(statement):
                continue
            raise QasmError(f"unsupported statement {statement!r}")
        group = match.lastindex
        if group == 5:
            args = list(map(qubits.__getitem__, match[5].split(",")))
            gate, arity = _QASM_GATES[match[4]]
            if len(args) != arity:
                raise QasmError(f"wrong argument count in {statement!r}")
            pending.append(gate(*args))
        elif group == 7:
            pending.append(Measure(qubits[match[6]], clbits[match[7]]))
        else:
            kind, name = match[1], match[2]
            size = _qasm_number(match[3], f"{kind} size")
            if size > MAX_REGISTER:
                raise QasmError(f"{kind} of size {size} exceeds the limit of {MAX_REGISTER}")
            refs = qubits if kind == "qreg" else clbits
            if refs.register is not None:
                which = "quantum" if kind == "qreg" else "classical"
                raise QasmError(f"multiple {which} registers are not supported")
            refs.register = (name, size)

    if qubits.register is None:
        raise QasmError("no quantum register declared")
    circuit = Circuit(qubits.register[1], clbits.register[1] if clbits.register else 0)
    circuit.extend(pending)
    return circuit
