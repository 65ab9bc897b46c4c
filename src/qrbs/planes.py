"""Bit-sliced evaluation of rules and circuits over many assignments at once.

A *plane* is a Python ``int`` whose bit ``j`` is a fact's (or a qubit's)
value under assignment ``j`` of a chunk; every connective and every gate
then acts on all assignments of the chunk with one integer operation
(bit-slicing, after Biham's DES implementation, FSE 1997). A chunk
covers ``2^CHUNK_BITS`` assignments: word ``chunk << CHUNK_BITS | j``
for bit ``j``. Inputs below ``CHUNK_BITS`` get fixed stripe patterns and
inputs above it are all zeros or all ones within a chunk, so memory
stays flat at any input count. :func:`pack` builds the same planes from
chosen rows instead, ``2^CHUNK_BITS`` rows at a time.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import islice
from operator import and_, or_
from typing import Iterable, Iterator, Mapping, Sequence

from .circuit import CCNOT, CNOT, Circuit, Measure, X
from .errors import NetworkError, SimulationError
from .rules import And, Atom, BoolExpr, Implies, Not, Or

CHUNK_BITS = 16


def chunks(num_inputs: int) -> range:
    """Chunk numbers covering all ``2^num_inputs`` assignments."""
    return range(1 << max(num_inputs - CHUNK_BITS, 0))


@lru_cache(maxsize=None)
def _stripe(bit: int, width: int) -> int:
    """Bit ``bit`` of ``j``, for every ``j`` below ``2^width``."""
    period = 1 << bit + 1
    plane = ((1 << (1 << bit)) - 1) << (1 << bit)
    while period < 1 << width:
        plane |= plane << period
        period <<= 1
    return plane


def input_planes(num_inputs: int, chunk: int) -> tuple[int, list[int]]:
    """The all-ones plane and one plane per input (input ``i`` is bit ``i`` of the word)."""
    width = min(num_inputs, CHUNK_BITS)
    ones = (1 << (1 << width)) - 1
    planes = [_stripe(i, width) for i in range(width)]
    planes += [ones if chunk >> i & 1 else 0 for i in range(num_inputs - width)]
    return ones, planes


# a column's 0/1 values as bytes -> the ASCII digits int(..., 2) reads
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def pack(rows: Iterable[Sequence[int]]) -> Iterator[tuple[int, list[int]]]:
    """Rows of 0/1 bits, ``2^CHUNK_BITS`` at a time, as planes: row ``j`` is bit ``j``.

    Yields, per batch, the all-ones plane over the batch's rows and one
    plane per column; every row must have the same length.
    """
    rows = iter(rows)
    while batch := list(islice(rows, 1 << CHUNK_BITS)):
        columns = [int(bytes(column[::-1]).translate(_DIGITS), 2) for column in zip(*batch)]
        yield (1 << len(batch)) - 1, columns


def evaluate(expr: BoolExpr, planes: Mapping[str, int], ones: int) -> int:
    """The plane of ``expr``; the bit-sliced twin of :func:`qrbs.rules.evaluate_expr`."""
    match expr:
        case Atom(name):
            if name not in planes:
                raise NetworkError(f"unassigned atom {name!r}")
            return planes[name]
        case Not(operand):
            return ones ^ evaluate(operand, planes, ones)
        case And(operands):
            return reduce(and_, (evaluate(op, planes, ones) for op in operands))
        case Or(operands):
            return reduce(or_, (evaluate(op, planes, ones) for op in operands))
        case Implies(left, right):
            return (ones ^ evaluate(left, planes, ones)) | evaluate(right, planes, ones)
    raise TypeError(f"not a boolean expression: {expr!r}")


def run(circuit: Circuit, qubits: Sequence[int], ones: int) -> list[int]:
    """Run ``circuit`` from one plane per qubit; returns one plane per classical bit.

    Raises the fast engine's :class:`SimulationError` for an object that
    is not a gate and for a gate beyond the registers.
    """
    q = list(qubits)
    bits = [0] * circuit.num_clbits
    try:
        for gate in circuit.gates:
            match gate:
                case X(target):
                    q[target] ^= ones
                case CNOT(control, target):
                    q[target] ^= q[control]
                case CCNOT(control1, control2, target):
                    q[target] ^= q[control1] & q[control2]
                case Measure(qubit, clbit):
                    bits[clbit] = q[qubit]
                case _:
                    raise SimulationError(f"not a gate: {gate!r}")
    except IndexError:
        registers = f"{circuit.num_qubits} qubits"
        if isinstance(gate, Measure):
            registers += f" and {circuit.num_clbits} classical bits"
        raise SimulationError(f"gate {gate!r} out of range for {registers}") from None
    return bits


# the set bits of each byte value, lowest first
_BYTE_BITS = tuple(tuple(j for j in range(8) if byte >> j & 1) for byte in range(256))


def set_bits(plane: int, offset: int = 0) -> list[int]:
    """Positions of the set bits of a non-negative ``plane``, ascending, each plus ``offset``.

    The plane is read a byte at a time, lowest byte first, and each
    non-zero byte contributes the positions :data:`_BYTE_BITS` lists for
    it; a clear bit costs nothing beyond its byte.
    """
    data = plane.to_bytes((plane.bit_length() + 7) >> 3, "little")
    starts = range(offset, offset + 8 * len(data), 8)
    return [start + j for start, byte in zip(starts, data) if byte for j in _BYTE_BITS[byte]]
