"""Bit-sliced evaluation of rules and circuits over many assignments at once.

A *plane* is a Python ``int`` whose bit ``j`` is a fact's (or a qubit's)
value under assignment ``j`` of a batch; every connective and every gate
then acts on all assignments of the batch with one integer operation
(bit-slicing, after Biham's DES implementation, FSE 1997). :func:`sweep`
is the one source of batches, ``2^CHUNK_BITS`` assignments each: every
assignment of some names in turn, or chosen rows. Over every assignment,
the first ``CHUNK_BITS`` names get fixed stripe patterns and the rest are
all zeros or all ones within a batch, so memory stays flat at any input
count. :func:`run` checks no gate: a :class:`~qrbs.circuit.Circuit`
admits only gates in range.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import islice
from operator import and_, or_
from typing import Iterable, Iterator, Mapping, Sequence

from .circuit import CCNOT, CNOT, Circuit, Measure, X
from .errors import NetworkError
from .rules import And, Atom, BoolExpr, Implies, Not, Or

CHUNK_BITS = 16


@lru_cache(maxsize=None)
def _stripe(bit: int, width: int) -> int:
    """Bit ``bit`` of ``j``, for every ``j`` below ``2^width``."""
    period = 1 << bit + 1
    plane = ((1 << (1 << bit)) - 1) << (1 << bit)
    while period < 1 << width:
        plane |= plane << period
        period <<= 1
    return plane


# a column's 0/1 values as bytes -> the ASCII digits int(..., 2) reads
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def sweep(
    names: Sequence[str], rows: Iterable[Sequence[int]] | None = None
) -> Iterator[tuple[int, dict[str, int], int]]:
    """Assignments to ``names`` as planes, ``2^CHUNK_BITS`` assignments per batch.

    Yields, per batch, the all-ones plane over the batch, each name's
    plane, and the batch's ``offset``. With ``rows`` omitted, every
    assignment is swept: bit ``j`` of a batch is the word ``offset + j``,
    and bit ``i`` of that word is ``names[i]``. Given ``rows`` of 0/1
    bits in ``names`` order, bit ``j`` of a batch is row ``offset + j``;
    a row of another length, in any batch, raises :class:`ValueError`.
    """
    if rows is None:
        width = min(len(names), CHUNK_BITS)
        ones = (1 << (1 << width)) - 1
        low = [_stripe(i, width) for i in range(width)]
        for chunk in range(1 << len(names) - width):
            high = [ones if chunk >> i & 1 else 0 for i in range(len(names) - width)]
            yield ones, dict(zip(names, low + high)), chunk << CHUNK_BITS
        return
    rows, offset = iter(rows), 0
    while batch := list(islice(rows, 1 << CHUNK_BITS)):
        columns = [
            int(bytes(column[::-1]).translate(_DIGITS), 2)
            for column in zip(*batch, strict=True)
        ]
        if len(columns) != len(names):
            raise ValueError(f"rows of {len(columns)} bits for {len(names)} names")
        yield (1 << len(batch)) - 1, dict(zip(names, columns)), offset
        offset += len(batch)


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
    """Run ``circuit`` from one plane per qubit; returns one plane per classical bit."""
    q = list(qubits)
    bits = [0] * circuit.num_clbits
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
