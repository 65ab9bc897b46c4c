"""The dense engine: all ``2^n`` amplitudes of a state, moved by one gather kernel.

This is the only module of the package that imports numpy when it loads,
and :func:`qrbs.simulator.run` loads it on the first
``engine="statevector"`` run, so a process that only runs the fast engine
never pays for numpy.

The kernel is used by both :func:`run` (once per circuit: no gate touches
a measured qubit, so every measurement reads the final basis state) and
:func:`apply_gate` (once per gate). It applies its gates as one
permutation: for each block of 2^16 output indices it pulls the indices
back through the gates in reverse, then gathers the amplitudes with
``np.take`` into the output array. The pull-back is planned once per call,
before the blocks: a gate whose controls no later gate writes flips the
index by a function of the output index alone, so such gates are folded
into a few precomputed tables, one per mask of controls above the block
bits, and a block's start selects the tables whose mask it satisfies.
Blocks whose starts select the same tables form a group; each thread XORs
a group's tables into one combined table, and a block's indices are that
table XOR its start, one XOR per block. Gates from the first one whose
control a later gate writes on flip the index one by one. Compiled
circuits emit gates in dependency order, so their gates are tables only.
The indices are ``np.intp``, which ``np.take`` uses without converting.
Every index is an XOR of offsets, block start and gate masks, so it is in
range once every gate's qubits are: the kernel checks that once per call,
while it plans, because :func:`apply_gate` takes a gate no
:class:`Circuit` admitted, and the take then runs in ``mode="wrap"``,
which writes straight into its ``out`` array (the default ``mode="raise"``
gathers into a buffer and copies it).

The kernel writes only the blocks that hold amplitude. Its output comes
from ``np.zeros``, which numpy allocates with ``calloc``, so the pages of
a large state are not backed by memory until they are written. Each thread
gathers a block into its own one-block scratch buffer, which stays in
cache, and copies it into the output only if it holds a nonzero byte; the
same test flags the block as occupied, so :func:`run` finds the measured
basis state in the occupied blocks alone, with no second pass over the
state. A run from a basis state occupies one block and writes only that
one. The blocks are independent, so
the two halves of the output range are gathered on two threads when two
CPUs are usable (numpy releases the interpreter lock in these loops).
Every call returns a new array, so no run writes a state that a caller
holds.

:func:`init_state` allocates complex64: a permutation circuit run from a
basis state only ever holds the amplitudes 0 and 1, which complex64 holds
exactly, at half the memory traffic of complex128. A caller-built state
keeps its own dtype through :func:`apply_gate`.
"""

from __future__ import annotations

import operator
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .circuit import CCNOT, CNOT, Circuit, Gate, Measure, X
from .errors import SimulationError

__all__ = ["DEFAULT_MAX_QUBITS", "StateVector", "apply_gate", "init_state", "run"]

# 2^26 complex64 amplitudes is 512 MiB, and run() holds two states while it
# gathers one into the other (1 GiB at peak); larger needs an explicit
# override.
DEFAULT_MAX_QUBITS = 26

# Output indices per block of the fused gather: 2^16 indices (512 KiB as
# 64-bit np.intp) stay in cache while a run's tables are XORed into them.
_BLOCK_BITS = 16


def _bit(qubit: int) -> int:
    if isinstance(qubit, bool):  # an int to <<, but Circuit refuses it
        raise TypeError(qubit)
    return 1 << qubit


def _gate_masks(gate: Gate) -> tuple[int, int]:
    try:
        match gate:
            case X(target):
                return 0, _bit(target)
            case CNOT(control, target):
                return _bit(control), _bit(target)
            case CCNOT(control1, control2, target):
                return _bit(control1) | _bit(control2), _bit(target)
    except TypeError:  # apply_gate takes gates no Circuit checked
        raise SimulationError(f"gate {gate!r} has a non-integer qubit index") from None
    raise SimulationError(f"not a unitary gate: {gate!r}")


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _flip(index: np.ndarray, control_mask: int, target_mask: int, flips: np.ndarray) -> None:
    """XOR ``target_mask`` into ``index`` where every bit of ``control_mask`` is set."""
    if not control_mask:
        index ^= target_mask
        return
    np.bitwise_and(index, control_mask, out=flips)
    np.equal(flips, control_mask, out=flips)
    flips *= target_mask
    index ^= flips


def _plan(
    gates: Sequence[Gate], num_qubits: int
) -> tuple[np.ndarray, list[tuple[int, np.ndarray]], list[tuple[int, int]]]:
    """Plan the pull-back of a run of gates on ``num_qubits`` qubits, block by block.

    A block is ``2^min(16, num_qubits)`` output indices. The gates are
    walked last first; a gate that names a qubit at or above ``num_qubits``
    raises :class:`SimulationError`. A gate is static when no gate pulled
    back before it wrote one of its controls: its flip then depends only on
    the output index, as ``(low controls set) << target`` within a block
    times ``start & high == high`` for the block. Static gates with the same
    high-control mask share one table, the XOR of their low-bit flips.
    Returns ``(base, tables, steps)``: ``base`` is the block offsets XOR the
    table of the gates with no high control, ``tables`` pairs each other
    high-control mask with its table, and ``steps`` holds ``(control mask,
    target mask)`` for every gate from the first non-static one on, applied
    one by one after the tables.
    """
    block_bits = min(_BLOCK_BITS, num_qubits)
    offsets = np.arange(1 << block_bits, dtype=np.intp)
    low = (1 << block_bits) - 1
    tables: dict[int, np.ndarray] = {0: offsets.copy()}
    steps: list[tuple[int, int]] = []
    written = 0  # targets of the static gates planned so far
    for gate in reversed(gates):
        control_mask, target_mask = _gate_masks(gate)
        if (control_mask | target_mask) >> num_qubits:
            raise SimulationError(f"gate {gate!r} out of range for {num_qubits} qubits")
        if steps or control_mask & written:
            steps.append((control_mask, target_mask))
            continue
        written |= target_mask
        low_controls = control_mask & low
        high = control_mask & ~low
        table = tables.get(high)
        if table is None:
            table = tables[high] = np.zeros_like(offsets)
        table ^= np.where(offsets & low_controls == low_controls, target_mask, 0)
    base = tables.pop(0)
    return base, list(tables.items()), steps


def _apply_segment(amps: np.ndarray, gates: Sequence[Gate]) -> tuple[np.ndarray, np.ndarray]:
    """Apply a run of unitary gates as one gather, as the module docstring lays out.

    Returns a new output array and one flag per block of output indices, set
    when the block holds a nonzero byte, for :func:`_occupied_index`. X,
    CNOT and CCNOT are each their own inverse, so output amplitude ``i`` is
    input amplitude ``g1(g2(...gk(i)))``: the index is pulled back through
    the gates from last to first, and each thread reuses preallocated
    buffers. :func:`_plan` raises :class:`SimulationError` before any gather
    if a gate names a qubit outside the state: only then is every index
    below ``amps.size``, which the unbuffered ``mode="wrap"`` take relies
    on.
    """
    base, tables, steps = _plan(gates, amps.size.bit_length() - 1)
    block = base.size
    blocks = amps.size // block
    out = np.zeros(amps.shape, amps.dtype)  # not zeros_like, which writes every page
    occupied = np.zeros(blocks, dtype=bool)
    errors: list[BaseException] = []

    selector = 0  # the bits of a block's start that choose its tables
    for high, _ in tables:
        selector |= high

    def selected_by(k: int) -> int:
        return k * block & selector

    def gather(first: int, last: int) -> None:
        try:
            index, combined = np.empty(block, np.intp), np.empty(block, np.intp)
            flips = np.empty(block, np.intp)
            scratch = np.empty(block, amps.dtype)
            ordered = sorted(range(first, last), key=selected_by)
            for group, members in groupby(ordered, key=selected_by):
                source = base
                for high, table in tables:
                    if group & high == high:
                        source = np.bitwise_xor(source, table, out=combined)
                for k in members:
                    start = k * block
                    np.bitwise_xor(source, start, out=index)
                    for control_mask, target_mask in steps:
                        _flip(index, control_mask, target_mask, flips)
                    np.take(amps, index, out=scratch, mode="wrap")
                    occupied[k] = scratch.view(np.uint8).max() > 0
                    if occupied[k]:
                        out[start : start + block] = scratch
        except BaseException as exc:  # re-raised by the calling thread
            errors.append(exc)

    threads = min(2, _usable_cpus(), blocks)
    bounds = [blocks * k // threads for k in range(threads + 1)]
    helpers = [
        threading.Thread(target=gather, args=span) for span in zip(bounds[1:-1], bounds[2:])
    ]
    for helper in helpers:
        helper.start()
    gather(bounds[0], bounds[1])
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    return out, occupied


@dataclass
class StateVector:
    """Dense state: ``2^num_qubits`` complex amplitudes."""

    num_qubits: int
    amplitudes: np.ndarray

    def basis_index(self, tol: float = 1e-9) -> int:
        """The index of the single occupied basis state.

        Raises :class:`SimulationError` if the amplitude weight is spread
        over more than one basis state (within ``tol``). A complex64 state
        is scanned as one ``uint64`` word per amplitude; a ``-0.0`` part
        makes a word nonzero, so the candidates are filtered by magnitude.
        """
        amps = self.amplitudes
        return _locate(amps, np.flatnonzero(_words(amps)), tol)


def _words(amps: np.ndarray) -> np.ndarray:
    """What the scans look at: a complex64 amplitude as one ``uint64`` word, else as is."""
    return amps.view(np.uint64) if amps.dtype == np.complex64 else amps


def _locate(amps: np.ndarray, nonzero: np.ndarray, tol: float) -> int:
    """The basis index, given every nonzero word's index in ascending order."""
    magnitudes = np.abs(amps[nonzero])
    if not magnitudes.any():
        raise SimulationError("zero state has no basis index")
    top = int(np.argmax(magnitudes))
    rest = np.delete(magnitudes, top)
    if abs(magnitudes[top] - 1.0) > tol or (rest.size and float(rest.max()) > tol):
        raise SimulationError("state is not a computational basis state")
    return int(nonzero[top])


def _occupied_index(amps: np.ndarray, occupied: np.ndarray, tol: float = 1e-9) -> int:
    """:meth:`StateVector.basis_index`, scanning only the blocks flagged in ``occupied``.

    ``occupied`` is :func:`_apply_segment`'s per-block record. An unflagged
    block holds only zero bytes, hence no nonzero word, so the nonzero
    words found here, and the verdict on them, are the full scan's.
    """
    rows = np.flatnonzero(occupied)
    words = _words(amps).reshape(occupied.size, -1)
    row, column = np.nonzero(words[rows])
    return _locate(amps, rows[row] * words.shape[1] + column, tol)


def init_state(num_qubits: int, basis: int = 0, max_qubits: int | None = None) -> StateVector:
    """A dense state with amplitude 1 at ``basis`` and 0 elsewhere.

    A non-integer (to ``operator.index``) or out-of-range argument raises ValueError.
    """
    try:
        num_qubits, basis = operator.index(num_qubits), operator.index(basis)
    except TypeError:
        raise ValueError(f"non-integer num_qubits {num_qubits!r} or basis {basis!r}") from None
    cap = DEFAULT_MAX_QUBITS if max_qubits is None else max_qubits
    if num_qubits > cap:
        raise SimulationError(
            f"{num_qubits} qubits exceeds the dense-engine cap of {cap} "
            f"(override with max_qubits)"
        )
    if num_qubits < 0:
        raise ValueError("num_qubits must be non-negative")
    if not 0 <= basis < 1 << num_qubits:
        raise ValueError(f"basis index {basis} out of range for {num_qubits} qubits")
    _check_memory(num_qubits, np.complex64)
    amplitudes = np.zeros(1 << num_qubits, dtype=np.complex64)
    amplitudes[basis] = 1.0
    return StateVector(num_qubits, amplitudes)


def _check_memory(num_qubits: int, dtype: np.dtype | type) -> None:
    """Fail unless two dense states, the gather's peak in :func:`run`, fit in RAM."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return  # the platform does not report physical memory
    state_bytes = np.dtype(dtype).itemsize << num_qubits
    if 2 * state_bytes > physical:
        raise SimulationError(
            f"{num_qubits} qubits need two dense states of {state_bytes / 2**30:.1f} GiB, "
            f"but physical memory is {physical / 2**30:.1f} GiB"
        )


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one unitary gate; returns a new state, input untouched.

    Raises :class:`SimulationError` unless the amplitudes are a 1-D array of
    ``2^num_qubits`` entries: the kernel takes the width from their number.
    """
    shape = getattr(state.amplitudes, "shape", None)
    if shape != (2**state.num_qubits,):
        raise SimulationError(f"{state.num_qubits} qubits need 2^n amplitudes, not shape {shape}")
    amplitudes, _ = _apply_segment(state.amplitudes, [gate])
    return StateVector(state.num_qubits, amplitudes)


def run(
    circuit: Circuit, initial: int, max_qubits: int | None = None
) -> tuple[tuple[int, ...], StateVector]:
    """Run ``circuit`` from the basis state ``initial``; returns the bits and the final state.

    :class:`Circuit` lets no gate read or write a qubit after it is
    measured, so a measured qubit ends the circuit holding the bit it was
    measured with. The unitary gates are therefore applied as one gather,
    and every measurement reads the one basis index located after it
    (``initial`` when there is no unitary gate, and no gather). A circuit
    with no measurement locates nothing.
    """
    state = init_state(circuit.num_qubits, initial, max_qubits)
    measures = [gate for gate in circuit.gates if type(gate) is Measure]
    unitary = [gate for gate in circuit.gates if type(gate) is not Measure]
    located = initial
    if unitary:
        amplitudes, occupied = _apply_segment(state.amplitudes, unitary)
        state = StateVector(state.num_qubits, amplitudes)
        if measures:
            located = _occupied_index(amplitudes, occupied)
    bits = [0] * circuit.num_clbits
    for gate in measures:
        bits[gate.clbit] = located >> gate.qubit & 1
    return tuple(bits), state
