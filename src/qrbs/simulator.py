"""Two execution engines for reversible circuits.

The dense engine carries all ``2^n`` complex amplitudes; the fast engine
carries a single basis index, which is exact here because X/CNOT/CCNOT
only permute basis states. Measurement is deterministic bit extraction
from a basis state — there is no randomness anywhere, so identical runs
give identical results. Circuits whose state would need probabilistic
measurement are rejected.

Conventions: qubit ``k`` is bit ``k`` of the basis index (q0 least
significant); :attr:`RunResult.bitstring` prints classical bits most
significant first (c-high to c-low), matching the index convention.

The dense engine has one kernel, used by both :func:`run` (once per
maximal run of unitary gates between measurements) and :func:`apply_gate`
(once per gate). It applies the run of gates as one permutation: for each
block of 2^16 output indices it pulls the indices back through the gates
in reverse with in-place numpy integer shifts, ANDs and XORs, then gathers
the amplitudes with ``np.take`` into a new array. The state is read and
written once per run of gates rather than once per gate, and the block of
indices stays in cache. The blocks are independent, so the two halves of
the output range are gathered on two threads when two CPUs are usable
(numpy releases the interpreter lock in these loops).

:func:`init_state` allocates complex64: a permutation circuit run from a
basis state only ever holds the amplitudes 0 and 1, which complex64 holds
exactly, at half the memory traffic of complex128. A caller-built state
keeps its own dtype through :func:`apply_gate`.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .circuit import CCNOT, CNOT, Circuit, Gate, Measure, X, gate_qubits
from .errors import SimulationError

__all__ = [
    "DEFAULT_MAX_QUBITS",
    "BasisIndex",
    "RunResult",
    "StateVector",
    "apply_gate",
    "engines_agree",
    "init_state",
    "results_agree",
    "run",
]

# 2^26 complex64 amplitudes is 512 MiB, and run() holds two states while it
# gathers one into the other (1 GiB at peak); larger needs an explicit
# override.
DEFAULT_MAX_QUBITS = 26

# Output indices per block of the fused gather: 2^16 indices (256 KiB as
# int32) stay in cache while every gate of a run is pulled back through them.
_BLOCK_BITS = 16

BasisIndex = int


def _gate_masks(gate: Gate) -> tuple[int, int]:
    match gate:
        case X(target):
            return 0, 1 << target
        case CNOT(control, target):
            return 1 << control, 1 << target
        case CCNOT(control1, control2, target):
            return (1 << control1) | (1 << control2), 1 << target
    raise SimulationError(f"not a unitary gate: {gate!r}")


def _shift(index: np.ndarray, by: int, out: np.ndarray) -> None:
    if by >= 0:
        np.left_shift(index, by, out=out)
    else:
        np.right_shift(index, -by, out=out)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _apply_segment(amps: np.ndarray, gates: Sequence[Gate]) -> np.ndarray:
    """Apply a run of unitary gates as one gather; returns a new array.

    X, CNOT and CCNOT are each their own inverse, so output amplitude
    ``i`` is input amplitude ``g1(g2(...gk(i)))``: the index is pulled back
    through the gates from last to first. A gate flips the target bit of
    the index where its controls are set: the controls are shifted onto
    the target bit, ANDed with each other and the target mask, and XORed
    in. Every operation writes into preallocated index-dtype buffers
    (int32 below 32 qubits), so the pull-back allocates nothing per block.
    """
    n = amps.size.bit_length() - 1
    dtype = np.int32 if n < 32 else np.int64
    steps = []  # (target mask, shifts that move each control bit onto the target)
    for gate in reversed(gates):
        *controls, target = gate_qubits(gate)
        steps.append((dtype(1 << target), [target - control for control in controls]))
    block = 1 << min(_BLOCK_BITS, n)
    blocks = amps.size // block
    out = np.empty_like(amps)
    errors: list[BaseException] = []

    def gather(first: int, last: int) -> None:
        try:
            offsets = np.arange(block, dtype=dtype)
            index, flips, other = (np.empty(block, dtype) for _ in range(3))
            for start in range(first * block, last * block, block):
                np.bitwise_or(offsets, dtype(start), out=index)
                for mask, shifts in steps:
                    if not shifts:
                        index ^= mask
                        continue
                    _shift(index, shifts[0], flips)
                    for by in shifts[1:]:
                        _shift(index, by, other)
                        flips &= other
                    flips &= mask
                    index ^= flips
                np.take(amps, index, out=out[start : start + block])
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
    return out


def _permute_index(index: int, gate: Gate) -> int:
    control_mask, target_mask = _gate_masks(gate)
    if index & control_mask == control_mask:
        index ^= target_mask
    return index


@dataclass
class StateVector:
    """Dense state: ``2^num_qubits`` complex amplitudes."""

    num_qubits: int
    amplitudes: np.ndarray

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def basis_index(self, tol: float = 1e-9) -> BasisIndex:
        """The index of the single occupied basis state.

        Raises :class:`SimulationError` if the amplitude weight is spread
        over more than one basis state (within ``tol``). A complex64 state
        is scanned as one ``uint64`` word per amplitude; a ``-0.0`` part
        makes a word nonzero, so the candidates are filtered by magnitude.
        """
        amps = self.amplitudes
        words = amps.view(np.uint64) if amps.dtype == np.complex64 else amps
        nonzero = np.flatnonzero(words)
        magnitudes = np.abs(amps[nonzero])
        if not magnitudes.any():
            raise SimulationError("zero state has no basis index")
        top = int(np.argmax(magnitudes))
        rest = np.delete(magnitudes, top)
        if abs(magnitudes[top] - 1.0) > tol or (rest.size and float(rest.max()) > tol):
            raise SimulationError("state is not a computational basis state")
        return int(nonzero[top])


def init_state(
    num_qubits: int, basis: BasisIndex = 0, max_qubits: int | None = None
) -> StateVector:
    """A dense state with amplitude 1 at ``basis`` and 0 elsewhere."""
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
    """Apply one unitary gate; returns a new state, input untouched."""
    if isinstance(gate, Measure):
        raise SimulationError("measurement is not a unitary gate; use run()")
    control_mask, target_mask = _gate_masks(gate)
    if (control_mask | target_mask).bit_length() > state.num_qubits:
        raise SimulationError(f"gate {gate!r} out of range for {state.num_qubits} qubits")
    return StateVector(state.num_qubits, _apply_segment(state.amplitudes, [gate]))


@dataclass(frozen=True)
class RunResult:
    """Classical bits plus the final state of one deterministic run.

    ``bits[k]`` is classical bit ``k``; unwritten bits stay 0.
    ``final_state`` is a :class:`StateVector` on the dense engine and a
    plain basis index on the fast engine.
    """

    bits: tuple[int, ...]
    final_state: StateVector | BasisIndex

    @property
    def bitstring(self) -> str:
        return "".join(str(b) for b in reversed(self.bits))


ENGINES = ("fast", "statevector")


def run(
    circuit: Circuit,
    initial: BasisIndex = 0,
    engine: str = "fast",
    max_qubits: int | None = None,
) -> RunResult:
    """Execute ``circuit`` from the basis state ``initial``.

    ``engine="fast"`` tracks one basis index in O(#gates);
    ``engine="statevector"`` updates all amplitudes and is capped at
    ``max_qubits`` (default 26) qubits.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if not 0 <= initial < 1 << circuit.num_qubits:
        raise ValueError(
            f"initial basis index {initial} out of range for {circuit.num_qubits} qubits"
        )
    bits = [0] * circuit.num_clbits

    if engine == "fast":
        index = initial
        for gate in circuit.gates:
            if isinstance(gate, Measure):
                bits[gate.clbit] = index >> gate.qubit & 1
            else:
                index = _permute_index(index, gate)
        return RunResult(tuple(bits), index)

    state = init_state(circuit.num_qubits, initial, max_qubits)
    located: BasisIndex | None = initial
    for measuring, gates in groupby(circuit.gates, key=lambda gate: isinstance(gate, Measure)):
        if not measuring:
            state = StateVector(state.num_qubits, _apply_segment(state.amplitudes, list(gates)))
            located = None
            continue
        if located is None:
            located = state.basis_index()
        for gate in gates:
            bits[gate.clbit] = located >> gate.qubit & 1
    return RunResult(tuple(bits), state)


def results_agree(fast: RunResult, dense: RunResult) -> bool:
    """True iff the two runs report the same bits and the same final basis state."""
    if fast.bits != dense.bits:
        return False
    if not isinstance(dense.final_state, StateVector) or isinstance(
        fast.final_state, StateVector
    ):
        raise ValueError("expected one fast result and one dense result")
    try:
        dense_index = dense.final_state.basis_index()
    except SimulationError:
        return False
    return dense_index == fast.final_state


def engines_agree(
    circuit: Circuit, initial: BasisIndex = 0, max_qubits: int | None = None
) -> bool:
    """Cross-validate the two engines on one circuit and input."""
    fast = run(circuit, initial, "fast")
    dense = run(circuit, initial, "statevector", max_qubits)
    return results_agree(fast, dense)
