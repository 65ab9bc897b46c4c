"""The dense engine: all ``2^n`` amplitudes of a state, moved by one gather kernel.

This is the only module of the package that imports numpy when it loads,
and :func:`qrbs.simulator.run` loads it on the first
``engine="statevector"`` run, so a process that only runs the fast engine
never pays for numpy.

The kernel applies a static run of gates as one permutation: a run in
which no gate's control is written by a later gate of the run, so each
gate flips the pulled-back index by a function of the output index alone.
:func:`run` cuts a circuit's unitary gates into maximal static runs
(:func:`_static_runs`) and gathers them one after the other: no gate
touches a measured qubit, so every measurement reads the final basis
state. Compiled circuits emit gates in dependency order, so each of their
circuits is a single run. For each block of 2^9 output indices the
kernel pulls the indices back through the run, then gathers the
amplitudes with ``np.take`` into the output array. The pull-back is
planned before the blocks: the gates are folded into a few precomputed
tables, one per mask of controls above the block bits, and a block's start
selects the tables whose mask it satisfies. Blocks whose starts select the
same tables form a group; the kernel XORs a group's tables into one
combined table, and a block's indices are that table XOR its start, one
XOR per block. Every submask of the bits that choose tables is the
selection of some block start, so the plan enumerates its groups from
those bits alone, never from the block starts, which number 2^17 at 26
qubits. The plan depends only on the run's gate masks and the
width, so a run is planned once and its plan reused while it stays in a
small cache of the most recently used plans (:func:`_cached_plan`). The
cache holds read-only index maps only, never amplitudes: every call
gathers its own state.
The indices are ``np.intp``, which ``np.take`` uses without converting.
Every index is an XOR of offsets, block start and gate masks, so it is in
range because every gate's qubits are: :meth:`Circuit.append` admitted
each gate of the circuit with integer qubits in range, and :func:`run`,
the only way in, computes every gate's masks once per call from
:func:`~qrbs.circuit.gate_qubits`, the qubits the check read, without
checking them again. The take therefore runs in ``mode="wrap"``, which
writes straight into its ``out`` array (the default ``mode="raise"``
gathers into a buffer and copies it).

The kernel gathers only the output blocks that can hold amplitude. Its
caller names the input blocks that may hold a nonzero byte: :func:`run`
names the block of its basis state for its first run, and for each later
run the blocks that the run before it flagged occupied. Output block
``k`` reads input block ``k ^ h`` for each value ``h`` that its group's
combined table takes above the block bits. Those bits depend only on the
low controls of the gates that target a qubit above the block bits, so
the plan reads each group's values at the few offsets that vary only
those controls and keeps the distinct ``h``, all groups' in one flat
array, each beside what the start of an input block must select to be
read through it. A call works from the source side in one vectorised
step: it pairs every named block ``s`` with every ``h`` whose selection
the start of ``s`` matches, and marks each output block ``s ^ h`` in the
per-block flags, so each block is gathered once. An output block that
can read no named block pulls back only zeros and is never gathered: a
25-qubit staging run from a basis state gathers 18 of its 65 536
blocks, 9 216 amplitudes.

Small blocks cost one Python step each if taken one by one, so the
kernel takes several at once: the blocks to gather, sorted by group, are
cut into chunks of up to 2^16 indices, each chunk is pulled back as an
index array with one row per block (one XOR per group in it), and one
``np.take`` gathers the whole chunk. A 25-qubit staging run from a basis
state is one take.

The kernel writes only the blocks that hold amplitude. Its output comes
from ``np.zeros``, which numpy allocates with ``calloc``, so the pages
of a large state are not backed by memory until they are written. The
kernel gathers each chunk into a scratch buffer and copies into the
output only the rows that hold a nonzero byte, all of them in one step;
the same test flags those blocks as occupied, so :func:`run` finds the
measured basis state in the occupied blocks alone, with no second pass
over the state. A run from a basis state occupies one block and writes
only that one. The gather runs on the calling thread: at 2^12-index
blocks a second thread cost more wall and CPU time than it saved. Every
call returns a new array, so no run writes a state that a caller holds.

:func:`init_state` allocates complex64: a permutation circuit run from a
basis state only ever holds the amplitudes 0 and 1, which complex64 holds
exactly, at half the memory traffic of complex128.
"""

from __future__ import annotations

import functools
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circuit import Circuit, Gate, Measure, gate_qubits
from .errors import SimulationError

__all__ = ["DEFAULT_MAX_QUBITS", "StateVector", "init_state", "run"]

# 2^26 complex64 amplitudes is 512 MiB, and run() holds two states while it
# gathers one static run into the next (1 GiB at peak); larger needs an
# explicit override.
DEFAULT_MAX_QUBITS = 26

# Output indices per block of the fused gather: 2^9. Small blocks follow a
# run's reach closely: a 25-qubit staging run from a basis state gathers 18
# blocks, 9 216 amplitudes.
_BLOCK_BITS = 9

# Blocks per np.take: 2^16 indices, 512 KiB as 64-bit np.intp, so a fully
# occupied state costs one Python step per 128 blocks, not one per block.
_TAKE_ROWS = 1 << 16 - _BLOCK_BITS

# Plans kept between calls, keyed by a run's gate masks and width: each holds
# index maps only (a 25-qubit staging run's plan is about 0.21 MiB), and at
# most this many are kept, the least recently used going first.
_PLANS_KEPT = 8

# How far a located basis state's magnitude may be from 1, and any other
# amplitude's from 0.
_TOL = 1e-9


def _gate_masks(gate: Gate) -> tuple[int, int]:
    """A unitary gate's ``(control_mask, target_mask)``, the key its run is planned by.

    Read from :func:`gate_qubits`, whose last qubit is the target and the
    others the controls.
    """
    *controls, target = gate_qubits(gate)
    control_mask = 0
    for control in controls:
        control_mask |= 1 << control
    return control_mask, 1 << target


def _static_runs(masks: Sequence[tuple[int, int]]) -> list[slice]:
    """Cut gates, given as their :func:`_gate_masks`, into maximal runs that :func:`_plan` plans.

    Returns each run's slice of ``masks``, in order. The masks are walked
    last first: a gate whose controls a gate of the current run writes
    closes that run and becomes the last gate of the run before it.
    """
    runs: list[slice] = []
    stop = len(masks)
    written = 0  # targets of the current run's gates after the one at hand
    for position in reversed(range(len(masks))):
        control_mask, target_mask = masks[position]
        if control_mask & written:
            runs.append(slice(position + 1, stop))
            stop, written = position + 1, 0
        written |= target_mask
    if masks:
        runs.append(slice(0, stop))
    return runs[::-1]


class _Plan(NamedTuple):
    """The index maps of a static run's gather; every array is read-only."""

    base: np.ndarray  # the block offsets XOR the table of the gates with no high control
    tables: tuple[tuple[int, np.ndarray], ...]  # (high-control mask, table)
    selector: int  # the bits of a block's start that choose its tables
    # every group's reach, flat, from the source side: input block s is read
    # by output block s ^ reach[j] for each j whose source_selection[j] is
    # what s's start selects
    reach: np.ndarray
    source_selection: np.ndarray


def _plan(masks: Sequence[tuple[int, int]], num_qubits: int) -> _Plan:
    """Plan the pull-back of a static run of gates on ``num_qubits`` qubits, block by block.

    ``masks`` are the :func:`_gate_masks` of the run's gates. A block is
    ``2^min(_BLOCK_BITS, num_qubits)`` output indices. In a static run
    (:func:`_static_runs`) each gate's flip depends only on the output
    index, as ``(low controls set) << target`` within a block times
    ``start & high == high`` for the block. Gates with the same
    high-control mask share one table, the XOR of their low-bit flips;
    each flip is XORed into the entries that a boolean mask picks, the
    offsets whose low controls are all set. The blocks whose starts select
    the same tables form a group. Every high control is below
    ``num_qubits``, so each submask of the selector is some block start's
    selection: the groups are those submasks (:func:`_submasks`). Each
    group's reach is read from its tables at the probe offsets, which a
    second boolean mask picks: those whose bits are all among the low
    controls of the gates with a target above the block bits. Every
    table's bits above the block bits depend on those controls alone, so
    the entries at the probe take every value above the block bits that
    the table takes at all. The groups are read in passes of up to 2^16
    probed values, one row per group. The reaches of all groups are kept
    in one flat array, each offset ``h`` of group ``g`` beside what the
    start of the input block it reads selects, ``g`` XOR the selected bits
    of ``h``'s block start.
    """
    block_bits = min(_BLOCK_BITS, num_qubits)
    offsets = np.arange(1 << block_bits, dtype=np.intp)
    low = (1 << block_bits) - 1
    tables: dict[int, np.ndarray] = {0: offsets.copy()}
    varied = 0  # low controls of the gates with a target above the block bits
    for control_mask, target_mask in masks:
        low_controls = control_mask & low
        high = control_mask & ~low
        if target_mask > low:
            varied |= low_controls
        table = tables.get(high)
        if table is None:
            table = tables[high] = np.zeros_like(offsets)
        table[offsets & low_controls == low_controls] ^= target_mask
    base = _read_only(tables.pop(0))
    probe = offsets[offsets & ~varied == 0]
    selector = 0
    for high, table in tables.items():
        selector |= high
        _read_only(table)
    groups = np.array(_submasks(selector), np.intp)
    batch = (1 << 16) // probe.size  # groups per pass, one row of probed values each
    reaches, owners = [], []  # each pass's reach offsets, and the group of each
    for low in range(0, groups.size, batch):
        chosen = groups[low : low + batch]
        values = np.repeat(base[probe][None, :], chosen.size, axis=0)
        for high, table in tables.items():
            selects = (chosen & high == high)[:, None]
            np.bitwise_xor(values, table[probe], out=values, where=selects)
        values = np.sort(values >> block_bits, axis=1)
        distinct = np.ones(values.shape, bool)
        distinct[:, 1:] = values[:, 1:] != values[:, :-1]
        reaches.append(values[distinct])
        owners.append(np.repeat(chosen, distinct.sum(axis=1)))
    reach = np.concatenate(reaches)
    # output block k of group g reads block k ^ h, whose start selects g ^ (h's selected bits)
    sourced = np.concatenate(owners) ^ (reach << block_bits & selector)
    return _Plan(base, tuple(tables.items()), selector, _read_only(reach), _read_only(sourced))


def _submasks(mask: int) -> list[int]:
    """Every ``value`` with ``value & mask == value``, in ascending order."""
    values = [0]
    while values[-1] != mask:
        values.append((values[-1] - mask) & mask)
    return values


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@functools.lru_cache(maxsize=_PLANS_KEPT)
def _cached_plan(masks: tuple[tuple[int, int], ...], num_qubits: int) -> _Plan:
    """:func:`_plan`, kept for the :data:`_PLANS_KEPT` most recently used runs."""
    return _plan(masks, num_qubits)


def _apply_segment(
    amps: np.ndarray, masks: tuple[tuple[int, int], ...], sources: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Apply a static run of unitary gates as one gather, as the module docstring lays out.

    ``masks`` are the :func:`_gate_masks` of the run's gates, which
    :class:`Circuit` admitted at the width of ``amps``: only then is every
    index below ``amps.size``, which the unbuffered ``mode="wrap"`` take
    relies on. ``sources`` numbers the input blocks of
    ``2^min(_BLOCK_BITS, n)`` amplitudes that may hold a nonzero byte;
    every other block must hold only zero bytes. Returns a new output
    array and one flag per output block, set when the block holds a
    nonzero byte, for the next run's ``sources`` and
    :func:`_occupied_index`. X, CNOT and CCNOT are each their own inverse,
    so output amplitude ``i`` is input amplitude ``g1(g2(...gk(i)))``.
    Only the output blocks whose pulled-back indices can fall in a source
    block are gathered, sorted by group and :data:`_TAKE_ROWS` at a time,
    each block a row of one index array; every other block pulls back only
    zeros and stays as ``np.zeros`` left it. Of a chunk's gathered rows,
    the occupied ones are copied into the output in one step.
    """
    num_qubits = amps.size.bit_length() - 1
    base, tables, selector, reach, source_selection = _cached_plan(masks, num_qubits)
    block = base.size
    blocks = amps.size // block
    out = np.zeros(amps.shape, amps.dtype)  # not zeros_like, which writes every page
    rows = out.reshape(blocks, block)
    occupied = np.zeros(blocks, dtype=bool)
    # source block s is read by output block s ^ h for each h whose source
    # selection s's start selects; the blocks to gather are marked here, and
    # their gather overwrites each mark
    named = np.asarray(sources, np.intp)
    reads = (named * block & selector)[:, None] == source_selection
    occupied[(named[:, None] ^ reach)[reads]] = True
    work = np.flatnonzero(occupied)
    # grouped by the tables their starts select, so each combined table is built once
    groups = work * block & selector
    order = np.argsort(groups, kind="stable")
    work, groups = work[order], groups[order]
    index = np.empty((min(work.size, _TAKE_ROWS), block), np.intp)
    scratch = np.empty(index.shape, amps.dtype)
    combined = np.empty(block, np.intp)
    for low in range(0, work.size, _TAKE_ROWS):
        members = work[low : low + _TAKE_ROWS]
        selected = groups[low : low + _TAKE_ROWS]
        starts = members[:, None] * block
        bounds = [0, *(np.flatnonzero(selected[1:] != selected[:-1]) + 1).tolist(), members.size]
        for first, last in zip(bounds, bounds[1:]):
            group = int(selected[first])
            source = base
            for high, table in tables:
                if group & high == high:
                    source = np.bitwise_xor(source, table, out=combined)
            np.bitwise_xor(source, starts[first:last], out=index[first:last])
        taken = scratch[: members.size]
        np.take(amps, index[: members.size], out=taken, mode="wrap")
        flags = taken.view(np.uint8).max(axis=1) > 0  # a nonzero byte in the row
        occupied[members] = flags
        rows[members[flags]] = taken[flags]  # only occupied blocks back output pages
    return out, occupied


@dataclass
class StateVector:
    """Dense state: ``2^num_qubits`` complex amplitudes."""

    num_qubits: int
    amplitudes: np.ndarray

    def basis_index(self) -> int:
        """The index of the single occupied basis state.

        Raises :class:`SimulationError` if the amplitude weight is spread
        over more than one basis state (within :data:`_TOL`). A complex64
        state is scanned as one ``uint64`` word per amplitude; a ``-0.0``
        part makes a word nonzero, so the candidates are filtered by
        magnitude.
        """
        amps = self.amplitudes
        return _locate(amps, np.flatnonzero(_words(amps)))


def _words(amps: np.ndarray) -> np.ndarray:
    """What the scans look at: a complex64 amplitude as one ``uint64`` word, else as is."""
    return amps.view(np.uint64) if amps.dtype == np.complex64 else amps


def _locate(amps: np.ndarray, nonzero: np.ndarray) -> int:
    """The basis index, given every nonzero word's index in ascending order."""
    magnitudes = np.abs(amps[nonzero])
    if not magnitudes.any():
        raise SimulationError("zero state has no basis index")
    top = int(np.argmax(magnitudes))
    rest = np.delete(magnitudes, top)
    if abs(magnitudes[top] - 1.0) > _TOL or (rest.size and float(rest.max()) > _TOL):
        raise SimulationError("state is not a computational basis state")
    return int(nonzero[top])


def _occupied_index(amps: np.ndarray, occupied: np.ndarray) -> int:
    """:meth:`StateVector.basis_index`, scanning only the blocks flagged in ``occupied``.

    ``occupied`` is :func:`_apply_segment`'s per-block record. An unflagged
    block holds only zero bytes, hence no nonzero word, so the nonzero
    words found here, and the verdict on them, are the full scan's.
    """
    rows = np.flatnonzero(occupied)
    words = _words(amps).reshape(occupied.size, -1)
    row, column = np.nonzero(words[rows])
    return _locate(amps, rows[row] * words.shape[1] + column)


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
    """Fail unless two dense states, the peak of :func:`run`'s gathers, fit in RAM."""
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


def run(
    circuit: Circuit, initial: int, max_qubits: int | None = None
) -> tuple[tuple[int, ...], StateVector]:
    """Run ``circuit`` from the basis state ``initial``; returns the bits and the final state.

    :class:`Circuit` lets no gate read or write a qubit after it is
    measured, so a measured qubit ends the circuit holding the bit it was
    measured with. The unitary gates' masks are computed once
    (:func:`_gate_masks`), then cut into static runs, each run's slice of
    the masks keying its plan. The runs are gathered one after the other,
    and every measurement reads the one basis index located after the last
    (``initial`` when there is no unitary gate, and no gather). A circuit
    with no measurement locates nothing. Only this loop holds each state,
    so at most two are alive at once.
    """
    amplitudes = init_state(circuit.num_qubits, initial, max_qubits).amplitudes
    measures = [gate for gate in circuit.gates if type(gate) is Measure]
    masks = tuple(_gate_masks(gate) for gate in circuit.gates if type(gate) is not Measure)
    sources, occupied = [initial >> _BLOCK_BITS], None
    for cut in _static_runs(masks):
        amplitudes, occupied = _apply_segment(amplitudes, masks[cut], sources)
        sources = np.flatnonzero(occupied)
    located = initial
    if measures and occupied is not None:
        located = _occupied_index(amplitudes, occupied)
    bits = [0] * circuit.num_clbits
    for gate in measures:
        bits[gate.clbit] = located >> gate.qubit & 1
    return tuple(bits), StateVector(circuit.num_qubits, amplitudes)
