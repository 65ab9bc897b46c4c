"""Dense and fast engines: conventions, agreement, norms, reversibility."""

import math
import os
import random
import subprocess
import sys
import textwrap
import threading
import warnings
import weakref
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    as_permutation,
    engines_agree,
    every_block,
    gather_every_block,
    norm_sq,
    random_circuit,
    results_agree,
)
from qrbs import dense as dense_module
from qrbs import planes, simulator
from qrbs.circuit import CCNOT, CNOT, Circuit, Measure, X, gate_qubits
from qrbs.compiler import CompileOptions
from qrbs.dense import StateVector, _apply_segment, _occupied_index, init_state
from qrbs.errors import SimulationError
from qrbs.idc import (
    INPUT_COMPLEXES,
    build_idc_circuit,
    run_activation,
    stage,
    verify_reference_table,
)
from qrbs.simulator import RunResult, run

# the dense kernel's block: 2^BLOCK_BITS amplitudes, so qubit BLOCK_BITS is
# the lowest that moves an amplitude from one block to another
BLOCK_BITS = dense_module._BLOCK_BITS


class TestInitState:
    def test_ground_state(self):
        state = init_state(3, 0)
        assert state.amplitudes[0] == 1
        assert np.count_nonzero(state.amplitudes) == 1

    def test_basis_five(self):
        state = init_state(3, 0b101)
        assert state.amplitudes[5] == 1

    def test_single_activated_qubit_at_width_25(self):
        state = init_state(25, 1 << 5)
        assert state.amplitudes[32] == 1
        assert state.amplitudes.size == 1 << 25

    def test_cap(self):
        with pytest.raises(SimulationError, match="cap"):
            init_state(8, max_qubits=7)
        init_state(8, max_qubits=8)  # override admits it

    def test_basis_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            init_state(2, 4)

    @pytest.mark.parametrize("args", [(2.0,), (3, 1.0)])
    def test_a_non_integer_argument_is_refused(self, args):
        with pytest.raises(ValueError, match="non-integer"):
            init_state(*args)


class TestOneGateGather:
    """The dense kernel on one gate, with every block of the state named as a source."""

    def test_x_flips_ground_state(self):
        amplitudes, _ = gather_every_block(init_state(1).amplitudes, [X(0)])
        assert amplitudes[1] == 1
        assert amplitudes[0] == 0

    def test_cnot_on_superposition(self):
        # (|00> + |10>)/sqrt(2) with control q0 -> (|00> + |11>)/sqrt(2);
        # exercises amplitude handling beyond single basis states.
        amps = np.zeros(4, dtype=np.complex128)
        amps[0b00] = amps[0b01] = 1 / math.sqrt(2)
        amplitudes, _ = gather_every_block(amps, [CNOT(0, 1)])
        expected = np.zeros(4, dtype=np.complex128)
        expected[0b00] = expected[0b11] = 1 / math.sqrt(2)
        assert np.allclose(amplitudes, expected)

    def test_toffoli_truth_table(self):
        amplitudes, _ = gather_every_block(init_state(3, 0b011).amplitudes, [CCNOT(0, 1, 2)])
        assert amplitudes[0b111] == 1

    def test_input_state_is_untouched(self):
        state = init_state(1)
        gather_every_block(state.amplitudes, [X(0)])
        assert state.amplitudes[0] == 1


class TestBasisIndex:
    def test_simple(self):
        assert init_state(3, 6).basis_index() == 6

    def test_spread_state_rejected(self):
        amps = np.zeros(4, dtype=np.complex128)
        amps[0] = amps[3] = 1 / math.sqrt(2)
        with pytest.raises(SimulationError, match="not a computational basis state"):
            StateVector(2, amps).basis_index()

    def test_zero_state_rejected(self):
        with pytest.raises(SimulationError, match="zero state"):
            StateVector(2, np.zeros(4, dtype=np.complex128)).basis_index()

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_negative_zeros_are_not_occupied(self, dtype):
        amps = np.zeros(64, dtype=dtype)
        amps[[1, 7, 40, 63]] = complex(-0.0, 0.0)
        amps[[2, 50]] = complex(0.0, -0.0)
        amps[9] = complex(-0.0, -0.0)
        amps[41] = 1
        assert StateVector(6, amps).basis_index() == 41

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_signed_zero_state_rejected(self, dtype):
        amps = np.zeros(64, dtype=dtype)
        amps[::3] = complex(-0.0, 0.0)
        amps[1::5] = complex(-0.0, -0.0)
        with pytest.raises(SimulationError, match="zero state"):
            StateVector(6, amps).basis_index()

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_spread_state_rejected_for_each_dtype(self, dtype):
        amps = np.zeros(64, dtype=dtype)
        amps[[3, 60]] = 1 / math.sqrt(2)
        amps[5] = complex(-0.0, 0.0)
        with pytest.raises(SimulationError, match="not a computational basis state"):
            StateVector(6, amps).basis_index()

    @staticmethod
    def full_scan(amps: np.ndarray, tol: float) -> int:
        """An independent copy of the scan over every nonzero word, within ``tol``."""
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

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize(
        "entries, tol",
        [
            ({37: 1}, 1e-9),  # one-hot
            ({0: -1}, 1e-9),
            ({63: 1j}, 1e-9),
            ({12: complex(-0.0, 1.0)}, 1e-9),  # a -0.0 part inside the occupied word
            ({20: complex(0.6, -0.8)}, 1e-6),  # magnitude 1.0 in both dtypes, so 1e-9 agrees
            ({20: 1.001}, 1e-9),  # one word, magnitude off by more than tol
            ({20: 0.99}, 1e-9),  # ... and one off by 0.01
            ({8: complex(-0.0, 0.0)}, 1e-9),  # the only nonzero word is a signed zero
            ({8: complex(-0.0, -0.0), 9: 1}, 1e-9),
            ({3: 1, 4: 1}, 1e-9),  # two nonzero words
            ({3: 1, 4: 1e-12}, 1e-9),
            ({3: 0.5, 4: 0.5}, 1e-9),
            # the same across the blocks of an 18-qubit state
            ({1 << BLOCK_BITS | 3: complex(-0.0, 1.0), 5: complex(0.0, -0.0)}, 1e-9),
            ({1: complex(-0.0, 0.0), 2 << BLOCK_BITS: complex(0.0, -0.0), 262143: -0.0}, 1e-9),
            ({3: 1, 200000: 1}, 1e-9),
            ({(1 << BLOCK_BITS) - 1: 1e-12, 1 << BLOCK_BITS: 1}, 1e-9),  # either side of a boundary
            ({262143: 1.001}, 1e-9),
            ({2 << BLOCK_BITS: complex(-0.0, -0.0), (3 << BLOCK_BITS) - 1: 0.99}, 1e-9),
            ({(1 << BLOCK_BITS + 1) - 1: 1, 1 << BLOCK_BITS + 1: 1e-12}, 1e-9),
        ],
    )
    def test_matches_the_full_scan(self, dtype, entries, tol):
        amps = np.zeros(1 << 18, dtype=dtype)
        for index, value in entries.items():
            amps[index] = value
        gathered, occupied = gather_every_block(amps, [])
        assert gathered.tobytes() == amps.tobytes()  # signed zeros too
        assert list(np.flatnonzero(occupied)) == sorted({index >> BLOCK_BITS for index in entries})
        locators = (
            lambda: StateVector(18, amps).basis_index(),
            lambda: _occupied_index(gathered, np.flatnonzero(occupied)),
        )
        try:
            expected = self.full_scan(amps, tol)
        except SimulationError as exc:
            for locate in locators:
                with pytest.raises(SimulationError, match=str(exc)):
                    locate()
        else:
            for locate in locators:
                assert locate() == expected


class TestRun:
    def test_empty_circuit_fast(self):
        result = run(Circuit(3), 0b101, engine="fast")
        assert result.bits == ()
        assert result.final_state == 0b101

    def test_empty_circuit_dense(self):
        result = run(Circuit(3), 0b101, engine="statevector")
        assert result.bits == ()
        assert result.final_state.basis_index() == 0b101

    def test_measure_extracts_bit(self):
        circuit = Circuit(1, 1).append(X(0)).append(Measure(0, 0))
        for engine in ("fast", "statevector"):
            assert run(circuit, engine=engine).bits == (1,)

    def test_unwritten_bits_stay_zero(self):
        circuit = Circuit(2, 3).append(X(1)).append(Measure(1, 2))
        assert run(circuit).bits == (0, 0, 1)

    def test_bitstring_renders_high_bit_first(self):
        assert RunResult((0, 0, 1), 0).bitstring == "100"

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            run(Circuit(1), engine="dense")

    def test_initial_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            run(Circuit(2), 4)

    def test_dense_cap_applies(self):
        with pytest.raises(SimulationError, match="cap"):
            run(Circuit(9), engine="statevector", max_qubits=8)

    def test_fast_engine_has_no_width_cap(self):
        circuit = Circuit(40, 1).append(X(39)).append(Measure(39, 0))
        assert run(circuit).bits == (1,)

    def test_measure_between_gates(self):
        circuit = Circuit(2, 2)
        circuit.append(X(0)).append(Measure(0, 0)).append(X(1)).append(Measure(1, 1))
        for engine in ("fast", "statevector"):
            assert run(circuit, engine=engine).bits == (1, 1)

    @pytest.mark.parametrize("engine", ["fast", "statevector"])
    @pytest.mark.parametrize("initial", [1.0, "1"])
    def test_a_non_integer_initial_is_refused(self, engine, initial):
        with pytest.raises(ValueError, match="is not an integer"):
            run(Circuit(3).append(X(0)), initial, engine)

    @pytest.mark.parametrize("engine", ["fast", "statevector"])
    def test_integer_likes_are_accepted_as_initial(self, engine):
        circuit = Circuit(3, 1).append(X(0)).append(Measure(1, 0))
        assert run(circuit, True, engine).bits == (0,)
        assert run(circuit, np.int64(2), engine).bits == (1,)


class TestEngineAgreement:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 8), st.integers(0, 30))
    def test_engines_agree_on_random_circuits(self, seed, num_qubits, num_gates):
        rng = random.Random(seed)
        circuit = random_circuit(rng, num_qubits, num_gates)
        initial = rng.randrange(1 << num_qubits)
        assert engines_agree(circuit, initial)

    def test_exhaustive_agreement_on_all_basis_inputs(self):
        rng = random.Random(11)
        for _ in range(5):
            circuit = random_circuit(rng, 6, 25)
            for initial in range(1 << 6):
                assert engines_agree(circuit, initial)

    def test_fast_engine_matches_permutation_oracle_at_width_14(self):
        rng = random.Random(23)
        circuit = random_circuit(rng, 14, 60, with_measures=False)
        perm = as_permutation(circuit)
        for initial in range(1 << 14):
            assert run(circuit, initial).final_state == perm[initial]

    def test_exhaustive_agreement_at_width_10(self):
        rng = random.Random(31)
        circuit = random_circuit(rng, 10, 40)
        for initial in range(1 << 10):
            assert engines_agree(circuit, initial)

    def test_empty_circuit_agrees(self):
        assert engines_agree(Circuit(2), 1)

    def test_mutated_circuit_is_detected(self):
        rng = random.Random(5)
        circuit = random_circuit(rng, 5, 20)
        mutant = Circuit(circuit.num_qubits, circuit.num_clbits)
        dropped = rng.randrange(sum(1 for g in circuit.gates if not isinstance(g, Measure)))
        kept = 0
        for gate in circuit.gates:
            if not isinstance(gate, Measure) and kept == dropped:
                kept += 1
                continue  # drop this one gate
            if not isinstance(gate, Measure):
                kept += 1
            mutant.append(gate)
        fast_mutant = run(mutant, 0b10110, engine="fast")
        dense_original = run(circuit, 0b10110, engine="statevector")
        assert not results_agree(fast_mutant, dense_original)
        assert engines_agree(mutant, 0b10110)  # the mutant itself is still consistent

    def test_results_agree_argument_order(self):
        fast = run(Circuit(1), 0, "fast")
        dense = run(Circuit(1), 0, "statevector")
        with pytest.raises(ValueError):
            results_agree(dense, fast)


class TestNormAndReversal:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 8), st.integers(1, 30))
    def test_norm_is_preserved_after_every_gate(self, seed, num_qubits, num_gates):
        rng = random.Random(seed)
        circuit = random_circuit(rng, num_qubits, num_gates, with_measures=False)
        state = init_state(num_qubits, rng.randrange(1 << num_qubits))
        for gate in circuit.gates:
            state.amplitudes, _ = gather_every_block(state.amplitudes, [gate])
            assert abs(norm_sq(state) - 1.0) <= 1e-9
            # permutation closure: still a single unit-modulus amplitude
            nonzero = np.flatnonzero(state.amplitudes)
            assert nonzero.size == 1
            assert abs(abs(state.amplitudes[nonzero[0]]) - 1.0) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 8), st.integers(0, 30))
    def test_reversal_restores_the_initial_state(self, seed, num_qubits, num_gates):
        rng = random.Random(seed)
        circuit = random_circuit(rng, num_qubits, num_gates, with_measures=False)
        initial = rng.randrange(1 << num_qubits)
        composed = circuit.copy().extend(circuit.reversed().gates)
        assert run(composed, initial).final_state == initial
        dense = run(composed, initial, engine="statevector").final_state
        expected = init_state(num_qubits, initial).amplitudes
        assert float(np.linalg.norm(dense.amplitudes - expected)) <= 1e-9


def interleaved_circuit(rng: random.Random, num_qubits: int, num_gates: int) -> Circuit:
    """A random circuit with each measurement placed somewhere after its qubit's last gate."""
    unitary = random_circuit(rng, num_qubits, num_gates, with_measures=False).gates
    last_touch = {}
    for position, gate in enumerate(unitary):
        for qubit in gate_qubits(gate):
            last_touch[qubit] = position
    measured = rng.sample(range(num_qubits), rng.randint(0, num_qubits))
    slots = {
        qubit: rng.randint(last_touch.get(qubit, -1) + 1, len(unitary)) for qubit in measured
    }
    circuit = Circuit(num_qubits, num_qubits)
    for position in range(len(unitary) + 1):
        for clbit, qubit in enumerate(measured):
            if slots[qubit] == position:
                circuit.append(Measure(qubit, clbit))
        if position < len(unitary):
            circuit.append(unitary[position])
    return circuit


class TestFusedSegmentKernel:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 18), st.integers(0, 40))
    @example(seed=7, num_qubits=18, num_gates=40)
    @example(seed=12, num_qubits=BLOCK_BITS - 1, num_gates=40)  # less than one block
    @example(seed=12, num_qubits=BLOCK_BITS, num_gates=40)  # exactly one block
    @example(seed=12, num_qubits=BLOCK_BITS + 1, num_gates=40)  # two blocks
    def test_matches_permutation_oracle_on_random_amplitudes(self, seed, num_qubits, num_gates):
        rng = random.Random(seed)
        circuit = interleaved_circuit(rng, num_qubits, num_gates)
        values = np.random.default_rng(seed).standard_normal((2, 1 << num_qubits))
        values = values[0] + 1j * values[1]
        amplitudes = values
        for measuring, gates in groupby(circuit.gates, key=lambda gate: isinstance(gate, Measure)):
            if not measuring:
                amplitudes, _ = gather_runs(amplitudes, list(gates), every_block(amplitudes))
        expected = np.empty_like(values)
        expected[as_permutation(circuit, max_qubits=18)] = values  # amplitude at i moves to perm[i]
        assert np.array_equal(amplitudes, expected)
        assert engines_agree(circuit, rng.randrange(1 << num_qubits))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 7))
    # at 9 block bits, CCNOT(5, 2, 9): pairs across two blocks
    @example(seed=35, num_qubits=BLOCK_BITS + 1)
    # at 9 block bits, CCNOT(3, 9, 6): the two blocks take different tables
    @example(seed=26, num_qubits=BLOCK_BITS + 1)
    @example(seed=4, num_qubits=BLOCK_BITS + 2)  # four blocks
    @example(seed=4, num_qubits=BLOCK_BITS)
    @example(seed=4, num_qubits=BLOCK_BITS - 1)
    def test_one_gate_matches_permutation_oracle(self, seed, num_qubits):
        rng = random.Random(seed)
        gate = random_circuit(rng, num_qubits, 1, with_measures=False).gates[0]
        values = np.random.default_rng(seed).standard_normal((2, 1 << num_qubits))
        values = values[0] + 1j * values[1]
        amplitudes = values.copy()
        expected = np.empty_like(values)
        expected[as_permutation(Circuit(num_qubits).append(gate), max_qubits=18)] = values
        assert np.array_equal(gather_every_block(amplitudes, [gate])[0], expected)
        assert np.array_equal(amplitudes, values)

    def test_one_gate_single_qubit_flip(self):
        amplitudes = np.array([1 + 0j, 2 + 0j])
        assert list(gather_every_block(amplitudes, [X(0)])[0]) == [2 + 0j, 1 + 0j]

    def test_dense_run_holds_complex64(self):
        circuit = Circuit(3, 1).append(X(0)).append(CNOT(0, 2)).append(Measure(2, 0))
        assert run(circuit, engine="statevector").final_state.amplitudes.dtype == np.complex64

    def test_gather_keeps_complex128(self):
        amplitudes = np.array([1, 0, 0, 0], dtype=np.complex128)
        assert gather_every_block(amplitudes, [CNOT(1, 0)])[0].dtype == np.complex128

    def test_dense_engine_needs_no_other_oracle(self, monkeypatch):
        rng = random.Random(41)
        circuit = interleaved_circuit(rng, 18, 50)
        initial = rng.randrange(1 << 18)
        fast = run(circuit, initial, "fast")

        def refuse(*args, **kwargs):
            raise AssertionError("the dense engine used another oracle")

        monkeypatch.setattr(simulator, "_run_basis", refuse)
        for name in ("sweep", "evaluate", "run", "set_bits"):
            monkeypatch.setattr(planes, name, refuse)
        dense = run(circuit, initial, "statevector")
        assert dense.bits == fast.bits
        assert dense.final_state.basis_index() == fast.final_state


    def test_fast_engine_needs_no_dense_code(self, monkeypatch):
        rng = random.Random(47)
        circuit = interleaved_circuit(rng, 18, 50)
        initial = rng.randrange(1 << 18)
        expected = run(circuit, initial, "statevector")

        def refuse(*args, **kwargs):
            raise AssertionError("the fast engine used dense-engine code")

        monkeypatch.setattr(dense_module, "_apply_segment", refuse)
        monkeypatch.setattr(dense_module, "_gate_masks", refuse)
        fast = run(circuit, initial, "fast")
        assert fast.bits == expected.bits
        assert fast.final_state == expected.final_state.basis_index()
        assert fast.final_state == as_permutation(circuit, max_qubits=18)[initial]


class TestMeasuredRuns:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.integers(BLOCK_BITS - 1, 20),
        st.integers(0, 40),
        st.sampled_from(["first", "middle", "last"]),
    )
    @example(seed=3, num_qubits=17, num_gates=40, where="last")
    @example(seed=8, num_qubits=18, num_gates=40, where="middle")
    @example(seed=9, num_qubits=BLOCK_BITS - 1, num_gates=40, where="last")
    @example(seed=9, num_qubits=BLOCK_BITS, num_gates=40, where="last")
    @example(seed=9, num_qubits=BLOCK_BITS + 1, num_gates=40, where="last")
    def test_dense_runs_match_the_fast_engine(self, seed, num_qubits, num_gates, where):
        rng = random.Random(seed)
        circuit = interleaved_circuit(rng, num_qubits, num_gates)
        blocks = 1 << max(0, num_qubits - BLOCK_BITS)
        block = {"first": 0, "middle": blocks // 2, "last": blocks - 1}[where]
        initial = block << BLOCK_BITS | rng.randrange(1 << min(BLOCK_BITS, num_qubits))
        fast = run(circuit, initial, "fast")
        dense = run(circuit, initial, "statevector")
        assert dense.bits == fast.bits
        assert dense.final_state.basis_index() == fast.final_state

    def test_measurements_make_no_full_scan(self, monkeypatch):
        circuit = interleaved_circuit(random.Random(43), 20, 60)
        kinds = [isinstance(gate, Measure) for gate in circuit.gates]
        assert (False, True) in zip(kinds, kinds[1:])  # a measurement after a run of gates
        fast = run(circuit, (1 << 20) - 1, "fast")

        def refuse(self):
            raise AssertionError("run() scanned the whole state")

        monkeypatch.setattr(StateVector, "basis_index", refuse)
        assert run(circuit, (1 << 20) - 1, "statevector").bits == fast.bits

    def test_one_gather_and_one_scan_per_run(self, monkeypatch):
        calls = {"_apply_segment": 0, "_occupied_index": 0}
        for name in calls:
            original = getattr(dense_module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(dense_module, name, counted)
        circuit = interleaved_circuit(random.Random(43), 12, 40)
        kinds = [isinstance(gate, Measure) for gate in circuit.gates]
        assert kinds.count(True) > 1 and (True, False) in zip(kinds, kinds[1:])
        unitary = [gate for gate in circuit.gates if not isinstance(gate, Measure)]
        runs = len(static_runs(unitary))
        assert runs > 1
        assert run(circuit, 5, "statevector").bits == run(circuit, 5, "fast").bits
        assert calls == {"_apply_segment": runs, "_occupied_index": 1}

        calls.update(dict.fromkeys(calls, 0))
        measured_only = Circuit(3, 2).append(Measure(0, 0)).append(Measure(2, 1))
        assert run(measured_only, 0b101, "statevector").bits == (1, 1)
        assert calls == {"_apply_segment": 0, "_occupied_index": 0}
        unmeasured = Circuit(3).append(X(0)).append(CNOT(0, 2))
        assert run(unmeasured, 0, "statevector").final_state.basis_index() == 0b101
        assert calls == {"_apply_segment": 1, "_occupied_index": 0}


def gate_masks(gates) -> tuple:
    """Each gate's ``(control_mask, target_mask)``, as ``dense.run`` computes them."""
    return tuple(map(dense_module._gate_masks, gates))


def static_runs(gates: list) -> list:
    """``dense._static_runs`` on the masks of ``gates``, each run as its list of gates."""
    return [gates[cut] for cut in dense_module._static_runs(gate_masks(gates))]


def dependency_ordered_gates(rng: random.Random, num_qubits: int, num_gates: int) -> list:
    """Random gates in the order a compiler emits them: no later gate writes a control.

    Each qubit is drawn from below or from above the block bits with even
    odds, so controls and targets fall on both sides of the block boundary.
    """

    def draw(taken: set) -> int:
        while True:
            if num_qubits > BLOCK_BITS and rng.random() < 0.5:
                qubit = rng.randrange(BLOCK_BITS, num_qubits)
            else:
                qubit = rng.randrange(min(BLOCK_BITS, num_qubits))
            if qubit not in taken:
                return qubit

    gates = []
    written = set()  # targets of the gates after the one being drawn
    for _ in range(num_gates):  # drawn last gate first
        target = draw(set())
        taken = written | {target}
        controls = []
        for _ in range(rng.randint(0, min(2, num_qubits - len(taken)))):
            controls.append(draw(taken))
            taken.add(controls[-1])
        gates.append((X, CNOT, CCNOT)[len(controls)](*controls, target))
        written.add(target)
    return gates[::-1]


def high_control_masks(gates) -> set:
    """The distinct nonzero masks of each gate's controls at or above the block bits."""
    masks = {
        sum(1 << qubit for qubit in gate_qubits(gate)[:-1] if qubit >= BLOCK_BITS)
        for gate in gates
    }
    return masks - {0}


def gather_runs(values: np.ndarray, gates, sources) -> tuple:
    """Gather ``gates`` static run by static run, as ``dense.run`` does.

    The first run reads the blocks in ``sources`` (:func:`every_block` for
    a state that may hold amplitude anywhere), and each later run the
    blocks that the run before it flagged occupied.
    Returns the last run's output and occupancy flags (``values`` and None
    when there is no gate).
    """
    occupied = None
    masks = gate_masks(gates)
    for cut in dense_module._static_runs(masks):
        values, occupied = _apply_segment(values, masks[cut], sources)
        sources = np.flatnonzero(occupied)
    return values, occupied


def reach_groups(plan) -> np.ndarray:
    """The group (output-block selection) of each entry of ``plan.reach``."""
    return plan.source_selection ^ (plan.reach * plan.base.size & plan.selector)


def planned(gates, num_qubits: int):
    """The plan of a static run of ``gates``, built afresh rather than read from the cache."""
    return dense_module._plan(gate_masks(gates), num_qubits)


def assert_gathers_like_the_oracle(num_qubits: int, gates) -> None:
    values = np.random.default_rng(num_qubits).standard_normal((2, 1 << num_qubits))
    values = (values[0] + 1j * values[1]).astype(np.complex64)
    expected = np.empty_like(values)
    circuit = Circuit(num_qubits).extend(gates)
    expected[as_permutation(circuit, max_qubits=num_qubits)] = values
    assert np.array_equal(gather_runs(values, gates, every_block(values))[0], expected)


class TestPlannedPullBack:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32), st.integers(15, 20), st.integers(1, 40))
    @example(seed=1, num_qubits=20, num_gates=40)
    @example(seed=2, num_qubits=17, num_gates=40)
    def test_dependency_ordered_runs_are_all_tables(self, seed, num_qubits, num_gates):
        gates = dependency_ordered_gates(random.Random(seed), num_qubits, num_gates)
        assert static_runs(gates) == [gates]
        tables = planned(gates, num_qubits).tables
        assert len(tables) <= len(high_control_masks(gates))
        assert_gathers_like_the_oracle(num_qubits, gates)

    def test_static_tail_after_a_swap_head(self):
        a, b, c = BLOCK_BITS, BLOCK_BITS + 1, BLOCK_BITS + 2  # the lowest qubits above a block
        swap = [CNOT(4, b), CNOT(b, 4), CNOT(4, b)]
        tail = [CNOT(0, a), CNOT(b, a), CCNOT(0, b, a), CNOT(a, c), CNOT(4, c), CCNOT(a, 4, c)]
        gates = swap + tail
        runs = static_runs(gates)
        # the swap's first two CNOTs each read a qubit that the next gate writes
        assert [len(gates_of_run) for gates_of_run in runs] == [1, 1, 7]
        assert runs[2] == gates[2:]
        tables = planned(runs[2], c + 1).tables
        assert sorted(high for high, _ in tables) == [1 << a, 1 << b]
        assert_gathers_like_the_oracle(c + 1, gates)

    def test_run_that_turns_non_static_at_once(self):
        a, b = BLOCK_BITS, BLOCK_BITS + 1
        gates = [CCNOT(2, a, b), CNOT(b, 2), CNOT(2, a), CCNOT(a, b, 3), X(b)]
        runs = static_runs(gates)
        assert runs == [gates[:1], gates[1:4], gates[4:]]
        plan = planned(runs[-1], b + 1)
        assert plan.tables == ()
        assert np.array_equal(plan.base, np.arange(1 << BLOCK_BITS) ^ 1 << b)
        assert_gathers_like_the_oracle(b + 1, gates)

    @pytest.mark.parametrize(
        "num_qubits, gate",
        [
            (17, X(BLOCK_BITS)),
            (17, CNOT(BLOCK_BITS, 2)),
            (17, CNOT(2, BLOCK_BITS)),
            (18, CNOT(BLOCK_BITS + 1, BLOCK_BITS)),
            (18, CCNOT(BLOCK_BITS, 3, BLOCK_BITS + 1)),
            (18, CCNOT(BLOCK_BITS, BLOCK_BITS + 1, 0)),
            (18, CCNOT(1, BLOCK_BITS - 1, BLOCK_BITS + 1)),
            # widths 11 to 13: several blocks, the gates' qubits 10 to 12 above the block bits
            (11, CCNOT(10, 0, 1)),
            (12, CNOT(11, 0)),
            (12, X(11)),
            (13, X(12)),
            (13, CCNOT(12, 11, 0)),
            (13, CNOT(11, 12)),
            # narrower than one block, exactly one block, and two blocks
            (BLOCK_BITS - 1, CCNOT(BLOCK_BITS - 2, 0, 1)),
            (BLOCK_BITS, CNOT(BLOCK_BITS - 1, 0)),
            (BLOCK_BITS, X(BLOCK_BITS - 1)),
            (BLOCK_BITS + 1, X(BLOCK_BITS)),
            (BLOCK_BITS + 1, CCNOT(BLOCK_BITS, BLOCK_BITS - 1, 0)),
            (BLOCK_BITS + 1, CNOT(BLOCK_BITS - 1, BLOCK_BITS)),
        ],
    )
    def test_one_gate_across_the_block_boundary(self, num_qubits, gate):
        values = np.random.default_rng(7).standard_normal((2, 1 << num_qubits))
        values = values[0] + 1j * values[1]
        expected = np.empty_like(values)
        expected[as_permutation(Circuit(num_qubits).append(gate), max_qubits=18)] = values
        assert np.array_equal(gather_every_block(values, [gate])[0], expected)

    def test_staging_circuits_plan_to_tables_only(self):
        unshared = CompileOptions(share_subexpressions=False, ancilla_budget=10)
        for options in (CompileOptions(), unshared):
            circuit = build_idc_circuit(options).circuit
            runs = [
                list(gates)
                for measuring, gates in groupby(circuit.gates, key=lambda g: isinstance(g, Measure))
                if not measuring
            ]
            assert runs
            for gates in runs:
                assert len(static_runs(gates)) == 1
        assert circuit.num_qubits == 25

    def test_tables_are_bounded_by_the_high_control_masks(self):
        gates = [CNOT(5, 17), CNOT(17, 5)] * 1000
        runs = static_runs(gates)
        assert runs == [[gate] for gate in gates]  # each gate reads the one before's target
        assert len(high_control_masks(gates)) == 1
        for gates_of_run in runs[:2]:
            tables = planned(gates_of_run, 18).tables
            assert len(tables) <= len(high_control_masks(gates_of_run))
        assert_gathers_like_the_oracle(18, gates)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2**32), st.integers(BLOCK_BITS + 1, 21), st.integers(0, 30), st.booleans())
    @example(seed=5, num_qubits=21, num_gates=30, swap_head=True)
    @example(seed=6, num_qubits=17, num_gates=30, swap_head=False)
    @example(seed=6, num_qubits=BLOCK_BITS + 1, num_gates=30, swap_head=True)
    def test_grouped_gather_matches_the_oracle(self, seed, num_qubits, num_gates, swap_head):
        rng = random.Random(seed)
        gates = dependency_ordered_gates(rng, num_qubits, num_gates)
        # Appended gates are pulled back first, so they are static: they add
        # the masks {h1}, {h2} and {h1, h2} (only {BLOCK_BITS} when it is the
        # one qubit above the block bits), on targets that no gate reads.
        highs = rng.sample(range(BLOCK_BITS, num_qubits), min(2, num_qubits - BLOCK_BITS))
        controls = {qubit for gate in gates for qubit in gate_qubits(gate)[:-1]}
        free = [qubit for qubit in range(num_qubits) if qubit not in controls | set(highs)]
        assume(free)
        gates += [CNOT(high, rng.choice(free)) for high in highs]
        if len(highs) == 2:
            gates.append(CCNOT(*highs, rng.choice(free)))
        if swap_head:  # swap a low and a high qubit first: its first two CNOTs are runs
            low, high = rng.randrange(BLOCK_BITS), rng.randrange(BLOCK_BITS, num_qubits)
            gates = [CNOT(low, high), CNOT(high, low), CNOT(low, high)] + gates
        runs = static_runs(gates)
        tables = planned(runs[-1], num_qubits).tables
        assert len(high_control_masks(gates)) >= len(tables) >= 2 * len(highs) - 1
        assert (len(runs) >= 3) == swap_head
        assert_gathers_like_the_oracle(num_qubits, gates)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("num_qubits", range(BLOCK_BITS - 1, BLOCK_BITS + 7))
    def test_groups_and_reach_match_every_block_start(self, num_qubits, seed):
        rng = random.Random(seed)
        gates = dependency_ordered_gates(rng, num_qubits, 24)
        if num_qubits >= BLOCK_BITS + 2:  # a gate with two controls above the block bits
            highs = rng.sample(range(BLOCK_BITS, num_qubits), 2)
            controls = {qubit for gate in gates for qubit in gate_qubits(gate)[:-1]}
            free = [qubit for qubit in range(num_qubits) if qubit not in controls | set(highs)]
            gates.append(CCNOT(*highs, free[0]))
        assert static_runs(gates) in ([gates], [])
        plan = planned(gates, num_qubits)
        block_bits = min(BLOCK_BITS, num_qubits)
        # the reference: every block start, and the input blocks that the
        # oracle's pulled-back indices of its block fall in
        permutation = as_permutation(Circuit(num_qubits).extend(gates), max_qubits=num_qubits)
        pulled_back = np.empty_like(permutation)
        pulled_back[permutation] = np.arange(permutation.size)
        reference: dict[int, list] = {}
        for k, indices in enumerate(pulled_back.reshape(-1, 1 << block_bits)):
            reach = np.unique(indices >> block_bits ^ k).tolist()
            assert reference.setdefault(k << block_bits & plan.selector, reach) == reach
        groups = sorted(reference)
        assert dense_module._submasks(plan.selector) == groups
        assert np.array_equal(plan.reach, [h for group in groups for h in reference[group]])
        expected = [group for group in groups for _ in reference[group]]
        assert np.array_equal(reach_groups(plan), expected)

    def test_a_26_qubit_plan_builds_only_the_selected_groups(self, monkeypatch):
        gates = [
            CCNOT(20, 25, 3),
            CNOT(12, 4),
            CCNOT(1, 18, 22),
            CNOT(5, 24),
            CCNOT(10, 11, 7),
            X(17),
            CNOT(2, 9),
        ]
        assert static_runs(gates) == [gates]
        aranges = []
        arange = np.arange

        def counted(*args, **kwargs):
            aranges.append(arange(*args, **kwargs).size)
            return arange(*args, **kwargs)

        monkeypatch.setattr(np, "arange", counted)
        plan = planned(gates, 26)
        monkeypatch.setattr(np, "arange", arange)
        bits = bin(plan.selector).count("1")
        assert plan.selector == sum(1 << qubit for qubit in (10, 11, 12, 18, 20, 25))
        assert len(dense_module._submasks(plan.selector)) == 1 << bits
        assert np.unique(reach_groups(plan)).size <= 1 << bits
        assert aranges and max(aranges) < 1 << 26 - BLOCK_BITS  # never every block start


def counted_reads(monkeypatch) -> list:
    """Record the input indices that each ``np.take`` reads, from here on.

    A take reads every index it is given: the kernel passes it either whole
    rows of pulled-back indices, one row per output block, when every input
    block is named, or else only the pulled-back indices whose block is
    named. Each array recorded is flat.
    """
    reads = []
    take = np.take

    def counted(array, index, *args, **kwargs):
        reads.append(np.ravel(index).copy())
        return take(array, index, *args, **kwargs)

    monkeypatch.setattr(np, "take", counted)
    return reads


class TestReach:
    """Given the occupied input blocks, the kernel gathers only the blocks they can reach."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.integers(BLOCK_BITS - 1, 20),
        st.integers(0, 30),
        st.booleans(),
        st.integers(1, 3),
    )
    # at 9 block bits, head CNOT(6, 9), CNOT(9, 6) alone: only the first run,
    # CNOT(6, 9), flips qubit 9
    @example(seed=0, num_qubits=BLOCK_BITS + 1, num_gates=0, swap_head=True, held=1)
    @example(seed=7, num_qubits=20, num_gates=30, swap_head=True, held=2)
    @example(seed=10, num_qubits=17, num_gates=30, swap_head=False, held=1)
    @example(seed=10, num_qubits=BLOCK_BITS - 1, num_gates=30, swap_head=False, held=1)
    @example(seed=10, num_qubits=BLOCK_BITS, num_gates=30, swap_head=False, held=1)
    @example(seed=10, num_qubits=BLOCK_BITS + 1, num_gates=30, swap_head=False, held=2)
    def test_sourced_gather_matches_the_full_gather(
        self, seed, num_qubits, num_gates, swap_head, held
    ):
        rng = random.Random(seed)
        gates = dependency_ordered_gates(rng, num_qubits, num_gates)
        if swap_head and num_qubits > BLOCK_BITS:
            # a swap of a low and a high qubit, or its first two CNOTs: either way the
            # first CNOT is a run of its own and may flip the high qubit, which in the
            # shorter head no later run flips
            low, high = rng.randrange(BLOCK_BITS), rng.randrange(BLOCK_BITS, num_qubits)
            head = [CNOT(low, high), CNOT(high, low), CNOT(low, high)]
            gates = head[: rng.choice([2, 3])] + gates
        block_bits = min(BLOCK_BITS, num_qubits)
        blocks = 1 << num_qubits - block_bits
        values = np.zeros(1 << num_qubits, np.complex64)
        for block in rng.sample(range(blocks), min(held, blocks)):
            for _ in range(rng.randint(1, 4)):
                word = rng.choice([1, 0.5 - 1j, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)])
                values[block << block_bits | rng.randrange(1 << block_bits)] = word
        # occupancy by nonzero byte, as the kernel's own scan flags it: -0.0 counts
        sources = np.flatnonzero(values.view(np.uint8).reshape(blocks, -1).max(axis=1))
        full, full_occupied = gather_runs(values, gates, every_block(values))
        sourced, sourced_occupied = gather_runs(values, gates, sources)
        assert sourced.tobytes() == full.tobytes()
        assert np.array_equal(sourced_occupied, full_occupied)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.integers(BLOCK_BITS - 1, 20),
        st.integers(0, 30),
        st.lists(st.integers(0, 2**8 - 1), min_size=0, max_size=4),
    )
    @example(seed=3, num_qubits=20, num_gates=30, held=[0])
    @example(seed=4, num_qubits=BLOCK_BITS + 1, num_gates=30, held=[1, 1])
    @example(seed=5, num_qubits=BLOCK_BITS, num_gates=30, held=[0])
    def test_gathered_blocks_match_a_brute_force_scan(self, seed, num_qubits, num_gates, held):
        gates = dependency_ordered_gates(random.Random(seed), num_qubits, num_gates)
        assert static_runs(gates) in ([gates], [])
        plan = planned(gates, num_qubits)
        block = 1 << min(BLOCK_BITS, num_qubits)
        blocks = (1 << num_qubits) // block
        sources = {k % blocks for k in held}
        # output block k reads input block k ^ h for each h in the reach of its
        # group, the group whose selection k's start matches
        reach = {}
        for h, group in zip(plan.reach.tolist(), reach_groups(plan).tolist()):
            reach.setdefault(group, []).append(h)
        expected = {
            k
            for k in range(blocks)
            if any(k ^ h in sources for h in reach[k * block & plan.selector])
        }
        # the kernel's gathered blocks, found through the oracle: input index i
        # is read for output index permutation[i], in block permutation[i] // block
        permutation = as_permutation(Circuit(num_qubits).extend(gates), max_qubits=20)
        values = np.zeros(1 << num_qubits, np.complex64)
        with pytest.MonkeyPatch.context() as patch:
            reads = counted_reads(patch)
            _apply_segment(values, gate_masks(gates), sorted(sources))
        read = [index for taken in reads for index in taken.tolist()]
        gathered = {int(permutation[index]) // block for index in read}
        # each output index pulls back one input index, and every gathered
        # block reads at least one: no index read twice, no block gathered twice
        assert len(read) == len(set(read))
        assert {index // block for index in read} <= sources  # only named blocks are read
        assert gathered == expected

    def test_each_staging_run_gathers_under_2_14_amplitudes(self):
        unshared = CompileOptions(share_subexpressions=False, ancilla_budget=10)
        for compiled in (build_idc_circuit(), build_idc_circuit(unshared)):
            assert compiled.circuit.num_qubits in (24, 25)
            for qubit in range(len(INPUT_COMPLEXES)):
                one_hot = [int(k == qubit) for k in range(len(INPUT_COMPLEXES))]
                with pytest.MonkeyPatch.context() as patch:
                    reads = counted_reads(patch)
                    stages, result = run_activation(one_hot, "statevector", compiled)
                read = np.concatenate(reads)
                # the 2^9 amplitudes of the basis state's block, each read once
                assert read.size == np.unique(read).size == 1 << BLOCK_BITS
                assert (read >> BLOCK_BITS == 1 << qubit >> BLOCK_BITS).all()
                # the output blocks gathered, found by running each read index forward
                outputs = {run(compiled.circuit, int(index)).final_state for index in read}
                gathered = {output >> BLOCK_BITS for output in outputs}
                assert 0 < len(gathered) << BLOCK_BITS < 1 << 14
                fast_stages, fast = run_activation(one_hot, "fast", compiled)
                assert stages == fast_stages and result.bits == fast.bits


class TestPlanCache:
    """A static run is planned once and its plan reused while the cache keeps it."""

    @pytest.fixture(scope="class")
    def width25(self):
        return build_idc_circuit(CompileOptions(share_subexpressions=False, ancilla_budget=10))

    def test_cached_arrays_are_read_only(self):
        gates = dependency_ordered_gates(random.Random(23), 19, 30)
        masks = gate_masks(gates)
        plan = dense_module._cached_plan(masks, 19)
        assert plan.tables and np.unique(plan.source_selection).size > 1
        arrays = [plan.base, *(table for _, table in plan.tables)]
        arrays += [plan.reach, plan.source_selection]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
            with pytest.raises(ValueError, match="read-only"):
                np.bitwise_xor(array, 1, out=array)
        assert dense_module._cached_plan(masks, 19) is plan

    def test_a_run_after_a_failed_gather_is_exact(self, monkeypatch):
        staging = build_idc_circuit().circuit
        unitary = [gate for gate in staging.gates if not isinstance(gate, Measure)]
        measures = [gate for gate in staging.gates if isinstance(gate, Measure)]
        # the staging gates twice over: several static runs, each of which
        # takes its reached blocks from a one-hot input in a single np.take
        circuit = Circuit(staging.num_qubits, staging.num_clbits).extend(unitary * 2 + measures)
        runs = len(static_runs(unitary * 2))
        assert 2 <= runs <= dense_module._PLANS_KEPT
        initial = 1 << 3  # the input qubits are 0 to 14
        fast = run(circuit, initial, "fast")
        assert run(circuit, initial, "statevector").bits == fast.bits  # the plans are cached
        take = np.take
        takes, raised = [], []

        def failing(*args, **kwargs):
            takes.append(1)
            if len(takes) == 2:  # after the first run's gather, in the middle of run()
                raised.append(len(takes))
                raise MemoryError("gather failed")
            return take(*args, **kwargs)

        monkeypatch.setattr(np, "take", failing)
        with pytest.raises(MemoryError, match="gather failed"):
            run(circuit, initial, "statevector")
        assert raised == [2]
        monkeypatch.setattr(np, "take", take)
        hits = dense_module._cached_plan.cache_info().hits
        dense = run(circuit, initial, "statevector")
        assert dense_module._cached_plan.cache_info().hits == hits + runs
        assert results_agree(fast, dense)

    def test_the_reference_table_plans_once(self, monkeypatch, width25):
        built = []
        plan = dense_module._plan

        def counted(*args):
            built.append(args)
            return plan(*args)

        monkeypatch.setattr(dense_module, "_plan", counted)
        dense_module._cached_plan.cache_clear()
        rows = verify_reference_table("statevector", width25)
        assert len(rows) == 15 and all(row.ok for row in rows)
        assert len(built) == 1
        assert built[0][1] == width25.circuit.num_qubits == 25

    def test_four_threads_share_the_cache(self, width25):
        dense_module._cached_plan.cache_clear()
        threads = 4
        barrier = threading.Barrier(threads, timeout=60)
        errors: list[BaseException] = []

        def worker(k: int) -> None:
            try:
                barrier.wait()
                for tnm in INPUT_COMPLEXES[k::threads]:
                    dense = stage(tnm, "statevector", width25)
                    fast = stage(tnm, "fast", width25)
                    assert dense.result.bits == fast.result.bits
                    assert dense.stages == fast.stages
            except BaseException as exc:  # re-raised below
                errors.append(exc)
                barrier.abort()

        pool = [threading.Thread(target=worker, args=(k,)) for k in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in pool)
        if errors:
            raise errors[0]
        info = dense_module._cached_plan.cache_info()
        assert info.currsize == 1 and info.hits + info.misses == len(INPUT_COMPLEXES)


def measured_circuit(num_qubits: int) -> Circuit:
    """40 random gates, then measurements of the lowest, middle and highest qubits."""
    rng = random.Random(num_qubits)
    circuit = random_circuit(rng, num_qubits, 40, with_measures=False)
    circuit = Circuit(num_qubits, 3).extend(circuit.gates)
    return circuit.extend([Measure(0, 0), Measure(num_qubits // 2, 1), Measure(num_qubits - 1, 2)])


def assert_exact(result: RunResult, circuit: Circuit, initial: int) -> None:
    """One nonzero amplitude, equal to 1, at the fast engine's index, and the same bits."""
    fast = run(circuit, initial, "fast")
    amplitudes = result.final_state.amplitudes
    assert np.flatnonzero(amplitudes).tolist() == [fast.final_state]
    assert amplitudes[fast.final_state] == 1
    assert result.bits == fast.bits


def held_bytes(held) -> bytes:
    if isinstance(held, RunResult):
        held = held.final_state
    if isinstance(held, StateVector):
        held = held.amplitudes
    return held.tobytes()


class TestFreshOutput:
    """Every dense run returns a fresh output; none writes one an earlier run returned."""

    @pytest.mark.parametrize(
        "hold",
        [
            lambda result: result,
            lambda result: result.final_state,
            lambda result: result.final_state.amplitudes[::2],
            lambda result: result.final_state.amplitudes[1::2][3::5],  # a view of a view
            lambda result: memoryview(result.final_state.amplitudes),
        ],
        ids=["result", "state", "view", "view-of-view", "memoryview"],
    )
    def test_a_held_output_is_never_written(self, hold):
        circuit = measured_circuit(18)
        held = hold(run(circuit, 1, "statevector"))
        before = held_bytes(held)
        for initial in (2, 1 << 17 | 5):
            assert_exact(run(circuit, initial, "statevector"), circuit, initial)
            assert held_bytes(held) == before

    @pytest.mark.parametrize("spoil", ["freeze", "restride"])
    def test_a_spoilt_output_is_not_handed_out_again(self, spoil):
        # a holder may make its state read-only, or give it zero strides,
        # before dropping it; the next run and the next gather still return
        # a fresh, writable output with the exact state
        circuit = measured_circuit(17)
        spoilt = run(circuit, 3, "statevector").final_state.amplitudes
        if spoil == "freeze":
            spoilt.setflags(write=False)
        else:
            with warnings.catch_warnings():  # numpy 2.4 deprecates setting strides
                warnings.simplefilter("ignore", DeprecationWarning)
                spoilt.strides = (0,)
        dropped = weakref.ref(spoilt)
        del spoilt
        second = run(circuit, 5, "statevector")
        assert dropped() is None
        assert second.final_state.amplitudes.flags.writeable
        assert_exact(second, circuit, 5)
        after, _ = gather_every_block(init_state(17, 6).amplitudes, [X(0)])
        assert after.flags.writeable
        assert np.flatnonzero(after).tolist() == [7]

    def test_concurrent_runs_get_distinct_buffers(self):
        # four threads on two CPUs, each holding its result while the others
        # hold theirs, then all dropping them, round after round
        circuit = measured_circuit(17)
        threads, rounds = 4, 12
        barrier = threading.Barrier(threads, timeout=60)
        addresses: list[set] = [set() for _ in range(rounds)]
        errors: list[BaseException] = []

        def worker(k: int) -> None:
            try:
                for r in range(rounds):
                    initial = (k * rounds + r) * 4099 % (1 << 17)
                    result = run(circuit, initial, "statevector")
                    barrier.wait()
                    addresses[r].add(result.final_state.amplitudes.ctypes.data)
                    assert_exact(result, circuit, initial)
                    barrier.wait()
                    del result
            except BaseException as exc:  # re-raised below
                errors.append(exc)
                barrier.abort()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool = [threading.Thread(target=worker, args=(k,)) for k in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        if errors:
            raise errors[0]
        assert [len(held) for held in addresses] == [threads] * rounds

    def test_a_run_of_several_static_runs_holds_at_most_two_states(self, monkeypatch):
        # the swap's first two CNOTs each make a run of their own, so three
        # gathers run one after the other; each input is dropped once its
        # output is gathered, the initial state included
        gates = [CNOT(4, 17), CNOT(17, 4), CNOT(4, 17), X(19), CNOT(19, 3)]
        assert len(static_runs(gates)) == 3
        circuit = Circuit(20, 1).extend(gates).append(Measure(3, 0))
        initial = 1 << 4 | 1 << 18
        expected = run(circuit, initial, "fast")
        # every state comes from dense._zeros; count those alive at each allocation
        states, alive = [], []
        zeros = dense_module._zeros

        def counted(*args):
            state = zeros(*args)
            states[:] = [held for held in states if held() is not None] + [weakref.ref(state)]
            alive.append(len(states))
            return state

        monkeypatch.setattr(dense_module, "_zeros", counted)
        result = run(circuit, initial, "statevector")
        assert results_agree(expected, result)
        assert alive == [1, 2, 2, 2]  # the initial state, then one output per static run

    def test_back_to_back_runs_grow_by_less_than_one_state(self):
        code = textwrap.dedent(
            """
            import random, resource, sys
            from conftest import random_circuit
            from qrbs.circuit import Circuit, Measure
            from qrbs.simulator import run

            def peak_bytes():
                # Linux carries the spawning process's peak into ru_maxrss
                # across exec, so there this process's own VmHWM is read
                try:
                    with open("/proc/self/status") as status:
                        for line in status:
                            if line.startswith("VmHWM:"):
                                return int(line.split()[1]) << 10
                except OSError:
                    pass
                unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in KiB, or bytes
                return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit

            gates = random_circuit(random.Random(22), 22, 30, with_measures=False).gates
            circuit = Circuit(22, 1).extend(gates).append(Measure(21, 0))
            run(Circuit(1), 0, "statevector")  # loads numpy and the engine
            before = peak_bytes()
            for initial in range(0, 6 << 15, 1 << 15):  # each result is dropped at once
                assert run(circuit, initial, "statevector").bits == run(circuit, initial).bits
            print(before, peak_bytes())
            """
        )
        before, after = map(int, run_script(code).split())
        state = 8 << 22  # one complex64 state of 22 qubits: 32 MiB
        assert after - before < state

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no VmHWM to read")
    def test_staging_rows_after_the_first_raise_the_peak_by_under_1_mib(self):
        # a 25-qubit staging run from a basis state touches one 4 KiB page of
        # its initial state and one of its output, and no huge page
        code = textwrap.dedent(
            """
            from qrbs.compiler import CompileOptions
            from qrbs.idc import INPUT_COMPLEXES, build_idc_circuit, run_activation
            from qrbs.idc import verify_reference_table

            def vm_hwm():
                with open("/proc/self/status") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            return int(line.split()[1]) << 10

            unshared = CompileOptions(share_subexpressions=False, ancilla_budget=10)
            compiled = build_idc_circuit(unshared)
            assert compiled.circuit.num_qubits == 25
            run_activation([1] + [0] * (len(INPUT_COMPLEXES) - 1), "statevector", compiled)
            before = vm_hwm()
            rows = verify_reference_table("statevector", compiled)
            assert len(rows) == 15 and all(row.ok for row in rows), rows
            print(before, vm_hwm())
            """
        )
        before, after = map(int, run_script(code).split())
        assert after - before < 1 << 20


def run_script(code: str) -> str:
    """The stdout of ``code``, run in a fresh Python process that imports ``src`` and ``tests``."""
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
    path = os.pathsep.join(filter(None, path))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    return done.stdout
