"""Circuit IR invariants, permutation oracle and interchange round-trips."""

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_permutation, random_circuit
from qrbs.circuit import CCNOT, CNOT, Circuit, Measure, X, export_qasm, gate_counts, import_qasm
from qrbs.errors import CircuitError, QasmError
from qrbs.simulator import run


def or_block(a: int, b: int, target: int) -> list:
    """The disjunction block: two CNOTs and a CCNOT writing a|b into target."""
    return [CNOT(a, target), CNOT(b, target), CCNOT(a, b, target)]


class TestGateValidation:
    """A gate is a plain record; ``append`` and ``extend`` refuse a repeated or negative qubit."""

    @staticmethod
    def assert_refused(gate, match: str) -> None:
        circuit = Circuit(3, 1)
        with pytest.raises(CircuitError, match=match):
            circuit.append(gate)
        with pytest.raises(CircuitError, match=match):
            Circuit(3, 1).extend([X(0), gate])
        assert circuit.gates == ()

    def test_cnot_control_equals_target(self):
        assert CNOT(2, 2).control == 2  # building a gate checks nothing
        self.assert_refused(CNOT(2, 2), "control equals target")

    def test_ccnot_duplicate_lines(self):
        for gate in (CCNOT(0, 0, 1), CCNOT(0, 1, 1), CCNOT(1, 0, 1)):
            self.assert_refused(gate, "pairwise distinct")

    def test_negative_index(self):
        for gate in (X(-1), CNOT(0, -1), CCNOT(-2, 0, 1), Measure(-1, 0), Measure(0, -1)):
            self.assert_refused(gate, "out of range")


class TestCircuitAppend:
    def test_append_preserves_order(self):
        circuit = Circuit(3).append(CCNOT(0, 1, 2)).append(X(0))
        assert circuit.gates == (CCNOT(0, 1, 2), X(0))

    @pytest.mark.parametrize(
        "sizes", [(2.5,), (True,), ("3",), (None,), (3, 1.0), (3, False), (3, "1")]
    )
    def test_a_non_integer_register_size_is_refused(self, sizes):
        with pytest.raises(CircuitError, match="register size .* is not an integer"):
            Circuit(*sizes)

    def test_out_of_range(self):
        with pytest.raises(CircuitError, match="out of range"):
            Circuit(3).append(X(5))

    @pytest.mark.parametrize(
        "gate",
        [CNOT(0, 5), CNOT(5, 0), CCNOT(0, 1, 3), CCNOT(4, 0, 1), X(4)]
        + [Measure(7, 0), Measure(0, 4)],
    )
    def test_gates_beyond_the_registers_are_refused(self, gate):
        circuit = Circuit(3, 1)
        with pytest.raises(CircuitError, match="out of range"):
            circuit.append(gate)
        with pytest.raises(CircuitError, match="out of range"):
            Circuit(3, 1).extend([X(0), gate])
        assert circuit.gates == ()

    @pytest.mark.parametrize(
        "gate",
        [X(1.0), X(True), CNOT(0, 1.5), CNOT(False, 2), CCNOT(0, 1, 2.0)]
        + [Measure(1.0, 0), Measure(0, 0.0), Measure(0, True)],
    )
    def test_a_non_integer_index_is_refused(self, gate):
        circuit = Circuit(3, 2)
        with pytest.raises(CircuitError, match="is not an integer"):
            circuit.append(gate)
        with pytest.raises(CircuitError, match="is not an integer"):
            Circuit(3, 2).extend([X(0), gate])
        assert circuit.gates == ()

    def test_numpy_integer_indices_are_accepted(self):
        circuit = Circuit(3, 1).append(X(np.int64(2))).append(CNOT(np.int32(2), np.uint8(0)))
        circuit.append(Measure(np.int16(0), np.int64(0)))
        text = export_qasm(circuit)
        assert text.endswith("x q[2];\ncx q[2],q[0];\nmeasure q[0] -> c[0];\n")
        assert import_qasm(text) == circuit

    @pytest.mark.parametrize("engine", ["fast", "statevector"])
    def test_numpy_integer_indices_are_stored_as_ints(self, engine):
        # 1 << np.uint8(9) is a uint8 0, so an engine shifting by the index as given reads bit 9 as 0
        circuit = Circuit(12, 12).append(X(np.uint8(9)))
        circuit.extend(Measure(np.uint8(k), np.int16(k)) for k in range(12))
        result = run(circuit, engine=engine)
        assert result.bits == tuple(int(k == 9) for k in range(12))
        assert all(type(bit) is int for bit in result.bits)
        for gate in circuit.gates:
            assert all(type(index) is int for index in vars(gate).values()), gate
        sized = Circuit(np.uint8(12), np.int64(12)).extend(circuit.gates)
        assert type(sized.num_qubits) is int and type(sized.num_clbits) is int
        assert run(sized, engine=engine).bits == result.bits

    @pytest.mark.parametrize("junk", ["X(1)", None, (0, 1)])
    def test_a_non_gate_is_refused(self, junk):
        with pytest.raises(TypeError, match="not a gate"):
            Circuit(3, 1).append(junk)

    def test_gates_and_registers_are_read_only(self):
        circuit = Circuit(2, 1).append(X(0))
        with pytest.raises(AttributeError):
            circuit.gates.append(CNOT(0, 5))
        with pytest.raises(TypeError):
            circuit.gates[0] = CNOT(0, 5)
        for register in ("gates", "num_qubits", "num_clbits"):
            with pytest.raises(AttributeError):
                setattr(circuit, register, 1)
        circuit.append(CNOT(0, 1))
        assert circuit.gates == (X(0), CNOT(0, 1))
        assert (circuit.num_qubits, circuit.num_clbits) == (2, 1)

    def test_unitary_after_measure_rejected(self):
        circuit = Circuit(2, 1).append(Measure(0, 0))
        with pytest.raises(CircuitError, match="after it was measured"):
            circuit.append(CNOT(0, 1))

    def test_unitary_on_other_qubits_after_measure_ok(self):
        circuit = Circuit(2, 1).append(Measure(0, 0))
        circuit.append(X(1))

    def test_classical_bit_reuse_rejected(self):
        circuit = Circuit(2, 1).append(Measure(0, 0))
        with pytest.raises(CircuitError, match="already written"):
            circuit.append(Measure(1, 0))

    def test_measuring_one_qubit_twice_is_allowed(self):
        Circuit(1, 2).append(Measure(0, 0)).append(Measure(0, 1))

    def test_clbit_out_of_range(self):
        with pytest.raises(CircuitError, match="classical bit"):
            Circuit(1, 0).append(Measure(0, 0))

    def test_reversed_requires_no_measures(self):
        circuit = Circuit(1, 1).append(X(0)).append(Measure(0, 0))
        with pytest.raises(CircuitError, match="measurements"):
            circuit.reversed()

    def test_copy_is_equal_and_independent(self):
        circuit = Circuit(2).append(CNOT(0, 1))
        clone = circuit.copy()
        assert clone == circuit
        clone.append(X(0))
        assert clone != circuit


class TestPermutationOracle:
    def test_toffoli_truth_table_entry(self):
        circuit = Circuit(3).append(CCNOT(0, 1, 2))
        perm = as_permutation(circuit)
        assert perm[0b011] == 0b111  # q0=q1=1 flips q2
        assert perm[0b111] == 0b011
        assert perm[0b001] == 0b001  # single control does nothing

    def test_empty_circuit_is_identity(self):
        perm = as_permutation(Circuit(4))
        assert np.array_equal(perm, np.arange(16))

    def test_or_block_truth_table(self):
        circuit = Circuit(3)
        circuit.extend(or_block(0, 1, 2))
        perm = as_permutation(circuit)
        for index in range(8):
            a, b, t = index & 1, index >> 1 & 1, index >> 2 & 1
            expected = (t ^ (a | b)) << 2 | b << 1 | a
            assert perm[index] == expected

    def test_measures_are_ignored(self):
        circuit = Circuit(2, 1).append(X(0)).append(Measure(0, 0))
        assert np.array_equal(as_permutation(circuit), as_permutation(Circuit(2).append(X(0))))

    def test_width_cap(self):
        with pytest.raises(CircuitError, match="capped at 16"):
            as_permutation(Circuit(17))

    @settings(max_examples=60)
    @given(st.integers(0, 2**32), st.integers(1, 10), st.integers(0, 40))
    def test_permutation_is_a_bijection(self, seed, num_qubits, num_gates):
        rng = random.Random(seed)
        circuit = random_circuit(rng, num_qubits, num_gates, with_measures=False)
        perm = as_permutation(circuit)
        assert np.array_equal(np.sort(perm), np.arange(1 << num_qubits))

    @settings(max_examples=60)
    @given(st.integers(0, 2**32), st.integers(1, 8), st.integers(0, 30))
    def test_reversed_circuit_restores_every_basis_state(self, seed, num_qubits, num_gates):
        rng = random.Random(seed)
        circuit = random_circuit(rng, num_qubits, num_gates, with_measures=False)
        composed = circuit.copy().extend(circuit.reversed().gates)
        assert np.array_equal(as_permutation(composed), np.arange(1 << num_qubits))


class TestGateCounts:
    def test_or_block_counts(self):
        circuit = Circuit(3)
        circuit.extend(or_block(0, 1, 2))
        counts = gate_counts(circuit)
        assert counts["cx"] == 2
        assert counts["ccx"] == 1
        assert counts["x"] == 0
        assert counts["total"] == 3

    def test_empty_counts(self):
        counts = gate_counts(Circuit(2, 1))
        assert counts == {
            "x": 0,
            "cx": 0,
            "ccx": 0,
            "measure": 0,
            "total": 0,
            "num_qubits": 2,
            "num_clbits": 1,
        }


class TestQasm:
    def test_export_example(self):
        circuit = Circuit(1, 1).append(X(0)).append(Measure(0, 0))
        text = export_qasm(circuit)
        assert "x q[0];" in text
        assert "measure q[0] -> c[0];" in text
        assert text.index("x q[0];") < text.index("measure q[0] -> c[0];")

    def test_export_empty_circuit(self):
        assert export_qasm(Circuit(2)) == 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'

    def test_export_skips_creg_when_unused(self):
        assert "creg" not in export_qasm(Circuit(3))
        assert "creg c[2];" in export_qasm(Circuit(3, 2))

    def test_export_is_deterministic(self):
        rng = random.Random(7)
        circuit = random_circuit(rng, 5, 20)
        assert export_qasm(circuit) == export_qasm(circuit)
        assert export_qasm(circuit).endswith("\n")
        assert "\r" not in export_qasm(circuit)

    @settings(max_examples=60)
    @given(st.integers(0, 2**32), st.integers(1, 8), st.integers(0, 30))
    def test_roundtrip_preserves_gate_list(self, seed, num_qubits, num_gates):
        rng = random.Random(seed)
        circuit = random_circuit(rng, num_qubits, num_gates)
        imported = import_qasm(export_qasm(circuit))
        assert imported.gates == circuit.gates
        assert imported.num_qubits == circuit.num_qubits
        assert imported.num_clbits == circuit.num_clbits

    @settings(max_examples=60)
    @given(st.integers(0, 2**32), st.integers(1, 8), st.integers(0, 30))
    def test_whitespace_and_comment_variants_import_alike(self, seed, num_qubits, num_gates):
        rng = random.Random(seed)
        circuit = random_circuit(rng, num_qubits, num_gates)

        def blank(least: int = 0) -> str:
            return "".join(rng.choice(" \t") for _ in range(rng.randint(least, 3)))

        def padded(match) -> str:
            return blank() + match.group() + blank()

        header, include, *rest = export_qasm(circuit).splitlines()
        parts = [header, include]
        for line in rest:
            keyword, operands = line.rstrip(";").split(" ", 1)
            operands = re.sub(r"\[|\]|,|->", padded, operands)
            parts.append(blank() + keyword + blank(1) + operands + blank() + ";")
        text = parts[0]
        for part in parts[1:]:
            # a comment ends its line; otherwise several statements share one
            separator = rng.choice(["\n", blank(), " // x q[0];\n", "\t//\n\n"])
            text += separator + part
        assert import_qasm(text + rng.choice(["", "\n", "// end"])) == circuit

    def test_import_tolerates_comments_and_blanks(self):
        text = (
            "OPENQASM 2.0;\n// banner\ninclude \"qelib1.inc\";\n\n"
            "qreg q[2]; creg c[1];\nx q[0]; // flip\nmeasure q[0] -> c[0];\n"
        )
        circuit = import_qasm(text)
        assert circuit.gates == (X(0), Measure(0, 0))

    def test_import_accepts_an_include(self):
        for include in ('include "qelib1.inc";', 'include\t"other.inc" ;'):
            text = "OPENQASM 2.0;\n" + include + "\nqreg q[2];\nx q[1];\n"
            assert import_qasm(text).gates == (X(1),)

    def test_import_missing_header(self):
        with pytest.raises(QasmError, match="header"):
            import_qasm("qreg q[1];\n")

    def test_import_unsupported_statement(self):
        with pytest.raises(QasmError, match="unsupported statement"):
            import_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[0];\n")

    def test_import_bad_reference(self):
        with pytest.raises(QasmError, match="bad qubit reference"):
            import_qasm("OPENQASM 2.0;\nqreg q[2];\nx r[0];\n")

    def test_import_out_of_range_index(self):
        with pytest.raises(CircuitError, match="out of range"):
            import_qasm("OPENQASM 2.0;\nqreg q[2];\nx q[5];\n")

    def test_import_multiple_qregs(self):
        with pytest.raises(QasmError, match="multiple quantum registers"):
            import_qasm("OPENQASM 2.0;\nqreg q[2];\nqreg r[2];\n")

    def test_import_wrong_arity(self):
        with pytest.raises(QasmError, match="argument count"):
            import_qasm("OPENQASM 2.0;\nqreg q[3];\ncx q[0];\n")


_HEAD = "OPENQASM 2.0;\nqreg q[3];\n"

# Exact message of each QasmError; the importer may change, but what a user
# is told about a bad file may not.
QASM_ERRORS = [
    (_HEAD + "x r[0];", "bad qubit reference 'r[0]'"),
    (_HEAD + "x q[0;", "bad qubit reference 'q[0'"),
    (_HEAD + "cx q[0], r[1] ,q[2];", "bad qubit reference 'r[1]'"),
    (_HEAD + "cx q[0];", "wrong argument count in 'cx q[0]'"),
    (_HEAD + "ccx q[0],q[1];", "wrong argument count in 'ccx q[0],q[1]'"),
    (_HEAD + "h q[0];", "unsupported statement 'h q[0]'"),
    # only include "file" is skipped, not every statement that starts with "include"
    (_HEAD + "includex q[0];", "unsupported statement 'includex q[0]'"),
    (_HEAD + "include_gate q[1];\nx q[1];", "unsupported statement 'include_gate q[1]'"),
    (_HEAD + "include qelib1.inc;", "unsupported statement 'include qelib1.inc'"),
    (
        _HEAD + "x q[" + "9" * 30 + "];",
        "qubit index 99999999999999999999... (30 digits) exceeds the limit of 1048576",
    ),
    (
        "OPENQASM 2.0;\nqreg q[" + "1" * 5000 + "];",
        "qreg size 11111111111111111111... (5000 digits) exceeds the limit of 1048576",
    ),
    (_HEAD + "measure q[0] -> c[0];", "bad classical bit reference 'c[0]'"),
    (_HEAD + "creg c[1];\nmeasure q[0] -> d[0];", "bad classical bit reference 'd[0]'"),
]


@pytest.mark.parametrize("text, message", QASM_ERRORS)
def test_qasm_error_message(text, message):
    with pytest.raises(QasmError) as info:
        import_qasm(text)
    assert str(info.value) == message
