"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line on success (run with ``pytest -s`` to see
them); a failed assertion is the FAIL. Expected staging rows are frozen
here, independently of the library's own reference table.
"""

import itertools
import random
import time

import numpy as np
import pytest

from conftest import gather_every_block, norm_sq, random_circuit, random_network, results_agree
from qrbs.categorical import Presence, build_elb, diagnose, index_to_complex, parse_constraints, reduce_to_rlb
from qrbs.circuit import Circuit, Measure
from qrbs.compiler import CompileOptions, compile_network, verify_compilation
from qrbs.errors import OneHotError
from qrbs.idc import TnmClass, build_idc_circuit, run_activation, stage
from qrbs.rules import parse_rules
from qrbs.dense import init_state
from qrbs.simulator import run

# The fifteen staging rows: TNM, activated qubit, output bits, stage set.
GOLDEN_ROWS = (
    ("T0 N1 M0", 0, "00000110", {"I-B", "II-A"}),
    ("T0 N2 M0", 1, "00010000", {"III-A"}),
    ("T1 N0 M0", 2, "00000001", {"I-A"}),
    ("T1 N1 M0", 3, "00000110", {"I-B", "II-A"}),
    ("T1 N2 M0", 4, "00010000", {"III-A"}),
    ("T2 N0 M0", 5, "00010100", {"III-A", "II-A"}),
    ("T2 N1 M0", 6, "00001000", {"II-B"}),
    ("T3 N0 M0", 7, "00001000", {"II-B"}),
    ("T3 N1 M0", 8, "00010000", {"III-A"}),
    ("T3 N2 M0", 9, "00010000", {"III-A"}),
    ("T4 N0 M0", 10, "00100000", {"III-B"}),
    ("T4 N1 M0", 11, "00100000", {"III-B"}),
    ("T4 N2 M0", 12, "00100000", {"III-B"}),
    ("TX N3 M0", 13, "01000000", {"III-C"}),
    ("TX NY M1", 14, "10000000", {"IV"}),
)

DEMO_RULES = "rule: A & B -> X\nrule: X | C -> Y\nrule: Y & (D | E) -> R\n"

WORKED_CONSTRAINT_TEXT = """\
symptoms: s1, s2
diagnoses: d1, d2
rule C1: any_symptom_implies_diagnosis
rule C2: d2 => s1
rule C3: d1 & !d2 => s2
rule C4: !d1 & d2 => !s2
"""


@pytest.fixture(scope="module")
def shared_circuit():
    return build_idc_circuit()


@pytest.fixture(scope="module")
def width25_circuit():
    return build_idc_circuit(CompileOptions(share_subexpressions=False, ancilla_budget=10))


def test_staging_suite_fast_engine_is_bit_exact(shared_circuit, width25_circuit):
    start = time.perf_counter()
    for compiled in (shared_circuit, width25_circuit):
        for text, qubit, bits, names in GOLDEN_ROWS:
            staged = stage(TnmClass.parse(text), engine="fast", compiled=compiled)
            assert staged.activated_qubit == qubit, text
            assert staged.result.bitstring == bits, text
            assert set(staged.stages.names()) == names, text
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"fast staging suite took {elapsed:.3f}s"
    print(f"PASS: staging suite on the fast engine, bit-exact ({elapsed * 1000:.1f} ms)")


def test_staging_suite_dense_engine_at_25_qubits(width25_circuit):
    assert width25_circuit.circuit.num_qubits == 25
    # an untimed dense staging run on the narrower shared circuit first, so
    # one-time first-call costs stay out of the timed region
    stage(TnmClass.parse("T1 N0 M0"), engine="statevector", compiled=build_idc_circuit())

    start = time.perf_counter()
    peak_bytes = 0
    for text, qubit, bits, names in GOLDEN_ROWS:
        staged = stage(TnmClass.parse(text), engine="statevector", compiled=width25_circuit)
        assert staged.result.bitstring == bits, text
        assert set(staged.stages.names()) == names, text
        peak_bytes = max(peak_bytes, staged.result.final_state.amplitudes.nbytes)
    elapsed = time.perf_counter() - start
    assert peak_bytes <= 512 * 2**20, f"state used {peak_bytes} bytes"
    assert elapsed < 60.0, f"dense staging suite took {elapsed:.1f}s"
    print(
        "PASS: staging suite on the dense engine at 25 qubits "
        f"({elapsed:.1f} s, state {peak_bytes / 2**20:.0f} MiB)"
    )


def test_ancilla_budget(shared_circuit, width25_circuit):
    for compiled in (shared_circuit, width25_circuit):
        assert compiled.ancilla_count <= 10
        assert compiled.circuit.num_qubits <= 25
        assert compiled.circuit.num_qubits == 15 + compiled.ancilla_count
        assert compiled.circuit.num_clbits == 8
    print(
        "PASS: ancilla budget "
        f"(shared {shared_circuit.ancilla_count} <= 10, "
        f"unshared {width25_circuit.ancilla_count} <= 10, widths "
        f"{shared_circuit.circuit.num_qubits}/{width25_circuit.circuit.num_qubits} <= 25)"
    )


def test_reduced_logic_base_and_worked_cases():
    symptoms, diagnoses, constraints = parse_constraints(WORKED_CONSTRAINT_TEXT).resolve()
    rlb = reduce_to_rlb(build_elb(2, 2), constraints, symptoms, diagnoses)
    assert set(rlb.labels()) == {"S0D0", "S1D2", "S2D1", "S2D3", "S3D2", "S3D3"}

    case_one = diagnose(index_to_complex(1, 2), rlb)
    assert case_one.diseases == (Presence.PRESENT, Presence.ABSENT)
    case_two = diagnose(index_to_complex(2, 2), rlb)
    assert case_two.diseases == (Presence.UNCERTAIN, Presence.PRESENT)
    print("PASS: reduced logic base matches exactly; both worked cases reproduced")


def test_compiler_agrees_with_the_evaluator_on_500_random_networks():
    rng = random.Random(0x5EED)
    start = time.perf_counter()
    checked = 0
    for index in range(500):
        network = random_network(
            rng, max_inputs=8, max_rules=6, with_implies=(index % 3 == 0)
        )
        options = CompileOptions(share_subexpressions=bool(index % 2))
        compiled = compile_network(network, options)
        report = verify_compilation(network, compiled)
        assert report.ok, f"network {index}: {report}"
        checked += report.assignments_checked
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"compiler property suite took {elapsed:.1f}s"
    print(
        "PASS: 500 random networks, exhaustive oracle agreement "
        f"({checked} assignments, {elapsed:.1f} s)"
    )


def test_engines_agree_on_1000_random_circuits():
    rng = random.Random(0xC1AC)
    start = time.perf_counter()
    for index in range(1000):
        num_qubits = rng.randint(1, 12)
        num_gates = rng.randint(0, 60)
        circuit = random_circuit(rng, num_qubits, num_gates)
        initial = rng.randrange(1 << num_qubits)

        fast = run(circuit, initial, "fast")
        dense = run(circuit, initial, "statevector")
        assert results_agree(fast, dense), f"circuit {index}"

        unitaries = [g for g in circuit.gates if not isinstance(g, Measure)]
        state = init_state(num_qubits, initial)
        for gate in unitaries:
            state.amplitudes, _ = gather_every_block(state.amplitudes, [gate])
            assert abs(np.sqrt(norm_sq(state)) - 1.0) <= 1e-9, f"circuit {index}"
        for gate in reversed(unitaries):
            state.amplitudes, _ = gather_every_block(state.amplitudes, [gate])
        expected = init_state(num_qubits, initial).amplitudes
        assert float(np.linalg.norm(state.amplitudes - expected)) <= 1e-9, f"circuit {index}"

        prefix = Circuit(num_qubits).extend(unitaries)
        composed = prefix.copy().extend(prefix.reversed().gates)
        assert run(composed, initial).final_state == initial, f"circuit {index}"
    elapsed = time.perf_counter() - start
    print(
        "PASS: 1000 random circuits, engine agreement + norms + reversal "
        f"({elapsed:.1f} s)"
    )


def test_compiled_demo_network_matches_hand_forward_chaining():
    network = parse_rules(DEMO_RULES)
    compiled = compile_network(network)
    result_clbit = compiled.output_map["R"][1]
    for bits in itertools.product((0, 1), repeat=5):
        a, b, c, d, e = bits
        expected_r = int(((a and b) or c) and (d or e))  # hand truth table
        initial = sum(bit << compiled.input_map[f] for f, bit in zip("ABCDE", bits))
        assert run(compiled.circuit, initial).bits[result_clbit] == expected_r, bits
    print("PASS: compiled demo network matches hand forward-chaining on all 32 inputs")


def test_one_hot_activation_guard(shared_circuit, monkeypatch):
    import qrbs.idc as idc_module

    def _no_simulation(*args, **kwargs):
        raise AssertionError("simulation started despite an invalid activation")

    monkeypatch.setattr(idc_module, "run", _no_simulation)
    with pytest.raises(OneHotError, match="exactly one input qubit"):
        run_activation([0] * 15, compiled=shared_circuit)
    two = [0] * 15
    two[2] = two[9] = 1
    with pytest.raises(OneHotError, match="exactly one input qubit"):
        run_activation(two, compiled=shared_circuit)
    print("PASS: one-hot guard rejects 0 and 2 activations before simulation")
