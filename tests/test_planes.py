"""The bit-plane kernel against the scalar oracles.

Verification (exhaustive and on chosen lists) and RLB reduction run on
:mod:`qrbs.planes`; ``evaluate_network``, ``evaluate_expr`` and the fast
engine stay the references they are checked against here, mismatch
order included.
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_circuit, random_constraints, random_network
from qrbs import compiler, planes
from qrbs.categorical import LogicBase, build_elb, reduce_to_rlb
from qrbs.circuit import CNOT, Circuit, Measure, X
from qrbs.compiler import (
    CompiledCircuit,
    Mismatch,
    VerificationReport,
    compile_network,
    verify_compilation,
)
from qrbs.errors import NetworkError, SimulationError, VerificationError
from qrbs.rules import evaluate_expr, evaluate_network, parse_rules
from qrbs.simulator import run

SEEDS = st.integers(0, 2**32)


def _scalar_report(network, compiled, assignments) -> VerificationReport:
    """One assignment at a time through ``evaluate_network`` and the fast engine."""
    mismatches = []
    for assignment in assignments:
        expected = evaluate_network(network, assignment)
        initial = sum(1 << compiled.input_map[fact] for fact, bit in assignment.items() if bit)
        bits = run(compiled.circuit, initial, engine="fast").bits
        given_bits = tuple(sorted((fact, 1 if bit else 0) for fact, bit in assignment.items()))
        for fact, (_, clbit) in compiled.output_map.items():
            if bits[clbit] != expected[fact]:
                mismatches.append(Mismatch(given_bits, fact, expected[fact], bits[clbit]))
    return VerificationReport(len(assignments), tuple(mismatches))


def _words(network, words):
    facts = network.input_facts
    return [{fact: word >> i & 1 for i, fact in enumerate(facts)} for word in words]


def _word(network, mismatch) -> int:
    bits = dict(mismatch.assignment)
    return sum(bits[fact] << i for i, fact in enumerate(network.input_facts))


def _mutated(compiled, rng: random.Random, mutation: str) -> CompiledCircuit:
    """``compiled`` with one unitary gate dropped or one ``X`` added before the measurements."""
    gates = compiled.circuit.gates
    unitary = [i for i, gate in enumerate(gates) if not isinstance(gate, Measure)]
    if mutation == "drop" and unitary:
        dropped = rng.choice(unitary)
        gates = [gate for i, gate in enumerate(gates) if i != dropped]
    else:
        at = rng.randint(0, len(unitary))
        gates = gates[:at] + [X(rng.randrange(compiled.circuit.num_qubits))] + gates[at:]
    circuit = Circuit(compiled.circuit.num_qubits, compiled.circuit.num_clbits)
    circuit.extend(gates)
    return CompiledCircuit(circuit, compiled.input_map, compiled.output_map, 0)


def _with_x_first(compiled, fact: str) -> CompiledCircuit:
    """``compiled`` with an ``X`` on ``fact``'s input qubit before every other gate."""
    broken = Circuit(compiled.circuit.num_qubits, compiled.circuit.num_clbits)
    broken.append(X(compiled.input_map[fact]))
    broken.extend(compiled.circuit.gates)
    return CompiledCircuit(broken, compiled.input_map, compiled.output_map, 0)


class TestPack:
    def test_row_j_is_bit_j_in_batches(self, monkeypatch):
        monkeypatch.setattr(planes, "CHUNK_BITS", 2)
        rows = [(1, 0, 1), (0, 0, 1), (1, 1, 1), (0, 1, 1), (1, 0, 1), (0, 1, 1)]
        assert list(planes.pack(iter(rows))) == [
            (0b1111, [0b0101, 0b1100, 0b1111]),
            (0b11, [0b01, 0b10, 0b11]),
        ]

    def test_empty_rows_and_no_rows(self):
        assert list(planes.pack([(), ()])) == [(0b11, [])]
        assert list(planes.pack([])) == []

    def test_a_full_batch_matches_the_exhaustive_planes(self):
        rows = [tuple(word >> i & 1 for i in range(18)) for word in range(1 << 16)]
        assert list(planes.pack(rows)) == [planes.input_planes(18, 0)]


class TestVerification:
    @settings(max_examples=80, deadline=None)
    @given(SEEDS, st.sampled_from(["none", "drop", "x"]))
    def test_exhaustive_report_equals_the_scalar_report(self, seed, mutation):
        rng = random.Random(seed)
        network = random_network(rng, with_implies=seed % 3 == 0)
        compiled = compile_network(network)
        if mutation != "none":
            compiled = _mutated(compiled, rng, mutation)
        every = _words(network, range(1 << len(network.input_facts)))
        assert verify_compilation(network, compiled) == _scalar_report(network, compiled, every)
        chosen = every + [rng.choice(every) for _ in range(rng.randint(0, 20))]
        rng.shuffle(chosen)
        for assignments in (every, chosen):
            report = verify_compilation(network, compiled, assignments=assignments)
            assert report == _scalar_report(network, compiled, assignments)

    def test_chosen_lists_span_batches(self, monkeypatch):
        network = parse_rules("rule: a & b -> Y\nrule: !c | d -> Z\n")
        compiled = compile_network(network)
        broken = _with_x_first(compiled, "a")  # Y wrong where b = 1
        rng = random.Random(11)
        every = _words(network, range(16))
        chosen = [rng.choice(every) for _ in range(37)]  # duplicates, and a ragged last batch
        monkeypatch.setattr(planes, "CHUNK_BITS", 2)
        for circuit in (compiled, broken):
            report = verify_compilation(network, circuit, assignments=chosen)
            assert report == _scalar_report(network, circuit, chosen)
            assert verify_compilation(network, circuit) == _scalar_report(network, circuit, every)
        wrong = len(_scalar_report(network, broken, chosen).mismatches)
        assert 0 < wrong < 37
        # the cap counts over every batch, past the ones already kept
        monkeypatch.setattr(compiler, "MAX_MISMATCHES", wrong - 1)
        with pytest.raises(VerificationError, match=f"^{wrong} mismatches over 37 assignments"):
            verify_compilation(network, broken, assignments=chosen)

    def test_assignment_values_are_reported_as_bits(self):
        network = parse_rules("rule: a & b -> Y\n")
        broken = _with_x_first(compile_network(network), "a")
        report = verify_compilation(network, broken, assignments=[{"a": True, "b": 2}])
        assert report.mismatches == (Mismatch((("a", 1), ("b", 1)), "Y", 1, 0),)
        assert report == verify_compilation(network, broken, assignments=[{"a": 1, "b": 1}])

    @pytest.mark.parametrize(
        "assignment", [{"a": 1}, {"a": 1, "b": 0, "c": 1}], ids=["missing", "unknown"]
    )
    def test_a_bad_fact_raises_the_evaluators_error(self, assignment):
        network = parse_rules("rule: a & b -> Y\n")
        compiled = compile_network(network)
        with pytest.raises(NetworkError) as scalar:
            evaluate_network(network, assignment)
        with pytest.raises(NetworkError, match=f"^{re.escape(str(scalar.value))}$"):
            verify_compilation(network, compiled, assignments=[{"a": 0, "b": 0}, assignment])

    def test_more_than_one_chunk(self):
        # 18 inputs, so four chunks; i16 and i17 are constant within each
        low = " & ".join(f"i{k}" for k in range(16))
        network = parse_rules(f"rule: {low} & i16 & i17 -> Y\nrule: {low} & i17 -> Z\n")
        compiled = compile_network(network)
        assert verify_compilation(network, compiled) == VerificationReport(1 << 18, ())

        # an X on i17's qubit first makes Z wrong on the top word of every chunk,
        # and Y on the top words of chunks 1 and 3
        broken = _with_x_first(compiled, "i17")
        report = verify_compilation(network, broken)
        assert report.assignments_checked == 1 << 18
        assert [(_word(network, m), m.fact) for m in report.mismatches] == [
            (0x0FFFF, "Z"),
            (0x1FFFF, "Y"),
            (0x1FFFF, "Z"),
            (0x2FFFF, "Z"),
            (0x3FFFF, "Y"),
            (0x3FFFF, "Z"),
        ]
        rng = random.Random(7)
        sample = {rng.randrange(1 << 18) for _ in range(300)} | {w << 16 | 0xFFFF for w in range(4)}
        chosen = _words(network, sorted(sample))
        assert verify_compilation(network, broken, assignments=chosen).mismatches == (
            report.mismatches
        )
        assert _scalar_report(network, broken, chosen).mismatches == report.mismatches


class TestRefusedGates:
    """A gate the fast engine refuses is refused in both verification modes, in its words."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda gates: gates.insert(0, "junk"),
            lambda gates: gates.insert(0, CNOT(0, 40)),
            lambda gates: gates.append(Measure(0, 9)),
        ],
        ids=["non-gate", "cnot-beyond-qubits", "measure-beyond-clbits"],
    )
    @pytest.mark.parametrize("mode", ["exhaustive", "chosen"])
    def test_raises_the_fast_engines_error(self, edit, mode):
        network = parse_rules("rule: a & b -> Y\n")
        compiled = compile_network(network)
        edit(compiled.circuit.gates)  # past Circuit.append's checks
        with pytest.raises(SimulationError) as fast:
            run(compiled.circuit, 0, engine="fast")
        chosen = None if mode == "exhaustive" else [{"a": 1, "b": 0}]
        with pytest.raises(SimulationError, match=f"^{re.escape(str(fast.value))}$"):
            verify_compilation(network, compiled, assignments=chosen)


class TestMismatchCap:
    def test_a_wrong_output_on_every_word_is_refused_before_decoding(self, monkeypatch):
        facts = [f"i{k}" for k in range(20)]
        network = parse_rules(
            f"rule: {' & '.join(facts)} -> Y\nrule: i0 | i19 -> Z\nrule: !i7 -> W\n"
        )
        compiled = compile_network(network)
        gates = compiled.circuit.gates
        measures = [i for i, gate in enumerate(gates) if isinstance(gate, Measure)]
        z_qubit = compiled.output_map["Z"][0]
        broken = Circuit(compiled.circuit.num_qubits, compiled.circuit.num_clbits)
        broken.extend(gates[: measures[0]] + [X(z_qubit)] + gates[measures[0] :])
        broken = CompiledCircuit(broken, compiled.input_map, compiled.output_map, 0)

        def no_mismatch(*args):
            raise AssertionError("a Mismatch was built")

        monkeypatch.setattr(compiler, "Mismatch", no_mismatch)
        with pytest.raises(VerificationError, match=f"{1 << 20} mismatches"):
            verify_compilation(network, broken)

    def test_a_flooded_chosen_list_is_refused_before_decoding(self, monkeypatch):
        network = parse_rules("rule: a & b -> Y\nrule: a | b -> Z\n")
        compiled = compile_network(network)
        z_qubit = compiled.output_map["Z"][0]
        broken = Circuit(compiled.circuit.num_qubits, compiled.circuit.num_clbits)
        gates = compiled.circuit.gates
        measures = [i for i, gate in enumerate(gates) if isinstance(gate, Measure)]
        broken.extend(gates[: measures[0]] + [X(z_qubit)] + gates[measures[0] :])
        broken = CompiledCircuit(broken, compiled.input_map, compiled.output_map, 0)
        chosen = _words(network, [0, 1, 2, 3] * 50)  # Z wrong on every one

        def no_mismatch(*args):
            raise AssertionError("a Mismatch was built")

        monkeypatch.setattr(compiler, "MAX_MISMATCHES", 199)
        monkeypatch.setattr(compiler, "Mismatch", no_mismatch)
        with pytest.raises(VerificationError, match="^200 mismatches over 200 assignments"):
            verify_compilation(network, broken, assignments=chosen)

    def test_the_cap_is_inclusive(self, monkeypatch):
        network = parse_rules("rule: a & b -> Y\n")
        broken = _with_x_first(compile_network(network), "a")
        report = verify_compilation(network, broken)  # Y wrong where b = 1
        assert [dict(m.assignment) for m in report.mismatches] == [
            {"a": 0, "b": 1},
            {"a": 1, "b": 1},
        ]
        monkeypatch.setattr(compiler, "MAX_MISMATCHES", 2)
        assert verify_compilation(network, broken) == report
        monkeypatch.setattr(compiler, "MAX_MISMATCHES", 1)
        with pytest.raises(VerificationError, match="2 mismatches over 4 assignments"):
            verify_compilation(network, broken)


class TestRun:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 9), st.integers(0, 30), SEEDS)
    def test_plane_run_matches_the_fast_engine_on_every_basis_input(self, n, gates, seed):
        circuit = Circuit(n, n)
        circuit.extend(random_circuit(random.Random(seed), n, gates, with_measures=False).gates)
        circuit.extend(Measure(q, q) for q in range(n))
        ones, inputs = planes.input_planes(n, 0)
        measured = planes.run(circuit, inputs, ones)
        for word in range(1 << n):
            result = run(circuit, word, engine="fast")
            assert tuple(plane >> word & 1 for plane in measured) == result.bits
            assert sum((plane >> word & 1) << q for q, plane in enumerate(measured)) == (
                result.final_state
            )


def _scanned_bits(plane: int) -> list[int]:
    """Set-bit positions by scanning the binary string: the reference for ``set_bits``."""
    return [j for j, bit in enumerate(bin(plane)[:1:-1]) if bit == "1"]


class TestSetBits:
    @pytest.mark.parametrize(
        "plane", [0, 1, 1 << 65535, (1 << 65536) - 1], ids=["zero", "one", "lone-top", "all-ones"]
    )
    def test_edge_planes_match_the_string_scan(self, plane):
        assert planes.set_bits(plane) == _scanned_bits(plane)

    @settings(max_examples=200)
    @given(st.data(), st.integers(1, 300).filter(lambda width: width % 8), st.integers(0, 1 << 20))
    def test_ragged_widths_match_the_string_scan(self, data, width, offset):
        plane = data.draw(st.integers(1 << width - 1, (1 << width) - 1))
        assert plane.bit_length() == width
        reference = _scanned_bits(plane)
        assert planes.set_bits(plane) == reference
        assert planes.set_bits(plane, offset) == [offset + j for j in reference]


def _scalar_rlb(elb, constraints, names) -> tuple:
    return tuple(
        (s, d)
        for s, d in elb.pairs
        if all(evaluate_expr(c.expr, dict(zip(names, s.bits + d.bits))) for c in constraints)
    )


class TestReduction:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), SEEDS)
    def test_reduction_equals_the_scalar_filter(self, ns, nd, seed):
        rng = random.Random(seed)
        names = [f"s{i}" for i in range(1, ns + 1)] + [f"d{i}" for i in range(1, nd + 1)]
        constraints = random_constraints(rng, names, rng.randint(0, 4))
        elb = build_elb(ns, nd)
        assert reduce_to_rlb(elb, constraints).pairs == _scalar_rlb(elb, constraints, names)

        # a base not in build_elb order (shuffled, then thinned) keeps its own order
        pairs = list(elb.pairs)
        rng.shuffle(pairs)
        base = LogicBase(ns, nd, tuple(pairs[: rng.randint(0, len(pairs))]))
        assert reduce_to_rlb(base, constraints).pairs == _scalar_rlb(base, constraints, names)

    def test_more_than_one_chunk(self):
        ns, nd = 9, 8
        names = [f"s{i}" for i in range(1, ns + 1)] + [f"d{i}" for i in range(1, nd + 1)]
        constraints = random_constraints(random.Random(3), names, 3)
        elb = build_elb(ns, nd)
        rlb = reduce_to_rlb(elb, constraints)
        assert rlb.pairs == _scalar_rlb(elb, constraints, names)
        assert 0 < len(rlb) < len(elb)
