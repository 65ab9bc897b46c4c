"""The bit-plane kernel against the scalar oracles.

Exhaustive verification and RLB reduction run on :mod:`qrbs.planes`;
``evaluate_network``, ``evaluate_expr`` and the fast engine stay the
references they are checked against here, mismatch order included.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_circuit, random_constraints, random_network
from qrbs import compiler, planes
from qrbs.categorical import LogicBase, build_elb, reduce_to_rlb
from qrbs.circuit import Circuit, Measure, X
from qrbs.compiler import (
    CompiledCircuit,
    VerificationReport,
    compile_network,
    verify_compilation,
)
from qrbs.errors import VerificationError
from qrbs.rules import evaluate_expr, parse_rules
from qrbs.simulator import run

SEEDS = st.integers(0, 2**32)


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
        exhaustive = verify_compilation(network, compiled)
        assert exhaustive == verify_compilation(network, compiled, assignments=every)

    def test_more_than_one_chunk(self):
        # 18 inputs, so four chunks; i16 and i17 are constant within each
        low = " & ".join(f"i{k}" for k in range(16))
        network = parse_rules(f"rule: {low} & i16 & i17 -> Y\nrule: {low} & i17 -> Z\n")
        compiled = compile_network(network)
        assert verify_compilation(network, compiled) == VerificationReport(1 << 18, ())

        # an X on i17's qubit first makes Z wrong on the top word of every chunk,
        # and Y on the top words of chunks 1 and 3
        broken = Circuit(compiled.circuit.num_qubits, compiled.circuit.num_clbits)
        broken.append(X(compiled.input_map["i17"]))
        broken.extend(compiled.circuit.gates)
        broken = CompiledCircuit(broken, compiled.input_map, compiled.output_map, 0)
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
        scalar = verify_compilation(network, broken, assignments=_words(network, sorted(sample)))
        assert scalar.mismatches == report.mismatches


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

    def test_the_cap_is_inclusive(self, monkeypatch):
        network = parse_rules("rule: a & b -> Y\n")
        compiled = compile_network(network)
        broken = Circuit(compiled.circuit.num_qubits, compiled.circuit.num_clbits)
        broken.append(X(compiled.input_map["a"]))
        broken.extend(compiled.circuit.gates)
        broken = CompiledCircuit(broken, compiled.input_map, compiled.output_map, 0)
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
