"""Network lowering: gate blocks, ancilla accounting, oracle equivalence."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_network
from qrbs.circuit import CCNOT, CNOT, Circuit, Measure, X, export_qasm
from qrbs.compiler import (
    CompileContext,
    CompileOptions,
    CompiledCircuit,
    compile_expr,
    compile_network,
    verify_compilation,
)
from qrbs.errors import CompileError, NetworkError
from qrbs.rules import And, Atom, Implies, Not, Or, Rule, RuleNetwork, parse_rules
from qrbs.simulator import run

DEMO_RULES = "rule: A & B -> X\nrule: X | C -> Y\nrule: Y & (D | E) -> R\n"


def fresh_context(facts: dict[str, int], **options) -> CompileContext:
    return CompileContext(facts, max(facts.values()) + 1, CompileOptions(**options))


class TestCompileExpr:
    def test_and_block(self):
        ctx = fresh_context({"A": 0, "B": 1})
        result = compile_expr(And(Atom("A"), Atom("B")), ctx)
        assert result == 2
        assert ctx.gates == [CCNOT(0, 1, 2)]
        assert ctx.ancilla_count == 1

    def test_or_block(self):
        ctx = fresh_context({"A": 0, "B": 1})
        result = compile_expr(Or(Atom("A"), Atom("B")), ctx)
        assert result == 2
        assert ctx.gates == [CNOT(0, 2), CNOT(1, 2), CCNOT(0, 1, 2)]
        assert ctx.ancilla_count == 1

    def test_not_copies_then_flips(self):
        ctx = fresh_context({"A": 0})
        result = compile_expr(Not(Atom("A")), ctx)
        assert result == 1
        assert ctx.gates == [CNOT(0, 1), X(1)]

    def test_three_way_or_left_folds(self):
        ctx = fresh_context({"A": 0, "B": 1, "C": 2})
        result = compile_expr(Or(Or(Atom("A"), Atom("B")), Atom("C")), ctx)
        assert result == 4
        assert ctx.ancilla_count == 2
        assert len(ctx.gates) == 6

    def test_flattening_ignores_association(self):
        left = Or(Or(Atom("A"), Atom("B")), Atom("C"))
        right = Or(Atom("A"), Or(Atom("B"), Atom("C")))
        ctx_left = fresh_context({"A": 0, "B": 1, "C": 2})
        ctx_right = fresh_context({"A": 0, "B": 1, "C": 2})
        compile_expr(left, ctx_left)
        compile_expr(right, ctx_right)
        assert ctx_left.gates == ctx_right.gates

    def test_flat_chain_compiles_like_a_left_fold(self):
        flat = fresh_context({"A": 0, "B": 1, "C": 2})
        folded = fresh_context({"A": 0, "B": 1, "C": 2})
        compile_expr(Or(Atom("A"), Atom("B"), Atom("C")), flat)
        compile_expr(Or(Or(Atom("A"), Atom("B")), Atom("C")), folded)
        assert flat.gates == folded.gates
        assert flat.gates[3:] == [CNOT(3, 4), CNOT(2, 4), CCNOT(3, 2, 4)]

    def test_atom_resolves_to_existing_qubit(self):
        ctx = fresh_context({"A": 0})
        assert compile_expr(Atom("A"), ctx) == 0
        assert ctx.gates == []

    def test_unbound_atom(self):
        with pytest.raises(NetworkError, match="not bound"):
            compile_expr(Atom("Z"), fresh_context({"A": 0}))

    def test_idempotent_operands_collapse(self):
        ctx = fresh_context({"A": 0})
        assert compile_expr(And(Atom("A"), Atom("A")), ctx) == 0
        assert ctx.gates == []

    def test_sharing_reuses_identical_subexpressions(self):
        ctx = fresh_context({"A": 0, "B": 1})
        first = compile_expr(Or(Atom("A"), Atom("B")), ctx)
        second = compile_expr(Or(Atom("A"), Atom("B")), ctx)
        assert first == second
        assert ctx.ancilla_count == 1

    def test_sharing_disabled_recomputes(self):
        ctx = fresh_context({"A": 0, "B": 1}, share_subexpressions=False)
        first = compile_expr(Or(Atom("A"), Atom("B")), ctx)
        second = compile_expr(Or(Atom("A"), Atom("B")), ctx)
        assert first != second
        assert ctx.ancilla_count == 2


def _semantics_match(network: RuleNetwork, options: CompileOptions | None = None) -> bool:
    compiled = compile_network(network, options)
    return verify_compilation(network, compiled).ok


class TestCompileNetwork:
    @pytest.mark.parametrize(
        "text",
        [
            "rule: A & B -> X",
            "rule: A | B -> X",
            "rule: A | B | C -> X",
            "rule: !A -> X",
            "rule: !(A & B) | !C -> X",
        ],
    )
    def test_single_rule_truth_tables(self, text):
        # Exhaustive comparison against the classical evaluator.
        assert _semantics_match(parse_rules(text))

    def test_demo_network_matches_evaluator_on_all_32_inputs(self):
        network = parse_rules(DEMO_RULES)
        compiled = compile_network(network)
        report = verify_compilation(network, compiled)
        assert report.ok
        assert report.assignments_checked == 32

    def test_inputs_take_low_qubits_in_declaration_order(self):
        network = parse_rules(DEMO_RULES)
        compiled = compile_network(network)
        assert compiled.input_map == {"A": 0, "B": 1, "C": 2, "D": 3, "E": 4}

    def test_single_literal_output_measures_the_input_qubit(self):
        network = parse_rules("rule: A -> X")
        compiled = compile_network(network)
        assert compiled.ancilla_count == 0
        assert compiled.circuit.gates == (Measure(0, 0),)
        assert compiled.output_map == {"X": (0, 0)}

    def test_single_literal_chain_measures_the_source(self):
        network = parse_rules("rule: A -> X\nrule: X -> Y\noutputs: Y")
        compiled = compile_network(network)
        assert compiled.ancilla_count == 0
        assert compiled.circuit.gates == (Measure(0, 0),)

    def test_measure_direct_off_copies_first(self):
        network = parse_rules("rule: A -> X")
        compiled = compile_network(network, CompileOptions(measure_inputs_directly=False))
        assert compiled.ancilla_count == 1
        assert compiled.circuit.gates == (CNOT(0, 1), Measure(1, 0))
        assert verify_compilation(network, compiled).ok

    def test_classical_bits_follow_output_declaration_order(self):
        network = parse_rules("rule: A -> X\nrule: B -> Y\noutputs: Y, X")
        compiled = compile_network(network)
        assert compiled.output_map["Y"][1] == 0
        assert compiled.output_map["X"][1] == 1

    def test_outputs_can_include_inputs(self):
        network = RuleNetwork(("A",), (), ("A",))
        compiled = compile_network(network)
        assert verify_compilation(network, compiled).ok

    def test_implies_antecedent_is_supported(self):
        network = RuleNetwork(
            ("A", "B"), (Rule(Implies(Atom("A"), Atom("B")), "X"),), ("X",)
        )
        assert _semantics_match(network)

    def test_ancilla_budget_enforced(self):
        network = parse_rules("rule: A | B | C | D -> X")
        with pytest.raises(CompileError, match="budget"):
            compile_network(network, CompileOptions(ancilla_budget=2))

    def test_compilation_is_deterministic(self):
        network = parse_rules(DEMO_RULES)
        first = export_qasm(compile_network(network).circuit)
        second = export_qasm(compile_network(network).circuit)
        assert first == second

    def test_qubit_labels_carry_fact_names(self):
        network = parse_rules(DEMO_RULES)
        compiled = compile_network(network)
        assert compiled.circuit.qubit_labels[0] == "A"
        result_qubit = compiled.output_map["R"][0]
        assert compiled.circuit.qubit_labels[result_qubit] == "R"

    def test_metadata_is_json_friendly(self):
        import json

        compiled = compile_network(parse_rules(DEMO_RULES))
        payload = json.loads(json.dumps(compiled.metadata()))
        assert payload["input_map"]["A"] == 0
        assert payload["ancilla_count"] == compiled.ancilla_count


class TestSharingAcrossRules:
    def test_common_disjunction_is_shared(self):
        text = "rule: A | B -> X\nrule: A | B | C -> Y\noutputs: X, Y"
        network = parse_rules(text)
        shared = compile_network(network)
        unshared = compile_network(network, CompileOptions(share_subexpressions=False))
        assert shared.ancilla_count == 2
        assert unshared.ancilla_count == 3
        assert verify_compilation(network, shared).ok
        assert verify_compilation(network, unshared).ok

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32))
    def test_sharing_never_increases_ancilla_count(self, seed):
        rng = random.Random(seed)
        network = random_network(rng, max_inputs=5, max_rules=4)
        shared = compile_network(network)
        unshared = compile_network(network, CompileOptions(share_subexpressions=False))
        assert shared.ancilla_count <= unshared.ancilla_count


class TestInputPreservation:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32))
    def test_input_qubits_survive_the_run(self, seed):
        rng = random.Random(seed)
        network = random_network(rng, max_inputs=5, max_rules=4)
        compiled = compile_network(network)
        k = len(network.input_facts)
        for _ in range(8):
            word = rng.randrange(1 << k)
            final = run(compiled.circuit, word).final_state
            assert final & ((1 << k) - 1) == word


class TestVerifyCompilation:
    def test_clean_compile_verifies(self):
        network = parse_rules(DEMO_RULES)
        assert verify_compilation(network, compile_network(network)).ok

    def test_dropping_a_gate_is_detected(self):
        network = parse_rules(DEMO_RULES)
        compiled = compile_network(network)
        broken = Circuit(compiled.circuit.num_qubits, compiled.circuit.num_clbits)
        unitaries_dropped = 0
        for gate in compiled.circuit.gates:
            if not isinstance(gate, Measure) and unitaries_dropped == 0:
                unitaries_dropped += 1
                continue
            broken.append(gate)
        report = verify_compilation(
            network, CompiledCircuit(broken, compiled.input_map, compiled.output_map, 0)
        )
        assert not report.ok
        assert "mismatch" in str(report)

    @pytest.mark.parametrize("chosen", [None, [{"a": 1, "b": 1}]])
    @pytest.mark.parametrize(
        "input_map, output_map, message",
        [
            ({"a": 7, "b": 1}, None, "input map puts 'a' on qubit 7, outside the 3-qubit circuit"),
            (
                {"a": -1, "b": 1},
                None,
                "input map puts 'a' on qubit -1, outside the 3-qubit circuit",
            ),
            ({"a": 0}, None, "input fact 'b' has no qubit in the input map"),
            (
                None,
                {"X": (2, 5)},
                "output map reads 'X' from classical bit 5, outside the 1 classical bits",
            ),
            (None, {"Z": (2, 0)}, "output map names 'Z', which is no fact of the network"),
        ],
    )
    def test_maps_that_do_not_fit_are_refused(self, input_map, output_map, message, chosen):
        network = parse_rules("rule: a & b -> X")
        compiled = compile_network(network)
        hand_built = CompiledCircuit(
            compiled.circuit,
            compiled.input_map if input_map is None else input_map,
            compiled.output_map if output_map is None else output_map,
            0,
        )
        with pytest.raises(CompileError) as info:
            verify_compilation(network, hand_built, assignments=chosen)
        assert str(info.value) == message

    def test_subset_of_assignments(self):
        network = parse_rules(DEMO_RULES)
        compiled = compile_network(network)
        chosen = [{f: 1 for f in network.input_facts}]
        report = verify_compilation(network, compiled, assignments=chosen)
        assert report.ok
        assert report.assignments_checked == 1

    def test_exhaustive_cap(self):
        inputs = tuple(f"i{k}" for k in range(25))
        network = RuleNetwork(inputs, (), (inputs[0],))
        compiled = compile_network(network)
        with pytest.raises(CompileError, match="capped"):
            verify_compilation(network, compiled)

    def test_twenty_inputs_verify_exhaustively(self):
        facts = [f"i{k}" for k in range(20)]
        text = "\n".join(
            f"rule: {facts[k]} & !{facts[(k + 7) % 20]} | {facts[(k + 13) % 20]} -> f{k}"
            for k in range(20)
        )
        network = parse_rules(text)
        assert len(network.input_facts) == 20
        report = verify_compilation(network, compile_network(network))
        assert report.ok
        assert report.assignments_checked == 2**20

    def test_trivial_passthrough_network(self):
        network = RuleNetwork(("A", "B"), (), ("A", "B"))
        compiled = compile_network(network)
        report = verify_compilation(network, compiled)
        assert report.ok
        assert report.assignments_checked == 4
