"""TNM classification, the staging knowledge base and end-to-end staging."""

import pytest

from qrbs.circuit import export_qasm, gate_counts, import_qasm
from qrbs.compiler import CompileOptions
from qrbs.errors import OneHotError, VocabularyError
from qrbs.idc import (
    INPUT_COMPLEXES,
    REFERENCE_STAGING,
    STAGE_RULES,
    STAGES,
    ClinicalFindings,
    StageSet,
    TnmClass,
    build_idc_circuit,
    build_idc_network,
    classify_tnm,
    decode_stages,
    run_activation,
    stage,
    tnm_to_input_qubit,
    verify_reference_table,
)
from qrbs.compiler import verify_compilation
from qrbs.rules import evaluate_network


@pytest.fixture(scope="module")
def compiled():
    return build_idc_circuit()


class TestTnmClass:
    def test_parse_comma_separated(self):
        assert TnmClass.parse("T2,N1,M0") == TnmClass("T2", "N1", "M0")

    def test_parse_space_separated(self):
        assert TnmClass.parse("T2 N1 M0") == TnmClass("T2", "N1", "M0")

    def test_parse_wrong_token_count(self):
        with pytest.raises(ValueError, match="three TNM tokens"):
            TnmClass.parse("T2,N1")

    def test_bad_categories(self):
        with pytest.raises(ValueError, match="bad T category"):
            TnmClass("T9", "N0", "M0")
        with pytest.raises(ValueError, match="bad N category"):
            TnmClass("T0", "N7", "M0")
        with pytest.raises(ValueError, match="bad M category"):
            TnmClass("T0", "N0", "M3")

    def test_tx_requires_n3m0_or_m1(self):
        with pytest.raises(ValueError, match="TX"):
            TnmClass("TX", "N0", "M0")
        TnmClass("TX", "N3", "M0")
        TnmClass("TX", "NY", "M1")

    def test_ny_requires_m1(self):
        with pytest.raises(ValueError, match="NY"):
            TnmClass("T1", "NY", "M0")

    def test_canonical_collapses_metastasis(self):
        assert TnmClass("T1", "N0", "M1").canonical() == TnmClass("TX", "NY", "M1")

    def test_canonical_collapses_heavy_nodes(self):
        assert TnmClass("T2", "N3", "M0").canonical() == TnmClass("TX", "N3", "M0")

    def test_canonical_is_identity_on_vocabulary(self):
        for tnm in INPUT_COMPLEXES:
            assert tnm.canonical() == tnm

    def test_str(self):
        assert str(TnmClass("T2", "N1", "M0")) == "T2 N1 M0"


class TestClassifyTnm:
    def test_small_tumour_no_nodes(self):
        findings = ClinicalFindings(tumour_size_mm=15)
        assert classify_tnm(findings) == TnmClass("T1", "N0", "M0")

    def test_medium_tumour_few_nodes(self):
        findings = ClinicalFindings(tumour_size_mm=30, axillary_nodes_involved=2)
        assert classify_tnm(findings) == TnmClass("T2", "N1", "M0")

    def test_many_nodes_collapse_to_any_t(self):
        findings = ClinicalFindings(tumour_size_mm=30, axillary_nodes_involved=12)
        assert classify_tnm(findings) == TnmClass("TX", "N3", "M0")

    def test_no_tumour(self):
        assert classify_tnm(ClinicalFindings()).t == "T0"
        assert classify_tnm(ClinicalFindings(tumour_size_mm=0)).t == "T0"

    @pytest.mark.parametrize(
        "size,t",
        [(0.5, "T1"), (20, "T1"), (20.5, "T2"), (50, "T2"), (50.5, "T3"), (120, "T3")],
    )
    def test_size_boundaries_fall_in_the_smaller_category(self, size, t):
        assert classify_tnm(ClinicalFindings(tumour_size_mm=size, axillary_nodes_involved=1)).t == t

    def test_chest_wall_spread_overrides_size(self):
        findings = ClinicalFindings(tumour_size_mm=5, chest_wall_or_skin_spread=True)
        assert classify_tnm(findings).t == "T4"

    @pytest.mark.parametrize(
        "axillary,n", [(0, "N0"), (1, "N1"), (3, "N1"), (4, "N2"), (9, "N2")]
    )
    def test_axillary_node_counts(self, axillary, n):
        findings = ClinicalFindings(tumour_size_mm=10, axillary_nodes_involved=axillary)
        assert classify_tnm(findings).n == n

    def test_ten_axillary_nodes_give_n3(self):
        findings = ClinicalFindings(tumour_size_mm=10, axillary_nodes_involved=10)
        assert classify_tnm(findings) == TnmClass("TX", "N3", "M0")

    def test_internal_mammary_nodes_give_n1(self):
        findings = ClinicalFindings(tumour_size_mm=10, internal_mammary_nodes=True)
        assert classify_tnm(findings).n == "N1"

    def test_collarbone_nodes_give_n3(self):
        findings = ClinicalFindings(tumour_size_mm=10, supra_or_infraclavicular_nodes=True)
        assert classify_tnm(findings) == TnmClass("TX", "N3", "M0")

    def test_metastasis_collapses_everything(self):
        findings = ClinicalFindings(tumour_size_mm=70, axillary_nodes_involved=2, distant_metastasis=True)
        assert classify_tnm(findings) == TnmClass("TX", "NY", "M1")

    def test_node_cluster_requires_a_nodal_finding(self):
        with pytest.raises(ValueError, match="nodal finding"):
            ClinicalFindings(tumour_size_mm=10, node_cluster_mm=1.5)
        ClinicalFindings(tumour_size_mm=10, axillary_nodes_involved=1, node_cluster_mm=1.5)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            ClinicalFindings(tumour_size_mm=-1)
        with pytest.raises(ValueError):
            ClinicalFindings(axillary_nodes_involved=-2)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown findings field"):
            ClinicalFindings.from_dict({"tumor_size": 5})

    def test_from_dict_defaults(self):
        findings = ClinicalFindings.from_dict({"tumour_size_mm": 15})
        assert classify_tnm(findings) == TnmClass("T1", "N0", "M0")


class TestQubitMap:
    # The full input map, frozen: (t, n, m) -> qubit.
    TABLE = {
        ("T0", "N1", "M0"): 0,
        ("T0", "N2", "M0"): 1,
        ("T1", "N0", "M0"): 2,
        ("T1", "N1", "M0"): 3,
        ("T1", "N2", "M0"): 4,
        ("T2", "N0", "M0"): 5,
        ("T2", "N1", "M0"): 6,
        ("T3", "N0", "M0"): 7,
        ("T3", "N1", "M0"): 8,
        ("T3", "N2", "M0"): 9,
        ("T4", "N0", "M0"): 10,
        ("T4", "N1", "M0"): 11,
        ("T4", "N2", "M0"): 12,
        ("TX", "N3", "M0"): 13,
        ("TX", "NY", "M1"): 14,
    }

    def test_every_vocabulary_entry(self):
        for (t, n, m), qubit in self.TABLE.items():
            assert tnm_to_input_qubit(TnmClass(t, n, m)) == qubit

    def test_outside_vocabulary(self):
        with pytest.raises(VocabularyError, match="no relevant complex"):
            tnm_to_input_qubit(TnmClass("T0", "N0", "M0"))

    def test_non_canonical_class_is_not_mapped(self):
        with pytest.raises(VocabularyError):
            tnm_to_input_qubit(TnmClass("T2", "N3", "M0"))


class TestStagingNetwork:
    def test_classical_one_hot_evaluation_matches_the_rule_table(self):
        network = build_idc_network()
        for qubit in range(len(INPUT_COMPLEXES)):
            inputs = {fact: 0 for fact in network.input_facts}
            inputs[network.input_facts[qubit]] = 1
            values = evaluate_network(network, inputs)
            for stage_name in STAGES:
                expected = 1 if qubit in STAGE_RULES[stage_name] else 0
                assert values[stage_name] == expected

    def test_outputs_are_the_eight_stages_in_bit_order(self):
        assert build_idc_network().outputs == STAGES


class TestStagingCircuit:
    def test_default_compile_budget(self, compiled):
        assert compiled.ancilla_count == 9
        assert compiled.circuit.num_qubits == 24
        assert compiled.circuit.num_clbits == 8
        assert compiled.ancilla_count <= 10
        assert compiled.circuit.num_qubits <= 25

    def test_unshared_compile_budget(self):
        unshared = build_idc_circuit(
            CompileOptions(share_subexpressions=False, ancilla_budget=10)
        )
        assert unshared.ancilla_count == 10
        assert unshared.circuit.num_qubits == 25

    def test_gate_census_is_stable(self, compiled):
        counts = gate_counts(compiled.circuit)
        assert counts == {
            "x": 0,
            "cx": 18,
            "ccx": 9,
            "measure": 8,
            "total": 35,
            "num_qubits": 24,
            "num_clbits": 8,
        }

    def test_one_hot_inputs_verify_against_the_evaluator(self, compiled):
        network = build_idc_network()
        one_hots = [
            {fact: int(i == q) for i, fact in enumerate(network.input_facts)}
            for q in range(len(INPUT_COMPLEXES))
        ]
        report = verify_compilation(network, compiled, assignments=one_hots)
        assert report.ok
        assert report.assignments_checked == 15

    def test_interchange_roundtrip(self, compiled):
        imported = import_qasm(export_qasm(compiled.circuit))
        assert imported.gates == compiled.circuit.gates

    def test_export_is_deterministic(self, compiled):
        assert export_qasm(compiled.circuit) == export_qasm(build_idc_circuit().circuit)


class TestDecodeStages:
    def test_single_low_bit(self):
        assert decode_stages("00000001").names() == ("I-A",)

    def test_empty(self):
        assert decode_stages("00000000").names() == ()
        assert str(decode_stages("00000000")) == "none"

    def test_high_bit(self):
        assert decode_stages("10000000").names() == ("IV",)

    def test_two_bits(self):
        assert decode_stages("00000110").names() == ("I-B", "II-A")

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="8-character"):
            decode_stages("0101")

    def test_bad_character(self):
        with pytest.raises(ValueError):
            decode_stages("0000000x")

    def test_stage_set_helpers(self):
        stages = StageSet.from_names(("I-B", "II-A"))
        assert "I-B" in stages
        assert "IV" not in stages
        assert list(stages) == ["I-B", "II-A"]
        assert len(stages) == 2
        assert str(stages) == "I-B or II-A"
        with pytest.raises(ValueError, match="unknown stage"):
            StageSet.from_names(("V",))


class TestStage:
    def test_early_stage(self, compiled):
        staged = stage(TnmClass("T0", "N1", "M0"), compiled=compiled)
        assert staged.result.bitstring == "00000110"
        assert staged.stages == StageSet.from_names(("I-B", "II-A"))

    def test_ambiguous_stage(self, compiled):
        staged = stage(TnmClass("T2", "N0", "M0"), compiled=compiled)
        assert staged.result.bitstring == "00010100"
        assert staged.stages == StageSet.from_names(("II-A", "III-A"))

    def test_locally_advanced(self, compiled):
        staged = stage(TnmClass("T4", "N2", "M0"), compiled=compiled)
        assert staged.result.bitstring == "00100000"
        assert staged.stages == StageSet.from_names(("III-B",))

    def test_collapse_before_mapping(self, compiled):
        staged = stage(TnmClass("T3", "N1", "M1"), compiled=compiled)
        assert staged.activated_qubit == 14
        assert staged.stages == StageSet.from_names(("IV",))

    def test_dense_engine_spot_check(self, compiled):
        staged = stage(TnmClass("T2", "N0", "M0"), engine="statevector", compiled=compiled)
        assert staged.result.bitstring == "00010100"

    def test_every_vocabulary_entry_reaches_a_stage(self, compiled):
        for tnm in INPUT_COMPLEXES:
            staged = stage(tnm, compiled=compiled)
            assert len(staged.stages) >= 1

    def test_reference_table_all_rows(self, compiled):
        rows = verify_reference_table(compiled=compiled)
        assert len(rows) == 15
        assert all(row.ok for row in rows)

    def test_reference_table_matches_module_constant(self):
        assert [r[0] for r in REFERENCE_STAGING] == list(range(15))


class TestOneHotGuard:
    def test_zero_activations_rejected(self, compiled):
        with pytest.raises(OneHotError, match="got 0"):
            run_activation([0] * 15, compiled=compiled)

    def test_two_activations_rejected(self, compiled):
        bits = [0] * 15
        bits[3] = bits[7] = 1
        with pytest.raises(OneHotError, match="got 2"):
            run_activation(bits, compiled=compiled)

    def test_wrong_width_rejected(self, compiled):
        with pytest.raises(ValueError, match="expected 15"):
            run_activation([1], compiled=compiled)

    def test_rejection_happens_before_any_simulation(self, compiled, monkeypatch):
        import qrbs.idc as idc_module

        def _explode(*args, **kwargs):
            raise AssertionError("simulation was started")

        monkeypatch.setattr(idc_module, "run", _explode)
        with pytest.raises(OneHotError):
            run_activation([0] * 15, compiled=compiled)

    @pytest.mark.parametrize("engine", ["fast", "statevector"])
    def test_compiled_circuit_runs_from_the_activated_basis_index(
        self, compiled, monkeypatch, engine
    ):
        import qrbs.idc as idc_module

        real_run = idc_module.run
        calls = []

        def spy(circuit, initial, engine, max_qubits):
            calls.append((circuit, initial, engine))
            return real_run(circuit, initial, "fast", max_qubits)  # cheap stand-in result

        monkeypatch.setattr(idc_module, "run", spy)
        assert stage(TnmClass("T2", "N0", "M0"), engine, compiled).result.bitstring == "00010100"
        bits = [0] * 15
        bits[9] = 1
        assert run_activation(bits, engine, compiled)[1].bitstring == "00010000"
        assert [(c is compiled.circuit, initial, e) for c, initial, e in calls] == [
            (True, 1 << 5, engine),
            (True, 1 << 9, engine),
        ]

    def test_single_activation_accepted(self, compiled):
        stages, result = run_activation(
            [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], compiled=compiled
        )
        assert stages == StageSet.from_names(("I-A",))
        assert result.bitstring == "00000001"
