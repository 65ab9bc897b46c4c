"""Command-line behaviour: outputs, exit codes, file plumbing, determinism."""

import json
from pathlib import Path

import pytest

from qrbs.cli import main

DATA = Path(__file__).parent / "data"

DEMO_RULES = "rule: A & B -> X\nrule: X | C -> Y\nrule: Y & (D | E) -> R\n"

WORKED_CONSTRAINT_TEXT = """\
symptoms: s1, s2
diagnoses: d1, d2
rule C1: any_symptom_implies_diagnosis
rule C2: d2 => s1
rule C3: d1 & !d2 => s2
rule C4: !d1 & d2 => !s2
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStage:
    def test_basic(self, capsys):
        code, out, err = run_cli(capsys, "stage", "--tnm", "T1,N0,M0")
        assert code == 0
        assert out == "00000001  I-A\n"

    def test_multi_stage_row(self, capsys):
        code, out, _ = run_cli(capsys, "stage", "--tnm", "T2,N0,M0")
        assert code == 0
        assert out == "00010100  II-A or III-A\n"

    def test_invalid_token_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "stage", "--tnm", "T9,N0,M0")
        assert code == 2
        assert "bad T category" in err

    def test_outside_vocabulary_is_a_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "stage", "--tnm", "T0,N0,M0")
        assert code == 1
        assert "no relevant complex" in err

    def test_explain(self, capsys):
        code, out, _ = run_cli(capsys, "stage", "--tnm", "T2,N0,M0", "--explain")
        assert code == 0
        assert "activated qubit: q5" in out
        assert "bits: 00010100" in out
        assert "stages: II-A or III-A" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "stage", "--tnm", "TX,NY,M1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "tnm": "TX NY M1",
            "activated_qubit": 14,
            "bits": "10000000",
            "stages": ["IV"],
        }

    def test_findings_file(self, capsys, tmp_path):
        findings = tmp_path / "findings.json"
        findings.write_text(json.dumps({"tumour_size_mm": 15}))
        code, out, _ = run_cli(capsys, "stage", "--findings", str(findings))
        assert code == 0
        assert out == "00000001  I-A\n"

    def test_findings_with_unknown_field(self, capsys, tmp_path):
        findings = tmp_path / "findings.json"
        findings.write_text(json.dumps({"tumor": 15}))
        code, _, err = run_cli(capsys, "stage", "--findings", str(findings))
        assert code == 1
        assert "unknown findings field" in err

    @pytest.mark.parametrize(
        "text, named",
        [
            ('{"tumour_size_mm": "12"}', "tumour_size_mm"),
            ('{"axillary_nodes_involved": null}', "axillary_nodes_involved"),
            ('[{"tumour_size_mm": 12}]', "mapping"),
            ("7", "mapping"),
            ('{"distant_metastasis": "no", "tumour_size_mm": 10}', "distant_metastasis"),
            ('{"tumour_size_mm": NaN}', "tumour_size_mm"),
            ('{"tumour_size_mm": Infinity}', "tumour_size_mm"),
            ('{"tumour_size_mm": true}', "tumour_size_mm"),
            ('{"tumour_size_mm": 10, "axillary_nodes_involved": 2.5}', "axillary_nodes_involved"),
            ('{"axillary_nodes_involved": 1, "node_cluster_mm": -Infinity}', "node_cluster_mm"),
        ],
    )
    def test_findings_of_the_wrong_type_are_refused(self, capsys, tmp_path, text, named):
        findings = tmp_path / "findings.json"
        findings.write_text(text)
        code, out, err = run_cli(capsys, "stage", "--findings", str(findings))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and named in err

    def test_statevector_engine(self, capsys):
        code, out, _ = run_cli(capsys, "stage", "--tnm", "T1,N0,M0", "--engine", "statevector")
        assert code == 0
        assert out == "00000001  I-A\n"

    def test_deterministic_output(self, capsys):
        first = run_cli(capsys, "stage", "--tnm", "T3,N2,M0")
        second = run_cli(capsys, "stage", "--tnm", "T3,N2,M0")
        assert first == second

    def test_requires_a_source(self, capsys):
        code, _, err = run_cli(capsys, "stage")
        assert code == 2


class TestRlb:
    def test_worked_knowledge_base(self, capsys, tmp_path):
        constraints = tmp_path / "constraints.txt"
        constraints.write_text(WORKED_CONSTRAINT_TEXT)
        code, out, _ = run_cli(capsys, "rlb", "--constraints", str(constraints))
        assert code == 0
        assert set(out.split()) == {"S0D0", "S1D2", "S2D1", "S2D3", "S3D2", "S3D3"}

    def test_case_lookup(self, capsys, tmp_path):
        constraints = tmp_path / "constraints.txt"
        constraints.write_text(WORKED_CONSTRAINT_TEXT)
        code, out, _ = run_cli(capsys, "rlb", "--constraints", str(constraints), "--case", "01")
        assert code == 0
        assert "case S1: compatible D2" in out
        assert "d1: present" in out
        assert "d2: absent" in out

    def test_case_json(self, capsys, tmp_path):
        constraints = tmp_path / "constraints.txt"
        constraints.write_text(WORKED_CONSTRAINT_TEXT)
        code, out, _ = run_cli(
            capsys, "rlb", "--constraints", str(constraints), "--case", "10", "--json"
        )
        payload = json.loads(out)
        assert payload["case"]["compatible"] == ["D1", "D3"]
        assert payload["case"]["diseases"] == {"d1": "uncertain", "d2": "present"}

    def test_without_constraints_keeps_the_full_base(self, capsys):
        code, out, _ = run_cli(capsys, "rlb", "--symptoms", "1", "--diagnoses", "1")
        assert code == 0
        assert out.split() == ["S0D0", "S1D0", "S0D1", "S1D1"]

    def test_missing_dimensions(self, capsys):
        code, _, err = run_cli(capsys, "rlb", "--symptoms", "2")
        assert code == 1
        assert "not declared" in err

    def test_case_width_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys, "rlb", "--symptoms", "2", "--diagnoses", "1", "--case", "110"
        )
        assert code == 1
        assert "2 symptoms" in err


class TestRlbFrozenOutput:
    """``rlb`` output, byte for byte, as frozen in ``tests/data/rlb``."""

    @pytest.mark.parametrize(
        "stem, case",
        [
            ("worked_2x2", "01"),
            ("worked_2x2", "10"),
            ("seeded_4x4", "0000"),
            ("seeded_4x4", "0110"),
        ],
    )
    @pytest.mark.parametrize("form", ["txt", "json"])
    def test_output_is_unchanged(self, capsys, stem, case, form):
        constraints = DATA / f"{stem}.constraints"
        flags = ["--json"] if form == "json" else []
        code, out, _ = run_cli(
            capsys, "rlb", "--constraints", str(constraints), "--case", case, *flags
        )
        assert code == 0
        assert out == (DATA / "rlb" / f"{stem}.case{case}.{form}").read_text(encoding="utf-8")


class TestCompileAndSimulate:
    def test_compile_to_stdout(self, capsys, tmp_path):
        rules = tmp_path / "demo.rules"
        rules.write_text(DEMO_RULES)
        code, out, _ = run_cli(capsys, "compile", "--rules", str(rules))
        assert code == 0
        assert out.startswith("OPENQASM 2.0;")
        assert "ccx" in out

    def test_compile_writes_files(self, capsys, tmp_path):
        rules = tmp_path / "demo.rules"
        rules.write_text(DEMO_RULES)
        qasm = tmp_path / "demo.qasm"
        mapping = tmp_path / "demo.json"
        code, out, _ = run_cli(
            capsys, "compile", "--rules", str(rules), "-o", str(qasm), "--map", str(mapping)
        )
        assert code == 0
        assert qasm.read_text().startswith("OPENQASM 2.0;")
        meta = json.loads(mapping.read_text())
        assert meta["input_map"] == {"A": 0, "B": 1, "C": 2, "D": 3, "E": 4}
        assert "qubits" in out

    def test_compile_then_simulate_matches_evaluation(self, capsys, tmp_path):
        rules = tmp_path / "demo.rules"
        rules.write_text(DEMO_RULES)
        qasm = tmp_path / "demo.qasm"
        run_cli(capsys, "compile", "--rules", str(rules), "-o", str(qasm))

        # A=1, B=1, C=0, D=1, E=0 -> R=1. Inputs sit on q0..q4, so the
        # 9-qubit circuit reads 000..01011 with the highest qubit leftmost.
        from qrbs.circuit import import_qasm

        width = import_qasm(qasm.read_text()).num_qubits
        bits = format(0b01011, f"0{width}b")
        code, out, _ = run_cli(capsys, "simulate", "--circuit", str(qasm), "--input", bits)
        assert code == 0
        assert out.strip() == "1"

    def test_simulate_width_mismatch(self, capsys, tmp_path):
        rules = tmp_path / "demo.rules"
        rules.write_text(DEMO_RULES)
        qasm = tmp_path / "demo.qasm"
        run_cli(capsys, "compile", "--rules", str(rules), "-o", str(qasm))
        code, _, err = run_cli(capsys, "simulate", "--circuit", str(qasm), "--input", "01")
        assert code == 1
        assert "bits but the circuit" in err

    def test_simulate_dump_state(self, capsys, tmp_path):
        qasm = tmp_path / "tiny.qasm"
        qasm.write_text('OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\nx q[0];\nmeasure q[0] -> c[0];\n')
        code, out, _ = run_cli(
            capsys, "simulate", "--circuit", str(qasm), "--input", "00", "--dump-state"
        )
        assert code == 0
        assert out.splitlines()[0] == "1"
        assert "|01>" in out

    def test_simulate_dense_state_dump_as_json(self, capsys, tmp_path):
        qasm = tmp_path / "tiny.qasm"
        qasm.write_text('OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\nx q[0];\nmeasure q[0] -> c[0];\n')
        code, out, err = run_cli(
            capsys, "simulate", "--circuit", str(qasm), "--input", "00", "--dump-state",
            "--engine", "statevector", "--json",
        )
        assert code == 0, err
        assert json.loads(out) == {"bits": "1", "final_state": {"01": [1.0, 0.0]}}

    def test_simulate_dump_state_width_limited(self, capsys, tmp_path):
        qasm = tmp_path / "wide.qasm"
        qasm.write_text("OPENQASM 2.0;\nqreg q[9];\n")
        code, _, err = run_cli(
            capsys, "simulate", "--circuit", str(qasm), "--input", "0" * 9, "--dump-state"
        )
        assert code == 1
        assert "8 qubits" in err

    def test_compile_budget_error(self, capsys, tmp_path):
        rules = tmp_path / "wide.rules"
        rules.write_text("rule: A | B | C | D | E -> X\n")
        code, _, err = run_cli(capsys, "compile", "--rules", str(rules), "--budget", "1")
        assert code == 1
        assert "budget" in err

    def test_missing_rules_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "compile", "--rules", str(tmp_path / "absent.rules"))
        assert code == 1


class TestExport:
    def test_export_default_circuit(self, capsys, tmp_path):
        qasm = tmp_path / "staging.qasm"
        mapping = tmp_path / "staging.json"
        code, out, _ = run_cli(capsys, "export", "-o", str(qasm), "--map", str(mapping))
        assert code == 0
        meta = json.loads(mapping.read_text())
        assert meta["num_qubits"] == 24
        assert meta["ancilla_count"] == 9
        assert meta["gate_counts"]["ccx"] == 9

    def test_export_unshared(self, capsys, tmp_path):
        mapping = tmp_path / "staging.json"
        code, _, _ = run_cli(capsys, "export", "--no-share", "--map", str(mapping), "--json")
        assert code == 0
        meta = json.loads(mapping.read_text())
        assert meta["num_qubits"] == 25
        assert meta["ancilla_count"] == 10

    def test_exported_circuit_simulates_to_the_reference_row(self, capsys, tmp_path):
        qasm = tmp_path / "staging.qasm"
        run_cli(capsys, "export", "-o", str(qasm))
        bits = "0" * 18 + "100000"  # q5 activated on the 24-qubit circuit
        code, out, _ = run_cli(capsys, "simulate", "--circuit", str(qasm), "--input", bits)
        assert code == 0
        assert out.strip() == "00010100"


class TestVerify:
    def test_verify_idc_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify-idc")
        assert code == 0
        assert "15/15 PASS" in out
        assert out.count("PASS") == 16  # 15 rows plus the summary

    def test_verify_idc_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify-idc", "--json")
        payload = json.loads(out)
        assert payload["all_pass"] is True
        assert len(payload["rows"]) == 15
        assert payload["rows"][5]["bits"] == "00010100"

    def test_verify_compile(self, capsys, tmp_path):
        rules = tmp_path / "demo.rules"
        rules.write_text(DEMO_RULES)
        code, out, _ = run_cli(capsys, "verify-compile", "--rules", str(rules))
        assert code == 0
        assert "32 assignments" in out
        assert "no mismatches" in out

    def test_verify_compile_json(self, capsys, tmp_path):
        rules = tmp_path / "demo.rules"
        rules.write_text(DEMO_RULES)
        code, out, _ = run_cli(capsys, "verify-compile", "--rules", str(rules), "--json")
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["assignments_checked"] == 32


class TestGlobalBehaviour:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_no_arguments(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_max_qubits_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("QRBS_MAX_QUBITS", "10")
        code, _, err = run_cli(
            capsys, "stage", "--tnm", "T1,N0,M0", "--engine", "statevector"
        )
        assert code == 1
        assert "cap" in err

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QRBS_MAX_QUBITS", "10")
        code, out, _ = run_cli(
            capsys,
            "stage",
            "--tnm",
            "T1,N0,M0",
            "--engine",
            "statevector",
            "--max-qubits",
            "26",
        )
        assert code == 0
        assert out == "00000001  I-A\n"
