"""Extreme input: wide chains, deep nesting, huge registers and dense widths beyond memory.

Every case must end in a result or a :class:`QrbsError` (exit 1 from the
CLI), never in a ``RecursionError``, a ``MemoryError`` or a traceback.
"""

import pytest

from qrbs import dense, simulator
from qrbs.categorical import parse_constraints
from qrbs.circuit import MAX_REGISTER, Circuit, Measure, X, import_qasm
from qrbs.cli import main
from qrbs.compiler import compile_network, verify_compilation
from qrbs.errors import DslSyntaxError, QasmError, SimulationError
from qrbs.rules import MAX_DEPTH, evaluate_network, format_network, parse_rules


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def chain(op: str, names) -> str:
    return f" {op} ".join(names)


def nested(kind: str, depth: int) -> str:
    """``a`` under ``depth`` levels of ``!`` or of parentheses."""
    return "!" * depth + "a" if kind == "!" else "(" * depth + "a" + ")" * depth


@pytest.mark.parametrize("op", ["|", "&"])
def test_10000_term_chain_round_trips_compiles_and_verifies(op):
    net = parse_rules(f"rule: {chain(op, ('abc'[i % 3] for i in range(10_000)))} -> Y")
    assert len(net.rules[0].antecedent.operands) == 10_000
    assert parse_rules(format_network(net)) == net
    report = verify_compilation(net, compile_network(net))
    assert report.ok
    assert report.assignments_checked == 8


def test_1200_term_disjunction_parses():
    net = parse_rules(f"rule: {chain('|', (f'a{i}' for i in range(1200)))} -> Y")
    assert len(net.input_facts) == 1200


def test_cli_compiles_a_3000_term_conjunction(capsys, tmp_path):
    rules = tmp_path / "wide.rules"
    rules.write_text(f"rule: {chain('&', (f'a{i}' for i in range(3000)))} -> Y\n")
    code, out, err = run_cli(capsys, "compile", "--rules", str(rules))
    assert code == 0, err
    assert out.startswith("OPENQASM 2.0;")


@pytest.mark.parametrize("kind", ["!", "("])
def test_nesting_up_to_max_depth_parses_evaluates_and_compiles(kind):
    net = parse_rules(f"rule: {nested(kind, MAX_DEPTH)} -> Y")
    expected = 1 - MAX_DEPTH % 2 if kind == "!" else 1
    assert evaluate_network(net, {"a": 1})["Y"] == expected
    assert verify_compilation(net, compile_network(net)).ok
    with pytest.raises(DslSyntaxError, match=f"deeper than {MAX_DEPTH}.*line 1, column"):
        parse_rules(f"rule: {nested(kind, MAX_DEPTH + 1)} -> Y")


DEEP_RULES = {
    "3000 negations": f"rule: {nested('!', 3000)} -> Y\n",
    "300 parentheses": f"rule: {nested('(', 300)} -> Y\n",
}
DEEP_IMPLICATIONS = f"rule: {chain('=>', (f's{i}' for i in range(3000)))}\n"


@pytest.mark.parametrize("text", DEEP_RULES.values(), ids=DEEP_RULES.keys())
def test_deep_rule_is_a_syntax_error(text, capsys, tmp_path):
    with pytest.raises(DslSyntaxError):
        parse_rules(text)
    rules = tmp_path / "deep.rules"
    rules.write_text(text)
    code, _, err = run_cli(capsys, "compile", "--rules", str(rules))
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


def test_deep_implication_chain_is_a_syntax_error(capsys, tmp_path):
    with pytest.raises(DslSyntaxError):
        parse_constraints(DEEP_IMPLICATIONS)
    constraints = tmp_path / "deep.constraints"
    constraints.write_text(DEEP_IMPLICATIONS)
    code, _, err = run_cli(capsys, "rlb", "--constraints", str(constraints))
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


def refuse_allocations(monkeypatch) -> None:
    """Fail on any dense state allocated from here on, by either path of ``dense._zeros``."""

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the memory preflight")

    monkeypatch.setattr(dense.np, "zeros", refuse)
    monkeypatch.setattr(dense.mmap, "mmap", refuse)


def test_dense_run_beyond_physical_memory_fails_before_allocating(
    capsys, tmp_path, monkeypatch
):
    refuse_allocations(monkeypatch)
    circuit = tmp_path / "wide.qasm"
    circuit.write_text(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[40];\ncreg c[1];\n'
        "x q[0];\nmeasure q[0] -> c[0];\n"
    )
    code, _, err = run_cli(
        capsys, "simulate", "--circuit", str(circuit), "--input", "0" * 40,
        "--engine", "statevector", "--max-qubits", "40",
    )
    assert code == 1
    assert err.startswith("error:") and "GiB" in err


def test_memory_preflight_sizes_complex64_states(monkeypatch):
    # Physical memory of 24 MiB lies between two complex64 states (16 MiB)
    # and two complex128 states (32 MiB) at 20 qubits.
    n, page = 20, 4096
    pages = {"SC_PAGE_SIZE": page, "SC_PHYS_PAGES": 24 * 2**20 // page}
    monkeypatch.setattr(dense.os, "sysconf", pages.__getitem__)
    assert 2 * 8 << n < pages["SC_PHYS_PAGES"] * page < 2 * 16 << n
    circuit = Circuit(n, 1).append(X(n - 1)).append(Measure(n - 1, 0))
    assert simulator.run(circuit, engine="statevector").bits == (1,)
    refuse_allocations(monkeypatch)
    with pytest.raises(SimulationError, match="GiB"):
        simulator.run(Circuit(n + 1), engine="statevector")


def qasm(qubits: int, clbits: int) -> str:
    return f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{qubits}];\ncreg c[{clbits}];\n'


def test_huge_classical_register_is_refused(capsys, tmp_path):
    circuit = tmp_path / "huge.qasm"
    circuit.write_text(qasm(1, 2_000_000_000_000_000_000))
    code, _, err = run_cli(capsys, "simulate", "--circuit", str(circuit), "--input", "0")
    assert code == 1
    assert err.startswith("error:") and "2000000000000000000" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("qubits, clbits", [(MAX_REGISTER + 1, 1), (1, MAX_REGISTER + 1)])
def test_register_past_the_cap_is_a_qasm_error(qubits, clbits):
    with pytest.raises(QasmError, match=str(MAX_REGISTER + 1)):
        import_qasm(qasm(qubits, clbits))


def test_registers_at_the_cap_import():
    circuit = import_qasm(qasm(MAX_REGISTER, MAX_REGISTER))
    assert (circuit.num_qubits, circuit.num_clbits) == (MAX_REGISTER, MAX_REGISTER)


HUGE = "1" * 5000  # past Python's 4300-digit limit for int()

HUGE_NUMBERS = {
    "5000-digit qreg": f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{HUGE}];\n',
    "5000-digit bit index": qasm(2, 1) + f"x q[{HUGE}];\nmeasure q[0] -> c[0];\n",
}


@pytest.mark.parametrize("text", HUGE_NUMBERS.values(), ids=HUGE_NUMBERS.keys())
def test_number_past_the_digit_limit_is_a_qasm_error(text, capsys, tmp_path):
    with pytest.raises(QasmError, match="5000 digits"):
        import_qasm(text)
    circuit = tmp_path / "huge.qasm"
    circuit.write_text(text)
    code, _, err = run_cli(capsys, "simulate", "--circuit", str(circuit), "--input", "00")
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


MALFORMED = {
    "missing ]": "x q[0;\n",
    "unknown gate": "h q[0];\n",
    "measure without ->": "measure q[0] c[0];\n",
    "duplicate qreg": "qreg r[2];\n",
    "undeclared register": "x r[0];\n",
}


@pytest.mark.parametrize("statement", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_statement_is_a_qasm_error(statement):
    with pytest.raises(QasmError):
        import_qasm(qasm(2, 1) + statement)
