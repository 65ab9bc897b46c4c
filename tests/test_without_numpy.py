"""The fast path needs no numpy: only the dense engine loads it, on first use.

Each check runs in a fresh interpreter, so what it imports is its own:
one with numpy blocked (``sys.modules["numpy"] = None``), one with numpy
installed but not yet loaded.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
CONSTRAINTS = TESTS / "data" / "worked_2x2.constraints"


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    # the tests directory is on the path so that a check can use the oracles in conftest
    path = os.pathsep.join(filter(None, [str(SRC), str(TESTS), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    command = [sys.executable, "-c", textwrap.dedent(code), str(CONSTRAINTS), *args]
    return subprocess.run(command, capture_output=True, text=True, timeout=120, env=env)


def test_fast_path_runs_with_numpy_blocked():
    done = run_python(
        """
        import sys

        sys.modules["numpy"] = None
        import qrbs
        from qrbs.categorical import build_elb, diagnose, index_to_complex, reduce_to_rlb
        from qrbs.cli import main

        staged = qrbs.stage(qrbs.TnmClass.parse("T2,N0,M0"))
        assert staged.stages.names() == ("II-A", "III-A"), staged
        assert staged.result.bitstring == "00010100"

        network = qrbs.parse_rules("rule: A & B -> X\\nrule: X | !C -> Y\\n")
        compiled = qrbs.compile_network(network)
        assert qrbs.import_qasm(qrbs.export_qasm(compiled.circuit)) == compiled.circuit
        report = qrbs.verify_compilation(network, compiled)
        assert report.ok and report.assignments_checked == 8
        chosen = [{"A": 1, "B": 1, "C": 0}, {"A": 0, "B": 1, "C": 1}]
        report = qrbs.verify_compilation(network, compiled, assignments=chosen)
        assert report.ok and report.assignments_checked == 2

        with open(sys.argv[1]) as fh:
            symptoms, diagnoses, constraints = qrbs.parse_constraints(fh.read()).resolve()
        rlb = reduce_to_rlb(build_elb(2, 2), constraints, symptoms, diagnoses)
        assert sorted(rlb.labels()) == ["S0D0", "S1D2", "S2D1", "S2D3", "S3D2", "S3D3"]
        verdict = diagnose(index_to_complex(1, 2), rlb)
        assert [p.value for p in verdict.diseases] == ["present", "absent"]

        assert main(["stage", "--tnm", "T2,N0,M0"]) == 0
        assert sys.modules["numpy"] is None
        """
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "00010100  II-A or III-A\n"


def test_dense_run_with_numpy_blocked_names_the_extra(tmp_path):
    qasm = tmp_path / "flip.qasm"
    qasm.write_text('OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nx q[0];\nmeasure q[0] -> c[0];\n')
    done = run_python(
        """
        import sys

        sys.modules["numpy"] = None
        import qrbs
        from qrbs.errors import SimulationError

        circuit = qrbs.Circuit(1, 1).append(qrbs.X(0)).append(qrbs.Measure(0, 0))
        assert qrbs.run(circuit, 0, "fast").bits == (1,)
        try:
            qrbs.run(circuit, 0, "statevector")
        except SimulationError as exc:
            assert "qrbs[dense]" in str(exc), exc
        else:
            raise AssertionError("a dense run without numpy did not raise")
        assert "qrbs.dense" not in sys.modules
        """
    )
    assert done.returncode == 0, done.stderr
    without_numpy = (
        'import sys; sys.modules["numpy"] = None; '
        "from qrbs.cli import main; sys.exit(main(sys.argv[2:]))"
    )
    for command in (
        ["stage", "--tnm", "T2,N0,M0", "--engine", "statevector"],
        ["simulate", "--circuit", str(qasm), "--input", "0", "--engine", "statevector"],
    ):
        done = run_python(without_numpy, *command)
        assert done.returncode == 1, command
        assert done.stdout == ""
        assert "Traceback" not in done.stderr, done.stderr
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
        assert "qrbs[dense]" in done.stderr


def test_numpy_loads_with_the_first_dense_run():
    done = run_python(
        """
        import sys

        def numpy_loaded():
            return any(name.startswith("numpy.") for name in sys.modules)

        import qrbs

        compiled = qrbs.build_idc_circuit()
        fast = qrbs.stage(qrbs.TnmClass.parse("T2,N0,M0"), "fast", compiled)
        assert not numpy_loaded() and "qrbs.dense" not in sys.modules

        dense = qrbs.stage(qrbs.TnmClass.parse("T2,N0,M0"), "statevector", compiled)
        assert numpy_loaded() and "qrbs.dense" in sys.modules
        assert dense.stages == fast.stages
        from conftest import results_agree

        assert results_agree(fast.result, dense.result)

        from qrbs.dense import DEFAULT_MAX_QUBITS, StateVector, init_state

        assert StateVector is type(dense.result.final_state)
        assert init_state(2, 2).basis_index() == 2
        assert DEFAULT_MAX_QUBITS == 26
        assert sys.modules["numpy"].__version__
        # the dense engine's names are read from qrbs.dense alone
        for name in ("no_such_name", "apply_gate", "StateVector", "init_state"):
            try:
                getattr(qrbs, name)
            except AttributeError:
                pass
            else:
                raise AssertionError(f"qrbs.{name} resolved")
        """
    )
    assert done.returncode == 0, done.stderr


def test_numpy_looked_up_in_sys_modules_loads_then():
    # A process that reads numpy's version from sys.modules, as an
    # environment report does, finds numpy although nothing loaded it yet.
    done = run_python(
        """
        import sys

        import qrbs

        qrbs.stage(qrbs.TnmClass.parse("T1,N0,M0"))
        assert not any(name.startswith("numpy.") for name in sys.modules)
        print(sys.modules["numpy"].__version__)
        """
    )
    assert done.returncode == 0, done.stderr
    import numpy

    assert done.stdout.strip() == numpy.__version__
