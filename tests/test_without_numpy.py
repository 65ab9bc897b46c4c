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

SRC = Path(__file__).resolve().parents[1] / "src"
CONSTRAINTS = Path(__file__).resolve().parent / "data" / "worked_2x2.constraints"


def run_python(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    command = [sys.executable, "-c", textwrap.dedent(code), str(CONSTRAINTS)]
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
        assert qrbs.results_agree(fast.result, dense.result)

        from qrbs import StateVector, apply_gate, init_state
        from qrbs.simulator import DEFAULT_MAX_QUBITS

        assert StateVector is qrbs.dense.StateVector is type(dense.result.final_state)
        assert apply_gate(init_state(2), qrbs.X(1)).basis_index() == 2
        assert DEFAULT_MAX_QUBITS == 26
        assert sys.modules["numpy"].__version__
        try:
            qrbs.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("qrbs.no_such_name resolved")
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
