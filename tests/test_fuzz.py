"""A differential fuzz over the command line: no input crashes ``qrbs``.

Every case calls :func:`qrbs.cli.main` in-process on an input file that
is either a byte-level mutant of a seed (a rule file, the staging
circuit's QASM, ``seeded_4x4.constraints`` and a findings JSON) or built
from the input's structure (random rule files, random findings, and
gate-line mutants of the staging QASM). Whatever the input, no exception escapes, no
traceback is printed, the exit code is 0, 1 or 2, and a domain error
(exit 1) is an ``error:`` message. Two differential checks follow: a
rule file that compiles passes ``verify-compile``, and a circuit gives
the same output on ``--engine fast`` and ``--engine statevector``, the
dense engine's only way into its gather kernel.

Tier-1 runs a small, fixed, derandomized budget of a few seconds;
``pytest tests/test_fuzz.py --hypothesis-profile fuzz`` runs the larger
random budget of the ``fuzz`` profile registered in ``conftest.py``. A
crash found here is fixed in the program, and its input becomes a golden
test of that command; no crash is allowed to stay.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from qrbs.circuit import import_qasm
from qrbs.cli import main
from qrbs.errors import QrbsError

DATA = Path(__file__).resolve().parent / "data"

FUZZ = settings.get_profile("fuzz")
budget = (
    FUZZ
    if settings.default is FUZZ
    else settings(max_examples=40, derandomize=True, deadline=None, database=None)
)

RULES = b"# two-step inference\nrule r1: A & B -> X\nrule r2: X | !C -> Y\noutputs: Y\n"
CONSTRAINTS = (DATA / "seeded_4x4.constraints").read_bytes()
FINDINGS = json.dumps(
    {
        "tumour_size_mm": 25,
        "chest_wall_or_skin_spread": False,
        "axillary_nodes_involved": 2,
        "node_cluster_mm": 0.1,
        "internal_mammary_nodes": False,
        "distant_metastasis": False,
    }
).encode()

# tokens of the four input languages, spliced in whole so that a mutant
# reaches the parsers' deeper states more often than random bytes do
TOKENS = [
    b"\n", b" ", b"#", b"(", b")", b"!", b"&", b"|", b"->", b"=>", b",", b":", b";", b"rule ",
    b"outputs:", b"symptoms:", b"diagnoses:", b"any_symptom_implies_diagnosis", b"q[", b"]",
    b"c[", b"x ", b"cx ", b"ccx ", b"measure ", b"qreg ", b"creg ", b"include", b"OPENQASM 2.0;",
    b"0", b"1", b"9", b"26", b"27", b"-1", b"999999999999", b"1e309", b"NaN", b"true", b"null",
    b'"', b"{", b"}", b"[", b"\x00", b"\xff", b"\xc3", b"\t", b"\r",
]  # fmt: skip


@st.composite
def byte_mutants(draw, seed: bytes, start: int = 0) -> bytes:
    """``seed`` after one to four edits at or after ``start``: overwrite, insert, delete, duplicate.

    Hypothesis draws an offset at a bound of its range about one time in
    four, so ``start`` keeps a header that most mutants should keep.
    """
    data = bytearray(seed)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(start, len(data)))
        edit = draw(st.sampled_from(["byte", "token", "delete", "duplicate"]))
        if edit == "byte":
            data[at:at + 1] = bytes([draw(st.integers(0, 255))])
        elif edit == "token":
            data[at:at] = draw(st.sampled_from(TOKENS))
        elif edit == "delete":
            del data[at:at + draw(st.integers(1, 16))]
        else:
            data[at:at] = data[at:at + draw(st.integers(1, 64))]
    return bytes(data)


def cli(*argv: str) -> tuple[int, str, str]:
    """Run ``qrbs`` in-process; the status, stdout and stderr, each checked for a crash."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(list(argv))
    event(f"{argv[0]} exit {status}")  # tallied by --hypothesis-show-statistics
    assert status in (0, 1, 2), (argv, status)
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
    if status == 1 and argv[0] != "verify-compile":  # verify-compile prints its mismatches
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())
    return status, out.getvalue(), err.getvalue()


def assert_engines_agree(*argv: str) -> None:
    """Both engines give the same status and output, unless the dense engine refuses the width."""
    fast = cli(*argv, "--engine", "fast")
    dense = cli(*argv, "--engine", "statevector")
    if fast[0] == 0 and dense[0] == 1 and ("cap" in dense[2] or "physical memory" in dense[2]):
        return
    assert fast == dense, argv


def circuit_width(qasm: bytes, default: int) -> int:
    """The circuit's qubit count, or ``default`` when it does not parse or is too wide to fill."""
    try:
        width = import_qasm(qasm.decode()).num_qubits
    except (QrbsError, ValueError):  # the command line reports the refusal
        return default
    return width if 0 < width <= 64 else default


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def staging_qasm(workdir) -> bytes:
    path = workdir / "staging.qasm"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["export", "-o", str(path)]) == 0
    return path.read_bytes()


def simulate_both(workdir: Path, qasm: bytes, data: st.DataObject, default_width: int) -> None:
    """Simulate ``qasm`` on both engines from a one-hot or any input of the circuit's width."""
    path = workdir / "circuit.qasm"
    path.write_bytes(qasm)
    width = circuit_width(qasm, default_width)
    one_hot = st.integers(0, width - 1).map(lambda qubit: 1 << qubit)
    initial = format(data.draw(one_hot | st.integers(0, (1 << width) - 1)), f"0{width}b")
    flags = ["--json", "--dump-state"] if width <= 8 else ["--json"]  # a dump is capped at 8 qubits
    flags = data.draw(st.lists(st.sampled_from(flags), unique=True))
    assert_engines_agree("simulate", "--circuit", str(path), "--input", initial, *flags)


COMPILE_FLAGS = st.lists(
    st.one_of(
        st.just(["--no-share"]),
        st.just(["--no-measure-direct"]),
        st.integers(0, 6).map(lambda budget: ["--budget", str(budget)]),
    ),
    max_size=3,
).map(lambda chosen: [flag for flags in chosen for flag in flags])


def compile_verify_and_simulate(workdir: Path, rules: bytes, data: st.DataObject) -> None:
    """Compile rules; a file that compiles verifies, and its circuit runs alike on each engine."""
    path, circuit = workdir / "network.rules", workdir / "network.qasm"
    path.write_bytes(rules)
    circuit.unlink(missing_ok=True)
    flags = data.draw(COMPILE_FLAGS)
    status, _, _ = cli("compile", "--rules", str(path), "-o", str(circuit), *flags)
    if status != 0:
        return
    status, out, _ = cli("verify-compile", "--rules", str(path), *flags)
    assert status == 0 and out.endswith("no mismatches\n"), (rules, flags, out)
    simulate_both(workdir, circuit.read_bytes(), data, 1)


@budget
@given(st.data())
def test_rule_file_mutants(workdir, data):
    compile_verify_and_simulate(workdir, data.draw(byte_mutants(RULES)), data)


@budget
@given(st.data())
def test_circuit_mutants(workdir, staging_qasm, data):
    header = staging_qasm.index(b"\n") + 1  # OPENQASM 2.0;
    simulate_both(workdir, data.draw(byte_mutants(staging_qasm, header)), data, 24)


@budget
@given(
    mutant=byte_mutants(CONSTRAINTS),
    case=st.none() | st.from_regex(r"[01]{4}|[01]{1,6}", fullmatch=True),  # 4 symptoms, or not
    as_json=st.booleans(),
)
def test_constraint_file_mutants(workdir, mutant, case, as_json):
    path = workdir / "mutant.constraints"
    path.write_bytes(mutant)
    flags = (["--case", case] if case else []) + (["--json"] if as_json else [])
    cli("rlb", "--constraints", str(path), *flags)


@st.composite
def findings_documents(draw) -> bytes:
    """Findings JSON built field by field: one value in ten of any type, the rest of its field's."""
    size = st.none() | st.integers(0, 80) | st.floats(0, 80)
    flag = st.booleans()
    fields = {
        "tumour_size_mm": size,
        "chest_wall_or_skin_spread": flag,
        "axillary_nodes_involved": st.integers(0, 12),
        "node_cluster_mm": size,
        "supra_or_infraclavicular_nodes": flag,
        "internal_mammary_nodes": flag,
        "distant_metastasis": flag,
    }
    stray = st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=2)
    document = {}
    for name in draw(st.lists(st.sampled_from(sorted(fields)), unique=True)):
        document[name] = draw(stray if draw(st.integers(0, 9)) == 0 else fields[name])
    return json.dumps(document).encode()


@budget
@given(findings=byte_mutants(FINDINGS) | findings_documents(), explain=st.booleans())
def test_findings(workdir, findings, explain):
    path = workdir / "findings.json"
    path.write_bytes(findings)
    assert_engines_agree("stage", "--findings", str(path), *(["--explain"] if explain else []))


def expressions(facts: list[str]) -> st.SearchStrategy[str]:
    """Rule-DSL expressions over ``facts``, with or without parentheses, at times with ``=>``."""
    return st.recursive(
        st.sampled_from(facts),
        lambda inner: st.one_of(
            inner.map("!{}".format),
            inner.map("({})".format),
            st.tuples(inner, st.sampled_from(["&", "|"] * 8 + ["=>"]), inner).map(" ".join),
        ),
        max_leaves=6,
    )


@st.composite
def rule_files(draw) -> bytes:
    """A random rule file: rules (named or not), comments, blank lines and an ``outputs:`` clause.

    Rule ``k`` mostly concludes a fact of its own from the inputs and the
    earlier conclusions; now and then it concludes or reads any fact, so
    that cycles and facts concluded twice occur too.
    """
    inputs, concluded, lines = ["A", "B", "C", "D", "E"], [], []
    every = inputs + [f"F{k}" for k in range(6)]
    for number in range(draw(st.integers(1, 6))):
        stray = draw(st.integers(0, 9)) == 0  # one rule in ten
        antecedent = draw(expressions(every if stray else inputs + concluded))
        concluded.append(draw(st.sampled_from(every)) if stray else f"F{number}")
        name = draw(st.sampled_from([f" r{number}", ""]))
        lines.append(f"rule{name}: {antecedent} -> {concluded[-1]}")
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# a comment", "   "])))
    if draw(st.booleans()):
        outputs = draw(st.lists(st.sampled_from(concluded), min_size=1, max_size=3, unique=True))
        lines.append("outputs: " + ", ".join(outputs))
    return "\n".join(lines).encode() + b"\n"


@budget
@given(rules=rule_files(), data=st.data())
def test_random_rule_files(workdir, rules, data):
    compile_verify_and_simulate(workdir, rules, data)


GATES = ("x ", "cx ", "ccx ", "measure ")


@budget
@given(st.data())
def test_gate_line_mutants(workdir, staging_qasm, data):
    lines = staging_qasm.decode().splitlines()
    for _ in range(data.draw(st.integers(1, 4))):
        gates = [number for number, line in enumerate(lines) if line.startswith(GATES)]
        if not gates:
            break
        at = data.draw(st.sampled_from(gates))
        edit = data.draw(st.sampled_from(["drop", "duplicate", "swap", "re-point"]))
        if edit == "drop":
            del lines[at]
        elif edit == "duplicate":
            lines.insert(at, lines[at])
        elif edit == "swap":
            other = data.draw(st.sampled_from(gates))
            lines[at], lines[other] = lines[other], lines[at]
        else:  # one q[...] index of the gate, sometimes beyond the 24 qubits
            head, *parts = lines[at].split("q[")
            which = data.draw(st.integers(0, len(parts) - 1))
            index = str(data.draw(st.integers(0, 26)))
            parts[which] = index + parts[which][parts[which].index("]") :]
            lines[at] = "q[".join([head, *parts])
    simulate_both(workdir, "\n".join(lines).encode() + b"\n", data, 24)
