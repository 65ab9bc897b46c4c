"""Shared test code: seeded random circuits, expressions and networks, and the
oracles the engines are checked against.

:func:`as_permutation` is a third oracle, sharing no code with either
engine: it runs a circuit on every basis index at once with numpy.
:func:`results_agree` and :func:`engines_agree` compare a fast run with a
dense one. :func:`gather_every_block` drives the dense kernel on a state
built by a test, every block of which may hold amplitude.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import settings

from qrbs.categorical import ConstraintRule
from qrbs.circuit import CCNOT, CNOT, Circuit, Measure, X
from qrbs.errors import CircuitError, SimulationError
from qrbs.rules import And, Atom, Implies, Not, Or, Rule, RuleNetwork
from qrbs.simulator import RunResult, run

# The larger, random budget of the command-line fuzz (tests/test_fuzz.py), chosen with
# `pytest tests/test_fuzz.py --hypothesis-profile fuzz`; without it the fuzz runs a
# small fixed budget.
settings.register_profile("fuzz", max_examples=1000, deadline=None)


def as_permutation(circuit: Circuit, max_qubits: int = 16) -> np.ndarray:
    """The circuit's action on every basis index; measurements are ignored.

    Entry ``i`` is where basis state ``i`` ends up. Valid because X,
    CNOT and CCNOT map basis states to basis states.
    """
    n = circuit.num_qubits
    if n > max_qubits:
        raise CircuitError(f"permutation oracle capped at {max_qubits} qubits, got {n}")
    perm = np.arange(1 << n, dtype=np.int64)
    for gate in circuit.gates:
        match gate:
            case X(target):
                perm ^= 1 << target
            case CNOT(control, target):
                perm ^= ((perm >> control) & 1) << target
            case CCNOT(control1, control2, target):
                perm ^= ((perm >> control1) & (perm >> control2) & 1) << target
            case Measure():
                pass
    return perm


def results_agree(fast: RunResult, dense: RunResult) -> bool:
    """True iff the two runs report the same bits and the same final basis state."""
    if fast.bits != dense.bits:
        return False
    # a fast result's final state is a basis index, a dense one's a state vector
    if isinstance(dense.final_state, int) or not isinstance(fast.final_state, int):
        raise ValueError("expected one fast result and one dense result")
    try:
        dense_index = dense.final_state.basis_index()
    except SimulationError:
        return False
    return dense_index == fast.final_state


def engines_agree(circuit: Circuit, initial: int = 0, max_qubits: int | None = None) -> bool:
    """Cross-validate the two engines on one circuit and input."""
    fast = run(circuit, initial, "fast")
    dense = run(circuit, initial, "statevector", max_qubits)
    return results_agree(fast, dense)


def every_block(amplitudes: np.ndarray) -> range:
    """The numbers of all of a dense state's blocks, to name each as a gather source."""
    from qrbs import dense  # loads numpy only when a dense test runs

    return range(max(1, amplitudes.size >> dense._BLOCK_BITS))


def gather_every_block(amplitudes: np.ndarray, gates) -> tuple:
    """One gather of a static run of ``gates`` that reads every block of ``amplitudes``.

    The gates pass :meth:`Circuit.extend` at the width of ``amplitudes``
    first, as every gate that reaches the kernel through ``dense.run`` has.
    Returns the dense kernel's new output array and per-block occupancy
    flags; the input is left as it was.
    """
    from qrbs import dense

    circuit = Circuit(amplitudes.size.bit_length() - 1).extend(gates)
    masks = tuple(map(dense._gate_masks, circuit.gates))
    return dense._apply_segment(amplitudes, masks, every_block(amplitudes))


def norm_sq(state) -> float:
    """The squared norm of a dense state's amplitudes."""
    return float(np.vdot(state.amplitudes, state.amplitudes).real)


def random_circuit(
    rng: random.Random,
    num_qubits: int,
    num_gates: int,
    with_measures: bool = True,
) -> Circuit:
    """A random circuit; measurements, if any, come last (one per measured qubit)."""
    circuit = Circuit(num_qubits, num_qubits if with_measures else 0)
    for _ in range(num_gates):
        kinds = ["x"]
        if num_qubits >= 2:
            kinds.append("cx")
        if num_qubits >= 3:
            kinds.append("ccx")
        kind = rng.choice(kinds)
        if kind == "x":
            circuit.append(X(rng.randrange(num_qubits)))
        elif kind == "cx":
            control, target = rng.sample(range(num_qubits), 2)
            circuit.append(CNOT(control, target))
        else:
            control1, control2, target = rng.sample(range(num_qubits), 3)
            circuit.append(CCNOT(control1, control2, target))
    if with_measures:
        for clbit, qubit in enumerate(rng.sample(range(num_qubits), rng.randint(1, num_qubits))):
            circuit.append(Measure(qubit, clbit))
    return circuit


def random_expr(rng: random.Random, facts: list[str], depth: int, with_implies: bool = False):
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice(facts))
    ops = ["and", "or", "not"] + (["implies"] if with_implies else [])
    op = rng.choice(ops)
    if op == "not":
        return Not(random_expr(rng, facts, depth - 1, with_implies))
    left = random_expr(rng, facts, depth - 1, with_implies)
    right = random_expr(rng, facts, depth - 1, with_implies)
    return {"and": And, "or": Or, "implies": Implies}[op](left, right)


def random_constraints(rng: random.Random, names: list[str], count: int):
    return tuple(
        ConstraintRule(random_expr(rng, names, rng.randint(0, 3), with_implies=True))
        for _ in range(count)
    )


def random_network(
    rng: random.Random,
    max_inputs: int = 8,
    max_rules: int = 6,
    with_implies: bool = False,
    dsl_expressible: bool = False,
) -> RuleNetwork:
    """A random acyclic network; rules may reference earlier consequents.

    With ``dsl_expressible`` the outputs only name facts that occur in
    some rule, which is the precondition for a lossless textual form.
    """
    from qrbs.rules import atom_names

    inputs = [f"i{k}" for k in range(rng.randint(1, max_inputs))]
    available = list(inputs)
    rules = []
    for r in range(rng.randint(1, max_rules)):
        expr = random_expr(rng, available, rng.randint(0, 3), with_implies)
        consequent = f"f{r}"
        rules.append(Rule(expr, consequent))
        available.append(consequent)
    candidates = available
    if dsl_expressible:
        mentioned = {rule.consequent for rule in rules}
        for rule in rules:
            mentioned.update(atom_names(rule.antecedent))
        candidates = [fact for fact in available if fact in mentioned]
    outputs = rng.sample(candidates, rng.randint(1, len(candidates)))
    return RuleNetwork(tuple(inputs), tuple(rules), tuple(outputs))
