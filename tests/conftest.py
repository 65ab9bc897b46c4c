"""Shared test generators: seeded random circuits, expressions and networks."""

from __future__ import annotations

import random

from qrbs.categorical import ConstraintRule
from qrbs.circuit import CCNOT, CNOT, Circuit, Measure, X
from qrbs.rules import And, Atom, Implies, Not, Or, Rule, RuleNetwork


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
