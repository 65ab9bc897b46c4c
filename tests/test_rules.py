"""Rule DSL, expression evaluation and network forward-chaining."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_network
from qrbs import rules
from qrbs.compiler import compile_network
from qrbs.errors import CycleError, DslSyntaxError, NetworkError
from qrbs.rules import (
    And,
    Atom,
    Implies,
    Not,
    Or,
    Rule,
    RuleNetwork,
    atom_names,
    evaluate_expr,
    evaluate_network,
    format_expr,
    format_network,
    parse_rules,
    topological_order,
)

DEMO_RULES = """\
rule r1: A & B -> X
rule r2: X | C -> Y
rule r3: Y & (D | E) -> R
"""


# Independent forward-chaining oracle for the demo network.
def _demo_oracle(a, b, c, d, e):
    x = a and b
    y = x or c
    r = y and (d or e)
    return int(x), int(y), int(r)


class TestParser:
    def test_single_rule(self):
        net = parse_rules("rule: A & B -> X")
        assert net.input_facts == ("A", "B")
        assert len(net.rules) == 1
        assert net.rules[0].antecedent == And(Atom("A"), Atom("B"))
        assert net.outputs == ("X",)

    def test_empty_text_is_an_error(self):
        with pytest.raises(NetworkError, match="empty network"):
            parse_rules("")

    def test_comments_only_is_an_error(self):
        with pytest.raises(NetworkError, match="empty network"):
            parse_rules("# nothing here\n\n")

    def test_demo_network(self):
        net = parse_rules(DEMO_RULES)
        assert net.input_facts == ("A", "B", "C", "D", "E")
        assert net.consequents == ("X", "Y", "R")
        assert net.outputs == ("R",)
        assert net.rules[0].name == "r1"

    def test_outputs_clause(self):
        net = parse_rules("rule: A -> X\nrule: A -> Y\noutputs: Y, X")
        assert net.outputs == ("Y", "X")

    def test_unnamed_rule(self):
        net = parse_rules("rule: A | B -> X")
        assert net.rules[0].name is None

    def test_precedence_not_and_or(self):
        net = parse_rules("rule: !A & B | C -> X")
        assert net.rules[0].antecedent == Or(And(Not(Atom("A")), Atom("B")), Atom("C"))

    def test_parentheses(self):
        net = parse_rules("rule: A & (B | C) -> X")
        assert net.rules[0].antecedent == And(Atom("A"), Or(Atom("B"), Atom("C")))

    def test_hyphenated_fact_names(self):
        net = parse_rules("rule: a-1 & b_2 -> X-out")
        assert net.input_facts == ("a-1", "b_2")
        assert net.outputs == ("X-out",)

    def test_syntax_error_reports_position(self):
        with pytest.raises(DslSyntaxError, match=r"line 2"):
            parse_rules("rule: A -> X\nrule: & B -> Y")

    def test_unexpected_character(self):
        with pytest.raises(DslSyntaxError, match=r"unexpected character"):
            parse_rules("rule: A % B -> X")

    def test_missing_consequent(self):
        with pytest.raises(DslSyntaxError):
            parse_rules("rule: A & B ->")

    def test_trailing_tokens(self):
        with pytest.raises(DslSyntaxError, match="trailing"):
            parse_rules("rule: A -> X Y")

    def test_unknown_output_fact(self):
        with pytest.raises(NetworkError, match="unknown output fact 'Z'"):
            parse_rules("rule: A -> X\noutputs: Z")

    def test_duplicate_consequent(self):
        with pytest.raises(NetworkError, match="duplicate consequent 'X'"):
            parse_rules("rule: A -> X\nrule: B -> X")

    def test_duplicate_outputs_clause(self):
        with pytest.raises(DslSyntaxError, match="duplicate outputs"):
            parse_rules("rule: A -> X\noutputs: X\noutputs: X")

    def test_cycle_detected(self):
        with pytest.raises(CycleError):
            parse_rules("rule: Y -> X\nrule: X -> Y\noutputs: X")

    def test_self_cycle(self):
        with pytest.raises(CycleError):
            parse_rules("rule: X & A -> X")

    def test_implication_rejected_in_rule_files(self):
        with pytest.raises(DslSyntaxError, match="constraint files"):
            parse_rules("rule: A => B -> X")

    def test_blank_lines_and_comments_skipped(self):
        net = parse_rules("\n# header\nrule: A -> X  # inline\n\n")
        assert net.input_facts == ("A",)

    def test_chains_are_flat_whatever_the_association(self):
        a, b, c = Atom("a"), Atom("b"), Atom("c")
        assert Or(Or(a, b), c) == Or(a, Or(b, c)) == Or(a, b, c)
        assert Or(a, b, c).operands == (a, b, c)
        assert And(a, b) != Or(a, b)
        assert Or(And(a, b), c).operands == (And(a, b), c)
        for text in ("(a | b) | c", "a | (b | c)", "a | b | c"):
            assert parse_rules(f"rule: {text} -> Y").rules[0].antecedent == Or(a, b, c)

    def test_chain_needs_two_operands(self):
        with pytest.raises(TypeError):
            And(Atom("a"))
        with pytest.raises(TypeError):
            Or()
        assert Or.of([Atom("a")]) == Atom("a")
        assert Or.of(Atom(n) for n in "ab") == Or(Atom("a"), Atom("b"))

    def test_chains_print_flat(self):
        a, b, c = Atom("a"), Atom("b"), Atom("c")
        assert format_expr(And(a, And(b, c))) == "a & b & c"
        assert format_expr(Or(Or(a, b), c)) == "a | b | c"
        assert format_expr(And(Or(a, b), c)) == "(a | b) & c"


_TOO_DEEP = "expression nested deeper than 100 levels"

# Exact message, line and column of each syntax error; the tokenizer and the
# parser may change, but what a user is told about bad text may not.
SYNTAX_ERRORS = [
    # an unexpected character after tabs: a tab is one column
    ("rule r1:\tA &\t$ B -> X", "unexpected character '$'", 1, 14),
    ("\t\trule r1: A -> X Y", "unexpected trailing input, got 'Y'", 1, 19),
    ("rule r1: A -> X -> Y", "unexpected trailing input, got '->'", 1, 17),
    ("rule r1: A & B X", "expected '->', got 'X'", 1, 16),
    ("rule r1: A => B -> X", "'=>' is only allowed in constraint files", 1, 12),
    ("rule r1: (A & B -> X", "expected ')', got '->'", 1, 17),
    ("rule r1: A -> X\noutputs: X,, Y", "expected a fact name, got ','", 2, 12),
    ("rule r1: A -> X\noutputs: X Y", "expected ',', got 'Y'", 2, 12),
    ("rule r1: A -> X\noutputs:", "expected a fact name", 2, None),
    ("rule r1: A ->", "expected a fact name", 1, None),
    ("rule r1: A -> !X", "expected a fact name, got '!'", 1, 15),
    ("rule r1: A &", "expected expression", 1, None),
    ("rule r1 A -> X", "expected ':', got 'A'", 1, 9),
    ("rule r1: A | ) -> X", "expected '!', '(' or a fact name, got ')'", 1, 14),
    # blank and comment lines still count
    ("rule r1: A -> X\n  \n# c\nrule r2: X & -> Y", "expected '!', '(' or a fact name, got '->'",
     4, 14),
    ("rule r1: A -> X\n-> Y", "expected 'rule' or 'outputs'", 2, 1),
    ("frob: A -> X", "expected 'rule' or 'outputs', got 'frob'", 1, 1),
    ("rule: A -> X\noutputs: X\noutputs: X", "duplicate outputs clause", 3, 1),
    # MAX_DEPTH + 1 levels: the error points at the level that overflows
    ("rule r1: " + "!" * 101 + "A -> X", _TOO_DEEP, 1, 110),
    ("rule r1: " + "(" * 101 + "A" + ")" * 101 + " -> X", _TOO_DEEP, 1, 110),
]


@pytest.mark.parametrize("text, message, line, column", SYNTAX_ERRORS)
def test_syntax_error_message_line_and_column(text, message, line, column):
    with pytest.raises(DslSyntaxError) as info:
        parse_rules(text)
    where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
    assert str(info.value) == message + where
    assert (info.value.line, info.value.column) == (line, column)


@pytest.mark.parametrize("keyword", ["symptoms", "diagnoses"])
def test_constraint_declarations_are_not_rule_file_keywords(keyword):
    with pytest.raises(DslSyntaxError) as info:
        parse_rules(f"rule r1: A -> X\n  {keyword}: A\n")
    message = f"expected 'rule' or 'outputs', got {keyword!r} (line 2, column 3)"
    assert str(info.value) == message
    assert (info.value.line, info.value.column) == (2, 3)


class TestEvaluateExpr:
    def test_and(self):
        assert evaluate_expr(And(Atom("a"), Atom("b")), {"a": 1, "b": 1}) == 1
        assert evaluate_expr(And(Atom("a"), Atom("b")), {"a": 1, "b": 0}) == 0

    def test_vacuous_implication(self):
        expr = Implies(Atom("p"), Atom("q"))
        assert evaluate_expr(expr, {"p": 0, "q": 0}) == 1
        assert evaluate_expr(expr, {"p": 0, "q": 1}) == 1
        assert evaluate_expr(expr, {"p": 1, "q": 0}) == 0

    def test_nested(self):
        # Or(And(1,0), Not(0)) -> 1, checked against a brute truth-table walk.
        expr = Or(And(Atom("a"), Atom("b")), Not(Atom("c")))
        assert evaluate_expr(expr, {"a": 1, "b": 0, "c": 0}) == 1
        for bits in itertools.product((0, 1), repeat=3):
            env = dict(zip("abc", bits))
            assert evaluate_expr(expr, env) == int((bits[0] and bits[1]) or not bits[2])

    def test_unassigned_atom(self):
        with pytest.raises(NetworkError, match="unassigned atom 'b'"):
            evaluate_expr(And(Atom("a"), Atom("b")), {"a": 1})

    def test_truthy_values_normalized(self):
        assert evaluate_expr(Atom("a"), {"a": True}) == 1
        assert evaluate_expr(Atom("a"), {"a": 0}) == 0


@settings(max_examples=200)
@given(st.data())
def test_implies_equals_or_not_exhaustively(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    atoms = [f"a{i}" for i in range(data.draw(st.integers(1, 10)))]
    from conftest import random_expr

    left = random_expr(rng, atoms, 2)
    right = random_expr(rng, atoms, 2)
    implies = Implies(left, right)
    rewritten = Or(Not(left), right)
    names = atom_names(implies)
    for bits in itertools.product((0, 1), repeat=len(names)):
        env = dict(zip(names, bits))
        assert evaluate_expr(implies, env) == evaluate_expr(rewritten, env)


class TestTopologicalOrder:
    def test_demo_order(self):
        net = parse_rules(DEMO_RULES)
        assert topological_order(net) == ("A", "B", "C", "D", "E", "X", "Y", "R")

    def test_single_rule(self):
        net = parse_rules("rule: A -> X")
        assert topological_order(net) == ("A", "X")

    def test_order_is_stable_for_independent_rules(self):
        net = parse_rules("rule: A -> P\nrule: A -> Q\noutputs: P, Q")
        assert topological_order(net) == ("A", "P", "Q")

    def test_cycle_error_names_the_facts(self):
        with pytest.raises(CycleError) as excinfo:
            parse_rules("rule: Y -> X\nrule: X -> Y\noutputs: X")
        assert set(excinfo.value.facts) == {"X", "Y"}

    def test_evaluation_and_compilation_reuse_the_stored_order(self, monkeypatch):
        net = parse_rules(DEMO_RULES)

        def explode(*args):
            raise AssertionError("rule order recomputed")

        monkeypatch.setattr(rules, "topological_order", explode)
        monkeypatch.setattr(rules, "_order_rules", explode)
        env = {"A": 1, "B": 1, "C": 0, "D": 1, "E": 0}
        assert evaluate_network(net, env)["R"] == _demo_oracle(1, 1, 0, 1, 0)[2]
        assert compile_network(net).circuit.gates
        # this module's name for topological_order is the unpatched function
        assert topological_order(net) == ("A", "B", "C", "D", "E", "X", "Y", "R")


class TestEvaluateNetwork:
    def test_demo_case(self):
        net = parse_rules(DEMO_RULES)
        values = evaluate_network(net, {"A": 1, "B": 1, "C": 0, "D": 1, "E": 0})
        assert (values["X"], values["Y"], values["R"]) == (1, 1, 1)

    def test_all_inputs_zero(self):
        net = parse_rules(DEMO_RULES)
        values = evaluate_network(net, dict.fromkeys("ABCDE", 0))
        assert (values["X"], values["Y"], values["R"]) == (0, 0, 0)

    def test_middle_rule_fires_alone(self):
        net = parse_rules(DEMO_RULES)
        values = evaluate_network(net, {"A": 0, "B": 0, "C": 1, "D": 0, "E": 0})
        assert (values["X"], values["Y"], values["R"]) == (0, 1, 0)

    def test_matches_oracle_on_all_32_assignments(self):
        net = parse_rules(DEMO_RULES)
        for bits in itertools.product((0, 1), repeat=5):
            values = evaluate_network(net, dict(zip("ABCDE", bits)))
            assert (values["X"], values["Y"], values["R"]) == _demo_oracle(*bits)

    def test_missing_input(self):
        net = parse_rules(DEMO_RULES)
        with pytest.raises(NetworkError, match="missing input bit for 'E'"):
            evaluate_network(net, {"A": 1, "B": 1, "C": 0, "D": 1})

    def test_unknown_input(self):
        net = parse_rules("rule: A -> X")
        with pytest.raises(NetworkError, match="unknown input fact"):
            evaluate_network(net, {"A": 1, "Q": 0})

    def test_deterministic(self):
        net = parse_rules(DEMO_RULES)
        env = {"A": 1, "B": 0, "C": 1, "D": 0, "E": 1}
        assert evaluate_network(net, env) == evaluate_network(net, env)


class TestNetworkValidation:
    def test_input_and_consequent_clash(self):
        with pytest.raises(NetworkError, match="both an input and a consequent"):
            RuleNetwork(("A", "X"), (Rule(Atom("A"), "X"),), ("X",))

    def test_unknown_atom(self):
        with pytest.raises(NetworkError, match="unknown atom 'B'"):
            RuleNetwork(("A",), (Rule(And(Atom("A"), Atom("B")), "X"),), ("X",))

    def test_bad_fact_name(self):
        with pytest.raises(NetworkError, match="invalid fact name"):
            RuleNetwork(("A B",), (Rule(Atom("A B"), "X"),), ("X",))

    def test_duplicate_outputs(self):
        with pytest.raises(NetworkError, match="duplicate output"):
            RuleNetwork(("A",), (Rule(Atom("A"), "X"),), ("X", "X"))

    def test_zero_rule_network_allowed_programmatically(self):
        net = RuleNetwork(("A",), (), ("A",))
        assert evaluate_network(net, {"A": 1}) == {"A": 1}


@settings(max_examples=150)
@given(st.integers(0, 2**32))
def test_format_parse_roundtrip(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_inputs=5, max_rules=4, dsl_expressible=True)
    first = parse_rules(format_network(net))
    second = parse_rules(format_network(first))
    assert first == second

    reordered = tuple(rng.sample(net.rules, len(net.rules)))
    shuffled = RuleNetwork(net.input_facts, reordered, net.outputs)
    for network in (net, shuffled):
        consequents = tuple(rule.consequent for rule in network.ordered_rules)
        assert consequents == topological_order(network)[len(network.input_facts) :]
        assert network.ordered_rules == _earliest_ready_first(network)


def _earliest_ready_first(network: RuleNetwork) -> tuple[Rule, ...]:
    """Reference order: take the earliest-declared rule whose atoms are all resolved."""
    resolved, pending, order = set(network.input_facts), list(network.rules), []
    while pending:
        rule = next(r for r in pending if set(atom_names(r.antecedent)) <= resolved)
        pending.remove(rule)
        resolved.add(rule.consequent)
        order.append(rule)
    return tuple(order)


@settings(max_examples=100)
@given(st.integers(0, 2**32))
def test_format_expr_preserves_structure(seed):
    from conftest import random_expr

    rng = random.Random(seed)
    expr = random_expr(rng, ["a", "b", "c"], 4)
    net = parse_rules(f"rule: {format_expr(expr)} -> Z")
    assert net.rules[0].antecedent == expr


@settings(max_examples=100)
@given(st.integers(0, 2**32))
def test_unreachable_input_cannot_change_output(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_inputs=5, max_rules=4)
    output = rng.choice(net.outputs)

    reachable: set[str] = {output}
    changed = True
    by_consequent = {r.consequent: r for r in net.rules}
    while changed:
        changed = False
        for fact in list(reachable):
            rule = by_consequent.get(fact)
            if rule:
                for atom in atom_names(rule.antecedent):
                    if atom not in reachable:
                        reachable.add(atom)
                        changed = True
    unreachable = [f for f in net.input_facts if f not in reachable]
    if not unreachable:
        return
    env = {f: rng.randint(0, 1) for f in net.input_facts}
    flipped = dict(env)
    flipped[rng.choice(unreachable)] ^= 1
    assert evaluate_network(net, env)[output] == evaluate_network(net, flipped)[output]
