"""Propositional rule networks.

A rule network is an acyclic collection of ``antecedent -> consequent``
rules over named boolean facts, plus the ordered input facts (those never
concluded by any rule) and the output facts to report. Networks are
written in a small line-oriented DSL::

    # two-step inference
    rule r1: A & B -> X
    rule r2: X | C -> Y
    outputs: Y

Operators are ``!`` (not), ``&`` (and) and ``|`` (or), with precedence
``!`` > ``&`` > ``|``; parentheses group; ``#`` starts a comment. Facts
not concluded by any rule are the network's inputs, in order of first
mention. Without an ``outputs:`` clause the outputs default to every
consequent that no other rule consumes. ``=>`` (implication) is reserved
for constraint files (see :mod:`qrbs.categorical`) and rejected here.

A chain of one operator is one flat :class:`And` or :class:`Or` node,
however it was parenthesised, so chains of any width parse. Nesting is
bounded by :data:`MAX_DEPTH` (100 levels; each ``!``, ``(`` and ``=>``
counts one), which keeps parsing and every recursive walk over a parsed
expression within Python's stack limit; deeper text raises
:class:`DslSyntaxError`.

Each fact may be concluded by at most one rule; merge alternatives with
``|``. This keeps every fact a function of the inputs, which is what the
circuit compiler relies on.
"""

from __future__ import annotations

import heapq
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .errors import CycleError, DslSyntaxError, NetworkError

__all__ = [
    "Atom",
    "Not",
    "And",
    "Or",
    "Implies",
    "BoolExpr",
    "MAX_DEPTH",
    "Rule",
    "RuleNetwork",
    "atom_names",
    "evaluate_expr",
    "evaluate_network",
    "format_expr",
    "format_network",
    "parse_rules",
    "topological_order",
]


# ---------------------------------------------------------------------------
# Expression AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Not:
    operand: "BoolExpr"


@dataclass(frozen=True, init=False)
class _Chain:
    """A flat chain of 2+ operands; an operand of the same kind is spliced in."""

    operands: tuple["BoolExpr", ...]

    def __init__(self, *operands: "BoolExpr") -> None:
        flat = []
        for op in operands:
            flat.extend(op.operands if type(op) is type(self) else (op,))
        if len(flat) < 2:
            raise TypeError(f"{type(self).__name__} needs at least two operands")
        object.__setattr__(self, "operands", tuple(flat))

    @classmethod
    def of(cls, operands: Iterable["BoolExpr"]) -> "BoolExpr":
        """The chain of ``operands``, or the operand itself if it is alone."""
        operands = tuple(operands)
        return operands[0] if len(operands) == 1 else cls(*operands)


class And(_Chain):
    pass


class Or(_Chain):
    pass


@dataclass(frozen=True)
class Implies:
    left: "BoolExpr"
    right: "BoolExpr"


BoolExpr = Atom | Not | And | Or | Implies

_NAME_RE = re.compile(r"[A-Za-z0-9_-]+\Z")


def _check_fact_name(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise NetworkError(f"invalid fact name {name!r}")
    return name


def atom_names(expr: BoolExpr) -> tuple[str, ...]:
    """All atom names in ``expr``, deduplicated, in first-occurrence order."""
    names: dict[str, None] = {}  # an insertion-ordered set

    def walk(node: BoolExpr) -> None:
        match node:
            case Atom(name):
                names[name] = None
            case Not(operand):
                walk(operand)
            case And(operands) | Or(operands):
                for operand in operands:
                    walk(operand)
            case Implies(left, right):
                walk(left)
                walk(right)
            case _:
                raise TypeError(f"not a boolean expression: {node!r}")

    walk(expr)
    return tuple(names)


def evaluate_expr(expr: BoolExpr, assignment: Mapping[str, int]) -> int:
    """Evaluate ``expr`` to 0 or 1 under ``assignment``.

    ``Implies(p, q)`` is material implication, i.e. ``Or(Not(p), q)``.
    Raises :class:`NetworkError` if an atom is unassigned.
    """
    match expr:
        case Atom(name):
            if name not in assignment:
                raise NetworkError(f"unassigned atom {name!r}")
            return 1 if assignment[name] else 0
        case Not(operand):
            return 1 - evaluate_expr(operand, assignment)
        case And(operands):
            value = 1
            for op in operands:
                value &= evaluate_expr(op, assignment)
            return value
        case Or(operands):
            value = 0
            for op in operands:
                value |= evaluate_expr(op, assignment)
            return value
        case Implies(left, right):
            return (1 - evaluate_expr(left, assignment)) | evaluate_expr(right, assignment)
        case _:
            raise TypeError(f"not a boolean expression: {expr!r}")


# ---------------------------------------------------------------------------
# Rules and networks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    antecedent: BoolExpr
    consequent: str
    name: str | None = None


@dataclass(frozen=True)
class RuleNetwork:
    """Immutable, validated rule network.

    Validation runs on construction: fact names are checked, consequents
    must be unique and disjoint from inputs, every atom must resolve, the
    outputs must resolve, and the dependency graph must be acyclic.

    The acyclicity check keeps its result: ``ordered_rules`` holds the
    rules in :func:`topological_order`, for evaluation and compilation.
    """

    input_facts: tuple[str, ...]
    rules: tuple[Rule, ...]
    outputs: tuple[str, ...]
    ordered_rules: tuple[Rule, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in self.input_facts:
            _check_fact_name(name)
        if len(set(self.input_facts)) != len(self.input_facts):
            raise NetworkError("duplicate input fact")
        consequents: set[str] = set()
        for rule in self.rules:
            _check_fact_name(rule.consequent)
            if rule.consequent in consequents:
                raise NetworkError(f"duplicate consequent {rule.consequent!r}")
            consequents.add(rule.consequent)
        known = set(self.input_facts) | consequents
        if set(self.input_facts) & consequents:
            clash = sorted(set(self.input_facts) & consequents)[0]
            raise NetworkError(f"fact {clash!r} is both an input and a consequent")
        for rule in self.rules:
            for atom in atom_names(rule.antecedent):
                if atom not in known:
                    raise NetworkError(f"unknown atom {atom!r} in rule for {rule.consequent!r}")
        if len(set(self.outputs)) != len(self.outputs):
            raise NetworkError("duplicate output fact")
        for fact in self.outputs:
            if fact not in known:
                raise NetworkError(f"unknown output fact {fact!r}")
        object.__setattr__(self, "ordered_rules", _order_rules(self))  # or CycleError

    @property
    def consequents(self) -> tuple[str, ...]:
        return tuple(rule.consequent for rule in self.rules)


def topological_order(network: RuleNetwork) -> tuple[str, ...]:
    """Facts in dependency order: inputs first, then consequents.

    Deterministic: inputs keep declaration order, and among the rules
    ready at each step the earliest-declared one goes first.
    """
    return network.input_facts + tuple(rule.consequent for rule in _order_rules(network))


def _order_rules(network: RuleNetwork) -> tuple[Rule, ...]:
    """The rules in :func:`topological_order`; each antecedent is walked once."""
    inputs = set(network.input_facts)
    missing = [  # per rule, its unresolved atoms as an insertion-ordered set
        dict.fromkeys(a for a in atom_names(rule.antecedent) if a not in inputs)
        for rule in network.rules
    ]
    waiting: dict[str, list[int]] = {}  # fact -> the rules missing it
    for i, atoms in enumerate(missing):
        for atom in atoms:
            waiting.setdefault(atom, []).append(i)
    ready = [i for i, atoms in enumerate(missing) if not atoms]  # ascending, so a heap
    order: list[Rule] = []
    while ready:
        rule = network.rules[heapq.heappop(ready)]
        order.append(rule)
        for i in waiting.get(rule.consequent, ()):
            del missing[i][rule.consequent]
            if not missing[i]:
                heapq.heappush(ready, i)
    if len(order) < len(network.rules):
        pending = {rule.consequent: atoms for rule, atoms in zip(network.rules, missing) if atoms}
        raise CycleError(_find_cycle(pending))
    return tuple(order)


def _find_cycle(pending: Mapping[str, Iterable[str]]) -> tuple[str, ...]:
    """A cycle among the unordered rules, given as consequent -> unresolved atoms."""
    node = next(iter(pending))
    path: list[str] = []
    position: dict[str, int] = {}
    while node not in position:
        position[node] = len(path)
        path.append(node)
        node = next(iter(pending[node]))
    return tuple(path[position[node] :])


def _input_bits(network: RuleNetwork, inputs: Mapping[str, int]) -> tuple[int, ...]:
    """``inputs`` as 0/1 bits in ``network.input_facts`` order, every fact given once."""
    for fact in network.input_facts:
        if fact not in inputs:
            raise NetworkError(f"missing input bit for {fact!r}")
    unknown = set(inputs) - set(network.input_facts)
    if unknown:
        raise NetworkError(f"unknown input fact {sorted(unknown)[0]!r}")
    return tuple(1 if inputs[fact] else 0 for fact in network.input_facts)


def evaluate_network(network: RuleNetwork, inputs: Mapping[str, int]) -> dict[str, int]:
    """Forward-evaluate the whole network; returns a bit for every fact."""
    values = dict(zip(network.input_facts, _input_bits(network, inputs)))
    for rule in network.ordered_rules:
        values[rule.consequent] = evaluate_expr(rule.antecedent, values)
    return values


# ---------------------------------------------------------------------------
# DSL lexer and parser
# ---------------------------------------------------------------------------

# '-' is an identifier character unless it starts the arrow '->'.
_TOKEN_RE = re.compile(r"->|=>|(?:[A-Za-z0-9_]|-(?!>))+|[!&|(),:]")
_PUNCTUATION = {"->", "=>", "!", "&", "|", "(", ")", ",", ":"}

# Deepest nesting of '!', '(' and '=>' one expression may have (see the
# module docstring).
MAX_DEPTH = 100


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" or the punctuation text itself
    text: str
    column: int  # 1-based


def _tokenize(line: str, lineno: int) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(line):
        if line[pos] in " \t":
            pos += 1
            continue
        match = _TOKEN_RE.match(line, pos)
        if match is None:
            raise DslSyntaxError(f"unexpected character {line[pos]!r}", lineno, pos + 1)
        text = match.group()
        kind = text if text in _PUNCTUATION else "ident"
        tokens.append(_Token(kind, text, pos + 1))
        pos = match.end()
    return tokens


class _ExprParser:
    """Recursive-descent parser over one line's token list.

    Grammar: expr = or {"=>" expr} (constraint mode only);
    or = and {"|" and}; and = factor {"&" factor};
    factor = "!" factor | "(" expr ")" | ident.
    """

    def __init__(self, tokens: list[_Token], lineno: int, allow_implies: bool = False):
        self.tokens = tokens
        self.pos = 0
        self.lineno = lineno
        self.allow_implies = allow_implies
        self.depth = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> _Token:
        token = self.peek()
        if token is None:
            raise DslSyntaxError("unexpected end of line", self.lineno)
        self.pos += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token is None or token.kind != kind:
            self.fail(f"expected {kind!r}")
        return self.advance()

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def fail(self, message: str) -> None:
        token = self.peek()
        column = token.column if token else None
        if token is not None:
            message += f", got {token.text!r}"
        raise DslSyntaxError(message, self.lineno, column)

    @contextmanager
    def nested(self, token: _Token) -> Iterator[None]:
        """Consume ``token`` and count one nesting level for its operand."""
        self.advance()
        self.depth += 1
        if self.depth > MAX_DEPTH:
            message = f"expression nested deeper than {MAX_DEPTH} levels"
            raise DslSyntaxError(message, self.lineno, token.column)
        yield
        self.depth -= 1

    def expr(self) -> BoolExpr:
        left = self.or_expr()
        token = self.peek()
        if token is not None and token.kind == "=>":
            if not self.allow_implies:
                raise DslSyntaxError(
                    "'=>' is only allowed in constraint files", self.lineno, token.column
                )
            with self.nested(token):
                return Implies(left, self.expr())  # right-associative
        return left

    def or_expr(self) -> BoolExpr:
        operands = [self.and_expr()]
        while (token := self.peek()) is not None and token.kind == "|":
            self.advance()
            operands.append(self.and_expr())
        return Or.of(operands)

    def and_expr(self) -> BoolExpr:
        operands = [self.factor()]
        while (token := self.peek()) is not None and token.kind == "&":
            self.advance()
            operands.append(self.factor())
        return And.of(operands)

    def factor(self) -> BoolExpr:
        token = self.peek()
        if token is None:
            raise DslSyntaxError("expected expression", self.lineno)
        if token.kind == "!":
            with self.nested(token):
                return Not(self.factor())
        if token.kind == "(":
            with self.nested(token):
                node = self.expr()
                self.expect(")")
            return node
        if token.kind == "ident":
            self.advance()
            return Atom(token.text)
        self.fail("expected '!', '(' or a fact name")
        raise AssertionError("unreachable")


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0]


def _lines(text: str) -> Iterator[tuple[int, list[_Token]]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(_strip_comment(raw), lineno)
        if tokens:
            yield lineno, tokens


def _parse_name_list(parser: _ExprParser) -> list[str]:
    names = [parser.expect("ident").text]
    while not parser.at_end():
        parser.expect(",")
        names.append(parser.expect("ident").text)
    return names


def _parse_rule_head(parser: _ExprParser) -> str | None:
    """Consume ``rule [name] :`` and return the optional name."""
    parser.expect("ident")  # the 'rule' keyword, already checked by the caller
    name = None
    token = parser.peek()
    if token is not None and token.kind == "ident":
        name = parser.advance().text
    parser.expect(":")
    return name


def parse_rules(text: str) -> RuleNetwork:
    """Parse rule-DSL source into a validated :class:`RuleNetwork`."""
    rules: list[Rule] = []
    consequents: set[str] = set()
    mention_order: list[str] = []
    mentioned: set[str] = set()
    outputs: list[str] | None = None

    def mention(fact: str) -> None:
        if fact not in mentioned:
            mentioned.add(fact)
            mention_order.append(fact)

    for lineno, tokens in _lines(text):
        head = tokens[0]
        if head.kind != "ident":
            raise DslSyntaxError("expected 'rule' or 'outputs'", lineno, head.column)
        parser = _ExprParser(tokens, lineno, allow_implies=False)
        if head.text == "rule":
            name = _parse_rule_head(parser)
            antecedent = parser.expr()
            parser.expect("->")
            consequent = parser.expect("ident").text
            if not parser.at_end():
                parser.fail("unexpected trailing input")
            if consequent in consequents:
                raise NetworkError(f"duplicate consequent {consequent!r} (line {lineno})")
            consequents.add(consequent)
            for atom in atom_names(antecedent):
                mention(atom)
            mention(consequent)
            rules.append(Rule(antecedent, consequent, name))
        elif head.text == "outputs":
            if outputs is not None:
                raise DslSyntaxError("duplicate outputs clause", lineno, head.column)
            parser.advance()
            parser.expect(":")
            outputs = _parse_name_list(parser)
        else:
            raise DslSyntaxError(
                f"expected 'rule' or 'outputs', got {head.text!r}", lineno, head.column
            )

    if not rules:
        raise NetworkError("empty network: no rules defined")
    inputs = tuple(f for f in mention_order if f not in consequents)
    if outputs is None:
        used = {a for rule in rules for a in atom_names(rule.antecedent)}
        outputs = [rule.consequent for rule in rules if rule.consequent not in used]
    return RuleNetwork(inputs, tuple(rules), tuple(outputs))


# ---------------------------------------------------------------------------
# Pretty-printing
# ---------------------------------------------------------------------------

# Binding strength, used to insert the minimal parentheses that make the
# printed text reparse to the identical tree, and operator text.
_OPERATORS = {Implies: (1, " => "), Or: (2, " | "), And: (3, " & "), Not: (4, "!"), Atom: (5, "")}


def format_expr(expr: BoolExpr) -> str:
    """Render ``expr`` in DSL syntax with minimal parentheses."""
    return _format(expr, 0)


def _format(expr: BoolExpr, min_prec: int) -> str:
    prec, symbol = _OPERATORS[type(expr)]
    match expr:
        case Atom(name):
            text = name
        case Not(operand):
            text = symbol + _format(operand, 4)
        case And(operands) | Or(operands):
            text = symbol.join(_format(op, prec + 1) for op in operands)
        case Implies(left, right):
            text = _format(left, 2) + symbol + _format(right, 1)
    return f"({text})" if prec < min_prec else text


def format_network(network: RuleNetwork) -> str:
    """Render a network as DSL text; the inverse of :func:`parse_rules`."""
    lines = []
    for rule in network.rules:
        label = f"rule {rule.name}" if rule.name else "rule"
        lines.append(f"{label}: {format_expr(rule.antecedent)} -> {rule.consequent}")
    lines.append("outputs: " + ", ".join(network.outputs))
    return "\n".join(lines) + "\n"
