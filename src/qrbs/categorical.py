"""Categorical differential diagnosis over attribute complexes.

A *complex* is a full truth assignment over all symptoms (or over all
diagnoses), named by the integer it spells with the first attribute as
the most significant bit: with three symptoms, ``S5`` is ``(1, 0, 1)``.
The expanded logic base pairs every symptom complex with every diagnosis
complex; constraint rules then discard the pairs that contradict domain
knowledge, leaving the reduced logic base. Diagnosis is a lookup: the
compatible diagnosis complexes for an observed symptom complex, summed
up per disease as present / absent / uncertain.

Constraint files reuse the rule DSL, and its line reader, plus the
``=>`` operator and ``symptoms:`` / ``diagnoses:`` declarations: a line
starts with ``rule`` or one of those two keywords, and each declaration
appears at most once::

    symptoms: s1, s2
    diagnoses: d1, d2
    rule R2: d2 => s1

``rule: any_symptom_implies_diagnosis`` is shorthand for the common
"symptoms require some diagnosis" constraint
``(s1 | ... | sn) => (d1 | ... | dm)``.

A :class:`LogicBase` is index-backed: it holds the pair index
``d << ns | s`` of each pair, which is also the position of the pair in
the expanded logic base, so :func:`build_elb` stores only a ``range``.
:func:`reduce_to_rlb` evaluates the constraints on bit-planes
(:mod:`qrbs.planes`) over the pair index: each constraint is one integer
per batch of :func:`qrbs.planes.sweep`, their AND is the mask of pairs
kept, and :func:`qrbs.planes.set_bits` decodes it a byte at a time into
the kept indices, batch offset included. :func:`diagnose` is a dict lookup
into the base's diagnosis indices grouped by symptom, built once per
base; each disease's verdict is read from a four-entry table by its bit
in the group's AND and OR. ``Complex`` objects are built only for what
is returned, and those built from indices skip the bit check.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, reduce
from itertools import product
from operator import and_, eq, or_
from typing import Iterable, Iterator, Sequence

from . import planes
from .errors import NetworkError
from .rules import Atom, BoolExpr, Implies, Or, _statements, atom_names

__all__ = [
    "MAX_TOTAL_ATTRIBUTES",
    "ANY_SYMPTOM_SHORTHAND",
    "Complex",
    "LogicBase",
    "ConstraintRule",
    "ConstraintSet",
    "Presence",
    "Verdict",
    "build_elb",
    "complex_index",
    "diagnose",
    "index_to_complex",
    "parse_constraints",
    "reduce_to_rlb",
]

# Enumeration is exponential in the attribute count by design; cap it.
MAX_TOTAL_ATTRIBUTES = 20

ANY_SYMPTOM_SHORTHAND = "any_symptom_implies_diagnosis"


# (type, value) of every valid bit; the type is part of the key because
# 1.0 == 1 and hashes alike, so a check on the values alone lets floats in
_BITS = frozenset((kind, value) for kind in (int, bool) for value in (0, 1))


def _check_bits(bits: Sequence[int]) -> None:
    try:
        if _BITS.issuperset(zip(map(type, bits), bits)):
            return
    except TypeError:  # not iterable, or an unhashable bit
        pass
    raise ValueError(f"complex bits must be the integers 0 or 1, got {bits!r}")


def _index(bits: Sequence[int]) -> int:
    index = 0
    for bit in bits:
        index = index << 1 | bit
    return index


def complex_index(bits: Sequence[int]) -> int:
    """Integer value of a bit vector, first attribute most significant."""
    _check_bits(bits)
    return _index(bits)


def index_to_complex(index: int, n: int) -> "Complex":
    """Inverse of :func:`complex_index` for ``n`` attributes; both must be ``int``."""
    if not (isinstance(index, int) and isinstance(n, int)):
        raise ValueError(f"index {index!r} out of range for {n!r} attributes")
    if n < 1:
        raise ValueError("a complex needs at least one attribute")
    if not 0 <= index < 1 << n:
        raise ValueError(f"index {index} out of range for {n} attributes")
    return Complex._of(tuple([index >> b & 1 for b in range(n - 1, -1, -1)]))


@dataclass(frozen=True)
class Complex:
    """One full truth assignment over a set of attributes.

    ``bits`` holds the integers 0 and 1 (bools pass too); anything else,
    ``1.0`` included, raises ``ValueError``.
    """

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.bits:
            raise ValueError("a complex needs at least one attribute")
        _check_bits(self.bits)

    @classmethod
    def _of(cls, bits: tuple[int, ...]) -> Complex:
        """A complex over bits built as ints 0 and 1, taken as they are."""
        complex_ = cls.__new__(cls)
        object.__setattr__(complex_, "bits", bits)
        return complex_

    @property
    def index(self) -> int:
        return _index(self.bits)

    def label(self, prefix: str) -> str:
        return f"{prefix}{self.index}"


class LogicBase:
    """An ordered set of (symptom complex, diagnosis complex) pairs.

    A base is index-backed: ``indices`` holds the pair index
    ``d << n_symptoms | s`` of each pair, in order. ``pairs``, the
    labels and the per-symptom grouping that :func:`diagnose` looks up
    are built from the indices when first asked for, once per base.
    """

    def __init__(
        self, n_symptoms: int, n_diagnoses: int, pairs: Iterable[tuple[Complex, Complex]]
    ) -> None:
        indices = []
        for symptom, diagnosis in pairs:
            if len(symptom.bits) != n_symptoms or len(diagnosis.bits) != n_diagnoses:
                raise ValueError("logic-base pair has inconsistent dimensions")
            indices.append(diagnosis.index << n_symptoms | symptom.index)
        if len(set(indices)) != len(indices):
            raise ValueError("duplicate pair in logic base")
        self.n_symptoms, self.n_diagnoses = n_symptoms, n_diagnoses
        self.indices: Sequence[int] = tuple(indices)

    @classmethod
    def _from_indices(cls, n_symptoms: int, n_diagnoses: int, indices: Sequence[int]) -> LogicBase:
        """A base over distinct, in-range pair indices, taken as they are."""
        base = cls.__new__(cls)
        base.n_symptoms, base.n_diagnoses, base.indices = n_symptoms, n_diagnoses, indices
        return base

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[tuple[Complex, Complex]]:
        return iter(self.pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogicBase):
            return NotImplemented
        return (
            (self.n_symptoms, self.n_diagnoses, len(self))
            == (other.n_symptoms, other.n_diagnoses, len(other))
            and all(map(eq, self.indices, other.indices))
        )

    def __hash__(self) -> int:
        return hash((self.n_symptoms, self.n_diagnoses, len(self)))

    def __repr__(self) -> str:
        return (
            f"LogicBase({self.n_symptoms} symptoms, {self.n_diagnoses} diagnoses, "
            f"{len(self)} pairs)"
        )

    @cached_property
    def pairs(self) -> tuple[tuple[Complex, Complex], ...]:
        symptoms, diagnoses = _complexes(self.n_symptoms), self._diagnosis_complexes
        low = (1 << self.n_symptoms) - 1
        return tuple((symptoms[p & low], diagnoses[p >> self.n_symptoms]) for p in self.indices)

    def labels(self) -> tuple[str, ...]:
        return self._labels

    @cached_property
    def _labels(self) -> tuple[str, ...]:
        low = (1 << self.n_symptoms) - 1
        return tuple(f"S{p & low}D{p >> self.n_symptoms}" for p in self.indices)

    @cached_property
    def _diagnosis_complexes(self) -> tuple[Complex, ...]:
        return _complexes(self.n_diagnoses)

    @cached_property
    def _diagnoses_by_symptom(self) -> dict[int, list[int]]:
        """Symptom index -> the diagnosis indices paired with it, in base order."""
        groups: defaultdict[int, list[int]] = defaultdict(list)
        low, ns = (1 << self.n_symptoms) - 1, self.n_symptoms
        for p in self.indices:
            groups[p & low].append(p >> ns)
        return groups


def _complexes(n: int) -> tuple[Complex, ...]:
    """Every complex over ``n`` attributes, complex ``i`` at position ``i``."""
    return tuple(map(Complex._of, product((0, 1), repeat=n)))


def build_elb(
    n_symptoms: int, n_diagnoses: int, max_attributes: int = MAX_TOTAL_ATTRIBUTES
) -> LogicBase:
    """The expanded logic base: every symptom/diagnosis complex pairing.

    Pairs are ordered diagnosis-major: all symptom complexes under D0,
    then all under D1, and so on, so pair ``p`` has index ``p`` and the
    base holds just ``range(2^(n_symptoms + n_diagnoses))``; no complex
    is built until :attr:`LogicBase.pairs` is read.
    """
    if n_symptoms < 1 or n_diagnoses < 1:
        raise ValueError("need at least one symptom and one diagnosis")
    if n_symptoms + n_diagnoses > max_attributes:
        raise ValueError(
            f"{n_symptoms + n_diagnoses} attributes exceeds the cap of {max_attributes}"
        )
    return LogicBase._from_indices(n_symptoms, n_diagnoses, range(1 << (n_symptoms + n_diagnoses)))


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstraintRule:
    """A boolean formula every surviving pair must satisfy."""

    expr: BoolExpr
    name: str | None = None


@dataclass(frozen=True)
class ConstraintSet:
    """Parsed constraint file: optional declarations plus rule entries.

    An entry with a ``None`` expression is the any-symptom shorthand; it
    expands when the attribute names are known (see :meth:`resolve`).
    """

    symptoms: tuple[str, ...] | None
    diagnoses: tuple[str, ...] | None
    entries: tuple[tuple[str | None, BoolExpr | None], ...]

    def resolve(
        self, n_symptoms: int | None = None, n_diagnoses: int | None = None
    ) -> tuple[tuple[str, ...], tuple[str, ...], tuple[ConstraintRule, ...]]:
        """Fix attribute names and expand shorthands.

        Declared names win; counts passed in must agree with them. With
        no declaration the names default to ``s1..sN`` / ``d1..dM``.
        """
        symptoms = _resolve_names(self.symptoms, n_symptoms, "s", "symptoms")
        diagnoses = _resolve_names(self.diagnoses, n_diagnoses, "d", "diagnoses")
        rules = []
        for name, expr in self.entries:
            if expr is None:
                expr = Implies(Or.of(map(Atom, symptoms)), Or.of(map(Atom, diagnoses)))
            rules.append(ConstraintRule(expr, name))
        return symptoms, diagnoses, tuple(rules)


def _resolve_names(
    declared: tuple[str, ...] | None, count: int | None, prefix: str, what: str
) -> tuple[str, ...]:
    if declared is None:
        if count is None:
            raise NetworkError(f"number of {what} not declared and not given")
        return tuple(f"{prefix}{i}" for i in range(1, count + 1))
    if count is not None and count != len(declared):
        raise NetworkError(
            f"constraint file declares {len(declared)} {what}, but {count} were requested"
        )
    return declared


def parse_constraints(text: str) -> ConstraintSet:
    """Parse a constraint file (rule DSL plus ``=>`` and declarations)."""
    declared: dict[str, tuple[str, ...]] = {}
    entries: list[tuple[str | None, BoolExpr | None]] = []
    statements = _statements(text, ("symptoms", "diagnoses"), "declaration", True)
    for lineno, keyword, value, parser in statements:
        if keyword == "rule":
            expr = parser.expr()
            if not parser.at_end():
                parser.fail("unexpected trailing input")
            entries.append((value, None if expr == Atom(ANY_SYMPTOM_SHORTHAND) else expr))
        else:
            if len(set(value)) != len(value):
                raise NetworkError(f"duplicate name in {keyword} declaration (line {lineno})")
            declared[keyword] = tuple(value)
    return ConstraintSet(declared.get("symptoms"), declared.get("diagnoses"), tuple(entries))


def reduce_to_rlb(
    elb: LogicBase,
    constraints: Iterable[ConstraintRule],
    symptom_names: Sequence[str] | None = None,
    diagnosis_names: Sequence[str] | None = None,
) -> LogicBase:
    """Keep exactly the pairs whose joint assignment satisfies every constraint.

    The kept pairs stay in the order of ``elb``. The satisfying pair
    indices come out ascending, which is :func:`build_elb` order; a base
    in any other order keeps those of its indices that satisfy.
    """
    symptom_names = tuple(symptom_names or (f"s{i}" for i in range(1, elb.n_symptoms + 1)))
    diagnosis_names = tuple(diagnosis_names or (f"d{i}" for i in range(1, elb.n_diagnoses + 1)))
    if len(symptom_names) != elb.n_symptoms or len(diagnosis_names) != elb.n_diagnoses:
        raise ValueError("attribute name lists do not match the logic base dimensions")
    known = set(symptom_names) | set(diagnosis_names)
    if len(known) != elb.n_symptoms + elb.n_diagnoses:
        raise ValueError("attribute names must be unique")
    constraints = tuple(constraints)
    for constraint in constraints:
        for atom in atom_names(constraint.expr):
            if atom not in known:
                label = constraint.name or "constraint"
                raise NetworkError(f"unknown atom {atom!r} in {label}")
    # bit b of a pair index d << ns | s is names[b]: the first attribute is the top bit
    names = symptom_names[::-1] + diagnosis_names[::-1]
    satisfying = []
    for ones, values, offset in planes.sweep(names):
        mask = reduce(and_, (planes.evaluate(c.expr, values, ones) for c in constraints), ones)
        satisfying += planes.set_bits(mask, offset)
    if elb.indices == range(1 << len(names)):  # in build_elb order, as satisfying is
        kept = tuple(satisfying)
    else:
        wanted = set(satisfying)
        kept = tuple(p for p in elb.indices if p in wanted)
    return LogicBase._from_indices(elb.n_symptoms, elb.n_diagnoses, kept)


# ---------------------------------------------------------------------------
# Diagnosis
# ---------------------------------------------------------------------------


class Presence(Enum):
    PRESENT = "present"
    ABSENT = "absent"
    UNCERTAIN = "uncertain"


# A disease's verdict by its bit in the group's AND (high) and OR (low);
# entry 2, set in the AND but clear in the OR, cannot occur.
_LEVELS = (Presence.ABSENT, Presence.UNCERTAIN, Presence.PRESENT, Presence.PRESENT)


@dataclass(frozen=True)
class Verdict:
    """Differential-diagnosis outcome for one observed symptom complex.

    ``diseases[k]`` is the trivalent verdict for disease ``k``. When the
    symptom complex matches nothing in the logic base, ``compatible`` is
    empty, ``diseases`` is empty and :attr:`consistent` is False; that is
    a reported outcome ("inconsistent with the knowledge base"), not an
    error.
    """

    symptoms: Complex
    compatible: tuple[Complex, ...]
    diseases: tuple[Presence, ...]

    @property
    def consistent(self) -> bool:
        return bool(self.compatible)


def diagnose(symptoms: Complex, logic_base: LogicBase) -> Verdict:
    """Look up the diagnosis complexes compatible with ``symptoms``.

    The lookup is one dict access into the base's per-symptom grouping
    of diagnosis indices. Disease ``k`` is bit ``n_diagnoses - 1 - k`` of
    a diagnosis index: present if it is set in the AND of the group,
    absent if it is clear in the OR, uncertain otherwise; the two bits
    index the level table ``_LEVELS``.
    """
    if len(symptoms.bits) != logic_base.n_symptoms:
        raise ValueError(
            f"symptom complex has {len(symptoms.bits)} attributes, "
            f"logic base has {logic_base.n_symptoms}"
        )
    group = logic_base._diagnoses_by_symptom.get(symptoms.index)
    if not group:
        return Verdict(symptoms, (), ())
    every, some = reduce(and_, group), reduce(or_, group)
    disease_bits = range(logic_base.n_diagnoses - 1, -1, -1)
    diseases = tuple([_LEVELS[every >> b << 1 & 2 | some >> b & 1] for b in disease_bits])
    compatible = tuple(map(logic_base._diagnosis_complexes.__getitem__, group))
    return Verdict(symptoms, compatible, diseases)
