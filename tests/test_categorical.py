"""Complex encoding, logic-base construction/reduction and diagnosis."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qrbs.categorical import (
    Complex,
    ConstraintRule,
    LogicBase,
    Presence,
    build_elb,
    complex_index,
    diagnose,
    index_to_complex,
    parse_constraints,
    reduce_to_rlb,
)
from qrbs.errors import DslSyntaxError, NetworkError
from qrbs.rules import And, Atom, Implies, Not, Or, evaluate_expr

# The worked two-symptom/two-diagnosis knowledge base used across tests:
#   C1: symptoms imply some diagnosis
#   C2: disease d2 requires symptom s1
#   C3: d1 without d2 requires s2
#   C4: d2 without d1 requires s2 absent
WORKED_CONSTRAINTS = (
    ConstraintRule(Implies(Or(Atom("s1"), Atom("s2")), Or(Atom("d1"), Atom("d2"))), "C1"),
    ConstraintRule(Implies(Atom("d2"), Atom("s1")), "C2"),
    ConstraintRule(Implies(And(Atom("d1"), Not(Atom("d2"))), Atom("s2")), "C3"),
    ConstraintRule(Implies(And(Not(Atom("d1")), Atom("d2")), Not(Atom("s2"))), "C4"),
)

WORKED_CONSTRAINT_TEXT = """\
symptoms: s1, s2
diagnoses: d1, d2
rule C1: any_symptom_implies_diagnosis
rule C2: d2 => s1
rule C3: d1 & !d2 => s2
rule C4: !d1 & d2 => !s2
"""

WORKED_RLB_LABELS = {"S0D0", "S1D2", "S2D1", "S2D3", "S3D2", "S3D3"}


def _pair_labels(base: LogicBase) -> set[str]:
    return set(base.labels())


class TestComplexEncoding:
    def test_first_attribute_is_most_significant(self):
        assert complex_index((1, 0, 0)) == 4

    def test_all_zero(self):
        assert complex_index((0, 0, 0)) == 0

    def test_mixed(self):
        assert complex_index((0, 1, 1)) == 3

    def test_full_three_attribute_table(self):
        # Column k of the 3-attribute table is just k in binary, MSB first.
        for k in range(8):
            expected = ((k >> 2) & 1, (k >> 1) & 1, k & 1)
            assert index_to_complex(k, 3).bits == expected
            assert complex_index(expected) == k

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            index_to_complex(8, 3)
        with pytest.raises(ValueError, match="out of range"):
            index_to_complex(-1, 3)

    @pytest.mark.parametrize("index, n", [(1.0, 3), (1, 3.0), (1, "3"), (None, 3)])
    def test_a_non_int_index_or_width_is_refused_like_out_of_range(self, index, n):
        with pytest.raises(ValueError, match="out of range"):
            index_to_complex(index, n)

    def test_bad_bits(self):
        with pytest.raises(ValueError):
            Complex((0, 2))
        with pytest.raises(ValueError):
            Complex(())

    @pytest.mark.parametrize(
        "bits", [(1.0, 0.0), (1, 0.0), (0, 1.0), (1, "1"), (1, None), (1, [0]), 5]
    )
    def test_non_integer_bits_are_refused(self, bits):
        # 1.0 == 1, so only the type tells these apart from valid bits
        with pytest.raises(ValueError, match="integers 0 or 1"):
            Complex(bits)
        with pytest.raises(ValueError, match="integers 0 or 1"):
            complex_index(bits)

    def test_bool_bits_still_pass(self):
        assert Complex((True, False)).index == complex_index([True, False]) == 2

    def test_label(self):
        assert index_to_complex(5, 3).label("S") == "S5"

    @given(st.integers(1, 8), st.data())
    def test_roundtrip(self, n, data):
        index = data.draw(st.integers(0, (1 << n) - 1))
        assert index_to_complex(index, n).index == index


class TestBuildElb:
    def test_two_by_two_has_sixteen_pairs(self):
        elb = build_elb(2, 2)
        assert len(elb) == 16

    def test_two_by_two_order_is_diagnosis_major(self):
        labels = build_elb(2, 2).labels()
        assert labels[:4] == ("S0D0", "S1D0", "S2D0", "S3D0")
        assert labels[4:8] == ("S0D1", "S1D1", "S2D1", "S3D1")
        assert labels[-1] == "S3D3"

    def test_minimal(self):
        elb = build_elb(1, 1)
        assert _pair_labels(elb) == {"S0D0", "S1D0", "S0D1", "S1D1"}

    def test_three_by_two(self):
        assert len(build_elb(3, 2)) == 32

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            build_elb(15, 6)

    def test_needs_positive_dimensions(self):
        with pytest.raises(ValueError):
            build_elb(0, 2)


class TestReduce:
    def test_worked_reduction(self):
        rlb = reduce_to_rlb(build_elb(2, 2), WORKED_CONSTRAINTS)
        assert _pair_labels(rlb) == WORKED_RLB_LABELS
        assert (index_to_complex(1, 2), index_to_complex(2, 2)) in rlb  # S1D2 kept
        assert (index_to_complex(1, 2), index_to_complex(1, 2)) not in rlb  # S1D1 dropped

    def test_worked_reduction_from_file_text(self):
        constraint_set = parse_constraints(WORKED_CONSTRAINT_TEXT)
        symptoms, diagnoses, rules = constraint_set.resolve()
        assert symptoms == ("s1", "s2")
        assert diagnoses == ("d1", "d2")
        rlb = reduce_to_rlb(build_elb(2, 2), rules, symptoms, diagnoses)
        assert _pair_labels(rlb) == WORKED_RLB_LABELS

    def test_no_constraints_keeps_everything(self):
        elb = build_elb(2, 2)
        assert reduce_to_rlb(elb, ()) == elb

    def test_contradictory_constraint_empties_the_base(self):
        contradiction = ConstraintRule(And(Atom("s1"), Not(Atom("s1"))))
        assert len(reduce_to_rlb(build_elb(2, 2), (contradiction,))) == 0

    def test_unknown_atom(self):
        with pytest.raises(NetworkError, match="unknown atom 's9'"):
            reduce_to_rlb(build_elb(2, 2), (ConstraintRule(Atom("s9")),))

    def test_custom_names(self):
        rlb = reduce_to_rlb(
            build_elb(1, 1),
            (ConstraintRule(Implies(Atom("fever"), Atom("flu"))),),
            symptom_names=("fever",),
            diagnosis_names=("flu",),
        )
        assert _pair_labels(rlb) == {"S0D0", "S0D1", "S1D1"}

    def test_preserves_elb_order(self):
        elb = build_elb(2, 2)
        rlb = reduce_to_rlb(elb, WORKED_CONSTRAINTS)
        positions = [elb.pairs.index(p) for p in rlb.pairs]
        assert positions == sorted(positions)


@settings(max_examples=100)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32))
def test_reduction_keeps_exactly_the_satisfying_pairs(ns, nd, seed):
    from conftest import random_expr

    rng = random.Random(seed)
    names = [f"s{i}" for i in range(1, ns + 1)] + [f"d{i}" for i in range(1, nd + 1)]
    constraints = tuple(
        ConstraintRule(random_expr(rng, names, rng.randint(0, 3), with_implies=True))
        for _ in range(rng.randint(0, 3))
    )
    elb = build_elb(ns, nd)
    rlb = reduce_to_rlb(elb, constraints)
    from qrbs.rules import evaluate_expr

    kept = set(rlb.pairs)
    for symptom, diagnosis in elb.pairs:
        env = dict(zip(names, symptom.bits + diagnosis.bits))
        satisfied = all(evaluate_expr(c.expr, env) for c in constraints)
        assert ((symptom, diagnosis) in kept) == satisfied


@settings(max_examples=100)
@given(st.integers(0, 2**32))
def test_adding_a_constraint_never_enlarges_the_base(seed):
    from conftest import random_expr

    rng = random.Random(seed)
    names = ["s1", "s2", "d1", "d2"]
    base_constraints = tuple(
        ConstraintRule(random_expr(rng, names, 2, with_implies=True))
        for _ in range(rng.randint(0, 2))
    )
    extra = ConstraintRule(random_expr(rng, names, 2, with_implies=True))
    elb = build_elb(2, 2)
    before = set(reduce_to_rlb(elb, base_constraints).pairs)
    after = set(reduce_to_rlb(elb, base_constraints + (extra,)).pairs)
    assert after <= before


class TestDiagnose:
    @pytest.fixture()
    def worked_rlb(self):
        return reduce_to_rlb(build_elb(2, 2), WORKED_CONSTRAINTS)

    def test_case_one_certain_positive_and_negative(self, worked_rlb):
        verdict = diagnose(index_to_complex(1, 2), worked_rlb)
        assert [d.label("D") for d in verdict.compatible] == ["D2"]
        assert verdict.diseases == (Presence.PRESENT, Presence.ABSENT)

    def test_case_two_evidence_for_and_against(self, worked_rlb):
        verdict = diagnose(index_to_complex(2, 2), worked_rlb)
        assert {d.label("D") for d in verdict.compatible} == {"D1", "D3"}
        assert verdict.diseases == (Presence.UNCERTAIN, Presence.PRESENT)

    def test_asymptomatic(self, worked_rlb):
        verdict = diagnose(index_to_complex(0, 2), worked_rlb)
        assert [d.label("D") for d in verdict.compatible] == ["D0"]
        assert verdict.diseases == (Presence.ABSENT, Presence.ABSENT)

    def test_inconsistent_case_is_an_outcome_not_an_error(self):
        # Keep only the asymptomatic pair, then present a symptom.
        only_s0 = ConstraintRule(And(Not(Atom("s1")), Not(Atom("s2"))))
        rlb = reduce_to_rlb(build_elb(2, 2), (only_s0,))
        verdict = diagnose(index_to_complex(3, 2), rlb)
        assert not verdict.consistent
        assert verdict.compatible == ()
        assert verdict.diseases == ()

    def test_dimension_mismatch(self, worked_rlb):
        with pytest.raises(ValueError, match="attributes"):
            diagnose(index_to_complex(0, 3), worked_rlb)

    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_unconstrained_base_leaves_every_disease_uncertain(self, ns, nd, data):
        elb = build_elb(ns, nd)
        observed = index_to_complex(data.draw(st.integers(0, (1 << ns) - 1)), ns)
        verdict = diagnose(observed, elb)
        assert verdict.diseases == (Presence.UNCERTAIN,) * nd

    @given(st.integers(0, 2**32))
    def test_trichotomy(self, seed):
        from conftest import random_expr

        rng = random.Random(seed)
        names = ["s1", "s2", "d1", "d2"]
        constraints = tuple(
            ConstraintRule(random_expr(rng, names, 2, with_implies=True))
            for _ in range(rng.randint(0, 2))
        )
        rlb = reduce_to_rlb(build_elb(2, 2), constraints)
        for s in range(4):
            verdict = diagnose(index_to_complex(s, 2), rlb)
            if verdict.consistent:
                assert len(verdict.diseases) == 2
                assert all(isinstance(d, Presence) for d in verdict.diseases)
            else:
                assert verdict.diseases == ()


def _scalar_verdict(symptoms: Complex, base: LogicBase) -> tuple[tuple, tuple]:
    """(compatible, diseases) by scanning every pair: the reference for ``diagnose``."""
    compatible = tuple(d for s, d in base.pairs if s == symptoms)
    diseases = []
    for k in range(base.n_diagnoses if compatible else 0):
        values = {d.bits[k] for d in compatible}
        if values == {1}:
            diseases.append(Presence.PRESENT)
        elif values == {0}:
            diseases.append(Presence.ABSENT)
        else:
            diseases.append(Presence.UNCERTAIN)
    return compatible, tuple(diseases)


def _assert_diagnoses_match(base: LogicBase, symptom_indices) -> None:
    for s in symptom_indices:
        observed = index_to_complex(s, base.n_symptoms)
        verdict = diagnose(observed, base)
        compatible, diseases = _scalar_verdict(observed, base)
        assert verdict.symptoms == observed
        assert verdict.compatible == compatible
        assert verdict.diseases == diseases
        assert verdict.consistent == bool(compatible)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32))
# the benchmark's 7+7 shape: groups of up to 128 diagnoses, and all three verdicts
@example(ns=7, nd=7, seed=3)
def test_diagnose_equals_the_scalar_scan(ns, nd, seed):
    from conftest import random_constraints

    rng = random.Random(seed)
    names = [f"s{i}" for i in range(1, ns + 1)] + [f"d{i}" for i in range(1, nd + 1)]
    constraints = random_constraints(rng, names, rng.randint(0, 3))
    elb = build_elb(ns, nd)
    rlb = reduce_to_rlb(elb, constraints)
    pairs = list(elb.pairs)
    rng.shuffle(pairs)
    thinned = LogicBase(ns, nd, pairs[: rng.randint(0, len(pairs))])
    pairs = list(rlb.pairs)
    rng.shuffle(pairs)
    thinned_rlb = LogicBase(ns, nd, pairs[: rng.randint(0, len(pairs))])
    for base in (elb, rlb, thinned, thinned_rlb, reduce_to_rlb(thinned, constraints)):
        _assert_diagnoses_match(base, range(1 << ns))


def test_twenty_attributes():
    from conftest import random_constraints

    ns = nd = 10
    elb = build_elb(ns, nd)
    assert len(elb) == 1 << 20
    rng = random.Random(20)
    names = [f"s{i}" for i in range(1, ns + 1)] + [f"d{i}" for i in range(1, nd + 1)]
    _, _, any_symptom = parse_constraints("rule: any_symptom_implies_diagnosis\n").resolve(ns, nd)
    constraints = any_symptom + random_constraints(rng, names, 2)
    rlb = reduce_to_rlb(elb, constraints)
    assert 0 < len(rlb) < len(elb)
    labels = set(rlb.labels())
    for _ in range(256):
        s, d = rng.randrange(1 << ns), rng.randrange(1 << nd)
        bits = index_to_complex(s, ns).bits + index_to_complex(d, nd).bits
        satisfied = all(evaluate_expr(c.expr, dict(zip(names, bits))) for c in constraints)
        assert (f"S{s}D{d}" in labels) == satisfied
    _assert_diagnoses_match(rlb, [rng.randrange(1 << ns) for _ in range(8)])


class TestConstraintParsing:
    def test_declarations(self):
        cs = parse_constraints("symptoms: fever, cough\ndiagnoses: flu\n")
        assert cs.symptoms == ("fever", "cough")
        assert cs.diagnoses == ("flu",)

    def test_duplicate_declaration(self):
        with pytest.raises(DslSyntaxError, match="duplicate symptoms"):
            parse_constraints("symptoms: a\nsymptoms: b\n")

    def test_duplicate_name_within_declaration(self):
        with pytest.raises(NetworkError, match="duplicate name"):
            parse_constraints("symptoms: a, a\n")

    def test_shorthand_expands_against_declarations(self):
        cs = parse_constraints(WORKED_CONSTRAINT_TEXT)
        _, _, rules = cs.resolve()
        assert rules[0].expr == Implies(
            Or(Atom("s1"), Atom("s2")), Or(Atom("d1"), Atom("d2"))
        )

    def test_shorthand_without_names_needs_counts(self):
        cs = parse_constraints("rule: any_symptom_implies_diagnosis\n")
        with pytest.raises(NetworkError, match="not declared"):
            cs.resolve()
        symptoms, diagnoses, rules = cs.resolve(2, 1)
        assert symptoms == ("s1", "s2")
        assert rules[0].expr == Implies(Or(Atom("s1"), Atom("s2")), Atom("d1"))

    def test_count_must_match_declaration(self):
        cs = parse_constraints("symptoms: a, b\ndiagnoses: d\n")
        with pytest.raises(NetworkError, match="declares 2 symptoms"):
            cs.resolve(3, 1)

    def test_rule_arrow_is_rejected(self):
        with pytest.raises(DslSyntaxError):
            parse_constraints("rule: a -> b\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("symptoms: s1\nrule C1: s1 =>  %d1", "unexpected character '%' (line 2, column 17)"),
            ("symptoms: s1 s2", "expected ',', got 's2' (line 1, column 14)"),
            ("symptoms: s1,", "expected a fact name (line 1)"),
            (
                "symptoms: s1\ndiagnoses: d1,,d2",
                "expected a fact name, got ',' (line 2, column 15)",
            ),
            ("rule C1: s1 => d1 )", "unexpected trailing input, got ')' (line 1, column 19)"),
            # a line starts with 'rule' or a declaration keyword of this file kind
            (
                "symptoms: s1\n  => d1",
                "expected 'rule', 'symptoms' or 'diagnoses' (line 2, column 3)",
            ),
            (
                "symptoms: s1\noutputs: X",
                "expected 'rule', 'symptoms' or 'diagnoses', got 'outputs' (line 2, column 1)",
            ),
            ("diagnoses: d1\ndiagnoses: d2", "duplicate diagnoses declaration (line 2, column 1)"),
            # each '=>' counts one level
            (
                "rule C1: " + " => ".join(["a"] * 102),
                "expression nested deeper than 100 levels (line 1, column 512)",
            ),
        ],
    )
    def test_syntax_error_message_and_position(self, text, message):
        with pytest.raises(DslSyntaxError) as info:
            parse_constraints(text)
        assert str(info.value) == message

    def test_implication_precedence(self):
        cs = parse_constraints("rule: d1 & !d2 => s2\n")
        assert cs.entries[0][1] == Implies(And(Atom("d1"), Not(Atom("d2"))), Atom("s2"))

    def test_empty_text_gives_empty_constraint_set(self):
        cs = parse_constraints("")
        assert cs.entries == ()
