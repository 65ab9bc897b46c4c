"""The benchmark workloads: seeded inputs, one op each, answer checks.

Every workload is a closed loop with one client. ``setup`` is what a user
pays before the first op (it imports the library); ``inputs`` draws the
seeded inputs of one round (not timed); the loop runs the round again and
again, each time through ``variant``, which gives an input fresh names
where the library could otherwise recognise a repeat; ``op`` is one timed
operation; ``check`` compares an op's output with an expected answer that
this file freezes or computes itself, outside the timed region.

Op calls into the library go through ``call(name, fn, *args)`` so that
the traced run can record one span per public call.

Reference answers are independent of the code under test: the staging
table is frozen here, and rule and constraint files are drawn as small
expression trees that ``reference_eval`` evaluates without the library.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass, replace
from types import SimpleNamespace

# ---------------------------------------------------------------------------
# Frozen expected answers
# ---------------------------------------------------------------------------

# Canonical TNM class -> (activated input qubit, printed output bits, stages).
# Any other class, such as OUT_OF_VOCABULARY, must raise VocabularyError.
STAGING_TABLE: dict[str, tuple[int, str, frozenset[str]]] = {
    "T0 N1 M0": (0, "00000110", frozenset({"I-B", "II-A"})),
    "T0 N2 M0": (1, "00010000", frozenset({"III-A"})),
    "T1 N0 M0": (2, "00000001", frozenset({"I-A"})),
    "T1 N1 M0": (3, "00000110", frozenset({"I-B", "II-A"})),
    "T1 N2 M0": (4, "00010000", frozenset({"III-A"})),
    "T2 N0 M0": (5, "00010100", frozenset({"II-A", "III-A"})),
    "T2 N1 M0": (6, "00001000", frozenset({"II-B"})),
    "T3 N0 M0": (7, "00001000", frozenset({"II-B"})),
    "T3 N1 M0": (8, "00010000", frozenset({"III-A"})),
    "T3 N2 M0": (9, "00010000", frozenset({"III-A"})),
    "T4 N0 M0": (10, "00100000", frozenset({"III-B"})),
    "T4 N1 M0": (11, "00100000", frozenset({"III-B"})),
    "T4 N2 M0": (12, "00100000", frozenset({"III-B"})),
    "TX N3 M0": (13, "01000000", frozenset({"III-C"})),
    "TX NY M1": (14, "10000000", frozenset({"IV"})),
}

OUT_OF_VOCABULARY = "T0 N0 M0"
STAGE_FAST_ROUND = 64

# The worked 2+2 reduction, with its reduced base and two diagnosed cases.
WORKED_CONSTRAINTS = """\
symptoms: s1, s2
diagnoses: d1, d2
rule C1: any_symptom_implies_diagnosis
rule C2: d2 => s1
rule C3: d1 & !d2 => s2
rule C4: !d1 & d2 => !s2
"""
WORKED_RLB_LABELS = frozenset({"S0D0", "S1D2", "S2D1", "S2D3", "S3D2", "S3D3"})
# symptom complex index -> per-disease verdict values
WORKED_CASES = {1: ("present", "absent"), 2: ("uncertain", "present")}

# ---------------------------------------------------------------------------
# Expression trees: ("atom", name) | ("not", t) | (op, left, right)
# with op in "and", "or", "implies"
# ---------------------------------------------------------------------------

_SYMBOL = {"and": "&", "or": "|", "implies": "=>"}


def reference_eval(tree: tuple, values: dict[str, int]) -> int:
    """Evaluate an expression tree to 0 or 1; the benchmark's own oracle."""
    kind = tree[0]
    if kind == "atom":
        return values[tree[1]]
    if kind == "not":
        return 1 - reference_eval(tree[1], values)
    left = reference_eval(tree[1], values)
    right = reference_eval(tree[2], values)
    if kind == "and":
        return left & right
    if kind == "or":
        return left | right
    return (1 - left) | right


def render(tree: tuple) -> str:
    """DSL text for a tree; every compound operand is parenthesised."""
    kind = tree[0]
    if kind == "atom":
        return tree[1]
    if kind == "not":
        return "!" + _operand(tree[1])
    return f"{_operand(tree[1])} {_SYMBOL[kind]} {_operand(tree[2])}"


def _operand(tree: tuple) -> str:
    return render(tree) if tree[0] in ("atom", "not") else f"({render(tree)})"


def _literal(rng: random.Random, names: list[str]) -> tuple:
    atom = ("atom", rng.choice(names))
    return ("not", atom) if rng.random() < 0.25 else atom


def _renamed(tree: tuple, prefix: str) -> tuple:
    if tree[0] == "atom":
        return ("atom", prefix + tree[1])
    return (tree[0], *(_renamed(child, prefix) for child in tree[1:]))


def _disjunction(names: list[str]) -> tuple:
    tree = ("atom", names[0])
    for name in names[1:]:
        tree = ("or", tree, ("atom", name))
    return tree


# ---------------------------------------------------------------------------
# Workload plumbing
# ---------------------------------------------------------------------------


def _import_library() -> SimpleNamespace:
    modules = ("categorical", "circuit", "compiler", "errors", "idc", "rules", "simulator")
    return SimpleNamespace(
        **{name: importlib.import_module(f"qrbs.{name}") for name in modules}
    )


def _unitary_gates(circuit) -> int:
    return sum(1 for gate in circuit.gates if type(gate).__name__ != "Measure")


class Workload:
    """Defaults: whole rounds, inputs reused as they are, no per-run check."""

    name = ""
    whole_rounds = True  # the loop stops only at the end of a round

    def __init__(self, smoke: bool = False):
        self.smoke = smoke

    def variant(self, item, round_index: int):
        """``item`` as it is submitted in round ``round_index``."""
        return item

    def final_check(self, lib) -> bool:
        """A check made once per run, outside the timed region."""
        return True


# ---------------------------------------------------------------------------
# stage-fast, stage-dense
# ---------------------------------------------------------------------------

_T_SIZES = {"T1": (0.5, 20.0), "T2": (20.0, 50.0), "T3": (50.0, 150.0)}


def _findings_fields(rng: random.Random, key: str) -> dict:
    """Raw findings that classify to the canonical TNM class ``key``."""
    t, n, m = key.split()
    if t == "TX":
        t = rng.choice(("T0", "T1", "T2", "T3", "T4"))
    if n == "NY":
        n = rng.choice(("N0", "N1", "N2", "N3"))
    fields: dict = {"distant_metastasis": m == "M1"}
    if t == "T0":
        fields["tumour_size_mm"] = rng.choice((None, 0.0))
    elif t == "T4":
        fields["chest_wall_or_skin_spread"] = True
        fields["tumour_size_mm"] = rng.choice((None, round(rng.uniform(1, 120), 1)))
    else:
        low, high = _T_SIZES[t]
        # "up to" is inclusive, so the upper boundary belongs to the class
        size = round(rng.uniform(low + 0.1, high), 1)
        fields["tumour_size_mm"] = high if rng.random() < 0.1 else size
    if n == "N1":
        if rng.random() < 0.3:
            fields["internal_mammary_nodes"] = True
        else:
            fields["axillary_nodes_involved"] = rng.randint(1, 3)
    elif n == "N2":
        fields["axillary_nodes_involved"] = rng.randint(4, 9)
        fields["internal_mammary_nodes"] = rng.random() < 0.3
    elif n == "N3":
        if rng.random() < 0.5:
            fields["axillary_nodes_involved"] = rng.randint(10, 30)
        else:
            fields["supra_or_infraclavicular_nodes"] = True
            fields["axillary_nodes_involved"] = rng.randint(0, 9)
    if n != "N0" and rng.random() < 0.3:
        fields["node_cluster_mm"] = round(rng.uniform(0.1, 2.0), 2)
    return fields


class StageFast(Workload):
    """Findings -> TNM -> fast-engine staging on the default (shared) circuit."""

    name = "stage-fast"
    engine = "fast"

    def setup(self):
        lib = _import_library()
        lib.compiled = lib.idc.build_idc_circuit()
        return lib

    def inputs(self, rng: random.Random, lib) -> list:
        """STAGE_FAST_ROUND patients; about one in ten is T0 N0 M0, outside the vocabulary."""
        keys = list(STAGING_TABLE)
        items = []
        for _ in range(STAGE_FAST_ROUND):
            key = OUT_OF_VOCABULARY if rng.random() < 0.1 else rng.choice(keys)
            items.append((lib.idc.ClinicalFindings(**_findings_fields(rng, key)), key))
        return items

    def op(self, lib, item, call):
        tnm = call("idc.classify_tnm", lib.idc.classify_tnm, item[0])
        try:
            staged = call("idc.stage", lib.idc.stage, tnm, self.engine, lib.compiled)
        except lib.errors.VocabularyError:
            return str(tnm), None
        # keep only what the check reads, so a dense state is freed before the next op
        names = frozenset(staged.stages.names())
        return str(tnm), (staged.activated_qubit, staged.result.bitstring, names)

    def check(self, lib, item, output) -> tuple[bool, dict]:
        """The TNM class was drawn first, so the frozen table gives the answer."""
        return output == (item[1], STAGING_TABLE.get(item[1])), {}


class StageDense(StageFast):
    """Findings -> TNM -> dense-engine staging on the 25-qubit unshared circuit."""

    name = "stage-dense"
    engine = "statevector"
    whole_rounds = False  # a round of fifteen 5-second ops is longer than a run

    def setup(self):
        lib = _import_library()
        options = lib.compiler.CompileOptions(share_subexpressions=False, ancilla_budget=10)
        lib.compiled = lib.idc.build_idc_circuit(options)
        return lib

    def inputs(self, rng: random.Random, lib) -> list:
        """The fifteen reference rows in seeded order."""
        keys = list(STAGING_TABLE)
        rng.shuffle(keys)
        return [(lib.idc.ClinicalFindings(**_findings_fields(rng, key)), key) for key in keys]


# ---------------------------------------------------------------------------
# compile-verify
# ---------------------------------------------------------------------------

# (inputs, rules) of the files of one round; the seed draws the rules. One
# size for all, so every op costs about the same and a run's median latency
# is the median of one distribution, not a point between two sizes.
COMPILE_SCHEDULE = ((10, 30),) * 4
COMPILE_SCHEDULE_SMOKE = ((4, 5), (5, 8), (3, 6))
COMPILE_SAMPLE = 24


def _rule_text(rules, outputs) -> str:
    lines = [f"rule r{k}: {render(tree)} -> {c}" for k, (c, tree) in enumerate(rules)]
    lines.append("outputs: " + ", ".join(outputs))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RuleFile:
    text: str
    inputs: tuple[str, ...]
    rules: tuple[tuple[str, tuple], ...]  # (consequent, tree) in dependency order
    outputs: tuple[str, ...]
    sample: tuple[int, ...]  # input words to re-check, bit j = inputs[j]
    share: bool  # compile with shared subexpressions

    def reference(self, word: int) -> dict[str, int]:
        values = {fact: word >> j & 1 for j, fact in enumerate(self.inputs)}
        for consequent, tree in self.rules:
            values[consequent] = reference_eval(tree, values)
        return values

    def renamed(self, prefix: str) -> RuleFile:
        """The same file with ``prefix`` put before every fact name."""
        rules = tuple((prefix + c, _renamed(tree, prefix)) for c, tree in self.rules)
        outputs = tuple(prefix + o for o in self.outputs)
        inputs = tuple(prefix + i for i in self.inputs)
        return replace(self, text=_rule_text(rules, outputs), inputs=inputs, rules=rules, outputs=outputs)


def random_rule_file(rng: random.Random, n_inputs: int, n_rules: int, share: bool) -> RuleFile:
    inputs = [f"i{k}" for k in range(n_inputs)]
    available = list(inputs)
    rules = []
    used: set[str] = set()
    for r in range(n_rules):
        # three literals per rule, so files of one size cost about the same;
        # rule r < n_inputs names input r, so the network has exactly n_inputs
        first = ("atom", inputs[r]) if r < n_inputs else _literal(rng, available)
        pair = (rng.choice(("and", "or")), first, _literal(rng, available))
        tree = (rng.choice(("and", "or")), pair, _literal(rng, available))
        consequent = f"f{r}"
        rules.append((consequent, tree))
        used.update(_atoms(tree))
        available.append(consequent)
    outputs = tuple(c for c, _ in rules if c not in used)
    sample = tuple(rng.randrange(1 << n_inputs) for _ in range(COMPILE_SAMPLE))
    return RuleFile(_rule_text(rules, outputs), tuple(inputs), tuple(rules), outputs, sample, share)


def _atoms(tree: tuple) -> set[str]:
    if tree[0] == "atom":
        return {tree[1]}
    return set().union(*(_atoms(child) for child in tree[1:]))


class CompileVerify(Workload):
    """DSL text -> parse -> compile -> QASM round trip -> exhaustive verify."""

    name = "compile-verify"

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        self.schedule = COMPILE_SCHEDULE_SMOKE if smoke else COMPILE_SCHEDULE

    def setup(self):
        return _import_library()

    def inputs(self, rng: random.Random, lib) -> list:
        """One file per schedule entry; sharing alternates on and off."""
        return [random_rule_file(rng, *size, k % 2 == 0) for k, size in enumerate(self.schedule)]

    def variant(self, item: RuleFile, round_index: int) -> RuleFile:
        return item.renamed(f"r{round_index}_")

    def op(self, lib, item, call):
        network = call("rules.parse_rules", lib.rules.parse_rules, item.text)
        options = lib.compiler.CompileOptions(share_subexpressions=item.share)
        compiled = call("compiler.compile_network", lib.compiler.compile_network, network, options)
        qasm = call("circuit.export_qasm", lib.circuit.export_qasm, compiled.circuit)
        imported = call("circuit.import_qasm", lib.circuit.import_qasm, qasm)
        report = call(
            "compiler.verify_compilation", lib.compiler.verify_compilation, network, compiled
        )
        return network, compiled, imported, report

    def check(self, lib, item: RuleFile, output) -> tuple[bool, dict]:
        network, compiled, imported, report = output
        ok = (
            set(network.input_facts) == set(item.inputs)
            and network.outputs == item.outputs
            and imported == compiled.circuit
            and report.ok
            and report.assignments_checked == 1 << len(item.inputs)
        )
        for word in item.sample:
            if not ok:
                break
            expected = item.reference(word)
            assignment = {fact: expected[fact] for fact in item.inputs}
            evaluated = lib.rules.evaluate_network(network, assignment)
            initial = sum(bit << compiled.input_map[f] for f, bit in assignment.items())
            bits = lib.simulator.run(compiled.circuit, initial, "fast").bits
            ok = all(
                evaluated[fact] == expected[fact] and bits[clbit] == expected[fact]
                for fact, (_, clbit) in compiled.output_map.items()
            )
        counts = {
            "compiler.gates_emitted": _unitary_gates(compiled.circuit),
            "compiler.ancillae": compiled.ancilla_count,
            "compiler.assignments_checked": report.assignments_checked,
        }
        return ok, counts


# ---------------------------------------------------------------------------
# diagnose-rlb
# ---------------------------------------------------------------------------

# symptoms = diagnoses of the files of one round; one size, as for
# COMPILE_SCHEDULE.
DIAGNOSE_SCHEDULE = (7, 7, 7, 7)
DIAGNOSE_SCHEDULE_SMOKE = (2, 3)
DIAGNOSE_CONSTRAINTS = 6
DIAGNOSE_ROWS = 4
DIAGNOSE_PAIRS = 64
ANY_SYMPTOM = "any_symptom_implies_diagnosis"


def _constraint_text(symptoms, diagnoses, trees) -> str:
    """The file; ``trees[0]`` is the ANY_SYMPTOM constraint, named rather than written out."""
    lines = [f"symptoms: {', '.join(symptoms)}", f"diagnoses: {', '.join(diagnoses)}"]
    lines.append(f"rule C0: {ANY_SYMPTOM}")
    lines.extend(f"rule C{k}: {render(tree)}" for k, tree in enumerate(trees[1:], 1))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ConstraintFile:
    text: str
    symptoms: tuple[str, ...]
    diagnoses: tuple[str, ...]
    trees: tuple[tuple, ...]
    rows: tuple[int, ...]  # symptom complexes whose verdicts are re-checked
    pairs: tuple[tuple[int, int], ...]  # (symptom, diagnosis) complexes re-checked

    def bits(self, index: int, n: int) -> tuple[int, ...]:
        """Complex bits, first attribute most significant."""
        return tuple(index >> (n - 1 - k) & 1 for k in range(n))

    def satisfied(self, s: int, d: int) -> bool:
        values = dict(zip(self.symptoms, self.bits(s, len(self.symptoms))))
        values.update(zip(self.diagnoses, self.bits(d, len(self.diagnoses))))
        return all(reference_eval(tree, values) for tree in self.trees)

    def renamed(self, prefix: str) -> ConstraintFile:
        """The same file with ``prefix`` put before every attribute name."""
        symptoms = tuple(prefix + a for a in self.symptoms)
        diagnoses = tuple(prefix + a for a in self.diagnoses)
        trees = tuple(_renamed(tree, prefix) for tree in self.trees)
        text = _constraint_text(symptoms, diagnoses, trees)
        return replace(self, text=text, symptoms=symptoms, diagnoses=diagnoses, trees=trees)


def random_constraint_file(rng: random.Random, n: int) -> ConstraintFile:
    symptoms = [f"s{k}" for k in range(1, n + 1)]
    diagnoses = [f"d{k}" for k in range(1, n + 1)]
    trees = [("implies", _disjunction(symptoms), _disjunction(diagnoses))]
    # Each constraint links one symptom and one diagnosis that no other
    # constraint names, so each cuts a quarter of the pairs independently:
    # every file of one size keeps about as many pairs, and costs about the same.
    count = min(DIAGNOSE_CONSTRAINTS, n)
    for k, (s, d) in enumerate(zip(rng.sample(symptoms, count), rng.sample(diagnoses, count)), 1):
        cause, effect = _literal(rng, [d]), _literal(rng, [s])
        if k % 2 == 0:  # a symptom implies a disease, else a disease implies a symptom
            cause, effect = effect, cause
        trees.append(("implies", cause, effect))
    rows = tuple(rng.randrange(1 << n) for _ in range(DIAGNOSE_ROWS))
    pairs = tuple((rng.randrange(1 << n), rng.randrange(1 << n)) for _ in range(DIAGNOSE_PAIRS))
    text = _constraint_text(symptoms, diagnoses, trees)
    return ConstraintFile(text, tuple(symptoms), tuple(diagnoses), tuple(trees), rows, pairs)


def _presence(compatible: list[tuple[int, ...]], n: int) -> tuple[str, ...]:
    verdicts = []
    for k in range(n):
        values = {bits[k] for bits in compatible}
        verdicts.append("present" if values == {1} else "absent" if values == {0} else "uncertain")
    return tuple(verdicts)


class DiagnoseRlb(Workload):
    """Constraint text -> ELB -> RLB -> a diagnosis for every symptom complex."""

    name = "diagnose-rlb"

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        self.schedule = DIAGNOSE_SCHEDULE_SMOKE if smoke else DIAGNOSE_SCHEDULE

    def setup(self):
        return _import_library()

    def inputs(self, rng: random.Random, lib) -> list:
        return [random_constraint_file(rng, n) for n in self.schedule]

    def variant(self, item: ConstraintFile, round_index: int) -> ConstraintFile:
        return item.renamed(f"r{round_index}_")

    def op(self, lib, item, call):
        cat = lib.categorical
        constraint_set = call("categorical.parse_constraints", cat.parse_constraints, item.text)
        symptoms, diagnoses, constraints = constraint_set.resolve()
        elb = call("categorical.build_elb", cat.build_elb, len(symptoms), len(diagnoses))
        rlb = call("categorical.reduce_to_rlb", cat.reduce_to_rlb, elb, constraints, symptoms, diagnoses)
        verdicts = [
            call("categorical.diagnose", cat.diagnose, cat.index_to_complex(s, len(symptoms)), rlb)
            for s in range(1 << len(symptoms))
        ]
        return elb, rlb, verdicts

    def check(self, lib, item: ConstraintFile, output) -> tuple[bool, dict]:
        elb, rlb, verdicts = output
        ns, nd = len(item.symptoms), len(item.diagnoses)
        ok = len(elb) == 1 << (ns + nd) and len(verdicts) == 1 << ns
        for s in item.rows:
            if not ok:
                break
            compatible = [item.bits(d, nd) for d in range(1 << nd) if item.satisfied(s, d)]
            verdict = verdicts[s]
            ok = (
                verdict.symptoms.bits == item.bits(s, ns)
                and [c.bits for c in verdict.compatible] == compatible
                and tuple(p.value for p in verdict.diseases)
                == (_presence(compatible, nd) if compatible else ())
            )
        if ok:
            kept = {(sc.bits, dc.bits) for sc, dc in rlb.pairs}
            ok = all(
                ((item.bits(s, ns), item.bits(d, nd)) in kept) == item.satisfied(s, d)
                for s, d in item.pairs
            )
        counts = {"categorical.pairs_in": len(elb), "categorical.pairs_kept": len(rlb)}
        return ok, counts

    def final_check(self, lib) -> bool:
        """The worked 2+2 example, matched exactly."""
        cat = lib.categorical
        symptoms, diagnoses, constraints = cat.parse_constraints(WORKED_CONSTRAINTS).resolve()
        rlb = cat.reduce_to_rlb(cat.build_elb(2, 2), constraints, symptoms, diagnoses)
        if frozenset(rlb.labels()) != WORKED_RLB_LABELS or len(rlb) != len(WORKED_RLB_LABELS):
            return False
        for index, expected in WORKED_CASES.items():
            verdict = cat.diagnose(cat.index_to_complex(index, 2), rlb)
            if tuple(p.value for p in verdict.diseases) != expected:
                return False
        return True


WORKLOADS = {w.name: w for w in (StageFast, StageDense, CompileVerify, DiagnoseRlb)}
