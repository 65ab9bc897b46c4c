"""TNM staging of invasive ductal carcinoma on the reversible-rule stack.

The clinical knowledge lives in three fixed tables: the fifteen relevant
TNM complexes (one input qubit each, q0..q14), one disjunctive rule per
stage naming the complexes compatible with it, and the output-bit order
of the eight stages (c0 = I-A .. c7 = IV). ``classify_tnm`` reduces raw
findings to a TNM class, ``stage`` runs the compiled circuit from the
basis state with the matching input qubit set and decodes the bit string
into the set of compatible stages.

A patient is in exactly one TNM state, so exactly one input qubit may be
activated per run; anything else is rejected before simulation.

The staging tables are a modelling aid for the inference machinery, not
medical advice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .compiler import CompiledCircuit, CompileOptions, compile_network
from .errors import OneHotError, VocabularyError
from .rules import Atom, Or, Rule, RuleNetwork
from .simulator import RunResult, run

__all__ = [
    "STAGES",
    "INPUT_COMPLEXES",
    "STAGE_RULES",
    "REFERENCE_STAGING",
    "ClinicalFindings",
    "ReferenceRow",
    "StageSet",
    "StagingResult",
    "TnmClass",
    "build_idc_circuit",
    "build_idc_network",
    "classify_tnm",
    "decode_stages",
    "run_activation",
    "stage",
    "tnm_to_input_qubit",
    "verify_reference_table",
]

T_CATEGORIES = ("T0", "T1", "T2", "T3", "T4", "TX")
N_CATEGORIES = ("N0", "N1", "N2", "N3", "NY")
M_CATEGORIES = ("M0", "M1")

# Output stages in classical-bit order: bit k of the result is STAGES[k].
STAGES = ("I-A", "I-B", "II-A", "II-B", "III-A", "III-B", "III-C", "IV")


@dataclass(frozen=True)
class TnmClass:
    """A tumour/node/metastasis classification.

    TX ("any T") is only meaningful for the N3 M0 and M1 presentations;
    NY ("any N") only for M1. Other combinations spell out their T and N.
    """

    t: str
    n: str
    m: str

    def __post_init__(self) -> None:
        if self.t not in T_CATEGORIES:
            raise ValueError(f"bad T category {self.t!r}; expected one of {T_CATEGORIES}")
        if self.n not in N_CATEGORIES:
            raise ValueError(f"bad N category {self.n!r}; expected one of {N_CATEGORIES}")
        if self.m not in M_CATEGORIES:
            raise ValueError(f"bad M category {self.m!r}; expected one of {M_CATEGORIES}")
        if self.t == "TX" and not (self.m == "M1" or (self.n == "N3" and self.m == "M0")):
            raise ValueError("TX is only valid with N3 M0 or with M1")
        if self.n == "NY" and self.m != "M1":
            raise ValueError("NY is only valid with M1")

    @classmethod
    def parse(cls, text: str) -> "TnmClass":
        parts = [p for p in text.replace(",", " ").split() if p]
        if len(parts) != 3:
            raise ValueError(f"expected three TNM tokens like 'T2,N1,M0', got {text!r}")
        return cls(*parts)

    def canonical(self) -> "TnmClass":
        """Collapse to the fifteen-complex input vocabulary.

        Any metastatic presentation becomes TX NY M1; any N3 M0
        presentation becomes TX N3 M0 (a single input qubit covers each).
        """
        if self.m == "M1":
            return TnmClass("TX", "NY", "M1")
        if self.n == "N3":
            return TnmClass("TX", "N3", "M0")
        return self

    def __str__(self) -> str:
        return f"{self.t} {self.n} {self.m}"


# The fifteen relevant TNM complexes, in input-qubit order q0..q14.
INPUT_COMPLEXES: tuple[TnmClass, ...] = (
    TnmClass("T0", "N1", "M0"),
    TnmClass("T0", "N2", "M0"),
    TnmClass("T1", "N0", "M0"),
    TnmClass("T1", "N1", "M0"),
    TnmClass("T1", "N2", "M0"),
    TnmClass("T2", "N0", "M0"),
    TnmClass("T2", "N1", "M0"),
    TnmClass("T3", "N0", "M0"),
    TnmClass("T3", "N1", "M0"),
    TnmClass("T3", "N2", "M0"),
    TnmClass("T4", "N0", "M0"),
    TnmClass("T4", "N1", "M0"),
    TnmClass("T4", "N2", "M0"),
    TnmClass("TX", "N3", "M0"),
    TnmClass("TX", "NY", "M1"),
)

# Stage compatibility: input-qubit indices whose complexes map to each stage.
STAGE_RULES: dict[str, tuple[int, ...]] = {
    "I-A": (2,),
    "I-B": (0, 3),
    "II-A": (0, 3, 5),
    "II-B": (6, 7),
    "III-A": (1, 4, 5, 8, 9),
    "III-B": (10, 11, 12),
    "III-C": (13,),
    "IV": (14,),
}

_QUBIT_BY_TNM = {tnm: qubit for qubit, tnm in enumerate(INPUT_COMPLEXES)}


def tnm_to_input_qubit(tnm: TnmClass) -> int:
    """The input qubit encoding ``tnm``; raises for classes outside the vocabulary."""
    try:
        return _QUBIT_BY_TNM[tnm]
    except KeyError:
        raise VocabularyError(f"no relevant complex for {tnm}") from None


# ---------------------------------------------------------------------------
# Findings -> TNM
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClinicalFindings:
    """Raw examination findings feeding TNM classification.

    Sizes are finite non-negative numbers or ``None``, the node count is
    a non-negative ``int`` and the flags are ``bool`` (a ``bool`` is
    neither a size nor a count); anything else raises ``ValueError``
    naming the field. ``node_cluster_mm`` (small node cell clusters)
    must come with some nodal finding; it is carried for the record but
    cannot change the classification, whose node vocabulary only counts
    involved nodes.
    """

    tumour_size_mm: float | None = None
    chest_wall_or_skin_spread: bool = False
    axillary_nodes_involved: int = 0
    node_cluster_mm: float | None = None
    supra_or_infraclavicular_nodes: bool = False
    internal_mammary_nodes: bool = False
    distant_metastasis: bool = False

    def __post_init__(self) -> None:
        for name in ("tumour_size_mm", "node_cluster_mm"):
            size = getattr(self, name)
            if size is not None and not (
                isinstance(size, (int, float))
                and not isinstance(size, bool)
                and 0 <= size < math.inf
            ):
                raise ValueError(f"{name} must be a finite non-negative number, got {size!r}")
        nodes = self.axillary_nodes_involved
        if not (isinstance(nodes, int) and not isinstance(nodes, bool) and nodes >= 0):
            raise ValueError(
                f"axillary_nodes_involved must be a non-negative whole number, got {nodes!r}"
            )
        for name in (
            "chest_wall_or_skin_spread",
            "supra_or_infraclavicular_nodes",
            "internal_mammary_nodes",
            "distant_metastasis",
        ):
            flag = getattr(self, name)
            if not isinstance(flag, bool):
                raise ValueError(f"{name} must be true or false, got {flag!r}")
        if self.node_cluster_mm is not None and not self._has_nodal_finding():
            raise ValueError("node_cluster_mm given without any nodal finding")

    def _has_nodal_finding(self) -> bool:
        return bool(
            self.axillary_nodes_involved
            or self.supra_or_infraclavicular_nodes
            or self.internal_mammary_nodes
        )

    @classmethod
    def from_dict(cls, data: Mapping) -> "ClinicalFindings":
        if not isinstance(data, Mapping):
            raise ValueError(f"findings must be a mapping of fields, got {type(data).__name__}")
        fields = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - fields
        if unknown:
            raise ValueError(f"unknown findings field {sorted(unknown)[0]!r}")
        return cls(**data)


def classify_tnm(findings: ClinicalFindings) -> TnmClass:
    """Classify findings into the fifteen-complex TNM vocabulary.

    Tumour: no measurable tumour is T0; up to 20 mm T1; over 20 up to
    50 mm T2; over 50 mm T3; chest-wall or skin spread is T4 regardless
    of size. Nodes: none N0; 1-3 axillary or any internal mammary N1;
    4-9 axillary N2; 10+ axillary or supra-/infraclavicular N3.
    Metastasis: M1 when distant spread is present. Boundary sizes fall
    in the smaller category ("up to" is inclusive).
    """
    if findings.chest_wall_or_skin_spread:
        t = "T4"
    else:
        size = findings.tumour_size_mm
        if size is None or size == 0:
            t = "T0"
        elif size <= 20:
            t = "T1"
        elif size <= 50:
            t = "T2"
        else:
            t = "T3"

    axillary = findings.axillary_nodes_involved
    if findings.supra_or_infraclavicular_nodes or axillary >= 10:
        n = "N3"
    elif axillary >= 4:
        n = "N2"
    elif axillary >= 1 or findings.internal_mammary_nodes:
        n = "N1"
    else:
        n = "N0"

    m = "M1" if findings.distant_metastasis else "M0"
    return TnmClass(t, n, m).canonical()


# ---------------------------------------------------------------------------
# Stage sets and decoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageSet:
    """A set of compatible stages, held as an 8-bit mask (bit k = STAGES[k])."""

    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask < 1 << len(STAGES):
            raise ValueError(f"stage mask {self.mask} out of range")

    @classmethod
    def from_names(cls, names: Sequence[str]) -> "StageSet":
        mask = 0
        for name in names:
            if name not in STAGES:
                raise ValueError(f"unknown stage {name!r}")
            mask |= 1 << STAGES.index(name)
        return cls(mask)

    def names(self) -> tuple[str, ...]:
        return tuple(s for k, s in enumerate(STAGES) if self.mask >> k & 1)

    def __iter__(self):
        return iter(self.names())

    def __contains__(self, name: str) -> bool:
        return name in self.names()

    def __len__(self) -> int:
        return len(self.names())

    def __str__(self) -> str:
        return " or ".join(self.names()) if self.mask else "none"


def decode_stages(bits: str) -> StageSet:
    """Decode a printed 8-bit string (c7 leftmost, c0 rightmost) into stages."""
    if len(bits) != len(STAGES) or any(c not in "01" for c in bits):
        raise ValueError(f"expected an 8-character bit string, got {bits!r}")
    return StageSet(int(bits, 2))


# ---------------------------------------------------------------------------
# Network, circuit, staging
# ---------------------------------------------------------------------------


def _fact_name(tnm: TnmClass) -> str:
    return f"{tnm.t}{tnm.n}{tnm.m}"


def build_idc_network() -> RuleNetwork:
    """The staging rule network: one disjunctive rule per stage."""
    inputs = tuple(_fact_name(tnm) for tnm in INPUT_COMPLEXES)
    rules = [Rule(Or.of(Atom(inputs[q]) for q in STAGE_RULES[stage]), stage) for stage in STAGES]
    return RuleNetwork(inputs, tuple(rules), STAGES)


def build_idc_circuit(options: CompileOptions | None = None) -> CompiledCircuit:
    """Compile the staging network; stays within 10 ancillae / 25 qubits."""
    if options is None:
        options = CompileOptions(ancilla_budget=10)
    return compile_network(build_idc_network(), options)


class StagingResult(NamedTuple):
    stages: StageSet
    result: RunResult
    activated_qubit: int
    tnm: TnmClass


def run_activation(
    input_bits: Sequence[int],
    engine: str = "fast",
    compiled: CompiledCircuit | None = None,
    max_qubits: int | None = None,
) -> tuple[StageSet, RunResult]:
    """Run the compiled staging circuit from the basis state ``input_bits`` sets.

    Exactly one bit must be set (a patient is in one TNM state); zero or
    several raise :class:`OneHotError` before any simulation starts.
    """
    if len(input_bits) != len(INPUT_COMPLEXES):
        raise ValueError(f"expected {len(INPUT_COMPLEXES)} input bits, got {len(input_bits)}")
    active = [i for i, bit in enumerate(input_bits) if bit]
    if len(active) != 1:
        raise OneHotError(
            f"exactly one input qubit must be activated, got {len(active)}"
        )
    if compiled is None:
        compiled = build_idc_circuit()
    result = run(compiled.circuit, 1 << active[0], engine, max_qubits)
    if len(result.bits) != len(STAGES):
        raise ValueError(f"expected {len(STAGES)} output bits, got {len(result.bits)}")
    mask = 0
    for bit in reversed(result.bits):  # classical bit k is STAGES[k]
        mask = mask << 1 | bit
    return StageSet(mask), result


def stage(
    tnm: TnmClass,
    engine: str = "fast",
    compiled: CompiledCircuit | None = None,
    max_qubits: int | None = None,
) -> StagingResult:
    """Stage one TNM classification end to end."""
    canonical = tnm.canonical()
    qubit = tnm_to_input_qubit(canonical)
    activation = [0] * len(INPUT_COMPLEXES)
    activation[qubit] = 1
    stages, result = run_activation(activation, engine, compiled, max_qubits)
    return StagingResult(stages, result, qubit, canonical)


# ---------------------------------------------------------------------------
# Reference table (the system's documented expected outputs)
# ---------------------------------------------------------------------------

# Expected bit string and stage set per activated qubit.
REFERENCE_STAGING: tuple[tuple[int, str, tuple[str, ...]], ...] = (
    (0, "00000110", ("I-B", "II-A")),
    (1, "00010000", ("III-A",)),
    (2, "00000001", ("I-A",)),
    (3, "00000110", ("I-B", "II-A")),
    (4, "00010000", ("III-A",)),
    (5, "00010100", ("II-A", "III-A")),
    (6, "00001000", ("II-B",)),
    (7, "00001000", ("II-B",)),
    (8, "00010000", ("III-A",)),
    (9, "00010000", ("III-A",)),
    (10, "00100000", ("III-B",)),
    (11, "00100000", ("III-B",)),
    (12, "00100000", ("III-B",)),
    (13, "01000000", ("III-C",)),
    (14, "10000000", ("IV",)),
)


class ReferenceRow(NamedTuple):
    tnm: TnmClass
    qubit: int
    bits: str
    stages: StageSet
    expected_bits: str
    expected_stages: StageSet
    ok: bool


def verify_reference_table(
    engine: str = "fast",
    compiled: CompiledCircuit | None = None,
    max_qubits: int | None = None,
) -> tuple[ReferenceRow, ...]:
    """Run all fifteen activations and compare with the reference table."""
    if compiled is None:
        compiled = build_idc_circuit()
    rows = []
    for qubit, expected_bits, expected_names in REFERENCE_STAGING:
        tnm = INPUT_COMPLEXES[qubit]
        staged = stage(tnm, engine, compiled, max_qubits)
        expected = StageSet.from_names(expected_names)
        bits = staged.result.bitstring
        ok = bits == expected_bits and staged.stages == expected
        rows.append(ReferenceRow(tnm, qubit, bits, staged.stages, expected_bits, expected, ok))
    return tuple(rows)
