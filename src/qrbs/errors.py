"""Exception types shared across the package."""


class QrbsError(Exception):
    """Base class for all library errors."""


class DslSyntaxError(QrbsError):
    """Rule or constraint text failed to tokenize or parse."""

    def __init__(self, message, line=None, column=None):
        location = ""
        if line is not None:
            location = f" (line {line}"
            if column is not None:
                location += f", column {column}"
            location += ")"
        super().__init__(message + location)
        self.line = line
        self.column = column


class NetworkError(QrbsError):
    """Structurally invalid rule network: unknown atom, duplicate consequent, ..."""


class CycleError(NetworkError):
    """The fact-dependency graph contains a cycle."""

    def __init__(self, facts):
        facts = tuple(facts)
        super().__init__("cycle detected: " + " -> ".join(facts + facts[:1]))
        self.facts = facts


class CircuitError(QrbsError):
    """Gate violates the circuit's structural invariants."""


class QasmError(QrbsError):
    """Circuit text is outside the supported interchange subset."""


class CompileError(QrbsError):
    """Lowering failed, e.g. the ancilla budget was exceeded."""


class VerificationError(QrbsError):
    """Verification found more mismatches than a report lists."""


class SimulationError(QrbsError):
    """Engine cap exceeded or measurement of a non-basis state requested."""


class StagingError(QrbsError):
    """Base class for errors in the staging application."""


class VocabularyError(StagingError):
    """TNM class has no corresponding input qubit ("no relevant complex")."""


class OneHotError(StagingError):
    """Zero or more than one input qubit would be activated."""
