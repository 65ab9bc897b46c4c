"""Two execution engines for reversible circuits.

The dense engine (:mod:`qrbs.dense`) carries all ``2^n`` complex
amplitudes; the fast engine carries a single basis index, which is exact
here because X/CNOT/CCNOT only permute basis states. Measurement is
deterministic bit extraction from a basis state — there is no randomness
anywhere, so identical runs give identical results. Circuits whose state
would need probabilistic measurement are rejected.

Conventions: qubit ``k`` is bit ``k`` of the basis index (q0 least
significant); :attr:`RunResult.bitstring` prints classical bits most
significant first (c-high to c-low), matching the index convention.

The fast engine is one loop, :func:`_run_basis`: it dispatches on each
gate's exact type and flips the index with shifts and masks. Neither
engine checks a gate: :meth:`Circuit.append` is the one check, and it
admits only gates whose qubits are distinct integers inside the
registers. The fast engine shares no per-gate code with the dense
engine, so each engine is an independent oracle for the other.

The fast engine needs no third-party package. :func:`run` loads
:mod:`qrbs.dense`, where the dense engine's public names live, on the
first ``engine="statevector"`` run; if the ``dense`` extra is not
installed, that run raises :class:`SimulationError`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .circuit import CCNOT, CNOT, Circuit, X
from .errors import SimulationError

if TYPE_CHECKING:
    from .dense import StateVector

__all__ = ["BasisIndex", "RunResult", "run"]

BasisIndex = int


@dataclass(frozen=True)
class RunResult:
    """Classical bits plus the final state of one deterministic run.

    ``bits[k]`` is classical bit ``k``; unwritten bits stay 0.
    ``final_state`` is a :class:`StateVector` on the dense engine and a
    plain basis index on the fast engine.
    """

    bits: tuple[int, ...]
    final_state: StateVector | BasisIndex

    @property
    def bitstring(self) -> str:
        return "".join(map(str, reversed(self.bits)))


ENGINES = ("fast", "statevector")


def run(
    circuit: Circuit,
    initial: BasisIndex = 0,
    engine: str = "fast",
    max_qubits: int | None = None,
) -> RunResult:
    """Execute ``circuit`` from the basis state ``initial``.

    ``engine="fast"`` tracks one basis index in O(#gates);
    ``engine="statevector"`` updates all amplitudes and is capped at
    ``max_qubits`` (default 26) qubits. An ``initial`` that is not an
    integer (to ``operator.index``) or is outside the register raises
    :class:`ValueError`.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    try:
        initial = operator.index(initial)
    except TypeError:
        raise ValueError(f"initial basis index {initial!r} is not an integer") from None
    if not 0 <= initial < 1 << circuit.num_qubits:
        raise ValueError(
            f"initial basis index {initial} out of range for {circuit.num_qubits} qubits"
        )
    if engine == "fast":
        return _run_basis(circuit, initial)
    try:
        from . import dense
    except ImportError as exc:
        raise SimulationError(
            f"the statevector engine needs numpy ({exc}); install it with "
            "pip install 'qrbs[dense]'"
        ) from exc

    bits, state = dense.run(circuit, initial, max_qubits)
    return RunResult(bits, state)


def _run_basis(circuit: Circuit, initial: BasisIndex) -> RunResult:
    """The fast engine: ``initial`` carried through the gates as one basis index."""
    bits = [0] * circuit.num_clbits
    index = initial
    for gate in circuit.gates:
        kind = type(gate)
        if kind is CNOT:
            index ^= (index >> gate.control & 1) << gate.target
        elif kind is CCNOT:
            index ^= (index >> gate.control1 & index >> gate.control2 & 1) << gate.target
        elif kind is X:
            index ^= 1 << gate.target
        else:
            bits[gate.clbit] = index >> gate.qubit & 1
    return RunResult(tuple(bits), index)
