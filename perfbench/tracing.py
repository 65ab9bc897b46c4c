"""Spans at layer boundaries, recorded from outside the library.

A span is one public call: op id, span id, parent span id, name, start
and end (``time.perf_counter`` seconds). Spans stay in memory and are
written out when the run ends. The benchmark calls each public function
through :meth:`Tracer.call`; the calls the library makes to itself
(``verify_compilation`` -> ``evaluate_network``/``run`` and ``stage`` ->
``run``) are caught by wrappers that :meth:`Tracer.install` puts on the
module-level names the library looks up, and :meth:`Tracer.remove`
takes off again.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


def direct_call(name, fn, *args, **kwargs):
    """The untraced form of :meth:`Tracer.call`."""
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [op, span, parent, name, start, end]
        self.op = 0
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._removals: list = []
        self._circuits: dict[str, list] = defaultdict(list)  # layer -> circuits run
        self._dense_state = 0
        self._dense_itemsize = 0

    def call(self, name, fn, *args, **kwargs):
        span = self._begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(span)

    def _begin(self, name) -> list:
        # the clock is read first and last, so the tracer's own work for a
        # span is charged to that span and not to its parent's self time
        start = perf_counter()
        span = [self.op, len(self.spans), self._stack[-1] if self._stack else None, name, start, 0.0]
        self.spans.append(span)
        self._stack.append(span[1])
        return span

    def _end(self, span) -> None:
        self._stack.pop()
        span[5] = perf_counter()

    # -- wrappers on the library's own lookups ------------------------------

    def install(self, lib) -> None:
        """Wrap ``compiler.evaluate_network``, ``compiler.run`` and ``idc.run``."""
        self._wrap(lib.compiler, "evaluate_network", self._named("rules.evaluate_network"))
        self._wrap(lib.compiler, "run", self._run)
        self._wrap(lib.idc, "run", self._run)

    def remove(self) -> None:
        while self._removals:
            module, attr, original = self._removals.pop()
            setattr(module, attr, original)

    def _wrap(self, module, attr, make) -> None:
        original = getattr(module, attr)
        self._removals.append((module, attr, original))
        setattr(module, attr, make(original))

    def _named(self, name):
        def make(original):
            def wrapper(*args, **kwargs):
                span = self._begin(name)
                try:
                    self.counts[name + ".calls"] += 1
                    return original(*args, **kwargs)
                finally:
                    self._end(span)

            return wrapper

        return make

    def _run(self, original):
        def run(circuit, initial=0, engine="fast", max_qubits=None):
            layer = "simulator.fast" if engine == "fast" else "simulator.dense"
            span = self._begin(layer + ".run")
            try:
                result = original(circuit, initial, engine, max_qubits)
                # gates are counted after the run, outside every span
                self._circuits[layer].append(circuit)
                if engine != "fast":
                    amplitudes = result.final_state.amplitudes
                    self._dense_state = max(self._dense_state, amplitudes.nbytes)
                    self._dense_itemsize = amplitudes.itemsize
                return result
            finally:
                self._end(span)

        return run

    def _gate_counts(self) -> None:
        """Per layer: unitary gates run, and amplitudes those gates touched."""
        costs: dict[int, tuple[int, int]] = {}
        for layer, circuits in self._circuits.items():
            for circuit in circuits:
                if id(circuit) not in costs:
                    costs[id(circuit)] = _cost(circuit)
                gates, touched = costs[id(circuit)]
                self.counts[layer + ".calls"] += 1
                self.counts[layer + ".gates"] += gates
                self.counts[layer + ".touched"] += touched
        self._circuits.clear()

    # -- results ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as out:
            json.dump({"fields": ["op", "span", "parent", "name", "start", "end"]}, out)
            out.write("\n")
            for span in self.spans:
                json.dump(span, out)
                out.write("\n")

    def layer_metrics(self, ops: int, op_counts: dict[str, float]) -> dict[str, float]:
        """Per-op means over ``ops`` traced ops, plus derived ratios."""
        total: dict[str, float] = defaultdict(float)
        children: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for _, span_id, _, name, start, end in self.spans:
            total[name] += end - start
            self_time[name] += end - start - children[span_id]
        self._gate_counts()
        per_op = lambda value: value / ops
        counts = defaultdict(float, self.counts)
        counts.update(op_counts)
        dense_s = total["simulator.dense.run"]
        dense_gates = counts["simulator.dense.gates"]
        # each gate reads and writes every amplitude of its controlled subspace once
        dense_bytes = 2 * self._dense_itemsize * counts["simulator.dense.touched"]
        pairs_in = counts["categorical.pairs_in"]
        return {
            "simulator.dense.run_s": per_op(dense_s),
            "simulator.dense.s_per_gate": dense_s / dense_gates if dense_gates else 0.0,
            "simulator.dense.gates": per_op(dense_gates),
            "simulator.dense.state_bytes": float(self._dense_state),
            "simulator.dense.bytes_moved_computed": per_op(dense_bytes),
            "simulator.dense.gb_per_s_computed": dense_bytes / dense_s / 1e9 if dense_s else 0.0,
            "simulator.fast.run_s": per_op(total["simulator.fast.run"]),
            "simulator.fast.calls": per_op(counts["simulator.fast.calls"]),
            "simulator.fast.gates": per_op(counts["simulator.fast.gates"]),
            "idc.classify_tnm.s": per_op(total["idc.classify_tnm"]),
            "idc.stage.self_s": per_op(self_time["idc.stage"]),
            "rules.parse_rules.s": per_op(total["rules.parse_rules"]),
            "compiler.compile_network.s": per_op(total["compiler.compile_network"]),
            "compiler.gates_emitted": per_op(counts["compiler.gates_emitted"]),
            "compiler.ancillae": per_op(counts["compiler.ancillae"]),
            "circuit.export_qasm.s": per_op(total["circuit.export_qasm"]),
            "circuit.import_qasm.s": per_op(total["circuit.import_qasm"]),
            "compiler.verify_compilation.self_s": per_op(self_time["compiler.verify_compilation"]),
            "rules.evaluate_network.s": per_op(total["rules.evaluate_network"]),
            "rules.evaluate_network.calls": per_op(counts["rules.evaluate_network.calls"]),
            "compiler.assignments_checked": per_op(counts["compiler.assignments_checked"]),
            "categorical.parse_constraints.s": per_op(total["categorical.parse_constraints"]),
            "categorical.build_elb.s": per_op(total["categorical.build_elb"]),
            "categorical.reduce_to_rlb.s": per_op(total["categorical.reduce_to_rlb"]),
            "categorical.diagnose.s": per_op(total["categorical.diagnose"]),
            "categorical.pairs_in": per_op(pairs_in),
            "categorical.pairs_kept": per_op(counts["categorical.pairs_kept"]),
            "categorical.kept_ratio": counts["categorical.pairs_kept"] / pairs_in if pairs_in else 0.0,
        }


def _cost(circuit) -> tuple[int, int]:
    """(unitary gates, amplitudes touched summed over those gates)."""
    gates = touched = 0
    for gate in circuit.gates:
        kind = type(gate).__name__
        if kind != "Measure":
            gates += 1
            controls = {"X": 0, "CNOT": 1, "CCNOT": 2}[kind]
            touched += 1 << (circuit.num_qubits - controls)
    return gates, touched
