"""Command-line front end.

Subcommands: stage, rlb, compile, simulate, export, verify-idc,
verify-compile. Every subcommand takes ``--json`` for machine-readable
output. Exit codes: 0 success, 1 domain error (message on stderr),
2 usage error. Output is deterministic: no randomness, no timestamps.
The ``QRBS_MAX_QUBITS`` environment variable overrides the dense-engine
qubit cap when ``--max-qubits`` is not given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

from . import idc
from .categorical import (
    MAX_TOTAL_ATTRIBUTES,
    build_elb,
    diagnose,
    index_to_complex,
    parse_constraints,
    reduce_to_rlb,
)
from .circuit import export_qasm, gate_counts, import_qasm
from .compiler import CompileOptions, compile_network, verify_compilation
from .errors import QrbsError
from .rules import parse_rules
from .simulator import ENGINES, run


def _tnm_argument(text: str) -> idc.TnmClass:
    try:
        return idc.TnmClass.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _bits_argument(text: str) -> str:
    if not text or any(c not in "01" for c in text):
        raise argparse.ArgumentTypeError(f"expected a string of 0s and 1s, got {text!r}")
    return text


def _count(text: str, minimum: int = 0) -> int:
    """An integer flag's argparse type: a decimal integer of at least ``minimum``."""
    if not text.isdecimal() or int(text) < minimum:
        message = f"expected an integer of at least {minimum}, got {text!r}"
        raise argparse.ArgumentTypeError(message)
    return int(text)


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--engine", choices=ENGINES, default="fast")
    parser.add_argument(
        "--max-qubits",
        type=partial(_count, minimum=1),
        default=None,
        help="dense-engine qubit cap override (default: QRBS_MAX_QUBITS or 26)",
    )


def _add_compile_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-share", action="store_true", help="disable subexpression sharing")
    parser.add_argument(
        "--no-measure-direct",
        action="store_true",
        help="copy pass-through outputs to fresh ancillae before measuring",
    )
    parser.add_argument("--budget", type=_count, default=None, help="ancilla budget")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-o", "--output", default=None, help="circuit file to write")
    parser.add_argument("--map", dest="map_path", default=None, help="metadata JSON to write")


def _resolve_max_qubits(args: argparse.Namespace) -> int | None:
    if args.max_qubits is not None:
        return args.max_qubits
    env = os.environ.get("QRBS_MAX_QUBITS")
    if not env:
        return None
    try:
        cap = int(env)
    except ValueError:
        raise QrbsError(f"QRBS_MAX_QUBITS={env!r} is not an integer") from None
    if cap < 1:
        raise QrbsError(f"QRBS_MAX_QUBITS={env!r} is below 1")
    return cap


def _compile_options(args: argparse.Namespace, default_budget: int | None = None) -> CompileOptions:
    budget = args.budget if args.budget is not None else default_budget
    return CompileOptions(
        share_subexpressions=not args.no_share,
        measure_inputs_directly=not args.no_measure_direct,
        ancilla_budget=budget,
    )


def _emit_compiled(args: argparse.Namespace, compiled) -> int:
    qasm = export_qasm(compiled.circuit)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(qasm)
    if args.map_path:
        with open(args.map_path, "w", encoding="utf-8") as fh:
            json.dump(compiled.metadata(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.json:
        print(json.dumps(compiled.metadata(), indent=2, sort_keys=True))
    elif args.output:
        counts = gate_counts(compiled.circuit)
        print(
            f"{compiled.circuit.num_qubits} qubits "
            f"({compiled.ancilla_count} ancillae), "
            f"{compiled.circuit.num_clbits} classical bits, "
            f"{counts['total']} gates -> {args.output}"
        )
    else:
        print(qasm, end="")
    return 0


def _cmd_stage(args: argparse.Namespace) -> int:
    if args.findings:
        with open(args.findings, encoding="utf-8") as fh:
            findings = idc.ClinicalFindings.from_dict(json.load(fh))
        tnm = idc.classify_tnm(findings)
    else:
        tnm = args.tnm
    staged = idc.stage(tnm, args.engine, max_qubits=_resolve_max_qubits(args))
    bits = staged.result.bitstring
    if args.json:
        print(
            json.dumps(
                {
                    "tnm": str(staged.tnm),
                    "activated_qubit": staged.activated_qubit,
                    "bits": bits,
                    "stages": list(staged.stages.names()),
                }
            )
        )
    elif args.explain:
        print(f"tnm: {staged.tnm}")
        print(f"activated qubit: q{staged.activated_qubit}")
        print(f"bits: {bits}")
        print(f"stages: {staged.stages}")
    else:
        print(f"{bits}  {staged.stages}")
    return 0


def _cmd_rlb(args: argparse.Namespace) -> int:
    if args.constraints:
        with open(args.constraints, encoding="utf-8") as fh:
            constraint_set = parse_constraints(fh.read())
    else:
        constraint_set = parse_constraints("")
    # refused before resolve() builds a default name per requested attribute
    requested = sum(max(count, 0) for count in (args.symptoms, args.diagnoses) if count)
    if requested > MAX_TOTAL_ATTRIBUTES:
        raise ValueError(f"{requested} attributes exceeds the cap of {MAX_TOTAL_ATTRIBUTES}")
    symptoms, diagnoses, rules = constraint_set.resolve(args.symptoms, args.diagnoses)
    if args.case is not None and len(args.case) != len(symptoms):
        raise QrbsError(f"case has {len(args.case)} bits but there are {len(symptoms)} symptoms")
    elb = build_elb(len(symptoms), len(diagnoses))
    rlb = reduce_to_rlb(elb, rules, symptoms, diagnoses)

    payload: dict = {
        "n_symptoms": len(symptoms),
        "n_diagnoses": len(diagnoses),
        "elb_size": len(elb),
        "rlb": rlb.labels(),
    }
    if not args.json:
        for label in rlb.labels():
            print(label)
    if args.case is not None:
        observed = index_to_complex(int(args.case, 2), len(symptoms))
        verdict = diagnose(observed, rlb)
        payload["case"] = {
            "symptoms": observed.label("S"),
            "consistent": verdict.consistent,
            "compatible": [d.label("D") for d in verdict.compatible],
            "diseases": {
                name: presence.value for name, presence in zip(diagnoses, verdict.diseases)
            },
        }
        if not args.json:
            if not verdict.consistent:
                print(
                    f"case {observed.label('S')}: no compatible diagnosis complexes "
                    "(inconsistent with the knowledge base)"
                )
            else:
                compatible = " ".join(d.label("D") for d in verdict.compatible)
                print(f"case {observed.label('S')}: compatible {compatible}")
                for name, presence in zip(diagnoses, verdict.diseases):
                    print(f"{name}: {presence.value}")
    if args.json:
        payload["rlb"] = list(payload["rlb"])
        print(json.dumps(payload))
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    with open(args.rules, encoding="utf-8") as fh:
        network = parse_rules(fh.read())
    compiled = compile_network(network, _compile_options(args))
    return _emit_compiled(args, compiled)


def _cmd_export(args: argparse.Namespace) -> int:
    compiled = idc.build_idc_circuit(_compile_options(args, default_budget=10))
    return _emit_compiled(args, compiled)


def _cmd_simulate(args: argparse.Namespace) -> int:
    with open(args.circuit, encoding="utf-8") as fh:
        circuit = import_qasm(fh.read())
    if len(args.input) != circuit.num_qubits:
        raise QrbsError(
            f"input has {len(args.input)} bits but the circuit has "
            f"{circuit.num_qubits} qubits"
        )
    initial = int(args.input, 2)  # leftmost character is the highest qubit
    result = run(circuit, initial, args.engine, _resolve_max_qubits(args))
    final: dict = {}
    if args.dump_state:
        if circuit.num_qubits > 8:
            raise QrbsError("state dump is limited to 8 qubits")
        if isinstance(result.final_state, int):  # the fast engine's basis index
            final = {format(result.final_state, f"0{circuit.num_qubits}b"): [1.0, 0.0]}
        else:
            amps = result.final_state.amplitudes
            final = {
                format(i, f"0{circuit.num_qubits}b"): [float(amps[i].real), float(amps[i].imag)]
                for i in range(len(amps))
                if amps[i] != 0
            }
    if args.json:
        payload = {"bits": result.bitstring}
        if args.dump_state:
            payload["final_state"] = final
        print(json.dumps(payload))
    else:
        print(result.bitstring)
        for basis, (re, im) in final.items():
            print(f"|{basis}> {re:+g}{im:+g}j")
    return 0


def _cmd_verify_idc(args: argparse.Namespace) -> int:
    rows = idc.verify_reference_table(args.engine, max_qubits=_resolve_max_qubits(args))
    all_ok = all(row.ok for row in rows)
    if args.json:
        print(
            json.dumps(
                {
                    "rows": [
                        {
                            "tnm": str(row.tnm),
                            "qubit": row.qubit,
                            "bits": row.bits,
                            "stages": list(row.stages.names()),
                            "expected_bits": row.expected_bits,
                            "expected_stages": list(row.expected_stages.names()),
                            "pass": row.ok,
                        }
                        for row in rows
                    ],
                    "all_pass": all_ok,
                }
            )
        )
    else:
        header = f"{'TNM':<10} {'qubit':<6} {'bits':<9} {'stages':<17} {'expected':<17} status"
        print(header)
        for row in rows:
            status = "PASS" if row.ok else "FAIL"
            print(
                f"{str(row.tnm):<10} q{row.qubit:<5} {row.bits:<9} "
                f"{str(row.stages):<17} {str(row.expected_stages):<17} {status}"
            )
        print(f"{sum(r.ok for r in rows)}/{len(rows)} PASS")
    return 0 if all_ok else 1


def _cmd_verify_compile(args: argparse.Namespace) -> int:
    with open(args.rules, encoding="utf-8") as fh:
        network = parse_rules(fh.read())
    compiled = compile_network(network, _compile_options(args))
    report = verify_compilation(network, compiled, max_inputs=args.max_inputs)
    if args.json:
        print(
            json.dumps(
                {
                    "assignments_checked": report.assignments_checked,
                    "mismatches": [
                        {
                            "assignment": dict(m.assignment),
                            "fact": m.fact,
                            "expected": m.expected,
                            "actual": m.actual,
                        }
                        for m in report.mismatches
                    ],
                    "ok": report.ok,
                }
            )
        )
    else:
        print(report)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrbs",
        description="Rule networks compiled to reversible circuits, with a TNM staging application.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stage", help="stage a TNM classification or findings file")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--tnm", type=_tnm_argument, help="classification like T2,N1,M0")
    source.add_argument("--findings", help="JSON file of clinical findings")
    p.add_argument("--explain", action="store_true", help="print qubit and decoding detail")
    _add_engine_flags(p)
    p.set_defaults(func=_cmd_stage)

    p = sub.add_parser("rlb", help="reduce an expanded logic base under constraints")
    p.add_argument("--constraints", default=None, help="constraint file (rule DSL with =>)")
    p.add_argument("--symptoms", type=int, default=None, help="number of symptoms")
    p.add_argument("--diagnoses", type=int, default=None, help="number of diagnoses")
    p.add_argument(
        "--case",
        type=_bits_argument,
        default=None,
        help="observed symptom bits, first symptom leftmost",
    )
    p.set_defaults(func=_cmd_rlb)

    p = sub.add_parser("compile", help="compile a rule file to a circuit")
    p.add_argument("--rules", required=True, help="rule DSL file")
    _add_compile_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("simulate", help="run a circuit file on a basis state")
    p.add_argument("--circuit", required=True, help="circuit file (OpenQASM 2.0 subset)")
    p.add_argument(
        "--input",
        required=True,
        type=_bits_argument,
        help="initial qubit bits, highest qubit leftmost",
    )
    p.add_argument("--dump-state", action="store_true", help="print the final state (<= 8 qubits)")
    _add_engine_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("export", help="export the built-in staging circuit")
    _add_compile_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("verify-idc", help="run the staging reference suite")
    _add_engine_flags(p)
    p.set_defaults(func=_cmd_verify_idc)

    p = sub.add_parser("verify-compile", help="check a compiled rule file against evaluation")
    p.add_argument("--rules", required=True, help="rule DSL file")
    p.add_argument("--max-inputs", type=_count, default=24, help="exhaustive-check input cap")
    _add_compile_flags(p)
    p.set_defaults(func=_cmd_verify_compile)

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (QrbsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
