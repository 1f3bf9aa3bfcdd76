"""Command-line interface.

Subcommands:
    compile <program> [-o dem]   compile a QEC program to a detector error model
    check <program>              report well-definedness per declaration
    accuracy <dem|program>       bound the logical error rate at a point
    robustness <dem|program>     bound the worst-case rate over a box
    serve-ml <dem|program>       serve the ML decoder over the wire protocol
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from .compiler import (
    CompileError,
    DemParseError,
    DetectorErrorModel,
    check_well_defined,
    compile_to_dem,
    parse_dem,
    write_symbolic_dem,
)
from .decoders import (
    ProtocolError,
    build_greedy_decoder,
    build_ml_decoder,
    connect_external_decoder,
    serve,
)
from .driver import RunConfig, emit_trace, run_accuracy, run_robustness
from .errorspace import STRATEGIES
from .frontend import ParseError, parse_symbolic_program
from .polynomial import Hyperrectangle


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as f:
        return f.read()


def load_model(path: str) -> DetectorErrorModel:
    """Load a model from a DEM file or by compiling a program file.  The
    first statement picks the reader: `dem` or `error(...)` starts a DEM,
    which no program statement does, and so does an empty file."""
    text = _read(path)
    statements = (ln.split("#", 1)[0].split() for ln in text.splitlines())
    first = next((toks[0] for toks in statements if toks), "dem")
    if first == "dem" or first.startswith("error("):
        return parse_dem(text)
    return compile_to_dem(parse_symbolic_program(text))


def _parse_box(args, model: DetectorErrorModel) -> Hyperrectangle:
    if args.box_file:
        rows = []
        for i, ln in enumerate(_read(args.box_file).splitlines(), 1):
            fields = ln.split("#", 1)[0].split()
            if not fields:
                continue
            try:
                lo, hi = map(float, fields)  # exactly two numbers
            except ValueError:
                raise SystemExit(
                    f"box file line {i}: expected two numbers 'lo hi', got {ln.strip()!r}"
                ) from None
            rows.append((lo, hi))
        if len(rows) != model.n_channels:
            raise SystemExit(
                f"box file has {len(rows)} rows, model has {model.n_channels} channels"
            )
        return Hyperrectangle(tuple(r[0] for r in rows), tuple(r[1] for r in rows))
    if args.box_scale:
        try:
            lo_s, hi_s = map(float, args.box_scale.split(","))  # exactly two numbers
        except ValueError:
            raise SystemExit(
                f"--box-scale: expected two numbers 'lo,hi', got {args.box_scale!r}"
            ) from None
        return Hyperrectangle.scaled(model.concrete_probabilities(), lo_s, hi_s)
    raise SystemExit("robustness requires --box-scale or --box-file")


def _build_decoder(choice: str, model: DetectorErrorModel, v):
    if choice == "ml":
        return build_ml_decoder(model, v)
    if choice == "greedy":
        return build_greedy_decoder(model, v)
    if choice.startswith("exec:"):
        return connect_external_decoder(
            choice[len("exec:"):], model.n_detectors, model.n_observables
        )
    raise SystemExit(f"unknown decoder {choice!r} (expected ml, greedy, or exec:<command>)")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("model", help="DEM file or program file ('-' for stdin)")
    p.add_argument("--decoder", default="ml", help="ml | greedy | exec:<command>")
    p.add_argument("--strategy", default="hamming", choices=STRATEGIES)
    p.add_argument("--max-shots", type=int, default=None)
    p.add_argument("--time-limit", type=float, default=None, help="seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default=None, help="trace output path ('-' for stdout)")


def _run_config(args, **mode_fields) -> RunConfig:
    """A RunConfig from the flags both run commands share, plus `mode_fields`."""
    return RunConfig(
        strategy=args.strategy,
        max_shots=args.max_shots,
        time_limit=args.time_limit,
        seed=args.seed,
        **mode_fields,
    )


def _open_trace(path: str | None):
    """The trace sink, opened before the run so that a bad path fails early."""
    return nullcontext(sys.stdout) if path is None or path == "-" else open(path, "w")


def _report(trace) -> None:
    f = trace.final
    status = "exhausted" if f.get("exhausted") else "interrupted"
    print(f"shots={f['shots']} ({status})", file=sys.stderr)
    print(f"lower={f['lower']:.17g} upper={f['upper']:.17g}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qecbound")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile a program to a DEM")
    p_compile.add_argument("program")
    p_compile.add_argument("-o", "--output", default=None)

    p_check = sub.add_parser("check", help="check well-definedness")
    p_check.add_argument("program")

    p_acc = sub.add_parser("accuracy", help="bound the logical error rate")
    _add_run_flags(p_acc)
    p_acc.add_argument("--samples", type=int, default=0, help="per-checkpoint sample count")
    p_acc.add_argument("--alpha", type=float, default=0.01)

    p_rob = sub.add_parser("robustness", help="bound the worst-case rate over a box")
    _add_run_flags(p_rob)
    p_rob.add_argument("--box-scale", default=None, help="lo,hi multiplicative box")
    p_rob.add_argument("--box-file", default=None, help="one 'lo hi' pair per channel")

    p_serve = sub.add_parser("serve-ml", help="serve the ML decoder over stdin/stdout")
    p_serve.add_argument("model")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ParseError, DemParseError, CompileError, ProtocolError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "compile":
        out = write_symbolic_dem(compile_to_dem(parse_symbolic_program(_read(args.program))))
        if args.output:
            with open(args.output, "w") as f:
                f.write(out)
        else:
            sys.stdout.write(out)
        return 0

    if args.command == "check":
        report = check_well_defined(parse_symbolic_program(_read(args.program)))
        for r in report.declarations:
            label = f"{r.declaration.kind} {' '.join(r.declaration.operands)}"
            if r.deterministic:
                print(f"ok   {label} (noiseless value {r.value})")
            else:
                print(f"BAD  {label} (outcome is randomized)")
        print("well-defined" if report.well_defined else "not well-defined")
        return 0 if report.well_defined else 2

    if args.command == "serve-ml":
        model = load_model(args.model)
        decoder = build_ml_decoder(model, model.concrete_probabilities())
        serve(decoder, sys.stdin, sys.stdout)
        return 0

    model = load_model(args.model)
    if args.command == "accuracy":
        v = model.concrete_probabilities()
        config = _run_config(args, mode="accuracy", sample_count=args.samples, alpha=args.alpha)
        point_or_box, run = v, run_accuracy
    elif args.command == "robustness":
        point_or_box = _parse_box(args, model)
        v = tuple(0.5 * (lo + hi) for lo, hi in zip(point_or_box.lower, point_or_box.upper))
        model = model.with_probabilities(v) if model.is_symbolic else model
        config = _run_config(args, mode="robustness")
        run = run_robustness
    else:
        raise SystemExit(f"unknown command {args.command!r}")
    with _open_trace(args.trace) as sink:
        decoder = _build_decoder(args.decoder, model, v)
        try:
            trace = run(model, decoder, point_or_box, config)
        finally:
            decoder.close()
        emit_trace(trace, sink)
    _report(trace)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
