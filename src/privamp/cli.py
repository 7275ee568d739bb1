"""Command-line front end.

Every subcommand is a thin shell over the library: extraction, output
length calculation, conformance validation of an external command, and
test vector generation/verification.

Exit codes: 0 success; 1 length mismatch, FFT precision loss, too little
memory for the FFT workspace (InsufficientMemory) or a numpy MemoryError;
2 argument, range, parse or configuration errors; 3 validation or
verification failures; 4 adapter probe failure.  Each error class in
:mod:`privamp.exceptions` carries its code as ``exit_code``.
"""

from __future__ import annotations

import argparse
import sys

from . import testvectors
from .exceptions import InvalidRange, LengthMismatch, ParseError, PrivampError
from .bits import BitString, hex_decode
from .extractor import SeededExtractor, extractor_class
from .trevisan import calculate_length_trevisan
from .validator import (DEFAULT_EXHAUSTIVE_CAP, DEFAULT_TIMEOUT, DEFAULT_WORKERS, ImplementationAdapter,
                        Validator, _check_run)

EXIT_OK = 0
EXIT_ARGS = 2
EXIT_FAILURES = 3


def _add_extractor_args(parser: argparse.ArgumentParser, need_m: bool = True):
    parser.add_argument(
        "--type",
        required=True,
        choices=["toeplitz", "modified-toeplitz", "trevisan"],
        help="extractor family",
    )
    parser.add_argument("-n", "--input-length", type=int, required=True, metavar="BITS")
    if need_m:
        parser.add_argument("-m", "--output-length", type=int, required=True, metavar="BITS")
    parser.add_argument(
        "--one-bit-seed-length",
        type=int,
        metavar="T",
        help="Trevisan only: one-bit extractor seed length (= design set size)",
    )


def _one_bit_seed_length(args) -> int | None:
    """``--one-bit-seed-length``: required for trevisan; the other types refuse it and get None."""
    if args.type != "trevisan":
        if args.one_bit_seed_length is not None:
            raise InvalidRange(f"--one-bit-seed-length is for trevisan only, not {args.type}")
        return None
    if args.one_bit_seed_length is None:
        raise InvalidRange("--one-bit-seed-length is required for trevisan")
    return args.one_bit_seed_length


def _extractor_args(args) -> tuple[dict, int]:
    """The :meth:`SeededExtractor.create` keywords of ``args``, and their seed length by the kind's rule alone."""
    kwargs = dict(input_length=args.input_length, output_length=args.output_length)
    t = _one_bit_seed_length(args)
    if t is not None:
        kwargs["one_bit_extractor_seed_length"] = t
    return kwargs, extractor_class(args.type)._seed_length_for(**kwargs)


def _read_text(path: str) -> str:
    """The UTF-8 text of the file ``path``, without a leading byte order mark."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not {exc.encoding} text ({exc.reason} at byte {exc.start})") from None


def _read_hex(value: str, length: int, what: str) -> BitString:
    if value.startswith("@"):
        value = _read_text(value[1:]).strip()
    try:
        return hex_decode(value, length)
    except LengthMismatch as exc:
        raise LengthMismatch(f"{what}: {exc}") from None


def cmd_extract(args) -> int:
    kwargs, seed_length = _extractor_args(args)
    x = _read_hex(args.input, args.input_length, "input")
    y = _read_hex(args.seed, seed_length, "seed")
    out = SeededExtractor.create(args.type, **kwargs).extract(x, y).to_hex()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)
    return EXIT_OK


def cmd_params(args) -> int:
    t = _one_bit_seed_length(args)
    if t is not None:
        m, params = calculate_length_trevisan(args.input_length, args.entropy, args.error, t)
        print(m)
        print(f"seed length: {params.seed_length}")
        print(f"field degree: {params.field_degree}")
        print(f"chunk count: {params.chunk_count}")
        print(f"per-bit error: {params.per_bit_error:.3e}")
        print(f"entropy required: {params.total_entropy_required:.1f} of {params.source_entropy:.1f}")
    else:
        cls = extractor_class(args.type)
        print(cls.calculate_length("quantum", args.input_length, args.entropy, args.error))
    return EXIT_OK


def cmd_validate(args) -> int:
    kwargs, seed_length = _extractor_args(args)
    run = dict(mode=args.mode, sample_size=args.samples, rng_seed=args.rng_seed,
               timeout=args.timeout, workers=args.workers)
    _check_run(args.input_length + seed_length, args.exhaustive_cap, **run)
    adapter = ImplementationAdapter(
        label=args.label, command=args.command, input_method=args.input_method, output_path=args.output_path,
        serializers={"$INPUT$": args.input_format, "$SEED$": args.seed_format}, output_parser=args.output_format,
    )  # every argument is checked: now build the reference, then probe the command
    validator = Validator(SeededExtractor.create(args.type, **kwargs), exhaustive_cap=args.exhaustive_cap)
    validator.add_implementation(adapter, timeout=args.timeout)
    report = validator.validate(**run)
    print(report.summary())
    if report.passed:
        return EXIT_OK
    diagnosis = validator.analyze_failed_test(report)
    print(diagnosis.summary)
    return EXIT_FAILURES


def cmd_vectors_gen(args) -> int:
    kwargs, _ = _extractor_args(args)
    testvectors._check_generate(args.count, args.rng_seed, args.kind)
    file = testvectors.generate_test_vectors(
        SeededExtractor.create(args.type, **kwargs), count=args.count, rng_seed=args.rng_seed, kind=args.kind
    )
    text = file.render()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_vectors_verify(args) -> int:
    file = testvectors.parse_vector_file(_read_text(args.file))
    if file.extractor_config is None:
        raise ParseError("extractor configuration not found in header")
    verification = testvectors.verify_response_file(file.extractor_config.extractor, file)
    print(verification.summary())
    return EXIT_OK if verification.passed else EXIT_FAILURES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privamp",
        description="Strong seeded randomness extractors for privacy amplification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="hash an input with a seed")
    _add_extractor_args(p)
    p.add_argument("--input", required=True, help="hex value, or @FILE containing hex")
    p.add_argument("--seed", required=True, help="hex value, or @FILE containing hex")
    p.add_argument("--out", help="write output hex to this file instead of stdout")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("params", help="compute the secure output length")
    _add_extractor_args(p, need_m=False)
    p.add_argument("--entropy", type=float, required=True, metavar="REL",
                   help="relative source min-entropy in (0, 1]")
    p.add_argument("--error", type=float, required=True, metavar="EPS",
                   help="security parameter in (0, 1)")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("validate", help="conformance-test an external implementation")
    _add_extractor_args(p)
    p.add_argument("--command", required=True,
                   help="command template with $SEED$ and $INPUT$ placeholders")
    p.add_argument("--label", default="implementation-under-test")
    p.add_argument("--input-method", choices=["stdio", "files"], default="stdio")
    p.add_argument("--input-format", choices=["binary-string", "hex"], default="binary-string")
    p.add_argument("--seed-format", choices=["binary-string", "hex"], default="binary-string")
    p.add_argument("--output-format", choices=["binary-string", "hex"], default="binary-string")
    p.add_argument("--output-path", help="files mode: path the command writes its output to")
    p.add_argument("--mode", choices=["exhaustive", "random"], default="exhaustive")
    p.add_argument("--samples", type=int, help="random mode: number of cases")
    p.add_argument("--rng-seed", type=int, help="make random mode reproducible")
    p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT, help="per-case timeout (s)")
    p.add_argument("--workers", type=int,
                   help=f"concurrent cases (default: {DEFAULT_WORKERS})")
    p.add_argument("--exhaustive-cap", type=int, default=DEFAULT_EXHAUSTIVE_CAP,
                   help="max input+seed bits for exhaustive mode")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("vectors", help="generate or verify CAVP-style test vectors")
    vec = p.add_subparsers(dest="vectors_command", required=True)

    g = vec.add_parser("gen", help="generate a .req/.rsp file")
    _add_extractor_args(g)
    g.add_argument("--count", type=int, default=8)
    g.add_argument("--rng-seed", type=int, help="deterministic generation")
    g.add_argument("--kind", choices=["req", "rsp"], default="rsp")
    g.add_argument("--out", help="output path (default: stdout)")
    g.set_defaults(func=cmd_vectors_gen)

    v = vec.add_parser("verify", help="recompute and check a response file")
    v.add_argument("file", help="path to the .rsp file")
    v.set_defaults(func=cmd_vectors_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PrivampError, MemoryError) as exc:  # numpy's MemoryError names the allocation that failed
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGS


if __name__ == "__main__":
    sys.exit(main())
