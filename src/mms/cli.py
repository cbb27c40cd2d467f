"""Command-line interface.

Data goes to stdout or files, progress to stderr.  Exit codes: 0 success,
1 invalid input (an input too large for memory included), 2 conjecture
counterexample found, 3 I/O failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from typing import IO, ContextManager, Iterable, Sequence

from . import __version__
from .canon import canonical_key, generator_matrix
from .engine import compute_mms
from .enumeration import enumerate_simplices
from .geometry import SimplicialSet, format_point, parse_point
from .pipeline import check_conjecture, replay, run_pipeline, run_shape
from .sampler import SamplerConfig, sample_stream
from .sos import (
    CircuitSupport,
    HypothesisViolation,
    InnerTerm,
    Sign,
    SimplexSupportedPoly,
    circuit_is_sos,
    require_hypothesis,
    sonc_simplex_is_sos,
    sos_bound_is_exact,
)
from .store import Store, atomic_open, export, json_field, numbered_lines, stats, stats_json

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for
    # conjecture counterexamples, so usage errors must exit 1
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="mms", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[], help="enumerate all simplices of bounded degree")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--deg", type=int, required=True, help="maximal degree 2d (even)")
    p.add_argument("--partition", type=int, default=None, help="restrict to one first-row index")
    p.add_argument("--out", default=None, help="output JSONL path (default stdout)")

    p = sub.add_parser("sample", help="sample random simplices (seeded, reproducible)")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--deg", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("mms", help="compute the maximal mediated set of simplices")
    p.add_argument("--delta", default=None, help='simplex as "x,y;x,y;..."')
    p.add_argument("--in", dest="infile", default=None, help="JSONL with a delta field per line")
    p.add_argument("--method", choices=["removal", "fixed-point"], default="removal")
    p.add_argument("--out", default=None)

    p = sub.add_parser("canon", help="canonical lattice key of a full-dimensional simplex")
    p.add_argument("--delta", required=True)

    p = sub.add_parser("stats", help="statistics of a merged store")
    p.add_argument("--store", required=True)
    p.add_argument("--scope", choices=["simplicial_sets", "lattices", "both"], default="both")

    p = sub.add_parser("export", help="dump a store as JSONL records or a stats CSV")
    p.add_argument("--store", required=True)
    p.add_argument("--format", choices=["jsonl", "csv"], required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("check-sos", help="combinatorial SOS decision via MMS membership")
    p.add_argument("--delta", required=True)
    p.add_argument("--beta", default=None, help="single interior exponent (circuit decision)")
    p.add_argument("--sign", choices=["NEG", "POS"], default="NEG", help="sign of inner terms given via --beta")
    p.add_argument("--terms", default=None, help='JSON file: [{"beta": "x,y", "sign": "NEG"}, ...]')
    p.add_argument("--exactness", action="store_true", help="decide bound exactness instead of SOS-ness")

    p = sub.add_parser("check-conjecture", help="exhaustive planar dichotomy check")
    p.add_argument("--deg", type=int, required=True)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", default=None, help="keep the pipeline output directory here")

    p = sub.add_parser("pipeline", help="full enumerate/sample + MMS + canonicalize + merge run")
    p.add_argument("--dim", type=int)
    p.add_argument("--deg", type=int)
    p.add_argument("--mode", choices=["full", "sample"], default="full")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--replay", default=None, help="manifest.json of a recorded run to reproduce")
    return parser


def _output(path: str | None) -> ContextManager[IO[str]]:
    """stdout, or ``path`` written through ``store.atomic_open``, so a
    command that fails part way leaves ``path`` as it was."""
    return nullcontext(sys.stdout) if path is None else atomic_open(path)


def _write_deltas(path: str | None, deltas: Iterable[SimplicialSet]) -> int:
    """One ``{"delta": ...}`` line per simplex, to stdout or ``path``."""
    with _output(path) as out:
        for delta in deltas:
            out.write(json.dumps({"delta": str(delta)}, separators=(",", ":")))
            out.write("\n")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    return _write_deltas(args.out, enumerate_simplices(args.dim, args.deg, args.partition))


def _cmd_sample(args) -> int:
    cfg = SamplerConfig(n=args.dim, two_d=args.deg, seed=args.seed, count=args.count)
    return _write_deltas(args.out, sample_stream(cfg))


def _iter_input_deltas(args):
    if (args.delta is None) == (args.infile is None):
        raise ValueError("provide exactly one of --delta or --in")
    if args.delta is not None:
        yield SimplicialSet.parse(args.delta)
        return
    for _, delta in numbered_lines(args.infile, _input_delta, "bad input line"):
        yield delta


def _input_delta(line: str) -> SimplicialSet:
    """The simplex of one ``--in`` line, a JSON object with a "delta" field."""
    payload = json.loads(line)
    if not isinstance(payload, dict):
        raise ValueError("a record must be a JSON object")
    return SimplicialSet.parse(json_field(payload, "delta"))


def _cmd_mms(args) -> int:
    with _output(args.out) as out:
        for delta in _iter_input_deltas(args):
            result = compute_mms(delta, method=args.method)
            out.write(result.to_json_line())
            out.write("\n")
    return EXIT_OK


def _cmd_canon(args) -> int:
    delta = SimplicialSet.parse(args.delta)
    key = canonical_key(delta)
    gen = generator_matrix(delta)
    payload = {
        "key": key.key_text,
        "hnf": [list(row) for row in key.hnf],
        "generator": [list(row) for row in gen],
        # the key HNF spans the generator's lattice: |det| is its diagonal product
        "lattice_index": math.prod(row[i] for i, row in enumerate(key.hnf)),
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_stats(args) -> int:
    sim, lat = stats(Store.open(args.store))
    summaries = {"simplicial_sets": [sim], "lattices": [lat], "both": [sim, lat]}[args.scope]
    print(json.dumps(stats_json(summaries), indent=2))
    return EXIT_OK


def _cmd_export(args) -> int:
    store = Store.open(args.store)
    # the stats table of a pipeline store takes n and 2d from its manifest
    shape = run_shape(args.store) if args.format == "csv" else None
    export(store, args.format, args.out, shape)
    return EXIT_OK


def _cmd_check_sos(args) -> int:
    delta = SimplicialSet.parse(args.delta)
    if (args.beta is None) == (args.terms is None):
        raise ValueError("provide exactly one of --beta or --terms")
    if args.beta is not None:
        terms = [InnerTerm.of(parse_point(args.beta), Sign(args.sign))]
    else:
        with open(args.terms, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise ValueError(f"{args.terms}: bad --terms file: {exc}") from exc
        if not isinstance(raw, list):
            raise ValueError(f"{args.terms}: --terms file must contain a JSON list")
        terms = []
        for i, entry in enumerate(raw):
            try:
                if not isinstance(entry, dict):
                    raise ValueError("a term must be a JSON object")
                beta = parse_point(json_field(entry, "beta"))
                terms.append(InnerTerm.of(beta, Sign(entry.get("sign", "NEG"))))
            except ValueError as exc:
                raise ValueError(f"{args.terms}: entry {i}: bad term: {exc}") from exc
    from .sos import _memo

    if args.exactness:
        poly = SimplexSupportedPoly(delta=delta, inner_terms=tuple(terms))
        verdict = sos_bound_is_exact(poly)
        question = "sos_bound_is_exact"
    elif args.beta is not None and len(terms) == 1:
        require_hypothesis(terms)
        support = CircuitSupport(delta=delta, beta=terms[0].beta)
        verdict = circuit_is_sos(support)
        question = "circuit_is_sos"
    else:
        poly = SimplexSupportedPoly(delta=delta, inner_terms=tuple(terms))
        verdict = sonc_simplex_is_sos(poly)
        question = "sonc_simplex_is_sos"
    mms = _memo.mms_of(delta)
    payload = {
        "question": question,
        "delta": str(delta),
        "verdict": verdict,
        "witness": [
            {
                "beta": format_point(t.beta),
                "sign": t.coeff_sign.value,
                "parity": t.parity.value,
                "in_mms": tuple(t.beta) in mms,
            }
            for t in terms
        ],
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_check_conjecture(args) -> int:
    report = check_conjecture(args.deg, workers=args.workers, out_dir=args.out)
    print(json.dumps(report.to_json_dict(), indent=2))
    if not report.passed:
        print(
            f"[mms] dichotomy FAILED at 2d={args.deg}: "
            f"{len(report.counterexamples)} intermediate class(es)",
            file=sys.stderr,
        )
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    if args.replay is not None:
        sim, lat = replay(args.replay, args.out, workers=args.workers)
    else:
        if args.dim is None or args.deg is None:
            raise ValueError("pipeline requires --dim and --deg (or --replay)")
        sim, lat = run_pipeline(
            n=args.dim,
            two_d=args.deg,
            mode=args.mode,
            workers=args.workers,
            out_dir=args.out,
            seed=args.seed,
            count=args.count,
        )
    print(json.dumps(stats_json([sim, lat]), indent=2))
    return EXIT_OK


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "sample": _cmd_sample,
    "mms": _cmd_mms,
    "canon": _cmd_canon,
    "stats": _cmd_stats,
    "export": _cmd_export,
    "check-sos": _cmd_check_sos,
    "check-conjecture": _cmd_check_conjecture,
    "pipeline": _cmd_pipeline,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        return EXIT_OK
    except (HypothesisViolation, ValueError, KeyError) as exc:
        print(f"mms: error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except AssertionError as exc:
        print(f"mms: data integrity error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"mms: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"mms: error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
