"""Command-line front end.

Subcommands: optimize, verify, classical, generate, cost.  Formats: text
(default), json, csv.  Exit codes: 0 ok, 1 verification failure, 2 parse
or usage error, 3 size limit exceeded, 4 internal fault.  The exception's
type decides (see errors): a refusal of input is a QmuxError and prints
one `error:` line, and any other exception is a fault of the program,
whose traceback goes to stderr.  A warning prints as one `warning:` line.

Every report embeds a manifest (tool version, command, inputs, config,
seed, wall time) so runs can be reproduced.

Only the modules every subcommand uses are imported here; each _cmd_*
imports its own, so a run loads only what its subcommand needs.  Every
call goes through its module's attribute at call time, so a wrapper set
on that attribute sees it.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys
import time
import warnings

from . import __version__, blocksearch, jsonout
from .errors import ParseError, QmuxError, SizeLimitExceeded, parse_count

VERIFY_TOLERANCE = 1e-9
# verify computes each of the 2^m input states' operator from the active
# targets, O(4^m) in all: 18.2 s at m = 14 on a 2-core Xeon, about 4x per
# further control.
VERIFY_LIMIT = 14

_CLASSICAL_FAMILIES = {
    "fpqf": blocksearch.FPRM,
    "fprm": blocksearch.FPRM,
    "kqf": blocksearch.KRM,
    "krm": blocksearch.KRM,
}


def _non_negative(text: str) -> int:
    """argparse type for --seed and --top: ASCII digits only, as every count
    of the input (errors.parse_count).  A negative count would slice from
    the end, and a seed is a non-negative int (see search.SearchConfig)."""
    return _integer(text, signed=False)


def _integer(text: str, signed: bool = True) -> int:
    """argparse type for --samples, --controls and --output-index: ASCII
    digits after an optional '-', so a negative value reaches the check
    that names it."""
    value = parse_count(text, signed)
    if value is None:
        raise argparse.ArgumentTypeError(
            f"want {'an' if signed else 'a non-negative'} integer, got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmuxopt",
        description="Optimize quantum multiplexers and classical XOR forms "
        "over fixed and mixed control polarities.",
    )
    parser.add_argument("--version", action="version", version=f"qmuxopt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text",
            help="report format (default: text)",
        )
        p.add_argument("--out", help="write the report to a file instead of stdout")

    p_opt = sub.add_parser("optimize", help="search polarities of a .qmux multiplexer")
    p_opt.add_argument("input", help=".qmux file (standard form)")
    p_opt.add_argument("--family", choices=("fpqf", "kqf"), default="fpqf")
    p_opt.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p_opt.add_argument("--samples", type=_integer, default=1, help="random-mode draw count")
    p_opt.add_argument("--seed", type=_non_negative, default=0, help="random-mode seed")
    add_format(p_opt)

    p_ver = sub.add_parser(
        "verify", help="check a polarity preserves the semantics",
        description=f"Check a polarity keeps the semantics; limited to {VERIFY_LIMIT} controls.",
    )
    p_ver.add_argument("input", help=".qmux file (standard form)")
    p_ver.add_argument("polarity", help="polarity digit string")
    p_ver.add_argument(
        "--transformed",
        help="externally produced polarized .qmux to check instead of "
        "transforming the input",
    )
    add_format(p_ver)

    p_cls = sub.add_parser(
        "classical", help="rank classical polarities of a Boolean function by literal cost"
    )
    p_cls.add_argument(
        "input", help=".pla file, or a binary/hex minterm string like 01101111 / 0x6F"
    )
    p_cls.add_argument(
        "--family", choices=sorted(_CLASSICAL_FAMILIES), default="fprm",
        help="fprm/fpqf: fixed polarities; krm/kqf: mixed allowed",
    )
    p_cls.add_argument("--output-index", type=_integer, default=0)
    p_cls.add_argument(
        "--top", type=_non_negative, help="only print the cheapest N polarities"
    )
    add_format(p_cls)

    p_gen = sub.add_parser("generate", help="write a seeded random .qmux multiplexer")
    p_gen.add_argument("--controls", type=_integer, required=True)
    p_gen.add_argument(
        "--pool", default="full", help="full, nvv, or custom:<comma-separated tokens>"
    )
    p_gen.add_argument("--seed", type=_non_negative, default=0)
    p_gen.add_argument("--out", required=True, help="output path (.qmux or .json)")

    p_cost = sub.add_parser("cost", help="cost report for a .qmux multiplexer as-is")
    p_cost.add_argument("input", help=".qmux file (any form)")
    add_format(p_cost)

    return parser


def _report(args, started: float, inputs, config: dict, text, json_body, csv, seed=None) -> None:
    """Write the report in args.format to args.out, or to stdout, through
    jsonout, the one writer, in writes of bounded length.

    The report owns its manifest: the command, inputs, config and seed,
    and the wall time since `started`, stamped here before any body is
    built.  The bodies are callables that build the text pieces, the JSON
    dict and the CSV pieces; only the one the format asks for runs.  Text
    and CSV bodies yield pieces that end in a newline, or a line a piece
    at a time.  JSON goes through jsonout.write_json, then a newline: the
    bytes are those of the body dumped by the json module with indent 2,
    each jsonout.Table as its list of row dicts."""
    manifest = {
        "tool": "qmuxopt",
        "version": __version__,
        "command": args.command,
        "inputs": list(inputs),
        "config": config,
        "seed": seed,
        "wall_time_s": time.perf_counter() - started,
    }
    if args.out:
        stream = jsonout.open_file(args.out, "w")
    else:
        stream = contextlib.nullcontext(sys.stdout)
    with stream as fh:
        if args.format == "json":
            jsonout.write_json(fh, {"manifest": manifest, **json_body()})
            jsonout.write(fh, ["\n"])
            return
        settings = " ".join(f"{k}={v}" for k, v in config.items())
        head = (
            f"# qmuxopt {__version__} {args.command}\n"
            f"# inputs: {', '.join(manifest['inputs']) or '-'}\n"
            f"# config: {settings or '-'}\n"
            f"# seed: {'-' if seed is None else seed}\n"
            f"# wall-time-s: {manifest['wall_time_s']:.6f}\n"
        )
        body = csv() if args.format == "csv" else itertools.chain(["\n"], text())
        jsonout.write(fh, itertools.chain([head], body))


def _cmd_optimize(args) -> int:
    from . import cost, mux, muxio
    from . import search as search_mod

    started = time.perf_counter()
    std = muxio.load_qmux(args.input)
    cfg = search_mod.SearchConfig(
        family=args.family, mode=args.mode, samples=args.samples, seed=args.seed
    )
    report = search_mod.run_search(std, cfg)
    if args.format != "csv":  # the CSV row holds only the search summary
        # One pass over the best form's chunks: each chunk's tail runs once,
        # and its identity decisions are recorded as its tokens are made;
        # the cost report is priced from them after the targets are written.
        best = mux.forward_transform(std, report.best_polarity)
        chunks, best_cost_report = cost.streamed_cost(best)
        tokens = muxio.target_tokens(best, chunks)

    def text():
        yield (
            f"controls: {report.controls}\n"
            f"original cost: {report.original_cost}\n"
            f"best polarity: {report.best_polarity}   cost: {report.best_cost}"
            f"   ({100.0 * report.best_reduction:.1f}% reduction)\n"
            f"worst polarity: {report.worst_polarity}   cost: {report.worst_cost}\n"
            f"average cost: {report.average_cost:.2f}"
            f"   ({100.0 * report.average_reduction:.1f}% average reduction)\n"
            f"polarities evaluated: {report.polarities_evaluated}\n"
            f"search time: {report.elapsed:.3f} s\n"
            "\n"
            "transformed targets (best polarity):\n "
        )
        yield from (" " + " ".join(batch) for batch in tokens)  # "  I X ..." a batch a piece
        yield "\n\ncost breakdown (best polarity):\n" + best_cost_report().format_table() + "\n"

    def body_json():
        return {
            "search": report.to_json_dict(),
            "best_targets": tokens,
            "best_cost_report": lambda: best_cost_report().to_json_dict(),
        }

    def csv_lines():
        return ["controls,original,best,worst,average,reduction_pct\n" + report.csv_row() + "\n"]

    seed = args.seed if args.mode == "random" else None
    config = {"family": args.family, "mode": args.mode, "samples": args.samples}
    _report(args, started, [args.input], config, text, body_json, csv_lines, seed)
    return 0


def _cmd_verify(args) -> int:
    from . import mux, muxio

    started = time.perf_counter()
    std = muxio.load_qmux(args.input)
    if std.controls > VERIFY_LIMIT:
        raise SizeLimitExceeded(
            f"verify is limited to {VERIFY_LIMIT} controls, got {std.controls}"
        )
    inputs = [args.input]
    if args.transformed:
        transformed = muxio.load_qmux(args.transformed)
        inputs.append(args.transformed)
        if transformed.form == mux.STANDARD:
            raise ParseError(
                "transformed file is in standard form", args.transformed
            )
        if transformed.polarity != args.polarity:
            raise ParseError(
                f"transformed file carries polarity {transformed.polarity}, "
                f"expected {args.polarity}",
                args.transformed,
            )
        if transformed.controls != std.controls:
            raise ParseError(
                f"transformed file has {transformed.controls} controls, "
                f"the input has {std.controls}",
                args.transformed,
            )
    else:
        transformed = mux.forward_transform(std, args.polarity)
    deviation = mux.max_semantic_deviation(std, transformed)
    ok = deviation <= VERIFY_TOLERANCE

    verdict = "PASS" if ok else "FAIL"
    _report(
        args,
        started,
        inputs,
        {"polarity": args.polarity},
        lambda: [f"max deviation: {deviation:.3e}\n{verdict}\n"],
        lambda: {"polarity": args.polarity, "max_deviation": deviation, "pass": ok},
        lambda: [f"polarity,max_deviation,pass\n{args.polarity},{deviation:.3e},{ok}\n"],
    )
    return 0 if ok else 1


def _load_classical_input(text: str, output_index: int, family: str):
    """(function, path or None); a PLA's size limit is checked before its
    2^n minterm vector is built, and the output index, against a PLA's
    outputs or a minterm string's one, before either function is built."""
    from . import boolrm

    cover = None
    if os.path.exists(text) or text.lower().endswith(".pla"):
        from . import pla

        cover = pla.load_pla(text)
        blocksearch.check_size(family, cover.num_inputs)
    outputs = 1 if cover is None else cover.num_outputs
    if not 0 <= output_index < outputs:
        raise ParseError(f"output index {output_index} out of range 0..{outputs - 1}", text)
    if cover is not None:
        return pla.to_bool_func(cover, output_index), text
    return boolrm.BoolFunc.from_string(text), None


def _cmd_classical(args) -> int:
    from . import boolrm

    started = time.perf_counter()
    family = _CLASSICAL_FAMILIES[args.family]
    func, path = _load_classical_input(args.input, args.output_index, family)
    ranked = boolrm.rm_search(func, family)
    if args.top is not None:
        ranked = ranked[: args.top]

    _report(
        args,
        started,
        [path or args.input],
        {
            "family": family,
            "variables": func.num_vars,
            "output_index": args.output_index if path else None,
        },
        lambda: _ranked_lines(ranked),
        lambda: {"family": family, "num_vars": func.num_vars, "ranked": _ranked_json(ranked)},
        lambda: _ranked_lines(ranked),
    )
    return 0


def _ranked_batches(ranked):
    """The ranking's rows (a boolrm.Ranking, a view over its cost and order
    arrays) in batches of as many as fill one write at the width of its
    text row, named only when the writer reaches them."""
    width = len(f"{'0' * ranked.num_vars},{ranked.costs.max(initial=0)}\n")
    return ranked.batches(jsonout.rows_per_write(width))


def _ranked_lines(ranked):
    """Text and CSV body of a classical ranking: its header, then one
    piece per batch of rows, each batch's lines made by one %-template."""
    yield "polarity,cost\n"
    for batch in _ranked_batches(ranked):
        yield jsonout.format_rows("%s,%d\n", batch)


def _ranked_json(ranked) -> jsonout.Table:
    """JSON body of a classical ranking: a Table made a batch of rows at a
    time, as the writer reaches each batch."""
    return jsonout.Table(("polarity", "cost"), batches=_ranked_batches(ranked))


def _cmd_generate(args) -> int:
    from . import muxio, randmux

    pool = randmux.resolve_pool(args.pool)
    generated = randmux.generate(args.controls, pool, args.seed)
    muxio.save_qmux(generated, args.out)
    print(
        f"wrote {args.out}: {args.controls} controls, "
        f"{generated.num_targets} targets, pool {pool.name}, seed {args.seed}"
    )
    return 0


def _cmd_cost(args) -> int:
    from . import cost, muxio

    started = time.perf_counter()
    loaded = muxio.load_qmux(args.input)
    report = cost.multiplexer_cost(loaded)

    def csv_lines():
        yield "gate,controls,cost\n"
        for batch in report.batches():
            yield jsonout.format_rows("%d,%d,%d\n", [column.tolist() for column in batch])
        yield f"# total: {report.total}\n# skipped_identities: {report.skipped_identities}\n"

    _report(
        args,
        started,
        [args.input],
        {"form": loaded.describe()},
        lambda: [report.format_table() + "\n"],
        lambda: {"form": loaded.describe(), "cost_report": report.to_json_dict()},
        csv_lines,
    )
    return 0


_DISPATCH = {
    "optimize": _cmd_optimize,
    "verify": _cmd_verify,
    "classical": _cmd_classical,
    "generate": _cmd_generate,
    "cost": _cmd_cost,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    shown = warnings.formatwarning  # restored below: main may run inside a longer process
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        return _DISPATCH[args.command](args)
    except SizeLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (QmuxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a fault of the program, not of its input
        import traceback

        traceback.print_exc()
        return 4
    finally:
        warnings.formatwarning = shown


if __name__ == "__main__":
    sys.exit(main())
