"""Command-line front end.

Subcommands: optimize, verify, classical, generate, cost.  Formats: text
(default), json, csv.  Exit codes: 0 ok, 1 verification failure, 2 parse
or usage error, 3 size limit exceeded.

Every report embeds a manifest (tool version, command, inputs, config,
seed, wall time) so runs can be reproduced.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time

from . import __version__, blocksearch, boolrm, cost, jsonout, mux, muxio, pla, randmux
from . import search as search_mod
from .errors import ParseError, QmuxError, SizeLimitExceeded

VERIFY_TOLERANCE = 1e-9
# verify computes each of the 2^m input states' operator from the active
# targets, O(4^m) in all: 18.2 s at m = 14 on a 2-core Xeon, about 4x per
# further control.
VERIFY_LIMIT = 14

_CLASSICAL_FAMILIES = {
    "fpqf": boolrm.FPRM,
    "fprm": boolrm.FPRM,
    "kqf": boolrm.KRM,
    "krm": boolrm.KRM,
}


def _non_negative(text: str) -> int:
    """argparse type for counts and seeds: a negative count would slice from
    the end, and numpy's generator refuses a negative seed."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"want a non-negative integer, got {text!r}")
    return int(text)


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
    p_opt.add_argument("--samples", type=int, default=1, help="random-mode draw count")
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
    p_cls.add_argument("--output-index", type=int, default=0)
    p_cls.add_argument(
        "--top", type=_non_negative, help="only print the cheapest N polarities"
    )
    add_format(p_cls)

    p_gen = sub.add_parser("generate", help="write a seeded random .qmux multiplexer")
    p_gen.add_argument("--controls", type=int, required=True)
    p_gen.add_argument(
        "--pool", default="full", help="full, nvv, or custom:<comma-separated tokens>"
    )
    p_gen.add_argument("--seed", type=_non_negative, default=0)
    p_gen.add_argument("--out", required=True, help="output path (.qmux or .json)")

    p_cost = sub.add_parser("cost", help="cost report for a .qmux multiplexer as-is")
    p_cost.add_argument("input", help=".qmux file (any form)")
    add_format(p_cost)

    return parser


def _manifest(command: str, inputs, config: dict, seed=None) -> dict:
    return {
        "tool": "qmuxopt",
        "version": __version__,
        "command": command,
        "inputs": list(inputs),
        "config": config,
        "seed": seed,
        "wall_time_s": None,  # filled in just before emission
    }


def _manifest_lines(manifest: dict) -> list:
    config = " ".join(f"{k}={v}" for k, v in manifest["config"].items())
    return [
        f"# qmuxopt {manifest['version']} {manifest['command']}",
        f"# inputs: {', '.join(manifest['inputs']) or '-'}",
        f"# config: {config or '-'}",
        f"# seed: {manifest['seed'] if manifest['seed'] is not None else '-'}",
        f"# wall-time-s: {manifest['wall_time_s']:.6f}",
    ]


def _report(args, manifest: dict, text_lines, json_body, csv_lines) -> None:
    """Write the report in args.format to args.out, or to stdout.  The
    bodies are callables that build the text lines, the JSON dict and the
    CSV lines; only the one the format asks for runs.  JSON goes through
    jsonout.write_json, which streams it into the file a batch of keys,
    list items and table rows at a time, never as one string; the bytes
    are those of json.dumps(body, indent=2), with each jsonout.Table as
    its list of row dicts."""
    if args.out:
        stream = open(args.out, "w", encoding="utf-8")
    else:
        stream = contextlib.nullcontext(sys.stdout)
    with stream as fh:
        if args.format == "json":
            jsonout.write_json(fh, {"manifest": manifest, **json_body()})
        elif args.format == "csv":
            fh.write("\n".join(_manifest_lines(manifest) + csv_lines()))
        else:
            fh.write("\n".join(_manifest_lines(manifest) + [""] + text_lines()))
        fh.write("\n")


def _cmd_optimize(args) -> int:
    started = time.perf_counter()
    std = muxio.load_qmux(args.input)
    cfg = search_mod.SearchConfig(
        family=args.family, mode=args.mode, samples=args.samples, seed=args.seed
    )
    report = search_mod.run_search(std, cfg)
    if args.format != "csv":  # the CSV row holds only the search summary
        best = mux.forward_transform(std, report.best_polarity)
        best_cost_report = cost.multiplexer_cost(best)
        tokens = muxio.target_tokens(best)

    manifest = _manifest(
        "optimize",
        [args.input],
        {"family": args.family, "mode": args.mode, "samples": args.samples},
        seed=args.seed if args.mode == "random" else None,
    )
    manifest["wall_time_s"] = time.perf_counter() - started

    def text():
        return [
            f"controls: {report.controls}",
            f"original cost: {report.original_cost}",
            f"best polarity: {report.best_polarity}   cost: {report.best_cost}"
            f"   ({100.0 * report.best_reduction:.1f}% reduction)",
            f"worst polarity: {report.worst_polarity}   cost: {report.worst_cost}",
            f"average cost: {report.average_cost:.2f}"
            f"   ({100.0 * report.average_reduction:.1f}% average reduction)",
            f"polarities evaluated: {report.polarities_evaluated}",
            f"search time: {report.elapsed:.3f} s",
            "",
            "transformed targets (best polarity):",
            "  " + " ".join(tokens),
            "",
            "cost breakdown (best polarity):",
            best_cost_report.format_table(),
        ]

    def body_json():
        return {
            "search": report.to_json_dict(),
            "best_targets": tokens,
            "best_cost_report": best_cost_report.to_json_dict(),
        }

    def csv_lines():
        return ["controls,original,best,worst,average,reduction_pct", report.csv_row()]

    _report(args, manifest, text, body_json, csv_lines)
    return 0


def _cmd_verify(args) -> int:
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

    manifest = _manifest("verify", inputs, {"polarity": args.polarity})
    manifest["wall_time_s"] = time.perf_counter() - started
    verdict = "PASS" if ok else "FAIL"
    _report(
        args,
        manifest,
        lambda: [f"max deviation: {deviation:.3e}", verdict],
        lambda: {"polarity": args.polarity, "max_deviation": deviation, "pass": ok},
        lambda: ["polarity,max_deviation,pass", f"{args.polarity},{deviation:.3e},{ok}"],
    )
    return 0 if ok else 1


def _load_classical_input(text: str, output_index: int, family: str):
    """(function, path or None); a PLA's size limit is checked before its
    2^n minterm vector is built."""
    if os.path.exists(text) or text.lower().endswith(".pla"):
        cover = pla.load_pla(text)
        blocksearch.check_size(family, cover.num_inputs)
        return pla.to_bool_func(cover, output_index), text
    if output_index != 0:
        raise ParseError(f"output index {output_index} out of range 0..0 (one output)", text)
    return boolrm.BoolFunc.from_string(text), None


def _cmd_classical(args) -> int:
    started = time.perf_counter()
    family = _CLASSICAL_FAMILIES[args.family]
    try:
        func, path = _load_classical_input(args.input, args.output_index, family)
    except ValueError as exc:
        raise ParseError(str(exc), args.input)
    ranked = boolrm.rm_search(func, family)
    if args.top is not None:
        ranked = ranked[: args.top]

    manifest = _manifest(
        "classical",
        [path or args.input],
        {
            "family": family,
            "variables": func.num_vars,
            "output_index": args.output_index if path else None,
        },
    )
    manifest["wall_time_s"] = time.perf_counter() - started

    _report(
        args,
        manifest,
        lambda: _ranked_lines(ranked),
        lambda: {"family": family, "num_vars": func.num_vars, "ranked": _ranked_json(ranked)},
        lambda: _ranked_lines(ranked),
    )
    return 0


def _ranked_lines(ranked) -> list:
    """Text and CSV body of a classical ranking."""
    return ["polarity,cost"] + [f"{p},{c}" for p, c in ranked]


def _ranked_json(ranked) -> jsonout.Table:
    """JSON body of a classical ranking."""
    return jsonout.Table(("polarity", "cost"), ([p for p, _ in ranked], [c for _, c in ranked]))


def _cmd_generate(args) -> int:
    pool = randmux.resolve_pool(args.pool)
    generated = randmux.generate(args.controls, pool, args.seed)
    muxio.save_qmux(generated, args.out)
    print(
        f"wrote {args.out}: {args.controls} controls, "
        f"{generated.num_targets} targets, pool {pool.name}, seed {args.seed}"
    )
    return 0


def _cmd_cost(args) -> int:
    started = time.perf_counter()
    loaded = muxio.load_qmux(args.input)
    report = cost.multiplexer_cost(loaded)
    manifest = _manifest("cost", [args.input], {"form": loaded.describe()})
    manifest["wall_time_s"] = time.perf_counter() - started

    def csv_lines():
        return ["gate,controls,cost"] + [f"{i},{c},{k}" for i, c, k in report.rows()] + [
            f"# total: {report.total}", f"# skipped_identities: {report.skipped_identities}"
        ]

    _report(
        args,
        manifest,
        lambda: [report.format_table()],
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
    try:
        return _DISPATCH[args.command](args)
    except SizeLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (QmuxError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
