"""Command-line front end.

Exit codes: 0 = affirmative/success, 1 = negative verdict (non-planar,
leaks, not extra-planar, ...), 2 = usage or parse error, or output that
cannot be written (a closed pipe too), 3 = internal invariant violation or
any other unexpected exception (named on stderr with the subcommand,
without a traceback).  Negative mathematical verdicts are results, not
failures, so shell pipelines can branch on them.

The argument parser is built once, when the module is imported, and every
``run`` parses with it: help text, usage errors and parsed arguments all
come from that one parser.  Parsing keeps no state between calls; each
call gets a fresh namespace.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from . import jsonio
from .errors import (GraphIsPlanar, GroupFlowError, HostTooLarge, InternalInvariantError, ParseError,
                     _clip)
from .flows import (
    LeakVerdict,
    detect_binary_leak,
    detect_leak,
    example_flow_k33,
    example_flow_k33_minus,
    example_flow_k5,
    synthesize_leaking_flow,
)
from .graphs import DEFAULT_HOST_BOUND, find_minor, named_graph
from .groupleak import build_delta, is_binary_leakproof_group, is_leakproof_group
from .groups import DEFAULT_MAX_ORDER, standard_group
from .planar import RotationSystem, euler_planar_check, extra_planar, faces, test_planarity

# each --model: its named graph, and whether that graph is planar (K5 and
# K3,3 are not; either less one edge is)
_MODELS = {
    "k5": ("complete:5", False),
    "k33": ("complete_bipartite:3,3", False),
    "k5minus": ("k5minus", True),
    "k33minus": ("k33minus", True),
}


def _read_json(path: str):
    return _read(path, jsonio.loads)


def _read_graph(path: str):
    return _read(path, jsonio.graph_from_text)


def _read(path: str, parse):
    """parse(the file's text); read and JSON syntax errors become ParseErrors."""
    try:
        return parse(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{_clip(path)}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}")
    except (OSError, UnicodeDecodeError) as exc:   # an OSError's text repeats the path
        raise ParseError(f"cannot read {_clip(path)}: {getattr(exc, 'strerror', None) or exc}")


def _emit(args, payload: dict, text: str) -> None:
    _write(args, jsonio.dumps(payload) if args.format == "json" else text)


def _write(args, out: str) -> None:
    """out to --output or stdout; a write error becomes a ParseError."""
    if not out.endswith("\n"):
        out += "\n"
    if not getattr(args, "output", None):
        try:
            sys.stdout.write(out)
            sys.stdout.flush()
        except OSError as exc:                      # a closed pipe, a full disk
            # what is still buffered goes to devnull, so the exit flush is quiet
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise ParseError(f"cannot write standard output: {exc.strerror or exc}")
        return
    try:
        Path(args.output).write_text(out)
    except OSError as exc:                          # an OSError's text repeats the path
        raise ParseError(f"cannot write {_clip(args.output)}: {exc.strerror or exc}")


def _cmd_planar(args) -> int:
    G = _read_graph(args.graph)
    result = test_planarity(G)
    if isinstance(result, RotationSystem):
        payload = {"planar": True, **jsonio.rotation_to_json(result)}
        _emit(args, payload, "planar")
        return 0
    model_name = "K5" if result.model.n == 5 else "K3,3"
    payload = {"planar": False, "witness": jsonio.witness_to_json(result)}
    _emit(args, payload, f"non-planar: contains a {model_name} minor")
    return 1


def _cmd_extra_planar(args) -> int:
    G = _read_graph(args.graph)
    verdict = extra_planar(G)
    if verdict.extra_planar:
        _write(args, jsonio.extra_planar_to_text(verdict.embeddings)
               if args.format == "json" else "extra-planar")
        return 0
    u, v = verdict.pair
    payload = {
        "extra_planar": False,
        "pair": [jsonio.vertex_str(u), jsonio.vertex_str(v)],
        "witness": jsonio.witness_to_json(verdict.witness),
    }
    _emit(args, payload, f"not extra-planar: adding ({u},{v}) is non-planar")
    return 1


def _cmd_minor(args) -> int:
    G = _read_graph(args.graph)
    name, model_planar = _MODELS[args.model]
    model = named_graph(name)
    bound = args.max_size or DEFAULT_HOST_BOUND
    if G.n > bound:
        raise HostTooLarge(G.n, bound)
    # a minor of a planar graph is planar, so a planar host has no non-planar
    # model; test_planarity returns only Euler-checked rotation systems
    if not model_planar and isinstance(test_planarity(G), RotationSystem):
        witness = None
    else:
        witness = find_minor(G, model, host_bound=bound)
    if witness is None:
        _emit(args, {"minor": False, "model": args.model}, f"no {args.model} minor")
        return 1
    payload = {"minor": True, "model": args.model, "witness": jsonio.witness_to_json(witness)}
    _emit(args, payload, f"{args.model} minor found")
    return 0


def _cmd_faces(args) -> int:
    G = _read_graph(args.graph)
    R = jsonio.rotation_from_json(_read_json(args.rotation), G)
    walks = faces(R)
    payload = {
        "faces": [[jsonio.vertex_str(x) for x in w] for w in walks],
        "euler_planar": euler_planar_check(R),
    }
    text = "\n".join(" ".join(map(str, w)) for w in walks) or "(no faces)"
    _emit(args, payload, text)
    return 0


def _cmd_check_flow(args) -> int:
    flow = jsonio.flow_from_json(_read_json(args.flow),
                                 max_order=args.max_size or DEFAULT_MAX_ORDER)
    if args.binary:
        u = jsonio._vertex_token(args.binary[0])
        v = jsonio._vertex_token(args.binary[1])
        value = detect_binary_leak(flow, u, v)
        if value is None:
            payload = {"kind": "NoBinaryLeak", "pair": [str(u), str(v)],
                       "reason": "flow is not tractable-and-conserving off the pair"}
            _emit(args, payload, "no binary leak (preconditions fail)")
            return 0
        name = flow.group.name(value)
        if value == flow.group.identity:
            _emit(args, {"kind": "NoBinaryLeak", "pair": [str(u), str(v)], "value": name},
                  "no binary leak: e(u)e(v) = 1")
            return 0
        _emit(args, {"kind": "BinaryLeakAt", "pair": [str(u), str(v)], "value": name},
              f"binary leak at ({u},{v}) with value {name}")
        return 1
    verdict = detect_leak(flow)
    payload = jsonio.leak_verdict_to_json(verdict, flow.group)
    _emit(args, payload, verdict.kind)
    return 0 if verdict.kind == LeakVerdict.CONSERVING else 1


def _cmd_leak_witness(args) -> int:
    G = _read_graph(args.graph)
    try:
        flow = synthesize_leaking_flow(G)
    except GraphIsPlanar:
        _emit(args, {"kind": "GraphIsPlanar"}, "graph is planar: no leaking flow exists")
        return 1
    verdict = detect_leak(flow)
    payload = jsonio.flow_to_json(flow)
    payload["verdict"] = jsonio.leak_verdict_to_json(verdict, flow.group)
    _emit(args, payload, f"leaking flow written (leaks at {verdict.vertex})")
    return 0


def _cmd_group(args, key: str, decide) -> int:
    """Build args.group and its Δ under the --max-size bound and emit whether
    the group has the property key; decide(G, delta) gives that, the
    witness fields when it has not, and the text verdict."""
    bound = args.max_size or DEFAULT_MAX_ORDER
    G = standard_group(args.group, max_order=bound)
    delta = build_delta(G, max_order=bound)
    holds, found, text = decide(G, delta)
    payload = {"group": args.group, key: holds,
               "delta_invariant_factors": delta.invariant_factors(), **found}
    _emit(args, payload, f"{args.group}: {text}")
    return 0 if holds else 1


def _leakproof_verdict(G, delta) -> tuple[bool, dict, str]:
    verdict = is_leakproof_group(G, delta=delta)
    if verdict.leakproof:
        return True, {}, "leak-proof"
    witness = G.name(verdict.witness)
    return False, {"witness": witness}, f"leaks at {witness}"


def _binary_leakproof_verdict(G, delta) -> tuple[bool, dict, str]:
    verdict = is_binary_leakproof_group(G, delta=delta)
    if verdict.injective:
        return True, {}, "binary leak-proof"
    return False, {"collision": [G.name(x) for x in verdict.collision]}, "not binary leak-proof"


def _cmd_examples(args) -> int:
    builders = {
        "k33": example_flow_k33,
        "k5": example_flow_k5,
        "k33minus": example_flow_k33_minus,
    }
    _, flow = builders[args.which]()
    _emit(args, jsonio.flow_to_json(flow), f"example flow {args.which}")
    return 0


def _add_common_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # subcommands get SUPPRESS defaults so a flag given before the
    # subcommand is not clobbered by the subparser's defaults
    default = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument("--format", "-f", choices=("json", "text"), default=default("json"),
                        help="output mode (default json)")
    parser.add_argument("--output", "-o", default=default(None),
                        help="write output to a file instead of stdout")
    parser.add_argument("--max-size", type=_positive_int, default=default(None),
                        help="override the group-order / minor-host bounds")


def _positive_int(text: str) -> int:
    """--max-size's value: a positive integer of at most 18 digits."""
    if not (text.isascii() and text.isdigit() and len(text) <= 18 and int(text) > 0):
        raise argparse.ArgumentTypeError(f"needs a positive integer below 10^18, got {text[:20]!r}")
    return int(text)


_GRAPH = (("graph",), {})
_GROUP = (("group",), {})

# (name, help, arguments, handler): the subcommands in the order --help lists them
_COMMANDS = (
    ("planar", "planarity with embedding or minor witness", (_GRAPH,), _cmd_planar),
    ("extra-planar", "is every single-edge addition planar?", (_GRAPH,), _cmd_extra_planar),
    ("minor", "search for a fixed minor",
     (_GRAPH, (("--model",), {"choices": sorted(_MODELS), "required": True})), _cmd_minor),
    ("faces", "boundary walks of a rotation system",
     (_GRAPH, (("rotation",), {})), _cmd_faces),
    ("check-flow", "validate a flow and classify its leak",
     ((("flow",), {}),
      (("--binary",), {"nargs": 2, "metavar": ("U", "V"),
                       "help": "check for a binary leak at the two vertices"})),
     _cmd_check_flow),
    ("leak-witness", "synthesize a leaking flow on a non-planar graph", (_GRAPH,),
     _cmd_leak_witness),
    ("group-leakproof", "decide leak-proofness of a finite group", (_GROUP,),
     lambda args: _cmd_group(args, "leakproof", _leakproof_verdict)),
    ("group-binary-leakproof", "decide binary leak-proofness", (_GROUP,),
     lambda args: _cmd_group(args, "binary_leakproof", _binary_leakproof_verdict)),
    ("examples", "emit one of the bundled example flows",
     ((("which",), {"choices": ("k33", "k5", "k33minus")}),), _cmd_examples),
)

def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, with one subcommand per entry of ``_COMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="groupflow",
        description="Group-valued graph flows: leak detection, certified planarity, leak-proof groups.",
    )
    _add_common_flags(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, arguments, handler in _COMMANDS:
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(func=handler)
    return parser


_PARSER = build_parser()


def run(argv: Optional[list[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except (ParseError, GroupFlowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error in {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
