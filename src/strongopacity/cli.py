"""Command-line interface.

Subcommands:

* ``verify --notion {k-sso|cso|scso|siso|inf-sso} [--k N] MODEL``
* ``enforce --notion {...} [--k N] MODEL [--out SUBSYSTEM] [--emit-ec FILE]``
* ``export --structure {observer|cc-hat|cc-obs|cc-dss} MODEL --out FILE``
* ``bound MODEL``

Exit codes: 0 = opaque/enforced, 1 = not opaque/impossible, 2 = usage or
model error. Output is deterministic for a fixed input.
"""

from __future__ import annotations

import argparse
import contextlib
import decimal
import functools
import os
import sys
from typing import Sequence

from .automaton import Nfa, Run
from .composition import _release, cc_dss, cc_full_observer, cc_hat
from .enforcement import (
    Enforced,
    EnforcementOutcome,
    enforce_inf_sso,
    enforce_k_sso,
    enforce_scso,
    enforce_siso,
)
from .errors import OpacityError
from .modelio import export_graph, parse_model, serialize_model
from .observer import subset_construction
from .verification import (
    CSO,
    INF_SSO,
    K_SSO,
    SCSO,
    SISO,
    Verdict,
    effective_k_bound,
    verify_cso,
    verify_inf_sso,
    verify_k_sso,
    verify_scso,
    verify_siso,
)

USAGE_ERROR = 2


def _notion_table() -> dict:
    """Each notion's verifier, its enforcer and whether both take K, in the
    order ``--notion`` lists them. Built per call, so the functions are looked
    up when used (a replaced module function is the one called)."""
    return {
        K_SSO: (verify_k_sso, enforce_k_sso, True),
        CSO: (verify_cso, lambda model: enforce_k_sso(model, 0), False),
        SCSO: (verify_scso, enforce_scso, False),
        SISO: (verify_siso, enforce_siso, False),
        INF_SSO: (verify_inf_sso, enforce_inf_sso, False),
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of this process: building one costs far more than a
    parse, and parsing leaves it unchanged (each call gets a new namespace,
    and its messages go to the streams current at that call)."""
    parser = argparse.ArgumentParser(
        prog="strongopacity",
        description="Verify and enforce strong state-based opacity of partially-observed NFAs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="decide an opacity notion")
    verify.add_argument("--notion", required=True, choices=tuple(_notion_table()))
    verify.add_argument("--k", type=int, default=None, help="step budget for k-sso")
    verify.add_argument("model", metavar="MODEL")

    enforce = sub.add_parser("enforce", help="synthesize a disabled-transition set")
    enforce.add_argument("--notion", required=True, choices=tuple(_notion_table()))
    enforce.add_argument("--k", type=int, default=None, help="step budget for k-sso")
    enforce.add_argument("--out", default=None, help="write the enforced subsystem model here")
    enforce.add_argument("--emit-ec", default=None, help="write the disabled transitions here")
    enforce.add_argument("model", metavar="MODEL")

    export = sub.add_parser("export", help="export an intermediate structure as DOT")
    export.add_argument(
        "--structure", required=True, choices=("observer", "cc-hat", "cc-obs", "cc-dss")
    )
    export.add_argument("--out", required=True)
    export.add_argument("model", metavar="MODEL")

    bound = sub.add_parser("bound", help="print the effective K bound")
    bound.add_argument("model", metavar="MODEL")

    return parser


def _checked_k(parser: argparse.ArgumentParser, args, model: Nfa) -> int:
    if args.k is None:
        parser.error("--k is required for --notion k-sso")
    if args.k < 0:
        parser.error("--k must be non-negative")
    bound = effective_k_bound(model)
    if args.k > bound:
        print(
            f"notice: K={args.k} exceeds the effective bound {bound}; "
            "beyond the bound the verdict no longer changes",
            file=sys.stderr,
        )
    return args.k


def _format_witness(run: Run) -> str:
    text = run.start
    for event, target in run.steps:
        text += f" -({event})-> {target}"
    return text


def _print_verdict(verdict: Verdict) -> int:
    print("OPAQUE" if verdict.opaque else "NOT OPAQUE")
    if verdict.witness is not None:
        print(f"witness: {_format_witness(verdict.witness)}")
    return 0 if verdict.opaque else 1


def _write_files(*files: tuple[str | None, bytes]) -> None:
    """Write each (path, data) that has a path, in turn. When one fails, the
    files this call created are removed before the error propagates, so a
    failed command leaves no new file behind; a path that existed before (a
    file it overwrote, a device, a pipe, a link) is never removed."""
    created: list[str] = []
    try:
        for path, data in files:
            if path:
                new = not os.path.lexists(path)
                with open(path, "wb") as handle:
                    if new:
                        created.append(path)
                    handle.write(data)
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _print_outcome(outcome: EnforcementOutcome, args, model: Nfa) -> int:
    if isinstance(outcome, Enforced):
        # The cut lines, in natural order. The files are written first, so a
        # failed write prints no cut.
        cut = model._sort_transitions(outcome.disabled)
        text = "".join(f"{src} -{event}-> {dst}\n" for src, event, dst in cut)
        _write_files(
            (args.emit_ec, text.encode("utf-8")),
            (args.out, serialize_model(outcome.subsystem) if args.out else b""),
        )
        sys.stdout.write(text)
        return 0
    print("IMPOSSIBLE")
    print(f"witness: {_format_witness(outcome.witness)}")
    return 1


def run_cli(argv: Sequence[str] | None = None) -> int:
    """Dispatch one CLI invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with open(args.model, "rb") as handle:
            model = parse_model(handle.read())
        if args.command in ("verify", "enforce"):
            verifier, enforcer, takes_k = _notion_table()[args.notion]
            if args.k is not None and not takes_k:
                parser.error("--k applies only to --notion k-sso")
            k = (_checked_k(parser, args, model),) if takes_k else ()
            if args.command == "verify":
                return _print_verdict(verifier(model, *k))
            return _print_outcome(enforcer(model, *k), args, model)
        if args.command == "export":
            structure = {
                "observer": subset_construction,
                "cc-hat": cc_hat,
                "cc-obs": cc_full_observer,
                "cc-dss": cc_dss,
            }[args.structure](model)
            with open(args.out, "w", encoding="utf-8") as handle:
                export_graph(structure, handle)
            return 0
        if args.command == "bound":
            # ``str`` of an int longer than the interpreter's digit limit
            # raises; a Decimal prints every digit.
            print(decimal.Decimal(effective_k_bound(model)))
            return 0
    except SystemExit as exc:  # parser.error() on a --k misuse
        return int(exc.code or 0)
    except (OpacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    finally:
        # Each command parses its model afresh, so no later command can hit
        # the operand slot: emptying it frees this command's model.
        _release()
    return USAGE_ERROR


def main() -> None:
    sys.exit(run_cli())
