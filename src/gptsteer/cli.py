"""Command-line front end.

Every command emits a run report: schema tag, the command line it
answered, a digest of the parsed inputs, the result payload, and the
exit status it is about to return. Exit codes are strict: 0 the checked
property holds, 1 it is refuted (a certificate rides along), 2 the
input or usage was bad, 3 an internal audit failed. The library audits
every verdict's witness or certificate before returning it, and a
failed audit raises VerificationError, also under ``python -O``; the
CLI then prints the error, no report, and exits 3, so a printed report
never outruns its evidence and a bug is never reported as a refutation.
Verbosity comes from the GPTSTEER_LOG environment variable (a logging
level name); output is canonical JSON unless --out text asks for a
short human summary.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import os
import sys

from . import serialize as sz
from .compatibility import check_joint_measurability, jm_noise_threshold
from .composites import (conditional_state, is_separable, joint_probability,
                         marginal, max_tensor_violation)
from .errors import SchemaError, VerificationError
from .kernel import Effect, extremal_effects, is_valid_effect, zoo_by_name, zoo_names
from .ratio import format_ratio, parse_ratio
from .sampler import SamplerConfig
from .steering import check_lhs, theorem_verify

log = logging.getLogger("gptsteer")

EXIT_HOLDS = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _digest(inputs) -> str:
    return hashlib.sha256(sz.dumps_canonical(inputs).encode()).hexdigest()


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return sz.load_json(handle.read())


def _space_from_flags(args):
    """The state space named by --model or stored behind --model-file."""
    if getattr(args, "model", None) and getattr(args, "model_file", None):
        raise SchemaError("give --model or --model-file, not both")
    if getattr(args, "model", None):
        return zoo_by_name(args.model)
    if getattr(args, "model_file", None):
        return sz.space_from_json(_read_json(args.model_file))
    return None


def _emit(args, result, exit_status: int, text_lines) -> int:
    report = {"schema": sz.SCHEMA,
              "command": ["gptsteer"] + list(args.echo),
              "inputs_digest": args.digest,
              "result": result,
              "exit_status": exit_status}
    if args.out == "json":
        sys.stdout.write(sz.dumps_canonical(report))
    else:
        for line in text_lines:
            print(line)
    return exit_status


def _cmd_zoo(args) -> int:
    if args.zoo_command == "list":
        names = list(zoo_names())
        args.digest = _digest({"zoo": "list"})
        return _emit(args, {"models": names}, EXIT_HOLDS, names)
    space = zoo_by_name(args.name)
    effects = extremal_effects(space)
    args.digest = _digest({"zoo": args.name})
    result = {"space": sz.space_to_json(space),
              "vertex_count": len(space.vertices),
              "extremal_effects": [sz.vec_to_json(e.coeffs) for e in effects],
              "extremal_effect_count": len(effects)}
    lines = [f"{space.label}: {len(space.vertices)} vertices, "
             f"{len(effects)} extremal effects"]
    lines += ["vertex " + " ".join(map(format_ratio, v)) for v in space.vertices]
    lines += ["effect " + " ".join(map(format_ratio, e.coeffs)) for e in effects]
    return _emit(args, result, EXIT_HOLDS, lines)


def _load_observables(args):
    doc = _read_json(args.obs_file)
    return sz.observables_doc_from_json(doc, _space_from_flags(args))


def _cmd_check_jm(args) -> int:
    space, observables = _load_observables(args)
    log.info("deciding joint measurability of %d observables on %s",
             len(observables), space.label)
    result = check_joint_measurability(observables, space)
    args.digest = _digest({"observables": sz.observables_doc_to_json(space, observables)})
    status = EXIT_HOLDS if result.jointly_measurable else EXIT_REFUTED
    lines = [f"status: {result.status}"]
    if result.certificate is not None:
        lines.append("certificate: " + " ".join(map(format_ratio, result.certificate)))
    return _emit(args, sz.jm_result_to_json(result), status, lines)


def _cmd_jm_threshold(args) -> int:
    space, observables = _load_observables(args)
    precision = parse_ratio(args.precision)
    lo, hi = jm_noise_threshold(observables, space, precision)
    args.digest = _digest({"observables": sz.observables_doc_to_json(space, observables),
                           "precision": format_ratio(precision)})
    result = {"lo": format_ratio(lo), "hi": format_ratio(hi),
              "precision": format_ratio(precision)}
    lines = [f"bracket: [{format_ratio(lo)}, {format_ratio(hi)}]"]
    return _emit(args, result, EXIT_HOLDS, lines)


def _cmd_check_lhs(args) -> int:
    assemblage = sz.assemblage_doc_from_json(_read_json(args.asm_file),
                                             _space_from_flags(args))
    result = check_lhs(assemblage)
    args.digest = _digest({"assemblage": sz.assemblage_doc_to_json(assemblage)})
    status = EXIT_HOLDS if result.unsteerable else EXIT_REFUTED
    lines = [f"status: {result.status}"]
    if result.functional is not None:
        for x, row in enumerate(result.functional):
            for k, f in enumerate(row):
                lines.append(f"functional[{assemblage.settings[x]}]["
                             f"{assemblage.outcomes[x][k]}]: "
                             + " ".join(map(format_ratio, f)))
    return _emit(args, sz.lhs_result_to_json(result), status, lines)


def _cmd_theorem_verify(args) -> int:
    space = _space_from_flags(args)
    if space is None:
        raise SchemaError("theorem-verify needs --model or --model-file")
    config = SamplerConfig(seed=args.seed)
    log.info("running %d equivalence trials on %s with seed %d",
             args.trials, space.label, args.seed)
    report = theorem_verify(space, args.trials, config,
                            extra_states_per_jm_trial=args.extra_states)
    args.digest = _digest({"space": sz.space_to_json(space),
                           "trials": args.trials, "seed": args.seed,
                           "extra_states": args.extra_states})
    status = EXIT_HOLDS if report.all_agree else EXIT_REFUTED
    lines = [f"trials: {len(report.trials)}",
             f"disagreements: {report.disagreements}",
             f"extra_failures: {report.extra_failures}"]
    return _emit(args, sz.theorem_report_to_json(report), status, lines)


def _cmd_tensor(args) -> int:
    state = sz.bipartite_doc_from_json(_read_json(args.state_file))
    args.digest = _digest({"state": sz.bipartite_doc_to_json(state),
                           "tensor": args.tensor_command,
                           "side": getattr(args, "side", None),
                           "effect": getattr(args, "effect", None)})
    if args.tensor_command == "check-max":
        if not state.is_normalized:
            result = {"status": "not-in-max-tensor", "reason": "not normalized",
                      "violation": None}
            return _emit(args, result, EXIT_REFUTED, ["status: not normalized"])
        violation = max_tensor_violation(state)
        if violation is None:
            return _emit(args, {"status": "max-tensor-member", "reason": None,
                                "violation": None},
                         EXIT_HOLDS, ["status: max-tensor-member"])
        ea, eb = violation
        value = joint_probability(state, ea, eb)
        result = {"status": "not-in-max-tensor",
                  "reason": "negative on an effect pair",
                  "violation": {"effect_a": sz.vec_to_json(ea.coeffs),
                                "effect_b": sz.vec_to_json(eb.coeffs),
                                "value": format_ratio(value)}}
        return _emit(args, result, EXIT_REFUTED,
                     ["status: not-in-max-tensor",
                      f"value: {format_ratio(value)}"])
    if args.tensor_command == "check-sep":
        result = is_separable(state)
        status = EXIT_HOLDS if result.decomposition is not None else EXIT_REFUTED
        return _emit(args, sz.separability_result_to_json(result), status,
                     [f"status: {result.status}"])
    if args.tensor_command == "marginal":
        reduced = marginal(state, args.side)
        result = {"side": args.side, "state": sz.vec_to_json(reduced.coords)}
        return _emit(args, result, EXIT_HOLDS,
                     ["state " + " ".join(map(format_ratio, reduced.coords))])
    # conditional
    coeffs = sz.parse_effect_arg(args.effect)
    space = state.space_a if args.side == "A" else state.space_b
    if not is_valid_effect(coeffs, space):
        raise SchemaError("the given coefficients are not a valid effect "
                          f"on side {args.side}")
    prob, conditioned = conditional_state(state, Effect(coeffs), args.side)
    result = {"side": args.side, "effect": sz.vec_to_json(coeffs),
              "probability": format_ratio(prob),
              "state": sz.vec_to_json(conditioned.coords)}
    return _emit(args, result, EXIT_HOLDS,
                 [f"probability: {format_ratio(prob)}",
                  "state " + " ".join(map(format_ratio, conditioned.coords))])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gptsteer",
        description="Exact joint-measurability and steering checks on "
                    "polytopic models.")
    sub = parser.add_subparsers(dest="command", required=True)

    out_parent = argparse.ArgumentParser(add_help=False)
    out_parent.add_argument("--out", choices=("json", "text"), default="json",
                            help="report format (default json)")
    model_parent = argparse.ArgumentParser(add_help=False)
    model_parent.add_argument("--model", help="zoo model name")
    model_parent.add_argument("--model-file",
                              help="JSON file holding a state space")

    zoo = sub.add_parser("zoo", parents=[out_parent],
                         help="list built-in models or show one")
    zoo_sub = zoo.add_subparsers(dest="zoo_command", required=True)
    zoo_sub.add_parser("list", parents=[out_parent])
    zoo_show = zoo_sub.add_parser("show", parents=[out_parent])
    zoo_show.add_argument("name")
    zoo.set_defaults(handler=_cmd_zoo)

    check_jm = sub.add_parser("check-jm", parents=[out_parent, model_parent],
                              help="decide joint measurability of a family")
    check_jm.add_argument("--obs-file", required=True,
                          help="JSON observables document")
    check_jm.set_defaults(handler=_cmd_check_jm)

    threshold = sub.add_parser("jm-threshold", parents=[out_parent, model_parent],
                               help="bracket the critical depolarizing level")
    threshold.add_argument("--obs-file", required=True)
    threshold.add_argument("--precision", required=True,
                           help="bracket width as p/q")
    threshold.set_defaults(handler=_cmd_jm_threshold)

    check_lhs_p = sub.add_parser("check-lhs", parents=[out_parent, model_parent],
                                 help="decide unsteerability of an assemblage")
    check_lhs_p.add_argument("--asm-file", required=True,
                             help="JSON assemblage document")
    check_lhs_p.set_defaults(handler=_cmd_check_lhs)

    verify = sub.add_parser("theorem-verify", parents=[out_parent, model_parent],
                            help="compare joint measurability with "
                                 "unsteerability of the canonical state")
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--extra-states", type=int, default=0,
                        help="extra max-tensor states per compatible trial")
    verify.set_defaults(handler=_cmd_theorem_verify)

    tensor = sub.add_parser("tensor", parents=[out_parent],
                            help="composite-state operations")
    tensor_sub = tensor.add_subparsers(dest="tensor_command", required=True)
    for name in ("check-max", "check-sep"):
        t = tensor_sub.add_parser(name, parents=[out_parent])
        t.add_argument("--state-file", required=True)
    t_marginal = tensor_sub.add_parser("marginal", parents=[out_parent])
    t_marginal.add_argument("--state-file", required=True)
    t_marginal.add_argument("--side", choices=("A", "B"), required=True)
    t_conditional = tensor_sub.add_parser("conditional", parents=[out_parent])
    t_conditional.add_argument("--state-file", required=True)
    t_conditional.add_argument("--side", choices=("A", "B"), required=True)
    t_conditional.add_argument("--effect", required=True,
                               help="comma-separated rational coefficients")
    tensor.set_defaults(handler=_cmd_tensor)

    return parser


PARSER = build_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    level_name = os.environ.get("GPTSTEER_LOG", "")
    if level_name:
        level = getattr(logging, level_name.upper(), None)
        logging.basicConfig(
            level=level if isinstance(level, int) else logging.INFO,
            stream=sys.stderr,
            format="%(levelname)s %(name)s: %(message)s")
    args = PARSER.parse_args(argv)
    args.echo = list(argv)
    args.digest = None
    try:
        return args.handler(args)
    except (SchemaError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as err:
        print(f"error: internal audit failed: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
