"""Command-line front end.

Every subcommand reads its inputs through ``documents``, checks its
flags, calls the library and serialises the returned reports; no
arithmetic happens here.  Exit codes: 0 for a computed result (negative
verdicts included), 2 for malformed input and failed validation, 3 for
numerical failures.
"""
from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import geometry, stability
from .decomposition import validate_family
from .documents import (
    StabilityScenario,
    angle_pair,
    family_from_doc,
    load_doc,
    norm_to_doc,
    parse_grid,
    parse_norm_spec,
    parse_phi_spec,
    parse_vector,
    render_json,
    scenario_from_doc,
    subspace_pair_from_doc,
    to_jsonable,
    vectors_from_doc,
)
from .errors import BudgetError, ConvergenceError, DocumentError, SingularMatrixError
from .orlicz import delta2_margin, luxemburg_norm

_TEXT_SKIP = {"s_matrix", "witness", "witness_ab", "witness_ba"}


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _witness_ref(witness) -> str:
    blob = json.dumps(to_jsonable(witness), sort_keys=True).encode()
    return "sha1:" + hashlib.sha1(blob).hexdigest()[:16]


def _render_text(result: dict) -> str:
    if set(result.keys()) == {"value"}:
        return _fmt(result["value"]) + "\n"
    lines: list[str] = []

    def walk(prefix: str, node) -> None:
        if isinstance(node, dict):
            for k in node:
                if k in _TEXT_SKIP:
                    continue
                walk(f"{prefix}{k}." if prefix else f"{k}.", node[k]) if isinstance(
                    node[k], (dict, list)
                ) else lines.append(f"{prefix}{k}: {_fmt(node[k])}")
            return
        if isinstance(node, list):
            if len(node) > 16:
                lines.append(f"{prefix.rstrip('.')}: <{len(node)} entries>")
                return
            if all(not isinstance(v, (dict, list)) for v in node):
                lines.append(f"{prefix.rstrip('.')}: [" + ", ".join(_fmt(v) for v in node) + "]")
                return
            for i, v in enumerate(node):
                walk(f"{prefix.rstrip('.')}[{i}].", v)
            return
        lines.append(f"{prefix.rstrip('.')}: {_fmt(node)}")

    walk("", result)
    return "\n".join(lines) + "\n"


def _emit(args, command: str, result: object, *, csv_rows: tuple[list[str], list[list]] | None = None) -> None:
    if args.format == "csv":
        header, rows = csv_rows
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else (repr(v) if isinstance(v, float) else v) for v in row])
        text = buf.getvalue()
    elif args.format == "json":
        # the raw report goes in; render_json converts it to JSON values once
        envelope = {
            "command": command,
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "result": result,
        }
        text = render_json(envelope)
    else:
        text = _render_text(to_jsonable(result))
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            raise DocumentError(f"cannot write {args.output!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Handlers


def _cmd_norm(args) -> None:
    phi = parse_phi_spec(args.phi)
    x = parse_vector(args.x)
    _emit(args, "norm", {"value": luxemburg_norm(phi, x)})


def _cmd_delta2(args) -> None:
    phi = parse_phi_spec(args.phi)
    if args.dyadic is not None:
        grid = [2.0**-k for k in range(1, args.dyadic + 1)]
    elif args.grid is not None:
        grid = parse_vector(args.grid).tolist()
    else:
        raise DocumentError("delta2 needs --grid or --dyadic")
    _emit(args, "delta2", delta2_margin(phi, grid))


def _cmd_khintchine(args) -> None:
    k = geometry.khintchine_constants(args.p)
    _emit(args, "khintchine", k)


def _cmd_rademacher(args) -> None:
    vectors, norm = vectors_from_doc(load_doc(args.vectors), parse_norm_spec(args.norm) if args.norm else None)
    mean, quad, lo, hi = geometry._sign_stats(vectors, norm)
    _emit(
        args,
        "rademacher",
        {
            "mean": mean,
            "quadratic_mean": quad,
            "min": lo,
            "max": hi,
        },
    )


def _cmd_constants(args) -> None:
    family = family_from_doc(load_doc(args.family))
    psi = parse_norm_spec(args.psi)
    estimates: list[tuple[str, object]] = [
        (f"unconditional-{mode}", geometry.unconditional_constant(family, mode, args.samples, args.seed))
        for mode in ("zero-one", "signs")
    ]
    # unit-disc-grid enumerates the sign patterns, so it returns the signs estimate
    estimates.append(("unconditional-unit-disc-grid", estimates[-1][1]))
    if family.space.norm.power_exponent() == 2.0:
        estimates.append(("riesz", geometry.riesz_constant(family)))
    estimates.append(("hilbertian", geometry.hilbertian_constant(family, psi, args.samples, args.seed)))
    estimates.append(("besselian", geometry.besselian_constant(family, psi, args.samples, args.seed)))
    refs = [_witness_ref(est.witness) for _, est in estimates]
    result = {
        "psi": norm_to_doc(psi),
        "constants": [
            {
                "constant": name,
                "value": est.value,
                "method": est.method,
                "trials": est.trials,
                "witness": est.witness,
                "witness_ref": ref,
            }
            for (name, est), ref in zip(estimates, refs)
        ],
    }
    header = ["constant", "value", "method", "trials", "witness_ref"]
    rows = [[name, est.value, est.method, est.trials, ref] for (name, est), ref in zip(estimates, refs)]
    _emit(args, "constants", result, csv_rows=(header, rows))


def _cmd_type_cotype(args) -> None:
    family = family_from_doc(load_doc(args.family))
    if args.lp is not None:
        consts = geometry.lp_sandwich_constants(args.lp, args.unconditional)
        psi, lower = consts.psi, consts.lower_constant
        phi, upper = consts.phi, consts.upper_constant
    else:
        if not (args.psi and args.phi and args.lower is not None and args.upper is not None):
            raise DocumentError("type-cotype needs --lp or all of --psi/--lower/--phi/--upper")
        psi, lower = parse_norm_spec(args.psi), args.lower
        phi, upper = parse_norm_spec(args.phi), args.upper
    report = geometry.type_cotype_check(family, psi, lower, phi, upper, args.samples, args.seed)
    _emit(
        args,
        "type-cotype",
        {
            "psi": norm_to_doc(psi),
            "lower_constant": lower,
            "phi": norm_to_doc(phi),
            "upper_constant": upper,
            "report": report,
        },
    )


def _cmd_opening(args) -> None:
    if args.angle is not None:
        a, b, norm = angle_pair(args.angle)
    elif args.pair is not None:
        a, b, norm = subspace_pair_from_doc(load_doc(args.pair))
    else:
        raise DocumentError("opening needs --pair or --angle")
    report = stability.opening(a, b, norm, samples=args.samples, seed=args.seed)
    _emit(args, "opening", report)


def _cmd_lambda(args) -> None:
    family = family_from_doc(load_doc(args.family))
    _emit(args, "lambda", stability.lambda_threshold(family))


def _cmd_sigma(args) -> None:
    sc = scenario_from_doc(load_doc(args.scenario))
    est = stability.perturbation_sigma(sc.p_family, sc.j_family, sc.psi, args.samples, args.seed)
    _emit(args, "sigma", {"psi": norm_to_doc(sc.psi), "estimate": est})


def _cmd_kato(args) -> None:
    sc = scenario_from_doc(load_doc(args.scenario))
    if sc.psi.power_exponent() != 2.0:
        raise DocumentError(f"kato needs psi = power:2 in the scenario, got {json.dumps(norm_to_doc(sc.psi))}")
    _emit(args, "kato", stability.kato_check(sc.p_family, sc.j_family))


def _cmd_similarity(args) -> None:
    sc = scenario_from_doc(load_doc(args.scenario))
    report = stability.orlicz_stability_check(
        sc.p_family, sc.j_family, sc.psi, hilbertian=sc.sup_bound, samples=args.samples, seed=args.seed
    )
    _emit(args, "similarity", report)


def _cmd_c0_check(args) -> None:
    sc = scenario_from_doc(load_doc(args.scenario))
    if sc.sup_bound is None:
        raise DocumentError("c0-check needs C in the scenario")
    if sc.psi.variant != "max":
        raise DocumentError(f"c0-check needs psi = max in the scenario, got {json.dumps(norm_to_doc(sc.psi))}")
    report = stability.c0_stability_check(
        sc.p_family, sc.j_family, sc.sup_bound, samples=args.samples, seed=args.seed
    )
    _emit(args, "c0-check", report)


def _cmd_validate(args) -> None:
    family = family_from_doc(load_doc(args.family))
    report = validate_family(family, require_completeness=not args.allow_incomplete)
    _emit(args, "validate", report)


# ---------------------------------------------------------------------------
# Sweeps


def _epsilon_row(args, doc: dict, eps: float) -> list:
    sc: StabilityScenario = scenario_from_doc(doc, epsilon_override=eps)
    rep = stability.orlicz_stability_check(
        sc.p_family, sc.j_family, sc.psi, hilbertian=sc.sup_bound, samples=args.samples, seed=args.seed,
    )
    return [
        rep.sigma, rep.sigma_method, rep.c_hilbertian, rep.threshold, rep.hypothesis_met,
        rep.r_norm, rep.s_condition, rep.similarity_residual, rep.verdict,
    ]


def _angle_row(args, doc: dict | None, angle: float) -> list:
    rep = stability.opening(*angle_pair(angle), samples=args.samples, seed=args.seed)
    return [rep.theta, rep.direction_ab, rep.direction_ba, rep.method]


def _p_row(args, doc: dict | None, p: float) -> list:
    k = geometry.khintchine_constants(p)
    return [k.lower, k.upper, k.crossover]


# parameter -> (CSV header without the trailing error column, row function)
_SWEEPS = {
    "epsilon": (
        ["epsilon", "sigma", "sigma_method", "c_hilbertian", "threshold",
         "hypothesis_met", "r_norm", "s_condition", "similarity_residual", "verdict"],
        _epsilon_row,
    ),
    "angle": (["angle_degrees", "theta", "direction_ab", "direction_ba", "method"], _angle_row),
    "p": (["p", "lower", "upper", "crossover"], _p_row),
}


def _cmd_sweep(args) -> None:
    grid = parse_grid(args.grid)
    header, row = _SWEEPS[args.parameter]
    doc = None
    if args.parameter == "epsilon":
        if not args.scenario:
            raise DocumentError("epsilon sweep needs --scenario")
        doc = load_doc(args.scenario)
    rows: list[list] = []
    for value in grid:
        try:
            rows.append([value, *row(args, doc, value), ""])
        except (ValueError, BudgetError, ConvergenceError, SingularMatrixError) as exc:
            if isinstance(exc, DocumentError) and doc is not None:
                raise  # a malformed scenario fails the whole sweep, not one row
            rows.append([value] + [None] * (len(header) - 1) + [str(exc)])
    _emit(args, "sweep", {}, csv_rows=(header + ["error"], rows))


# ---------------------------------------------------------------------------
# Parser


def _add_common(
    sub: argparse.ArgumentParser, *, formats: tuple[str, ...] = ("text", "json"), sampled: bool = False
) -> None:
    """--format (unless ``formats`` is empty) and --output, and --samples and
    --seed for the commands that sample."""
    if formats:
        sub.add_argument("--format", choices=formats, default="text")
    sub.add_argument("--output", default=None, help="write the report to this file instead of stdout")
    if sampled:
        sub.add_argument("--samples", type=int, default=256)
        sub.add_argument("--seed", type=int, default=0)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command parser, built once per process: parse_args leaves it
    unchanged and returns a fresh namespace per call, so calls share it."""
    parser = argparse.ArgumentParser(
        prog="schauderlab",
        description="Norms, geometric constants and stability checks for projection families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="Luxemburg norm of a sequence")
    p.add_argument("--phi", required=True, help="gauge spec, e.g. power:2 or exp:1 or @file.json")
    p.add_argument("--x", required=True, help="comma-separated entries")
    _add_common(p)
    p.set_defaults(handler=_cmd_norm)

    p = sub.add_parser("delta2", help="doubling diagnostics of a gauge near zero")
    p.add_argument("--phi", required=True)
    p.add_argument("--grid", default=None, help="comma-separated decreasing grid")
    p.add_argument("--dyadic", type=int, default=None, help="use the grid 2^-1 .. 2^-K")
    _add_common(p)
    p.set_defaults(handler=_cmd_delta2)

    p = sub.add_parser("khintchine", help="sign-average comparison constants")
    p.add_argument("--p", type=float, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_khintchine)

    p = sub.add_parser("rademacher", help="exact sign-average and extreme sign norms")
    p.add_argument("--vectors", required=True, help="JSON document or @file with 'vectors'")
    p.add_argument("--norm", default=None, help="norm spec overriding the document")
    _add_common(p)
    p.set_defaults(handler=_cmd_rademacher)

    p = sub.add_parser("constants", help="unconditionality and frame constants of a family")
    p.add_argument("--family", required=True, help="family document or @file")
    p.add_argument("--psi", default="power:2", help="aggregate norm spec")
    _add_common(p, formats=("text", "json", "csv"), sampled=True)
    p.set_defaults(handler=_cmd_constants)

    p = sub.add_parser("type-cotype", help="two-sided block-norm sandwich check")
    p.add_argument("--family", required=True)
    p.add_argument("--lp", type=float, default=None, help="use the p-norm sandwich constants")
    p.add_argument("--unconditional", type=float, default=1.0)
    p.add_argument("--psi", default=None)
    p.add_argument("--lower", type=float, default=None)
    p.add_argument("--phi", default=None)
    p.add_argument("--upper", type=float, default=None)
    _add_common(p, sampled=True)
    p.set_defaults(handler=_cmd_type_cotype)

    p = sub.add_parser("opening", help="two-sided opening between subspaces")
    p.add_argument("--pair", default=None, help="subspace pair document or @file")
    p.add_argument("--angle", type=float, default=None, help="angle in degrees between two lines in the plane")
    _add_common(p, sampled=True)
    p.set_defaults(handler=_cmd_opening)

    p = sub.add_parser("lambda", help="perturbation budget of a family")
    p.add_argument("--family", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_lambda)

    p = sub.add_parser("sigma", help="aggregated perturbation size between two families")
    p.add_argument("--scenario", required=True, help="scenario document or @file")
    _add_common(p, sampled=True)
    p.set_defaults(handler=_cmd_sigma)

    p = sub.add_parser("kato", help="selfadjoint-base stability check in the euclidean ambient")
    p.add_argument("--scenario", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_kato)

    p = sub.add_parser("similarity", help="general stability check and similarity construction")
    p.add_argument("--scenario", required=True)
    _add_common(p, sampled=True)
    p.set_defaults(handler=_cmd_similarity)

    p = sub.add_parser("c0-check", help="stability check in the max-norm ambient")
    p.add_argument("--scenario", required=True)
    _add_common(p, sampled=True)
    p.set_defaults(handler=_cmd_c0_check)

    p = sub.add_parser("validate", help="defect report for a projection family")
    p.add_argument("--family", required=True)
    p.add_argument("--allow-incomplete", action="store_true")
    _add_common(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("sweep", help="CSV sweep over epsilon, angle, or p")
    p.add_argument("--parameter", choices=tuple(_SWEEPS), required=True)
    p.add_argument("--grid", required=True, help="comma list or start:stop:count; write --grid=-1,2 for a leading minus")
    p.add_argument("--scenario", default=None)
    _add_common(p, formats=(), sampled=True)
    p.set_defaults(handler=_cmd_sweep, format="csv")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
    # first: LinAlgError is a ValueError, which the input-error clause would take
    except (ConvergenceError, SingularMatrixError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (DocumentError, BudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
