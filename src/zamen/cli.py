"""Command line interface.

Commands:

- ``zamen group info GROUP``: order, classes, center, abelianness.
- ``zamen group chartable GROUP``: compute (or load from cache) and print
  the character table document.
- ``zamen group amconst GROUP [GROUP ...] | --zoo``: amenability constants
  with rational snaps, lower bounds, and the gap check.
- ``zamen hypergroup run SPEC.json``: run a quadrature experiment and emit
  CSV rows (or JSON with --json).
- ``zamen verify tz2``: exact identity-measure verification on the
  infinite group T semidirect Z2.

GROUP arguments are either names from the built-in zoo (``zamen group
amconst --zoo`` lists results for all of them) or paths to group spec JSON
files; ``--tol`` takes a positive finite number (default 1e-9).  Every
command's run manifest is embedded under ``"manifest"`` with ``--json``, and
plain output written with ``--out FILE`` gets it in ``FILE.manifest.json``.

Exit codes: 0 on success, 1 when a verification or check fails (a
character table that misses its certification tolerance included), 2 on
usage, input or size errors, running out of memory included.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from . import __version__
from .amenability import amenability_constant, hilbert_schmidt_lower_bound, nonabelian_gap_check
from .cache import cached_character_table, resolve_cache_dir
from .characters import DEFAULT_CERT_TOL, CertificationError, DegeneracyError
from .groups import FiniteGroup, SizeLimitError, ValidationError, center, conjugacy_structure
from .hypergroups import run_experiment
from .specio import (
    SpecError,
    character_table_payload,
    group_from_json,
    load_experiment_spec,
    sha256_hex,
    stable_json,
)
from .tz2 import verify_identity_measure
from .zoo import build as zoo_build, zoo_names

CSV_COLUMNS = (
    "model",
    "scheme",
    "n",
    "diagonal_norm",
    "diagonal_error_estimate",
    "diagonal_converged",
    "bai_norm",
    "bai_error_estimate",
    "lower_bound",
    "config_hash",
)


@dataclass(frozen=True)
class Output:
    """A command's ``--json`` document (manifest aside), its plain text or CSV,
    the manifest fields only the command knows, and its exit code."""

    doc: dict
    text: str
    input_hash: str
    config: dict
    summary: dict
    code: int = 0


def _resolve_group(token: str) -> FiniteGroup:
    path = Path(token)
    if path.suffix == ".json" or path.exists():
        try:
            text = path.read_text()
        except OSError as exc:
            raise SpecError(f"cannot read group spec {token!r}: {exc}") from exc
        return group_from_json(text)
    try:
        return zoo_build(token)
    except KeyError:
        raise SpecError(
            f"{token!r} is neither a readable JSON file nor a known group name"
        ) from None


def _write(args: argparse.Namespace, output: Output) -> int:
    """Write ``output`` to ``--out`` or stdout, with its run manifest."""
    manifest = {
        "command": f"{args.command} {args.subcommand}",
        "input_hash": output.input_hash,
        "config": output.config,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "result_summary": output.summary,
    }
    if args.json:
        text = stable_json({**output.doc, "manifest": manifest})
    else:
        text = output.text
        if args.out:
            Path(f"{args.out}.manifest.json").write_text(stable_json(manifest) + "\n")
    text = text if text.endswith("\n") else text + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return output.code


def _cmd_group_info(args: argparse.Namespace) -> Output:
    group = _resolve_group(args.group)
    cs = conjugacy_structure(group)
    central = center(group)
    record = {
        "label": group.label,
        "order": group.order,
        "num_classes": cs.num_classes,
        "center_size": int(len(central)),
        "abelian": bool(group.is_abelian),
        "class_sizes": [int(s) for s in cs.sizes],
        "class_reps": [int(r) for r in cs.reps],
        "content_hash": group.content_hash,
    }
    lines = [
        f"{group.label}: order {group.order}, {cs.num_classes} classes, "
        f"center size {len(central)}",
        f"abelian: {'true' if group.is_abelian else 'false'}",
        "class sizes: " + " ".join(str(int(s)) for s in cs.sizes),
        f"content hash: {group.content_hash}",
    ]
    return Output(
        record, "\n".join(lines), sha256_hex(group.content_hash), {}, {"order": group.order}
    )


def _cmd_group_chartable(args: argparse.Namespace) -> Output:
    group = _resolve_group(args.group)
    cs = conjugacy_structure(group)
    table, from_cache = cached_character_table(
        group, cs, cache_dir=args.cache_dir, certification_tol=args.tol
    )
    lines = [
        f"{group.label}: {table.num_classes} irreducible characters"
        + (" (cached)" if from_cache else ""),
        "degrees: " + " ".join(str(int(d)) for d in table.degrees),
        "class sizes: " + " ".join(str(int(s)) for s in table.class_sizes),
        f"orthogonality residual: {table.residual:.3e}",
    ]
    for d, row in zip(table.degrees, table.values):
        cells = []
        for v in row:
            if abs(v.imag) < 5e-13:
                cells.append(f"{v.real:8.4f}")
            else:
                cells.append(f"{v.real:.3f}{v.imag:+.3f}i")
        lines.append(f"  chi[d={int(d)}]  " + " ".join(cells))
    return Output(
        character_table_payload(table),
        "\n".join(lines),
        sha256_hex(group.content_hash),
        {"cache_dir": str(resolve_cache_dir(args.cache_dir)), "tol": args.tol},
        {"from_cache": from_cache, "residual": table.residual},
    )


def _amconst_record(name: str, group: FiniteGroup, cache_dir: str | None, tol: float):
    table, _ = cached_character_table(group, cache_dir=cache_dir, certification_tol=tol)
    am = amenability_constant(table)
    gap = nonabelian_gap_check(table)
    return {
        "group": name,
        "order": group.order,
        "abelian": gap.is_abelian,
        "am": am.value,
        "am_rational": str(am.rational) if am.rational is not None else None,
        "hs_lower_bound": hilbert_schmidt_lower_bound(table),
        "gap_ok": gap.passed,
    }


def _cmd_group_amconst(args: argparse.Namespace) -> Output:
    if not (args.zoo or args.groups):
        raise SpecError("give at least one group, or use --zoo")
    if args.zoo and args.groups:
        raise SpecError("give groups or --zoo, not both")
    names = list(zoo_names()) if args.zoo else list(args.groups)
    groups = [zoo_build(n) if args.zoo else _resolve_group(n) for n in names]
    records = [
        _amconst_record(name, group, args.cache_dir, args.tol) for name, group in zip(names, groups)
    ]
    all_ok = all(r["gap_ok"] for r in records)
    lines = []
    for r in records:
        rational = f" (= {r['am_rational']})" if r["am_rational"] else ""
        lines.append(
            f"{r['group']}: am = {r['am']:.10f}{rational}, "
            f"hs >= {r['hs_lower_bound']:.10f}, "
            f"{'abelian' if r['abelian'] else 'nonabelian'}, "
            f"gap {'ok' if r['gap_ok'] else 'VIOLATED'}"
        )
    return Output(
        {"results": records},
        "\n".join(lines),
        sha256_hex(stable_json([g.content_hash for g in groups])),
        {"zoo": args.zoo, "tol": args.tol},
        {"groups": len(records), "all_gap_ok": all_ok},
        code=0 if all_ok else 1,
    )


def _cmd_hypergroup_run(args: argparse.Namespace) -> Output:
    try:
        payload = json.loads(Path(args.spec).read_text())
    except OSError as exc:
        raise SpecError(f"cannot read experiment spec: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON in experiment spec: {exc}") from exc
    spec = load_experiment_spec(payload)
    rows = run_experiment(spec)
    unconverged = sum(not r["diagonal_converged"] for r in rows)
    if unconverged:
        print(f"warning: {unconverged} of {len(rows)} rows unconverged", file=sys.stderr)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return Output(
        {"rows": rows},
        buffer.getvalue(),
        sha256_hex(stable_json(spec)),
        {"spec": spec},
        {"rows": len(rows), "all_converged": unconverged == 0},
    )


def _cmd_verify_tz2(args: argparse.Namespace) -> Output:
    try:
        cross = Fraction(args.cross_weight)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"invalid cross weight {args.cross_weight!r}: {exc}") from exc
    report = verify_identity_measure(max_mode=args.max_mode, cross_weight=cross)
    doc = {
        "max_mode": report.max_mode,
        "pairs_checked": report.pairs_checked,
        "failures": [
            {"left": left, "right": right, "got": str(got), "expected": str(want)}
            for left, right, got, want in report.failures
        ],
        "passed": report.passed,
    }
    lines = [
        "T x| Z2 identity measure: "
        f"{report.pairs_checked} pairs checked, {len(report.failures)} failures"
    ]
    for left, right, got, want in report.failures:
        lines.append(f"  ({left}, {right}): got {got}, expected {want}")
    lines.append("PASS" if report.passed else "FAIL")
    return Output(
        doc,
        "\n".join(lines),
        sha256_hex(stable_json({"max_mode": args.max_mode, "cross": str(cross)})),
        {"max_mode": args.max_mode, "cross_weight": str(cross)},
        {"passed": report.passed, "pairs_checked": report.pairs_checked},
        code=0 if report.passed else 1,
    )


def _above(convert, lowest: float, what: str):
    """An argparse type: ``convert`` the text, then require a finite value above ``lowest``."""

    def parse(text: str):
        try:
            value = convert(text)
            ok = math.isfinite(value) and value > lowest
        except (ValueError, OverflowError):
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


_tolerance = _above(float, 0, "a positive finite number")
_mode = _above(int, -1, "a nonnegative integer")


def _add_common_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="write output to this file instead of stdout")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zamen",
        description="Amenability constants of centres of finite group algebras.",
    )
    parser.add_argument("--version", action="version", version=f"zamen {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    group = subparsers.add_parser("group", help="finite group computations")
    group_sub = group.add_subparsers(dest="subcommand", required=True)

    info = group_sub.add_parser("info", help="order, classes, center")
    info.add_argument("group", help="zoo name or group spec JSON path")
    _add_common_output_flags(info)
    info.set_defaults(handler=_cmd_group_info)

    chartable = group_sub.add_parser("chartable", help="character table")
    chartable.add_argument("group", help="zoo name or group spec JSON path")
    chartable.add_argument("--cache-dir", help="character table cache directory")
    chartable.add_argument("--tol", type=_tolerance, default=DEFAULT_CERT_TOL, help="certification tolerance")
    _add_common_output_flags(chartable)
    chartable.set_defaults(handler=_cmd_group_chartable)

    amconst = group_sub.add_parser("amconst", help="amenability constants")
    amconst.add_argument("groups", nargs="*", help="zoo names or group spec JSON paths")
    amconst.add_argument("--zoo", action="store_true", help="run the whole built-in zoo")
    amconst.add_argument("--cache-dir", help="character table cache directory")
    amconst.add_argument("--tol", type=_tolerance, default=DEFAULT_CERT_TOL, help="certification tolerance")
    _add_common_output_flags(amconst)
    amconst.set_defaults(handler=_cmd_group_amconst)

    hypergroup = subparsers.add_parser("hypergroup", help="compact hypergroup experiments")
    hyper_sub = hypergroup.add_subparsers(dest="subcommand", required=True)
    run = hyper_sub.add_parser("run", help="run an experiment spec")
    run.add_argument("spec", help="experiment spec JSON path")
    _add_common_output_flags(run)
    run.set_defaults(handler=_cmd_hypergroup_run)

    verify = subparsers.add_parser("verify", help="exact verifications")
    verify_sub = verify.add_subparsers(dest="subcommand", required=True)
    tz2 = verify_sub.add_parser("tz2", help="identity measure on T semidirect Z2")
    tz2.add_argument("--max-mode", type=_mode, default=20, help="highest induced mode")
    tz2.add_argument(
        "--cross-weight",
        default="-2",
        help="weight of the mixed atom block (a fraction such as -2 or -3/2)",
    )
    _add_common_output_flags(tz2)
    tz2.set_defaults(handler=_cmd_verify_tz2)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _write(args, args.handler(args))
    except (CertificationError, DegeneracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SpecError, ValidationError, SizeLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
