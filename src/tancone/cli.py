"""Command-line verification interface.

Subcommands:
  enum       index sets and admissible pairs at a given d
  ideal      tangent-cone generators and the distinguished subset
  gb-verify  single-case Groebner verdict (exit 1 on failure)
  count      per-degree counting table for one case
  brsk       multiset -> bitableau (or inverse) as JSON
  sweep      exhaustive or sampled verification over all triples
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .brsk import NotchedBitableau, brsk_inverse, brsk_map
from .grid import grid_points, multiset_from_json, multiset_to_json
from .indexsets import (
    MAX_BRSK_BOXES,
    admissible_pairs,
    enumerate_indices,
    format_index,
    parse_index,
)
from .patch import FORM_LABEL, build_patch, generator_set, good_subset
from .verify import (
    CaseSpec,
    report_csv,
    report_json,
    report_json_chunks,
    sweep,
    verify_case,
)


def _write(text, out: str | None) -> None:
    """Write ``text``, a string or an iterable of strings, to the file
    ``out`` or to stdout."""
    if isinstance(text, str):
        text = (text,)
    if out:
        with open(out, "w") as fh:
            fh.writelines(text)
    else:
        sys.stdout.writelines(text)


def _check_writable(out: str | None) -> None:
    """Raise OSError now, before any case is verified, if the file ``out``
    cannot be opened for writing.  It is opened for appending, which
    changes no file that exists, and removed again if this made it, so a
    command whose arguments are rejected later leaves no file behind."""
    if out:
        made = not os.path.exists(out)
        open(out, "a").close()
        if made:
            os.remove(out)


def _case_from_args(args) -> CaseSpec:
    return CaseSpec.from_text(
        d=args.d,
        alpha=args.alpha,
        beta=args.beta,
        gamma=args.gamma,
        field=args.field,
        max_degree=args.max_degree,
    )


def cmd_enum(args) -> int:
    payload = {
        "d": args.d,
        "indices": [
            format_index(v) for v in enumerate_indices(args.d, args.ambient_only)
        ],
    }
    if args.pairs:
        payload["admissible_pairs"] = [
            {
                "top": format_index(p.top),
                "bot": format_index(p.bot),
                "rep": format_index(p.rep),
            }
            for p in admissible_pairs(args.d)
        ]
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_ideal(args) -> int:
    case = _case_from_args(args)
    gens = generator_set(case.alpha, case.gamma, build_patch(case.beta, case.d, case.p))
    _, good = good_subset(gens)
    payload = {
        "alpha": format_index(case.alpha),
        "beta": format_index(case.beta),
        "gamma": format_index(case.gamma),
        "field": case.field,
        "generators": [str(f) for f in gens.polys],
        "good": [str(f) for f in good],
        "form": FORM_LABEL,
    }
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_gb_verify(args) -> int:
    verdict = verify_case(_case_from_args(args))
    _write(report_json([verdict], stable=args.stable), args.out)
    return 0 if verdict.ok else 1


def cmd_count(args) -> int:
    verdict = verify_case(_case_from_args(args))
    payload = verdict.to_json()
    if args.stable:
        payload["runtime_ms"] = 0
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0 if verdict.counts_agree else 1


def _require_grid_points(m, beta, d) -> None:
    """ValueError naming the first point of ``m`` that is not a grid point
    at beta; a non-isotropic beta is rejected by ``grid_points`` itself."""
    points = set(grid_points(beta, d))
    for r, c in sorted(m):
        if (r, c) not in points:
            raise ValueError(
                f"({r}, {c}) is not a grid point at beta={format_index(beta)}: "
                "need r outside beta and c in beta"
            )


def _require_brsk_size(what: str, size: int) -> None:
    """ValueError, before any insertion, when ``size`` exceeds MAX_BRSK_BOXES."""
    if size > MAX_BRSK_BOXES:
        raise ValueError(
            f"{what} {size} is more than {MAX_BRSK_BOXES}: "
            "bounded insertion is quadratic in the boxes"
        )


def cmd_brsk(args) -> int:
    beta = parse_index(args.beta, args.d)
    data = json.loads(args.input) if args.input else json.load(sys.stdin)
    if args.inverse:
        t = NotchedBitableau.from_json(data)
        _require_brsk_size("box count", t.degree())
        _require_brsk_size("row count", len(t.rows))
        m = brsk_inverse(t, beta, args.d)
        _require_grid_points(m, beta, args.d)
        _write(json.dumps(multiset_to_json(m), indent=2) + "\n", args.out)
    else:
        m = multiset_from_json(data)
        _require_brsk_size("total multiplicity", sum(m.values()))
        _require_grid_points(m, beta, args.d)
        t = brsk_map(m, beta, args.d)
        _write(json.dumps(t.to_json(), indent=2) + "\n", args.out)
    return 0


def cmd_sweep(args) -> int:
    verdicts = sweep(
        args.d,
        max_degree=args.max_degree,
        sample=args.sample,
        seed=args.seed,
        field=args.field,
        jobs=args.jobs,
    )
    if args.format == "csv":
        text = report_csv(verdicts, stable=args.stable)
    else:
        text = report_json_chunks(verdicts, stable=args.stable)
    _write(text, args.out)
    ok = all(v.ok for v in verdicts)
    print(
        f"sweep d={args.d}: {len(verdicts)} cases, "
        f"{'all verified' if ok else 'FAILURES PRESENT'}",
        file=sys.stderr,
    )
    return 0 if ok else 1


def _add_case_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha", required=True, help='e.g. "1,3"')
    p.add_argument("--beta", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--field", default="Q", help="Q or Fp:<p>")
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--out", default=None)
    p.add_argument("--stable", action="store_true", help="zero out runtimes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tancone", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enum", help="list index sets")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--ambient-only", action="store_true")
    p.add_argument("--pairs", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("ideal", help="tangent-cone generators")
    _add_case_args(p)
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("gb-verify", help="verify one case")
    _add_case_args(p)
    p.set_defaults(func=cmd_gb_verify)

    p = sub.add_parser("count", help="per-degree counting table")
    _add_case_args(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("brsk", help="bitableau of a multiset (JSON in/out)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--input", default=None, help="JSON text; stdin if omitted")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_brsk)

    p = sub.add_parser("sweep", help="verify all triples at d")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--sample", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", default="Q")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--stable", action="store_true")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_writable(args.out)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input too large: maximum recursion depth exceeded", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
