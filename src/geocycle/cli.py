"""Command line front end.

Every subcommand prints a single JSON document on stdout (CSV with --csv for
matrices) and timing on stderr, so identical argv always produces identical
stdout bytes. Exit codes: 0 ok, 1 a checked claim failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction

from . import arrangement as arr
from . import obstructions as obs
from . import signs as signmod
from . import verify
from .errors import GeocycleError
from .isometries import (
    cartan_dieudonne,
    in_congruence_subgroup,
    isometry_from_matrix,
    spinor_norm,
)
from .lattices import K3_BLOCKS, check_rank, classify, standard_lattice
from .linalg import det, frac

def _loads(text: str, what: str):
    """json.loads, with a document nested past the recursion limit as bad input."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply") from None


def _parse_matrix(text: str) -> list:
    try:
        raw = _loads(text, "matrix")
    except json.JSONDecodeError as e:
        raise ValueError(f"matrix must be JSON: {e}") from e
    # a string or an object would iterate as its characters or keys
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise ValueError("matrix must be a JSON list of rows")
    return raw  # the isometry reader coerces the rows


def _json_number(x: Fraction):
    return int(x) if x.denominator == 1 else str(x)


def _cmd_lattice(args):
    l = standard_lattice(args.lattice, args.p, args.q)
    if args.classify:
        c = classify(l)
        payload = {
            "signature": list(c.signature),
            "parity": c.parity,
            "det": c.det,
            "unimodular": c.unimodular,
        }
    else:
        payload = {"kind": args.lattice, "rank": l.rank, "gram": [list(r) for r in l.gram]}
    return "ok", payload, None


def _cmd_spinor(args):
    l = standard_lattice(args.lattice, args.p, args.q)
    # construction's walk certifies the form; spinor_norm reads the rays it keeps
    g = isometry_from_matrix(_parse_matrix(args.matrix), l)
    reflections = cartan_dieudonne(g)
    payload = dict(spinor_norm(g).to_dict())
    payload["reflections"] = len(reflections)
    return "ok", payload, None


def _cmd_congruence(args):
    l = standard_lattice(args.lattice, args.p, args.q)
    g = isometry_from_matrix(_parse_matrix(args.matrix), l)
    member = in_congruence_subgroup(g, args.modulus)
    return "ok", {"modulus": args.modulus, "member": member}, None


def _cmd_signs(args):
    check_rank(args.p, args.q)
    signmod.check_signature(args.p, args.q)
    coords = args.v.split(",")
    if len(coords) == args.p:
        coords += [0] * (args.q - args.p)
    if len(coords) != args.q:
        raise ValueError(f"--v needs p={args.p} or q={args.q} coordinates, got {len(coords)}")
    v = signmod.admissible_v(args.p, coords)
    mat = signmod.pi_k_matrix(v)
    # the expected matrix is diag(-1,...,-1,+1), so its det is (-1)^(p-1)
    holds = mat == signmod.expected_pi_k_matrix(args.p)
    payload = {
        "matrix": [[_json_number(x) for x in row] for row in mat],
        "det": _json_number(det(mat)),
        "claim_holds": holds,
    }
    return ("ok" if holds else "fail"), payload, None


def _cmd_arrange(args):
    if args.spec_json:
        spec = arr.arrangement_spec_from_dict(_loads(args.spec_json, "spec JSON"))
        m, t = spec.m, None
    else:
        if args.p is None or args.q is None or args.n is None:
            raise ValueError("provide --p, --q and --n (or a --spec-json document)")
        boost = arr.BoostParams(frac(args.boost_a), frac(args.boost_b))
        if args.auto_params:
            # the search's cheapest outcome, m = 1 and the first scan tangent
            first = arr.rotation_from_tangent(arr.TANGENT_SCAN[0])
            arr.check_budget(args.q, args.n, 1, boost, first)
            m, t = arr.search_parameters(args.n, boost)
        else:
            if args.m is None or args.t is None:
                raise ValueError("provide --m and --t, pass --auto-params, or use --spec-json")
            m, t = args.m, frac(args.t)
        spec = arr.arrangement_spec(args.p, args.q, args.n, boost, m, t)
    matrix = arr.intersection_matrix(spec)
    if args.emit_plot_data:
        rows = ["k,tangent,lower,upper"]
        for k, d in enumerate(arr.inequality_details(spec, spec.n), start=1):
            rows.append(f"{k},{d.tangent if d.tangent is not None else 'pole'},{d.lower},{d.upper}")
        with open(args.emit_plot_data, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(rows) + "\n")
    payload = dict(arr.arrangement_spec_to_dict(spec))
    if t is not None:
        payload["t"] = str(t)
    payload.update(
        {
            "matrix": matrix.tags(),
            "lower_triangular": matrix.lower_triangular,
            "shift_consistent": matrix.shift_consistent,
            "diagonal_points": [
                matrix.verdicts[i][i].point.plane.to_dict()
                for i in range(matrix.size)
                if matrix.verdicts[i][i].point is not None
            ],
        }
    )
    status = "ok" if matrix.lower_triangular and matrix.shift_consistent else "fail"
    return status, payload, matrix.to_csv() if args.csv else None


def _cmd_roots(args):
    if args.block:
        if args.lattice != "k3":
            raise ValueError("--block only applies to the k3 lattice")
        labels = [label for label, _ in K3_BLOCKS]
        if args.block not in labels:
            raise ValueError(f"unknown block {args.block!r}; choose from {sorted(labels)}")
        i = labels.index(args.block)
        offset = sum(standard_lattice(kind).rank for _, kind in K3_BLOCKS[:i])
        sub = standard_lattice(K3_BLOCKS[i][1])
        roots = obs.enumerate_roots(sub, args.bound)
        full_rank = standard_lattice("k3").rank
        embedded = [
            (0,) * offset + r + (0,) * (full_rank - offset - sub.rank) for r in roots
        ]
        print(f"block={args.block} count={len(embedded)}", file=sys.stderr)
        return "ok", embedded, None
    l = standard_lattice(args.lattice, args.p, args.q)
    roots = obs.enumerate_roots(l, args.bound)
    print(f"lattice={args.lattice} bound={args.bound} count={len(roots)}", file=sys.stderr)
    return "ok", roots, None


def _cmd_verify_all(args):
    results = verify.run_all(args.seed)
    for r in results:
        print(f"{r.name}: {'PASS' if r.ok else 'FAIL'} ({int(r.elapsed * 1000)} ms)", file=sys.stderr)
    payload = {
        "checks": [r.to_dict() for r in results],
        "all_ok": all(r.ok for r in results),
    }
    return ("ok" if payload["all_ok"] else "fail"), payload, None


def _add_lattice_options(sub, flag="--lattice"):
    sub.add_argument(flag, dest="lattice", required=True,
                     choices=["bpq", "hyperbolic", "e8_pos", "e8_neg", "k3"])
    sub.add_argument("--p", type=int)
    sub.add_argument("--q", type=int)


def _add_output_flags(target, *, top_level: bool) -> None:
    """The output flags are accepted before or after the subcommand.

    Subcommand copies default to SUPPRESS so a later (sub)parse never
    clobbers a value already set at the top level.
    """
    extra = {} if top_level else {"default": argparse.SUPPRESS}
    target.add_argument("--json", action="store_true",
                        help="JSON output (the default)", **extra)
    target.add_argument("--csv", action="store_true",
                        help="CSV output for matrix payloads", **extra)
    target.add_argument("--seed", type=int,
                        **({"default": verify.DEFAULT_SEED} if top_level else extra))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geocycle",
        description="Exact arithmetic for indefinite lattices, isometries, and "
        "flat/hyperplane arrangements.",
    )
    _add_output_flags(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_lat = sub.add_parser("lattice", help="construct and classify standard lattices")
    _add_lattice_options(p_lat, "--kind")
    p_lat.add_argument("--classify", action="store_true")
    p_lat.set_defaults(handler=_cmd_lattice)

    p_spin = sub.add_parser("spinor", help="spinor norm of an isometry")
    _add_lattice_options(p_spin)
    p_spin.add_argument("--matrix", required=True, help="JSON rows; rationals as 'p/q' strings")
    p_spin.set_defaults(handler=_cmd_spinor)

    p_cong = sub.add_parser("congruence", help="congruence-subgroup membership")
    _add_lattice_options(p_cong)
    p_cong.add_argument("--matrix", required=True)
    p_cong.add_argument("--modulus", type=int, required=True)
    p_cong.set_defaults(handler=_cmd_congruence)

    p_signs = sub.add_parser("signs", help="orientation-sign matrix for an admissible vector")
    p_signs.add_argument("--p", type=int, required=True)
    p_signs.add_argument("--q", type=int, required=True)
    p_signs.add_argument("--v", required=True, help="comma-separated rationals")
    p_signs.set_defaults(handler=_cmd_signs)

    p_arr = sub.add_parser("arrange", help="boost/rotation family intersection matrix")
    p_arr.add_argument("--p", type=int)
    p_arr.add_argument("--q", type=int)
    p_arr.add_argument("--n", type=int)
    p_arr.add_argument("--auto-params", action="store_true")
    p_arr.add_argument("--m", type=int)
    p_arr.add_argument("--t", help="rotation tangent parameter, e.g. 1/10")
    p_arr.add_argument("--boost-a", default=str(arr.DEFAULT_BOOST.a))
    p_arr.add_argument("--boost-b", default=str(arr.DEFAULT_BOOST.b))
    p_arr.add_argument("--spec-json", help="full arrangement description as one JSON document")
    p_arr.add_argument("--emit-plot-data", metavar="PATH")
    p_arr.set_defaults(handler=_cmd_arrange)

    p_roots = sub.add_parser("roots", help="enumerate root vectors")
    _add_lattice_options(p_roots)
    p_roots.add_argument("--bound", type=int, required=True)
    p_roots.add_argument("--block", help="restrict to a k3 block, e.g. e8:1")
    p_roots.set_defaults(handler=_cmd_roots)

    p_verify = sub.add_parser("verify-all", help="run the full acceptance suite")
    p_verify.set_defaults(handler=_cmd_verify_all)

    for command in sub.choices.values():
        _add_output_flags(command, top_level=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    start = time.perf_counter()
    try:
        status, payload, csv_text = args.handler(args)
    except (GeocycleError, ValueError, TypeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    if args.csv and csv_text is not None:
        sys.stdout.write(csv_text)
    else:
        # every payload is a fresh tree of dicts, lists and tuples: no cycle to check
        sys.stdout.write(json.dumps(payload, check_circular=False) + "\n")
    print(f"elapsed_ms={elapsed_ms}", file=sys.stderr)
    return 0 if status == "ok" else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
