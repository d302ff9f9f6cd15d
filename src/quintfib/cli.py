"""Command-line front end.

One subcommand per module plus `verify-all`:

    quintfib graph --format json
    quintfib monodromy --leg 2,4,3 --basepoint 5,4 --format json
    quintfib census --fibration expected --format json
    quintfib euler --fibration expected
    quintfib spectral --fibration quintic --format json
    quintfib spectral --explain K3
    quintfib toric --report json
    quintfib flow --psi 10 --face 5 --samples 512 --out cloud.csv
    quintfib pairing --loop 1,2,3 --form 3,2
    quintfib covering --r1 1.0 --r2 1.0
    quintfib verify-all [--skip numeric|symbolic] [--format json] [--out PATH]

Exit code of `verify-all` is zero exactly when every check passes.

Importing this module loads no library module: each subcommand imports
the modules it runs when it runs, so `graph` loads `basecomplex` alone.
The exact subcommands run on plain Python ints; `flow`, `pairing`,
`covering` and `verify-all` import the numeric layer (and numpy), and
`verify-all --skip numeric` runs the symbolic checks without either.
"""

import argparse
import json
import sys


def _ints(text, count, flag):
    """The `count` comma-separated integers of a flag's value."""
    try:
        values = tuple(int(t) for t in text.split(","))
    except ValueError:
        values = ()
    if len(values) != count:
        raise ValueError(f"{flag} takes {count} comma-separated integers, got {text!r}")
    return values


def _emit(args, payload, human):
    """Print, or write to --out, the JSON payload or the text `human()` makes."""
    text = json.dumps(payload, indent=2) if args.format == "json" else human()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_graph(args):
    from . import basecomplex
    payload = basecomplex.graph_json()
    def human():
        lines = [f"{len(payload['vertices'])} vertices, {len(payload['edges'])} legs"]
        for v in payload["vertices"]:
            lines.append(f"  {v['name']}: {', '.join(payload['incidence'][v['name']])}")
        return "\n".join(lines)
    _emit(args, payload, human)
    return 0


def cmd_monodromy(args):
    from .basecomplex import GraphEdge
    from .monodromy import ChartId, leg_monodromy
    i, j, k = _ints(args.leg, 3, "--leg")
    leg = GraphEdge(frozenset({i, j}), k)
    bp = ChartId(*_ints(args.basepoint, 2, "--basepoint")) if args.basepoint else None
    op = leg_monodromy(leg, basepoint=bp,
                       orientation=-1 if args.reverse else 1)
    payload = {
        "leg": [i, j, k],
        "basepoint": [op.basepoint.divisor, op.basepoint.dominant],
        "basis": [repr(s) for s in op.basis],
        "matrix": [list(row) for row in op.matrix],
        "orientation": op.sign,
    }
    _emit(args, payload, lambda: f"{op.label} in basis {payload['basis']}:\n"
          + "\n".join(str(r) for r in payload["matrix"]))
    return 0


def cmd_census(args):
    from . import fibercensus
    payload = fibercensus.census_json(args.fibration)
    def human():
        lines = [f"census of the {args.fibration} fibration:"]
        for r in payload["rows"]:
            chi = "chi n/a" if r["euler"] is None else f"chi {r['euler']}"
            lines.append(f"  {r['stratum']}: {r['count']} x {r['fiber']} ({chi}; "
                         f"{r['singular_set']})")
        return "\n".join(lines)
    _emit(args, payload, human)
    return 0


def cmd_euler(args):
    from . import fibercensus
    total, breakdown = fibercensus.euler_ledger_from_rows(
        fibercensus.census(args.fibration))
    payload = {"fibration": args.fibration, "total": total,
               "breakdown": [{"stratum": s, "count": c, "fiber": f,
                              "contribution": x}
                             for s, c, f, x in breakdown]}
    def human():
        lines = [f"Euler ledger of the {args.fibration} fibration:"]
        for s, c, f, x in breakdown:
            lines.append(f"  {s}: {c} x {f} -> {x}")
        lines.append(f"total: {total}")
        return "\n".join(lines)
    _emit(args, payload, human)
    return 0


def cmd_spectral(args):
    from . import sheafcoh
    if args.explain:
        if args.explain != "K3":
            print(f"nothing to explain about {args.explain!r}", file=sys.stderr)
            return 2
        cx = sheafcoh.build_K3()
        payload = {"shape": [cx.c1, cx.c0],
                   "triplets": cx.sparse_triplets()}
        _emit(args, payload,
              lambda: "\n".join(f"{r} {c} {v}" for r, c, v in payload["triplets"]))
        return 0
    payload = sheafcoh.spectral_json(args.fibration)
    def human():
        lines = [f"spectral table ({args.fibration}), fiber degree high to low:"]
        for row in payload["table_rows_top_down"]:
            lines.append("  " + "  ".join(f"{x:>4d}" for x in row))
        lines.append(f"checks: {payload['checks']}")
        return "\n".join(lines)
    _emit(args, payload, human)
    return 0


def cmd_toric(args):
    from . import toriccrepant
    payload = toriccrepant.toric_json()
    def human():
        t = payload["triangulation"]
        d = payload["divisor_census"]
        return "\n".join([
            f"rays: {len(payload['rays'])} "
            f"({', '.join(k + ': ' + str(len(v)) for k, v in payload['classification'].items())})",
            f"triangulation: {t['cells']} cells, unimodular: {t['all_unimodular']}, "
            f"crepant: {t['all_crepant']}",
            f"divisors: {d['total']} = {d['curves']} x {d['per_curve']} + "
            f"{d['points']} x {d['per_point']}",
            f"hodge: {payload['hodge']}  euler: {payload['euler']}",
        ])
    _emit(args, payload, human)
    return 0


def cmd_flow(args):
    import csv
    from . import flowlab
    radii = {i: 1.0 for i in range(1, 6) if i != args.face}
    fiber = flowlab.TorusFiber(frozenset({args.face}), radii)
    res = flowlab.transport_fiber(fiber, args.psi, args.samples, tol=args.tol,
                                  seed=args.seed)
    rows = []
    for x, im in zip(res.points, res.abs_im_s):
        rows.append([res.chart] + [f"{v:.12g}" for pair in zip(x.real, x.imag)
                                   for v in pair]
                    + [f"{im:.3e}", f"{res.lagrangian_defect:.3e}"])
    header = (["chart"] + [f"{part}{i}" for i in range(1, 5)
                           for part in ("re", "im")]
              + ["abs_im_s", "defect"])
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
    summary = (f"transported {len(res.points)}/{args.samples} samples "
               f"(psi={args.psi}, tol={args.tol}); |Im s| <= {res.im_s_max:.2e}, "
               f"defect {res.lagrangian_defect:.2e}, "
               f"member distance {res.quintic_distance_max:.2e}, "
               f"flagged {list(res.flagged)}")
    print(summary)
    return 0 if not res.flagged else 1


def cmd_pairing(args):
    from . import flowlab
    loop = _ints(args.loop, 3, "--loop")
    form = _ints(args.form, 2, "--form")
    res, = flowlab.loop_pairing_detailed(loop, [form], psi=args.psi)
    payload = {"loop": list(loop), "form": list(form), "value": res.value,
               "residue": res.residue, "psi": args.psi}
    _emit(args, payload,
          lambda: f"<gamma_{loop[0]}{loop[1]}^{loop[2]}, "
                  f"dlog(z{form[0]}/z{form[1]})> = {res.value} "
                  f"(residue {res.residue:.2e})")
    return 0


def cmd_covering(args):
    from . import flowlab
    n = flowlab.covering_count(args.r1, args.r2, tol=args.tol)
    stratum = flowlab.covering_stratum(args.r1, args.r2, args.tol).value
    payload = {"r1": args.r1, "r2": args.r2, "stratum": stratum,
               "count": n, "tol": args.tol}
    _emit(args, payload,
          lambda: f"({args.r1}, {args.r2}) [{stratum}]: {n} intersection points")
    return 0


def cmd_verify_all(args):
    from . import verify
    cfg = verify.VerifyConfig(psi=args.psi, samples=args.samples,
                              seed=args.seed, skip=args.skip or "")
    report = verify.verify_all(cfg)
    _emit(args, report.as_dict(), report.render_table)
    return 0 if report.passed else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="quintfib",
        description="Exact and numerical checks for torus fibrations of the "
                    "quintic pencil")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, fmt=True):
        if fmt:
            p.add_argument("--format", choices=("human", "json"),
                           default="human")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("graph", help="discriminant graph combinatorics")
    add_common(p)
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("monodromy", help="monodromy operator around a leg")
    p.add_argument("--leg", required=True, help="i,j,k (pair i,j and apex k)")
    p.add_argument("--basepoint", default=None, help="divisor,dominant")
    p.add_argument("--reverse", action="store_true")
    add_common(p)
    p.set_defaults(fn=cmd_monodromy)

    p = sub.add_parser("census", help="singular fiber census")
    # fibercensus.FIBRATIONS, spelled out so that building the parser
    # loads no library module
    p.add_argument("--fibration", choices=("constructed", "expected", "mirror"),
                   default="expected")
    add_common(p)
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("euler", help="fiberwise Euler ledger")
    p.add_argument("--fibration", choices=("expected", "mirror"),
                   default="expected")
    add_common(p)
    p.set_defaults(fn=cmd_euler)

    p = sub.add_parser("spectral", help="spectral tables and the kernel sheaf")
    p.add_argument("--fibration", choices=("quintic", "mirror"),
                   default="quintic")
    p.add_argument("--explain", default=None,
                   help="K3: dump the differential as sparse triplets")
    add_common(p)
    p.set_defaults(fn=cmd_spectral)

    p = sub.add_parser("toric", help="crepant resolution arithmetic")
    p.add_argument("--report", choices=("human", "json"), default="human",
                   dest="format")
    add_common(p, fmt=False)
    p.set_defaults(fn=cmd_toric)

    p = sub.add_parser("flow", help="transport a fiber onto the smooth member")
    p.add_argument("--psi", type=float, default=10.0)
    p.add_argument("--face", type=int, default=5, choices=range(1, 6))
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(fn=cmd_flow)

    p = sub.add_parser("pairing", help="loop/form pairing")
    p.add_argument("--loop", required=True, help="i,j,k")
    p.add_argument("--form", required=True, help="l,m")
    p.add_argument("--psi", type=float, default=10.0)
    add_common(p)
    p.set_defaults(fn=cmd_pairing)

    p = sub.add_parser("covering", help="covering count over a face point")
    p.add_argument("--r1", type=float, required=True)
    p.add_argument("--r2", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    add_common(p)
    p.set_defaults(fn=cmd_covering)

    p = sub.add_parser("verify-all", help="run the full acceptance battery")
    p.add_argument("--psi", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--skip", choices=("numeric", "symbolic"), default=None)
    add_common(p)
    p.set_defaults(fn=cmd_verify_all)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
