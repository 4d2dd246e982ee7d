"""Command-line front end: verify models, expand formulas, list the catalog.

Exit status: 0 when every selected verification matches its registered
expectation; 1 when any verdict deviates; 2 on usage errors, unknown
keys, registry parse failures, or resource-cap overruns.
"""

import argparse
import csv
import io
import json
import sys

from . import models, jetquot
from .qseries import QSeries


def _halves(deg2):
    return str(deg2 // 2) if deg2 % 2 == 0 else "%d/2" % deg2


def _qlabel(deg2):
    """Human label for a doubled degree: q^3 for integers, q^{9/2} for
    half-integers."""
    return "q^%s" % _halves(deg2) if deg2 % 2 == 0 else "q^{%s}" % _halves(deg2)


class CliError(Exception):
    pass


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="jetchar",
        description="Jet-algebra character verification toolkit.")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="verify models against their characters")
    v.add_argument("--model", action="append", default=[],
                   help="model key (repeatable)")
    v.add_argument("--all", action="store_true", help="verify every model")
    v.add_argument("--maxdeg2", type=int, default=None,
                   help="doubled-degree truncation override")
    v.add_argument("--format", choices=("human", "json", "csv"),
                   default="human")
    v.add_argument("--registry", metavar="FILE",
                   help="text file of additional models")
    v.add_argument("--limit", type=int, default=None,
                   help="resource cap: monomials per degree slice")

    e = sub.add_parser("expand", help="expand a formula key to coefficients")
    e.add_argument("formula", help="formula key, e.g. theta:3 or jm:A4")
    e.add_argument("--maxdeg2", type=int, default=0)
    e.add_argument("--format", choices=("human", "json", "csv"),
                   default="human")

    l = sub.add_parser("list", help="list registered models and formula keys")
    l.add_argument("--filter", default=None,
                   help="substring filter on keys and descriptions")
    l.add_argument("--registry", metavar="FILE",
                   help="text file of additional models")
    return ap


def _load_models(registry_path):
    table = dict(models.REGISTRY)
    if registry_path:
        try:
            extra = models.load_registry_file(registry_path)
        except (OSError, ValueError, KeyError) as exc:
            raise CliError("registry error: %s" % exc)
        for key, model in extra.items():
            if key in table:
                raise CliError("registry error: key %r shadows a built-in"
                               % key)
            table[key] = model
    return table


def _select(args, table):
    if args.all:
        keys = sorted(table)
    else:
        keys = list(args.model)
    if not keys:
        raise CliError("no models selected: pass --model KEY or --all")
    for key in keys:
        if key not in table:
            raise CliError("unknown model key %r" % key)
    return keys


def cmd_verify(args, out=sys.stdout):
    if args.maxdeg2 is not None and args.maxdeg2 < 0:
        raise CliError("--maxdeg2 must be >= 0, got %d" % args.maxdeg2)
    table = _load_models(args.registry)
    keys = _select(args, table)
    reports = []
    all_ok = True
    for key in keys:
        model = table[key]
        try:
            rep = models.verify(model, args.maxdeg2, limit=args.limit)
        except jetquot.ResourceLimitError as exc:
            raise CliError("resource cap exceeded for %s: %s" % (key, exc))
        reports.append((model, rep))
        if not models.matches_expectation(model, rep):
            all_ok = False
    if args.format == "json":
        payload = [r.to_dict() for _, r in reports]
        out.write(json.dumps(payload[0] if len(payload) == 1 else payload,
                             indent=2))
        out.write("\n")
    elif args.format == "csv":
        w = csv.writer(out)
        w.writerow(["model", "maxdeg2", "verdict", "mismatch_degree2",
                    "degree2", "spanning", "jet_dim", "character"])
        for _, rep in reports:
            for row in rep.rows:
                w.writerow([rep.model, rep.maxdeg2, rep.verdict,
                            _cell(rep.mismatch_degree2), row["degree2"],
                            _cell(row["spanning"]), row["jet_dim"],
                            _cell(row["character"])])
    else:
        for model, rep in reports:
            _human_report(model, rep, out)
    return 0 if all_ok else 1


def _cell(value):
    return "" if value is None else value


def _human_report(model, rep, out):
    ok = models.matches_expectation(model, rep)
    out.write("model %s  (maxdeg2=%d)\n" % (rep.model, rep.maxdeg2))
    out.write("  %s\n" % model.description)
    header = "  %-8s %-10s %-10s %-10s" % ("deg", "spanning", "jet_dim",
                                           "character")
    out.write(header.rstrip() + "\n")
    for row in rep.rows:
        out.write("  %-8s %-10s %-10s %-10s\n" % (
            _qlabel(row["degree2"]), _cell(row["spanning"]),
            row["jet_dim"], _cell(row["character"])))
    tail = "  verdict: %s" % rep.verdict
    if rep.mismatch_degree2 is not None:
        tail += " at %s (degree2=%d)" % (_qlabel(rep.mismatch_degree2),
                                         rep.mismatch_degree2)
    tail += "  [expected %s" % model.expected
    if model.expected_mismatch_degree2 is not None:
        tail += "@%d" % model.expected_mismatch_degree2
    tail += ": %s]\n" % ("ok" if ok else "DEVIATES")
    out.write(tail)


def cmd_expand(args, out=sys.stdout):
    try:
        series = models.qseries_formula(args.formula, args.maxdeg2)
    except KeyError as exc:
        raise CliError(str(exc.args[0]) if exc.args else str(exc))
    rows = [{"degree2": d, "coefficient": series[d]}
            for d in range(args.maxdeg2 + 1)]
    if args.format == "json":
        out.write(json.dumps({"formula": args.formula,
                              "maxdeg2": args.maxdeg2, "rows": rows},
                             indent=2))
        out.write("\n")
    elif args.format == "csv":
        w = csv.writer(out)
        w.writerow(["formula", "maxdeg2", "degree2", "coefficient"])
        for row in rows:
            w.writerow([args.formula, args.maxdeg2, row["degree2"],
                        row["coefficient"]])
    else:
        out.write("formula %s  (maxdeg2=%d)\n" % (args.formula, args.maxdeg2))
        for row in rows:
            out.write("  %-8s %d\n" % (_qlabel(row["degree2"]),
                                       row["coefficient"]))
    return 0


def cmd_list(args, out=sys.stdout):
    table = _load_models(args.registry)
    needle = (args.filter or "").lower()

    def keep(key, text):
        return not needle or needle in key.lower() or needle in text.lower()

    out.write("models:\n")
    for key in sorted(table):
        model = table[key]
        if not keep(key, model.description):
            continue
        expected = model.expected
        if model.expected_mismatch_degree2 is not None:
            expected += "@%d" % model.expected_mismatch_degree2
        marker = "" if model.character_key else "  character: none (HS-only)"
        out.write("  %-22s expect=%-16s maxdeg2=%-3d %s%s\n" % (
            key, expected, model.default_maxdeg2, model.description, marker))
    out.write("formulas:\n")
    for key in sorted(models.FORMULA_KEYS):
        if not needle or needle in key.lower():
            out.write("  %s\n" % key)
    return 0


def main(argv=None, out=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    stream = out if out is not None else sys.stdout
    try:
        if args.command == "verify":
            return cmd_verify(args, stream)
        if args.command == "expand":
            return cmd_expand(args, stream)
        return cmd_list(args, stream)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
