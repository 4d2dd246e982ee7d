"""Command-line front end: verify models, expand formulas, list the catalog.

Exit status: 0 when every selected verification matches its registered
expectation; 1 when any verdict deviates; 2 on usage errors, unknown
keys, registry parse failures, resource-cap overruns, or an output stream
that the reader closed early (silently, with no message).
"""

import argparse
import csv
import functools
import json
import os
import sys

from . import models, jetquot
from .superring import _halves


def _qlabel(deg2):
    """Human label for a doubled degree: q^3 for integers, q^{9/2} for
    half-integers."""
    return "q^%s" % _halves(deg2) if deg2 % 2 == 0 else "q^{%s}" % _halves(deg2)


class CliError(Exception):
    pass


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built on first use and kept for the process:
    parsing reads it and never changes it, and every call gets a fresh
    namespace (``append`` copies its default list before it adds to it).
    """
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
    v.add_argument("--limit", type=int,
                   default=jetquot.DEFAULT_MONOMIAL_LIMIT,
                   help="resource cap: standard monomials per degree table")

    e = sub.add_parser("expand", help="expand a formula key to coefficients")
    e.add_argument("formula", help="formula key, e.g. theta:3 or jm:A4")
    e.add_argument("--maxdeg2", type=int, default=0)
    e.add_argument("--limit", type=int, default=jetquot.DEFAULT_MONOMIAL_LIMIT,
                   help="resource cap: states per level of a fermionic sum")
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
        except (OSError, ValueError) as exc:
            raise CliError("registry error: %s" % exc)
        for key, model in extra.items():
            if key in table:
                raise CliError("registry error: key %r shadows a built-in"
                               % key)
            table[key] = model
    return table


def _select(args, table):
    if args.all and args.model:
        raise CliError("pass --model KEY or --all, not both")
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
    if args.limit < 1:
        raise CliError("--limit must be >= 1, got %d" % args.limit)
    table = _load_models(args.registry)
    keys = _select(args, table)
    judged = []
    for key in keys:
        model = table[key]
        try:
            rep = models.verify(model, args.maxdeg2, limit=args.limit)
        except jetquot.ResourceLimitError as exc:
            raise CliError("resource cap exceeded for %s: %s" % (key, exc))
        judged.append((model, rep, models.matches_expectation(model, rep)))
    if args.format == "json":
        payload = [rep.to_dict() for _, rep, _ in judged]
        out.write(_json(payload[0] if len(payload) == 1 else payload) + "\n")
    elif args.format == "csv":
        _csv(out, ["model", "maxdeg2", "verdict", "mismatch_degree2"],
             [([rep.model, rep.maxdeg2, rep.verdict, rep.mismatch_degree2],
               rep.rows) for _, rep, _ in judged])
    else:
        for model, rep, ok in judged:
            _human_report(model, rep, ok, out)
    return 0 if all(ok for _, _, ok in judged) else 1


def _json(payload, pad=""):
    """``json.dumps(payload, indent=2)`` of a report, a list of reports or
    an ``expand`` record, indented by ``pad``: the scalars go through
    ``json.dumps``, and each flat row of ``rows`` fills one template of
    the first row's keys.  ``indent`` selects the pure-Python encoder,
    which takes about 2.5 times as long on these payloads.
    """
    inner = pad + "  "
    if isinstance(payload, list):
        return _block("[]", [_json(item, inner) for item in payload], pad)
    rows = payload["rows"]
    row = _block("{}", ["%s: %%s" % json.dumps(k) for k in rows[0]],
                 inner + "  ")
    rows = _block("[]", [row % tuple("null" if v is None else "%d" % v
                                     for v in r.values()) for r in rows], inner)
    return _block("{}", ["%s: %s" % (json.dumps(k), rows if k == "rows"
                                     else json.dumps(v))
                         for k, v in payload.items()], pad)


def _block(brackets, items, pad):
    """The items between the two ``brackets``, one a line, as ``indent=2``
    lays them out at the indent ``pad``."""
    inner = pad + "  "
    return "%s\n%s%s\n%s%s" % (brackets[0], inner, (",\n" + inner).join(items),
                               pad, brackets[1])


def _csv(out, head, records):
    """CSV of ``records``, (values under ``head``, rows) pairs: the columns
    are ``head`` and then the row keys, one line per row."""
    keys = list(records[0][1][0])
    w = csv.writer(out)
    w.writerow(head + keys)
    for values, rows in records:
        for row in rows:
            w.writerow(values + [row[k] for k in keys])


def _cell(value):
    return "" if value is None else value


def _expected(model):
    """The registered expectation as printed: ISO_CONSISTENT, MISMATCH@8."""
    if model.expected_mismatch_degree2 is None:
        return model.expected
    return "%s@%d" % (model.expected, model.expected_mismatch_degree2)


def _human_report(model, rep, ok, out):
    """The rows as a table, a column per row key (``deg``, the first, shows
    degree2 as a power of q), then the verdict, judged ``ok`` by the caller."""
    out.write("model %s  (maxdeg2=%d)\n" % (rep.model, rep.maxdeg2))
    out.write("  %s\n" % model.description)
    keys = list(rep.rows[0])[1:]
    line = "  %-8s" + " %-10s" * len(keys)
    out.write((line % ("deg", *keys)).rstrip() + "\n")
    for row in rep.rows:
        out.write(line % (_qlabel(row["degree2"]),
                          *(_cell(row[k]) for k in keys)) + "\n")
    at = ("" if rep.mismatch_degree2 is None else " at %s (degree2=%d)"
          % (_qlabel(rep.mismatch_degree2), rep.mismatch_degree2))
    out.write("  verdict: %s%s  [expected %s: %s]\n" % (
        rep.verdict, at, _expected(model), "ok" if ok else "DEVIATES"))


def cmd_expand(args, out=sys.stdout):
    if args.maxdeg2 < 0:
        raise CliError("--maxdeg2 must be >= 0, got %d" % args.maxdeg2)
    if args.limit < 1:
        raise CliError("--limit must be >= 1, got %d" % args.limit)
    try:
        series = models.qseries_formula(args.formula, args.maxdeg2, args.limit)
    except KeyError as exc:
        raise CliError(str(exc.args[0]) if exc.args else str(exc))
    except jetquot.ResourceLimitError as exc:
        raise CliError("resource cap exceeded for %s: %s"
                       % (args.formula, exc))
    rows = [{"degree2": d, "coefficient": series[d]}
            for d in range(args.maxdeg2 + 1)]
    if args.format == "json":
        out.write(_json({"formula": args.formula, "maxdeg2": args.maxdeg2,
                         "rows": rows}) + "\n")
    elif args.format == "csv":
        _csv(out, ["formula", "maxdeg2"],
             [([args.formula, args.maxdeg2], rows)])
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
        marker = "" if model.character_key else "  character: none (HS-only)"
        out.write("  %-22s expect=%-16s maxdeg2=%-3d %s%s\n" % (
            key, _expected(model), model.default_maxdeg2, model.description,
            marker))
    out.write("formulas:\n")
    for key in sorted(models.FORMULA_KEYS):
        if not needle or needle in key.lower():
            out.write("  %s\n" % key)
    return 0


def main(argv=None, out=None):
    """Run one command line and return its exit status.

    The parser is built once per process, on the first call, so ``main``
    is cheap and safe to call repeatedly in one process: no call sees
    another's options.
    """
    args = _build_parser().parse_args(argv)
    stream = out if out is not None else sys.stdout
    command = {"verify": cmd_verify, "expand": cmd_expand, "list": cmd_list}
    try:
        status = command[args.command](args, stream)
        stream.flush()
        return status
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed the output (``jetchar list | head``): stop
        # quietly, and point stdout at devnull so that the interpreter's
        # flush at exit does not fail on the same pipe
        if stream is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
