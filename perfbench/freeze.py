"""Write ``perfbench/reference.json``: the frozen answers of every workload.

    python3 perfbench/freeze.py

Run it only at a commit whose answers are trusted; the benchmark then
checks every later commit against these values.  Before writing, it
checks the cross-checks that make the values an oracle rather than a
recording: jet dimensions equal the independent character for every
ISO_CONSISTENT heavy-tier model, and each deep series stands in its stated
relation to its partner.
"""

import json
import os
import sys

import run
import workloads


def frozen_report(jc, key, maxdeg2=None):
    report = jc.models.verify(key, maxdeg2).to_dict()
    return {"maxdeg2": report["maxdeg2"], "verdict": report["verdict"],
            "rows": workloads.report_rows(report)}


def require(ok, message):
    if not ok:
        sys.exit("not frozen: " + message)


def main():
    jc = run.import_program()
    ref = {"registry": {}, "jets": {}, "series": {}, "outside": {}}
    for key in sorted(jc.models.REGISTRY):
        ref["registry"][key] = frozen_report(jc, key)
        require(ref["registry"][key]["verdict"] == jc.models.get_model(key).expected,
                "%s: verdict differs from the registry's expectation" % key)

    for key, depth in workloads.DEEP_JETS:
        frozen = frozen_report(jc, key, depth)
        if jc.models.get_model(key).expected == "ISO_CONSISTENT":
            require(frozen["verdict"] == "ISO_CONSISTENT",
                    "%s: jet dimensions differ from the character" % key)
        require(all(span is None or span >= jet for _, span, jet, _ in frozen["rows"]),
                "%s: spanning count below the jet dimension" % key)
        ref["jets"][key] = frozen

    depth = {}
    for kind, key, d, relation, partner in workloads.DEEP_SERIES:
        for name in (workloads.series_name(kind, key), partner):
            if name is not None:
                depth[name] = max(depth.get(name, 0), d)
    ref["series"] = {name: workloads.series_call(jc, *name.split(" ", 1), d)()
                     for name, d in sorted(depth.items())}
    for kind, key, d, relation, partner in workloads.DEEP_SERIES:
        name = workloads.series_name(kind, key)
        check = workloads.series_check(ref["series"], name, d, relation, partner)
        errors = check(ref["series"][name][:d + 1])
        require(not errors, "; ".join(errors))

    # T^j(c) against its target ring, at every degree the membership uses.
    target, source, index = workloads.DERIVED_WITNESS
    src = jc.models.get_model(source).ring()
    ring = jc.models.get_model(target).ring()
    top = max(max(degrees) for key, degrees in workloads.MEMBERSHIP if key == target)
    poly, j, outside = src.extras[index], 0, []
    while src.degree2(poly) <= top:
        if not jc.jetquot.contains(ring, poly):
            outside.append(j)
        poly, j = src.derive(poly), j + 1
    ref["outside"][target] = outside

    path = os.path.join(run.HERE, "reference.json")
    with open(path, "w") as fh:
        json.dump(ref, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    print("wrote %s" % path)


if __name__ == "__main__":
    main()
