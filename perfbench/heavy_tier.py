"""Per-slice figures of the heavy tier, from one traced ``hilbert_series`` each.

    python3 perfbench/heavy_tier.py

It runs the four configurations of the baseline table in ROADMAP.md.
For each it prints the total time, the top slice's
columns / rows / rank, the top slice's row-build and echelon seconds, and
the same two figures summed over every slice.  Row build is the
``ideal_rows`` span (enumeration and products included); echelon is the
time inside ``Echelon.insert``.
"""

import sys

import run
import spans

DEFAULT = ("graph:A4@24", "sln_principal:4@18", "lattice:2@24", "n2_c1:abc@24")


def slices(tracer):
    """(degree2, columns, rows, rank, row-build s, echelon s) per slice."""
    out = []
    for i, span in enumerate(tracer.spans):
        if span[spans.NAME] != "jetquot.ideal_basis":
            continue
        rows = [s for s in tracer.spans if s[spans.PARENT] == i
                and s[spans.NAME] == "jetquot.ideal_rows"][0]
        info = span[spans.INFO]
        insert = span[spans.COUNTED_CALLS].get("jetquot.Echelon.insert", [0, 0.0])
        out.append((info["degree2"], info["columns"], rows[spans.INFO]["rows"],
                    info["rank"], rows[spans.END] - rows[spans.START], insert[1]))
    return out


def main():
    print("| model @ maxdeg2 | total s | top slice cols / rows / rank "
          "| top slice row build s / echelon s | all slices rows / rank "
          "| all slices row build s / echelon s |")
    print("| --- | --- | --- | --- | --- | --- |")
    for arg in DEFAULT:
        key, _, depth = arg.partition("@")
        jc = run.import_program()
        ring = jc.models.get_model(key).ring()
        tracer = spans.Tracer()
        tracer.install(jc)
        try:
            jc.jetquot.hilbert_series(ring, int(depth))
        finally:
            tracer.uninstall()
        total = [s for s in tracer.spans if s[spans.NAME] == "jetquot.hilbert_series"][0]
        per = slices(tracer)
        top = max(per)
        print("| %s | %.2f | %d / %d / %d | %.2f / %.2f | %d / %d | %.2f / %.2f |" % (
            arg, total[spans.END] - total[spans.START], top[1], top[2], top[3],
            top[4], top[5], sum(p[2] for p in per), sum(p[3] for p in per),
            sum(p[4] for p in per), sum(p[5] for p in per)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
