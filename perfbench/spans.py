"""Per-layer tracing, from the benchmark's side of each call.

``Tracer.install(jc)`` replaces public functions of the ``jetchar``
modules with wrappers; ``uninstall`` puts the originals back.  Two kinds
of wrapper keep everything in memory until the run ends:

* a *span* wrapper records ``[name, start, end, parent, counted, info]``
  for calls at layer boundaries, which are few (one per model, series,
  query or degree slice);
* a *counted* wrapper handles the hot inner calls (one per ideal row or
  pivot), of which a deep run makes millions.  It adds the call's count
  and seconds to the innermost open span instead of making a span.

A span's self time is its duration minus its child spans and its counted
calls.  ``METRICS`` lists every per-layer metric with the end-to-end
metric it should move; ``metrics()`` computes them from the spans.
"""

import json
from collections import defaultdict
from time import perf_counter

# (name, unit, better, the end-to-end metric and workload it should move)
METRICS = (
    ("cli.self_s", "s", "lower", "wall_s on registry"),
    ("models.ring_build_s", "s", "lower", "setup_s on all"),
    ("models.verify_self_s", "s", "lower", "wall_s on registry"),
    ("superring.mul_mono_poly_calls", "count", "lower", "wall_s on deep_jets, then registry"),
    ("superring.mul_mono_poly_s", "s", "lower", "wall_s on deep_jets, then registry"),
    ("superring.product_yield", "ratio", "higher", "wall_s on deep_jets, then registry"),
    ("superring.derive_calls", "count", "lower", "wall_s on deep_jets, then registry"),
    ("superring.derive_s", "s", "lower", "wall_s on deep_jets, then registry"),
    ("jetquot.enumerate_calls", "count", "lower", "wall_s on deep_jets"),
    ("jetquot.enumerate_s", "s", "lower", "wall_s on deep_jets"),
    ("jetquot.monomials_enumerated", "count", "lower", "wall_s on deep_jets"),
    ("jetquot.enumerate_reuse", "ratio", "higher", "wall_s on deep_jets"),
    ("jetquot.row_build_self_s", "s", "lower", "wall_s on deep_jets"),
    ("jetquot.columns", "count", "lower", "wall_s and peak_rss_mib on deep_jets"),
    ("jetquot.rows", "count", "lower", "wall_s and peak_rss_mib on deep_jets"),
    ("jetquot.row_nnz", "count", "lower", "wall_s and peak_rss_mib on deep_jets"),
    ("jetquot.rows_peak", "count", "lower", "peak_rss_mib on deep_jets"),
    ("jetquot.insert_calls", "count", "lower", "wall_s on deep_jets"),
    ("jetquot.insert_s", "s", "lower", "wall_s on deep_jets"),
    ("jetquot.rank", "count", "lower", "wall_s on deep_jets"),
    ("jetquot.rank_yield", "ratio", "higher", "wall_s on deep_jets"),
    ("jetquot.pivot_nnz", "count", "lower", "wall_s on deep_jets"),
    ("jetquot.max_coeff_bits", "bits", "lower", "wall_s on deep_jets"),
    ("jetquot.top_slice_share", "ratio", "lower", "wall_s on deep_jets"),
    ("jetquot.contains_calls", "count", "lower", "wall_s on membership"),
    ("jetquot.reduce_s", "s", "lower", "wall_s on membership"),
    ("jetquot.slice_builds_per_query", "ratio", "lower", "wall_s on membership"),
    ("qseries.formula_calls", "count", "lower", "wall_s on deep_series"),
    ("qseries.formula_s", "s", "lower", "wall_s on deep_series"),
    ("combinat.count_at_calls", "count", "lower", "wall_s on deep_series, then registry"),
    ("combinat.count_constrained_s", "s", "lower", "wall_s on deep_series, then registry"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced over untraced rescaled pass time"),
)

# (module, owner within the module or None, attribute)
SPANNED = (
    ("cli", None, "main"),
    ("models", None, "verify"),
    ("models", "Model", "ring"),
    ("models", None, "qseries_formula"),
    ("combinat", None, "count_constrained"),
    ("jetquot", None, "hilbert_series"),
    ("jetquot", None, "ideal_basis"),
    ("jetquot", None, "ideal_rows"),
    ("jetquot", None, "contains"),
)
COUNTED = (
    ("superring", "RingSpec", "mul_mono_poly"),
    ("superring", "RingSpec", "derive"),
    ("jetquot", None, "enumerate_monomials"),
    ("jetquot", "Echelon", "insert"),
    ("jetquot", "Echelon", "reduce"),
    ("combinat", None, "count_at"),
)

NAME, START, END, PARENT, COUNTED_CALLS, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.loose = {}            # counted calls made outside every span
        self.stats = defaultdict(int)
        self.slices = set()        # distinct (ring, degree2) enumerated
        self.missing = []
        self._open = []
        self._saved = []

    # -- wrapping ------------------------------------------------------

    def install(self, jc):
        self.missing = []
        for kind, targets in (("span", SPANNED), ("counted", COUNTED)):
            for module, owner, attr in targets:
                target = getattr(jc, module)
                if owner is not None:
                    target = getattr(target, owner, None)
                fn = getattr(target, attr, None)
                name = ".".join(p for p in (module, owner, attr) if p)
                if fn is None:
                    self.missing.append(name)
                    continue
                wrap = self._span if kind == "span" else self._counted
                self._saved.append((target, attr, fn))
                setattr(target, attr, wrap(name, fn, _AFTER.get(name)))

    def uninstall(self):
        while self._saved:
            target, attr, fn = self._saved.pop()
            setattr(target, attr, fn)

    def _span(self, name, fn, after):
        spans, stack = self.spans, self._open

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, {}, {}]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, span, args, result)
            return result

        return wrapper

    def _counted(self, name, fn, after):
        spans, stack = self.spans, self._open

        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            calls = spans[stack[-1]][COUNTED_CALLS] if stack else self.loose
            entry = calls.get(name)
            if entry is None:
                calls[name] = [1, elapsed]
            else:
                entry[0] += 1
                entry[1] += elapsed
            if after is not None:
                after(self, None, args, result)
            return result

        return wrapper

    # -- results -------------------------------------------------------

    def dump(self, path):
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": span[NAME], "start": span[START],
                    "end": span[END], "parent": span[PARENT],
                    "counted": span[COUNTED_CALLS], "info": span[INFO]}) + "\n")

    def self_times(self):
        """Self time of every span, by index."""
        out = [s[END] - s[START] - sum(t for _, t in s[COUNTED_CALLS].values())
               for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def metrics(self, untraced_s, traced_s):
        spans = self.spans
        own = self.self_times()
        calls = defaultdict(int)
        secs = defaultdict(float)
        for table in [s[COUNTED_CALLS] for s in spans] + [self.loose]:
            for name, (n, t) in table.items():
                calls[name] += n
                secs[name] += t
        for s in spans:
            calls[s[NAME]] += 1
            secs[s[NAME]] += s[END] - s[START]

        def self_of(name):
            return sum(own[i] for i, s in enumerate(spans) if s[NAME] == name)

        def ratio(a, b):
            return a / b if b else 0.0

        top = defaultdict(float)    # largest slice of each hilbert_series
        for s in spans:
            if s[NAME] == "jetquot.ideal_basis" and s[PARENT] is not None \
                    and spans[s[PARENT]][NAME] == "jetquot.hilbert_series":
                top[s[PARENT]] = max(top[s[PARENT]], s[END] - s[START])
        in_contains = sum(1 for s in spans if s[NAME] == "jetquot.ideal_rows"
                          and s[PARENT] is not None
                          and spans[s[PARENT]][NAME] == "jetquot.contains")
        st = self.stats
        values = {
            "cli.self_s": self_of("cli.main"),
            "models.ring_build_s": secs["models.Model.ring"],
            "models.verify_self_s": self_of("models.verify"),
            "superring.mul_mono_poly_calls": calls["superring.RingSpec.mul_mono_poly"],
            "superring.mul_mono_poly_s": secs["superring.RingSpec.mul_mono_poly"],
            "superring.product_yield": ratio(st["nonzero_products"],
                                             calls["superring.RingSpec.mul_mono_poly"]),
            "superring.derive_calls": calls["superring.RingSpec.derive"],
            "superring.derive_s": secs["superring.RingSpec.derive"],
            "jetquot.enumerate_calls": calls["jetquot.enumerate_monomials"],
            "jetquot.enumerate_s": secs["jetquot.enumerate_monomials"],
            "jetquot.monomials_enumerated": st["monomials"],
            "jetquot.enumerate_reuse": ratio(len(self.slices),
                                             calls["jetquot.enumerate_monomials"]),
            "jetquot.row_build_self_s": self_of("jetquot.ideal_rows"),
            "jetquot.columns": st["columns"],
            "jetquot.rows": st["rows"],
            "jetquot.row_nnz": st["row_nnz"],
            "jetquot.rows_peak": st["rows_peak"],
            "jetquot.insert_calls": calls["jetquot.Echelon.insert"],
            "jetquot.insert_s": secs["jetquot.Echelon.insert"],
            "jetquot.rank": st["rank"],
            "jetquot.rank_yield": ratio(st["rank"], st["rows"]),
            "jetquot.pivot_nnz": st["pivot_nnz"],
            "jetquot.max_coeff_bits": st["max_coeff_bits"],
            "jetquot.top_slice_share": ratio(sum(top.values()), sum(
                spans[i][END] - spans[i][START] for i in top)),
            "jetquot.contains_calls": calls["jetquot.contains"],
            "jetquot.reduce_s": secs["jetquot.Echelon.reduce"],
            "jetquot.slice_builds_per_query": ratio(in_contains,
                                                    calls["jetquot.contains"]),
            "qseries.formula_calls": calls["models.qseries_formula"],
            "qseries.formula_s": secs["models.qseries_formula"],
            "combinat.count_at_calls": calls["combinat.count_at"],
            "combinat.count_constrained_s": secs["combinat.count_constrained"],
            "trace.overhead_ratio": ratio(traced_s, untraced_s),
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit, _, _ in METRICS}


# -- what a wrapper records after a call -----------------------------------

def _after_product(tracer, span, args, result):
    if result:
        tracer.stats["nonzero_products"] += 1


def _after_enumerate(tracer, span, args, result):
    tracer.stats["monomials"] += len(result)
    spec, degree2 = args[0], args[1]
    tracer.slices.add((getattr(spec, "name", ""), degree2))


def _after_rows(tracer, span, args, result):
    columns, rows = result
    st = tracer.stats
    st["columns"] += len(columns)
    st["rows"] += len(rows)
    st["row_nnz"] += sum(map(len, rows))
    st["rows_peak"] = max(st["rows_peak"], len(rows))
    span[INFO].update(degree2=args[1], columns=len(columns), rows=len(rows))


def _after_basis(tracer, span, args, result):
    echelon, ncols = result
    span[INFO].update(degree2=args[1], columns=ncols, rank=echelon.rank)


def _after_insert(tracer, span, args, result):
    if result:
        pivot = next(reversed(args[0].pivots.values()))
        st = tracer.stats
        st["rank"] += 1
        st["pivot_nnz"] += len(pivot)
        bits = max(abs(v).bit_length() for v in pivot.values())
        st["max_coeff_bits"] = max(st["max_coeff_bits"], bits)


def _after_hilbert(tracer, span, args, result):
    span[INFO].update(ring=getattr(args[0], "name", ""), maxdeg2=args[1])


_AFTER = {
    "superring.RingSpec.mul_mono_poly": _after_product,
    "jetquot.enumerate_monomials": _after_enumerate,
    "jetquot.ideal_rows": _after_rows,
    "jetquot.ideal_basis": _after_basis,
    "jetquot.Echelon.insert": _after_insert,
    "jetquot.hilbert_series": _after_hilbert,
}
