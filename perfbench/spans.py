"""Spans at torushom's layer boundaries, recorded from outside the program.

Run as a script, this file is one traced job::

    python3 perfbench/spans.py SPANS_FILE JOB_ID all --facets ... --field Q

It wraps every public function of each layer module, rebinding it in every
`torushom` module that imported it by name, and the methods in `METHODS`.
Then it calls `torushom.cli.main(argv)` and, when the job ends, writes the
spans to SPANS_FILE.  The benchmark derives self times and counts from them
with `layer_metrics`.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from collections import Counter

LAYERS = ("cli", "formats", "poset", "exactlin", "complexes", "sheaves",
          "torusalg", "facevec", "specseq", "facering")

# `field` gets no spans: its per-element methods run 10^6-10^7 times a job,
# so wrapping them would measure the wrapper.  Their cost shows in
# exactlin.self_s.
METHODS = {
    "exactlin": {"Matrix": ("rref", "mul"), "IncrementalSpan": ("reduce",)},
    "complexes": {"HomologyProfile": ("__init__",),
                  "GradedComplex": ("check_square_zero",)},
    "sheaves": {"LocalHomologyData": ("__init__",)},
    "torusalg": {"TorusSheafKit": ("__init__",)},
}

RREF = "exactlin.Matrix.rref"

# redundancy.<key>: calls / distinct (poset content, field) pairs in the job
KEYED = {
    "face_vectors": "facevec.face_vectors",
    "classify": "complexes.classify",
    "reduced_betti": "complexes.reduced_betti",
    "local_data": "sheaves.LocalHomologyData.__init__",
    "cone_profile": "specseq.cone_profile",
}

# (metric, kind, span names): "calls" counts spans, "s" sums the wall time
# of spans not nested in a span of the same name, "cells" sums nrows*ncols.
SPECIFIC = [
    ("poset.complement_of_link_calls", "calls", ("poset.complement_of_link",)),
    ("poset.link_calls", "calls", ("poset.link",)),
    ("exactlin.rref_calls", "calls", (RREF,)),
    ("exactlin.rref_s", "s", (RREF,)),
    ("exactlin.rref_cells", "cells", (RREF,)),
    ("exactlin.mul_calls", "calls", ("exactlin.Matrix.mul",)),
    ("exactlin.mul_s", "s", ("exactlin.Matrix.mul",)),
    ("exactlin.span_reduce_calls", "calls", ("exactlin.IncrementalSpan.reduce",)),
    ("exactlin.span_reduce_s", "s", ("exactlin.IncrementalSpan.reduce",)),
    ("complexes.homology_calls", "calls", ("complexes.HomologyProfile.__init__",)),
    ("complexes.homology_s", "s", ("complexes.HomologyProfile.__init__",)),
    ("complexes.chain_complex_calls", "calls", ("complexes.cellular_chain_complex",)),
    ("complexes.square_zero_s", "s", ("complexes.GradedComplex.check_square_zero",)),
    ("complexes.classify_calls", "calls", ("complexes.classify",)),
    ("complexes.reduced_betti_calls", "calls", ("complexes.reduced_betti",)),
    ("sheaves.local_data_builds", "calls", ("sheaves.LocalHomologyData.__init__",)),
    ("sheaves.local_data_s", "s", ("sheaves.LocalHomologyData.__init__",)),
    ("sheaves.cohomology_calls", "calls",
     ("sheaves.sheaf_cohomology", "sheaves.cosheaf_homology")),
    ("sheaves.cohomology_s", "s",
     ("sheaves.sheaf_cohomology", "sheaves.cosheaf_homology")),
    ("sheaves.standard_sheaf_calls", "calls", ("sheaves.standard_sheaf",)),
    ("torusalg.kit_builds", "calls", ("torusalg.TorusSheafKit.__init__",)),
    ("torusalg.keylemma_s", "s", ("torusalg.keylemma_check",)),
    ("torusalg.duality_s", "s", ("torusalg.duality_check",)),
    ("torusalg.les_duality_s", "s", ("torusalg.les_duality_check",)),
    ("torusalg.validate_charmap_calls", "calls", ("torusalg.validate_charmap",)),
    ("facevec.face_vectors_calls", "calls", ("facevec.face_vectors",)),
    ("facevec.face_vectors_s", "s", ("facevec.face_vectors",)),
    ("specseq.pages_calls", "calls", ("specseq.pages",)),
    ("specseq.cone_profile_calls", "calls", ("specseq.cone_profile",)),
    ("specseq.theorem_checks_s", "s", ("specseq.theorem_checks",)),
    ("specseq.crosscheck_s", "s", ("specseq.e2_border_sheaf_crosscheck",)),
    ("facering.relation_system_s", "s", ("facering.relation_system",)),
    ("facering.quotient_rank_s", "s", ("facering.graded_quotient_rank",)),
    ("facering.kernel_generators_s", "s", ("facering.kernel_generators",)),
]

# Every metric the traced pass reports, in order; counts must repeat exactly.
METRICS = ([f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "calls")]
           + [name for name, _, _ in SPECIFIC]
           + [f"redundancy.{key}" for key in KEYED])
COUNTS = [m for m in METRICS if not m.endswith("_s")]


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.startswith(("redundancy.", "trace.")) else "count"


class Tracer:
    """Spans of one job, kept in memory as [name, parent, start, end, cells]."""

    def __init__(self):
        self.spans = []
        self.keyed = []       # (span name, poset, field) of the KEYED calls
        self._open = [-1]

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._open, time.perf_counter
        rref = name == RREF
        keyed = self.keyed if name in KEYED.values() else None
        sig = inspect.signature(fn) if keyed is not None else None

        def traced(*args, **kwargs):
            if keyed is not None:
                bound = sig.bind(*args, **kwargs).arguments
                keyed.append((name, bound["S"], bound["field"]))
            rec = [name, stack[-1], 0.0, 0.0, args[0].nrows * args[0].ncols if rref else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def distinct_pairs(self) -> dict:
        """Distinct (poset content, field) pairs per KEYED function."""
        seen = {key: set() for key in KEYED}
        by_name = {name: key for key, name in KEYED.items()}
        for name, S, field in self.keyed:
            content = (tuple(S.ranks), tuple(map(tuple, S.vertex_sets)),
                       tuple(map(tuple, S.covers)))
            seen[by_name[name]].add((content, field.name))
        return {key: len(v) for key, v in seen.items()}


def install(tracer: Tracer):
    """Wrap the layer entry points of the `torushom` package."""
    import torushom

    modules = [torushom] + [importlib.import_module(f"torushom.{m.name}")
                            for m in pkgutil.iter_modules(torushom.__path__)]
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"torushom.{layer}")
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}",
                                               vars(cls)[meth]))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans, distinct: dict) -> dict:
    """Every metric in METRICS from one job's spans and distinct-pair counts."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    timed = {n for _, kind, names in SPECIFIC if kind == "s" for n in names}
    calls, cells, wall = Counter(), Counter(), Counter()
    for (name, parent, start, end, c), own in zip(spans, self_times(spans)):
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += own
        out[f"{layer}.calls"] += 1
        calls[name] += 1
        cells[name] += c
        if name in timed:
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][1]
            if p < 0:
                wall[name] += end - start
    totals = {"calls": calls, "cells": cells, "s": wall}
    for metric, kind, names in SPECIFIC:
        out[metric] = sum(totals[kind][n] for n in names)
    for key, name in KEYED.items():
        out[f"redundancy.{key}"] = calls[name] / distinct[key] if distinct.get(key) else 0.0
    return out


def main(argv) -> int:
    spans_file, job_id, job_argv = argv[0], argv[1], argv[2:]
    from torushom import cli

    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(job_argv)
    finally:
        sys.stdout.flush()
        with open(spans_file, "w", encoding="utf-8") as f:
            json.dump({"job": job_id, "spans": tracer.spans,
                       "distinct": tracer.distinct_pairs()}, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
