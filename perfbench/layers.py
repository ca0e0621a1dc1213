"""Per-layer metrics of one traced pass, computed from its spans.

Span names are ``<module>.<qualname>`` of the wrapped colexa function.  Self
times are summed over the span names each metric lists; counts are taken at
the same boundaries (see ``tracer.HOOKS``).
"""

from __future__ import annotations

from collections import Counter, defaultdict

import tracer as tr

COLEX_VALIDATE = {"colex.validate_colex", "colex.check_cell_balance"}
COLEX_BUILDERS = {"colex.build_tetrahedral", "colex.build_triangle_2d"}
TRANSVERSAL_ALL = {
    "gatecalc.verify_transversal_phase", "gatecalc.verify_transversal_CX",
    "gatecalc.verify_transversal_S", "gatecalc.verify_transversal_S_and_CX",
    "gatecalc.transversal_phase",
}
GAUGE_MEASURE = "gauge.Tableau.measure"
GAUGE_FIX = {"gauge.fix_demo", "gauge.gauge_fix"}
GAUGE_CHECK = {
    "gauge.build_gauge_code", "gauge.center_equals_stabilizer", "gauge.verify_H_logical",
    "gauge.verify_H_stabilizer_code", "gauge.transversal_H_action",
}

SELF_TIME = {
    "ring.snf.self_s": lambda n: n == "ring.smith_normal_form",
    "ring.solve.self_s": lambda n: n in ("ring.solve_left", "ring.in_rowspan"),
    "ring.kernel.self_s": lambda n: n == "ring.kernel_mod",
    "ring.iter_span.self_s": lambda n: n == "ring.iter_span",
    "colex.build.self_s": lambda n: n.startswith("colex.") and n not in COLEX_VALIDATE,
    "colex.validate.self_s": lambda n: n in COLEX_VALIDATE,
    "code.symplectic_phase.self_s": lambda n: n == "code.symplectic_phase",
    "code.verify.self_s": lambda n: n == "code.verify_code",
    "code.from_colex.self_s": lambda n: n == "code.from_colex",
    "code.distance.self_s": lambda n: n == "code.distance",
    "code.codeword.self_s": lambda n: n == "code.codeword",
    "morth.self_s": lambda n: n.startswith("morth."),
    "gatecalc.transversal.self_s": lambda n: n in TRANSVERSAL_ALL,
    "gauge.measure.self_s": lambda n: n == GAUGE_MEASURE,
    "gauge.check.self_s": lambda n: n in GAUGE_CHECK,
    "gauge.fix.self_s": lambda n: n in GAUGE_FIX
    or (n.startswith("gauge.Tableau.") and n != GAUGE_MEASURE),
    "cli.self_s": lambda n: n.startswith("cli."),
}

# work counts that must repeat exactly for a fixed seed
DETERMINISTIC_COUNTS = (
    "ring.snf.calls", "ring.snf.cells", "ring.iter_span.elements",
    "code.symplectic_phase.calls", "morth.multisets", "gatecalc.transversal.checked",
    "gauge.measure.calls",
)

# name -> (unit, better); the order is the order BENCHMARK.json lists them in
METRICS = {
    "ring.snf.calls": ("count", "lower"),
    "ring.snf.self_s": ("s", "lower"),
    "ring.snf.cells": ("count", "lower"),
    "ring.snf.distinct_ratio": ("ratio", "higher"),
    "ring.snf.max_transform_bits": ("bit", "lower"),
    "ring.solve.calls": ("count", "lower"),
    "ring.solve.self_s": ("s", "lower"),
    "ring.kernel.self_s": ("s", "lower"),
    "ring.iter_span.elements": ("count", "lower"),
    "ring.iter_span.self_s": ("s", "lower"),
    "colex.build.calls": ("count", "lower"),
    "colex.build.self_s": ("s", "lower"),
    "colex.validate.self_s": ("s", "lower"),
    "code.symplectic_phase.calls": ("count", "lower"),
    "code.symplectic_phase.self_s": ("s", "lower"),
    "code.verify.self_s": ("s", "lower"),
    "code.from_colex.self_s": ("s", "lower"),
    "code.distance.self_s": ("s", "lower"),
    "code.codeword.self_s": ("s", "lower"),
    "code.cap_exceeded": ("count", "lower"),
    "morth.multisets": ("count", "lower"),
    "morth.self_s": ("s", "lower"),
    "gatecalc.transversal.checked": ("count", "lower"),
    "gatecalc.transversal.self_s": ("s", "lower"),
    "gauge.measure.calls": ("count", "lower"),
    "gauge.measure.self_s": ("s", "lower"),
    "gauge.check.self_s": ("s", "lower"),
    "gauge.fix.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.stdout_bytes": ("B", "lower"),
    "cli.exit2": ("count", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def pass_metrics(tracer: tr.Tracer, results) -> dict:
    """Per-layer metrics of one traced pass; ``results`` are its OpResults.
    Self times are scaled to reference seconds with each operation's scale."""
    spans = tracer.spans
    selfs = [t * (results[s[tr.OP]].scale if s[tr.OP] is not None else 1.0)
             for s, t in zip(spans, tr.self_times(spans))]
    calls = Counter(s[tr.NAME] for s in spans)
    self_by_name = defaultdict(float)
    for s, t in zip(spans, selfs):
        self_by_name[s[tr.NAME]] += t

    def attr_values(name, key):
        return [a[key] for i, a in tracer.attrs.items() if spans[i][tr.NAME] == name]

    snf = "ring.smith_normal_form"
    snf_calls = calls[snf]
    out = {
        "ring.snf.calls": snf_calls,
        "ring.snf.cells": sum(attr_values(snf, "cells")),
        "ring.snf.distinct_ratio":
            len(set(attr_values(snf, "key"))) / snf_calls if snf_calls else 0.0,
        "ring.snf.max_transform_bits": max(attr_values(snf, "bits"), default=0),
        "ring.solve.calls": calls["ring.solve_left"],
        "ring.iter_span.elements": sum(attr_values("ring.iter_span", "elements")),
        "colex.build.calls": sum(calls[n] for n in COLEX_BUILDERS),
        "code.symplectic_phase.calls": calls["code.symplectic_phase"],
        "code.cap_exceeded": tracer.cap_exceeded,
        "morth.multisets": calls["morth.circle_product"],
        "gatecalc.transversal.checked":
            sum(attr_values("gatecalc.verify_transversal_phase", "checked"))
            + sum(attr_values("gatecalc.verify_transversal_CX", "checked")),
        "gauge.measure.calls": calls[GAUGE_MEASURE],
        "cli.stdout_bytes": sum(r.stdout_bytes for r in results),
        "cli.exit2": sum(1 for r in results if r.rc == 2),
        "trace.spans": len(spans),
    }
    for metric, match in SELF_TIME.items():
        out[metric] = sum(t for name, t in self_by_name.items() if match(name))
    return out
