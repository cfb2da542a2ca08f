"""Outside-in tracer for the traced benchmark pass.

Wrappers are installed on the names a calling module looks up (for example
``pseudopoly.audit.hankel_table``), so the program itself is unchanged and
an untraced run pays nothing.  Each call becomes one span (name, start,
end, parent span, operation id) kept in memory; per-layer busy and self
times are derived from the spans after the pass.
"""
from __future__ import annotations

import importlib
import json
from collections import Counter
from time import perf_counter

_POLYARITH = ("clear_to_int_pair", "degree", "divmod_poly", "from_int_polynomial",
              "gcd_poly", "series_from_rational", "trim")
_FORMATS = ("parse_sequence", "render_sequence", "dumps", "audit_json_obj",
            "congruence_json_obj", "hankel_json_obj", "invariance_json_obj",
            "rationality_json_obj", "singularity_json_obj", "audit_csv",
            "congruence_csv", "hankel_csv", "rationality_csv")

# (calling module, looked-up name, span name "<defining layer>.<function>")
SITES = (
    [("pseudopoly.cli", "run_cli", "cli.run_cli")]
    + [("pseudopoly.cli", f, f"{layer}.{f}") for f, layer in (
        ("ruzsa_audit", "audit"),
        ("verify_transform_invariance", "hankel"),
        ("hankel_table", "hankel"),
        ("detect_rationality", "hankel"),
        ("check_congruences", "sequences"),
        ("generate_primary", "sequences"),
        ("generate_hall_like", "sequences"),
        ("binomial_transform", "binomial"),
        ("inverse_binomial_transform", "binomial"),
    )]
    + [("pseudopoly.formats", f, f"formats.{f}") for f in _FORMATS]
    + [("pseudopoly.audit", f, f"{layer}.{f}") for f, layer in (
        ("check_congruences", "sequences"),
        ("growth_rate", "sequences"),
        ("polynomial_certificate", "sequences"),
        ("hankel_table", "hankel"),
        ("detect_rationality", "hankel"),
        ("singular_directions", "analytic"),
    )]
    + [("pseudopoly.sequences", "check_congruences", "sequences.check_congruences"),
       ("pseudopoly.sequences", "inverse_binomial_transform",
        "binomial.inverse_binomial_transform"),
       ("pseudopoly.hankel", "hankel_determinant", "hankel.hankel_determinant"),
       ("pseudopoly.hankel", "binomial_transform", "binomial.binomial_transform"),
       ("pseudopoly.hankel", "lower_triangular_rows", "binomial.lower_triangular_rows")]
    + [("pseudopoly.hankel", f, f"polyarith.{f}") for f in _POLYARITH]
    + [("pseudopoly.analytic", f, f"polyarith.{f}")
       for f in ("from_int_polynomial", "squarefree_factors")]
)

# metric -> ("busy" | "self" | "calls", span names).  Busy time counts a
# span only when no enclosing span belongs to the same metric, so nested
# calls (audit_json_obj -> hankel_json_obj) are not counted twice.
LAYERS = {
    "trace.pass_s": ("busy", {"cli.run_cli"}),
    "cli.self_s": ("self", {"cli.run_cli"}),
    "formats.parse_s": ("busy", {"formats.parse_sequence"}),
    "formats.render_s": ("busy", {f"formats.{f}" for f in _FORMATS[1:]}),
    "audit.self_s": ("self", {"audit.ruzsa_audit"}),
    "audit.calls": ("calls", {"audit.ruzsa_audit"}),
    "sequences.generate_s": ("busy", {"sequences.generate_primary",
                                      "sequences.generate_hall_like"}),
    "sequences.congruence_s": ("busy", {"sequences.check_congruences"}),
    "sequences.growth_s": ("busy", {"sequences.growth_rate"}),
    "sequences.certificate_s": ("busy", {"sequences.polynomial_certificate"}),
    "hankel.table_s": ("busy", {"hankel.hankel_table"}),
    "hankel.detect_self_s": ("self", {"hankel.detect_rationality"}),
    "hankel.detect_calls": ("calls", {"hankel.detect_rationality"}),
    "hankel.determinant_s": ("busy", {"hankel.hankel_determinant"}),
    "hankel.determinant_calls": ("calls", {"hankel.hankel_determinant"}),
    "hankel.invariance_self_s": ("self", {"hankel.verify_transform_invariance"}),
    "binomial.transform_s": ("busy", {"binomial.binomial_transform",
                                      "binomial.inverse_binomial_transform",
                                      "binomial.lower_triangular_rows"}),
    "polyarith.s": ("busy", {name for _, _, name in SITES if name.startswith("polyarith.")}),
    "analytic.singular_self_s": ("self", {"analytic.singular_directions"}),
}


class TraceError(RuntimeError):
    """A wrapper expected to fire on this workload recorded no calls."""


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` bracket a pass."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, op id)
        self.op_id = -1
        self.counts = Counter()  # det bit maximum, recurrence orders, pairs
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, func, name):
        spans, stack = self.spans, self._stack
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if observe is not None:
                observe(self.counts, result)
            return result

        traced.__wrapped__ = func
        return traced

    def require(self, names) -> None:
        """Raise TraceError unless every span name in ``names`` was recorded."""
        seen = {span[0] for span in self.spans}
        missing = sorted(set(names) - seen)
        if missing:
            raise TraceError(
                "wrappers recorded zero calls (an import may have moved): "
                + ", ".join(missing)
            )

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _observe_det(counts, det):
    counts["det_max_bits"] = max(counts["det_max_bits"], abs(det).numerator.bit_length())


def _observe_detection(counts, detection):
    if detection.function is not None:
        counts["recurrence_order_sum"] += detection.function.order


def _observe_congruence(counts, report):
    counts["congruence_pairs"] += report.checked_pairs


_OBSERVERS = {
    "hankel.hankel_determinant": _observe_det,
    "hankel.detect_rationality": _observe_detection,
    "sequences.check_congruences": _observe_congruence,
}


def layer_metrics(spans, scale) -> dict[str, float]:
    """Per-layer totals from ``spans``; ``scale[op]`` converts an operation's
    wall seconds to the benchmark's normalised seconds."""
    n = len(spans)
    duration = [(end - start) * scale[op] for _, start, end, _, op in spans]
    child = [0.0] * n
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            child[parent] += duration[i]
    out = {}
    for metric, (how, names) in LAYERS.items():
        total = 0.0
        for i, (name, _, _, parent, _) in enumerate(spans):
            if name not in names:
                continue
            if how == "calls":
                total += 1
            elif how == "self":
                total += duration[i] - child[i]
            elif not _has_ancestor_in(spans, parent, names):
                total += duration[i]
        out[metric] = total
    return out


def _has_ancestor_in(spans, index, names) -> bool:
    while index is not None:
        if spans[index][0] in names:
            return True
        index = spans[index][3]
    return False
