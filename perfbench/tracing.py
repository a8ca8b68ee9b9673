"""Span tracing of the package's public functions, from outside the package.

``Tracer.install()`` replaces each traced function with a wrapper that
records one span (name, start ns, end ns, parent span, request id, work
count, accepted count) and rebinds every name that points at the original
in any loaded ``simplexfreedom`` module, so ``from .measures import freedom``
in ``sensitivity`` is traced too.  ``uninstall()`` puts the originals back.
Spans stay in memory; ``write()`` saves them as JSON lines at the end.

Self time is a span's duration minus the time its direct child spans
cover (calls are nested on one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# module -> public callables; "Class.method" patches the class
TARGETS = {
    "cli": ("main", "parse_assignment", "parse_crosstable"),
    "core": ("validate", "tighten", "classify", "tightened_bounds"),
    "measures": ("freedom", "freedom_conditional", "normed_freedom",
                 "yager_ambiguity", "hartley_nonspecificity", "measure_report",
                 "subset_scan"),
    "sensitivity": ("dominance_condition", "impact_compare", "imposition_compare"),
    "oracle": ("mc_freedom", "mc_freedom_conditional", "region_polygon",
               "SplitMix64.uniforms"),
    "crosstab": ("mc_joint_freedom", "cell_bounds", "classify_cell", "case1_census",
                 "dependency", "cell_width_vs_dependency"),
}
# per-layer metric -> unit; counts and self times are per traced request
LAYER_UNITS = {
    "oracle.uniforms.words": "words/req",
    "oracle.uniforms.ns_per_word": "ns/word",
    "oracle.uniforms.words_per_call": "words/call",
    "oracle.uniforms.share": "ratio",
    "oracle.mc_freedom.calls": "calls/req",
    "oracle.mc_freedom.self_ns_per_sample": "ns/sample",
    "oracle.mc_freedom.share": "ratio",
    "oracle.accept_ratio": "ratio",
    "measures.freedom.calls": "calls/req",
    "measures.freedom.self_ms": "ms/req",
    "measures.freedom_conditional.self_ms": "ms/req",
    "measures.share": "ratio",
    "measures.distinct_width_ratio": "ratio",
    "crosstab.mc_joint_freedom.calls": "calls/req",
    "crosstab.mc_joint_freedom.self_ns_per_sample": "ns/sample",
    "crosstab.mc_joint_freedom.share": "ratio",
    "crosstab.accept_ratio": "ratio",
    "crosstab.cells.self_ms": "ms/req",
    "sensitivity.self_ms": "ms/req",
    "sensitivity.share": "ratio",
    "core.validate.calls": "calls/req",
    "core.self_ms": "ms/req",
    "core.share": "ratio",
    "cli.self_ms": "ms/req",
    "cli.share": "ratio",
    "trace.overhead_ratio": "ratio",
}
CELL_FUNCTIONS = ("cell_bounds", "classify_cell", "case1_census", "dependency",
                  "cell_width_vs_dependency")


def _estimate_counts(result) -> tuple[int, int]:
    return result.samples, round(result.mean * result.samples)


# work done per span: (work, accepted) from the call's result
_COUNTERS = {
    "oracle.SplitMix64.uniforms": lambda r: (len(r), 0),
    "oracle.mc_freedom": _estimate_counts,
    "crosstab.mc_joint_freedom": _estimate_counts,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                work = counter(result) if counter and result is not None else (0, 0)
                spans[idx] = (name, start, end, parent, self.request, *work)

        return traced

    def install(self) -> None:
        mods = {n: m for n, m in sys.modules.items()
                if n == "simplexfreedom" or n.startswith("simplexfreedom.")}
        for short, names in TARGETS.items():
            module = mods[f"simplexfreedom.{short}"]
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                orig = getattr(owner, attr)
                wrapped = self._wrap(f"{short}.{qual}", orig)
                if owner_name:
                    self._restore.append((owner, attr, orig))
                    setattr(owner, attr, wrapped)
                    continue
                for mod in mods.values():
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._restore.append((mod, key, orig))
                            setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start_ns", "end_ns", "parent", "request", "work", "accepted")
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self, requests: int, request_ns: int) -> dict[str, float]:
        """Per-layer metrics; counts and self times are per traced request,
        shares are of the summed traced request time."""
        child = defaultdict(int)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns = defaultdict(int)
        calls = defaultdict(int)
        work = defaultdict(int)
        accepted = defaultdict(int)
        for i, (name, start, end, _, _, w, acc) in enumerate(self.spans):
            self_ns[name] += end - start - child[i]
            calls[name] += 1
            work[name] += w
            accepted[name] += acc

        def module_ns(short: str) -> int:
            return sum(v for k, v in self_ns.items() if k.startswith(short + "."))

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        per_req = functools.partial(ratio, b=requests)
        share = functools.partial(ratio, b=request_ns)
        u, mc, joint = ("oracle.SplitMix64.uniforms", "oracle.mc_freedom",
                        "crosstab.mc_joint_freedom")
        cells_ns = sum(self_ns[f"crosstab.{n}"] for n in CELL_FUNCTIONS)
        return {
            "oracle.uniforms.words": per_req(work[u]),
            "oracle.uniforms.ns_per_word": ratio(self_ns[u], work[u]),
            "oracle.uniforms.words_per_call": ratio(work[u], calls[u]),
            "oracle.uniforms.share": share(self_ns[u]),
            "oracle.mc_freedom.calls": per_req(calls[mc]),
            "oracle.mc_freedom.self_ns_per_sample": ratio(self_ns[mc], work[mc]),
            "oracle.mc_freedom.share": share(self_ns[mc]),
            "oracle.accept_ratio": ratio(accepted[mc], work[mc]),
            "measures.freedom.calls": per_req(calls["measures.freedom"]),
            "measures.freedom.self_ms": per_req(self_ns["measures.freedom"]) / 1e6,
            "measures.freedom_conditional.self_ms":
                per_req(self_ns["measures.freedom_conditional"]) / 1e6,
            "measures.share": share(module_ns("measures")),
            "crosstab.mc_joint_freedom.calls": per_req(calls[joint]),
            "crosstab.mc_joint_freedom.self_ns_per_sample":
                ratio(self_ns[joint], work[joint]),
            "crosstab.mc_joint_freedom.share": share(self_ns[joint]),
            "crosstab.accept_ratio": ratio(accepted[joint], work[joint]),
            "crosstab.cells.self_ms": per_req(cells_ns) / 1e6,
            "sensitivity.self_ms": per_req(module_ns("sensitivity")) / 1e6,
            "sensitivity.share": share(module_ns("sensitivity")),
            "core.validate.calls": per_req(calls["core.validate"]),
            "core.self_ms": per_req(module_ns("core")) / 1e6,
            "core.share": share(module_ns("core")),
            "cli.self_ms": per_req(module_ns("cli")) / 1e6,
            "cli.share": share(module_ns("cli")),
        }
