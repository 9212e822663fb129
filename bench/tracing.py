"""Layer spans for the traced benchmark run.

The benchmark reaches the library only through an ``Api`` object.  The
plain one holds the library functions themselves; the traced one wraps
each of them in a span named after its layer, so the library is never
patched and the untraced run pays nothing.  Only calls the benchmark
makes are spanned: work a library function does internally (``verify``
calling the decreasing oracle, ``best_bound`` calling ``shape``) is
attributed to the function the benchmark called.

Layer metrics, and the end-to-end metric each one should move:

- ``dist_core.make_pmf``, ``dist_core.moments`` (mean and variance),
  ``dist_core.tail`` (both tails), ``dist_core.shape`` and the
  ``dist_core.points`` counter (support points passed in): items_per_s,
  item_ms_p50 and peak_rss_mb on soundness_sweep.
- ``bounds.best_bound``: items_per_s on soundness_sweep.
- ``decompose.uniform``: item_ms_p50 on decompose_roundtrip.
- ``decompose.to_interval``, ``decompose.from_interval`` and the
  ``decompose.interval_atoms`` counter: item_ms_p95 and items_per_s on
  decompose_roundtrip.
- ``decompose.transforms``: items_per_s on decompose_roundtrip.
- ``extremal.lp_decreasing`` (+ ``enumerated``) and ``extremal.verify``
  (+ ``rows``): item_ms_p50 on oracle_grid.
- ``extremal.lp_two_sided`` (+ ``enumerated``): item_ms_p95 and
  items_per_s on oracle_grid.
- ``cli.main`` (+ ``exit_nonzero``, ``stdout_bytes``): items_per_s and
  item_ms_p50 on cli_requests; its cold-start counterpart is setup_s.
- ``bench.item`` self time (item span minus its layer spans) and
  ``trace.overhead_s`` bound how much of every number is the harness.
"""
from __future__ import annotations

import io
import types
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import tailbounds
from tailbounds import cli


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _pmf_points(args) -> int:
    return len(args[0].weights)


# Api attribute -> (library function name, layer, counters computed from
# the call's positional arguments and its result).
LAYERS = {
    "make_pmf": ("make_pmf", "dist_core.make_pmf",
                 {"dist_core.points": lambda args, res: len(args[1])}),
    "mean": ("mean", "dist_core.moments",
             {"dist_core.points": lambda args, res: _pmf_points(args)}),
    "variance": ("variance", "dist_core.moments",
                 {"dist_core.points": lambda args, res: _pmf_points(args)}),
    "tail": ("tail", "dist_core.tail",
             {"dist_core.points": lambda args, res: _pmf_points(args)}),
    "two_sided_tail": ("two_sided_tail", "dist_core.tail",
                       {"dist_core.points": lambda args, res: _pmf_points(args)}),
    "shape": ("shape", "dist_core.shape",
              {"dist_core.points": lambda args, res: _pmf_points(args)}),
    "best_bound": ("best_bound", "bounds.best_bound", {}),
    "to_uniform_mixture": ("to_uniform_mixture", "decompose.uniform", {}),
    "from_uniform_mixture": ("from_uniform_mixture", "decompose.uniform", {}),
    "unimodal_to_interval_mixture": (
        "unimodal_to_interval_mixture", "decompose.to_interval",
        {"decompose.interval_atoms": lambda args, res: len(res.atoms)},
    ),
    "from_interval_mixture": ("from_interval_mixture", "decompose.from_interval", {}),
    "flatten_head": ("flatten_head", "decompose.transforms", {}),
    "merge_tail_atoms": ("merge_tail_atoms", "decompose.transforms", {}),
    "reduce_three_atoms": ("reduce_three_atoms", "decompose.transforms", {}),
    "lp_max_tail_decreasing": (
        "lp_max_tail_decreasing", "extremal.lp_decreasing",
        {"extremal.lp_decreasing.enumerated": lambda args, res: res.enumerated},
    ),
    "verify_tightness_theorem2": (
        "verify_tightness_theorem2", "extremal.verify",
        {"extremal.verify.rows": lambda args, res: len(res)},
    ),
    "lp_max_two_sided_unimodal": (
        "lp_max_two_sided_unimodal", "extremal.lp_two_sided",
        {"extremal.lp_two_sided.enumerated": lambda args, res: res.enumerated},
    ),
    "run_cli": (None, "cli.main", {
        "cli.main.exit_nonzero": lambda args, res: int(res[0] != 0),
        "cli.main.stdout_bytes": lambda args, res: len(res[1].encode()),
    }),
}

ITEM = "bench.item"
SPANNED = sorted({layer for _, layer, _ in LAYERS.values()})
COUNTERS = sorted({name for _, _, counters in LAYERS.values() for name in counters})


def _function(name):
    return run_cli if name is None else getattr(tailbounds, name)


def plain_api() -> types.SimpleNamespace:
    return types.SimpleNamespace(
        **{attr: _function(name) for attr, (name, _, _) in LAYERS.items()}
    )


def layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, keyed by metric name."""
    units = {f"{name}.calls": "count" for name in SPANNED}
    units.update({f"{name}.self_s": "s" for name in SPANNED + [ITEM]})
    units.update({name: "count" for name in COUNTERS})
    units["cli.main.stdout_bytes"] = "bytes"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Spans of one traced pass, kept in memory until the run ends.

    A span is ``(span_id, name, start, end, parent_id, item_id)``; layer
    spans have their item's span as parent.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._item: tuple[int, int] | None = None  # (span id, item id)

    def api(self) -> types.SimpleNamespace:
        return types.SimpleNamespace(
            **{attr: self._wrap(_function(name), layer, counters)
               for attr, (name, layer, counters) in LAYERS.items()}
        )

    def _wrap(self, fn, layer: str, counters: dict):
        spans = self.spans
        totals = self.counters

        def traced(*args):
            start = perf_counter()
            try:
                result = fn(*args)
            finally:
                end = perf_counter()
                parent, item_id = self._item
                spans.append((len(spans), layer, start, end, parent, item_id))
            for name, count in counters.items():
                totals[name] += count(args, result)
            return result

        return traced

    def begin(self, item_id: int) -> int:
        """Open the ``bench.item`` span that the item's layer spans point to."""
        span_id = len(self.spans)
        self.spans.append(None)
        self._item = (span_id, item_id)
        return span_id

    def end(self, span_id: int, start: float, end: float) -> None:
        self.spans[span_id] = (span_id, ITEM, start, end, None, self._item[1])
        self._item = None

    def layer_metrics(self) -> dict[str, float]:
        """``calls`` and ``self_s`` per spanned layer, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls = dict.fromkeys(SPANNED + [ITEM], 0)
        self_s = dict.fromkeys(SPANNED + [ITEM], 0.0)
        for span_id, name, start, end, _, _ in self.spans:
            calls[name] += 1
            self_s[name] += end - start - child_time[span_id]
        metrics = {f"{name}.calls": calls[name] for name in SPANNED}
        metrics.update({f"{name}.self_s": self_s[name] for name in SPANNED + [ITEM]})
        metrics.update(self.counters)
        return metrics
