"""Spans around secomp's layer functions, recorded from the benchmark's side.

``Tracer.install`` replaces each name in ``WRAPPED`` on the module through
which callers reach it (``secomp.cli.maximize_equivocation``, not
``secomp.regions.maximize_equivocation``: the CLI holds its own reference).
Each call records a span: name, start, end, parent span, command id, and a
few fields read from the return value. Spans stay in memory until
``dump``. A name the package no longer has is listed in ``absent`` and
produces no spans; tracing goes on without it.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from pathlib import Path

# (module the caller reaches the name through, attribute, span name)
WRAPPED = (
    ("secomp.cli", "main", "cli.main"),
    ("secomp.cli", "load_distribution", "cli.load_distribution"),
    ("secomp.cli", "maximize_equivocation", "regions.maximize_equivocation"),
    ("secomp.cli", "coded_inner_bound_sample", "regions.coded_inner_bound_sample"),
    ("secomp.cli", "check_stochastic_degradation", "orderings.check_stochastic_degradation"),
    ("secomp.cli", "search_less_noisy_violation", "orderings.search_less_noisy_violation"),
    ("secomp.orderings", "is_physically_degraded", "orderings.is_physically_degraded"),
    ("secomp.cli", "run_sw_binning", "binning.run_sw_binning"),
    ("secomp.cli", "run_erasure_encoder_scheme", "binning.run_erasure_encoder_scheme"),
    ("secomp.cli", "make_erasure_joint", "erasure.make_erasure_joint"),
    ("secomp.regions", "build_joint", "probability.build_joint"),
    ("secomp.regions", "entropy_of", "probability.entropy_of"),
    ("secomp.regions", "mutual_information_of", "probability.mutual_information_of"),
    ("secomp.orderings", "entropy_of", "probability.entropy_of"),
    ("secomp.orderings", "marginalize", "probability.marginalize"),
    ("secomp.cli", "entropy_of", "probability.entropy_of"),
    ("secomp.cli", "mutual_information_of", "probability.mutual_information_of"),
)

# Per-layer metrics in report order, with units; see README.md for the
# end-to-end metric and workload each one should move.
LAYER_METRICS = (
    ("cli.self_s", "s"),
    ("cli.load_s", "s"),
    ("regions.solve_none_s", "s"),
    ("regions.solve_sb_s", "s"),
    ("regions.solve_se_s", "s"),
    ("regions.solve_both_s", "s"),
    ("regions.start_ms", "ms"),
    ("regions.coded_corner_s", "s"),
    ("regions.starts", "count"),
    ("regions.agree_ratio", "ratio"),
    ("regions.solve_share", "ratio"),
    ("probability.s", "s"),
    ("probability.calls", "count"),
    ("orderings.degradation_ms", "ms"),
    ("orderings.less_noisy_s", "s"),
    ("orderings.verdicts", "count"),
    ("orderings.falsified", "count"),
    ("binning.sw_trial_us", "us"),
    ("binning.gap_trial_us", "us"),
    ("binning.trials", "count"),
    ("trace.overhead_s", "s"),
)


def _returned(args: tuple, kwargs: dict, result) -> dict:
    """The fields of a return value (and of a switch argument) the metrics use."""
    fields = {}
    opt = getattr(result, "opt", result)
    if hasattr(opt, "objective_trace"):
        fields["starts"] = len(opt.objective_trace)
        fields["agreeing"] = opt.starts_agreeing
    for attr in ("kind", "trials"):
        if hasattr(result, attr):
            fields[attr] = getattr(result, attr)
    for arg in (*args, *kwargs.values()):
        if hasattr(arg, "conditioning_vars"):
            fields["switches"] = arg.name
    return fields


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.command: str | None = None
        self._stack: list[int] = []
        self._originals: dict[tuple[str, str], object] = {}

    def install(self) -> None:
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                if f"{module_name}.{attr}" not in self.absent:
                    self.absent.append(f"{module_name}.{attr}")
                continue
            self._originals[(module_name, attr)] = fn
            setattr(module, attr, self._wrap(span_name, fn, module_name))

    def uninstall(self) -> None:
        for (module_name, attr), fn in self._originals.items():
            setattr(importlib.import_module(module_name), attr, fn)
        self._originals.clear()

    def _wrap(self, name: str, fn, via: str):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = {"name": name, "via": via, "command": self.command,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span.update(_returned(args, kwargs, result))
            return result

        return traced

    def dump(self, path: Path, summary: dict) -> None:
        path.write_text(json.dumps({"summary": summary, "absent": self.absent,
                                    "spans": self.spans}))


def _self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [s["end"] - s["start"] for s in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def self_time_by_name(spans: list[dict], rounds: int) -> dict[str, float]:
    """Total self time per span name, per traced round."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, _self_times(spans)):
        totals[span["name"]] = totals.get(span["name"], 0.0) + own / rounds
    return totals


def layer_metrics(spans: list[dict], rounds: int, traced_wall: float, overhead: float) -> dict:
    """Per-layer figures from the spans of ``rounds`` traced rounds.

    Times named ``*_s``/``*_ms`` without "per" are medians per call; counts
    and ``probability.s`` are per round; ``start_ms`` and ``*_trial_us`` are
    total span time over total starts or trials. A time or ratio with no
    spans to measure is None, not 0: a missing measurement, not a speed-up.
    Counts with no spans are 0.
    """
    def durations(name: str, **match) -> list[float]:
        return [s["end"] - s["start"] for s in spans
                if s["name"] == name and all(s.get(k) == v for k, v in match.items())]

    def median(values: list[float], scale: float = 1.0) -> float | None:
        return statistics.median(values) * scale if values else None

    def ratio(num: float, den: float) -> float | None:
        return num / den if den else None

    solves = [s for s in spans if s["name"] in (
        "regions.maximize_equivocation", "regions.coded_inner_bound_sample")]
    starts = sum(s.get("starts", 0) for s in solves)
    solve_time = sum(s["end"] - s["start"] for s in solves)
    prob = [s for s in spans if s["name"].startswith("probability.")]
    verdicts = [s for s in spans if s["name"] in (
        "orderings.check_stochastic_degradation", "orderings.search_less_noisy_violation")]

    def per_trial_us(name: str) -> float | None:
        calls = [s for s in spans if s["name"] == name]
        per_trial = ratio(sum(s["end"] - s["start"] for s in calls),
                          sum(s.get("trials", 0) for s in calls))
        return None if per_trial is None else per_trial * 1e6

    values = {
        "cli.self_s": median([own for s, own in zip(spans, _self_times(spans))
                              if s["name"] == "cli.main"]),
        "cli.load_s": median(durations("cli.load_distribution")),
        "regions.start_ms": ratio(solve_time * 1e3, starts),
        "regions.coded_corner_s": median(durations("regions.coded_inner_bound_sample")),
        "regions.starts": starts / rounds,
        "regions.agree_ratio": ratio(sum(s.get("agreeing", 0) for s in solves), starts),
        "regions.solve_share": ratio(solve_time, traced_wall) if solves else None,
        "probability.s": sum(s["end"] - s["start"] for s in prob) / rounds if prob else None,
        "probability.calls": len(prob) / rounds,
        "orderings.degradation_ms": median(durations("orderings.check_stochastic_degradation"), 1e3),
        "orderings.less_noisy_s": median(durations("orderings.search_less_noisy_violation")),
        "orderings.verdicts": len(verdicts) / rounds,
        "orderings.falsified": sum(s.get("kind") == "less_noisy_falsified" for s in verdicts) / rounds,
        "binning.sw_trial_us": per_trial_us("binning.run_sw_binning"),
        "binning.gap_trial_us": per_trial_us("binning.run_erasure_encoder_scheme"),
        "binning.trials": sum(s.get("trials", 0) for s in spans if s["name"].startswith("binning.")) / rounds,
        "trace.overhead_s": overhead,
    }
    for switches in ("none", "sb", "se", "both"):
        values[f"regions.solve_{switches}_s"] = median(
            durations("regions.maximize_equivocation", switches=switches))
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
