"""Span recorder for the traced benchmark run, and the per-layer summary.

The recorder wraps public functions of the sobemb modules from outside: each
target is replaced in every ``sobemb.*`` namespace that holds it (methods on
their class), and ``numpy.linalg.eigh`` is wrapped for the traced run only.
A call records one span ``[name, parent, seconds, aux_seconds, rss_before,
rss_after]``.  ``seconds`` covers the wrapped call alone; ``aux_seconds`` is
the wrapper's own bookkeeping around it (clock and rusage reads, operand
counting), which is subtracted from the parent's self time so that tracing
does not show up as work of the layer above.

``summarize`` needs no numpy, so run.py can import it.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
from collections import defaultdict

# (layer, module, qualified name); span names are "<layer>.<qualified name>"
TARGETS = [
    ("solver", "sobemb.solver", "newton_solve"),
    ("series", "sobemb.series", "multiply"),
    ("series", "sobemb.series", "power_expand"),
    ("series", "sobemb.series", "negative_part_sup"),
    ("series", "sobemb.series", "Series2D.sup_abs_bound"),
    ("series", "sobemb.series", "Series2D.eval"),
    ("ivarray", "sobemb.ivarray", "imatmul"),
    ("symeig", "sobemb.symeig", "eig_enclosures"),
    ("certify", "sobemb.certify", "certify_ball"),
    ("certify", "sobemb.certify", "defect_bounds"),
    ("certify", "sobemb.certify", "inverse_bound"),
    ("certify", "sobemb.certify", "kantorovich_radius"),
    ("certify", "sobemb.certify", "linf_radius"),
    ("certify", "sobemb.certify", "positiveness_certificate"),
    ("bounds", "sobemb.series", "lp_norm"),
    ("bounds", "sobemb.bounds", "enclosure_from_ball"),
    ("pipeline", "sobemb.pipeline", "run_pipeline"),
]
EIGH_SPAN = "symeig.eigh"
RSS_LAYERS = ("series", "symeig", "certify", "bounds")


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _shape2(x):
    """(rows, cols) of a matrix operand; vectors count as one row/column."""
    s = x.lo.shape
    return (1, s[0]) if len(s) == 1 else (s[0], s[1])


def _thin(x) -> bool:
    """imatmul's test ``not x.rad().any()``, trying the first row first."""
    return not (x[:1].rad().any() or x.rad().any())


def _imatmul_flops(a, b) -> int:
    """Flops of the BLAS products imatmul issues, by the same thin/thick test."""
    m, k = _shape2(a)
    n = 1 if len(b.lo.shape) == 1 else b.lo.shape[1]
    a_thin, b_thin = _thin(a), _thin(b)
    gemms = 2 + (0 if a_thin and b_thin else 1 if a_thin or b_thin else 2)
    return 2 * m * k * n * gemms


class Recorder:
    """Keeps spans, counters and per-entry values in memory for one run."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.values = defaultdict(dict)  # name -> {N: value}
        self._stack = []
        self._current_n = None

    def _observe(self, name, args, result):
        if name == "solver.newton_solve":
            self._current_n = int(args[0].N)
        elif name == "series.multiply":
            self.counts["series.multiply.macs"] += args[0].coeffs.size * args[1].coeffs.size
        elif name == "ivarray.imatmul":
            self.counts["ivarray.imatmul.gemm_flops"] += _imatmul_flops(args[0], args[1])
        elif name == "symeig.eig_enclosures":
            n = int(args[0].n)
            self.counts["symeig.block_n3_sum"] += n ** 3
            self.counts["symeig.block_n_max"] = max(self.counts["symeig.block_n_max"], n)
        elif name == "certify.certify_ball" and self._current_n is not None:
            self.values["certify.nprime"][self._current_n] = int(result.nprime)

    def _call(self, name, fn, args, kwargs):
        t_enter = time.perf_counter()
        sid = len(self.spans)
        span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0,
                _peak_rss_kb(), 0]
        self.spans.append(span)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter() - t0
            self._stack.pop()
            span[5] = _peak_rss_kb()
        self._observe(name, args, result)
        span[3] = (time.perf_counter() - t_enter) - span[2]
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    def install(self):
        """Replace every target in every sobemb namespace that holds it.

        Meant for a process that exits after the traced run: nothing is
        restored."""
        import numpy.linalg

        for layer, modname, qual in TARGETS:
            mod = importlib.import_module(modname)
            name = f"{layer}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(name, orig))
                continue
            orig = getattr(mod, qual)
            wrapper = self._wrap(name, orig)
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").split(".")[0] != "sobemb":
                    continue
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
        numpy.linalg.eigh = self._wrap(EIGH_SPAN, numpy.linalg.eigh)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "values": {k: {str(n): v for n, v in d.items()}
                       for k, d in self.values.items()},
        }


def summarize(trace: dict) -> dict:
    """Per-name self time, total time and calls, per-layer RSS raises, counters."""
    spans = trace["spans"]
    child_cover = [0.0] * len(spans)
    anc_layers = [frozenset()] * len(spans)
    for sid, (name, parent, dur, aux, _, _) in enumerate(spans):
        if parent >= 0:
            child_cover[parent] += dur + aux
            anc_layers[sid] = anc_layers[parent] | {spans[parent][0].split(".")[0]}

    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    rss_raise_kb = defaultdict(int)
    for sid, (name, parent, dur, aux, rss0, rss1) in enumerate(spans):
        self_s[name] += dur - child_cover[sid]
        total_s[name] += dur  # no target calls itself, so spans never nest by name
        calls[name] += 1
        layer = name.split(".")[0]
        if layer not in anc_layers[sid]:
            rss_raise_kb[layer] += rss1 - rss0

    out = {f"{n}.self_s": v for n, v in self_s.items()}
    out.update({f"{n}.total_s": v for n, v in total_s.items()})
    out.update({f"{n}.calls": v for n, v in calls.items()})
    out.update({f"{layer}.rss_raise_mb": rss_raise_kb[layer] / 1024.0
                for layer in RSS_LAYERS})
    out["symeig.eigh_s"] = out.pop(f"{EIGH_SPAN}.self_s", 0.0)
    out["symeig.blocks"] = calls["symeig.eig_enclosures"]
    out["certify.split_retries"] = (calls["certify.inverse_bound"]
                                    - calls["certify.certify_ball"])
    out["certify.trial_radii"] = calls["certify.kantorovich_radius"]
    out.update(trace["counts"])
    return out
