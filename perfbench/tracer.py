"""Spans and counts recorded around groupwalk's layer functions, from outside.

Nothing in the package changes. A wrapper replaces a function in every
groupwalk module that holds it (``convolve`` lives in both ``measures`` and
``diagnostics``, ``_mix64_np`` in both ``detrng`` and ``walk``), or a method
on each class that defines it, and the originals come back on exit. Spans
are ``[name, start, end, parent]`` rows kept in memory until written out.

A wrapped function that calls itself through another class (the product
codec's ``mul_right`` calling its factors' ``mul_right``) records one span
or count for the outer call only, so nothing is counted twice.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

from groupwalk import amenable, codecs, construction, detrng, diagnostics, groups, measures, walk

# (name, unit, better) of every per-layer metric, in output order
LAYER_METRICS = [
    ("codecs.mul_right_s", "s", "lower"),
    ("codecs.mul_right_rows", "count", "lower"),
    ("codecs.overflow_rows", "count", "lower"),
    ("measures.convolve_s", "s", "lower"),
    ("measures.convolve_calls", "count", "lower"),
    ("measures.convolve_pairs", "count", "lower"),
    ("measures.convolve_atoms_out", "count", "lower"),
    ("measures.convolve_packed_calls", "count", "higher"),
    ("measures.convolve_dict_s", "s", "lower"),
    ("measures.convolve_exact_s", "s", "lower"),
    ("measures.convolve_self_s", "s", "lower"),
    ("measures.select_top_s", "s", "lower"),
    ("measures.pruned_mass", "mass", "lower"),
    ("measures.tv_s", "s", "lower"),
    ("measures.tv_calls", "count", "lower"),
    ("measures.from_items_calls", "count", "lower"),
    ("groups.validate_calls", "count", "lower"),
    ("groups.product_power_s", "s", "lower"),
    ("groups.product_power_size", "count", "lower"),
    ("groups.conjugate_set_s", "s", "lower"),
    ("amenable.folner_set_s", "s", "lower"),
    ("amenable.folner_size", "count", "lower"),
    ("construction.step_s", "s", "lower"),
    ("construction.truncated_stages", "count", "lower"),
    ("diagnostics.tv_curve_s", "s", "lower"),
    ("diagnostics.steps", "count", "higher"),
    ("diagnostics.control_s", "s", "lower"),
    ("walk.estimate_M_s", "s", "lower"),
    ("walk.uniform_grid_s", "s", "lower"),
    ("walk.uniform_grid_cells", "count", "lower"),
    ("walk.draw_index_array_s", "s", "lower"),
    ("walk.estimate_M_self_s", "s", "lower"),
    ("walk.increment_law_s", "s", "lower"),
    ("detrng.mix64_words", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _groupwalk_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "groupwalk" or name.startswith("groupwalk."))
    ]


class _Patcher:
    """Rebinds functions and methods; `restore` undoes every rebinding."""

    def __init__(self):
        self._undo = []
        self.missing: list[str] = []

    def function(self, module, name, make):
        orig = getattr(module, name, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{name}")
            return
        new = make(orig)
        for mod in _groupwalk_modules():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, new)

    def method(self, cls, name, make):
        raw = cls.__dict__.get(name)
        if raw is None:
            self.missing.append(f"{cls.__module__}.{cls.__name__}.{name}")
            return
        new = classmethod(make(raw.__func__)) if isinstance(raw, classmethod) else make(raw)
        self._undo.append((cls, name, raw))
        setattr(cls, name, new)

    def restore(self):
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)


def _classes_defining(module, base, attr):
    return [
        c for c in vars(module).values()
        if isinstance(c, type) and issubclass(c, base) and attr in c.__dict__
    ]


# -- the always-on convolve observer ----------------------------------------


@dataclass(frozen=True)
class ConvolveRow:
    pairs: int  # |mu| * |nu|
    atoms_out: int
    located: float | None  # float mode only: located mass of the result
    lost: float | None  # float mode only: the result's ledger
    pruned: float | None  # float mode only: ledger growth beyond the propagated loss


def _row(mu, nu, out) -> ConvolveRow:
    pairs = len(mu) * len(nu)
    if out.mode != "float":
        return ConvolveRow(pairs, len(out), None, None, None)
    t_mu, t_nu = float(mu.total_mass()), float(nu.total_mass())
    l_mu, l_nu = float(mu.lost_mass), float(nu.lost_mass)
    lost = float(out.lost_mass)
    propagated = l_mu * (t_nu + l_nu) + l_nu * t_mu
    return ConvolveRow(pairs, len(out), float(out.total_mass()), lost, lost - propagated)


class ConvolveLedger:
    """Records one `ConvolveRow` per `measures.convolve` call.

    Installed for the whole run, traced or not: the pair counts feed
    `work_per_s` and the rows feed the mass and budget checks.
    """

    def __init__(self):
        self.rows: list[ConvolveRow] = []
        self._patcher = _Patcher()

    def install(self):
        rows = self.rows

        def make(orig):
            def convolve(mu, nu, *args, **kwargs):
                out = orig(mu, nu, *args, **kwargs)
                rows.append(_row(mu, nu, out))
                return out

            return convolve

        self._patcher.function(measures, "convolve", make)
        if self._patcher.missing:
            raise RuntimeError(f"cannot observe {self._patcher.missing}")

    def uninstall(self):
        self._patcher.restore()


# -- spans ------------------------------------------------------------------


class Tracer:
    """Spans and counts of one traced phase (a set-up or one repetition)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._depth: Counter = Counter()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name, after=None):
        def make(orig):
            def wrapper(*args, **kwargs):
                if self._stack and self.spans[self._stack[-1]][0] == name:
                    return orig(*args, **kwargs)
                idx = self._open(name)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    self._close(idx)
                if after is not None:
                    after(self.counts, args, result)
                return result

            return wrapper

        return make

    def _counted(self, name, after=None):
        def make(orig):
            def wrapper(*args, **kwargs):
                self._depth[name] += 1
                try:
                    result = orig(*args, **kwargs)
                finally:
                    self._depth[name] -= 1
                if self._depth[name] == 0:
                    self.counts[name] += 1
                    if after is not None:
                        after(self.counts, args, result)
                return result

            return wrapper

        return make

    @contextmanager
    def installed(self):
        """Wrap every traced layer function for the duration of the block."""
        p = _Patcher()
        S, C = self._spanned, self._counted
        for cls in _classes_defining(codecs, object, "mul_right"):
            p.method(cls, "mul_right", S("codecs.mul_right", _count_rows))
        for name in ("convolve", "_convolve_fast", "convolve_reference", "_convolve_exact",
                     "_select_top", "tv_left_translate"):
            p.function(measures, name, S(f"measures.{name}"))
        p.method(measures.SparseMeasure, "from_items", C("measures.from_items"))
        for cls in _classes_defining(groups, groups.Group, "validate"):
            p.method(cls, "validate", C("groups.validate"))
        p.function(groups, "product_power", S("groups.product_power", _count_size("groups.product_power_size")))
        p.function(groups, "conjugate_set", S("groups.conjugate_set"))
        p.function(amenable, "folner_set", S("amenable.folner_set", _count_size("amenable.folner_size")))
        p.function(construction, "construction_step", S("construction.construction_step", _count_truncated))
        p.method(construction.VisibilityCatalogue, "draw_index_array", S("construction.draw_index_array"))
        p.function(diagnostics, "tv_curve", S("diagnostics.tv_curve", _count_steps))
        p.function(diagnostics, "control_experiment", S("diagnostics.control_experiment"))
        p.function(walk, "estimate_M", S("walk.estimate_M"))
        p.function(walk, "_uniform_grid", S("walk._uniform_grid", _count_cells))
        p.function(walk, "empirical_increment_law", S("walk.empirical_increment_law"))
        p.function(detrng, "_mix64_np", C("detrng._mix64_np", _count_words))
        self.missing = list(p.missing)
        try:
            yield self
        finally:
            p.restore()

    def to_json(self) -> dict:
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "spans": [
                {"name": n, "start": s - t0, "end": e - t0, "parent": par}
                for n, s, e, par in self.spans
            ],
            "counts": dict(self.counts),
            "missing": self.missing,
        }


def _count_rows(counts, args, result):
    _, ok = result
    counts["codecs.mul_right_rows"] += len(ok)
    counts["codecs.overflow_rows"] += int(len(ok) - ok.sum())


def _count_size(key):
    def after(counts, args, result):
        counts[key] += len(result)

    return after


def _count_truncated(counts, args, result):
    counts["construction.truncated_stages"] += int(result.records[-1].truncated)


def _count_steps(counts, args, result):
    counts["diagnostics.steps"] += len(result.points) - 1


def _count_cells(counts, args, result):
    counts["walk.uniform_grid_cells"] += int(result.size)


def _count_words(counts, args, result):
    counts["detrng.mix64_words"] += int(result.size)


# -- derived per-layer numbers ----------------------------------------------


def _has_ancestor(spans, i, name) -> bool:
    i = spans[i][3]
    while i >= 0:
        if spans[i][0] == name:
            return True
        i = spans[i][3]
    return False


def self_times(tracers) -> tuple[dict, float]:
    """Per span name: summed duration minus the time its direct children cover.

    Returns (self times, summed duration of root spans); the self times add
    up to the root total.
    """
    own: Counter = Counter()
    roots = 0.0
    for tr in tracers:
        for name, s, e, parent in tr.spans:
            own[name] += e - s
            if parent >= 0:
                own[tr.spans[parent][0]] -= e - s
            else:
                roots += e - s
    return dict(own), roots


def check_spans(tracers) -> list[str]:
    """Failures if spans do not nest: a child outside its parent, or self
    times that do not add up to the root spans' durations."""
    out = []
    for tr in tracers:
        for name, s, e, parent in tr.spans:
            if parent >= 0:
                pname, ps, pe, _ = tr.spans[parent]
                if not ps <= s <= e <= pe:
                    out.append(f"spans: {name} [{s}, {e}] outside its parent {pname} [{ps}, {pe}]")
    own, roots = self_times(tracers)
    if abs(math.fsum(own.values()) - roots) > 1e-9 * max(1.0, roots):
        out.append(f"spans: self times sum to {math.fsum(own.values())!r}, root spans to {roots!r}")
    return out


def layer_metrics(tracers, rows) -> dict:
    """Per-layer numbers from the spans and counts of `tracers` and ledger `rows`."""
    total: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    convolve_children = 0.0
    dict_route = 0.0
    for tr in tracers:
        counts.update(tr.counts)
        for i, (name, s, e, _) in enumerate(tr.spans):
            total[name] += e - s
            calls[name] += 1
            if name in ("codecs.mul_right", "measures._select_top") and _has_ancestor(
                tr.spans, i, "measures.convolve"
            ):
                convolve_children += e - s
            if name == "measures.convolve_reference" and _has_ancestor(
                tr.spans, i, "measures.convolve"
            ):
                dict_route += e - s
    own, _ = self_times(tracers)
    return {
        "codecs.mul_right_s": total["codecs.mul_right"],
        "codecs.mul_right_rows": counts["codecs.mul_right_rows"],
        "codecs.overflow_rows": counts["codecs.overflow_rows"],
        "measures.convolve_s": total["measures.convolve"],
        "measures.convolve_calls": calls["measures.convolve"],
        "measures.convolve_pairs": sum(r.pairs for r in rows),
        "measures.convolve_atoms_out": sum(r.atoms_out for r in rows),
        "measures.convolve_packed_calls": calls["measures._convolve_fast"],
        "measures.convolve_dict_s": dict_route,
        "measures.convolve_exact_s": total["measures._convolve_exact"],
        "measures.convolve_self_s": total["measures.convolve"] - convolve_children,
        "measures.select_top_s": total["measures._select_top"],
        "measures.pruned_mass": math.fsum(r.pruned for r in rows if r.pruned is not None),
        "measures.tv_s": total["measures.tv_left_translate"],
        "measures.tv_calls": calls["measures.tv_left_translate"],
        "measures.from_items_calls": counts["measures.from_items"],
        "groups.validate_calls": counts["groups.validate"],
        "groups.product_power_s": total["groups.product_power"],
        "groups.product_power_size": counts["groups.product_power_size"],
        "groups.conjugate_set_s": total["groups.conjugate_set"],
        "amenable.folner_set_s": total["amenable.folner_set"],
        "amenable.folner_size": counts["amenable.folner_size"],
        "construction.step_s": total["construction.construction_step"],
        "construction.truncated_stages": counts["construction.truncated_stages"],
        "diagnostics.tv_curve_s": total["diagnostics.tv_curve"],
        "diagnostics.steps": counts["diagnostics.steps"],
        "diagnostics.control_s": total["diagnostics.control_experiment"],
        "walk.estimate_M_s": total["walk.estimate_M"],
        "walk.uniform_grid_s": total["walk._uniform_grid"],
        "walk.uniform_grid_cells": counts["walk.uniform_grid_cells"],
        "walk.draw_index_array_s": total["construction.draw_index_array"],
        "walk.estimate_M_self_s": own.get("walk.estimate_M", 0.0),
        "walk.increment_law_s": total["walk.empirical_increment_law"],
        "detrng.mix64_words": counts["detrng.mix64_words"],
    }
