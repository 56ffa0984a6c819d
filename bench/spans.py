"""Spans around the public entry points of every adhmquot layer.

The program has no tracing of its own, so the traced benchmark run wraps
each entry point from outside: the function object is replaced wherever a
module of the package binds it (``from .exactalg import rank`` makes a
second binding), and methods are replaced on their class.  Each call then
records a span (name, layer, start, end, parent) in memory; nothing is
written until the run ends.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "adhmquot"
LAYERS = (
    "exactalg", "adhm", "quotmod", "monad", "punctual",
    "geometry", "quiver", "serialize", "cli",
)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int  # index into Recorder.spans, -1 for a root
    phase: str
    end: float = 0.0
    info: dict = field(default_factory=dict)
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.phase = "items"
        self._stack: list[int] = []

    def begin(self, layer: str, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, layer, self.clock(), parent, self.phase))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int, *, error: bool = False) -> Span:
        span = self.spans[index]
        span.end = self.clock()
        span.error = error
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        return span


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


# ------------------------------------------------------------- probes
#
# A probe turns (args, kwargs, result) into the numbers a span carries.
# Probes run after the span's end time is taken.


def _coeff_bits(values) -> int:
    best = 0
    for v in values:
        num = getattr(v, "numerator", None)
        if num is None:  # prime-field residue
            best = max(best, v.value.bit_length())
        else:
            best = max(best, abs(num).bit_length(), v.denominator.bit_length())
    return best


def _matrix_probe(args, kwargs, result):
    m = args[0]
    out = {"cells": m.rows * m.cols}
    if hasattr(result, "basis"):  # Subspace from kernel_basis
        out["bits"] = _coeff_bits(result.basis.entries)
    elif isinstance(result, tuple) and hasattr(result[0], "entries"):  # rref
        out["bits"] = _coeff_bits(result[0].entries)
    else:  # rank returns a count: the argument carries the coefficients
        out["bits"] = _coeff_bits(m.entries)
    return out


def _solve_probe(args, kwargs, result):
    a = args[0]
    values = result if result is not None else a.entries
    return {"cells": a.rows * a.cols, "bits": _coeff_bits(values)}


def _inverse_probe(args, kwargs, result):
    m = args[0]
    values = result.entries if result is not None else m.entries
    return {"cells": m.rows * m.cols, "bits": _coeff_bits(values)}


def _from_vectors_probe(args, kwargs, result):
    vectors = args[3]
    return {"cells": len(vectors) * args[2], "bits": _coeff_bits(result.basis.entries)}


ENTRY_POINTS: dict[str, dict[str, Callable | None]] = {
    "exactalg": {
        "rank": _matrix_probe,
        "kernel_basis": _matrix_probe,
        "rref": _matrix_probe,
        "solve": _solve_probe,
        "Matrix.inverse": _inverse_probe,
        "Subspace.from_vectors": _from_vectors_probe,
        "Matrix.__matmul__": None,
        "char_poly": None,
        "rational_roots": None,
        "rational_eigenvalues": None,
    },
    "adhm": {
        "commutators": None,
        "is_adhm": None,
        "krylov_closure": None,
        "is_stable": None,
        "act": None,
        "stabilizer_lie_dimension": None,
        "equivalence": lambda a, k, res: {"found": res is not None},
        "random_datum": None,
    },
    "quotmod": {
        "phi_apply": None,
        "kernel_basis_up_to_degree": lambda a, k, res: {"gens": len(res)},
        "hilbert_profile": None,
        "module_from_generators": None,
    },
    "monad": {
        "alpha0": None,
        "alpha_minus1": None,
        "alpha_minus2_p3": None,
        "compose": None,
        "evaluate": None,
        "surjectivity_certificate": None,
        "fiber_report": None,
        "sample_points": None,
        "rank_sample_report": None,
    },
    "punctual": {
        "is_nilpotent_tuple": None,
        "support": lambda a, k, res: {"incomplete": not res.complete},
        "basepoint": None,
        "path_permutation": None,
        "reindex_vectors": None,
        "homotopy_path": None,
        "verify_path": lambda a, k, res: {"points": len(res.samples)},
    },
    "geometry": {
        "residual": None,
        "jacobian": lambda a, k, res: {"cells": res.rows * res.cols},
        "tangent_dimension": None,
        "moduli_dimension_estimate": None,
        "sample_generic_commuting": None,
        "sample_punctual": None,
        "dimension_experiment": None,
    },
    "quiver": {
        "enumerate_subreps": None,
        "definition_verdicts": None,
        "theta_verdicts": None,
        "check_lemma": None,
    },
    "serialize": {
        name: None
        for name in (
            "field_to_obj", "field_from_obj", "matrix_to_obj", "matrix_from_obj",
            "vector_to_obj", "datum_to_obj", "datum_from_obj", "polyvector_to_obj",
            "polyvectors_to_obj", "polyvectors_from_obj", "form_matrix_to_obj",
            "form_matrix_from_obj",
        )
    },
    "cli": {"main": lambda a, k, res: {"nonzero_exit": res != 0}},
}

# Generator functions: a span around them would close before the caller
# consumes them, so they only count what they yield.
COUNTED_GENERATORS = {("quiver", "all_subspaces"): "quiver.subspaces"}


def _traced(rec: Recorder, layer: str, name: str, func, probe):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        index = rec.begin(layer, name)
        try:
            result = func(*args, **kwargs)
        except BaseException:
            rec.end(index, error=True)
            raise
        span = rec.end(index)
        if probe is not None:
            span.info = probe(args, kwargs, result)
        return result

    return traced


def _counted(rec: Recorder, counter: str, func):
    @functools.wraps(func)
    def counted(*args, **kwargs):
        for item in func(*args, **kwargs):
            if rec.phase == "items":
                rec.counters[counter] += 1
            yield item

    return counted


class Installation:
    """Replaced bindings, so that ``uninstall`` can put the originals back."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


def install(rec: Recorder) -> Installation:
    """Wrap every entry point in ENTRY_POINTS; returns the undo record."""
    modules = [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
    by_name = {mod.__name__: mod for mod in modules}
    inst = Installation()

    def rebind_everywhere(original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    inst.replace(mod, attr, wrapper)

    for layer, entries in ENTRY_POINTS.items():
        home = by_name[f"{PACKAGE}.{layer}"]
        for qualname, probe in entries.items():
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    # Subspace.from_vectors, the one classmethod, may be given
                    # a generator: list it so that its probe can count rows
                    wrapped = _traced(rec, layer, qualname, raw.__func__, probe)

                    def listed(cls_, field_, dim, vectors, _wrapped=wrapped):
                        return _wrapped(cls_, field_, dim, list(vectors))

                    inst.replace(cls, attr, classmethod(functools.wraps(raw.__func__)(listed)))
                else:
                    inst.replace(cls, attr, _traced(rec, layer, qualname, raw, probe))
            else:
                original = getattr(home, qualname)
                rebind_everywhere(original, _traced(rec, layer, qualname, original, probe))
    for (layer, name), counter in COUNTED_GENERATORS.items():
        original = getattr(by_name[f"{PACKAGE}.{layer}"], name)
        rebind_everywhere(original, _counted(rec, counter, original))
    return inst


# ------------------------------------------------------------- metrics

ELIMINATION = ("rank", "kernel_basis", "solve", "rref", "Matrix.inverse", "Subspace.from_vectors")

# (metric, layer, entry points whose inclusive time is summed)
TIMED = (
    ("exactalg.kernel_s", "exactalg", ("kernel_basis",)),
    ("exactalg.rank_s", "exactalg", ("rank",)),
    ("exactalg.solve_s", "exactalg", ("solve",)),
    ("exactalg.inverse_s", "exactalg", ("Matrix.inverse",)),
    ("exactalg.charpoly_s", "exactalg", ("char_poly",)),
    ("exactalg.matmul_s", "exactalg", ("Matrix.__matmul__",)),
    ("adhm.krylov_s", "adhm", ("krylov_closure",)),
    ("adhm.equiv_s", "adhm", ("equivalence",)),
    ("quotmod.present_s", "quotmod", ("kernel_basis_up_to_degree",)),
    ("quotmod.build_s", "quotmod", ("module_from_generators",)),
    ("monad.build_s", "monad", ("alpha0", "alpha_minus1", "alpha_minus2_p3")),
    ("monad.compose_s", "monad", ("compose",)),
    ("monad.evaluate_s", "monad", ("evaluate",)),
    ("monad.cert_s", "monad", ("surjectivity_certificate",)),
    ("punctual.support_s", "punctual", ("support",)),
    ("punctual.path_s", "punctual", ("verify_path",)),
    ("geometry.jacobian_s", "geometry", ("jacobian",)),
    ("geometry.tangent_s", "geometry", ("tangent_dimension",)),
    ("quiver.lemma_s", "quiver", ("check_lemma",)),
)

# Inputs are made in set-up, so these two are summed over set-up spans.
SETUP_TIMED = (
    ("adhm.random_datum_s", "adhm", ("random_datum",)),
    ("geometry.sample_s", "geometry", ("sample_generic_commuting", "sample_punctual")),
)


def _ancestors(spans: list[Span], index: int):
    parent = spans[index].parent
    while parent >= 0:
        yield parent
        parent = spans[parent].parent


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of one traced set-up and pass.

    Counts and self times cover the item phase only; a ratio whose base is
    zero (the layer was not exercised) is reported as 0.
    """
    spans = rec.spans
    selfs = self_times(spans)
    items = [i for i, s in enumerate(spans) if s.phase == "items"]
    out: dict[str, tuple[float, str]] = {}

    for layer in LAYERS:
        mine = [i for i in items if spans[i].layer == layer]
        out[f"{layer}.calls"] = (len(mine), "count")
        out[f"{layer}.self_s"] = (sum(selfs[i] for i in mine), "s")

    def total(names, layer, phase):
        return sum(
            s.duration for s in spans
            if s.phase == phase and s.layer == layer and s.name in names
        )

    for metric, layer, names in TIMED:
        out[metric] = (total(names, layer, "items"), "s")
    for metric, layer, names in SETUP_TIMED:
        out[metric] = (total(names, layer, "setup"), "s")

    def item_spans(layer, name):
        return [i for i in items if spans[i].layer == layer and spans[i].name == name]

    def info_sum(layer, names, key):
        return sum(
            spans[i].info.get(key, 0)
            for name in names for i in item_spans(layer, name)
        )

    def ratio(num, den):
        return num / den if den else 0.0

    elim = [i for name in ELIMINATION for i in item_spans("exactalg", name)]
    out["exactalg.elim_calls"] = (len(elim), "count")
    out["exactalg.elim_cells"] = (sum(spans[i].info.get("cells", 0) for i in elim), "cells")
    out["exactalg.matmul_calls"] = (len(item_spans("exactalg", "Matrix.__matmul__")), "count")
    out["exactalg.max_coeff_bits"] = (
        max((spans[i].info.get("bits", 0) for i in elim), default=0), "bits"
    )

    out["adhm.krylov_calls"] = (len(item_spans("adhm", "krylov_closure")), "count")
    equivs = set(item_spans("adhm", "equivalence"))
    inverses_under = Counter(
        next((a for a in _ancestors(spans, i) if a in equivs), None)
        for i in item_spans("exactalg", "Matrix.inverse")
    )
    first_try = sum(1 for i in equivs if inverses_under[i] <= 1)
    out["adhm.equiv_first_try_ratio"] = (ratio(first_try, len(equivs)), "ratio")

    out["quotmod.present_gens"] = (
        info_sum("quotmod", ("kernel_basis_up_to_degree",), "gens"), "count"
    )
    builds = [i for i in item_spans("quotmod", "module_from_generators") if not spans[i].error]
    attempts = sum(
        1 for i in item_spans("adhm", "is_stable")
        if any(spans[a].name == "module_from_generators" for a in _ancestors(spans, i))
    )
    out["quotmod.certify_ratio"] = (ratio(len(builds), attempts), "ratio")

    out["monad.evaluate_calls"] = (len(item_spans("monad", "evaluate")), "count")
    out["punctual.support_incomplete"] = (info_sum("punctual", ("support",), "incomplete"), "count")
    out["punctual.path_points"] = (info_sum("punctual", ("verify_path",), "points"), "count")
    out["geometry.jacobian_cells"] = (info_sum("geometry", ("jacobian",), "cells"), "cells")
    out["quiver.subspaces"] = (rec.counters["quiver.subspaces"], "count")
    out["serialize.bytes"] = (rec.counters["serialize.bytes"], "bytes")
    out["cli.nonzero_exits"] = (info_sum("cli", ("main",), "nonzero_exit"), "count")
    return out
