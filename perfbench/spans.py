"""Outside-in tracing of mixcara's layers.

``Tracer.install`` wraps, at runtime, every public function of each layer
module (the names in its ``__all__``) in every mixcara namespace that holds
it, plus the public methods and the constructor (``__post_init__``) of each
public class.  ``Tracer.uninstall`` puts the originals back.  No mixcara file
changes, and a wrapped call returns exactly what the original returns.

A span is (name, start, end, parent, op id), kept in flat arrays while the
run lasts.  A span's self time is its duration minus the durations of its
direct children.  Counts that need a call's result (recovery reports, atoms
removed, full-rank outcomes) are taken in the wrapper, at the same boundary.
"""
from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("basis", "measures", "moments", "jacobian", "reduce", "conegeo", "recover")
ENGINES = (
    "recover.prony_dirac",
    "recover.recover_shared_sigma_gaussian",
    "recover.recover_shared_sigma_lognormal",
    "recover.homotopy_gap_recovery",
    "recover.lm_fit",
)
PRESCRIBE = "conegeo.represent_with_prescribed_component"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self.current_op = -1
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- spans

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, kind: str, fn, *args):
        """Run one op under a root span ``op.<kind>``."""
        self.current_op = op_id
        idx = self._open(self._id(f"op.{kind}"))
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.current_op = -1

    def wrap(self, name: str, fn, on_result=None):
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(tracer.counts, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        """Wrap every public function and method of the layer modules."""
        import mixcara

        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "mixcara" or name.startswith("mixcara.")]
        for layer in LAYERS:
            module = getattr(mixcara, layer)
            for public in module.__all__:
                obj = getattr(module, public)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    name = f"{layer}.{public}"
                    wrapped = self.wrap(name, obj, _HOOKS.get(name))
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, attr, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, value in list(vars(obj).items()):
                        if not inspect.isfunction(value):
                            continue
                        if attr == "__post_init__":
                            name = f"{layer}.{public}"
                        elif not attr.startswith("_"):
                            name = f"{layer}.{public}.{attr}"
                        else:
                            continue
                        self._patch(obj, attr, self.wrap(name, value))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ analysis

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict[str, float]:
        """Per-layer metrics computed from the recorded spans and counts."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.shape[0])
        self_time = dur - child
        span_names = np.array(self.names + [""])[a["name_id"]]
        span_layer = np.array([n.split(".", 1)[0] for n in self.names] + [""])[a["name_id"]]
        # parent -1 picks the appended empty name
        parent_names = np.append(span_names, "")[a["parent"]]
        parent_layer = np.append(span_layer, "")[a["parent"]]

        def n_spans(*full_names) -> int:
            return int(np.isin(span_names, full_names).sum())

        def layer_self(layer: str) -> float:
            return float(self_time[span_layer == layer].sum())

        def method_names(prefix: str) -> list[str]:
            return [n for n in self.names if n.startswith(prefix)]

        c = self.counts
        out: dict[str, float] = {}
        out["moments.self_s"] = layer_self("moments")
        out["moments.calls"] = int((span_layer == "moments").sum())
        out["moments.table_builds"] = n_spans("moments.gaussian_smoothed_basis")
        out["moments.evals"] = n_spans(*method_names("moments.SmoothedBasis.eval_"),
                                       "moments.lognormal_moment")
        out["measures.constructions"] = n_spans("measures.MixtureMeasure", "measures.AtomicMeasure")
        out["measures.self_s"] = layer_self("measures")
        out["basis.evals"] = n_spans("basis.eval_point", "basis.eval_jacobian")
        out["basis.self_s"] = layer_self("basis")
        reports = c["recover.reports"]
        out["recover.self_s"] = layer_self("recover")
        out["recover.calls"] = n_spans(*ENGINES)
        out["recover.schedule_steps"] = c["recover.schedule_steps"]
        out["recover.success_ratio"] = c["recover.successes"] / reports if reports else 0.0
        out["recover.solver_evals"] = c["recover.solver_evals"]
        reduce_time = float(dur[(span_layer == "reduce") & (parent_layer != "reduce")].sum())
        removed = c["reduce.atoms_removed"]
        out["reduce.self_s"] = layer_self("reduce")
        out["reduce.atoms_removed"] = removed
        out["reduce.removed_per_s"] = removed / reduce_time if reduce_time > 0 else 0.0
        rank_evals = n_spans("jacobian.numeric_rank")
        out["jacobian.self_s"] = layer_self("jacobian")
        out["jacobian.rank_evals"] = rank_evals
        out["jacobian.full_rank_ratio"] = c["jacobian.full_rank"] / rank_evals if rank_evals else 0.0
        prescribes = n_spans(PRESCRIBE)
        engine_calls = int((np.isin(span_names, ENGINES) & (parent_names == PRESCRIBE)).sum())
        out["conegeo.self_s"] = layer_self("conegeo")
        out["conegeo.engine_calls_per_prescribe"] = engine_calls / prescribes if prescribes else 0.0
        op_spans = span_layer == "op"
        op_time = float(dur[op_spans].sum())
        out["trace.unaccounted_share"] = (float(self_time[op_spans].sum()) / op_time
                                          if op_time > 0 else 0.0)
        return out


def _recovery_report(counts, args, kwargs, result) -> None:
    counts["recover.reports"] += 1
    counts["recover.successes"] += bool(result.success)
    counts["recover.schedule_steps"] += result.sigma_steps
    counts["recover.solver_evals"] += result.iterations


def _atoms_removed(position: int):
    def hook(counts, args, kwargs, result) -> None:
        mu = args[position] if len(args) > position else kwargs["mu"]
        counts["reduce.atoms_removed"] += mu.k - result.k

    return hook


def _full_rank(counts, args, kwargs, result) -> None:
    counts["jacobian.full_rank"] += bool(result.full_rank)


_HOOKS = {
    **{name: _recovery_report for name in ENGINES if name != "recover.prony_dirac"},
    "reduce.reduce_atoms": _atoms_removed(1),
    "reduce.reduce_mixture_components": _atoms_removed(2),
    "jacobian.numeric_rank": _full_rank,
}
