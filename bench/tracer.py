"""Call tracing for the benchmark's traced run.

A :class:`Tracer` replaces each traced library function at every place a
caller looks it up: the defining module, every ``skipnorm`` module that
imported it by name, and every class attribute bound to it (so
``ResidualBlock.__call__``, an alias of ``forward``, is wrapped too).
Each call appends one span (name, start, end, parent span, run id) to
flat arrays kept in memory; :meth:`Tracer.uninstall` puts every original
back. Nothing under ``src/`` is changed.
"""

import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# span name -> (module, attribute path) of the function's definition
TARGETS = {
    "tensor.matmul": ("skipnorm.tensor", "matmul"),
    "tensor.add": ("skipnorm.tensor", "add"),
    "tensor.scale": ("skipnorm.tensor", "scale"),
    "tensor.ewmul": ("skipnorm.tensor", "ewmul"),
    "tensor.relu": ("skipnorm.tensor", "relu"),
    "tensor.softmax_cross_entropy": ("skipnorm.tensor", "softmax_cross_entropy"),
    "tensor.backward": ("skipnorm.tensor", "Tensor.backward"),
    "normalization.layer_norm": ("skipnorm.normalization", "layer_norm"),
    "normalization.batch_norm": ("skipnorm.normalization", "batch_norm"),
    "blocks.block_forward": ("skipnorm.blocks", "ResidualBlock.forward"),
    "blocks.model_forward": ("skipnorm.blocks", "ResidualModel.forward"),
    "blocks.build_model": ("skipnorm.blocks", "build_model"),
    "blocks.save_model": ("skipnorm.blocks", "save_model"),
    "blocks.load_model": ("skipnorm.blocks", "load_model"),
    "training.sgd_step": ("skipnorm.training", "sgd_step"),
    "training.evaluate_loss": ("skipnorm.training", "evaluate_loss"),
    "training.evaluate_error": ("skipnorm.training", "evaluate_error"),
    "training.train": ("skipnorm.training", "train"),
    "ratio.unroll_decompose": ("skipnorm.ratio", "unroll_decompose"),
    "ratio.ratio_general": ("skipnorm.ratio", "ratio_general"),
    # defined in tensor, but the diagnostics battery is its caller
    "diagnostics.gradcheck": ("skipnorm.tensor", "gradcheck"),
    "diagnostics.gradient_norm_sweep": ("skipnorm.diagnostics", "gradient_norm_sweep"),
    "diagnostics.effective_scale_sweep": ("skipnorm.diagnostics", "effective_scale_sweep"),
    "data.gen_synthetic": ("skipnorm.data", "gen_synthetic"),
}

# spans that are tape nodes: one per op call, layer and batch norms included
NODE_SPANS = (
    "tensor.matmul",
    "tensor.add",
    "tensor.scale",
    "tensor.ewmul",
    "tensor.relu",
    "tensor.softmax_cross_entropy",
    "normalization.layer_norm",
    "normalization.batch_norm",
)
EVAL_SPANS = ("training.evaluate_loss", "training.evaluate_error")


def gradcheck_evals(inputs):
    """Function evaluations of one gradcheck call: one analytic
    evaluation plus a +eps and a -eps one per input entry."""
    return 1 + 2 * sum(t.data.size for t in inputs)


def _gradcheck_counts(args, kwargs, report):
    return {"diagnostics.gradcheck.evals": gradcheck_evals(args[1]),
            "diagnostics.gradcheck.failed": int(not report.passed)}


# span name -> function of (args, kwargs, result) giving counter increments
COUNTERS = {"diagnostics.gradcheck": _gradcheck_counts}


def _resolve(module_name, path):
    obj = sys.modules[module_name]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _library_namespaces():
    """Every skipnorm module and every class defined in one."""
    spaces = []
    for name, module in list(sys.modules.items()):
        if name != "skipnorm" and not name.startswith("skipnorm."):
            continue
        spaces.append(module)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == name:
                spaces.append(value)
    return spaces


def installed_wrappers():
    """(namespace, attribute) pairs that still hold a benchmark wrapper."""
    return [
        (getattr(space, "__name__", space), attr)
        for space in _library_namespaces()
        for attr, value in vars(space).items()
        if getattr(value, "__bench_wrapped__", None) is not None
    ]


class Tracer:
    """Records one span per call of the traced functions while installed."""

    def __init__(self, names=tuple(TARGETS)):
        self.names = list(names)
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = defaultdict(int)  # (run id, counter name) -> total
        self.run_id = 0
        self._stack = [-1]
        self._restore = []

    def _wrap(self, nid, fn, count):
        name_id, parent, run, start, end = self.name_id, self.parent, self.run, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            run.append(self.run_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                for key, n in count(args, kwargs, result).items():
                    counters[self.run_id, key] += n
            return result

        wrapper.__bench_wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        if self._restore:
            raise RuntimeError("tracer is already installed")
        originals = {}
        for nid, name in enumerate(self.names):
            fn = _resolve(*TARGETS[name])
            originals[id(fn)] = (fn, self._wrap(nid, fn, COUNTERS.get(name)))
        for space in _library_namespaces():
            for attr, value in list(vars(space).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(space, attr, hit[1])
                    self._restore.append((space, attr, value))

    def uninstall(self):
        while self._restore:
            space, attr, value = self._restore.pop()
            setattr(space, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _arrays(self):
        n = len(self.start)
        return {
            field: np.frombuffer(getattr(self, field), dtype=dtype, count=n).copy()
            for field, dtype in (("name_id", np.int32), ("parent", np.int32), ("run", np.int32),
                                 ("start", np.float64), ("end", np.float64))
        }

    def _flagged_ancestry(self, spans, names):
        """Per span: is it, or any span above it, one of ``names``?"""
        flag = np.isin(spans["name_id"], [self.names.index(n) for n in names if n in self.names])
        result = flag.copy()
        up = spans["parent"]
        while (up >= 0).any():
            has = up >= 0
            result[has] |= flag[up[has]]
            up = np.where(has, spans["parent"][np.maximum(up, 0)], -1)
        return result

    def summary(self):
        """Per (run id, span name): [calls, inclusive ms, self ms].

        Also returns every span's duration in ms by name, and per run id
        the tape nodes made inside ``train()`` outside evaluation.
        """
        spans = self._arrays()
        names, parent, runs = spans["name_id"], spans["parent"], spans["run"]
        dur = (spans["end"] - spans["start"]) * 1e3
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])

        width = len(self.names)
        key = runs * width + names
        calls = np.bincount(key, minlength=width)
        ms = np.bincount(key, weights=dur, minlength=width)
        self_ms = np.bincount(key, weights=dur - child, minlength=width)
        table = {
            (int(k) // width, self.names[int(k) % width]): [int(calls[k]), float(ms[k]), float(self_ms[k])]
            for k in np.flatnonzero(calls)
        }
        per_call = {name: dur[names == i] for i, name in enumerate(self.names)}

        node = np.isin(names, [self.names.index(n) for n in NODE_SPANS if n in self.names])
        counted = node & self._flagged_ancestry(spans, ["training.train"]) & ~self._flagged_ancestry(spans, EVAL_SPANS)
        nodes = defaultdict(int, {int(r): int(c) for r, c in enumerate(np.bincount(runs[counted]))})
        return table, per_call, nodes

    def write(self, path):
        """Save every span as flat arrays in one ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self._arrays())
