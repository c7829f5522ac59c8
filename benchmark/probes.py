"""Hooks the benchmark sets on the program's module functions, from outside.

``CellProbe`` is on in every run.  It stamps the start of training, the end
of each primal-dual iteration (through the ``callback`` that ``train``
already accepts) and the start of each evaluation draw, and it keeps the
objects the correctness checks need.  That costs one Python call per
iteration and per draw, so the untraced end-to-end figures stay untouched.

``Tracer`` is on only in the traced run.  It wraps the public function each
layer is entered through and records ``(name, start, end, bytes)`` spans in
memory.  It can be switched off between calls, which lets one run alternate
traced and untraced iterations and so measure its own overhead.

A hook point the program no longer has is reported on stderr and skipped,
so the layer figures it fed read as zero instead of the run failing.
"""

from __future__ import annotations

import resource
import sys
from time import perf_counter

import numpy as np

from sgnn import estimators, experiments, training


class Patches:
    """Replaces attributes of modules or classes and puts them back."""

    def __init__(self):
        self._undo = []

    def wrap(self, owner, name, make):
        if name not in vars(owner):
            print(f"benchmark: {owner.__name__}.{name} not found; not hooked", file=sys.stderr)
            return
        original = vars(owner)[name]
        self._undo.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def nbytes(obj) -> int:
    """Bytes of the arrays an object holds directly or in a list attribute."""
    total = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, (list, tuple)):
            total += sum(v.nbytes for v in value if isinstance(v, np.ndarray))
    return total


class Tracer:
    """In-memory spans around the calls into each layer."""

    def __init__(self):
        self.active = True
        self.spans = []          # (name, start, end, bytes)

    def span(self, name, size=None):
        def make(fn):
            def traced(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                start = perf_counter()
                out = fn(*args, **kwargs)
                end = perf_counter()
                self.spans.append((name, start, end, size(out) if size else 0))
                return out
            return traced
        return make

    def optimizer(self, make_optimizer):
        def traced_make(cfg):
            opt = make_optimizer(cfg)
            opt.step = self.span("optimizer")(opt.step)
            return opt
        return traced_make

    def install(self, patches: Patches) -> None:
        """Hook every layer boundary the per-layer figures are made from."""
        s = self.span
        patches.wrap(training, "sample_stack", s("sample", nbytes))
        patches.wrap(estimators, "sample_gres_batch", s("gres"))
        patches.wrap(training, "forward_stack", s("forward"))
        patches.wrap(training, "backward_stack", s("backward"))
        patches.wrap(training.Loss, "value", s("loss"))
        patches.wrap(training.Loss, "grad", s("loss"))
        patches.wrap(training, "make_optimizer", self.optimizer)
        patches.wrap(training.TrainTrace, "append", s("append"))
        patches.wrap(experiments, "sample_stack", s("eval.sample"))
        patches.wrap(experiments, "forward_stack", s("eval.forward"))
        for name in ("top_k_items", "metric_ad_at_k", "metric_rmse", "metric_accuracy"):
            patches.wrap(experiments, name, s("eval.score"))
        patches.wrap(experiments, "gen_source_localization", s("setup.data"))
        patches.wrap(experiments, "load_movielens", s("setup.data"))
        patches.wrap(experiments, "sbm_generate", s("setup.graph"))
        patches.wrap(experiments, "pearson_correlations", s("setup.graph"))
        patches.wrap(experiments, "build_recsys_task", s("setup.task"))
        patches.wrap(experiments, "init_params", s("setup.task"))


class CellProbe:
    """Iteration and draw stamps plus the objects the checks read."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.iter_stamps = []    # training start, then the end of each iteration
        self.draw_calls = []     # start of each evaluation sample_stack call
        self.ad_values = []
        self.train_args = None
        self.task = None
        self.rusage = []         # process rusage at training start and end

    def _train(self, train):
        def probed(params0, gres, dataset, cfg, rng, *args, callback=None, **kwargs):
            self.train_args = (params0, gres, dataset, cfg)

            def on_iteration(t, params, gamma, trace):
                self.iter_stamps.append(perf_counter())
                if self.tracer is not None:
                    # odd iterations traced, even ones not
                    self.tracer.active = t % 2 == 0
                if callback is not None:
                    callback(t, params, gamma, trace)

            if self.tracer is not None:
                self.tracer.active = False
            self.rusage.append(resource.getrusage(resource.RUSAGE_SELF))
            self.iter_stamps.append(perf_counter())
            out = train(params0, gres, dataset, cfg, rng, *args,
                        callback=on_iteration, **kwargs)
            self.rusage.append(resource.getrusage(resource.RUSAGE_SELF))
            if self.tracer is not None:
                self.tracer.active = True
            return out
        return probed

    def _eval_sample(self, sample_stack):
        def probed(*args, **kwargs):
            self.draw_calls.append(perf_counter())
            return sample_stack(*args, **kwargs)
        return probed

    def _keep_task(self, build):
        def probed(*args, **kwargs):
            self.task = build(*args, **kwargs)
            return self.task
        return probed

    def _keep_ad(self, ad_at_k):
        def probed(*args, **kwargs):
            value = ad_at_k(*args, **kwargs)
            self.ad_values.append(value)
            return value
        return probed

    def install(self, patches: Patches) -> None:
        patches.wrap(experiments, "train", self._train)
        patches.wrap(experiments, "sample_stack", self._eval_sample)
        patches.wrap(experiments, "build_recsys_task", self._keep_task)
        patches.wrap(experiments, "metric_ad_at_k", self._keep_ad)
