"""Per-layer split: exclusive time in each blockflow module during traced commands.

`LayerClock.install()` wraps every function, method and property getter that
the package's own source defines, in every package namespace that refers to
it. While the clock is active, the time between two wrapper events is charged
to the module (the layer) of the innermost wrapped call in progress, so each
second of a command lands in exactly one layer. Calls made while the clock is
inactive pass straight through, so the benchmark's own checks are not counted.

Wrapping adds a little to every call, so traced times are larger than untraced
ones; they are for comparing layers and for comparing a layer before and after
a change, on the same workload.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# Dunder methods that must stay untouched: they run on object creation,
# printing and attribute access, not as layer work.
SKIP = frozenset({"__repr__", "__str__", "__format__", "__hash__", "__del__", "__getattr__",
                  "__getattribute__", "__setattr__", "__delattr__", "__init_subclass__",
                  "__class_getitem__", "__reduce__", "__reduce_ex__"})

# The layers every workload's commands run, so each is reported on all of them.
LAYERS = ("cli", "env", "model", "autodiff", "trainer", "reward", "checkpoint")


class LayerClock:
    def __init__(self, package):
        self.package = package
        self.root = str(Path(package.__file__).resolve().parent)
        self.active = False
        self.self_s: dict[str, float] = defaultdict(float)      # by layer
        self.fn_self_s: dict[str, float] = defaultdict(float)   # by layer.qualname
        self.calls: dict[str, int] = defaultdict(int)           # by layer.qualname
        self._stack: list[tuple[str, str]] = []
        self._last = 0.0
        self._undo: list[tuple[object, str, object]] = []

    # -- clock ---------------------------------------------------------------

    def _charge(self, now: float) -> None:
        if self._stack:
            layer, name = self._stack[-1]
            self.self_s[layer] += now - self._last
            self.fn_self_s[name] += now - self._last
        self._last = now

    def _wrap(self, fn, layer: str):
        clock = self
        name = f"{layer}.{fn.__qualname__}"
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not clock.active:
                return fn(*args, **kwargs)
            clock._charge(perf_counter())
            clock._stack.append((layer, name))
            clock.calls[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                clock._charge(perf_counter())
                clock._stack.pop()

        return traced

    def __enter__(self):
        self._stack.clear()
        self.active = True
        return self

    def __exit__(self, *exc):
        self.active = False
        self._stack.clear()
        return False

    # -- patching ------------------------------------------------------------

    def _ours(self, obj) -> bool:
        return (inspect.isfunction(obj)
                and str(Path(obj.__code__.co_filename).resolve()).startswith(self.root))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr in SKIP:
                continue
            if isinstance(obj, (staticmethod, classmethod)) and self._ours(obj.__func__):
                self._set(cls, attr, type(obj)(self._wrap(obj.__func__, layer)))
            elif isinstance(obj, property) and self._ours(obj.fget):
                self._set(cls, attr, property(self._wrap(obj.fget, layer), obj.fset, obj.fdel,
                                              obj.__doc__))
            elif self._ours(obj):
                self._set(cls, attr, self._wrap(obj, layer))

    def install(self) -> None:
        prefix = self.package.__name__ + "."
        modules = [m for name, m in list(sys.modules.items())
                   if name.startswith(prefix) and m is not None]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__[len(prefix):]
            for obj in list(vars(mod).values()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if self._ours(obj):
                    wrappers[obj] = self._wrap(obj, layer)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for mod in modules + [self.package]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-round exclusive seconds of every always-run layer, and call counts."""
        out = {f"{layer}.self_s": (self.self_s.get(layer, 0.0) / rounds, "s") for layer in LAYERS}
        calls = self.calls
        out["model.step_calls"] = (calls["model.FlowModel.step"] / rounds, "count")
        out["reward.evaluations"] = (
            (calls["reward.surrogate_gsa"] + calls["reward.external_gsa"]) / rounds, "count")
        return out

    def write(self, path: Path, rounds: int) -> None:
        """Every layer and every wrapped function that ran, per round."""
        doc = {"rounds": rounds,
               "layers_s": {k: v / rounds for k, v in sorted(self.self_s.items())},
               "functions": {name: {"self_s": self.fn_self_s[name] / rounds,
                                    "calls": self.calls[name] / rounds}
                             for name in sorted(self.calls)}}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n")

    def summary(self, rounds: int) -> str:
        total = sum(self.self_s.values()) or 1.0
        return "\n".join(f"  {layer:<11} {s / rounds:9.4f} s/round {100 * s / total:5.1f}%"
                         for layer, s in sorted(self.self_s.items(), key=lambda kv: -kv[1]))
