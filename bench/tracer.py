"""Outside-in tracer for the wgdisp benchmark.

The program has no spans of its own.  ``Tracer.installed()`` replaces each
target function object with a timing wrapper in every ``wgdisp.*`` module
namespace that binds it (``energy.mode_arrays``, ``cli.dispersion_energy``,
``oracle_checks.f_tensor``, ``coupling.bessel_k0`` and so on), so calls
made through any of those names are recorded.  Spans are kept in memory
with parent links and written out once the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _modes_built(args, kwargs, out):
    return int(out["TM"]["k"].size + out["TE"]["k"].size)


def _modes_used(args, kwargs, out):
    return int(out.modes_used)


def _elements(args, kwargs, out):
    return int(np.size(args[0] if args else kwargs["x"]))


PACKAGE = "wgdisp"

# (module, function, size counter): the layer boundaries that are traced.
TARGETS = (
    ("cli", "main", None),
    ("waveguide", "mode_arrays", _modes_built),
    ("energy", "f_tensor", _modes_used),
    ("energy", "dispersion_energy", None),
    ("energy", "quadratic_contraction", None),
    ("coupling", "f_quadrature", None),
    ("coupling", "f_tm_closed", None),
    ("coupling", "f_te_closed", None),
    ("bessel", "bessel_k0", _elements),
    ("fourth_order", "fourth_order_oracle", None),
    ("fourth_order", "weighted_reference_energy", None),
    ("asymptotics", "reduced_zz_sum_direct", None),
    ("oracle_checks", "run_oracle_checks", None),
)

# Span fields, stored as plain lists to keep the wrapper cheap.
NAME, PARENT, OP, START, END, SIZE, ERROR, CHILD_S = range(8)


class Tracer:
    """Records one span per call of each target function."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1  # identifier shared by the spans of one benchmark op
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, sizer):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, parent, self.op, 0.0, 0.0, 0, 0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            start = span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = 1
                raise
            finally:
                end = span[END] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD_S] += end - start
            if sizer is not None:
                span[SIZE] = sizer(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        try:
            for mod_name, fn_name, sizer in TARGETS:
                home = sys.modules[f"{PACKAGE}.{mod_name}"]
                original = getattr(home, fn_name)
                traced = self._wrap(f"{mod_name}.{fn_name}", original, sizer)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)
                            self._patches.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(self._patches):
                setattr(mod, attr, original)
            self._patches.clear()

    def dump(self) -> list[dict]:
        keys = ("name", "parent", "op", "start", "end", "size", "error",
                "child_s")
        return [dict(zip(keys, span)) for span in self.spans]


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, float]:
    """Per-op call counts, self times and work counts of each traced layer.

    A span's self time is its duration minus the time of its traced
    children.  ``growth_steps`` is the number of ``mode_arrays`` calls
    made per ``f_tensor`` call; ``useful_ratio`` is the modes the returned
    tensors used over the modes ``mode_arrays`` built for them.
    """
    calls = defaultdict(int)
    self_s = defaultdict(float)
    size = defaultdict(int)
    errors = defaultdict(int)
    builds_in_f = 0
    built_in_f = 0
    for span in spans:
        name = span[NAME]
        calls[name] += 1
        self_s[name] += span[END] - span[START] - span[CHILD_S]
        size[name] += span[SIZE]
        errors[name] += span[ERROR]
        if (name == "waveguide.mode_arrays" and span[PARENT] >= 0
                and spans[span[PARENT]][NAME] == "energy.f_tensor"):
            builds_in_f += 1
            built_in_f += span[SIZE]
    n = max(n_ops, 1)
    out = {}
    for mod_name, fn_name, _ in TARGETS:
        name = f"{mod_name}.{fn_name}"
        out[f"{name}.calls"] = calls[name] / n
        out[f"{name}.self_s"] = self_s[name] / n
        out[f"{name}.errors"] = errors[name] / n
    out["waveguide.mode_arrays.modes_built"] = size["waveguide.mode_arrays"] / n
    out["energy.f_tensor.modes_used"] = size["energy.f_tensor"] / n
    out["bessel.bessel_k0.elements"] = size["bessel.bessel_k0"] / n
    ft_calls = calls["energy.f_tensor"]
    out["energy.f_tensor.growth_steps"] = builds_in_f / ft_calls if ft_calls else 0.0
    out["energy.f_tensor.useful_ratio"] = (size["energy.f_tensor"] / built_in_f
                                           if built_in_f else 0.0)
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per module from ``python -X importtime``."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        out[fields[2].strip()] = int(fields[1]) * 1e-6
    return out


def import_metrics(cumulative: dict[str, float]) -> dict[str, float]:
    """``*.import_s`` figures: each module's cumulative import time.

    ``cli.import_s`` is the whole of ``import wgdisp.cli``: the package
    ``__init__`` (which loads every submodule) plus the cli module itself.
    A module's cumulative time includes every import it is first to make,
    so numpy is counted under the first wgdisp module that imports it.
    """
    def cum(name):
        return cumulative.get(name, 0.0)

    return {
        "cli.import_s": cum(PACKAGE) + cum(f"{PACKAGE}.cli"),
        "energy.import_s": cum(f"{PACKAGE}.energy"),
        "coupling.import_s": cum(f"{PACKAGE}.coupling"),
        "bessel.import_s": cum(f"{PACKAGE}.bessel"),
    }
