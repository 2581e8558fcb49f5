"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces, in the eight layer modules of facseries, every
public function as each module bound it (so `applications.pade_construct`,
`evaluate.pade_construct` and `pade.pade_construct` are three call sites of
one layer function), and the public methods of the public classes, with a
wrapper that records a span: site, start, end and parent span.  `uninstall`
puts the originals back, so an untraced pass runs the unmodified program.

Spans are named twice: by the call site (`evaluate.pade_construct`,
`TransformMatrix.verify_orthogonality`) and by the layer function they enter
(`pade.pade_construct`, `transforms.verify_orthogonality`).  `summary`
folds one pass of spans into per-site, per-function and per-layer totals;
a layer's busy time counts only spans entered from another layer, so a
layer calling itself is not counted twice.

Left untraced: `series.to_mpf` (one call per number converted, inside
the numeric loops), and the methods of `PrecisionContext` and
`StirlingCache` (precision switches and one table lookup per Stirling
number, called from inside traced functions).  Wrapping them would cost
more than the work they do and smear that cost over their callers.
"""

from __future__ import annotations

import enum
import importlib
import inspect
from time import perf_counter

LAYERS = ("stirling", "series", "transforms", "acceleration", "pade",
          "evaluate", "applications", "cli")
UNTRACED = {"to_mpf", "PrecisionContext", "StirlingCache"}
# methods grouped under one function name
GROUPS = {"to_json_obj": "wire", "from_json_obj": "wire", "dump": "wire", "load": "wire"}


def _freeze(value):
    return tuple(_freeze(v) for v in value) if isinstance(value, list) else value


# functions whose distinct inputs are counted: results that could be reused
DISTINCT = {"pade.pade_construct", "transforms.verify_orthogonality"}


def _transform_table_variant(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["method"]


# functions whose spans are split by an argument
VARIANTS = {"acceleration.transform_table": _transform_table_variant}


class Tracer:
    def __init__(self):
        self.spans: list = []      # (site, function, t0, t1, parent index)
        self.stack: list = []
        self.inputs: dict = {}     # function -> [input fingerprint, ...]
        self._patches: list = []   # (owner, attribute, original)
        self._targets = self._find_targets()

    @staticmethod
    def _find_targets() -> list:
        """(owner, attribute, original, site, function) for every traced binding."""
        targets = []
        for layer in LAYERS:
            mod = importlib.import_module(f"facseries.{layer}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or name in UNTRACED:
                    continue
                home = getattr(obj, "__module__", "") or ""
                home_layer = home.rpartition(".")[2]
                if not home.startswith("facseries.") or home_layer not in LAYERS:
                    continue
                if inspect.isfunction(obj):
                    targets.append((mod, name, obj, f"{layer}.{name}", f"{home_layer}.{name}"))
                elif (inspect.isclass(obj) and home == mod.__name__
                      and not issubclass(obj, (enum.Enum, BaseException))):
                    for meth, attr in vars(obj).items():
                        if meth.startswith("_"):
                            continue
                        fn = attr.__func__ if isinstance(attr, classmethod) else attr
                        if inspect.isfunction(fn):
                            targets.append((obj, meth, attr, f"{name}.{meth}",
                                            f"{layer}.{GROUPS.get(meth, meth)}"))
        return targets

    def _wrap(self, fn, site: str, function: str):
        spans, stack, inputs = self.spans, self.stack, self.inputs
        variant = VARIANTS.get(function)
        signature = inspect.signature(fn) if function in DISTINCT else None

        def traced(*args, **kwargs):
            name = f"{function}.{variant(args, kwargs)}" if variant else function
            if signature:
                bound = signature.bind(*args, **kwargs).arguments
                inputs.setdefault(function, []).append(
                    tuple((k, _freeze(v)) for k, v in bound.items()))
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[index] = (site, name, t0, t1, parent)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, original, site, function in self._targets:
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(original.__func__, site, function))
            else:
                replacement = self._wrap(original, site, function)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.inputs.clear()

    def summary(self) -> dict:
        """Totals of the spans recorded since the last reset, all of them closed.

        Per call site, per function and per layer: `calls` and `s` count the
        spans entered from outside that site, function or layer (so nesting
        is not counted twice), `self_s` the time not spent in traced children.
        """
        child = [0.0] * len(self.spans)
        for _, _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        tables: dict = {"sites": {}, "functions": {}, "layers": {}}
        for index, (site, name, t0, t1, parent) in enumerate(self.spans):
            outer = self.spans[parent] if parent >= 0 else (None, "", 0, 0, -1)
            for table, key, outer_key in (("sites", site, outer[0]),
                                          ("functions", name, outer[1]),
                                          ("layers", _layer(name), _layer(outer[1]))):
                row = tables[table].setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})
                row["self_s"] += t1 - t0 - child[index]
                if key != outer_key:
                    row["calls"] += 1
                    row["s"] += t1 - t0
        tables["distinct"] = {fn: {"calls": len(seen), "distinct": len(set(seen))}
                              for fn, seen in self.inputs.items()}
        return tables


def _layer(function: str) -> str:
    return function.partition(".")[0]


def merge(total: dict, part: dict) -> dict:
    """Add the counts and times of one summary into another."""
    for section, rows in part.items():
        into = total.setdefault(section, {})
        for key, row in rows.items():
            acc = into.setdefault(key, dict.fromkeys(row, 0))
            for field, value in row.items():
                acc[field] += value
    return total
