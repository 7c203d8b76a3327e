"""Span tracer installed from outside the program.

Every public function of the traced roofpairs modules (and the two ring
multiplications) is replaced by a wrapper that records one span per call:
name, start, end, parent span and op id.  Spans are kept in memory in
columnar arrays and reduced to additive per-name totals by ``summary()``.

``from .gradedring import make_quadric_ring`` and similar imports bind the
same function object in several modules, so every roofpairs namespace that
holds a wrapped object is patched, not only the defining module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

TRACED_MODULES = ("gradedring", "roofcalc", "latticecore", "bwbcoh",
                  "motivicring", "configs", "checks", "cli")
# (module, class, method attributes, span name)
TRACED_METHODS = (
    ("gradedring", "GradedClass", ("__mul__", "__rmul__"), "gradedring.GradedClass.mul"),
    ("motivicring", "MotivicPoly", ("__mul__", "__rmul__"), "motivicring.MotivicPoly.mul"),
)


def _matrix_key(args, kwargs):
    m = args[0] if args else kwargs["m"]
    return tuple(tuple(row) for row in m)


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _transform_bits(snf) -> int:
    return max((abs(x).bit_length() for t in (snf.U, snf.V) for row in t for x in row), default=0)


def _box_vectors(args, kwargs) -> int:
    bound = args[2] if len(args) > 2 else kwargs.get("bound", 50)
    return (2 * bound + 1) ** 3


# Inputs whose repeats are counted per op.  Content keys for matrices; the
# identity of the side object for per-side derived data (what a per-object
# cache would save).  Identity keys are held until the op ends, so an id is
# never reused within one op.
CONTENT_KEYS = {"latticecore.det": _matrix_key}
IDENTITY_KEYS = {"roofcalc.middle_lattice": _first_arg,
                 "roofcalc.locus_pushforward_class": _first_arg}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.op_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.errors: dict[int, str] = {}
        self.stack: list[int] = []
        self.op = -1
        self.ops = 0
        self.distinct: dict[str, int] = {}
        self.max_bits = 0
        self.box_vectors = 0
        self._seen: dict[str, set] = {}
        self._held: list = []
        self._originals: list[tuple[object, str, object]] = []

    # -- ops ----------------------------------------------------------------

    def begin_op(self) -> None:
        self.op += 1
        self.ops += 1
        self._seen = {}
        self._held = []

    def end_op(self) -> None:
        for name, keys in self._seen.items():
            self.distinct[name] = self.distinct.get(name, 0) + len(keys)
        self._seen = {}
        self._held = []

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _observe(self, name, args, kwargs, result) -> None:
        if name in CONTENT_KEYS:
            self._seen.setdefault(name, set()).add(CONTENT_KEYS[name](args, kwargs))
        elif name in IDENTITY_KEYS:
            obj = IDENTITY_KEYS[name](args, kwargs)
            self._held.append(obj)
            self._seen.setdefault(name, set()).add(id(obj))
        elif name == "latticecore.smith_normal_form":
            self.max_bits = max(self.max_bits, _transform_bits(result))
        elif name == "latticecore.isotropic_pair_solve":
            self.box_vectors += _box_vectors(args, kwargs)

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        stack, errors = self.stack, self.errors
        name_col, parent_col, op_col = self.name_col, self.parent_col, self.op_col
        start_col, end_col = self.start_col, self.end_col
        observed = name in CONTENT_KEYS or name in IDENTITY_KEYS or name in (
            "latticecore.smith_normal_form", "latticecore.isotropic_pair_solve")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start_col)
            name_col.append(nid)
            parent_col.append(stack[-1] if stack else -1)
            op_col.append(self.op)
            end_col.append(0.0)
            stack.append(idx)
            start_col.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors[idx] = type(exc).__name__
                raise
            finally:
                end_col[idx] = perf_counter()
                stack.pop()
            if observed:
                self._observe(name, args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions and patch every roofpairs namespace."""
        replace: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"roofpairs.{short}")
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    replace[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "roofpairs" or mod_name.startswith("roofpairs.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._originals.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for short, cls_name, attrs, span in TRACED_METHODS:
            cls = getattr(sys.modules[f"roofpairs.{short}"], cls_name)
            wrapper = self.wrap(span, cls.__dict__[attrs[0]])
            for attr in attrs:
                self._originals.append((cls, attr, cls.__dict__[attr]))
                setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._originals):
            setattr(owner, attr, obj)
        self._originals = []

    # -- reduction --------------------------------------------------------------

    def summary(self) -> dict:
        """Additive per-name totals: calls, outermost total, self time, errors."""
        n = len(self.start_col)
        dur = [self.end_col[i] - self.start_col[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent_col
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        per: dict[str, dict] = {}
        chain: list[int] = []
        active: dict[int, int] = {}
        for i in range(n):
            p = parent[i]
            while chain and chain[-1] != p:
                active[self.name_col[chain.pop()]] -= 1
            nid = self.name_col[i]
            rec = per.setdefault(self.names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += dur[i] - child[i]
            if not active.get(nid):
                rec["total_s"] += dur[i]
            err = self.errors.get(i)
            if err is not None:
                errs = rec.setdefault("errors", {})
                errs[err] = errs.get(err, 0) + 1
            chain.append(i)
            active[nid] = active.get(nid, 0) + 1
        for name, d in self.distinct.items():
            per.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})["distinct"] = d
        return {"ops": self.ops, "names": per,
                "max_entry_bits": self.max_bits, "box_vectors": self.box_vectors}


def merge(total: dict, part: dict) -> dict:
    """Add one summary into another (max for the bit width)."""
    total["ops"] = total.get("ops", 0) + part["ops"]
    total["max_entry_bits"] = max(total.get("max_entry_bits", 0), part["max_entry_bits"])
    total["box_vectors"] = total.get("box_vectors", 0) + part["box_vectors"]
    names = total.setdefault("names", {})
    for name, rec in part["names"].items():
        acc = names.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key, val in rec.items():
            if key == "errors":
                errs = acc.setdefault("errors", {})
                for cls, k in val.items():
                    errs[cls] = errs.get(cls, 0) + k
            else:
                acc[key] = acc.get(key, 0) + val
    return total
