"""Spans around calls into operad_forge's modules, for the traced run only.

Tracer.install() replaces each function in TARGETS, in its own module and in
every operad_forge module that imported it by name, with a wrapper that
records a span: name, start, end, the enclosing span and an optional count
taken from the result.  Times come from hostspeed.now(), which leaves out
the reference units.  Spans stay in memory in flat arrays until the round
ends.  uninstall() puts the original functions back.  Nothing in src/ is
edited, and the untraced run never calls install().
"""

from __future__ import annotations

import gzip
import sys
from array import array
from hostspeed import now

LAYERS = ("oracle", "exactlin", "arity3", "manin", "treeterm", "systems",
          "bijections")

# (module, attribute, count taken from the result or None).  A dotted
# attribute names a method.
TARGETS = (
    ("oracle", "bruteforce_dim", None),
    ("oracle", "ideal_rank", int),
    ("oracle", "consequences", len),
    ("oracle", "free_trees", None),
    ("treeterm", "normalize", len),
    ("treeterm", "is_normal", int),
    ("treeterm", "overlaps", len),
    ("treeterm", "check_confluence", None),
    ("systems", "normal_forms", len),
    ("bijections", "zin_to_pbt", None),
    ("bijections", "pbt_to_zin", None),
    ("bijections", "bicom_to_word", None),
    ("bijections", "word_to_bicom", None),
    ("bijections", "flex_to_L", None),
    ("bijections", "L_to_flex", None),
    ("manin", "admits_nonsymmetric", lambda r: int(r.admits)),
    ("manin", "white_product_as", None),
    ("manin", "symmetrize_quotient", None),
    ("arity3", "OperadPresentation.relation_space", None),
    ("arity3", "s3_closure", None),
    ("exactlin", "span", None),
    ("exactlin", "subspace_sum", None),
    ("exactlin", "intersect", None),
    ("exactlin", "nullspace", None),
    ("exactlin", "rref", None),
)

# The forward half of each bijection round trip.
_FORTH = ("bijections.zin_to_pbt", "bijections.bicom_to_word",
          "bijections.flex_to_L")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.value = array("q")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        package = [m for k, m in sys.modules.items()
                   if k.startswith("operad_forge.")]
        for module, attr, measure in TARGETS:
            owner = sys.modules[f"operad_forge.{module}"]
            *path, fname = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, fname)
            wrapper = self._wrap(f"{module}.{attr}", original, measure)
            self._patch(owner, fname, wrapper)
            if not path:
                for m in package:
                    for alias, value in list(vars(m).items()):
                        if value is original and m is not owner:
                            self._patch(m, alias, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn, measure):
        nid = len(self.names)
        self.names.append(name)
        names, start, end = self.name, self.start, self.end
        parent, value, stack = self.parent, self.value, self._stack

        def wrapper(*args, **kwargs):
            i = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            value.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = now()
                stack.pop()
            if measure is not None:
                value[i] = measure(result)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, calls not inside a call of the same name and
        their time, self time, counted values, and calls made by the
        benchmark itself (top) with their time and counted values.  Per
        layer: self time, and the time spent in it when entered from
        outside."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        inner = [0.0] * n
        ancestors = [0] * n  # bit k set: a span named names[k] encloses i
        name, parent = self.name, self.parent
        layer_of = [s.split(".")[0] for s in self.names]
        for i in range(n):
            p = parent[i]
            if p >= 0:
                inner[p] += dur[i]
                ancestors[i] = ancestors[p] | (1 << name[p])
        per_name = {s: {"calls": 0, "outer_calls": 0, "s": 0.0, "self_s": 0.0,
                        "value": 0, "top_calls": 0, "top_s": 0.0, "top_value": 0}
                    for s in self.names}
        layers = {l: {"self_s": 0.0, "entry_s": 0.0} for l in LAYERS}
        for i in range(n):
            k = name[i]
            rec = per_name[self.names[k]]
            rec["calls"] += 1
            rec["self_s"] += dur[i] - inner[i]
            rec["value"] += self.value[i]
            if not ancestors[i] >> k & 1:
                rec["outer_calls"] += 1
                rec["s"] += dur[i]
            p = parent[i]
            if p < 0:
                rec["top_calls"] += 1
                rec["top_s"] += dur[i]
                rec["top_value"] += self.value[i]
            layer = layers[layer_of[k]]
            layer["self_s"] += dur[i] - inner[i]
            if p < 0 or layer_of[name[p]] != layer_of[k]:
                layer["entry_s"] += dur[i]
        return {"spans": n, "names": per_name, "layers": layers}

    def write(self, path) -> None:
        """One line per span: name, start, end, parent index, counted value."""
        with gzip.open(path, "wt") as f:
            f.write("name\tstart_s\tend_s\tparent\tvalue\n")
            for i in range(len(self.start)):
                f.write(f"{self.names[self.name[i]]}\t{self.start[i]!r}\t"
                        f"{self.end[i]!r}\t{self.parent[i]}\t{self.value[i]}\n")


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, with their units."""
    f, lay = summary["names"], summary["layers"]

    def ratio(a, b):
        return a / b if b else 0.0

    rows = f["oracle.consequences"]["value"]
    rank = f["oracle.ideal_rank"]["value"]
    norm = f["treeterm.normalize"]
    isn = f["treeterm.is_normal"]
    m = {
        "oracle.rows": (rows, "count"),
        "oracle.rank": (rank, "count"),
        "oracle.useful_row_ratio": (ratio(rank, rows), "ratio"),
        "oracle.rows_s": (f["oracle.consequences"]["s"], "s"),
        "oracle.elim_s": (f["oracle.ideal_rank"]["self_s"], "s"),
        "oracle.free_trees_s": (f["oracle.free_trees"]["s"], "s"),
        "treeterm.normalize_calls": (norm["top_calls"], "count"),
        "treeterm.normalize_s": (norm["top_s"], "s"),
        "treeterm.output_terms": (norm["top_value"], "count"),
        "treeterm.overlaps": (f["treeterm.overlaps"]["value"], "count"),
        "treeterm.overlaps_s": (f["treeterm.overlaps"]["s"], "s"),
        "treeterm.confluence_s": (f["treeterm.check_confluence"]["s"], "s"),
        "treeterm.is_normal_calls": (isn["top_calls"], "count"),
        "treeterm.is_normal_s": (isn["top_s"], "s"),
        "treeterm.normal_ratio": (ratio(isn["top_value"], isn["top_calls"]), "ratio"),
        "systems.normal_forms_trees": (f["systems.normal_forms"]["value"], "count"),
        "systems.normal_forms_s": (f["systems.normal_forms"]["s"], "s"),
        "bijections.roundtrips": (sum(f[s]["outer_calls"] for s in _FORTH), "count"),
        "bijections.roundtrip_s": (lay["bijections"]["entry_s"], "s"),
        "arity3.relation_space_s": (f["arity3.OperadPresentation.relation_space"]["s"], "s"),
        "manin.admits_s": (f["manin.admits_nonsymmetric"]["s"], "s"),
        "manin.white_product_s": (f["manin.white_product_as"]["s"], "s"),
        "manin.symmetrize_s": (f["manin.symmetrize_quotient"]["s"], "s"),
        "manin.admitted": (f["manin.admits_nonsymmetric"]["value"], "count"),
        "exactlin.calls": (sum(r["calls"] for s, r in f.items()
                               if s.startswith("exactlin.")), "count"),
        "exactlin.s": (lay["exactlin"]["entry_s"], "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (lay[layer]["self_s"], "s")
    m["trace.spans"] = (summary["spans"], "count")
    return m
