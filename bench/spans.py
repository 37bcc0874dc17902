"""Layer spans recorded from outside the program, and the metrics they give.

`Tracer.install()` wraps the public functions of each `lsea` layer at every
module attribute that binds them: `cli`, `maps`, `solver` and `verify` do
`from .algebra import mul`, so patching `lsea.algebra.mul` alone would miss
their calls.  Methods are wrapped on their class.  A span is the list
[name, start, end, parent index, op id, attrs]; spans stay in memory and
the worker writes them once, at the end of its pass.

`derive()` turns one pass's spans into per-layer counts and self times
(a span's duration minus the durations of its direct children).
"""

from __future__ import annotations

import importlib
import time

# layer name -> (module, attribute path) of each wrapped function
LAYERS = {
    "cli": [("lsea.cli", "main")],
    "parser.parse": [("lsea.parser", "parse_element")],
    "parser.format": [("lsea.parser", "format_element")],
    "algebra.mul": [("lsea.algebra", "mul")],
    "maps.apply": [
        ("lsea.maps", "apply_derivation"),
        ("lsea.maps", "apply_endo"),
        ("lsea.maps", "RDerivation.__call__"),
    ],
    "maps.check": [
        ("lsea.maps", "check_derivation"),
        ("lsea.maps", "check_endomorphism"),
    ],
    "maps.build": [
        ("lsea.maps", name)
        for name in (
            "ad",
            "lift_phi",
            "compose",
            "der_bracket",
            "graded_parts",
            "extend_lnd_prop55",
            "u1_closed_form",
        )
    ],
    "solver": [
        ("lsea.solver", name)
        for name in (
            "derivation_space",
            "lemma27_solutions",
            "ad_preimage",
            "rfactor_decompose",
            "graded_slice",
            "weighted_slice",
        )
    ],
    "linalg.rref": [("lsea.linalg", "RowReduction.__init__")],
    "linalg.solve": [
        ("lsea.linalg", "solve"),
        ("lsea.linalg", "RowReduction.solve"),
        ("lsea.linalg", "RowReduction.kernel_basis"),
    ],
    "verify": [("lsea.verify", "run_suite")],
}

MODULES = (
    "lsea",
    "lsea.algebra",
    "lsea.parser",
    "lsea.maps",
    "lsea.solver",
    "lsea.linalg",
    "lsea.verify",
    "lsea.cli",
)

STRAIGHTEN_CACHES = ("_r_past_monomial", "_rword_past_monomial")


def _attrs_mul(args, out):
    return {"pairs": len(args[0]) * len(args[1]), "out": len(out)}


def _attrs_format(args, out):
    return {"bytes": len(out)}


def _attrs_reduction(args, out):
    red = args[0]
    return {"rows": red.rows, "cols": red.cols, "rank": red.rank, "free": len(red.free_cols)}


def _attrs_run_suite(args, out):
    return {"cases": out.cases}


# attrs recorded after a span ends, by wrapped attribute path
ATTRS = {
    "mul": _attrs_mul,
    "format_element": _attrs_format,
    "RowReduction.__init__": _attrs_reduction,
    "RowReduction.solve": _attrs_reduction,
    "RowReduction.kernel_basis": _attrs_reduction,
    "run_suite": _attrs_run_suite,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id = None
        self._stack: list[int] = []

    def _wrap(self, name, fn, attrs):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            if name == "linalg.rref":
                rec[5] = {"nnz_in": sum(len(r) for r in args[3])}
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs is not None:
                rec[5] = {**(rec[5] or {}), **attrs(args, out)}
            return out

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for layer, targets in LAYERS.items():
            for module_name, path in targets:
                owner = importlib.import_module(module_name)
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                fn = owner.__dict__[attr]
                wrapper = self._wrap(layer, fn, ATTRS.get(path))
                if cls_path:
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, val in list(vars(module).items()):
                        if val is fn:
                            setattr(module, key, wrapper)


def cache_counts():
    """Summed cache_info() of the straightening caches, or None when absent."""
    from lsea import algebra

    infos = [
        getattr(getattr(algebra, name, None), "cache_info", None)
        for name in STRAIGHTEN_CACHES
    ]
    infos = [info() for info in infos if info is not None]
    if not infos:
        return None
    return {
        "hits": sum(i.hits for i in infos),
        "misses": sum(i.misses for i in infos),
        "entries": sum(i.currsize for i in infos),
    }


def derive(spans):
    """Per-layer counts and self times of one traced pass.

    `in_cli_s` is the time spent inside top-level (cli) spans; the rest of a
    pass's wall time belongs to the benchmark's own loop.
    """
    child_time = [0.0] * len(spans)
    children: list[list[int]] = [[] for _ in spans]
    for k, (_, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            children[parent].append(k)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    for k, (name, start, end, _, _, _) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += end - start - child_time[k]
    out["in_cli_s"] = sum(end - start for _, start, end, parent, _, _ in spans if parent < 0)

    def total(name, key):
        return sum(s[5][key] for s in spans if s[0] == name and s[5] and key in s[5])

    out["parser.format.bytes"] = total("parser.format", "bytes")
    out["algebra.mul.term_pairs"] = total("algebra.mul", "pairs")
    out["algebra.mul.out_terms"] = total("algebra.mul", "out")
    out["algebra.mul.max_out_terms"] = max(
        (s[5]["out"] for s in spans if s[0] == "algebra.mul" and s[5]), default=0
    )
    for key in ("rows", "cols", "nnz_in", "rank"):
        out[f"linalg.rref.{key}"] = total("linalg.rref", key)
    out["verify.cases"] = total("verify", "cases")

    # A solver call's system is the largest reduction it built or solved with.
    unknowns = kernel_dim = 0
    for k, (name, _, _, parent, _, _) in enumerate(spans):
        if name != "solver" or _in_layer(spans, parent, "solver"):
            continue
        best = None
        todo = list(children[k])
        while todo:
            j = todo.pop()
            todo.extend(children[j])
            attrs = spans[j][5]
            if attrs and "cols" in attrs and (best is None or attrs["cols"] > best["cols"]):
                best = attrs
        if best is not None:
            unknowns += best["cols"]
            kernel_dim += best["free"]
    out["solver.unknowns"] = unknowns
    out["solver.kernel_dim"] = kernel_dim
    return out


def _in_layer(spans, k, layer):
    while k >= 0:
        if spans[k][0] == layer:
            return True
        k = spans[k][3]
    return False
