"""Span tracing of nwtaut's public functions, installed from outside.

``Tracer.install`` replaces every module binding of each traced function
(and ``__init__`` / methods of traced classes) with a wrapper that records a
span: name, start, end and the index of the enclosing span.  Spans are kept
in memory in flat arrays; ``uninstall`` puts every original object back and
``restored`` confirms it.  A recursive function records only its outermost
call: while it runs, its own module's binding points at the original again,
so the recursion pays no tracing cost.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array

PACKAGE = "nwtaut"

# (module, attribute, recursive); "Class.method" traces a method or __init__
TRACED = [
    ("gf", "GF.__init__", False),
    ("designs", "poly_design", False),
    ("designs", "block", False),
    ("designs", "verify_design", False),
    ("designs", "parse_design", False),
    ("designs", "serialize_design", False),
    ("nwcore", "builtin_base", False),
    ("nwcore", "nw_eval", False),
    ("nwcore", "full_range", False),
    ("nwcore", "tau_of", False),
    ("nwcore", "tau_verdict", False),
    ("nwcore", "err_triple", False),
    ("nwcore", "ttable_from_seed", False),
    ("circuits", "wire_values", False),
    ("circuits", "circuit_clauses", False),
    ("circuits", "circuit_clauses_mapped", False),
    ("circuits", "circuit_to_formula", False),
    ("circuits", "sat_search", False),
    ("circuits", "serialize", False),
    ("circuits", "parse_circuit", False),
    ("circuits", "universal_evaluator", False),
    ("cnf", "dpll_solve", False),
    ("cnf", "ClauseSet.to_dimacs", False),
    ("formulas", "parse", False),
    ("formulas", "to_text", True),
    ("formulas", "evaluate", True),
    ("formulas", "substitute", True),
    ("formulas", "encode_k", False),
    ("formulas", "decode_k", False),
    ("formulas", "is_tautology", False),
    ("frege", "check", False),
    ("frege", "check_derivation", False),
    ("frege", "subst_proof", False),
    ("frege", "prove_true_sentence", False),
    ("frege", "mp", False),
    ("frege", "discharge", False),
    ("frege", "prove_tautology", False),
    ("frege", "serialize_proof", False),
    ("frege", "proof_size_bits", False),
    ("frege", "parse_proof", False),
    ("proofsys", "sat_formula", False),
    ("proofsys", "d4_from_sat", False),
    ("proofsys", "check_plus_alpha", False),
    ("proofsys", "check_advice", False),
    ("proofsys", "prov_formula", False),
    ("proofsys", "alpha_k", False),
    ("proofsys", "simulate", False),
    ("tasks", "solve_cert", False),
    ("tasks", "verify_find_candidate", False),
    ("tasks", "reduce_find_to_cert", False),
    ("tasks", "verify_err", False),
    ("tasks", "solve_err", False),
    ("tasks", "verify_pair", False),
    ("tasks", "solve_pair", False),
    ("cli", "main", False),
]


def package_modules() -> list:
    return [mod for key, mod in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")]


def span_name(module: str, attr: str) -> str:
    """designs.block, gf.GF, cnf.to_dimacs: methods are named by the
    method, constructors by the class."""
    owner, _, member = attr.rpartition(".")
    if member == "__init__":
        return f"{module}.{owner}"
    return f"{module}.{member}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.clear()
        self.stack: list[int] = []
        self.paused = False
        self.patches: list[tuple[object, str, object]] = []  # owner, attr, original
        self.counters: dict[str, float] = {}
        self.hooks: dict[str, object] = {}  # span name -> fn(args, result, parent)

    def clear(self) -> None:
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_start = array("d")
        self.s_end = array("d")

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, name: str, fn, home=None, home_attr: str | None = None):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        tracer = self
        clock = time.perf_counter
        hook_of = self.hooks.get

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = tracer.stack
            idx = len(tracer.s_name)
            tracer.s_name.append(nid)
            tracer.s_parent.append(stack[-1] if stack else -1)
            tracer.s_end.append(0.0)
            stack.append(idx)
            if home is not None:
                setattr(home, home_attr, fn)
            tracer.s_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.s_end[idx] = clock()
                if home is not None:
                    setattr(home, home_attr, traced)
                stack.pop()
            hook = hook_of(name)
            if hook is not None:
                hook(args, result, stack[-1] if stack else -1)
            return result

        traced.__wrapped__ = fn
        traced.perfbench_span = name
        return traced

    def install(self) -> None:
        self.patches = []
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m, _, _ in TRACED}
        package = package_modules()
        for module, attr, recursive in TRACED:
            name = span_name(module, attr)
            home = modules[module]
            if "." in attr:
                cls_name, member = attr.split(".")
                owner = getattr(home, cls_name)
                fn = owner.__dict__[member]
                self._patch(owner, member, self._wrapper(name, fn))
                continue
            fn = getattr(home, attr)
            wrapped = self._wrapper(name, fn, home if recursive else None, attr)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr: str, new) -> None:
        self.patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """Every patched binding holds its original object again, and no
        module or class of the package still holds a wrapper."""
        if any(vars(owner)[attr] is not original for owner, attr, original in self.patches):
            return False
        for mod in package_modules():
            for value in vars(mod).values():
                members = vars(value).values() if isinstance(value, type) else (value,)
                if any(hasattr(v, "perfbench_span") for v in members):
                    return False
        return True

    # -- analysis ----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.s_name)

    def self_times(self, first: int = 0, last: int | None = None
                   ) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per name, over spans first..last-1: (self seconds, inclusive
        seconds of outermost spans of that name, calls).  Self time is the
        span's duration minus the durations of its direct children."""
        n = len(self.s_name) if last is None else last
        child = [0.0] * (n - first)
        dur = [self.s_end[i] - self.s_start[i] for i in range(first, n)]
        for i in range(first, n):
            p = self.s_parent[i]
            if p >= first:
                child[p - first] += dur[i - first]
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i in range(first, n):
            name = self.names[self.s_name[i]]
            self_s[name] = self_s.get(name, 0.0) + dur[i - first] - child[i - first]
            calls[name] = calls.get(name, 0) + 1
            # inclusive time counts a span unless an ancestor has the same name
            p, nested = self.s_parent[i], False
            while p >= first:
                if self.s_name[p] == self.s_name[i]:
                    nested = True
                    break
                p = self.s_parent[p]
            if not nested:
                total_s[name] = total_s.get(name, 0.0) + dur[i - first]
        return self_s, total_s, calls

    def write(self, path: str, first: int = 0) -> None:
        """Spans first..end as gzip'd TSV: index, name, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i in range(first, len(self.s_name)):
                fh.write(
                    f"{i}\t{self.names[self.s_name[i]]}\t{self.s_start[i]!r}\t"
                    f"{self.s_end[i]!r}\t{self.s_parent[i]}\n"
                )
