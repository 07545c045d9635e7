"""In-memory span tracer and the wrappers that attach it to torusrep.

The tracer is installed from outside the program: each traced public
function is replaced by a wrapper in every ``torusrep`` module that holds
a reference to it, so calls through a by-name import (``from .linalg
import nullspace``) are traced too.  Spans are kept in flat arrays
(name, start, end, parent) and turned into per-name self times at the end.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional

NO_PARENT = -1


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.stack = [NO_PARENT]
        self.counts: Counter = Counter()
        self.maxima: Dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name: str, fn: Callable,
                after: Optional[Callable] = None) -> Callable:
        """Wrap fn so each call records a span; ``after(args, kwargs,
        result)`` may add counters once the call has returned."""
        nid = self.name_id(name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack, clock = self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def reset(self) -> None:
        """Drop spans and counters in place; wrappers keep their references."""
        for column in (self.name, self.start, self.end, self.parent):
            del column[:]
        self.stack[:] = [NO_PARENT]
        self.counts.clear()
        self.maxima.clear()

    def note_max(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def self_times(self) -> Dict[str, float]:
        """Per name: the sum over its spans of duration minus the time
        covered by direct child spans."""
        n = len(self.start)
        child = [0.0] * n
        starts, ends, parents = self.start, self.end, self.parent
        for k in range(n):
            p = parents[k]
            if p != NO_PARENT:
                child[p] += ends[k] - starts[k]
        out = {name: 0.0 for name in self.names}
        names = self.names
        for k in range(n):
            out[names[self.name[k]]] += ends[k] - starts[k] - child[k]
        return out

    def calls(self) -> Dict[str, int]:
        out = {name: 0 for name in self.names}
        for k in self.name:
            out[self.names[k]] += 1
        return out

    def root_total(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(self.end[k] - self.start[k] for k in range(len(self.start))
                   if self.parent[k] == NO_PARENT)

    def write(self, path: str) -> None:
        """Spans as JSON: the name table and four parallel columns."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "name": self.name.tolist(),
                       "start": self.start.tolist(), "end": self.end.tolist(),
                       "parent": self.parent.tolist()}, fh)


# -- attaching the tracer to torusrep ----------------------------------------

def _rebind(orig: Callable, wrapper: Callable) -> int:
    """Replace every module-level reference to orig inside torusrep."""
    hits = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "torusrep" or modname.startswith("torusrep.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
                hits += 1
    return hits


SPANNED = [
    "cli.main", "fock.rho_mat_on_monomial", "fock.rho_action",
    "fock.gl_ell_action", "fock.glbar_action", "fock.basis_monomials",
    "duality.weight_spaces", "duality.fixed_space", "duality.joint_hw_dim",
    "linalg.nullspace", "liealg.bracket", "covariant.cov_bracket",
    "covariant.theta", "covariant.theta_inv", "glrep.lr_coeff",
    "glrep.tensor_mult_C", "glrep.levi_branch_D", "scalars.qpow",
    "scalars.validate_spectrum",
]

SUITES = {
    "verify": ["verify_bracket_axioms", "verify_theta_iso",
               "verify_module_property", "verify_highest_weight",
               "verify_nilpotency"],
    "duality": ["verify_skew_duality", "verify_tensor_branching",
                "verify_levi_branching", "verify_lattice_intertwiner"],
}


def install(tracer: Tracer) -> None:
    """Wrap the traced torusrep functions; the package must be imported."""
    import importlib

    def module(short: str):
        return importlib.import_module("torusrep." + short)

    counts = tracer.counts

    def after_basis(args, kwargs, result):
        counts["fock.basis_monomials.monomials"] += len(result)

    def after_nullspace(args, kwargs, result):
        rows, ncols = args[0], args[1]
        counts["linalg.nullspace.entries"] += len(rows) * ncols
        counts["linalg.nullspace.kernel_dim"] += len(result)
        tracer.note_max("linalg.nullspace.max_rows", len(rows))
        tracer.note_max("linalg.nullspace.max_cols", ncols)

    def after_to_json(args, kwargs, result):
        counts["reports.to_json.bytes"] += len(result.encode())

    after = {"fock.basis_monomials": after_basis,
             "linalg.nullspace": after_nullspace}

    for name in SPANNED:
        mod_short, attr = name.split(".")
        orig = getattr(module(mod_short), attr)
        wrapper = tracer.spanned(name, orig, after.get(name))
        if not _rebind(orig, wrapper):
            raise RuntimeError(f"no reference to {name} found")

    for mod_short, attrs in SUITES.items():
        for attr in attrs:
            orig = getattr(module(mod_short), attr)
            _rebind(orig, tracer.spanned("verify.suite", orig))

    reports = module("reports")
    report_cls = reports.DecompositionReport
    report_cls.to_json = tracer.spanned("reports.to_json", report_cls.to_json,
                                        after_to_json)

    # Counting only: these run hundreds of thousands of times per pass, and
    # a span on each would dominate the pass.
    fock = module("fock")
    bilinear = fock.bilinear_on_monomial

    @functools.wraps(bilinear)
    def counted_bilinear(*args, **kwargs):
        result = bilinear(*args, **kwargs)
        counts["fock.bilinear_on_monomial.calls"] += 1
        if result is not None:
            counts["fock.bilinear_on_monomial.hits"] += 1
        return result

    _rebind(bilinear, counted_bilinear)

    verify = module("verify")
    cached = verify.CachedAction
    cached_call = cached.__call__
    K0, K1 = verify.K0, verify.K1

    def after_cached(args, kwargs, result):
        x, vec = args[1], args[2]
        keys = sum(1 for key, _ in x.items() if key != K0 and key != K1)
        counts["verify.CachedAction.lookups"] += keys * len(vec._terms)

    cached.__call__ = tracer.spanned("verify.CachedAction", cached_call,
                                     after_cached)

    # A cache miss is a call through verify's own binding of the action.
    traced_rho = verify.rho_mat_on_monomial

    @functools.wraps(traced_rho)
    def counted_miss(*args, **kwargs):
        counts["verify.CachedAction.misses"] += 1
        return traced_rho(*args, **kwargs)

    verify.rho_mat_on_monomial = counted_miss


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metric values of one traced pass, by metric name."""
    calls = tracer.calls()
    selfs = tracer.self_times()
    counts = tracer.counts
    out: Dict[str, float] = {}
    for name in SPANNED + ["verify.suite", "verify.CachedAction", "reports.to_json"]:
        out[name + ".calls"] = calls.get(name, 0)
        out[name + ".self_s"] = selfs.get(name, 0.0)
    bilinear = counts["fock.bilinear_on_monomial.calls"]
    out["fock.bilinear_on_monomial.calls"] = bilinear
    out["fock.bilinear_on_monomial.hit_ratio"] = (
        counts["fock.bilinear_on_monomial.hits"] / bilinear if bilinear else 0.0)
    lookups = counts["verify.CachedAction.lookups"]
    misses = counts["verify.CachedAction.misses"]
    out["verify.CachedAction.lookups"] = lookups
    out["verify.CachedAction.misses"] = misses
    out["verify.CachedAction.hit_ratio"] = 1.0 - misses / lookups if lookups else 0.0
    for key in ("fock.basis_monomials.monomials", "linalg.nullspace.entries",
                "linalg.nullspace.kernel_dim", "reports.to_json.bytes"):
        out[key] = counts[key]
    for key in ("linalg.nullspace.max_rows", "linalg.nullspace.max_cols"):
        out[key] = tracer.maxima.get(key, 0)
    return out
