"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces each public function listed in ``LAYERS`` by a
wrapper that times it and counts its calls and sizes.  A ``from ... import``
copies a function into the importing module, so every module-level name in
``thresholds.*`` bound to the original function is rebound too (``solve_lp``
lives in ``newton``, ``testideal`` and ``asymptotic`` as well as ``lp``);
patching the defining module alone would miss those calls.

Spans nest: a wrapper's self time is its duration minus the durations of the
traced calls made inside it.  Spans are aggregated in memory per function
(calls, self seconds, size counts) in ``Tracer.stats`` and written out when
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter


def _n_gens(b) -> int:
    return len(b.gens) if hasattr(b, "gens") else len(list(b))


def _lp_rows(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None) -> int:
    return len(A_ub or ()) + len(A_eq or ())


# (module, attribute path, {size counter: f(args, result)}); every entry also
# gets ``calls`` and ``self_s``, and ``budget_exhausted`` where listed.
LAYERS = [
    ("cli", "run", None),
    ("rings", "parse_polynomial", {}),
    ("rings", "Polynomial.mul", {"terms_out": lambda a, r: len(r.terms)}),
    ("rings", "Polynomial.pow", {"terms_out": lambda a, r: len(r.terms)}),
    ("rings", "power_has_reduced_term", {"budget_exhausted": None}),
    ("rings", "frobenius_decompose", {"terms_in": lambda a, r: len(a[0].terms)}),
    ("rings", "monomial_coefficient", {}),
    ("lp", "solve_lp", {"rows": lambda a, r: _lp_rows(*a),
                        "cols": lambda a, r: len(a[0])}),
    ("newton", "lct_monomial", {}),
    ("newton", "diagonal_entry_min", {}),
    ("newton", "covolume", {}),
    ("newton", "multiplicity_monomial", {}),
    ("lct0", "lct_closed_form", {}),
    ("frobenius", "nu", {"budget_exhausted": None}),
    ("frobenius", "fpt_enclosure", {}),
    ("frobenius", "is_ordinary_cubic", {}),
    ("grobner", "groebner_basis", {"gens_in": lambda a, r: len(a[0]),
                                   "basis_out": lambda a, r: len(r)}),
    ("grobner", "normal_form", {}),
    ("grobner", "ideal_power", {"products_out": lambda a, r: len(r)}),
    ("grobner", "PolyIdeal.member", {}),
    ("grobner", "PolyIdeal.equal", {}),
    ("testideal", "frobenius_root", {"gens_in": lambda a, r: _n_gens(a[0]),
                                     "gens_out": lambda a, r: len(r.gens)}),
    ("testideal", "tau", {}),
    ("testideal", "tau_monomial", {}),
    ("testideal", "ascending_chain", {}),
    ("testideal", "fjump_scan", {}),
    ("asymptotic", "arn_asym", {}),
    ("asymptotic", "golden_ratio_demo", {}),
    ("redmodp", "compare_at_prime", {}),
    ("redmodp", "reduce_mod_p", {}),
]


def metric_names() -> list:
    """Every per-layer metric name, ``<module>.<function>.<stat>``."""
    names = []
    for mod, path, sizes in LAYERS:
        stats = ["self_s"] if sizes is None else ["calls", "self_s", *sizes]
        names.extend(f"{mod}.{path}.{s}" for s in stats)
    return names


class Tracer:
    def __init__(self):
        self.stats = {
            f"{mod}.{path}": dict.fromkeys(["calls", "self_s", *(sizes or {})], 0)
            for mod, path, sizes in LAYERS
        }
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, sizes):
        st = self.stats[name]
        stack = self._stack
        budget_error = sys.modules["thresholds.rings"].BudgetExceededError
        counters = [(k, f) for k, f in (sizes or {}).items() if f is not None]
        counts_budget = "budget_exhausted" in st

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except budget_error:
                if counts_budget:
                    st["budget_exhausted"] += 1
                raise
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()
                st["calls"] += 1
                st["self_s"] += dt - inner
                if stack:
                    stack[-1] += dt
            for key, f in counters:
                st[key] += f(args, result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "thresholds" or n.startswith("thresholds.")]
        for mod, path, sizes in LAYERS:
            owner = importlib.import_module(f"thresholds.{mod}")
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{mod}.{path}", original, sizes)
            self._set(owner, attr, wrapper)
            if not cls:
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, name, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def snapshot(self) -> dict:
        return {k: dict(v) for k, v in self.stats.items()}

    def restore(self, snap: dict):
        for k, v in snap.items():
            self.stats[k].update(v)
