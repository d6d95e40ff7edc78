"""Outside-in spans around the package's public functions.

The package has no instrumentation of its own, so the traced run wraps
its functions from here.  A wrapper replaces the function object
wherever a module of the package holds a reference to it, because a
caller looks the name up in its own module: `spaces.refined_modulus_sup`
and `characterization.refined_modulus_sup` are the same function under
two names, and both are patched.  Methods are patched on their class.

Spans stay in memory as (id, parent id, op id, name, start, end) and
are written out when the run ends.  Self time is a span's duration
minus the time covered by its direct children.  Nothing is installed
unless `Tracer.install` is called, so untraced runs pay nothing.
"""

from __future__ import annotations

import collections
import functools
import gzip
import json
import sys
import time

# (span name, module, attribute) of the plain functions to wrap.
FUNCTIONS = (
    ("analytic_core.winding_number", "wcolab.analytic_core", "winding_number"),
    ("quadrature.refined_modulus_sup", "wcolab.quadrature", "refined_modulus_sup"),
    ("quadrature.area_integral", "wcolab.quadrature", "area_integral"),
    ("quadrature.weighted_radial_integral", "wcolab.quadrature", "weighted_radial_integral"),
    ("quadrature.integral_mean", "wcolab.quadrature", "integral_mean"),
    ("quadrature.taylor_coefficients", "wcolab.quadrature", "taylor_coefficients"),
    ("spaces.seminorm", "wcolab.spaces", "seminorm"),
    ("operators.isometry_defect", "wcolab.operators", "isometry_defect"),
    ("operators.apply", "wcolab.operators", "apply"),
    ("operators.finite_section", "wcolab.operators", "finite_section"),
    ("characterization.check_isometry", "wcolab.characterization", "check_isometry"),
    ("characterization.check_invertible", "wcolab.characterization", "check_invertible"),
    ("characterization.detect_automorphism", "wcolab.characterization", "detect_automorphism"),
    ("characterization.multiplier_test", "wcolab.characterization", "multiplier_test"),
    ("characterization.inverse_symbols", "wcolab.characterization", "inverse_symbols"),
    ("axiom_harness.run_all", "wcolab.axiom_harness", "run_all"),
    ("axiom_harness.check_a1", "wcolab.axiom_harness", "check_a1"),
    ("axiom_harness.check_a2", "wcolab.axiom_harness", "check_a2"),
    ("axiom_harness.check_a3", "wcolab.axiom_harness", "check_a3"),
    ("axiom_harness.check_a4", "wcolab.axiom_harness", "check_a4"),
    ("axiom_harness.check_a5", "wcolab.axiom_harness", "check_a5"),
    ("axiom_harness.check_a6", "wcolab.axiom_harness", "check_a6"),
    ("cli.main", "wcolab.cli", "main"),
    ("cli.parse_expression", "wcolab.cli", "parse_expression"),
)

# (span name, module, class, method) of the methods to wrap.
METHODS = (
    ("analytic_core.compose", "wcolab.analytic_core", "Compose", "__post_init__"),
    ("operators.symbols", "wcolab.operators", "WcoSymbols", "__post_init__"),
)

FAMILIES = ("hinf", "hardy", "bergman", "mixed", "growth", "bloch", "logbloch", "bmoa", "besov", "b1")


class Tracer:
    """Span store and the patches that feed it."""

    def __init__(self):
        self.spans = []
        self.op_id = None
        self.calls = collections.Counter()
        self.self_s = collections.defaultdict(float)
        self.counts = collections.Counter()
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- spans -------------------------------------------------------

    def _run(self, name, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else None
        frame = [self._next_id, 0.0]
        self._next_id += 1
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            duration = t1 - t0
            if stack:
                stack[-1][1] += duration
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]
            self.spans.append((frame[0], parent, self.op_id, name, t0, t1))

    def _plain(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._run(name, fn, args, kwargs)

        return wrapper

    def _jet(self, fn, poly_type):
        @functools.wraps(fn)
        def wrapper(expr, z, *args, **kwargs):
            name = "analytic_core.jet.poly" if type(expr) is poly_type else "analytic_core.jet.tree"
            self.counts[name + ".points"] += getattr(z, "size", 1)
            return self._run(name, fn, (expr, z) + args, kwargs)

        return wrapper

    def _norm(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            space = args[0] if args else kwargs["space"]
            return self._run("spaces.norm." + space.family, fn, args, kwargs)

        return wrapper

    def _count_zeros(self, fn, contour_zero):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return self._run("characterization.count_zeros", fn, args, kwargs)
            except contour_zero:
                self.counts["characterization.count_zeros.retries"] += 1
                raise

        return wrapper

    def _minimize(self, fn):
        # Runs of the optimizer: iterations and evaluations from its
        # result, and whether it beat its first evaluation (the start).
        @functools.wraps(fn)
        def wrapper(fun, x0, *args, **kwargs):
            first = []

            def recorded(x, *a):
                out = fun(x, *a)
                if not first:
                    first.append(out[0] if isinstance(out, tuple) else out)
                return out

            res = self._run("quadrature.polish", fn, (recorded, x0) + args, kwargs)
            self.counts["quadrature.polish.iterations"] += int(getattr(res, "nit", 0))
            self.counts["quadrature.polish.fevals"] += int(getattr(res, "nfev", 0))
            if first and float(res.fun) < float(first[0]):
                self.counts["quadrature.polish.improved"] += 1
            return res

        return wrapper

    # -- patching ----------------------------------------------------

    def _replace_everywhere(self, original, replacement, extra_modules=()):
        modules = [m for n, m in list(sys.modules.items()) if n == "wcolab" or n.startswith("wcolab.")]
        for module in modules + list(extra_modules):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))

    def install(self):
        """Wrap every traced function of the loaded package."""
        import scipy.optimize

        errors = sys.modules["wcolab.errors"]
        for name, module, attr in FUNCTIONS:
            fn = getattr(sys.modules[module], attr, None)
            if fn is not None:
                self._replace_everywhere(fn, self._plain(name, fn))
        spaces = sys.modules["wcolab.spaces"]
        self._replace_everywhere(spaces.norm, self._norm(spaces.norm))
        characterization = sys.modules["wcolab.characterization"]
        self._replace_everywhere(
            characterization.count_zeros, self._count_zeros(characterization.count_zeros, errors.ContourZero)
        )
        minimize = scipy.optimize.minimize
        self._replace_everywhere(minimize, self._minimize(minimize), extra_modules=(scipy.optimize,))

        core = sys.modules["wcolab.analytic_core"]
        self._patch_method(core.AnalyticExpr, "jet", self._jet(core.AnalyticExpr.jet, core.Poly))
        for name, module, cls_name, method in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            self._patch_method(cls, method, self._plain(name, cls.__dict__[method]))

    def _patch_method(self, cls, method, replacement):
        original = cls.__dict__[method]
        setattr(cls, method, replacement)
        self._patches.append((cls, method, original))

    def uninstall(self):
        """Put every patched name back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer counts and self times, keyed by metric name."""
        out = {}

        def calls_self(name, calls_key="calls", self_key="self_s"):
            out[f"{name}.{calls_key}"] = self.calls[name]
            out[f"{name}.{self_key}"] = self.self_s[name]

        for kind in ("poly", "tree"):
            name = f"analytic_core.jet.{kind}"
            calls_self(name)
            out[f"{name}.points"] = self.counts[f"{name}.points"]
        calls_self("analytic_core.compose", "builds", "build_s")
        calls_self("analytic_core.winding_number")
        calls_self("quadrature.refined_modulus_sup")
        runs = self.calls["quadrature.polish"]
        out["quadrature.polish.runs"] = runs
        out["quadrature.polish.iterations"] = self.counts["quadrature.polish.iterations"]
        out["quadrature.polish.fevals"] = self.counts["quadrature.polish.fevals"]
        out["quadrature.polish.improved_frac"] = self.counts["quadrature.polish.improved"] / runs if runs else 0.0
        out["quadrature.polish.self_s"] = self.self_s["quadrature.polish"]
        for fn in ("area_integral", "weighted_radial_integral", "integral_mean", "taylor_coefficients"):
            calls_self(f"quadrature.{fn}")
        for family in FAMILIES:
            calls_self(f"spaces.norm.{family}")
        calls_self("spaces.seminorm")
        for fn in ("isometry_defect", "apply", "finite_section"):
            calls_self(f"operators.{fn}")
        calls_self("operators.symbols", "builds", "build_s")
        for fn in ("check_isometry", "check_invertible", "detect_automorphism", "count_zeros",
                   "multiplier_test", "inverse_symbols"):
            calls_self(f"characterization.{fn}")
        out["characterization.count_zeros.retries"] = self.counts["characterization.count_zeros.retries"]
        calls_self("axiom_harness.run_all")
        for k in range(1, 7):
            out[f"axiom_harness.check_a{k}.self_s"] = self.self_s[f"axiom_harness.check_a{k}"]
        calls_self("cli.main")
        calls_self("cli.parse_expression")
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines: id, parent, op, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
