"""Every name that perfbench/tracer.py wraps still exists in the package.

The tracer skips a name it cannot find without a word, so a renamed
function would only show as a per-layer metric stuck at 0.  The names
listed in KNOWN_MISSING were deleted from the package while the tracer
still names them; any other missing name fails here.
"""

import importlib

import pytest

from conftest import perfbench_module

tracer = perfbench_module("tracer")

KNOWN_MISSING = {
    ("wcolab.quadrature", "area_integral"),
    ("wcolab.quadrature", "integral_mean"),
    ("wcolab.quadrature", "taylor_coefficients"),
}

# (module, attribute) of the plain functions; the tracer also wraps these
# three outside its tables.
FUNCTIONS = [(module, attr) for _, module, attr in tracer.FUNCTIONS] + [
    ("wcolab.spaces", "norm"),
    ("wcolab.characterization", "count_zeros"),
]
# (module, class, method); a method is patched in its class's own namespace.
METHODS = [(module, cls, method) for _, module, cls, method in tracer.METHODS] + [
    ("wcolab.analytic_core", "AnalyticExpr", "jet"),
]


@pytest.mark.parametrize(
    "module,attr", [p for p in FUNCTIONS if p not in KNOWN_MISSING], ids=lambda v: v
)
def test_function_patch_point_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr} is gone"


@pytest.mark.parametrize("module,cls,method", METHODS, ids=lambda v: v)
def test_method_patch_point_resolves(module, cls, method):
    owner = getattr(importlib.import_module(module), cls)
    assert callable(vars(owner).get(method)), f"{module}.{cls}.{method} is not defined on the class"
