"""The public options: the parameters that run only at a fixed value stay
removed, and scripts/public_options.py lists what can still be set and
each module's public names.

Each removed option is now the constant its default was, so passing it is a
TypeError at the call instead of a value the op silently accepts.
"""

import dataclasses
import importlib.util
import os

import pytest

from symloc import analysis, critical, integrate, reduced

_SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "public_options.py")


def _load_script():
    spec = importlib.util.spec_from_file_location("public_options", _SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_REMOVED = [
    (integrate.BasicIntegralRequest, "alpha_label"),
    (integrate.QuadratureScheme, "workers"),
    (integrate.QuadratureScheme, "chunk"),
    (integrate.check_regular_radius, "margin"),
    (integrate.check_alpha, "n_samples"),
    (integrate.check_alpha, "seed"),
    (integrate.check_alpha, "tol"),
    (analysis.fit_poly_plus_tail, "fit_tol"),
    (analysis.epsilon_sweep, "fit_tol"),
    (analysis.epsilon_sweep, "alpha_label"),
    (analysis.contribution, "alpha_label"),
    (analysis.damping_check, "slack"),
    (analysis.global_convergence_check, "growth_constant"),
    (critical.find_critical_points, "n_seeds"),
    (critical.find_critical_points, "seed"),
    (critical.find_critical_points, "cluster_radius"),
    (critical.find_critical_points, "max_representatives"),
    (critical.critical_values, "min_gap"),
    (critical.local_model_check, "n_samples"),
    (critical.local_model_check, "seed"),
    (critical.local_model_check, "tol"),
    (critical.local_model_check, "local_radius"),
    (reduced.ZeroLevelData.to_json_dict, "include_mesh"),
]


@pytest.mark.parametrize(
    "op, name", _REMOVED, ids=[f"{op.__qualname__}-{name}" for op, name in _REMOVED]
)
def test_removed_option_is_refused_at_the_call(op, name):
    # the keyword is refused while the arguments are bound, before the body
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        op(**{name: 1})


def test_quadrature_scheme_has_the_five_accuracy_fields():
    assert [f.name for f in dataclasses.fields(integrate.QuadratureScheme)] == [
        "rel_tol", "abs_tol", "base_radial", "base_angular", "max_level",
    ]
    assert set(integrate.QuadratureScheme().to_json_dict()) == {
        "rel_tol", "abs_tol", "base_radial", "base_angular", "max_level",
    }


def test_options_lists_defaults_of_public_functions_methods_and_fields():
    src = '''
from dataclasses import dataclass

def op(a, b=2, *, c, d=None):
    pass

class Thing:
    def __init__(self, x, y=1.5):
        pass

    def run(self, n: int = 3):
        pass

@dataclass(frozen=True)
class Record:
    a: int
    b: float = 0.5
'''
    assert _load_script().options({"mod": src}) == [
        "mod:Record b=0.5",
        "mod:Thing.__init__ y=1.5",
        "mod:Thing.run n=3",
        "mod:op b=2",
        "mod:op d=None",
    ]


def test_options_skips_private_nested_and_plain_class_attributes():
    src = '''
def _helper(a=1):
    pass

def op(a):
    def inner(b=2):
        pass

class _Private:
    def run(self, n=3):
        pass

class Plain:
    limit: int = 4

    def _step(self, h=1e-5):
        pass
'''
    assert _load_script().options({"mod": src}) == []


def test_options_lists_each_name_in_all():
    src = '''
__all__ = ["op", "Thing"]

def op(a, b=2):
    pass

class Thing:
    pass

def helper(c=3):
    pass
'''
    assert _load_script().options({"mod": src}) == [
        "mod:__all__ Thing",
        "mod:__all__ op",
        "mod:helper c=3",
        "mod:op b=2",
    ]


def test_test_only_lists_each_name_in_all_that_no_caller_uses():
    mod = '''
"""lonely is only named in this docstring."""

__all__ = ["op", "Thing", "lonely", "CONST"]

CONST = 3

def op(a):
    return Thing()

class Thing:
    pass

def lonely():
    pass
'''
    script = _load_script()
    callers = [mod, "from mod import CONST\nprint(CONST)\n"]
    # op is used as an attribute, Thing and CONST as names; a definition
    # and a string are no use
    assert script.test_only({"mod": mod}, callers + ["import mod\nmod.op(1)\n"]) == [
        "mod:lonely"]
    assert script.test_only({"mod": mod}, callers) == ["mod:lonely", "mod:op"]


def test_checkout_names_without_a_caller_are_the_four_integration_primitives():
    script = _load_script()
    assert script.test_only(script._checkout_sources(), script._caller_sources()) == [
        "integrate:boundary_integral",
        "integrate:integrate_over_Mr",
        "integrate:phi_reduced_integrand",
        "liealg:shifted_gaussian_integral",
    ]


def test_reduced_exports_only_the_kirwan_side():
    assert reduced.__all__ == ["ZeroLevelData", "KirwanResult", "zero_level", "kirwan_integral"]


def test_checkout_keeps_the_shared_accuracy_inputs():
    script = _load_script()
    listed = set(script.options(script._checkout_sources()))
    assert {
        "integrate:BasicIntegralRequest quadrature=QuadratureScheme()",
        "integrate:basic_integral_batch quadrature=None",
        "analysis:epsilon_sweep quadrature=None",
        "analysis:epsilon_sweep t_grid=None",
        "analysis:damping_check epsilon_grid=None",
        "reduced:zero_level mesh_density=32",
    } <= listed
    removed = [f"{op.__module__.rsplit('.', 1)[-1]}:{op.__qualname__} {name}="
               for op, name in _REMOVED]
    assert not [line for line in listed if line.startswith(tuple(removed))]
