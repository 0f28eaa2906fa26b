"""Numerical classification of positive measures into L^p Kato and Dynkin
classes for symmetric Markov processes with two-sided heat kernel estimates.

The names of `kernelcheck`, `montecarlo` and `rearrangement`, which
classify never runs, are resolved on first access: `import katolab` loads
none of these modules."""
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .classification import (ClassificationReport, ClassifyConfig, LimitFit,
                             classify_limit, classify_measure, estimate_eta,
                             fit_order_delta, threshold_p_star)
from .config import RunConfig, parse_config_text, parse_profile
from .errors import (ConfigError, DomainError, InsufficientDataError,
                     KatolabError, ValidationError)
from .functionals import (CenterStrategy, kato_functional,
                          resolvent_functional, semigroup_functional,
                          sup_over_centers)
from .kernels import (GaussianKernelModel, ScalingKernelModel,
                      StableEstimateModel, StretchedExponentialModel,
                      make_kernel_model, relativistic_psi,
                      stable_jump_constant, synthetic_scaling_model)
from .measures import (AhlforsAbstract, Density, FunctionalEstimate, Lebesgue,
                       MeasureRep, PointMasses, RadialDensity, SphereSurface,
                       integrate_global, integrate_over_ball, lebesgue,
                       make_measure)
from .profiles import GreenKernelSpec, RadialProfile, log_profile, power_profile
from .quadrature import integrate_outward, integrate_to_zero
from .space import SpaceModel, sphere_surface_area, unit_ball_volume

__version__ = "0.1.0"

#: module -> the public names it gives on first access
_LAZY = {"kernelcheck": ("eval_heat_kernel", "kernel_invariant_suite"),
         "montecarlo": ("PathConfig", "expected_additive_functional",
                        "quadrature_additive_functional"),
         "rearrangement": ("DistributionFunction", "layer_cake_criterion",
                           "radial_criterion", "right_continuous_inverse")}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}

#: every public name imported above, and the lazy ones
__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, _ModuleType)]
                 + list(_LAZY_NAMES))


def __getattr__(name: str):
    if name in _LAZY:
        return _import_module(f".{name}", __name__)
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        _import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_NAMES))
