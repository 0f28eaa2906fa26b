"""Flat dotted key-value run configuration.

Format: one `section.key = value` per line, `#` comments, blank lines
ignored.  Example:

    kernel.family = gaussian
    kernel.dim = 3
    measure.kind = lebesgue
    measure.dim = 3
    sweep.p = 1, 2, 3, 3.5
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .classification import ClassifyConfig
from .errors import ConfigError
from .functionals import CenterStrategy
from .kernels import ScalingKernelModel, make_kernel_model
from .measures import MeasureRep, make_measure
from .profiles import RadialProfile, constant_profile, exp_profile, log_profile, power_profile


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got "
                              f"{raw.strip()!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if not key or "." not in key:
            raise ConfigError(f"line {lineno}: keys must be dotted "
                              f"(section.name), got {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = val
    return out


SECTIONS = ("kernel", "measure", "sweep")
SWEEP_KEYS = ("p", "seed", "grid_depth", "centers_explicit", "centers_support",
              "centers_random", "center_window")


def _number(text: str, key: str, kind: type):
    """kind(text), finite, or a ConfigError naming the key."""
    try:
        value = kind(text)
    except ValueError:
        raise ConfigError(f"{key}: {text.strip()!r} is not "
                          f"{'an integer' if kind is int else 'a number'}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: {text.strip()!r} is not finite")
    return value


def _floats(text: str, key: str) -> list[float]:
    return [_number(tok, key, float) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _atoms(text: str, key: str) -> list[tuple]:
    atoms = []
    for tok in filter(None, (t.strip() for t in text.split(";"))):
        if ":" not in tok:
            raise ConfigError(f"atom {tok!r} must be 'x,y,...:weight'")
        pt, w = tok.rsplit(":", 1)
        atoms.append((_floats(pt, key), _number(w, key, float)))
    return atoms


PROFILES = {"power": power_profile, "log": log_profile, "exp": exp_profile,
            "const": constant_profile}


def parse_profile(text: str, key: str = "profile") -> RadialProfile:
    """Parse 'power:<a>[:<c>]', 'log[:<c>]', 'exp:<rate>[:<c>]', 'const:<v>'."""
    kind, *args = text.split(":")
    if kind not in PROFILES:
        raise ConfigError(f"{key}: unknown profile kind {kind!r}")
    try:
        return PROFILES[kind](*(_number(a, key, float) for a in args))
    except TypeError:
        raise ConfigError(f"{key}: {text!r} has the wrong number of arguments") from None


#: reader(text, key) of each kernel and measure key from_dict knows; any
#: other key reaches make_kernel_model or make_measure as text, which names it
READERS = {"dim": partial(_number, kind=int),
           "profile": parse_profile, "phi_lower": parse_profile, "phi_upper": parse_profile,
           "atoms": _atoms, "origin": _floats, "center": _floats,
           **dict.fromkeys(("m", "alpha", "nu", "beta", "t0", "d_f", "d_w", "d_J", "c1", "c2",
                            "c3", "c4", "support_radius", "radius", "total_mass", "eta",
                            "c_lower", "c_upper", "r0"), partial(_number, kind=float))}


@dataclass
class RunConfig:
    model: ScalingKernelModel
    measure: MeasureRep
    p_list: list[float]
    classify: ClassifyConfig

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(parse_config_text(fh.read()))

    @classmethod
    def from_dict(cls, kv: dict[str, str]) -> "RunConfig":
        sections: dict[str, dict[str, str]] = {}
        for key, val in kv.items():
            sect, name = key.split(".", 1)
            if sect not in SECTIONS or sect == "sweep" and name not in SWEEP_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            sections.setdefault(sect, {})[name] = val

        def read(sect):  # each key READERS knows through its reader; any other stays text
            return {name: READERS[name](text, f"{sect}.{name}") if name in READERS else text
                    for name, text in sections.get(sect, {}).items()}
        kernel, meas = read("kernel"), read("measure")
        try:
            model = make_kernel_model(kernel.pop("family", "gaussian"), **kernel)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad kernel block: {exc}") from exc

        meas.setdefault("dim", model.space.ambient_dim)
        try:
            measure = make_measure(meas.pop("kind", "lebesgue"), **meas)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad measure block: {exc}") from exc
        if measure.dim != model.space.ambient_dim:
            raise ConfigError(f"measure dimension {measure.dim} differs from the "
                              f"kernel's {model.space.ambient_dim}")

        sweep = sections.get("sweep", {})
        p_list = _floats(sweep.get("p", "1"), "sweep.p")
        if any(p < 1 for p in p_list):
            raise ConfigError("sweep.p entries must be >= 1")
        get = lambda key, default, kind: _number(sweep.get(key, default), f"sweep.{key}", kind)
        def size(key, default, kind):  # a center count, the window or the seed: not below 0
            if (value := get(key, default, kind)) < 0:
                raise ConfigError(f"sweep.{key}: {sweep[key].strip()!r} is negative")
            return value
        seed, depth = size("seed", "7", int), get("grid_depth", "11", int)
        centers = CenterStrategy(
            explicit=[_floats(tok, "sweep.centers_explicit") for tok in
                      sweep.get("centers_explicit", "").split(";") if tok.strip()],
            n_support=size("centers_support", "4", int),
            n_random=size("centers_random", "4", int),
            window=size("center_window", "2.0", float),
            seed=seed)
        classify = ClassifyConfig(
            r_grid=2.0 ** -np.arange(2, depth + 1, dtype=float),
            centers=centers,
            seed=seed)
        return cls(model=model, measure=measure, p_list=p_list, classify=classify)
