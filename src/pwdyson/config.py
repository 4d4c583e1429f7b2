"""Experiment configuration: JSON schema and the shipped reference models."""

import json
from dataclasses import dataclass, field, fields
from importlib import resources

import numpy as np

from .errors import ConfigurationError
from .groundstate import GaussianWell, ModelSpec
from .pwbasis import Lattice


@dataclass(frozen=True)
class ScfParams:
    tol: float = 1e-10
    max_iter: int = 200
    mixing: str = "kerker"
    kerker_alpha: float = 0.8
    damping: float = 0.8


@dataclass(frozen=True)
class Perturbation:
    gaussian: int = 0
    direction: tuple = (1.0, 0.0, 0.0)


@dataclass(frozen=True)
class ResponseParams:
    strategy: str = "pbal"
    tau: float = 1e-9
    m: int = 10
    kerker_alpha: float = 0.8      # read by verify's Kerker lemma only
    perturbation: Perturbation = field(default_factory=Perturbation)
    true_residual_every: int = 0
    seed: int = 0


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    scf: ScfParams = field(default_factory=ScfParams)
    response: ResponseParams = field(default_factory=ResponseParams)
    output_dir: str = None
    archive: str = None


# JSON values a field of each annotated type accepts, and how to name them
_JSON_TYPES = {float: ((int, float), "a finite number"), int: (int, "an integer"),
               bool: (bool, "true or false"), str: (str, "a string")}


def _known_keys(d: dict, cls, where: str) -> dict:
    """Return `d`; raise if it is no JSON object or a key names no field of `cls`.

    A value for a field annotated float, int, bool or str must be a JSON
    value of that type (a finite number, an integer, true/false, a string;
    null where the field defaults to None): the JSON reader also takes
    Infinity and NaN, which no field accepts.
    """
    if not isinstance(d, dict):
        raise ConfigurationError(f"{where} must be a JSON object, got {d!r}")
    known = {f.name: f for f in fields(cls)}
    for key, value in d.items():
        if key not in known:
            raise ConfigurationError(f"unknown config key {key!r} in {where}")
        kind = known[key].type
        if kind not in _JSON_TYPES or (value is None and known[key].default is None):
            continue
        accepted, name = _JSON_TYPES[kind]
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
            raise ConfigurationError(f"config key {key!r} in {where} must be {name}, "
                                     f"got {value!r}")
        if kind is float:
            _finite_numbers(value, key, where, shape=())
    return d


def _finite_numbers(value, key: str, where: str, shape=(3,)) -> np.ndarray:
    """`value` as a float array of `shape`; raise naming `key` unless it holds that many
    finite numbers (not NaN, +-Infinity or an integer too large for a double)."""
    try:
        array = np.asarray(value, dtype=float)
        if array.shape == shape and np.all(np.isfinite(array)):
            return array
    except (TypeError, ValueError, OverflowError):
        pass
    what = {(): "a finite number", (3,): "three finite numbers"}.get(
        shape, "three rows of three finite numbers")
    raise ConfigurationError(f"config key {key!r} in {where} must be {what}, got {value!r}")


def model_from_dict(d: dict) -> ModelSpec:
    _known_keys(d, ModelSpec, "model")
    if "lattice" in d:
        _finite_numbers(d["lattice"], "lattice", "model", shape=(3, 3))
    for g in d.get("gaussians", []):
        _known_keys(g, GaussianWell, "a gaussian")
        if "center" in g:
            _finite_numbers(g["center"], "center", "a gaussian")
    try:
        lattice = Lattice.from_vectors(*d["lattice"])
        gaussians = tuple(
            GaussianWell(center=tuple(g["center"]), amplitude=float(g["amplitude"]),
                         width=float(g["width"]))
            for g in d.get("gaussians", [])
        )
        return ModelSpec(
            lattice=lattice,
            e_cut=float(d["e_cut"]),
            n_electrons=int(d["n_electrons"]),
            temperature=float(d["temperature"]),
            smearing=d.get("smearing", "fermi_dirac"),
            occupation_threshold=float(d.get("occupation_threshold", 1e-8)),
            xc=d.get("xc", "none"),
            gaussians=gaussians,
        )
    except KeyError as missing:
        raise ConfigurationError(f"model config misses required key {missing}") from None


def model_to_dict(model: ModelSpec) -> dict:
    return {
        "lattice": model.lattice.a.tolist(),
        "e_cut": model.e_cut,
        "n_electrons": model.n_electrons,
        "temperature": model.temperature,
        "smearing": model.smearing,
        "occupation_threshold": model.occupation_threshold,
        "xc": model.xc,
        "gaussians": [
            {"center": list(g.center), "amplitude": g.amplitude, "width": g.width}
            for g in model.gaussians
        ],
    }


def config_from_dict(d: dict) -> ExperimentConfig:
    """The config a JSON dict describes; malformed input raises ConfigurationError."""
    _known_keys(d, ExperimentConfig, "the config")
    if "model" not in d:
        raise ConfigurationError("config misses required key 'model'")
    scf = ScfParams(**_known_keys(d.get("scf", {}), ScfParams, "scf"))
    resp = dict(_known_keys(d.get("response", {}), ResponseParams, "response"))
    for key in ("true_residual_every", "seed"):
        if resp.get(key, 0) < 0:
            raise ConfigurationError(f"config key {key!r} in response must be a non-negative "
                                     f"integer, got {resp[key]!r}")
    pert = Perturbation(**_known_keys(resp.pop("perturbation", {}), Perturbation, "perturbation"))
    direction = _finite_numbers(pert.direction, "direction", "perturbation")
    if not np.linalg.norm(direction) > 0:
        raise ConfigurationError("perturbation direction must be a nonzero 3-vector")
    response = ResponseParams(perturbation=Perturbation(
        gaussian=pert.gaussian, direction=tuple(direction)), **resp)
    return ExperimentConfig(
        model=model_from_dict(d["model"]),
        scf=scf,
        response=response,
        output_dir=d.get("output_dir"),
        archive=d.get("archive"),
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except ValueError as err:           # also an integer of more digits than Python reads
            raise ConfigurationError(f"{path}: not valid JSON ({err})") from None
    return config_from_dict(raw)


def reference_config(name: str) -> ExperimentConfig:
    """One of the shipped toy configs: 'toy_metal' or 'toy_insulator'."""
    ref = resources.files("pwdyson") / "configs" / f"{name}.json"
    if not ref.is_file():
        raise ConfigurationError(f"no shipped config named {name!r}")
    return config_from_dict(json.loads(ref.read_text()))
