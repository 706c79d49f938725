"""Run configuration: a JSON document with per-verb blocks.

Top-level keys: verb, seed, out, emulator, device, circuit, source, digitize,
sweep. The emulator and device blocks take the fields of EmulatorParams and
DeviceParams; SCHEMA is the reference for every other key and drives parsing,
defaults, bounds and serialisation, and with _BLOCKS it defines RunConfig's
fields. Unknown keys are rejected; defaults are filled in so a loaded config is
fully resolved and can be echoed verbatim in the run header. A model that the
load builds to check the config is the one its verb runs: the source block's
SourceWaveform (so only a transient's load imports `circuit`), gate and map's
LogicCircuit, and an osc-check sweep's (value, device, r1) rows.
"""

from __future__ import annotations

import json
import math
import sys
from collections import namedtuple

import numpy as np

from .device import EmulatorParams, derive_device_params

VERBS = ("iv", "transient", "osc-check", "gate", "map")
MAX_ROWS = 10**8  # the most iv points, transient samples or map cells of a run
_CSV_CHUNK_ROWS = 4096  # rows (map: cells) of a CSV chunk; Trace.to_csv writes half


class ConfigError(Exception):
    pass


def _want(ok: bool, val, where: str, what: str):
    if not ok:
        raise ConfigError(f"{where} must be {what}, got {val!r}")
    return val


def _finite(val, where):
    """The one check on a real: never a bool, and 0 or of magnitude 1e-12 to
    1e12 in SI units, so that no product, quotient or sum the models form of
    config values overflows; kept as given."""
    return _want(isinstance(val, (int, float)) and not isinstance(val, bool)
                 and (val == 0 or 1e-12 <= abs(val) <= 1e12), val, where,
                 "0 or a number of magnitude 1e-12 to 1e12")


def _real(val, where):
    return float(_finite(val, where))


def _integer(val, where):
    return _want(isinstance(val, int) and not isinstance(val, bool)
                 and abs(val) <= sys.float_info.max, val, where, "an integer")


def _text(val, where):
    return _want(val is None or isinstance(val, str), val, where, "a string")


def _reals(val, where, what="a nonempty list", sizes=range(1, sys.maxsize)):
    _want(isinstance(val, list) and len(val) in sizes, val, where, what)
    return tuple(_real(x, where) for x in val)


def _steps(val, where):
    _want(isinstance(val, list), val, where, "a list")
    return tuple(_reals(p, where, "a [time, value] pair", (2,)) for p in val)


def _axis(val, where):
    lo, hi, step = _reals(val, where, "[min, max, step]", (3,))
    n = (hi - lo) / step if step > 0 and hi >= lo else math.nan
    _want(math.isfinite(n) and abs(n - round(n)) <= 1e-9 * max(1.0, n)
          and round(n) < MAX_ROWS, val, where, "[min, max, step] with step > 0, "
          f"(max - min) / step whole and at most {MAX_ROWS} points")
    return lo, hi, step


REQUIRED = object()


class Key(namedtuple("Key", ["block", "name", "verbs", "parse", "default", "bound", "field"],
                     defaults=(REQUIRED, None, ""))):
    """One config key: its block ("" is the top level), name, the verbs that
    take it, parser, default, an optional bound (">" or ">=" a limit, or "in"
    a collection) and the RunConfig field it fills ("" if named like the key)."""

    __slots__ = ()

    def value(self, val, where=""):
        where = where or ".".join(filter(None, (self.block, self.name)))
        val = self.parse(val, where)
        if self.bound:
            op, limit = self.bound
            _want(val in limit if op == "in" else val > limit if op == ">"
                  else val >= limit, val, where, f"{op} {limit}")
        return val


_TR, _OSC, _GM = ("transient",), ("osc-check",), ("gate", "map")

SCHEMA = (
    Key("", "seed", VERBS, _integer, 0, (">=", 0)),
    Key("", "out", VERBS, _text, None),
    Key("circuit", "r1", _TR + _OSC, _real, 680.0, (">=", 0)),
    Key("circuit", "dt", _TR, _real, 1e-4, (">", 0)),
    Key("circuit", "t_end", _TR, _real, 0.05, (">", 0)),
    # r_common and v0 are bounded by LogicCircuit, built and kept at load
    Key("circuit", "r_common", _GM, _real, 220.0),
    Key("circuit", "v0", _GM, _real, 1.9),
    Key("circuit", "v1", ("gate",), _real),
    Key("circuit", "v2", ("gate",), _real),
    Key("circuit", "v3", ("gate",), _real),
    Key("circuit", "duration", _GM, _real, 10e-3, (">", 0)),
    # SourceWaveform fields in order; the waveform checks its own values
    Key("source", "kind", _TR, _text, "constant"),
    Key("source", "amplitude", _TR, _real, 0.0),
    Key("source", "offset", _TR, _real, 0.0),
    Key("source", "period", _TR, _real, 0.0),
    Key("source", "steps", _TR, _steps, ()),
    Key("digitize", "threshold", _TR, _real, 2.5),
    Key("digitize", "high", _TR, _real, 5.0),
    Key("digitize", "low", _TR, _real, 0.0),
    Key("sweep", "amplitude", ("iv",), _real, 4.0, field="iv_amplitude"),
    Key("sweep", "points", ("iv",), _integer, 2001,
        ("in", range(3, MAX_ROWS + 1)), "iv_points"),
    # an osc-check sweep is optional, but param and values go together
    Key("sweep", "param", _OSC, _text, None, ("in", ("r1", "r_int")),
        "sweep_param"),
    Key("sweep", "values", _OSC, _reals, None, field="sweep_values"),
    Key("sweep", "v1", ("map",), _axis, (-1.0, 6.0, 0.1), field="v1_axis"),
    Key("sweep", "v2", ("map",), _axis, (-1.0, 6.0, 0.1), field="v2_axis"),
    Key("sweep", "v3", ("map",), _real, -1.9),
)


def _waveform(*args, **kwargs):
    from .circuit import SourceWaveform  # only a verb with a source loads circuit
    return SourceWaveform(*args, **kwargs)


# Each block, and for a block whose keys (in SCHEMA order) build one RunConfig
# field, a tuple of their values: (build it from the values, the keyword
# arguments that build it if the block is absent, or None to leave it None)
_BLOCKS = {
    "": None, "circuit": None, "sweep": None,
    "source": (_waveform, dict(kind="sawtooth", amplitude=8.0, period=0.05)),
    "digitize": (lambda *values: values, None),
}
# top-level keys besides those in SCHEMA
_TOP = ["verb", "emulator", "device", *filter(None, _BLOCKS)]

_FIELDS = list(dict.fromkeys(k.block if _BLOCKS[k.block] else k.field or k.name
                             for k in SCHEMA))
RunConfig = namedtuple("RunConfig", ["verb", "emulator", "device", *_FIELDS,
                                     "logic_circuit", "sweep_rows"],
                       defaults=[None] * (len(_FIELDS) + 2))
RunConfig.__doc__ = ("A loaded config, fields in SCHEMA order, then the LogicCircuit "
                     "and sweep rows that the load builds; those its verb does not "
                     "take are None.")


def _keys(verb: str, block: str) -> list[Key]:
    return [k for k in SCHEMA if k.block == block and verb in k.verbs]


def _check_keys(block: dict, allowed, where: str) -> None:
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")


def _block(raw: dict, name: str) -> dict:
    """The named block of `raw`; an absent or null block is empty."""
    block = {} if raw.get(name) is None else raw[name]
    return _want(isinstance(block, dict), block, name, "an object")


def _build(where: str, make, *args, **kwargs):
    """Construct a model object; its ValueError becomes a ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from e


def _params(raw: dict, name: str, base):
    """An emulator or device block: fields of `base`, values kept as given."""
    block = _block(raw, name)
    _check_keys(block, base._fields, name)
    for key, val in block.items():
        _finite(val, f"{name}.{key}")
    return _build(name, base._replace, **block)


def axis_size(spec: tuple[float, float, float]) -> int:
    lo, hi, step = spec
    return int(round((hi - lo) / step)) + 1


def axis_points(spec: tuple[float, float, float]) -> np.ndarray:
    """Realize a (min, max, step) axis spec as its float64 grid values, each
    lo + step * k."""
    lo, _, step = spec
    return lo + step * np.arange(axis_size(spec))


def _parse(document: str) -> dict:
    try:
        raw = json.loads(document)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"parse error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except (ValueError, RecursionError) as e:  # too deep, or too many digits
        raise ConfigError(f"parse error: {e}") from e
    return _want(isinstance(raw, dict), raw, "config document", "a JSON object")


def load_config(document: str) -> RunConfig:
    return load_config_dict(_parse(document))


def read_config(path: str | None, **overrides) -> RunConfig:
    """Load a config file (None: {}); non-None overrides replace its keys."""
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = _parse(fh.read())
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config file {path}: {e}") from e
    raw.update((k, v) for k, v in overrides.items() if v is not None)
    return load_config_dict(raw)


def load_config_dict(raw: dict) -> RunConfig:
    _want(isinstance(raw, dict), raw, "config document", "a JSON object")
    verb = _want(raw.get("verb") in VERBS, raw.get("verb"), "verb",
                 f"one of {VERBS}")
    emulator = _params(raw, "emulator", EmulatorParams())
    derived = _build("emulator (r_coil, r_int)", derive_device_params, emulator)
    device = _params(raw, "device", derived)

    resolved = {}
    for name, composite in _BLOCKS.items():
        keys = _keys(verb, name)
        given = _block(raw, name) if name else raw
        _check_keys(given, [k.name for k in keys] + ([] if name else _TOP),
                    f"{name or 'config'} of verb {verb!r}")
        missing = [k.name for k in keys
                   if k.default is REQUIRED and k.name not in given]
        if missing:
            raise ConfigError(f"verb {verb!r} requires {name} key(s) "
                              f"{', '.join(missing)}")
        values = {k.field or k.name: k.value(given[k.name]) if k.name in given
                  else k.default for k in keys}
        if composite is None:
            resolved.update(values)
        elif keys:
            build, absent = composite
            if raw.get(name) is not None:
                resolved[name] = _build(name, build, *values.values())
            elif absent is not None:
                resolved[name] = build(**absent)
    cfg = RunConfig(verb=verb, emulator=emulator, device=device, **resolved)

    # checks across keys that no model constructor makes
    if verb == "transient":
        _want(cfg.dt <= cfg.t_end, cfg.dt, "circuit.dt", f"<= t_end={cfg.t_end}")
        _want(round(cfg.t_end / cfg.dt) < MAX_ROWS, cfg.t_end, "circuit.t_end",
              f"at most {MAX_ROWS} samples of dt={cfg.dt}")
    if verb == "map":
        cells = axis_size(cfg.v1_axis) * axis_size(cfg.v2_axis)
        _want(cells <= MAX_ROWS, cells, "sweep.v1 x sweep.v2",
              f"at most {MAX_ROWS} cells")
    if verb in _GM:
        from .logic import LogicCircuit  # only gate and map load the logic model
        cfg = cfg._replace(logic_circuit=_build(
            "circuit (r_common, v0)", LogicCircuit, m1=device, m2=device,
            r_common=cfg.r_common, v_hold_level=cfg.v0))
        _want(cfg.duration >= 10.0 * device.t_actuate, cfg.duration,
              "circuit.duration", f">= 10 * device.t_actuate={device.t_actuate}")
    _want((cfg.sweep_param is None) == (cfg.sweep_values is None),
          cfg.sweep_param, "sweep.param", "given together with sweep.values")
    if cfg.sweep_param == "r_int":
        # the sweep derives the device from the emulator at each r_int; its
        # printed values never read t_actuate or jitter_sigma
        for key, val in _block(raw, "device").items():
            _want(key in ("t_actuate", "jitter_sigma")
                  or val == getattr(derived, key), val, f"device.{key}",
                  f"left at its derived value {getattr(derived, key)!r} "
                  "when sweep.param is 'r_int'")
    # each swept value must pass the check of the key it stands in for, which
    # builds the (value, device, r1) row that osc-check runs
    r1 = next(k for k in SCHEMA if k.name == "r1")
    rows = tuple((val, device, r1.value(val, "sweep.values"))
                 if cfg.sweep_param == "r1" else
                 (val, _build("sweep.values", lambda: derive_device_params(
                     emulator._replace(r_int=val))), cfg.r1)
                 for val in cfg.sweep_values or ())
    return cfg._replace(sweep_rows=rows or None)


def serialize(cfg: RunConfig) -> str:
    """Resolved config back to its JSON document form (load round-trips)."""
    doc: dict = {"verb": cfg.verb, "emulator": cfg.emulator._asdict(),
                 "device": cfg.device._asdict()}
    for name, composite in _BLOCKS.items():
        keys = _keys(cfg.verb, name)
        if composite is None:
            values = [getattr(cfg, k.field or k.name) for k in keys]
        else:
            value = getattr(cfg, name) if keys else None
            values = () if value is None else tuple(value)
        part = {k.name: v for k, v in zip(keys, values) if v is not None}
        if part:
            doc.update({name: part} if name else part)
    return json.dumps(doc, indent=2, sort_keys=True)


def header_lines(cfg: RunConfig) -> list[str]:
    """Resolved-config echo for CSV comments.

    The output path is omitted so that identical runs aimed at different
    files stay byte-identical.
    """
    echo = serialize(cfg._replace(out=None))
    return ["resolved config:"] + [line.rstrip() for line in echo.splitlines()]
