"""Config schema: the resolved-config header, the 0/2/3 exit contract on bad
input, and a fuzz of config documents through the CLI."""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from voltmem.cli import main
from voltmem.config import (MAX_ROWS, VERBS, ConfigError, load_config,
                            load_config_dict, serialize)


def run_cli(verb, document, tmp):
    """main() on `document` (JSON text): (exit code, stdout, stderr)."""
    path = os.path.join(tmp, "cfg.json")
    with open(path, "w") as fh:
        fh.write(document)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([verb, "--config", path])
    return code, out.getvalue(), err.getvalue()


EMULATOR = {"l_coil": 0.17, "r_coil": 600.0, "r_int": 680.0,
            "v_drop_out": 1.6, "v_pull_in": 2.2}
DEVICE = {"jitter_sigma": 0.0, "r_off": 600.0, "r_on": 318.75,
          "t_actuate": 0.0005, "v_hold_neg": -1.6, "v_hold_pos": 1.6,
          "v_th_neg": -2.2, "v_th_pos": 2.2}
BASE = {"device": DEVICE, "emulator": EMULATOR, "seed": 0}
SAWTOOTH = {"amplitude": 8.0, "kind": "sawtooth", "offset": 0.0,
            "period": 0.05, "steps": []}
CONSTANT = {"amplitude": 0.0, "kind": "constant", "offset": 0.0,
            "period": 0.0, "steps": []}
CIRCUIT = {"dt": 0.0001, "r1": 680.0, "t_end": 0.05}


@pytest.mark.parametrize("verb, doc, resolved", [
    # emulator values are echoed as given: 220 stays an integer
    ("iv", {"emulator": {"r_int": 220}, "sweep": {"points": 11}},
     dict(BASE, verb="iv", emulator=dict(EMULATOR, r_int=220),
          device=dict(DEVICE, r_on=160.97560975609755),
          sweep={"amplitude": 4.0, "points": 11})),
    # no source block: the 0-8 V sawtooth; no digitize block: none
    ("transient", {}, dict(BASE, verb="transient", circuit=CIRCUIT,
                           source=SAWTOOTH)),
    # empty source and digitize blocks: their key defaults
    ("transient", {"source": {}, "digitize": {}, "circuit": {"r1": 0}},
     dict(BASE, verb="transient", circuit=dict(CIRCUIT, r1=0.0),
          source=CONSTANT,
          digitize={"high": 5.0, "low": 0.0, "threshold": 2.5})),
    # an empty osc-check sweep counts as no sweep
    ("osc-check", {"sweep": {}},
     dict(BASE, verb="osc-check", circuit={"r1": 680.0})),
    ("osc-check", {"sweep": {"param": "r1", "values": [0, 680]}},
     dict(BASE, verb="osc-check", circuit={"r1": 680.0},
          sweep={"param": "r1", "values": [0.0, 680.0]})),
    ("gate", {"circuit": {"v1": 1, "v2": 5, "v3": -1.9}},
     dict(BASE, verb="gate", circuit={"duration": 0.01, "r_common": 220.0,
                                      "v0": 1.9, "v1": 1.0, "v2": 5.0,
                                      "v3": -1.9})),
    ("map", {"sweep": {"v1": [0, 2, 1], "v2": [0, 2, 1]}},
     dict(BASE, verb="map",
          circuit={"duration": 0.01, "r_common": 220.0, "v0": 1.9},
          sweep={"v1": [0.0, 2.0, 1.0], "v2": [0.0, 2.0, 1.0], "v3": -1.9})),
])
def test_resolved_config_header(tmp_path, verb, doc, resolved):
    code, out, _ = run_cli(verb, json.dumps(doc), str(tmp_path))
    assert code == 0
    header = [line for line in out.splitlines() if line.startswith("# ")]
    echo = json.dumps(resolved, indent=2, sort_keys=True).splitlines()
    assert header[:len(echo) + 1] == ["# resolved config:"] + [
        f"# {line}".rstrip() for line in echo]


@pytest.mark.parametrize("verb, document, code, key", [
    ("transient", '{"circuit": {"dt": NaN}}', 2, "circuit.dt"),
    ("transient", '{"circuit": {"t_end": Infinity}}', 2, "circuit.t_end"),
    ("transient", '{"circuit": {"dt": 1e-4, "t_end": 5e-5}}', 2, "circuit.dt"),
    ("transient", '{"circuit": {"r1": -5}}', 2, "circuit.r1"),
    ("map", '{"circuit": {"r_common": -5}}', 2, "r_common"),
    ("gate", '{"circuit": {"r_common": -5, "v1": 1, "v2": 1, "v3": 0}}', 2,
     "r_common"),
    ("gate", '{"circuit": {"v0": 3.0, "v1": 1, "v2": 1, "v3": 0}}', 2, "v0"),
    ("map", '{"circuit": {"v0": 1.0}}', 2, "v0"),
    ("gate", '{"circuit": {"duration": 1e-6, "v1": 1, "v2": 1, "v3": 0}}', 2,
     "circuit.duration"),
    ("transient", '{"source": {"kind": "sawtooth", "period": NaN}}', 2,
     "source.period"),
    ("iv", '[1]', 2, "config document"),
    ("osc-check", '{"circuit": {"r1": -5}}', 2, "circuit.r1"),
    ("gate", '{"circuit": {"v1": NaN, "v2": 1, "v3": 0}}', 2, "circuit.v1"),
    ("iv", '{"device": {"t_actuate": NaN}}', 2, "device.t_actuate"),
    ("iv", '{"emulator": {"r_int": true}}', 2, "emulator.r_int"),
    ("iv", '{"emulator": {"r_coil": "x"}}', 2, "emulator.r_coil"),
    ("iv", '{"seed": -1}', 2, "seed"),
    ("transient", '{"source": []}', 2, "source"),
    # a grid axis must end on its max, not run past it
    ("map", '{"sweep": {"v1": [0, 1, 0.6]}}', 2, "sweep.v1"),
    ("map", '{"sweep": {"v2": [0, 1, 0.6]}}', 2, "sweep.v2"),
    # swept values get the bound of the key they stand in for
    ("osc-check", '{"sweep": {"param": "r_int", "values": [-5]}}', 2,
     "sweep.values"),
    ("osc-check", '{"sweep": {"param": "r1", "values": [-5000]}}', 2,
     "sweep.values"),
    ("osc-check", '{"sweep": {"param": "r1"}}', 2, "sweep.values"),
    ("transient", '{"circuit": {"dt": 1e-3, "t_end": 0.05}}', 3, "dt="),
    # an r_int sweep derives the device at each value: no device overrides
    ("osc-check", '{"device": {"v_th_pos": 3.0}, '
     '"sweep": {"param": "r_int", "values": [680]}}', 2, "device.v_th_pos"),
    # every nonzero real is of magnitude 1e-12 to 1e12, so no product,
    # quotient or sum that a model forms of config values overflows
    ("transient", '{"device": {"t_actuate": 0}, '
     '"circuit": {"dt": 1e-300, "t_end": 1e300}}', 2, "circuit.dt"),
    ("transient", '{"source": {"kind": "sawtooth", "offset": 1e308, '
     '"amplitude": 1e308, "period": 0.05}}', 2, "source.amplitude"),
    ("transient", '{"device": {"r_on": 5e-324, "r_off": 1e-323}, '
     '"circuit": {"r1": 0}, "source": {"kind": "constant", "offset": 1e300}}',
     2, "device.r_on"),
    ("iv", '{"device": {"r_on": 5e-324, "r_off": 1e-323}}', 2, "device.r_on"),
    ("osc-check", '{"device": {"r_on": 1e-300, "r_off": 1e-299}, '
     '"circuit": {"r1": 1e308}}', 2, "device.r_on"),
    ("osc-check", '{"device": {"r_on": 1e-300, "r_off": 1e-299}, '
     '"sweep": {"param": "r1", "values": [1, 1e308]}}', 2, "device.r_on"),
    # each key that a check of a product or quotient used to blame
    ("osc-check", '{"circuit": {"r1": 1e308}}', 2, "circuit.r1"),
    ("osc-check", '{"sweep": {"param": "r1", "values": [1, 1e308]}}', 2,
     "sweep.values"),
    ("iv", '{"sweep": {"amplitude": 1e13}}', 2, "sweep.amplitude"),
    # denormal resistances that gate and map used to relax on NaN voltages
    ("gate", '{"device": {"r_on": 5e-324, "r_off": 1e-323}, '
     '"circuit": {"v1": 3, "v2": 1, "v3": -1.9}}', 2, "device.r_on"),
    ("map", '{"circuit": {"r_common": 1e-300}}', 2, "circuit.r_common"),
    # in-range emulator values whose derived device is invalid (r_on rounds
    # up to r_off) blame the emulator, not a device block never given
    ("osc-check", '{"emulator": {"r_coil": 1e-5, "r_int": 1e12}}', 2,
     "emulator (r_coil, r_int)"),
    # no verb computes more than MAX_ROWS rows: each axis, the map's cells,
    # iv points and transient samples
    ("map", '{"sweep": {"v1": [0, 1e12, 1e-12]}}', 2, "sweep.v1"),
    ("map", '{"sweep": {"v2": [0, 1e12, 1e-12]}}', 2, "sweep.v2"),
    ("map", '{"sweep": {"v1": [0, 1e4, 1], "v2": [0, 1e4, 1]}}', 2,
     "sweep.v1 x sweep.v2"),
    ("iv", '{"sweep": {"points": 100000000000000000000}}', 2, "sweep.points"),
    ("transient", '{"circuit": {"dt": 1e-12, "t_end": 1e12}}', 2,
     "circuit.t_end"),
])
def test_bad_input_exit_code_names_key(tmp_path, verb, document, code, key):
    got, _, err = run_cli(verb, document, str(tmp_path))
    assert got == code
    assert key in err
    assert "Traceback" not in err


# one key of each block, with a document that loads around it, and the values
# of the range that the key's own bound allows
RANGE_KEYS = [
    ("iv", {}, "emulator", "l_coil", [1e-12, 1e12]),
    ("iv", {}, "device", "jitter_sigma", [0, 1e-12, 1e12]),
    ("gate", {"circuit": {"v2": 1, "v3": 0}}, "circuit", "v1",
     [0, 1e-12, -1e-12, 1e12, -1e12]),
    ("transient", {}, "source", "offset", [0, 1e-12, -1e-12, 1e12, -1e12]),
    ("transient", {}, "digitize", "threshold",
     [0, 1e-12, -1e-12, 1e12, -1e12]),
    ("iv", {}, "sweep", "amplitude", [0, 1e-12, -1e-12, 1e12, -1e12]),
]


def _with(doc, block, key, val):
    return dict(doc, **{block: dict(doc.get(block, {}), **{key: val})})


@pytest.mark.parametrize("verb, doc, block, key, vals", RANGE_KEYS)
def test_range_bounds_load(verb, doc, block, key, vals):
    for val in vals:
        cfg = load_config_dict(dict(_with(doc, block, key, val), verb=verb))
        assert json.loads(serialize(cfg))[block][key] == val


@pytest.mark.parametrize("val", [9.99e-13, -9.99e-13, 1.01e12, -1.01e12])
@pytest.mark.parametrize("verb, doc, block, key", [k[:4] for k in RANGE_KEYS])
def test_out_of_range_exits_2(tmp_path, verb, doc, block, key, val):
    got, _, err = run_cli(verb, json.dumps(_with(doc, block, key, val)),
                          str(tmp_path))
    assert got == 2 and "Traceback" not in err
    assert err == (f"config error: {block}.{key} must be 0 or a number of "
                   f"magnitude 1e-12 to 1e12, got {val!r}\n")


@pytest.mark.parametrize("verb, doc", [
    ("transient", {"device": {"t_actuate": 0},
                   "circuit": {"dt": 1e-12, "t_end": 1e-12}}),
    ("map", {"sweep": {"v1": [0, 1e12, 5e11], "v2": [0, 1e12, 5e11]}}),
])
def test_range_bounds_run(tmp_path, verb, doc):
    # the smallest step and the largest axis entries run to finite outputs
    got, out, err = run_cli(verb, json.dumps(doc), str(tmp_path))
    assert (got, err) == (0, "")
    assert "nan" not in out and "inf" not in out


@pytest.mark.parametrize("verb, doc, over", [
    ("iv", {"sweep": {"points": MAX_ROWS}}, ("sweep", "points", MAX_ROWS + 1)),
    # round(t_end / dt) + 1 samples
    ("transient", {"device": {"t_actuate": 0},
                   "circuit": {"dt": 1e-8, "t_end": 0.99999999}},
     ("circuit", "t_end", 1.0)),
    ("map", {"sweep": {"v1": [0, MAX_ROWS - 1, 1], "v2": [0, 0, 1]}},
     ("sweep", "v2", [0, 1, 1])),
])
def test_row_limit_is_inclusive(verb, doc, over):
    load_config_dict(dict(doc, verb=verb))
    block, key, val = over
    with pytest.raises(ConfigError, match=f"{block}.{key}"):
        load_config_dict(dict(_with(doc, block, key, val), verb=verb))


def test_integers_keep_their_own_check():
    # a seed is not a real: a 64-bit seed loads
    cfg = load_config_dict({"verb": "iv", "seed": 2 ** 63 - 1})
    assert cfg.seed == 2 ** 63 - 1


# GOOD holds values of the right shape for each key, mostly valid and small
# so that every run that loads stays cheap. BAD holds non-finite, wrongly
# typed, negative and out-of-range values. Blocks hold keys of every verb, so
# keys given to the wrong verb are fuzzed too.
BAD = [math.nan, math.inf, -math.inf, True, "x", None, -5, 0, [], {},
       [1, 2, 3], 10 ** 400]
GOOD = {
    "emulator": {"r_coil": [600, 300.0], "r_int": [220, 680.0],
                 "l_coil": [0.17], "v_pull_in": [2.2, 3],
                 "v_drop_out": [1.6, 1]},
    "device": {"t_actuate": [0, 1e-4, 5e-4, 1e-3], "jitter_sigma": [0.0, 0.05],
               "v_th_pos": [2.0, 2.5], "v_hold_pos": [1.5],
               "v_th_neg": [-2.0], "v_hold_neg": [-1.4], "r_on": [300.0],
               "r_off": [600]},
    "circuit": {"r1": [0, 220, 680.0], "dt": [1e-4, 5e-5],
                "t_end": [0.002, 0.01], "r_common": [220, 1000.0],
                "v0": [1.9, 2.0], "v1": [0, 1.9, 5], "v2": [0, 1.9, 5],
                "v3": [-1.9, 0], "duration": [0.01, 0.02]},
    "source": {"kind": ["constant", "sine", "steps", "bogus"],
               "amplitude": [4.0], "offset": [5, -1.0],
               "period": [0.001, 0.0], "steps": [[], [[0.001, 5.0]],
                                                  [[0.002, 1], [0.001, 2]]]},
    "digitize": {"threshold": [2.0], "high": [5.0], "low": [0]},
    "sweep": {"amplitude": [3.0], "points": [3, 11],
              "param": ["r1", "r_int", "r_x"],
              "values": [[220.0, 680], [0], [-1.0]],
              "v1": [[0, 1, 0.5], [-1, 2, 1], [0, 1, 0.6], [1, 0, 0.5]],
              "v2": [[1, 1, 0.1], [0, 3, 1.5], [0, 1, 0]],
              "v3": [-1.9, -1.2]},
}


def _value(good):
    good = st.sampled_from(good)
    return st.one_of(good, good, good, st.sampled_from(BAD))


def _block(keys):
    block = st.fixed_dictionaries({}, optional={
        k: _value(v) for k, v in keys.items()})
    return st.one_of(block, block, block, st.sampled_from(BAD))


documents = st.fixed_dictionaries({}, optional=dict(
    {name: _block(keys) for name, keys in GOOD.items()},
    seed=_value([0, 7]), out=st.sampled_from([5, True, []])))


# Keys filled in unless the document sets them: gate's required voltages, and
# a map grid small enough to fuzz (the default grid is 71x71).
FILL = {"gate": ("circuit", {"v1": 1.9, "v2": 1.9, "v3": 0}),
        "map": ("sweep", {"v1": [0, 1, 0.5], "v2": [0, 1, 0.5]})}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(verb=st.sampled_from(VERBS), doc=documents)
def test_fuzz_documents_keep_the_exit_contract(verb, doc):
    if verb in FILL:
        name, keys = FILL[verb]
        if doc.get(name) is None or isinstance(doc[name], dict):
            doc[name] = {**keys, **(doc.get(name) or {})}
    try:
        cfg = load_config_dict(dict(doc, verb=verb))
    except ConfigError:
        cfg = None
    else:
        assert load_config(serialize(cfg)) == cfg
    with tempfile.TemporaryDirectory() as tmp:
        code, _, err = run_cli(verb, json.dumps(doc), tmp)
    assert code in ((2,) if cfg is None else (0, 3))
    assert "Traceback" not in err
