import contextlib
import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from peak_memory import traced_peak
from transient_oracle import run_transient_per_sample
from voltmem import cli
from voltmem.circuit import SourceWaveform
from voltmem.cli import main
from voltmem.config import (ConfigError, axis_points, header_lines, load_config,
                            serialize)
from voltmem.device import DeviceParams, condition_holds, derive_device_params
from voltmem.logic import (INPUT_PAIRS, LogicCircuit, canonical_program,
                           run_gate)


def write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# small runs of every verb: the map has oscillating cells and the transient
# writes the digitised column
VERB_DOCS = {
    "iv": {"sweep": {"points": 41}},
    "transient": {"circuit": {"r1": 680.0, "dt": 1e-4, "t_end": 0.02},
                  "emulator": {"r_int": 220.0},
                  "source": {"kind": "constant", "offset": 5.0},
                  "digitize": {"threshold": 2.0}},
    "osc-check": {"sweep": {"param": "r_int", "values": [220.0, 5000.0]}},
    "gate": {"circuit": {"v1": 1.9, "v2": 1.9, "v3": 0.0}},
    "map": {"emulator": {"r_int": 220}, "circuit": {"r_common": 1000},
            "sweep": {"v1": [-1, 6, 0.5], "v2": [-1, 6, 0.5], "v3": -1.9}},
}


class TestLoadConfig:
    def test_minimal_iv_defaults(self):
        cfg = load_config('{"verb": "iv", "emulator": {}}')
        assert cfg.device.v_th_pos == 2.2 and cfg.device.v_hold_pos == 1.6
        assert cfg.emulator.r_coil == 600.0
        assert cfg.iv_amplitude == 4.0 and cfg.iv_points == 2001

    def test_negative_r_int_names_key(self):
        with pytest.raises(ConfigError, match="r_int"):
            load_config('{"verb": "iv", "emulator": {"r_int": -5}}')

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            load_config('{"verb": "iv", "bogus": 1}')
        with pytest.raises(ConfigError, match="r_x"):
            load_config('{"verb": "iv", "emulator": {"r_x": 1}}')

    def test_parse_error_reports_position(self):
        with pytest.raises(ConfigError, match="line 1"):
            load_config('{"verb": ')

    def test_missing_gate_voltages(self):
        with pytest.raises(ConfigError, match="v1, v2, v3"):
            load_config('{"verb": "gate"}')

    def test_bad_verb(self):
        with pytest.raises(ConfigError, match="verb"):
            load_config('{"verb": "plot"}')

    def test_map_default_grid_71x71(self):
        cfg = load_config('{"verb": "map", "sweep": {"v3": -1.9}}')
        assert len(axis_points(cfg.v1_axis)) == 71
        assert len(axis_points(cfg.v2_axis)) == 71
        assert cfg.v3 == -1.9

    def test_device_override(self):
        cfg = load_config(
            '{"verb": "iv", "device": {"t_actuate": 0.0, "v_th_neg": -2.0,'
            ' "v_hold_neg": -1.4}}')
        assert cfg.device.t_actuate == 0.0
        assert cfg.device.v_th_neg == -2.0

    @pytest.mark.parametrize("doc", [
        {"verb": "iv"},
        {"verb": "iv", "sweep": {"amplitude": 3.0, "points": 501}},
        {"verb": "transient", "circuit": {"r1": 680.0},
         "source": {"kind": "constant", "offset": 5.0},
         "digitize": {"threshold": 2.5}},
        {"verb": "transient",
         "source": {"kind": "steps", "steps": [[0.01, 5.0], [0.02, 6.0]]}},
        {"verb": "osc-check", "circuit": {"r1": 680.0},
         "sweep": {"param": "r_int", "values": [220.0, 680.0]}},
        {"verb": "gate", "circuit": {"v1": 1.0, "v2": 5.0, "v3": -1.9}},
        {"verb": "map", "seed": 7,
         "sweep": {"v1": [0.0, 2.0, 0.5], "v2": [0.0, 2.0, 0.5], "v3": -1.2}},
    ])
    def test_round_trip(self, doc):
        cfg = load_config(json.dumps(doc))
        assert load_config(serialize(cfg)) == cfg


class TestVerbs:
    def test_iv_hysteresis_csv(self, tmp_path):
        out = tmp_path / "iv.csv"
        assert main(["iv", "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "v,i,conducting"
        rows = [l.split(",") for l in lines[1:]]
        # OFF branch obeys Ohm's law with the coil resistance
        v0, i0 = float(rows[10][0]), float(rows[10][1])
        assert i0 == pytest.approx(v0 / 600.0, rel=1e-6)
        # a switching discontinuity exists on the rising branch
        switch_vs = [float(r[0]) for prev, r in zip(rows, rows[1:])
                     if prev[2] == "0" and r[2] == "1" and float(r[0]) > 0]
        assert len(switch_vs) == 1
        assert switch_vs[0] == pytest.approx(2.2, abs=0.0081)

    def test_transient_with_digitize(self, tmp_path):
        cfg = write_config(tmp_path, {
            "circuit": {"r1": 680.0, "dt": 1e-4, "t_end": 0.02},
            "emulator": {"r_int": 220.0},
            "source": {"kind": "constant", "offset": 5.0},
            # the OFF-state divider puts 2.34 V across the device at V=5,
            # so the threshold must sit inside the 0.96..2.34 V swing
            "digitize": {"threshold": 2.0},
        })
        out = tmp_path / "tr.csv"
        assert main(["transient", "--config", cfg, "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "t,v_applied,v_device,v_out,conducting,current,logic"
        logic_vals = {l.split(",")[-1] for l in lines[1:]}
        assert logic_vals == {"0", "5"}

    def test_osc_check_sweep_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "circuit": {"r1": 680.0},
            "sweep": {"param": "r_int", "values": [220.0, 5000.0]},
        })
        assert main(["osc-check", "--config", cfg]) == 0
        outp = capsys.readouterr().out
        rows = [l for l in outp.splitlines() if not l.startswith("#")]
        assert rows[0] == "r_int,onset_voltage,instability_lhs,unstable"
        assert rows[1].endswith(",1")   # 220 ohm: unstable
        assert rows[2].endswith(",0")   # 5 kohm: r_on near r_off, stable

    def test_gate_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           {"circuit": {"v1": 1.9, "v2": 1.9, "v3": 0.0}})
        assert main(["gate", "--config", cfg]) == 0
        outp = capsys.readouterr().out
        assert "a,b,m1,m2" in outp
        assert "code_m1 = " in outp and "code_m2 = " in outp

    def test_map_csv_and_heatmap(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "sweep": {"v1": [0.0, 2.0, 1.0], "v2": [0.0, 2.0, 1.0],
                      "v3": -1.9}})
        out = tmp_path / "map.csv"
        assert main(["map", "--config", cfg, "--out", str(out)]) == 0
        text = out.read_text()
        assert "# grid = 3x3" in text
        body = [l for l in text.splitlines() if not l.startswith("#")]
        assert body[0] == "v1,v2,code_m1,label_m1,code_m2,label_m2,oscillated"
        assert len(body) == 1 + 9
        heat = capsys.readouterr().out
        assert "M1 register gate map" in heat and "M2 register gate map" in heat

    def test_map_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["map", "--jobs", "4"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --jobs 4" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["foo"], "argument verb: invalid choice: 'foo'"),
        ([], "the following arguments are required: verb"),
    ])
    def test_bad_verb_rejected(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    # sweep.points admits 1e8, so iv keeps one bool state per point and
    # formats its rows a chunk at a time; a list of every row took ~120
    # bytes per point
    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_iv_peak_memory_per_point(self, tmp_path, sigma):
        points = 10**5
        cfg = write_config(tmp_path, {"device": {"jitter_sigma": sigma},
                                      "sweep": {"points": points}})
        out = tmp_path / "iv.csv"
        code, peak = traced_peak(main, ["iv", "--config", cfg, "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) > points
        assert peak < 32 * points

    # iv writes each chunk as soon as it resolves it and carries only the
    # state at the chunk's end, so its peak does not grow with its size
    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_iv_peak_memory_does_not_grow_with_points(self, tmp_path, sigma):
        def peak(points):
            cfg = write_config(tmp_path, {"device": {"jitter_sigma": sigma},
                                          "sweep": {"points": points}})
            code, top = traced_peak(main, ["iv", "--config", cfg,
                                           "--out", str(tmp_path / "iv.csv")])
            assert code == 0
            return top

        peak(3)  # builds the CSV formatter's tables, which are kept
        assert peak(4 * 10**5) - peak(10**5) < 100_000

    # a transient stores 1 byte per sample (conducting as bool) and reads its
    # source through one window of 2**14 samples that moves on; t, the
    # source samples, the divider's device voltage and current, and logic
    # are formed per CSV chunk. Both runs are longer than a window, so the
    # window's temporaries are the same in both. A jittered run that never
    # switches keeps no jitter pair its onset search has passed
    @pytest.mark.parametrize("doc", [
        {},
        {"emulator": {"r_int": 220.0}, "device": {"jitter_sigma": 0.05},
         "source": {"kind": "constant", "offset": 5.0}, "digitize": {}},
        {"device": {"jitter_sigma": 0.05}, "source": {"kind": "constant", "offset": 1.0}},
    ], ids=["sawtooth", "jittered-constant-digitized", "jittered-constant-still"])
    def test_transient_peak_memory_per_sample(self, tmp_path, doc):
        def peak(t_end):
            cfg = write_config(tmp_path, dict(doc, circuit={"dt": 1e-5, "t_end": t_end}))
            code, top = traced_peak(main, ["transient", "--config", cfg,
                                           "--out", str(tmp_path / "t.csv")])
            assert code == 0
            return top

        peak(1e-4)  # builds the CSV formatter's tables, which are kept
        assert peak(6.0) - peak(3.0) <= 2 * 3 * 10**5

    # map runs block by block and keeps only each cell's uint16 outcome for
    # the heatmaps; the whole-grid kernel grew ~51 bytes per cell. The
    # heatmaps go to a file, so that no captured text is counted
    def test_map_peak_memory_per_cell(self, tmp_path):
        def peak(step):
            cfg = write_config(tmp_path, {
                "emulator": {"r_int": 220}, "circuit": {"r_common": 1000},
                "sweep": {"v1": [-1, 6, step], "v2": [-1, 6, step], "v3": -1.9}})
            with open(tmp_path / "heatmap.txt", "w") as heatmaps, \
                    contextlib.redirect_stdout(heatmaps):
                code, top = traced_peak(main, ["map", "--config", cfg,
                                               "--out", str(tmp_path / "map.csv")])
            assert code == 0
            return top

        peak(1.0)
        assert peak(0.01) - peak(0.02) < 4 * (701**2 - 351**2)

    # -4: the zero-volt rows print 0, never -0; 1e12: the largest amplitude
    # a config takes prints finite voltages and currents
    @pytest.mark.parametrize("amplitude", [-4.0, 1e12])
    def test_iv_negative_or_huge_amplitude(self, tmp_path, amplitude):
        cfg = write_config(tmp_path, {"sweep": {"amplitude": amplitude}})
        out = tmp_path / "iv.csv"
        assert main(["iv", "--config", cfg, "--out", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if not l.startswith("#")][1:]
        assert len(rows) == 2001
        assert [rows[k] for k in (0, 1000, 2000)] == [["0", "0", "0"]] * 3
        assert not [f for row in rows for f in row if f == "-0"]
        assert all(math.isfinite(float(f)) for row in rows for f in row)

    def test_transient_digitize_only_adds_logic_column(self, tmp_path):
        # 5001 rows: more than one formatting chunk of Trace.to_csv
        doc = {"circuit": {"r1": 680.0, "dt": 1e-4, "t_end": 0.5},
               "emulator": {"r_int": 220.0},
               "source": {"kind": "constant", "offset": 5.0}}

        def body(name):
            out = tmp_path / f"{name}.csv"
            cfg = write_config(tmp_path, doc, f"{name}.json")
            assert main(["transient", "--config", cfg, "--out", str(out)]) == 0
            return [l for l in out.read_text().splitlines()
                    if not l.startswith("#")]

        plain = body("plain")
        doc["digitize"] = {"threshold": 2.0}
        dig = body("dig")
        cfg = load_config(json.dumps(dict(doc, verb="transient")))
        trace = run_transient_per_sample(cfg.r1, cfg.device, cfg.source, cfg.dt,
                                         cfg.t_end, seed=cfg.seed)
        threshold, high, low = cfg.digitize
        logic = np.where(trace.v_device > threshold, high, low)
        assert set(logic) == {0.0, 5.0}
        assert len(plain) == len(dig) == 1 + len(logic) == 5002
        assert dig[0] == plain[0] + ",logic"
        assert dig[1:] == [row + ",%.9g" % x
                           for row, x in zip(plain[1:], logic)]


# a settled gate, and one whose every input pair cycles in the calc phase
GATE_DOCS = {
    "settled": {"circuit": {"v1": 1.0, "v2": 5.0, "v3": -1.9}},
    "oscillating": {"emulator": {"r_int": 100},
                    "circuit": {"r_common": 500, "v1": -2, "v2": -2, "v3": 5}},
}


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


# a config takes 0 or a magnitude of at least 1e-12
volts = st.floats(-6.0, 6.0).map(lambda v: v if abs(v) >= 1e-12 else 0.0)


@st.composite
def gate_docs(draw):
    """Random devices, common resistors and calc voltages; about one draw in
    seven oscillates."""
    return {"emulator": {"r_int": draw(_log_uniform(20.0, 5000.0))},
            "circuit": {"r_common": draw(_log_uniform(10.0, 1e4)),
                        "v1": draw(volts), "v2": draw(volts), "v3": draw(volts)}}


def _check_gate_bytes(tmp_path, capsys, doc):
    """The gate verb decodes each input pair's states and both codes from
    the kernel's code bits; the text built from run_gate must match it."""
    cfg = load_config(json.dumps(dict(doc, verb="gate")))
    c = LogicCircuit(m1=cfg.device, m2=cfg.device, r_common=cfg.r_common,
                     v_hold_level=cfg.v0)
    res = run_gate(c, canonical_program(cfg.v1, cfg.v2, cfg.v3, v0=cfg.v0,
                                        duration=cfg.duration))
    rows = ["%d,%d,%d,%d\n" % (pair + res.final_states[pair])
            for pair in INPUT_PAIRS]
    if doc == GATE_DOCS["oscillating"]:
        assert rows == ["0,0,1,1\n", "0,1,1,1\n", "1,0,1,1\n", "1,1,0,0\n"]
        assert res.label_m1 == res.label_m2 == "NAND" and res.oscillated
    want = ("".join(f"# {line}\n" for line in header_lines(cfg))
            + "a,b,m1,m2\n" + "".join(rows)
            + f"code_m1 = {res.code_m1} ({res.label_m1})\n"
            + f"code_m2 = {res.code_m2} ({res.label_m2})\n"
            + f"oscillated = {'true' if res.oscillated else 'false'}\n")
    assert main(["gate", "--config", write_config(tmp_path, doc)]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("name", sorted(GATE_DOCS))
def test_gate_bytes_match_oracle_text(tmp_path, capsys, name):
    _check_gate_bytes(tmp_path, capsys, GATE_DOCS[name])


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=gate_docs())
def test_gate_bytes_match_oracle_text_at_random_points(tmp_path, capsys, doc):
    _check_gate_bytes(tmp_path, capsys, doc)


@pytest.mark.parametrize("verb, doc, marker", [
    ("gate", GATE_DOCS["oscillating"], "oscillated = true"),
    ("map", VERB_DOCS["map"], "OSC"),
])
def test_duration_changes_only_its_header_line(tmp_path, capsys, verb, doc,
                                               marker):
    # no relaxation reads circuit.duration; loading checks it once
    outs = []
    for duration in (0.01, 0.5):
        circuit = dict(doc["circuit"], duration=duration)
        path = write_config(tmp_path, dict(doc, circuit=circuit))
        assert main([verb, "--config", path]) == 0
        outs.append(capsys.readouterr().out.splitlines(keepends=True))
    short, long = ([line for line in out if '"duration"' not in line]
                   for out in outs)
    assert short == long and marker in "".join(short)
    assert [len(out) - len(short) for out in outs] == [1, 1]


class TestOutputSink:
    @pytest.mark.parametrize("verb", sorted(VERB_DOCS))
    def test_out_file_plus_stdout_equals_plain_stdout(self, tmp_path, capsys,
                                                      verb):
        cfg = write_config(tmp_path, VERB_DOCS[verb])
        assert main([verb, "--config", cfg]) == 0
        plain = capsys.readouterr().out
        out = tmp_path / "o.csv"
        assert main([verb, "--config", cfg, "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# resolved config:\n")
        assert text + capsys.readouterr().out == plain
        if verb == "map":
            assert "*" in plain.split("M1 register gate map")[1]

    def test_verbs_looked_up_at_call_time(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_gate_verb", calls.append)
        cfg = write_config(tmp_path, VERB_DOCS["gate"])
        assert main(["gate", "--config", cfg]) == 0
        assert [c.verb for c in calls] == ["gate"]


class TestExitCodes:
    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"emulator": {"r_int": -5}})
        assert main(["iv", "--config", cfg]) == 2
        assert "r_int" in capsys.readouterr().err

    def test_missing_config_file_exit_2(self, capsys):
        assert main(["iv", "--config", "/nonexistent.json"]) == 2

    def test_resolution_guard_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "circuit": {"dt": 1e-3, "t_end": 0.05},
            "source": {"kind": "constant", "offset": 5.0}})
        assert main(["transient", "--config", cfg]) == 3
        assert "guard" in capsys.readouterr().err

    @pytest.mark.parametrize("existing", [None, b"earlier run\n"],
                             ids=["absent", "existing"])
    def test_resolution_guard_leaves_out_untouched(self, tmp_path, capsys,
                                                   existing):
        cfg = write_config(tmp_path, {
            "circuit": {"dt": 1e-3, "t_end": 0.05},
            "source": {"kind": "constant", "offset": 5.0}})
        out = tmp_path / "o.csv"
        if existing is not None:
            out.write_bytes(existing)
        assert main(["transient", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().out == ""
        if existing is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == existing

    @pytest.mark.parametrize("verb", ["iv", "transient", "map"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, verb):
        cfg = write_config(tmp_path, VERB_DOCS[verb])
        out = str(tmp_path / "missing-dir" / "o.csv")
        assert main([verb, "--config", cfg, "--out", out]) == 2
        captured = capsys.readouterr()
        assert out in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_seed_flag_overrides(self, tmp_path):
        out = tmp_path / "o.csv"
        assert main(["iv", "--seed", "9", "--out", str(out)]) == 0
        assert '"seed": 9' in out.read_text()


def run_child(tmp_path, argv, stdout):
    """Run `python -m voltmem.cli` with this checkout's sources in a child
    whose stdout is block-buffered, as in a shell."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    return subprocess.run([sys.executable, "-m", "voltmem.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, env=env,
                          cwd=tmp_path, text=True)


def run_to_closed_pipe(tmp_path, argv):
    # the read end is closed before the child writes, so its first write to
    # stdout fails; a `| head` race hides that whenever the output fits the
    # pipe buffer
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return run_child(tmp_path, argv, write_end)
    finally:
        os.close(write_end)


class TestStdoutFailure:
    """A failed write to stdout exits 2 with one line on stderr: no
    traceback, and no `Exception ignored` from the interpreter's exit."""

    @pytest.mark.parametrize("verb", sorted(VERB_DOCS))
    def test_closed_pipe_exit_2(self, tmp_path, verb):
        proc = run_to_closed_pipe(
            tmp_path, [verb, "--config", write_config(tmp_path, VERB_DOCS[verb])])
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["cannot write to stdout: Broken pipe"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs the /dev/full device")
    def test_full_device_exit_2(self, tmp_path):
        with open("/dev/full", "w") as full:
            proc = run_child(tmp_path, ["iv"], full)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "cannot write to stdout: No space left on device"]

    def test_map_heatmap_failure_leaves_complete_out(self, tmp_path, capsys):
        cfg = write_config(tmp_path, VERB_DOCS["map"])
        want = tmp_path / "want.csv"
        assert main(["map", "--config", cfg, "--out", str(want)]) == 0
        proc = run_to_closed_pipe(tmp_path, ["map", "--config", cfg,
                                             "--out", "got.csv"])
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["cannot write to stdout: Broken pipe"]
        assert (tmp_path / "got.csv").read_bytes() == want.read_bytes()


def iv_rows_per_point(cfg):
    """The `iv` rows of the per-point loop that the array scans replaced: one
    offset pair drawn and one condition_holds per point, in sweep order."""
    d, n = cfg.device, cfg.iv_points
    sweep = SourceWaveform("triangle", amplitude=cfg.iv_amplitude, period=n - 1.0)
    v = sweep.value(np.arange(n), 1.0).tolist()
    offsets = np.random.default_rng(cfg.seed).normal(0.0, d.jitter_sigma, (n, 2))
    on, rows = False, []
    for vk, dk in zip(v, offsets.tolist()):
        on ^= bool(condition_holds(d, on, vk, dk))
        rows.append("%.9g,%.9g,%d\n" % (vk, vk / (d.r_on if on else d.r_off), on))
    return "v,i,conducting\n" + "".join(rows)


# points across a chunk boundary, and jitter from none to switching at
# almost every point
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(points=st.integers(3, 9000), amplitude=st.sampled_from([-4.0, 2.5, 4.0, 30.0]),
       sigma=st.sampled_from([0.0, 0.05, 0.3, 5.0]), seed=st.integers(0, 2**32))
def test_iv_matches_per_point_loop(tmp_path, points, amplitude, sigma, seed):
    doc = {"seed": seed, "device": {"jitter_sigma": sigma},
           "sweep": {"points": points, "amplitude": amplitude}}
    out = tmp_path / "iv.csv"
    assert main(["iv", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    rows = "".join(l for l in out.read_text().splitlines(True) if l[0] != "#")
    assert rows == iv_rows_per_point(load_config(json.dumps(dict(doc, verb="iv"))))


# imports numpy, runs the CLI in this child and prints its exit code and
# whether numpy.random was loaded before and after the run
_RANDOM_PROBE = """
import sys
import numpy
before = "numpy.random" in sys.modules
from voltmem.cli import main
print(main(sys.argv[1:]), before, "numpy.random" in sys.modules)
"""


def loads_numpy_random(tmp_path, argv):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _RANDOM_PROBE, *argv], env=env,
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.stdout.split()[0] == "0", proc.stderr
    if proc.stdout.split()[1] == "True":
        pytest.skip("import numpy alone loads numpy.random (numpy 1.x)")
    return proc.stdout.split()[2] == "True"


def test_only_jittered_runs_load_numpy_random(tmp_path):
    assert not loads_numpy_random(tmp_path, ["transient", "--out", "t.csv"])
    assert not loads_numpy_random(tmp_path, ["iv", "--out", "iv.csv"])
    doc = dict(VERB_DOCS["transient"], device={"jitter_sigma": 0.05})
    cfg = write_config(tmp_path, doc)
    assert loads_numpy_random(tmp_path, ["transient", "--config", cfg, "--out", "j.csv"])
    # its rows are those of the per-sample oracle, which makes its generator
    # before the first step
    run = load_config(json.dumps(dict(doc, verb="transient")))
    trace = run_transient_per_sample(run.r1, run.device, run.source,
                                     run.dt, run.t_end, run.seed)
    want = tmp_path / "want.csv"
    want.write_text(trace.csv(run.digitize))
    got = (tmp_path / "j.csv").read_text()
    assert "".join(l for l in got.splitlines(True) if l[0] != "#") == want.read_text()
    assert {l.split(",")[4] for l in want.read_text().splitlines()[1:]} == {"0", "1"}


# the cases of the entry-path test: every verb to stdout and to --out, a
# config error (exit 2) and a numerical guard violation (exit 3)
ENTRY_CASES = [(verb, VERB_DOCS[verb], out) for verb in sorted(VERB_DOCS)
               for out in (False, True)] + [
    ("iv", {"emulator": {"r_int": -5}}, False),
    ("transient", {"circuit": {"dt": 1e-3, "t_end": 0.05},
                   "source": {"kind": "constant", "offset": 5.0}}, True),
]


@pytest.mark.parametrize("verb, doc, out", ENTRY_CASES)
def test_process_entry_matches_main(tmp_path, capsys, verb, doc, out):
    """`python -m voltmem.cli` (cli.run) gives what in-process main gives,
    and main leaves the caller's heap unfrozen."""
    argv = [verb, "--config", write_config(tmp_path, doc)]
    outs = {side: tmp_path / f"{side}.csv" for side in ("main", "child")}
    frozen = gc.get_freeze_count()
    code = main(argv + (["--out", str(outs["main"])] if out else []))
    assert gc.get_freeze_count() == frozen
    captured = capsys.readouterr()
    proc = run_child(tmp_path, argv + (["--out", str(outs["child"])] if out else []),
                     subprocess.PIPE)
    assert proc.returncode == code and code in (0, 2, 3)
    assert proc.stdout == captured.out
    assert proc.stderr.splitlines() == captured.err.splitlines()
    main_bytes, child_bytes = (p.read_bytes() if p.exists() else None
                               for p in outs.values())
    assert child_bytes == main_bytes
    assert (main_bytes is not None) == (out and code == 0)


# runs the process entry in this child, then prints its exit code, whether
# the heap was frozen, whether `dataclasses` was imported and the voltmem
# modules loaded; run() ends the process with os._exit, which here is
# sys.exit, so that the probe can report what the run left
_ENTRY_PROBE = """
import gc, os, sys
from voltmem import cli
os._exit = sys.exit
try:
    cli.run()
except SystemExit as e:
    code = e.code
print(code, gc.get_freeze_count() > 0, "dataclasses" in sys.modules,
      *sorted(m for m in sys.modules if m.startswith("voltmem.")))
"""

# the voltmem modules that each verb loads: circuit and its row writer only
# for iv and transient, logic only for gate and map, oscillation only for
# osc-check
_CORE = ["voltmem.cli", "voltmem.config", "voltmem.device"]
VERB_MODULES = {"iv": sorted(_CORE + ["voltmem.circuit", "voltmem.rows"]),
                "transient": sorted(_CORE + ["voltmem.circuit", "voltmem.rows"]),
                "osc-check": sorted(_CORE + ["voltmem.oscillation"]),
                "gate": sorted(_CORE + ["voltmem.logic"]),
                "map": sorted(_CORE + ["voltmem.logic"])}


@pytest.mark.parametrize("verb", sorted(VERB_MODULES))
def test_each_verb_loads_only_its_modules(tmp_path, verb):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = [verb, "--config", write_config(tmp_path, VERB_DOCS[verb]),
            "--out", "o.csv"]
    proc = subprocess.run([sys.executable, "-c", _ENTRY_PROBE, *argv], env=env,
                          cwd=tmp_path, capture_output=True, text=True)
    code, frozen, dataclasses, *modules = proc.stdout.splitlines()[-1].split()
    assert (code, frozen) == ("0", "True"), proc.stderr
    assert modules == VERB_MODULES[verb]
    # the records are namedtuples; only circuit.Trace, which only iv and
    # transient load, is a dataclass
    assert dataclasses == str("voltmem.circuit" in modules)


def test_each_verb_runs_the_model_its_load_built(tmp_path, monkeypatch):
    """The load keeps the models its checks build, and the verb runs those:
    a gate run builds one LogicCircuit, and an r_int sweep of k values builds
    k + 2 DeviceParams (the derived device, the device block, one a value)."""
    built = {LogicCircuit: 0, DeviceParams: 0}
    for record in built:
        def counted(self, record=record, check=record._check):
            built[record] += 1
            check(self)
        monkeypatch.setattr(record, "_check", counted)

    doc = GATE_DOCS["oscillating"]
    assert main(["gate", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "gate.txt")]) == 0
    assert built[LogicCircuit] == 1
    cfg = load_config(json.dumps(dict(doc, verb="gate")))
    assert cfg.logic_circuit == LogicCircuit(m1=cfg.device, m2=cfg.device,
                                             r_common=cfg.r_common,
                                             v_hold_level=cfg.v0)

    values = [100.0, 220.0, 680.0, 5000.0]
    doc = {"emulator": {"r_coil": 500.0}, "circuit": {"r1": 330.0},
           "sweep": {"param": "r_int", "values": values}}
    built[DeviceParams] = 0
    assert main(["osc-check", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "osc.txt")]) == 0
    assert built[DeviceParams] == len(values) + 2
    cfg = load_config(json.dumps(dict(doc, verb="osc-check")))
    assert cfg.sweep_rows == tuple(
        (v, derive_device_params(cfg.emulator._replace(r_int=v)), 330.0)
        for v in values)
    doc["sweep"]["param"] = "r1"
    cfg = load_config(json.dumps(dict(doc, verb="osc-check")))
    assert cfg.sweep_rows == tuple((v, cfg.device, v) for v in values)


def transient_rows(tmp_path, doc):
    """The CSV rows of a transient run of `doc`, each split into fields."""
    out = tmp_path / "t.csv"
    assert main(["transient", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 0
    names, *rows = (row for row in out.read_text().splitlines() if row[0] != "#")
    return [row.split(",") for row in rows]


# a sample on a period boundary is at phase 0, where the sawtooth is 0 V;
# a phase taken as frac(t / period) in doubles put some just below phase 1
def test_default_sawtooth_is_0_v_at_t_0_15(tmp_path):
    rows = transient_rows(tmp_path, {"circuit": {"dt": 1e-4, "t_end": 0.2}})
    assert rows[1500][:4] == ["0.15", "0", "0", "0"]


def test_sweep_rows_on_period_boundaries_are_0_v(tmp_path):
    rows = transient_rows(tmp_path, {"circuit": {"dt": 1e-5, "t_end": 2}})
    assert len(rows) == 200001
    assert {rows[k][1] for k in range(0, 200001, 5000)} == {"0"}
    for t in ("0.15", "0.3", "0.6", "0.75", "1.2", "1.45", "1.5"):
        assert rows[round(float(t) * 1e5)][:4] == [t, "0", "0", "0"]
