"""Golden digests: the exact bytes each verb writes for fixed configs.

Each case runs `voltmem.cli.main` and pins the SHA-256 of what it wrote to
stdout and, when the case passes `--out`, of the output file. A change that
alters any output byte fails here, so a refactor that claims byte identity
is checked by the test suite itself. A digest changes only with an output
change that CHANGES.md names.

No case uses a `sine` source or `jitter_sigma > 0` in a transient: numpy's
SIMD `sin` and its `Generator` streams may differ across platforms and
numpy versions, and CI installs the newest numpy. The `r_int` sweep of
`osc-check` sets `jitter_sigma`, but only prints closed-form values that
never draw from the generator.
"""

import hashlib
import json

import pytest

from voltmem.cli import main

# name: (verb, config document, whether the run writes to --out)
CASES = {
    "iv": ("iv", {}, False),
    "transient": ("transient", {}, False),
    "transient-steps-digitize": ("transient", {
        "circuit": {"t_end": 0.02},
        "source": {"kind": "steps", "offset": 0.5,
                   "steps": [[0.004, 5], [0.009, 2], [0.015, -3]]},
        "digitize": {"threshold": 2, "high": 1, "low": 0}}, True),
    "transient-no-delay": ("transient", {
        "device": {"t_actuate": 0}, "circuit": {"t_end": 0.02}}, False),
    # the README's oscillating divider
    "transient-osc": ("transient", {
        "emulator": {"r_int": 220},
        "circuit": {"r1": 680, "dt": 1e-4, "t_end": 0.05},
        "source": {"kind": "constant", "offset": 5.0},
        "digitize": {"threshold": 2.0}}, True),
    "osc-check": ("osc-check", {}, False),
    "osc-check-r1": ("osc-check", {
        "sweep": {"param": "r1", "values": [0, 220, 680, 1500, 4700]}}, False),
    "osc-check-r_int": ("osc-check", {
        "device": {"t_actuate": 0.001, "jitter_sigma": 0.3},
        "sweep": {"param": "r_int", "values": [100, 220, 680, 2200]}}, False),
    "gate-settled": ("gate", {"circuit": {"v1": 1.0, "v2": 5.0, "v3": -1.9}},
                     False),
    "gate-oscillating": ("gate", {
        "emulator": {"r_int": 100},
        "circuit": {"r_common": 500, "v1": -2, "v2": -2, "v3": 5}}, False),
    "map": ("map", {}, True),
}

# name: (SHA-256 of stdout, SHA-256 of the --out file or None)
DIGESTS = {
    "gate-oscillating": (
        "846fcceca7bbc098a0ebbb960c36fa76f48e891b7d6c278b4dd39edb8a430cf6",
        None),
    "gate-settled": (
        "208ab86c28e5e3470ef188a0e533d6f2d15fe3d305a94dd0b8127c4cd93cd4f9",
        None),
    "iv": (
        "3e222890e4ca9efa91870bc8909e4451c6fa53558c29483d5cbf2139bdea2cbf",
        None),
    "map": (
        "4ffdff2f0f7524c77e3265c334c7b020cff1f5982a60cce2e0efe6f342547698",
        "780443545dfd02651eafdd031fc15dbd643cb10164d4bc03e1bfb9cbf03db9ad"),
    "osc-check": (
        "268aa112bf9dc4f13a7fd0673129f606c8c5664d647cc3a255ee27f1b192a35c",
        None),
    "osc-check-r1": (
        "1c3bf98d3403209a99fa6fcb61ad5eb12559935a3884bf643e47e603b08a494f",
        None),
    "osc-check-r_int": (
        "8a3d1eb64dd8856d75923a104e2489b7178cae6d6391578c656bb898757a04aa",
        None),
    "transient": (
        "24d2846fc102c29aa9840b59057493c4de990fbaefb51bb49269e9e27f12c88f",
        None),
    "transient-no-delay": (
        "33ad506d47ebfce6b7b22c40a2a458d15e7e763166c9b6786eb8424c4f0d1af3",
        None),
    "transient-osc": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "1f75c808086dc67337d8525b0a417e708897db5e6f99a578fb9ae5ca85ba8de8"),
    "transient-steps-digitize": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "4d9b8e42cffa9820f6925ace089dded1866b1a5326bf6f41d4419d6f21f8b00a"),
}


def run_case(tmp_path, capsysbinary, name):
    """The stdout bytes and the `--out` bytes (None without --out) of a case,
    which writes nothing to stderr."""
    verb, doc, to_file = CASES[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    argv = [verb, "--config", str(cfg)]
    out = tmp_path / "out.csv"
    if to_file:
        argv += ["--out", str(out)]
    assert main(argv) == 0
    captured = capsysbinary.readouterr()
    assert captured.err == b""
    return captured.out, out.read_bytes() if to_file else None


def sha256(data):
    return None if data is None else hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_golden_digest(tmp_path, capsysbinary, name):
    stdout, out = run_case(tmp_path, capsysbinary, name)
    assert (sha256(stdout), sha256(out)) == DIGESTS[name]
