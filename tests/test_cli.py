import json
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hodge_rsm import covering, geometry, rsm
from hodge_rsm.cli import main

from conftest import (chi_gradients, euler_characteristic,
                      old_layout_covering)


@pytest.fixture()
def runner():
    return CliRunner()


def _cfg(tmp_path, **overrides):
    base = {"mesh": {"kind": "flat_torus", "resolution": 16,
                     "distortion": 0.0, "path": None},
            "out_dir": str(tmp_path / "runs")}
    base.update(overrides)
    tmp_path.mkdir(parents=True, exist_ok=True)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(base))
    return str(p)


def test_generate_counts(runner, tmp_path):
    out = tmp_path / "mesh.off"
    res = runner.invoke(main, ["generate", "--kind", "flat_torus",
                               "--resolution", "16", "--out", str(out)])
    assert res.exit_code == 0
    assert "256 vertices" in res.output
    header = out.read_text().splitlines()
    assert header[0] == "OFF"
    assert header[1].split()[0] == "256"


def test_generate_deterministic(runner, tmp_path):
    a, b = tmp_path / "a.off", tmp_path / "b.off"
    for path in (a, b):
        res = runner.invoke(main, ["generate", "--kind", "sphere",
                                   "--resolution", "4", "--out", str(path)])
        assert res.exit_code == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_invalid_kind(runner, tmp_path):
    res = runner.invoke(main, ["generate", "--kind", "moebius",
                               "--out", str(tmp_path / "x.off")])
    assert res.exit_code == 2


def test_cover_bound_and_determinism(runner, tmp_path):
    cfg = _cfg(tmp_path)
    a, b = tmp_path / "cov_a.json", tmp_path / "cov_b.json"
    for path in (a, b):
        res = runner.invoke(main, ["cover", "--config", cfg,
                                   "--out", str(path)])
        assert res.exit_code == 0, res.output
        assert "T_meas" in res.output
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    assert data["overlap_measured"] <= 17600


def test_cover_missing_mesh(runner, tmp_path):
    res = runner.invoke(main, ["cover", "--mesh-path",
                               str(tmp_path / "nope.off")])
    assert res.exit_code == 2


def test_solve_report(runner, tmp_path):
    cfg = _cfg(tmp_path, r=1.5, degrees=[1])
    res = runner.invoke(main, ["solve", "--config", cfg])
    assert res.exit_code == 0, res.output
    out = Path(json.loads(Path(cfg).read_text())["out_dir"])
    rep = json.loads((out / "solve_report.json").read_text())
    assert rep["all_passed"]
    assert "threads" not in rep and "alpha_q" not in rep["config"]
    names = {c["name"] for c in rep["checks"]}
    assert "rsm_identity_p1" in names and "rsm_ledger_p1" in names
    assert (out / "trace_p1.json").exists()
    assert (out / "trace_p1.csv").exists()


def test_solve_neumann_series(runner, tmp_path):
    # the flat/curved series agrees with the direct patch solve
    cfg = _cfg(tmp_path, mesh={"kind": "bumpy_torus", "resolution": 12,
                               "distortion": 0.3},
               degrees=[0, 1, 2], neumann_series=True)
    res = runner.invoke(main, ["solve", "--config", cfg])
    assert res.exit_code == 0, res.output
    out = Path(json.loads(Path(cfg).read_text())["out_dir"])
    checks = {c["name"]: c for c in json.loads(
        (out / "solve_report.json").read_text())["checks"]}
    for p in (0, 1, 2):
        check = checks[f"neumann_agreement_p{p}"]
        assert check["passed"]
        assert check["details"]["agreement"] <= 1e-12


def test_solve_neumann_degenerate_chart_is_usage_error(runner, tmp_path):
    # cells of ball 0 have zero volume in its chart, which leaves the
    # flat operator at degree 2 undefined
    cfg = _cfg(tmp_path, mesh={"kind": "flat_torus_3d", "resolution": 5},
               degrees=[2], neumann_series=True)
    res = runner.invoke(main, ["solve", "--config", cfg])
    assert res.exit_code == 2, res.output
    assert "ball 0: the chart metric degenerates" in res.output


@pytest.mark.parametrize("k,expected", [(None, 2), (1, 1)])
def test_solve_steps_from_threshold(runner, tmp_path, k, expected):
    # r = 1.5, n = 2: S_1 = 6 < s = 8 <= S_2, so k = null runs two steps
    cfg = _cfg(tmp_path, mesh={"kind": "flat_torus", "resolution": 12},
               r=1.5, s=8.0, k=k)
    res = runner.invoke(main, ["solve", "--config", cfg])
    assert res.exit_code == 0, res.output
    out = Path(json.loads(Path(cfg).read_text())["out_dir"])
    trace = json.loads((out / "trace_p1.json").read_text())
    assert trace["k"] == expected


def test_decompose_pass_and_report(runner, tmp_path):
    cfg = _cfg(tmp_path, degrees=[1], num_forms=2)
    res = runner.invoke(main, ["decompose", "--config", cfg])
    assert res.exit_code == 0, res.output
    out = Path(json.loads(Path(cfg).read_text())["out_dir"])
    rep = json.loads((out / "decompose_report.json").read_text())
    assert rep["all_passed"]
    spec = json.loads((out / "spectrum_p1.json").read_text())
    assert spec["harmonic_dim"] == 2
    checks = {c["name"]: c for c in rep["checks"]}
    assert checks["exact_form_projection_p1"]["passed"]


def test_decompose_injected_failure(runner, tmp_path):
    cfg = _cfg(tmp_path, degrees=[1], num_forms=1)
    res = runner.invoke(main, ["decompose", "--config", cfg,
                               "--harmonic-tol", "1e-30"])
    assert res.exit_code == 1
    out = Path(json.loads(Path(cfg).read_text())["out_dir"])
    rep = json.loads((out / "decompose_report.json").read_text())
    checks = {c["name"]: c for c in rep["checks"]}
    assert not checks["spectrum_p1"]["passed"]
    assert checks["spectrum_p1"]["details"]["cluster_flag"]


def test_decompose_rank_check_not_run_on_torus3d8(runner, tmp_path):
    cfg = _cfg(tmp_path, mesh={"kind": "flat_torus_3d", "resolution": 8},
               degrees=[1], num_forms=0)
    res = runner.invoke(main, ["decompose", "--config", cfg])
    assert res.exit_code == 0, res.output
    out = Path(json.loads(Path(cfg).read_text())["out_dir"])
    rep = json.loads((out / "decompose_report.json").read_text())
    checks = {c["name"]: c for c in rep["checks"]}
    assert checks["rank_identity_p1"]["passed"] is None
    assert "not_run" in checks["rank_identity_p1"]["details"]
    assert rep["all_passed"]
    res = runner.invoke(main, ["report", "--config", cfg])
    assert res.exit_code == 0
    assert "NOT RUN rank_identity_p1" in res.output


def test_decompose_deterministic(runner, tmp_path):
    reports = []
    for sub in ("one", "two"):
        d = tmp_path / sub
        cfg = _cfg(d, degrees=[1], num_forms=1)
        res = runner.invoke(main, ["decompose", "--config", cfg])
        assert res.exit_code == 0, res.output
        out = Path(json.loads(Path(cfg).read_text())["out_dir"])
        rep = json.loads((out / "decompose_report.json").read_text())
        rep.pop("timestamp", None)
        rep["config"].pop("out_dir", None)
        reports.append(json.dumps(rep, sort_keys=True))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("k,steps", [(None, 1), (2, 2)])
def test_decompose_sweeps_follow_k(runner, tmp_path, monkeypatch, k, steps):
    # decompose runs k gluing sweeps per decomposition, as solve runs k
    # raising steps; k = null keeps the default (r = 1.5, s = 2, n = 2:
    # S_1 = 6 >= 2, one sweep), and its report equals that of "k": 1
    calls = []
    real = rsm.sweep
    monkeypatch.setattr(rsm, "sweep",
                        lambda *a: calls.append(a) or real(*a))
    out = _run(runner, _cfg(tmp_path / "k", **{**_SMALL, "num_forms": 2,
                                               "k": k}), "decompose")
    assert len(calls) == 2 * steps
    if k is None:
        one = _run(runner, _cfg(tmp_path / "one", **{**_SMALL, "num_forms": 2,
                                                     "k": 1}), "decompose")
        got, want = (_output(d, "decompose_report.json") for d in (out, one))
        assert got["config"].pop("k") is None and want["config"].pop("k") == 1
        assert got == want


def test_decompose_d_dstar_mode(runner, tmp_path):
    # decompose --mode d_dstar passes every check at every degree, writes
    # the spectra of a delta run, and a rerun writes the same report but
    # for its timestamp
    cfg = {**_SMALL, "degrees": [0, 1, 2]}
    delta = _run(runner, _cfg(tmp_path / "delta", **cfg), "decompose")
    split = _cfg(tmp_path / "split", **cfg)
    out = _run(runner, split, "decompose --mode d_dstar")
    first = _output(out, "decompose_report.json")
    assert first["all_passed"] and first["config"]["d_dstar"]
    for p in range(3):
        name = f"spectrum_p{p}.json"
        assert _output(out, name) == _output(delta, name)
    _run(runner, split, "decompose --mode d_dstar")
    assert _output(out, "decompose_report.json") == first


def test_verify_all_margins(runner, tmp_path):
    cfg = _cfg(tmp_path, degrees=[1], r=1.5)
    res = runner.invoke(main, ["verify", "--config", cfg])
    assert res.exit_code == 0, res.output
    out = Path(json.loads(Path(cfg).read_text())["out_dir"])
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["all_passed"]
    names = {c["name"] for c in rep["checks"]}
    assert {"radius_lipschitz", "overlap", "partition_sums",
            "5s4_i_p1", "5s6_p1", "czi_p1"} <= names


def test_verify_empty_degrees(runner, tmp_path):
    cfg = _cfg(tmp_path, degrees=[], r=1.5)
    res = runner.invoke(main, ["verify", "--config", cfg])
    assert res.exit_code == 0, res.output


def test_report_summarizes(runner, tmp_path):
    cfg = _cfg(tmp_path, degrees=[1], r=1.5)
    assert runner.invoke(main, ["verify", "--config", cfg]).exit_code == 0
    res = runner.invoke(main, ["report", "--config", cfg])
    assert res.exit_code == 0
    assert "verify" in res.output


def test_report_missing_dir(runner, tmp_path):
    cfg = _cfg(tmp_path / "empty")
    res = runner.invoke(main, ["report", "--config", cfg])
    assert res.exit_code == 2


@pytest.mark.parametrize("text", [
    '{"all_passed": true, "checks": [',
    '[{"name": "overlap", "passed": true, "details": {}}]',
    '{"all_passed": false, "checks": [{"name": "overlap", "details": {}}]}',
], ids=["unparsable", "list", "check_without_passed"])
def test_report_malformed_is_usage_error(runner, tmp_path, text):
    # a report that is no JSON, not an object or holds a check without
    # passed is a usage error naming the file, not a traceback
    cfg = _cfg(tmp_path)
    out = tmp_path / "runs"
    out.mkdir()
    (out / "a_report.json").write_text(json.dumps(
        {"all_passed": True, "checks": [
            {"name": "overlap", "passed": True, "details": {}}]}))
    (out / "b_report.json").write_text(text)
    res = runner.invoke(main, ["report", "--config", cfg])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert str(out / "b_report.json") in res.output

def test_bad_config_file(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = runner.invoke(main, ["cover", "--config", str(bad)])
    assert res.exit_code == 2


@pytest.mark.parametrize("command,config,flags", [
    ("cover", {"mesh": 5}, []),
    ("cover", {"epsilon": "a"}, []),
    ("cover", {"mesh": {"resolution": "x"}}, []),
    ("cover", [1, 2], []),
    ("cover", {"r": 3.0}, []),
    ("cover", {"divisor": 2}, []),
    ("cover", {}, ["--divisor", "2"]),
    ("solve", {"degrees": 1}, []),
    ("solve", {"degrees": [5]}, []),
    ("solve", {"r": 3.0}, []),
    ("solve", {"s": 1.2}, []),
    ("solve", {"seed": -1}, []),
    ("solve", {"mesh": {"kind": "flat_torus_3d", "resolution": 1}}, []),
    ("cover", {"epsilom": 0.2}, []),
    ("solve", {"alpha": 0.0}, []),
    ("cover", {"mesh": {"kind": "sphere", "resolutoin": 8}}, []),
], ids=["mesh_number", "epsilon_string", "resolution_string", "list",
        "r_above_2", "divisor_below_8", "divisor_flag", "degrees_number",
        "degree_above_n", "solve_r_above_2", "s_below_r", "negative_seed",
        "torus3d_resolution", "unknown_key", "unknown_key_solve",
        "unknown_mesh_key"])
def test_malformed_config_is_usage_error(runner, tmp_path, command, config,
                                         flags):
    path = tmp_path / "config.json"
    if isinstance(config, dict):
        config = {"mesh": {"kind": "flat_torus", "resolution": 8},
                  "out_dir": str(tmp_path / "runs"), **config}
    path.write_text(json.dumps(config))
    res = runner.invoke(main, [command, "--config", str(path), *flags])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("config,key", [
    ({"epsilom": 0.2}, "epsilom"),
    ({"mesh": {"kind": "sphere", "resolutoin": 8}}, "mesh.resolutoin"),
    ({"alpha_q": 0.0}, "alpha_q"),  # retired: it did nothing
])
def test_unknown_config_key_is_named(runner, tmp_path, config, key):
    # a misspelt key would otherwise run the default silently
    res = runner.invoke(main, ["cover", "--config", _cfg(tmp_path, **config)])
    assert res.exit_code == 2
    assert f"unknown config key {key}" in res.output


@pytest.mark.parametrize("text", [
    "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",   # one open triangle
    "OFF\nxx\n",                                   # unreadable header
])
def test_cover_malformed_mesh_is_usage_error(runner, tmp_path, text):
    path = tmp_path / "bad.off"
    path.write_text(text)
    res = runner.invoke(main, ["cover", "--mesh-path", str(path),
                               "--out", str(tmp_path / "cov.json")])
    assert res.exit_code == 2
    assert "cannot read mesh" in res.output
    assert not isinstance(res.exception, geometry.MeshError)


_TET_LINES = ["OFF", "4 4 0", "0 0 0", "1 0 0", "0 1 0", "0 0 1",
              "3 0 2 1", "3 0 1 3", "3 1 2 3", "3 0 3 2"]
_OFF_TOKENS = st.sampled_from(
    ["OFF", "0", "1", "2", "3", "4", "5", "-1", "0.5", "1e999", "nan",
     "-inf", "x", "#", "99999999999999999999", "3 0 1"])


@st.composite
def _malformed_off(draw):
    """A closed tetrahedron's OFF text with lines dropped or duplicated
    and tokens dropped, replaced or inserted, UTF-8 encoded; or arbitrary
    bytes after the OFF header."""
    if draw(st.booleans()):
        return b"OFF\n" + draw(st.binary(max_size=60))
    lines = [ln.split() for ln in _TET_LINES]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines[i])))
        edit = draw(st.sampled_from(["drop", "duplicate", "token"]))
        if edit == "drop" and len(lines) > 1:
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, list(lines[i]))
        elif j < len(lines[i]) and draw(st.booleans()):
            lines[i][j] = draw(_OFF_TOKENS)
        else:
            lines[i].insert(j, draw(_OFF_TOKENS))
    return ("\n".join(" ".join(ln) for ln in lines) + "\n").encode()


@settings(max_examples=150, deadline=None)
@given(data=_malformed_off())
@example(data="\n".join(_TET_LINES[:6] + ["3 0 2 99999999999999999999"]
                         + _TET_LINES[7:]).encode())
@example(data="\n".join(_TET_LINES[:2] + ["nan 0 0"]
                         + _TET_LINES[3:]).encode())
@example(data=("\n".join(_TET_LINES) + "\n# caf\u00e9\n").encode("latin-1"))
def test_load_mesh_fuzz(data):
    # malformed OFF data is a MeshError, and CLI cover exits 2 on it
    # without a traceback; data that still describes a closed oriented
    # mesh loads
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.off"
        path.write_bytes(data)
        try:
            m = geometry.load_mesh(path)
        except geometry.MeshError:
            res = CliRunner().invoke(main, ["cover", "--mesh-path", str(path),
                                            "--out", str(Path(tmp) / "c.json")])
            assert res.exit_code == 2, res.output
            assert isinstance(res.exception, SystemExit)
            assert "cannot read mesh" in res.output
        else:
            assert euler_characteristic(m) == 2


def test_degenerate_covering_is_usage_error(runner, tmp_path):
    # every simplex of ball 0's patch touches its boundary; with no saved
    # covering, solve, decompose and verify refuse it with the message
    # cover gives
    cfg = _cfg(tmp_path, mesh={"kind": "flat_torus_3d", "resolution": 4})
    errors = {}
    for cmd in ("cover", "solve", "decompose", "verify"):
        res = runner.invoke(main, [cmd, "--config", cfg])
        assert res.exit_code == 2, (cmd, res.output)
        assert isinstance(res.exception, SystemExit)
        errors[cmd] = res.output.splitlines()[-1]
    assert not (tmp_path / "runs" / "covering.json").exists()
    assert errors["cover"].startswith("Error: ball 0 (center 0, radius 1)")
    assert "radius floor R_min = 1.48" in errors["cover"]
    assert set(errors.values()) == {errors["cover"]}


def test_coverage_error_is_usage_error(runner, tmp_path, monkeypatch):
    # the CLI matches CoverageError by name (it imports no numerical
    # module to catch it): exit 2 with its message; another RuntimeError
    # stays an error
    cfg = _cfg(tmp_path, mesh={"kind": "flat_torus", "resolution": 8})
    for error, code in ((covering.CoverageError("vertex 3 lies in no "
                                                "covering ball"), 2),
                        (RuntimeError("vertex 3 lies in no covering ball"),
                         1)):
        def fail(m, rf, error=error):
            raise error
        monkeypatch.setattr(covering, "vitali_cover", fail)
        res = runner.invoke(main, ["cover", "--config", cfg])
        assert res.exit_code == code, res.output
        assert isinstance(res.exception, SystemExit) == (code == 2)
        assert ("vertex 3 lies in no covering ball" in res.output) \
            == (code == 2)


def test_cover_rejects_mesh_too_coarse_for_the_floor(runner, tmp_path):
    # the 3-torus 4 fails in cover, naming the radius floor, not later
    # in the local solver
    cfg = _cfg(tmp_path, mesh={"kind": "flat_torus_3d", "resolution": 4})
    res = runner.invoke(main, ["cover", "--config", cfg])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "radius floor R_min = 1.48" in res.output
    assert not (tmp_path / "runs" / "covering.json").exists()


# -- the covering `cover` saves and later commands reuse ----------------

_SMALL = {"mesh": {"kind": "flat_torus", "resolution": 12}, "r": 1.5,
          "degrees": [1], "num_forms": 1}
_OUTPUTS = ("solve_report.json", "decompose_report.json",
            "verify_report.json", "trace_p1.json", "trace_p1.csv",
            "spectrum_p1.json")


@pytest.fixture()
def radius_fields(monkeypatch):
    """Counts the calls of covering.compute_radius_field."""
    calls = []
    real = covering.compute_radius_field
    monkeypatch.setattr(covering, "compute_radius_field",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def _run(runner, cfg, *commands):
    for cmd in commands:
        res = runner.invoke(main, [*cmd.split(), "--config", cfg])
        assert res.exit_code == 0, res.output
    return Path(json.loads(Path(cfg).read_text())["out_dir"])


def _output(out, name):
    """An output file; reports without their timestamp and out_dir."""
    if not name.endswith("_report.json"):
        return (out / name).read_bytes()
    rep = json.loads((out / name).read_text())
    rep.pop("timestamp")
    rep["config"].pop("out_dir")
    return rep


def test_commands_reuse_saved_covering(runner, tmp_path, radius_fields):
    saved = _run(runner, _cfg(tmp_path / "saved", **_SMALL), "cover")
    fresh = _run(runner, _cfg(tmp_path / "fresh", **_SMALL), "cover")
    (fresh / "covering.json").unlink()
    radius_fields.clear()
    _run(runner, str(tmp_path / "saved" / "config.json"),
         "solve", "decompose", "verify")
    assert radius_fields == []
    _run(runner, str(tmp_path / "fresh" / "config.json"),
         "solve", "decompose", "verify")
    assert len(radius_fields) == 3
    for name in _OUTPUTS:
        assert _output(saved, name) == _output(fresh, name), name


def _loaded(path):
    """The fields of a saved covering, as load_covering reads them."""
    rf, cov, key = covering.load_covering(path)
    chi = cov.chi.tocsr()
    return (key, rf.values.tolist(), rf.eps, rf.divisor, rf.divisor_effective,
            cov.eps, cov.overlap_measured, chi.shape, chi.indptr.tolist(),
            chi.indices.tolist(), chi.data.tolist(),
            [(b.index, b.center, b.core_radius, b.covering_radius,
              b.admissible_radius) for b in cov.balls],
            cov.members.indptr.tolist(), cov.members.indices.tolist())


def _indent(path):
    path.write_text(json.dumps(json.loads(path.read_text()), indent=1,
                               sort_keys=True))


def _old_layout(path):
    """Rewrite a covering.json of the _SMALL mesh in the layout of
    earlier versions, with the chi_gradients field some of them wrote."""
    m = geometry.generate_test_manifold(_SMALL["mesh"]["kind"],
                                        _SMALL["mesh"]["resolution"])
    rf, cov, key = covering.load_covering(path)
    data = old_layout_covering(cov, rf, key)
    data["chi_gradients"] = chi_gradients(m, cov).tolist()
    path.write_text(json.dumps(data, sort_keys=True))


def test_indented_covering_file_still_loads(runner, tmp_path, radius_fields):
    # covering.json is compact; a file written indented, as before, under
    # the current key loads to the same covering and is not rebuilt
    out = _run(runner, _cfg(tmp_path / "indented", **_SMALL), "cover")
    path = out / "covering.json"
    text = path.read_text()
    assert "\n" not in text and "chi_gradients" not in text
    compact = _loaded(path)
    _indent(path)
    assert _loaded(path) == compact
    radius_fields.clear()
    _run(runner, str(tmp_path / "indented" / "config.json"), "solve")
    assert radius_fields == []


def test_old_layout_covering_file_is_rebuilt(runner, tmp_path,
                                             radius_fields):
    # a file in the layout of earlier versions under the current key lacks
    # the columns: each command rebuilds the covering, and its outputs are
    # those of a run on the file `cover` writes now
    saved = _run(runner, _cfg(tmp_path / "saved", **_SMALL), "cover")
    old = _run(runner, _cfg(tmp_path / "old", **_SMALL), "cover")
    _old_layout(old / "covering.json")
    radius_fields.clear()
    _run(runner, str(tmp_path / "saved" / "config.json"),
         "solve", "decompose", "verify")
    assert radius_fields == []
    _run(runner, str(tmp_path / "old" / "config.json"),
         "solve", "decompose", "verify")
    assert len(radius_fields) == 3
    for name in _OUTPUTS:
        assert _output(saved, name) == _output(old, name), name


def _truncate(path):
    text = path.read_text()
    path.write_text(text[:len(text) // 2])


def _edit(path, change):
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def _drop_key(path):
    _edit(path, lambda data: data.pop("key"))


def _drop_radius_field(path):
    _edit(path, lambda data: data.pop("radius_field"))


def _null_partition(path):
    _edit(path, lambda data: data.update(chi=None))


@pytest.mark.parametrize("cover,spoil", [
    ("cover --epsilon 0.2", None),
    ("cover", _truncate),
    ("cover", _drop_key),
    ("cover", _drop_radius_field),
    ("cover", _null_partition),
])
def test_unusable_saved_covering_is_rebuilt(runner, tmp_path, radius_fields,
                                            cover, spoil):
    out = _run(runner, _cfg(tmp_path / "stale", **_SMALL), cover)
    if spoil:
        spoil(out / "covering.json")
    radius_fields.clear()
    _run(runner, str(tmp_path / "stale" / "config.json"), "solve")
    assert len(radius_fields) == 1
    fresh = _run(runner, _cfg(tmp_path / "fresh", **_SMALL), "solve")
    for name in ("solve_report.json", "trace_p1.json"):
        assert _output(out, name) == _output(fresh, name), name


@pytest.mark.parametrize("body", ["{}", "[]", '{"balls": [], "eps": 0.1}'])
def test_malformed_saved_covering_is_rebuilt(runner, tmp_path, radius_fields,
                                             body):
    # valid JSON without the fields of a covering reads as no covering
    cfg = _cfg(tmp_path, mesh={"kind": "flat_torus", "resolution": 8})
    out = tmp_path / "runs"
    out.mkdir()
    (out / "covering.json").write_text(body)
    for cmd in ("solve", "decompose", "verify"):
        res = runner.invoke(main, [cmd, "--config", cfg])
        assert res.exit_code == 0, res.output
    assert len(radius_fields) == 3


@pytest.mark.parametrize("cmd", ["solve", "decompose", "verify"])
def test_unreadable_saved_covering_is_rebuilt(runner, tmp_path, radius_fields,
                                              cmd):
    # a covering.json that exists but cannot be read (a directory: the
    # permission bits that would make a file unreadable do not bind root)
    # reads as no covering
    cfg = _cfg(tmp_path, mesh={"kind": "flat_torus", "resolution": 8})
    (tmp_path / "runs" / "covering.json").mkdir(parents=True)
    res = runner.invoke(main, [cmd, "--config", cfg])
    assert res.exit_code == 0, res.output
    assert len(radius_fields) == 1


@pytest.mark.parametrize("cmd,taken", [
    ("cover", "runs/covering.json"),
    *((cmd, "runs") for cmd in ("cover", "solve", "decompose", "verify",
                                "generate")),
])
def test_unwritable_output_is_usage_error(runner, tmp_path, cmd, taken):
    # an output the command cannot create or write (covering.json a
    # directory, or out_dir a regular file) exits 2 naming the path, with
    # no traceback
    cfg = _cfg(tmp_path, mesh={"kind": "flat_torus", "resolution": 8})
    if taken.endswith(".json"):
        (tmp_path / taken).mkdir(parents=True)
    else:
        (tmp_path / taken).write_text("")
    res = runner.invoke(main, [cmd, "--config", cfg])
    assert res.exit_code == 2, res.output
    assert str(tmp_path / taken) in res.output
    assert "Traceback" not in res.output


def test_covering_of_another_rule_is_rebuilt(runner, tmp_path, radius_fields,
                                             monkeypatch):
    # a file keyed under another covering rule is not loaded, although
    # its covering is the one this rule builds
    with monkeypatch.context() as mp:
        mp.setattr(covering, "COVERING_RULE", covering.COVERING_RULE + 1)
        out = _run(runner, _cfg(tmp_path / "old", **_SMALL), "cover")
    old = json.loads((out / "covering.json").read_text())
    radius_fields.clear()
    _run(runner, str(tmp_path / "old" / "config.json"), "solve")
    assert len(radius_fields) == 1
    new = _run(runner, _cfg(tmp_path / "new", **_SMALL), "cover")
    current = json.loads((new / "covering.json").read_text())
    assert old.pop("key") != current.pop("key")
    assert old == current
