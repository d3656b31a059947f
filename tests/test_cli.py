import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import outer_dip_mixture
import wigentropy
from wigentropy import cli
from wigentropy.cli import main
from wigentropy.entropy import wigner_renyi
from wigentropy.fock import N_MAX
from wigentropy.mixtures import PhotonMixture, sigma_coefficients, thermal_mixture
from wigentropy.verification import run_suite

LN_PI_PLUS_1 = math.log(math.pi) + 1.0
VACUUM_GAUSSIAN = {"mean": [0.0, 0.0], "cov": [[0.5, 0.0], [0.0, 0.5]]}


@pytest.fixture
def runner():
    return CliRunner()


def write_state(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def parse_report(output):
    values = {}
    for line in output.strip().splitlines():
        key, _, value = line.partition(" = ")
        values[key] = float(value)
    return values


class TestEntropyCommand:
    def test_vacuum(self, runner, tmp_path):
        path = write_state(tmp_path, "vac.json", {"fock_probs": [1.0]})
        result = runner.invoke(main, ["entropy", path, "--renyi", "2"])
        assert result.exit_code == 0
        report = parse_report(result.output)
        assert report["h_wigner"] == pytest.approx(LN_PI_PLUS_1, abs=1e-9)
        assert report["margin_above_ln_pi_plus_1"] == pytest.approx(0.0, abs=1e-9)
        assert report["h_renyi_2"] == pytest.approx(math.log(2 * math.pi), abs=1e-8)
        assert report["purity"] == pytest.approx(1.0, abs=1e-12)

    def test_balanced_single_photon(self, runner, tmp_path):
        path = write_state(tmp_path, "b.json", {"fock_probs": [0.5, 0.5]})
        result = runner.invoke(main, ["entropy", path])
        assert result.exit_code == 0
        report = parse_report(result.output)
        expected = LN_PI_PLUS_1 + np.euler_gamma
        assert report["h_wigner"] == pytest.approx(expected, abs=1e-6)

    def test_gaussian_state(self, runner, tmp_path):
        doc = {"gaussian": {"mean": [0, 0], "cov": [[1.5, 0], [0, 1.5]]}}
        path = write_state(tmp_path, "g.json", doc)
        result = runner.invoke(main, ["entropy", path])
        assert result.exit_code == 0
        report = parse_report(result.output)
        assert report["h_wigner"] == pytest.approx(math.log(3 * math.pi) + 1.0, abs=1e-12)
        assert report["purity"] == pytest.approx(1 / 3, abs=1e-12)

    def test_wigner_negative_state_exits_3(self, runner, tmp_path):
        path = write_state(tmp_path, "f1.json", {"fock_probs": [0, 1.0]})
        result = runner.invoke(main, ["entropy", path])
        assert result.exit_code == 3
        assert "min W" in result.output
        assert "-0.318" in result.output
        assert "r = 0" in result.output

    def test_outer_dip_exits_3(self, runner, tmp_path):
        path = write_state(tmp_path, "dip.json", {"fock_probs": outer_dip_mixture().probs.tolist()})
        assert runner.invoke(main, ["entropy", path]).exit_code == 3

    @pytest.mark.parametrize("doc", [
        {"fock_probs": [0.5, 0.3, 0.2]},
        {"gaussian": {"mean": [0.3, -0.1], "cov": [[1.2, 0.2], [0.2, 0.8]]}},
    ], ids=["fock", "gaussian"])
    def test_order_one_row_repeats_h_wigner(self, runner, tmp_path, doc):
        path = write_state(tmp_path, "s.json", doc)
        result = runner.invoke(main, ["entropy", path, "--renyi", "2", "--renyi", "1"])
        assert result.exit_code == 0
        rows = dict(line.split(" = ") for line in result.output.splitlines())
        assert list(rows) == ["h_wigner", "h_renyi_2", "h_renyi_1", "h_wehrl", "purity",
                              "margin_above_ln_pi_plus_1"]
        assert rows["h_renyi_1"] == rows["h_wigner"]

    def test_renyi_orders_on_negative_state_exit_3(self, runner, tmp_path):
        path = write_state(tmp_path, "f1.json", {"fock_probs": [0, 1.0]})
        result = runner.invoke(main, ["entropy", path, "--renyi", "2", "--renyi", "1"])
        assert result.exit_code == 3
        assert result.output == (
            "error: state is not Wigner positive: min W = -0.318309886183791 at r = 0\n"
        )

    def test_parse_error_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        result = runner.invoke(main, ["entropy", str(bad)])
        assert result.exit_code == 2

    def test_both_variants_rejected(self, runner, tmp_path):
        doc = {"fock_probs": [1.0], "gaussian": {"mean": [0, 0], "cov": [[0.5, 0], [0, 0.5]]}}
        path = write_state(tmp_path, "both.json", doc)
        result = runner.invoke(main, ["entropy", path])
        assert result.exit_code == 2

    def test_csv_output(self, runner, tmp_path):
        path = write_state(tmp_path, "vac.json", {"fock_probs": [1.0]})
        out = tmp_path / "report.csv"
        result = runner.invoke(main, ["entropy", path, "--out", str(out)])
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# tol=1e-10, version=")
        assert lines[1] == "quantity,value"

    @pytest.mark.parametrize("doc", [
        {"fock_probs": [float("nan"), 1.0]},
        {"gaussian": {"mean": [float("nan"), 0.0], "cov": [[0.5, 0.0], [0.0, 0.5]]}},
    ])
    def test_non_finite_state_exits_2(self, runner, tmp_path, doc):
        # json writes and reads bare NaN tokens
        path = write_state(tmp_path, "nan.json", doc)
        result = runner.invoke(main, ["entropy", path])
        assert result.exit_code == 2
        assert "cannot parse state file" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    # numpy would read each of these as some state
    @pytest.mark.parametrize("doc", [
        {"fock_probs": "1"}, {"fock_probs": []}, {"fock_probs": [True]},
        {"fock_probs": ["0.5", "0.5"]}, {"fock_probs": [[0.5], [0.5]]},
        {"gaussian": {"mean": ["0", 0], "cov": [[0.5, 0.0], [0.0, 0.5]]}},
        {"gaussian": {"mean": [0, 0, 0], "cov": [[0.5, 0.0], [0.0, 0.5]]}},
        {"gaussian": {"mean": [0, 0], "cov": [[0.5, "0"], [0.0, 0.5]]}},
        {"gaussian": {"mean": [0, 0], "cov": [0.5, 0.0, 0.0, 0.5]}},
        {"fock_probs": [0.5, [0.5]]}, {"fock_probs": [None, 1.0]},
        {"gaussian": [1]}, {"gaussian": {"mean": [0, 0]}},
    ], ids=["str", "empty", "bool", "strs", "nested", "mean-str", "mean-3", "cov-str", "cov-flat",
            "ragged", "null", "gaussian-list", "no-cov"])
    def test_numbers_outside_documented_shapes_exit_2(self, runner, tmp_path, doc):
        result = runner.invoke(main, ["entropy", write_state(tmp_path, "bad.json", doc)])
        assert result.exit_code == 2
        assert result.output.startswith("error: cannot parse state file: ")
        assert "h_wigner" not in result.output

    def test_photon_numbers_past_the_limit_exit_2(self, runner, tmp_path):
        # PhotonMixture's TruncationError is a ValueError, which load_state's callers catch
        length = N_MAX + 2
        path = write_state(tmp_path, "long.json", {"fock_probs": [1.0 / length] * length})
        result = runner.invoke(main, ["entropy", path])
        assert result.exit_code == 2
        assert result.output.startswith("error: cannot parse state file: ")
        assert "N_MAX" in result.output

    @pytest.mark.parametrize("doc, key", [
        ({"fock_probs": [1.0], "extra": 1}, "'extra'"),
        ({"fock_probs": [1.0], "Gaussian": VACUUM_GAUSSIAN}, "'Gaussian'"),
        ({"gaussian": VACUUM_GAUSSIAN, "gaussian ": VACUUM_GAUSSIAN}, "'gaussian '"),
        ({"gaussian": {**VACUUM_GAUSSIAN, "x": 1}}, "'x'"),
        ({"gaussian": {**VACUUM_GAUSSIAN, "covariance": [[1, 0], [0, 1]]}}, "'covariance'"),
        ({"gaussian": "vacuum"}, "'gaussian'"),
        ({"gaussian": None}, "'gaussian'"),
        ({"gaussian": [VACUUM_GAUSSIAN]}, "'gaussian'"),
    ], ids=["top-level", "misspelt-state", "trailing-space", "in-gaussian", "long-name",
            "gaussian-str", "gaussian-null", "gaussian-list"])
    def test_unknown_keys_exit_2_naming_the_key(self, runner, tmp_path, doc, key):
        path = write_state(tmp_path, "keys.json", doc)
        with pytest.raises(ValueError, match=re.escape(key)):
            cli.load_state(path)
        result = runner.invoke(main, ["entropy", path])
        assert result.exit_code == 2
        assert result.output.startswith("error: cannot parse state file: ")
        assert key in result.output
        assert "h_wigner" not in result.output

    # states whose printed digits move with any gap between the CLI's and the
    # library's tolerance: the CLI prints what the library computes
    @pytest.mark.parametrize("m, n", [(0, 1), (5, 10), (9, 10)])
    def test_prints_the_library_values(self, runner, tmp_path, m, n):
        probs = sigma_coefficients(m, n).coeffs.probs.tolist()
        path = write_state(tmp_path, "s.json", {"fock_probs": probs})
        result = runner.invoke(main, ["entropy", path, "--renyi", "0.5"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        for key, alpha in (("h_wigner", 1.0), ("h_renyi_0.5", 0.5)):
            assert f"{key} = {wigner_renyi(PhotonMixture(probs), alpha):.15g}" in lines

    def test_renyi_rows_share_one_positivity_report(self, runner, tmp_path, reports_made):
        # sigma(5,7) in Fock form is neither passive nor a SigmaState, so every
        # Wigner row is gated, each by the report the first row made
        path = write_state(tmp_path, "s.json",
                           {"fock_probs": sigma_coefficients(5, 7).coeffs.probs.tolist()})
        result = runner.invoke(main, ["entropy", path, "--renyi", "2", "--renyi", "0.5",
                                      "--renyi", "inf"])
        assert result.exit_code == 0
        assert len(reports_made) == 1

    def test_unwritable_out_is_one_line_error(self, runner, tmp_path):
        path = write_state(tmp_path, "vac.json", {"fock_probs": [1.0]})
        out = tmp_path / "missing" / "report.csv"
        result = runner.invoke(main, ["entropy", path, "--out", str(out)])
        assert result.exit_code == 1
        assert result.output.splitlines()[-1] == (
            f"error: cannot write {out}: No such file or directory")
        assert isinstance(result.exception, SystemExit)


class TestSigmaTableCommand:
    def test_single_cell(self, runner):
        result = runner.invoke(main, ["sigma-table", "--max", "0"])
        assert result.exit_code == 0
        rows = [l for l in result.output.splitlines() if not l.startswith(("#", "m,"))]
        assert len(rows) == 1
        m, n, entropy = rows[0].split(",")
        assert (m, n) == ("0", "0")
        assert float(entropy) == pytest.approx(LN_PI_PLUS_1, abs=1e-9)

    def test_three_by_three(self, runner):
        result = runner.invoke(main, ["sigma-table", "--max", "2"])
        assert result.exit_code == 0
        rows = [l for l in result.output.splitlines() if not l.startswith(("#", "m,"))]
        assert len(rows) == 9
        table = {}
        for row in rows:
            m, n, h = row.split(",")
            table[(int(m), int(n))] = float(h)
        assert table[(1, 0)] == pytest.approx(LN_PI_PLUS_1 + np.euler_gamma, abs=1e-6)
        for (m, n), h in table.items():
            assert h == table[(n, m)]
            assert h >= LN_PI_PLUS_1 - 1e-7

    def test_deterministic_output(self, runner, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            result = runner.invoke(main, ["sigma-table", "--max", "2", "--out", str(out)])
            assert result.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_directory_out_is_a_usage_error(self, runner, tmp_path, monkeypatch):
        cells = []
        monkeypatch.setattr(cli, "wigner_entropy_radial", lambda *args: cells.append(args))
        result = runner.invoke(main, ["sigma-table", "--max", "2", "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "is a directory" in result.output
        assert cells == []

    def test_no_jobs_flag(self, runner):
        result = runner.invoke(main, ["sigma-table", "--max", "0", "--jobs", "1"])
        assert result.exit_code == 2
        assert "No such option" in result.output

    def test_guard_on_max(self, runner):
        result = runner.invoke(main, ["sigma-table", "--max", "31"])
        assert result.exit_code != 0


class TestRegion2Command:
    def test_structure_and_anchors(self, runner):
        result = runner.invoke(main, ["region2", "--samples", "16"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0].startswith("# tol=0, version=")
        header = lines[1].split(",")
        assert header[0] == "kind"
        rows = [l.split(",") for l in lines[2:]]
        arcs = [r for r in rows if r[0] == "arc"]
        facets = [r for r in rows if r[0] == "facet"]
        tangents = [r for r in rows if r[0] == "tangent"]
        assert len(arcs) == len(facets) == 16
        assert len(tangents) >= 16  # anchor radii are appended when absent
        # arc end a=1 is the point (0, 1/2)
        last_arc = arcs[-1]
        assert float(last_arc[2]) == pytest.approx(0.0, abs=1e-15)
        assert float(last_arc[3]) == pytest.approx(0.5, abs=1e-15)
        # tangent at r=0: -2 p1 + 1 = 0, i.e. the facet p1 = 1/2
        t0 = tangents[0]
        assert float(t0[5]) == pytest.approx(-2.0)
        assert float(t0[6]) == pytest.approx(0.0)
        assert float(t0[7]) == pytest.approx(1.0)
        # tangent at r=1: -2 p2 + 1 = 0, i.e. p2 = 1/2
        r_one = [t for t in tangents if abs(float(t[1]) - 1.0) < 1e-12]
        assert len(r_one) == 1
        assert float(r_one[0][5]) == pytest.approx(0.0, abs=1e-13)
        assert float(r_one[0][6]) == pytest.approx(-2.0)

    def test_minimum_samples(self, runner):
        result = runner.invoke(main, ["region2", "--samples", "8"])
        assert result.exit_code != 0


RENYI_FLAGS = ["--renyi", "2", "--renyi", "0.5", "--renyi", "inf"]

#: sha256 of command outputs pinned byte for byte, CSV with its header; a
#: change that moves a digit (or the version in the header) updates the
#: digest and says why
PINNED_OUTPUTS = {
    "sigma-table --max 10":
        "a43ceada7dbe4e61b8fac340463f351550a6220b0f96ab30853d0eb697f1f366",
    "region2 --samples 128":
        "ae57327c892d012fb574917f415f87188723d6594312501391c63a74ba2f2bf4",
    "entropy thermal(2)":
        "8c958e2d6b26a41d1fc1f13a195c73917aa25c483cca9625efe2cbba9a5f5bd3",
    "entropy sigma(5,7)":
        "8e2b1da5e7cb71c4995d535769797875c7d0ad3976316b701245bdc014137c94",
}


@pytest.mark.parametrize("name", PINNED_OUTPUTS)
def test_output_is_byte_identical(runner, tmp_path, name):
    if name.startswith("entropy"):
        state = {"entropy thermal(2)": thermal_mixture(2.0),
                 "entropy sigma(5,7)": sigma_coefficients(5, 7).coeffs}[name]
        path = write_state(tmp_path, "state.json", {"fock_probs": state.probs.tolist()})
        out = tmp_path / "report.csv"
        result = runner.invoke(main, ["entropy", path, *RENYI_FLAGS, "--out", str(out)])
        output = out.read_bytes()
    else:
        result = runner.invoke(main, name.split())
        output = result.stdout.encode()
    assert result.exit_code == 0
    assert hashlib.sha256(output).hexdigest() == PINNED_OUTPUTS[name]


@pytest.mark.parametrize("command", [
    ["entropy", "STATE", "--quad-tol", "0"],
    ["entropy", "STATE", "--quad-tol", "nan"],
    ["entropy", "STATE", "--quad-tol", "inf"],
    ["entropy", "STATE", "--renyi", "0"],
    ["entropy", "STATE", "--renyi", "-1"],
    ["entropy", "STATE", "--renyi", "nan"],
    ["sigma-table", "--max", "1", "--quad-tol", "0"],
    ["verify", "--suite", "passive-mix", "--quad-tol", "0"],
    ["verify", "--suite", "fock-identity", "--seed", "-1"],
])
def test_out_of_range_option_is_a_usage_error(runner, tmp_path, command):
    path = write_state(tmp_path, "vac.json", {"fock_probs": [1.0]})
    result = runner.invoke(main, [path if arg == "STATE" else arg for arg in command])
    assert result.exit_code == 2
    assert "Invalid value" in result.output
    assert isinstance(result.exception, SystemExit)


class TestVerifyCommand:
    def test_pass_suite(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "passive-mix"])
        assert result.exit_code == 0
        assert "[PASS] passive-mix" in result.output

    def test_unknown_suite_exits_2(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "does-not-exist"])
        assert result.exit_code == 2

    def test_sigma_oracle_suite(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "sigma-oracle"])
        assert result.exit_code == 0
        assert "[PASS] sigma-oracle" in result.output

    def test_prints_the_library_report(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "wehrl-bridge"])
        assert result.exit_code == 0
        assert result.output == run_suite("wehrl-bridge")[0].report() + "\n"


@pytest.mark.parametrize("command", [
    ["sigma-table", "--max", "2"],
    ["verify", "--suite", "wehrl-bridge"],
], ids=["sigma-table", "verify"])
def test_unreachable_tolerance_is_one_line_error(runner, command):
    result = runner.invoke(main, [*command, "--quad-tol", "1e-300"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: tolerance 1e-300 (error budget ")
    assert len(result.output.splitlines()) == 1


def _run_python(*args):
    # a fresh interpreter that finds this checkout's package first
    src = os.path.dirname(os.path.dirname(os.path.abspath(wigentropy.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


_LOADED_SCIPY = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_import_does_not_load_scipy():
    # scipy is a test dependency only, and costs over half a second of start-up
    probe = _run_python("-c", "import sys, wigentropy, wigentropy.cli; " + _LOADED_SCIPY)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"


@pytest.mark.parametrize("command", [
    ["verify", "--suite", "all"],
    ["region2", "--samples", "16"],
    ["entropy", "STATE"],
    ["sigma-table", "--max", "1"],
])
def test_command_does_not_load_scipy(tmp_path, command):
    path = write_state(tmp_path, "mix.json", {"fock_probs": [0.5, 0.3, 0.2]})
    probe = _run_python("-c", "import sys; from wigentropy.cli import main; "
                        "main(sys.argv[1:], standalone_mode=False); " + _LOADED_SCIPY,
                        *[path if arg == "STATE" else arg for arg in command])
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("command", [
    ["entropy", "STATE"],
    ["sigma-table", "--max", "1"],
    ["region2", "--samples", "16"],
])
def test_command_does_not_load_numpy_ma(tmp_path, command):
    # np.unique and np.union1d import numpy.ma on their first call, 5-15 ms of
    # start-up; sigma(5,7) has touches, so its integrals sort their breakpoints
    path = write_state(tmp_path, "sigma.json",
                       {"fock_probs": sigma_coefficients(5, 7).coeffs.probs.tolist()})
    probe = _run_python("-c", "import sys; from wigentropy.cli import main; "
                        "main(sys.argv[1:], standalone_mode=False); "
                        "print('numpy.ma' in sys.modules)",
                        *[path if arg == "STATE" else arg for arg in command])
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.splitlines()[-1] == "False"


def test_import_does_not_load_fractions():
    # sigma coefficients divide exact integers directly; fractions and the
    # decimal module it imports cost ~1 ms of every start
    probe = _run_python("-c", "import sys, wigentropy, wigentropy.cli; "
                        "print('fractions' in sys.modules)")
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "False"


def test_import_does_not_start_thread_pool():
    # the convolution's thread pool, and its module, come with the first pooled call
    probe = _run_python("-c", "import sys, wigentropy, wigentropy.cli; "
                        "print('concurrent.futures.thread' in sys.modules)")
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "False"


def test_import_does_not_load_process_pool():
    # concurrent.futures.process loads multiprocessing, which nothing here needs
    probe = _run_python("-c", "import sys, wigentropy, wigentropy.cli; "
                        "print('concurrent.futures.process' in sys.modules)")
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "False"


def test_module_help_exits_0():
    probe = _run_python("-m", "wigentropy.cli", "--help")
    assert probe.returncode == 0, probe.stderr
    assert "Usage" in probe.stdout
