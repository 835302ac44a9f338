"""End-to-end CLI behavior: flags, file formats, exit codes, determinism."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SPECIES_100A = "# single transition, wavelength 100 a\n" \
    "E=0.06283185307179587 d=(1,1,1)\n"


def run_cli(*argv, cwd=None):
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin",
           "PYTHONHASHSEED": "0"}
    return subprocess.run([sys.executable, "-m", "wgdisp", *argv],
                          capture_output=True, text=True, env=env, cwd=cwd)


@pytest.fixture(scope="module")
def species_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("species") / "species.txt"
    path.write_text(SPECIES_100A)
    return str(path)


class TestModes:
    def test_square_guide_table(self):
        res = run_cli("modes", "--a", "1", "--b", "1", "--max-cutoff", "4.5")
        assert res.returncode == 0
        rows = [line.split(",")[0] + line.split(",")[1] + line.split(",")[2]
                for line in res.stdout.strip().splitlines()[1:]]
        assert rows == ["TE10", "TE01", "TM11", "TE11"]

    def test_rectangular_single_row(self):
        res = run_cli("modes", "--a", "1", "--b", "2", "--max-cutoff", "1.6")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert len(lines) == 2
        pol, m, n, k, _ = lines[1].split(",")
        assert (pol, m, n) == ("TE", "0", "1")
        assert float(k) == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_invalid_geometry_exit_2(self):
        res = run_cli("modes", "--a", "0", "--max-cutoff", "3")
        assert res.returncode == 2
        assert "a > 0" in res.stderr


class TestEnergy:
    def test_near_field_report_matches_free_space(self, species_file):
        res = run_cli("energy", "--z", "0.01", "--species1", species_file,
                      "--tail-tol", "1e-4")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["ratio_to_freespace_vdw"] == pytest.approx(1.0, abs=0.02)
        assert payload["total"] < 0.0
        assert payload["tail_estimate"] >= 0.0
        assert payload["inputs"]["conventions"]["tm_sign"] == "oracle-consistent"

    def test_missing_species_exit_2(self):
        res = run_cli("energy", "--z", "0.5")
        assert res.returncode == 2

    def test_malformed_species_exit_3(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("E=abc d=(0,0,1)\n")
        res = run_cli("energy", "--z", "0.5", "--species1", str(bad))
        assert res.returncode == 3
        assert ":1:" in res.stderr

    def test_missing_species_file_exit_3(self):
        res = run_cli("energy", "--z", "0.5", "--species1", "/nonexistent.txt")
        assert res.returncode == 3

    def test_mode_cap_exit_4(self, species_file):
        res = run_cli("energy", "--z", "0.002", "--species1", species_file,
                      "--tail-tol", "1e-6")
        assert res.returncode == 4
        assert "cap" in res.stderr

    @pytest.mark.parametrize("flag, value", [
        ("--tail-tol", "nan"), ("--tail-tol", "0"), ("--max-cutoff", "inf"),
    ])
    def test_bad_truncation_exit_2(self, species_file, flag, value):
        res = run_cli("energy", "--z", "0.5", "--species1", species_file,
                      flag, value)
        assert res.returncode == 2
        assert "must be positive and finite" in res.stderr

    def test_config_file_with_flag_override(self, species_file, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(f"z = 0.8\ntail_tol = 1e-8\n"
                        f"species1 = {species_file}\n")
        base = run_cli("energy", "--config", str(conf))
        assert base.returncode == 0
        z_base = json.loads(base.stdout)["inputs"]["z"]
        assert z_base == 0.8
        over = run_cli("energy", "--config", str(conf), "--z", "0.9")
        assert json.loads(over.stdout)["inputs"]["z"] == 0.9

    def test_unknown_config_key_exit_2(self, species_file, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("zz_top = 1\n")
        res = run_cli("energy", "--config", str(conf), "--z", "0.5",
                      "--species1", species_file)
        assert res.returncode == 2

    def test_si_annotation_block(self, species_file):
        res = run_cli("energy", "--z", "0.5", "--species1", species_file,
                      "--tail-tol", "1e-6", "--si-a-meters", "1e-6")
        payload = json.loads(res.stdout)
        assert payload["si_annotation"]["z_meters"] == pytest.approx(5e-7)


class TestSweep:
    def test_header_and_ratio_column(self, species_file):
        res = run_cli("sweep", "--z-min", "0.01", "--z-max", "0.02",
                      "--points", "3", "--species1", species_file,
                      "--tail-tol", "1e-4")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == ("z_over_a,U,U_freespace_vdw,U_freespace_cp,"
                            "ratio,tail_estimate")
        for line in lines[1:]:
            ratio = float(line.split(",")[4])
            assert ratio == pytest.approx(1.0, abs=0.02)

    def test_retarded_sweep_decay_constant(self, species_file):
        res = run_cli("sweep", "--z-min", "7", "--z-max", "10",
                      "--points", "8", "--species1", species_file,
                      "--tail-tol", "1e-8")
        assert res.returncode == 0
        rows = [list(map(float, line.split(",")))
                for line in res.stdout.strip().splitlines()[1:]]
        z = np.array([r[0] for r in rows])
        u = np.array([r[1] for r in rows])
        slope = np.polyfit(z, np.log(z * np.abs(u)), 1)[0]
        assert abs(slope + 2.0 * math.pi) / (2.0 * math.pi) < 0.01

    @pytest.mark.parametrize("tail_tol", ["nan", "0", "inf"])
    def test_bad_tail_tol_exit_2(self, species_file, tail_tol):
        res = run_cli("sweep", "--z-min", "0.5", "--z-max", "1", "--points",
                      "2", "--species1", species_file, "--tail-tol", tail_tol)
        assert res.returncode == 2
        assert "tail_tol must be positive and finite" in res.stderr

    def test_never_builds_per_mode(self, species_file, monkeypatch, capsys):
        from wgdisp import cli, energy

        def forbidden(self):
            raise AssertionError("sweep read FTensorResult.per_mode")
        monkeypatch.setattr(energy.FTensorResult, "per_mode",
                            property(forbidden))
        assert cli.main(["sweep", "--z-min", "0.5", "--z-max", "1",
                         "--points", "3", "--species1", species_file]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_single_point_exit_2(self, species_file):
        res = run_cli("sweep", "--z-min", "3", "--z-max", "6", "--points",
                      "1", "--species1", species_file)
        assert res.returncode == 2


class TestImport:
    def test_cli_import_leaves_quadrature_unloaded(self):
        # Only the quadrature oracle needs scipy.integrate, and importing
        # it costs a large share of every CLI start-up.
        code = ("import sys, wgdisp.cli; "
                "print('scipy.integrate' in sys.modules)")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env={"PYTHONPATH": str(SRC),
                                             "PATH": "/usr/bin:/bin"})
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"


class TestReproduce:
    def test_fig4_columns_and_agreement(self):
        res = run_cli("reproduce", "fig4")
        assert res.returncode == 0
        lines = [ln for ln in res.stdout.strip().splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == "z_over_a,direct_sum,integral_approx"
        worst = 0.0
        for line in lines[1:]:
            z, direct, approx = map(float, line.split(","))
            if z <= 0.1:
                worst = max(worst, abs(direct / approx - 1.0))
        assert worst <= 0.05

    def test_fig3a_semilog_linearity(self):
        res = run_cli("reproduce", "fig3a")
        rows = [list(map(float, ln.split(",")))
                for ln in res.stdout.strip().splitlines()
                if not ln.startswith("#") and not ln.startswith("z_over_a")]
        z = np.array([r[0] for r in rows])
        lnr = np.log([r[1] for r in rows])
        coeffs = np.polyfit(z, lnr, 1)
        fit = np.polyval(coeffs, z)
        r2 = 1.0 - np.sum((lnr - fit) ** 2) / np.sum((lnr - lnr.mean()) ** 2)
        assert r2 >= 0.999

    def test_fig3b_first_row_value(self):
        res = run_cli("reproduce", "fig3b")
        first = [ln for ln in res.stdout.strip().splitlines()
                 if not ln.startswith("#")][1]
        z, ratio = map(float, first.split(","))
        assert z == pytest.approx(10.0)
        assert ratio == pytest.approx(2.7596518297989975e-21, rel=1e-12)

    def test_unknown_figure_exit_2(self):
        res = run_cli("reproduce", "fig9")
        assert res.returncode == 2


class TestCoupling:
    def test_closed_and_quadrature_agree(self):
        res = run_cli("coupling", "--pol", "TM", "--m", "1", "--n", "1",
                      "--orient", "zz", "--z", "1", "--check-quadrature")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["closed_form"] == pytest.approx(0.6566821187788882,
                                                       rel=1e-12)
        assert payload["rel_difference"] < 1e-9


class TestOracleCheck:
    def test_default_run_passes(self):
        res = run_cli("oracle-check", "--seed", "7", "--cases", "4")
        assert res.returncode == 0
        assert "overall: PASS" in res.stdout

    def test_paper_literal_informational(self):
        res = run_cli("oracle-check", "--seed", "7", "--cases", "4",
                      "--convention", "paper-literal")
        assert res.returncode == 0
        assert "expected-mismatch" in res.stdout


class TestDeterminism:
    def test_energy_byte_identical(self, species_file):
        a = run_cli("energy", "--z", "0.8", "--species1", species_file,
                    "--tail-tol", "1e-8")
        b = run_cli("energy", "--z", "0.8", "--species1", species_file,
                    "--tail-tol", "1e-8")
        assert a.stdout == b.stdout and a.returncode == b.returncode == 0

    def test_sweep_byte_identical(self, species_file):
        argv = ("sweep", "--z-min", "3", "--z-max", "4", "--points", "3",
                "--species1", species_file, "--tail-tol", "1e-8")
        assert run_cli(*argv).stdout == run_cli(*argv).stdout

    def test_oracle_check_byte_identical(self):
        argv = ("oracle-check", "--seed", "99", "--cases", "3")
        assert run_cli(*argv).stdout == run_cli(*argv).stdout
