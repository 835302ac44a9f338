"""End-to-end CLI behavior: flags, file formats, exit codes, determinism."""

import contextlib
import functools
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

SRC = Path(__file__).resolve().parents[1] / "src"

SPECIES_100A = "# single transition, wavelength 100 a\n" \
    "E=0.06283185307179587 d=(1,1,1)\n"

# `reproduce fig4` as printed when direct_sum came from a block-summed odd
# lattice sum whose certified tail was below 1e-10 of the partial sum.
FIG4_LATTICE_SUM = """\
# figure fig4: direct axial-axial mode sum vs continuum approximation
# grid: geometric, 25 points, z_over_a in [0.01, 1]
z_over_a,direct_sum,integral_approx
0.01,25330.329402336742,25330.295910584442
0.012115276586285882,14244.305652826743,14244.272169821745
0.014677992676220698,8010.1763584952287,8010.1428883495591
0.017782794100389229,4504.4678180731526,4504.4343667985431
0.021544346900318832,2533.0630146441717,2533.0295910584464
0.026101572156825358,1424.4605999546709,1424.4272169821752
0.031622776601683791,801.04761226948278,801.01428883495657
0.038311868495572873,450.47667288100916,450.44343667985453
0.046415888336127774,253.33606760541994,253.30295910584471
0.056234132519034905,142.47564348715846,142.44272169821741
0.068129206905796116,80.134078182476145,80.101428883495686
0.082540418526801815,45.076596348824914,45.044343667985487
0.10000000000000001,25.361973553209353,25.330295910584439
0.12115276586285882,14.275120846966157,14.244272169821743
0.14677992676220691,8.0398064886352838,8.0101428883495718
0.17782794100389229,4.5324243191339368,4.5044343667985434
0.21544346900318834,2.5586974157667077,2.5330295910584457
0.26101572156825359,1.4469548261739937,1.4244272169821752
0.31622776601683794,0.81944970155824848,0.80101428883495629
0.38311868495572871,0.4638219051989122,0.4504434366798547
0.46415888336127775,0.26088919853886883,0.25330295910584466
0.56234132519034907,0.14407914953499035,0.14244272169821737
0.68129206905796114,0.076531546487981425,0.080101428883495696
0.82540418526801818,0.037960749108638683,0.045044343667985487
1,0.016948660836466331,0.025330295910584444
"""


def _refuse_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


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
        assert res.stderr == "error: guide width a must be positive and finite, got a=0.0\n"

    def test_mode_cap_exit_4_before_listing(self, monkeypatch, capsys):
        # About 1.6e9 modes lie below k = 1e5 in the unit square; the cap
        # must refuse the cutoff before a single mode is listed.
        from wgdisp import cli, waveguide

        def forbidden(*args, **kwargs):
            raise AssertionError("modes listed past the cap")
        monkeypatch.setattr(waveguide, "mode_arrays", forbidden)
        assert cli.main(["modes", "--max-cutoff", "1e5"]) == 4
        # The listing's own remedy: no energy is taken, so the free-space
        # form that energy and sweep point to is no remedy here.
        assert capsys.readouterr() == ("", "error: the cutoff needs ~1591613096 modes, "
                                           "exceeding the hard cap of 1000000; use a lower "
                                           "cutoff\n")

    def test_tiny_guide_lists_without_warnings(self):
        # (pi / a)^2 overflows to inf for a = 1e-300: that row holds no mode.
        res = run_cli("modes", "--max-cutoff", "10", "--a", "1e-300")
        assert (res.returncode, res.stderr) == (0, "")
        rows = [line.split(",")[:3] for line in res.stdout.splitlines()[1:]]
        assert rows == [["TE", "0", str(n)] for n in (1, 2, 3)]

    def test_subnormal_guide_lists_without_warnings(self):
        # pi / a overflows to inf for a = 1e-320: k_mn of the m >= 1
        # candidates is inf, past the cutoff, and no mode lies below it.
        res = run_cli("modes", "--max-cutoff", "1e-320", "--a", "1e-320")
        assert (res.returncode, res.stderr) == (0, "")
        assert res.stdout == "polarization,m,n,k_mn,omega_cutoff\n"

    def test_listing_prints_the_k_of_the_mode_sums(self, capsys):
        # Random guides, square and rational-ratio ones among them: each
        # printed k_mn is mode_arrays' k, the k of every mode sum, bit for
        # bit, in the documented order.  Rows whose math.hypot cutoffs (the
        # formula the listing once sorted by) differ by more than one ulp
        # keep that order; equal exact cutoffs such as TM41,33 and TM51,13 of
        # the 1 x 1 guide may swap.
        from wgdisp import cli
        from wgdisp.waveguide import Geometry, mode_arrays

        rng = np.random.default_rng(49)
        guides = [(1.0, 1.0, 300.0), (2.0, 1.0, 200.0), (3.0, 1.5, 150.0)]
        for trial in range(30):
            a = float(rng.uniform(0.3, 3.0))
            b = [a, a * int(rng.integers(1, 6)) / int(rng.integers(1, 6)),
                 float(rng.uniform(0.3, 3.0))][trial % 3]
            guides.append((a, b, float(rng.uniform(5.0, 40.0)) * math.pi / min(a, b)))
        for a, b, cutoff in guides:
            tables = mode_arrays(Geometry(a, b), cutoff)
            k_of = {(pol, m, n): k for pol in ("TM", "TE") for m, n, k in zip(
                *(tables[pol][key].tolist() for key in ("m", "n", "k")))}
            argv = ["modes", f"--a={a!r}", f"--b={b!r}", f"--max-cutoff={cutoff!r}"]
            assert cli.main(argv) == 0
            csv_rows = [(pol, int(m), int(n), float(k), float(w)) for pol, m, n, k, w in
                        (line.split(",") for line in capsys.readouterr().out.splitlines()[1:])]
            assert cli.main([*argv, "--format=json"]) == 0
            json_rows = [(row["polarization"], row["m"], row["n"], row["k_mn"],
                          row["omega_cutoff"]) for row in json.loads(capsys.readouterr().out)]
            assert csv_rows == json_rows and len(csv_rows) == len(k_of)
            assert all(k == w == k_of[pol, m, n] for pol, m, n, k, w in csv_rows)
            assert csv_rows == sorted(csv_rows, key=lambda r: (r[3], r[0] == "TE", -r[1], r[2]))
            highest = 0.0
            for _, m, n, _, _ in csv_rows:
                hyp = math.hypot(m * math.pi / a, n * math.pi / b)
                assert hyp >= highest - math.ulp(highest), (a, b, m, n)
                highest = max(highest, hyp)

    # Digests of the listings as printed when each was built whole, before
    # they were written in blocks: 159,174 rows take three blocks of 65,536,
    # and 404 rows 58 blocks of 7.
    @pytest.mark.parametrize("argv, block, digest", [
        (["modes", "--max-cutoff", "1000"], None,
         "10667426f7b73de95d0bb6f635146db9c6eabd319c8fd3a9883a084666637e19"),
        (["modes", "--max-cutoff", "60", "--a", "1", "--b", "0.7"], 7,
         "f661390d07902420a05d4b0c6d1e3aee404de60b9dc4cada125875d05a0c17bf"),
    ], ids=["three-blocks", "blocks-of-7"])
    def test_listing_in_blocks_keeps_its_bytes(self, tmp_path, capsys, monkeypatch, argv,
                                               block, digest):
        from wgdisp import cli
        block = block or cli._CSV_BLOCK
        monkeypatch.setattr(cli, "_CSV_BLOCK", block)
        lines = self._written(tmp_path, capsys, argv, digest)
        assert len(lines) > 2 and max(lines) == block

    # Digests of the JSON listings as json.dumps printed them whole, before
    # they were written in blocks: the same 159,174 and 404 modes, seven
    # lines each, and the empty listing.
    @pytest.mark.parametrize("argv, block, digest", [
        (["modes", "--max-cutoff", "1000"], None,
         "b56a610d5ac95dd435ee515ff5f2d3b1a43bce9a134905aaada69cc1d86ec7d4"),
        (["modes", "--max-cutoff", "60", "--a", "1", "--b", "0.7"], 7,
         "3850972aecac2ad487ac6138b7900411928d323bf6f4d342f04c8fa6a713df9d"),
        (["modes", "--max-cutoff", "1"], None, hashlib.sha256(b"[]\n").hexdigest()),
    ], ids=["three-blocks", "blocks-of-7", "empty"])
    def test_json_listing_in_blocks_keeps_its_bytes(self, tmp_path, capsys, monkeypatch, argv,
                                                    block, digest):
        from wgdisp import cli
        block = block or cli._CSV_BLOCK
        monkeypatch.setattr(cli, "_CSV_BLOCK", block)
        lines = self._written(tmp_path, capsys, [*argv, "--format", "json"], digest)
        assert max(lines) == (7 * block if len(lines) > 2 else 1)

    @staticmethod
    def _written(tmp_path, capsys, argv, digest) -> list[int]:
        """Check that ``argv`` prints the text of sha256 ``digest`` to stdout
        and through --out, and return the number of lines of each write."""
        from wgdisp import cli

        class Writes(io.StringIO):
            lines = []

            def write(self, text):
                self.lines.append(text.count("\n"))
                return super().write(text)
        with contextlib.redirect_stdout(Writes()) as out:
            assert cli.main(argv) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
        path = tmp_path / "modes.out"
        assert cli.main([*argv, "--out", str(path)]) == 0
        assert capsys.readouterr() == ("", "")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        return Writes.lines

    def test_infinite_cutoff_exit_2(self):
        res = run_cli("modes", "--max-cutoff", "inf")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == ("error: max_cutoff must be positive and finite, "
                              "got inf\n")


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

    def test_off_axis_pair_recovers_free_space(self, species_file, capsys):
        # The references are taken at the pair's true separation
        # r = |(x2 - x1, y2 - y1, z)|: a pair 0.0034a apart across the guide
        # at z = 0.001a reads a ratio near 1, where the references at r = z
        # gave 5.4e-4.  For isotropic species every direction's near-field
        # contraction is that of the axis, so the references are the library's at r.
        from wgdisp import cli, energy, species_io
        from wgdisp.errors import ValidityDomainWarning
        p1, p2, z = (0.498, 0.499), (0.501, 0.5005), 0.001
        assert cli.main(["energy", "--z", repr(z), "--species1", species_file,
                         "--x1", repr(p1[0]), "--y1", repr(p1[1]),
                         "--x2", repr(p2[0]), "--y2", repr(p2[1])]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["ratio_to_freespace_vdw"] - 1.0) < 1e-3
        sp = species_io.parse_species_file(species_file)
        r = math.hypot(p2[0] - p1[0], p2[1] - p1[1], z)
        assert report["freespace_vdw_tensor"] == pytest.approx(
            energy.u_freespace_vdw(sp, sp, r), rel=1e-14)
        with pytest.warns(ValidityDomainWarning):  # r is far below the wavelength
            assert report["freespace_cp"] == energy.u_freespace_cp(sp, sp, r)

    def test_refused_report_prints_no_warning(self, tmp_path, capsys):
        # The warnings of a report are shown once it returns, so a refused
        # report prints its one error line.  Warning filters are per
        # process: each run is a process of its own.
        from wgdisp import cli
        from wgdisp.errors import TightConfinementWarning
        path = tmp_path / "five.species"
        path.write_text("E=1.2566370614359172 d=(1,1,1)\n")  # wavelength 5 a
        argv = ["energy", "--z", "0.01", "--species1", str(path)]
        refused = run_cli(*argv, "--tail-tol", "1e-18")
        assert (refused.returncode, refused.stdout) == (2, "")
        assert refused.stderr.startswith("error: tail_tol=1e-18 is below the truncation bound")
        assert refused.stderr.count("\n") == 1
        kept = run_cli(*argv, "--tail-tol", "1e-6")
        notes = [f"{label} transition E=1.25664: wavelength/confinement ratio 5.00 < 10; "
                 f"tight-confinement accuracy degrades" for label in ("species1", "species2")]
        shown = [line.partition(": TightConfinementWarning: ")[2]
                 for line in kept.stderr.splitlines()[::2]]
        assert kept.returncode == 0 and shown == notes and kept.stderr.count("\n") == 4
        assert json.loads(kept.stdout)["warnings"] == notes
        with pytest.warns(TightConfinementWarning):
            assert cli.main([*argv, "--tail-tol", "1e-6"]) == 0
        assert capsys.readouterr().out == kept.stdout

    def test_missing_species_exit_2(self):
        res = run_cli("energy", "--z", "0.5")
        assert res.returncode == 2

    def test_malformed_species_exit_3(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("E=abc d=(0,0,1)\n")
        res = run_cli("energy", "--z", "0.5", "--species1", str(bad))
        assert res.returncode == 3
        assert ":1:" in res.stderr

    def test_dipole_with_overflowing_square_exit_3(self, tmp_path):
        # |d|^2 of (1e300, 0, 1) passes the largest double.
        bad = tmp_path / "bad.txt"
        bad.write_text("E=0.06 d=(1e300,0,1)\n")
        res = run_cli("energy", "--z", "1", "--species1", str(bad))
        assert (res.returncode, res.stdout) == (3, "")
        assert res.stderr == (f"error: {bad}:1: dipole vector must be short enough "
                              f"that |d|^2 is finite\n")

    @pytest.mark.parametrize("command", [["energy", "--z", "1"],
                                         ["sweep", "--z-min", "0.5", "--z-max", "1",
                                          "--points", "2"]])
    def test_energy_product_underflow_gives_infinite_cp(self, tmp_path, command):
        # E1 E2 = 1e-600 underflows to 0.0: the retarded reference is +inf,
        # named by the warning a tiny separation gets.
        tiny = tmp_path / "tiny.txt"
        tiny.write_text("E=1e-300 d=(0,0,1)\n")
        res = run_cli(*command, "--species1", str(tiny))
        assert res.returncode == 0
        zs = ["1"] if command[0] == "energy" else ["0.5", "1"]
        warned = [f"freespace_cp is not finite at z={z}: inf, its terms pass the "
                  f"largest double" for z in zs]
        if command[0] == "energy":
            assert res.stderr == ""
            report = json.loads(res.stdout)
            assert report["freespace_cp"] == math.inf
            assert report["warnings"] == warned
        else:
            assert res.stderr.splitlines() == [f"warning: {w}" for w in warned]
            assert [line.split(",")[3] for line in res.stdout.splitlines()[1:]] == ["inf"] * 2

    def test_missing_species_file_exit_3(self):
        res = run_cli("energy", "--z", "0.5", "--species1", "/nonexistent.txt")
        assert res.returncode == 3

    @pytest.mark.parametrize("flag, kind, bad, code", [("--species1", "species", "E=1", 3),
                                                       ("--config", "config", "z 0.5", 2)])
    def test_input_files_share_one_line_reader(self, tmp_path, capsys, flag, kind, bad, code):
        # Both files skip blank and '#' lines alike, number the rest from 1,
        # and refuse an unreadable file at line 0 with exit 3.
        from wgdisp import cli

        path = tmp_path / "input.txt"
        argv = ["energy", "--z", "0.5", flag, str(path)]
        assert cli.main(argv) == 3
        assert re.fullmatch(rf"error: {re.escape(str(path))}:0: cannot read {kind} file: "
                            rf"\[Errno 2\] [^\n]*\n", capsys.readouterr().err)
        path.write_text(f"# a comment\n\n   \n  # indented\n{bad}\n")
        assert cli.main(argv) == code
        assert capsys.readouterr().err.startswith(f"error: {path}:5: ")

    def test_mode_cap_exit_4(self, species_file):
        # A fixed cutoff lists the TE modes below it: ~1.6e9 below k = 1e5.
        res = run_cli("energy", "--z", "0.002", "--species1", species_file,
                      "--max-cutoff", "1e5", "--convention", "paper-literal",
                      "--x1", "0.3", "--y1", "0.4", "--x2", "0.6", "--y2", "0.55")
        assert res.returncode == 4
        assert "cap" in res.stderr

    @pytest.mark.parametrize("truncation, remedy", [
        (["--b", "1e-6"], "the splits list them at any separation, so use a/b nearer 1"),
        (["--max-cutoff", "1e5"], "use a lower cutoff"),
        (["--b", "1e-5", "--max-cutoff", "1e7"], "use a lower cutoff"),
    ])
    def test_mode_cap_names_the_option(self, species_file, capsys, truncation, remedy):
        # The cap message names what set the cutoff: the splits' screened
        # modes in a thin guide, or --max-cutoff, where a guide whose count
        # at k11 fits the cap has a lower cutoff that fits.
        from wgdisp import cli
        assert cli.main(["energy", "--z", "0.002", "--species1", species_file,
                         "--convention", "paper-literal", *truncation]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: the cutoff needs ~") and err.count("\n") == 1
        assert f"1000000; {remedy} or, at very small separations," in err

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
        assert res.stderr == f"error: {conf}:1: config key 'zz_top' is not an option of energy\n"

    def test_corner_prints_positive_zeros(self, species_file, capsys):
        from wgdisp import cli
        assert cli.main(["energy", "--z", "0.5", "--x1", "0", "--y1", "0",
                         "--x2", "1", "--y2", "1", "--species1", species_file]) == 0
        out = capsys.readouterr().out
        assert not re.search(r"-0\.0(?![0-9])", out)  # no negative zero, whatever else is negative
        report = json.loads(out)
        for value in (report["total"], report["per_level_pair"]["0,0"],
                      report["ratio_to_freespace_vdw"]):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    # top_modes of the report below as printed when energy sorted a map of
    # every mode's coupling in Python.
    TOP_MODES_GOLDEN = [("TM11", 0.3297700469654598), ("TM21", 0.11948470162374838),
                        ("TM31", 0.015479574712016511), ("TM12", 0.012439116564339815),
                        ("TE10", 0.01222516681376103)]

    def test_top_modes_without_per_mode(self, tmp_path, capsys):
        # energy ranks the stacked couplings, and prints what a Python sort
        # of every mode's coupling prints.
        from helpers import full_ranking, ranked_modes
        from wgdisp import cli
        species = tmp_path / "two.species"
        species.write_text("E=0.06283185307179587 d=(1,1,1)\n"
                           "E=0.10471975511965977 d=(0.3,0.5,1)\n")
        argv = ["energy", "--z", "0.8", "--species1", str(species), "--a", "1",
                "--b", "0.6", "--x1", "0.2", "--y1", "0.35", "--x2", "0.7",
                "--y2", "0.1", "--top-modes", "5"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert [entry["mode"] for entry in report["top_modes"]] \
            == [mode for mode, _ in self.TOP_MODES_GOLDEN]
        assert [entry["max_abs_f"] for entry in report["top_modes"]] == pytest.approx(
            [peak for _, peak in self.TOP_MODES_GOLDEN], rel=PINNED_RTOL, abs=0.0)
        # The same bytes as the report with top_modes from the Python sort.
        config = cli._pair_configuration(cli._parser().parse_args(argv), 0.8)
        full = full_ranking(config, 0.06283185307179587)
        report["top_modes"] = [{"mode": mode.label(), "max_abs_f": peak, "f": f.tolist()}
                               for mode, peak, f in ranked_modes(full, 5)]
        assert cli._json_dump(report) == out

    def test_builds_mode_indices_for_printed_modes_only(self, species_file,
                                                        monkeypatch, capsys):
        from wgdisp import cli, energy
        built = []

        class Counted(energy.ModeIndex):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()
        monkeypatch.setattr(energy, "ModeIndex", Counted)
        assert cli.main(["energy", "--z", "0.3", "--species1", species_file,
                         "--top-modes", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [mode.label() for mode in built] \
            == [entry["mode"] for entry in report["top_modes"]]
        assert len(built) == 3 and report["modes_used"] > 3

    @pytest.mark.parametrize("command", [
        ["energy", "--z", "0.5"],
        ["sweep", "--z-min", "0.5", "--z-max", "1", "--points", "2"],
    ])
    @pytest.mark.parametrize("epsilon", ["inf", "nan"])
    def test_non_finite_permittivity_exit_2(self, species_file, capsys,
                                            command, epsilon):
        from wgdisp import cli
        assert cli.main([*command, "--species1", species_file,
                         "--epsilon", epsilon]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: permittivity must be positive and "
                                f"finite, got {epsilon}\n")

    def test_negative_top_modes_exit_2(self, species_file, tmp_path, capsys):
        from wgdisp import cli
        conf = tmp_path / "run.conf"
        conf.write_text("top_modes = -3\n")
        for extra in (["--top-modes", "-3"], ["--config", str(conf)]):
            assert cli.main(["energy", "--z", "0.5", "--species1", species_file,
                             *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: top_modes must be non-negative, got -3\n"
        assert cli.main(["energy", "--z", "0.5", "--species1", species_file,
                         "--top-modes", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["top_modes"] == []

    def test_cutoff_below_every_mode_warns_of_nothing(self, species_file, capsys):
        # k_10 = pi > 1: nothing is summed, and an exact zero is no underflow.
        from wgdisp import cli

        assert cli.main(["energy", "--z", "0.5", "--species1", species_file,
                         "--max-cutoff", "1"]) == 0
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert (report["total"], report["modes_used"], report["warnings"]) == (0.0, 0, [])
        assert report["tail_estimate"] > 0.0 and err == ""

    def test_fixed_cutoff_that_certifies_nothing_warns(self, species_file, capsys):
        # At z = 0.01a a cutoff of 100 leaves a tail bound 2.2e9 times |total|
        # (the tail tolerance gives -208.44); the tolerance's report warns of
        # nothing, and neither does a cutoff whose bound is below |total|.
        from wgdisp import cli
        pair = ["--x1", "0.3", "--y1", "0.4", "--x2", "0.6", "--y2", "0.55",
                "--species1", species_file]
        reports = []
        for extra in (["--z", "0.01", "--max-cutoff", "100"], ["--z", "0.01"],
                      ["--z", "0.3", "--max-cutoff", "60"]):
            assert cli.main(["energy", *pair, *extra]) == 0
            out, err = capsys.readouterr()
            reports.append(json.loads(out))
            assert err == ""
        assert reports[0]["total"] == pytest.approx(-2.1008e5, rel=1e-4)
        assert reports[0]["warnings"] == [
            "total is uncertified at z=0.01: the truncation error bound 454116406327290.4 "
            "at max_cutoff=100 is 2.2e+09 times |total|"]
        assert reports[1]["total"] == pytest.approx(-208.44, rel=1e-4)
        assert reports[1]["warnings"] == reports[2]["warnings"] == []

    def test_top_mode_labels_are_distinct(self, species_file, capsys):
        # 290 modes of the 1 x 1 guide clear the envelope, TM1_11 and TM11_1
        # among them; joined without a separator both read TM111.
        from wgdisp import cli
        assert cli.main(["energy", "--z", "0.3", "--x1", "0.3", "--y1", "0.4", "--x2", "0.6",
                         "--y2", "0.55", "--max-cutoff", "60", "--top-modes", "400",
                         "--species1", species_file]) == 0
        labels = [entry["mode"] for entry in json.loads(capsys.readouterr().out)["top_modes"]]
        assert len(labels) == len(set(labels)) == 290
        assert {"TM1_11", "TM11_1", "TM11"} <= set(labels)

    def test_si_annotation_block(self, species_file):
        res = run_cli("energy", "--z", "0.5", "--species1", species_file,
                      "--tail-tol", "1e-6", "--si-a-meters", "1e-6")
        payload = json.loads(res.stdout)
        assert payload["si_annotation"]["z_meters"] == pytest.approx(5e-7)

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_si_a_meters_exit_2(self, species_file, tmp_path, capsys, value):
        from wgdisp import cli
        conf = tmp_path / "run.conf"
        conf.write_text(f"si_a_meters = {value}\n")
        for extra in (["--si-a-meters", value], ["--config", str(conf)]):
            assert cli.main(["energy", "--z", "0.5", "--species1", species_file,
                             *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: si_a_meters must be positive and "
                                    f"finite, got {float(value)!r}\n")

    @pytest.mark.parametrize("flag, value, message", [
        ("--z", "inf", "axial separation must be positive and finite, got z=inf"),
        ("--a", "inf", "guide width a must be positive and finite, got a=inf"),
        ("--b", "nan", "guide height b must be positive and finite, got b=nan"),
    ])
    def test_non_finite_input_is_named(self, species_file, flag, value, message):
        args = {"--z": "0.5", flag: value}
        res = run_cli("energy", "--species1", species_file,
                      *(item for pair in args.items() for item in pair))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == f"error: {message}\n"


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
        from wgdisp import cli, coupling

        def forbidden(*args):
            raise AssertionError("sweep built per-mode couplings")
        monkeypatch.setattr(coupling, "_mode_tensors", forbidden)
        assert cli.main(["sweep", "--z-min", "0.5", "--z-max", "1",
                         "--points", "3", "--species1", species_file]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_max_cutoff_matches_energy(self, species_file, capsys):
        from wgdisp import cli
        truncation = ["--species1", species_file, "--max-cutoff", "5",
                      "--tail-tol", "1e-12"]
        assert cli.main(["sweep", "--z-min", "0.5", "--z-max", "1",
                         "--points", "2", *truncation]) == 0
        rows = [line.split(",")
                for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 2
        for row in rows:
            assert cli.main(["energy", "--z", row[0], *truncation]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["inputs"]["truncation"] == {"max_cutoff": 5.0}
            assert float(row[1]) == report["total"]
            assert float(row[5]) == report["tail_estimate"]

    def test_tail_tol_rows_match_energy(self, tmp_path, capsys):
        # Every sweep row is the energy report at its z, bit for bit, with
        # the cutoff chosen per point from one shared mode table.
        from wgdisp import cli
        species = tmp_path / "two.txt"
        species.write_text("E=0.0628 d=(1,0.5,0.2)\nE=0.09 d=(0.3,1,0.7)\n")
        pair = ["--species1", str(species), "--b", "0.7", "--x1", "0.31",
                "--y1", "0.22", "--x2", "0.68", "--y2", "0.41",
                "--tail-tol", "1e-7"]
        assert cli.main(["sweep", "--z-min", "0.05", "--z-max", "2",
                         "--points", "4", *pair]) == 0
        rows = [line.split(",")
                for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 4
        for row in rows:
            assert cli.main(["energy", "--z", row[0], *pair]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["inputs"]["truncation"] == {"tail_tol": 1e-7}
            assert float(row[1]) == report["total"]
            assert float(row[4]) == report["ratio_to_freespace_vdw"]
            assert float(row[5]) == report["tail_estimate"]

    def test_underflow_warnings_on_stderr(self, species_file):
        # At 141a and 200a the pair energy underflows to 0 and every tail
        # bound to 0; each point's notes reach stderr once, stdout keeps
        # its rows.
        res = run_cli("sweep", "--z-min", "100", "--z-max", "200", "--points",
                      "3", "--species1", species_file)
        assert res.returncode == 0
        rows = [line.split(",") for line in res.stdout.splitlines()[1:]]
        assert [row[1] for row in rows[1:]] == ["0", "0"]
        assert [row[5] for row in rows] == ["0", "0", "0"]
        tail = ("warning: tail_estimate underflows at z={}: the truncation "
                "error bound 0.0 is below the smallest normal double")
        total = ("warning: total underflows at z={}: the pair energy 0.0 is "
                 "below the smallest normal double")
        assert res.stderr.splitlines() == [
            tail.format("100"), tail.format("141.421"), total.format("141.421"),
            tail.format("200"), total.format("200")]

    def test_each_note_written_once(self, tmp_path):
        # The corner note of every point is written once; the confinement
        # warnings Python prints itself are not repeated.
        species = tmp_path / "wide.txt"
        species.write_text("E=0.9 d=(1,1,1)\n")
        res = run_cli("sweep", "--z-min", "0.5", "--z-max", "1", "--points",
                      "3", "--species1", str(species), "--x1", "0", "--y1", "0")
        assert res.returncode == 0
        assert res.stderr.count("sits at the corner (0, 0)") == 1
        assert res.stderr.count("wavelength/confinement ratio 6.98 < 10") == 2
        assert "warning: species1 transition" not in res.stderr

    def test_bad_guide_refused_before_the_species_file(self, capsys):
        # sweep builds its pair as energy does: the guide first.
        from wgdisp import cli

        for argv in (["energy", "--z", "0.5"], ["sweep", "--z-min", "0.1", "--z-max", "1",
                                                "--points", "3"]):
            assert cli.main([*argv, "--a", "0", "--species1", "missing.txt"]) == 2
            assert capsys.readouterr() == ("", "error: guide width a must be positive and "
                                           "finite, got a=0.0\n")

    def test_single_point_exit_2(self, species_file):
        res = run_cli("sweep", "--z-min", "3", "--z-max", "6", "--points",
                      "1", "--species1", species_file)
        assert res.returncode == 2

    @pytest.mark.parametrize("z_min, z_max", [("1", "inf"), ("nan", "2"), ("inf", "inf")])
    def test_non_finite_range_exit_2(self, species_file, z_min, z_max):
        # Refused before the grid is built: one error line, no numpy warning.
        res = run_cli("sweep", "--z-min", z_min, "--z-max", z_max, "--points",
                      "3", "--species1", species_file)
        assert res.returncode == 2
        assert res.stdout == ""
        name, value = ("z-max", z_max) if math.isfinite(float(z_min)) else ("z-min", z_min)
        assert res.stderr == f"error: {name} must be positive and finite, got {float(value)!r}\n"


@pytest.mark.parametrize("command", [
    ["energy", "--z", "0.5"],
    ["sweep", "--z-min", "0.05", "--z-max", "1", "--points", "8"],
])
def test_one_mode_listing_per_run(species_file, monkeypatch, capsys, command):
    # A report or a sweep lists its mode table once: a larger cutoff lists
    # the whole table again, which stays cheap only while that holds.
    from wgdisp import cli, energy, waveguide
    calls = []
    listing = waveguide.mode_arrays

    def counted(*args, **kwargs):
        calls.append(args)
        return listing(*args, **kwargs)
    monkeypatch.setattr(waveguide, "mode_arrays", counted)
    monkeypatch.setattr(energy, "mode_arrays", counted)
    assert cli.main([*command, "--species1", species_file]) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.fixture(scope="module")
def four_levels(tmp_path_factory):
    path = tmp_path_factory.mktemp("species") / "four.txt"
    path.write_text("E=0.0628 d=(1,0,0)\nE=0.09 d=(0,1,0.5)\n"
                    "E=0.12 d=(0.3,0.2,1)\nE=0.2 d=(1,1,1)\n")
    return str(path)


@pytest.mark.parametrize("convention", ["oracle-consistent", "paper-literal"])
def test_fixed_cutoff_sums_once_per_separation(four_levels, monkeypatch, capsys,
                                               convention):
    # Under --max-cutoff the reference mode sum (its TM and unit TE tensors)
    # depends on neither the transition level nor the convention: a sweep of
    # a 4-level species takes it once per separation.
    from wgdisp import cli, energy
    calls = []  # (K, z) of each energy._mode_sum call
    mode_sum = energy._mode_sum

    def counted(table, z, K):
        calls.append((K, z))
        return mode_sum(table, z, K)
    monkeypatch.setattr(energy, "_mode_sum", counted)
    assert cli.main(["sweep", "--z-min", "0.02", "--z-max", "0.06", "--points", "8",
                     "--max-cutoff", "800", "--convention", convention,
                     "--species1", four_levels]) == 0
    capsys.readouterr()
    assert len(calls) == len(set(calls)) == 8


def test_levels_share_the_cross_terms(four_levels, capsys):
    # The paper-literal printed sums do not depend on the transition level:
    # the four levels of a report, and of each point of a sweep, share one
    # evaluation per separation.
    from wgdisp import cli, coupling
    printed = coupling._printed_sums
    off_centre = ["--convention", "paper-literal", "--x1", "0.3", "--y1", "0.4",
                  "--x2", "0.6", "--y2", "0.55", "--species1", four_levels]
    for command, separations in ((["energy", "--z", "0.05"], 1),
                                 (["sweep", "--z-min", "0.02", "--z-max", "0.06",
                                   "--points", "8"], 8)):
        printed.cache_clear()
        assert cli.main([*command, *off_centre]) == 0
        info = printed.cache_info()
        assert (info.misses, info.hits) == (separations, 3 * separations)
    capsys.readouterr()


def test_tm_split_bound_once_per_separation(four_levels, monkeypatch, capsys):
    # A TM bound is taken with its split: reproduce fig4 takes one per
    # separation of its grid, and an energy report takes its separation's
    # bound once for all four levels.
    from wgdisp import cli, coupling
    calls = []
    bound = coupling._tm_split_bound

    def counted(geom, z):
        calls.append(z)
        return bound(geom, z)
    monkeypatch.setattr(coupling, "_tm_split_bound", counted)
    assert cli.main(["reproduce", "fig4"]) == 0
    assert len(calls) == len(set(calls)) == cli.FIGURE_GRIDS["fig4"][2]
    calls.clear()
    assert cli.main(["energy", "--z", "0.5", "--species1", four_levels]) == 0
    capsys.readouterr()
    assert calls == [0.5]


class TestHugeSeparations:
    # Far past the guide width every energy and bound underflows: the runs
    # print zeros and name the underflow, under either convention.
    tail = ("tail_estimate underflows at z={}: the truncation error bound 0.0 "
            "is below the smallest normal double")
    total = ("total underflows at z={}: the pair energy 0.0 is below the "
             "smallest normal double")

    @pytest.mark.parametrize("convention", ["oracle-consistent", "paper-literal"])
    @pytest.mark.parametrize("z", ["1e45", "1e100", "1e300"])
    def test_energy(self, species_file, convention, z):
        res = run_cli("energy", "--z", z, "--species1", species_file,
                      "--convention", convention)
        assert (res.returncode, res.stderr) == (0, "")
        report = json.loads(res.stdout, parse_constant=_refuse_constant)
        assert report["total"] == 0.0 and report["tail_estimate"] == 0.0
        assert report["warnings"] == [self.tail.format(f"{float(z):g}"),
                                      self.total.format(f"{float(z):g}")]
        # The free-space references keep their value where it is a double.
        vdw, cp = report["freespace_vdw_tensor"], report["freespace_cp"]
        if z == "1e45":
            assert vdw == pytest.approx(-0.30235813531124522e-270, rel=1e-14)
            assert cp == pytest.approx(11.743525592223106e-315, rel=1e-8)
            assert report["ratio_to_freespace_vdw"] == 0.0
        else:
            # A ratio to a zero reference is null: RFC 8259 has no NaN.
            assert vdw == 0.0 and cp == 0.0
            assert report["ratio_to_freespace_vdw"] is None

    @pytest.mark.parametrize("convention", ["oracle-consistent", "paper-literal"])
    @pytest.mark.parametrize("z_max", ["1e45", "1e100", "1e300"])
    def test_sweep(self, species_file, convention, z_max):
        res = run_cli("sweep", "--z-min", "1", "--z-max", z_max, "--points", "3",
                      "--species1", species_file, "--convention", convention)
        assert res.returncode == 0
        rows = [line.split(",") for line in res.stdout.splitlines()[1:]]
        assert float(rows[0][1]) < 0.0
        assert [row[1] for row in rows[1:]] == ["0", "0"]
        assert [row[5] for row in rows[1:]] == ["0", "0"]
        lines = res.stderr.splitlines()
        assert len(lines) == 4 and all(line.startswith("warning: ") for line in lines)


class TestTinySeparations:
    # Below about 6e-47 the retarded reference's z^7 underflows to zero; it is
    # then taken through the binary exponent of z, and past the largest
    # double it prints as Infinity, as where z^7 is subnormal (1e-45), and
    # a warning names it.
    @pytest.mark.parametrize("z", ["1e-45", "1e-47"])
    def test_energy(self, species_file, capsys, z):
        from wgdisp import cli
        assert cli.main(["energy", "--z", z, "--species1", species_file]) == 0
        out = capsys.readouterr().out
        assert '"freespace_cp": Infinity' in out
        report = json.loads(out)
        assert report["freespace_cp"] == math.inf
        assert report["ratio_to_freespace_vdw"] == pytest.approx(1.0, abs=1e-12)
        assert report["warnings"] == [f"freespace_cp is not finite at z={z}: inf, its "
                                      f"terms pass the largest double"]

    def test_sweep(self, species_file, capsys):
        from wgdisp import cli
        assert cli.main(["sweep", "--z-min", "1e-48", "--z-max", "1e-46", "--points", "3",
                         "--species1", species_file]) == 0
        out, err = capsys.readouterr()
        assert err.splitlines() == [f"warning: freespace_cp is not finite at z={z}: inf, "
                                    f"its terms pass the largest double"
                                    for z in ("1e-48", "1e-47", "1e-46")]
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [row[3] for row in rows] == ["inf"] * 3
        assert all(float(row[4]) == pytest.approx(1.0, abs=1e-12) for row in rows)


    @pytest.mark.parametrize("argv", [
        ["energy", "--z", "1e-60"], ["energy", "--z", "1e-60", "--max-cutoff", "20"],
        ["energy", "--z", "1e-60", "--convention", "paper-literal"],
        ["energy", "--z", "1e-100"], ["energy", "--z", "1e-110"], ["energy", "--z", "1e-160"],
        ["energy", "--z", "5e-324"],
        ["sweep", "--z-min", "1e-60", "--z-max", "1e-40", "--points", "3"],
        ["sweep", "--z-min", "1e-160", "--z-max", "1e-150", "--points", "2"],
    ])
    def test_finite_warned_or_refused(self, species_file, capsys, argv):
        # Exit 0 with finite values or a warning naming each non-finite one,
        # or exit 2 with one error line; never a traceback or a RuntimeWarning.
        from wgdisp import cli
        with warnings.catch_warnings(record=True) as raised:
            warnings.simplefilter("always")
            code = cli.main([*argv, "--species1", species_file])
        out, err = capsys.readouterr()
        assert [w for w in raised if issubclass(w.category, RuntimeWarning)] == []
        assert "Traceback" not in err and "RuntimeWarning" not in err
        if code == 2:
            assert out == "" and err.startswith("error: axial separation z=")
            assert err.count("\n") == 1
            return
        assert code == 0
        if argv[0] == "energy":
            report = json.loads(out)
            for name in ("total", "tail_estimate"):
                assert math.isfinite(report[name]) or any(
                    note.startswith(f"{name} is not finite") for note in report["warnings"])
        else:
            for row in out.splitlines()[1:]:
                z, u, *_, tail = map(float, row.split(","))
                for name, value in (("total", u), ("tail_estimate", tail)):
                    assert math.isfinite(value) or \
                        f"warning: {name} is not finite at z={z:g}:" in err


class TestExtremeGuides:
    # Centred points and one level at lambda = 100 a.  Guides too small for
    # the splits' constants are refused; a guide whose splits alone list
    # more modes than the cap (an extreme aspect ratio) meets the cap before
    # any listing; thin guides within it return as before.
    # sha256 of the stdout of the thin guides that return.  At z = 1e-50 the
    # report names the retarded reference it prints as Infinity.
    RETURNED = {
        ("1e-5", "1"): "e879785cfa00e3733b84365f5f8453f9dd15c61acf3a45138de27426cf2a1aeb",
        ("1e-5", "1e-50"): "902fa4ca7a52a5b8abeb751f61c222ddf41fc24dc485a300dc4013c502c267f7",
        ("1e-4", "1"): "41d7cd93e978b2fbad37def5f47cabc5b3694f62aadde2343c0f628834d41210",
        ("1e-4", "1e-50"): "b17b65bf355ab4ef9bed7a67cfbafc017d4724ccff304e4714e70c20bd63f1d9",
    }

    def _run(self, tmp_path, capsys, a, b, z, *extra):
        from wgdisp import cli
        species = tmp_path / "species.txt"
        species.write_text(f"E={2.0 * math.pi / (100.0 * float(a))!r} d=(1,1,1)\n")
        with warnings.catch_warnings(record=True) as raised:
            warnings.simplefilter("always")
            code = cli.main(["energy", "--a", a, "--b", b, "--z", z,
                             "--species1", str(species), *extra])
        out, err = capsys.readouterr()
        assert [w for w in raised if issubclass(w.category, RuntimeWarning)] == []
        if code:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        return code, out, err

    @pytest.mark.parametrize("z", ["1", "1e-50"])
    @pytest.mark.parametrize("size", ["1e-300", "1e-200", "1e-155", "1e-150", "1e-140",
                                      "1e-130", "1e-120", "1e-100"])
    def test_too_small_refused(self, tmp_path, capsys, size, z):
        # Below 1e-162 a side's square underflows: Geometry refuses the guide.
        code, _, err = self._run(tmp_path, capsys, size, size, z)
        assert code == 2
        assert err == (f"error: guide a={size}, b={size} is too small: its area a*b "
                       f"underflows to 0\n" if float(size) ** 2 == 0.0 else
                       f"error: guide a={size}, b={size} is too small for the splits: they "
                       f"need 1e+06 (a + b), the largest z they take, at least 1e-60\n")

    def test_underflowing_area_refused(self, tmp_path, capsys):
        code, _, err = self._run(tmp_path, capsys, "1e-30", "1e-300", "1")
        assert (code, err) == (2, "error: guide a=1e-30, b=1e-300 is too small: its area a*b "
                                  "underflows to 0\n")

    @pytest.mark.parametrize("argv", [
        ["modes", "--max-cutoff", "10"],
        ["coupling", "--pol", "TM", "--m", "1", "--n", "1", "--orient", "zz", "--z", "1"],
        ["energy", "--z", "1", "--species1", "missing.txt"],
        ["sweep", "--z-min", "1", "--z-max", "2", "--points", "3", "--species1", "missing.txt"],
    ], ids=lambda argv: argv[0])
    def test_zero_area_refused_by_every_command(self, capsys, argv):
        # One rule, in Geometry, before anything else is read: coupling
        # refused per mode, energy and sweep named the splits, and modes
        # printed an empty listing.
        from wgdisp import cli
        assert cli.main([*argv, "--a", "1e-300", "--b", "1e-320"]) == 2
        assert capsys.readouterr() == ("", "error: guide a=1e-300, b=1e-320 is too small: its "
                                           "area a*b underflows to 0\n")

    @pytest.mark.parametrize("z", ["1", "1e-50"])
    @pytest.mark.parametrize("b, extra", [
        ("1e-8", ()), ("1e-8", ("--max-cutoff", "10")),
        ("1e-8", ("--convention", "paper-literal")),
        ("1e-12", ()), ("1e-40", ()), ("1e-6", ()), ("1e-300", ()),
        ("1e-6", ("--max-cutoff", "10")), ("1e-6", ("--max-cutoff", "1e7")),
    ])
    def test_thin_meets_the_cap_first(self, tmp_path, capsys, monkeypatch, b, extra, z):
        # The splits' own listing names the aspect ratio; so does a mode
        # sum's listing to K + k11, where even the count at k11 passes the
        # cap, so that no lower cutoff fits.
        from wgdisp import energy

        def unlisted(*args):
            raise AssertionError("listed modes past the cap")
        monkeypatch.setattr(energy, "mode_arrays", unlisted)
        code, _, err = self._run(tmp_path, capsys, "1", b, z, *extra)
        assert code == 4
        assert err.startswith("error: the cutoff needs ~")
        remedy = ("no cutoff fits the cap" if "--max-cutoff" in extra
                  else "the splits list them at any separation")
        assert f"; {remedy}, so use a/b nearer 1 or, at very small separations," in err

    @pytest.mark.parametrize("z", ["1", "1e-50"])
    @pytest.mark.parametrize("b", ["1e-5", "1e-4"])
    def test_thin_within_the_cap_returns(self, tmp_path, capsys, b, z):
        import hashlib
        code, out, _ = self._run(tmp_path, capsys, "1", b, z)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.RETURNED[b, z]


    @pytest.mark.parametrize("a, b", [("1e102", "1e102"), ("1e110", "1e110"),
                                      ("1e150", "1e150"), ("1e200", "1e200"),
                                      ("1e300", "1e300"), ("4.7e97", "5.5e94")])
    def test_too_large_refused(self, tmp_path, capsys, a, b):
        # The splits take the cube of distances up to 1e6 (a + b): past the
        # largest double (a + b above about 5.6e96) the guide is refused,
        # where overflows raised tracebacks, printed RuntimeWarnings or
        # claimed ~inf modes before.
        code, _, err = self._run(tmp_path, capsys, a, b, "1")
        assert code == 2
        assert err.startswith(f"error: guide a={float(a)!r}, b={float(b)!r} is too "
                              f"large for the splits")

    @pytest.mark.parametrize("convention", ["oracle-consistent", "paper-literal"])
    @pytest.mark.parametrize("z", ["1", "1e-30", "2.7e102"])
    def test_largest_guide_returns(self, tmp_path, capsys, convention, z):
        # Just inside that limit every separation up to 1e6 (a + b) returns,
        # the printed paper-literal sums included.
        code, out, _ = self._run(tmp_path, capsys, "2.7e96", "2.7e96", z,
                                 "--convention", convention)
        assert code == 0
        report = _finite_or_warned(out)
        assert report["total"] <= 0.0 and report["tail_estimate"] >= 0.0


def _finite_or_warned(out):
    """The energy report ``out``, parsed, once it is checked to print only
    finite values or to carry a warning."""
    constants = []
    report = json.loads(out, parse_constant=constants.append)
    assert not constants or report["warnings"]
    return report


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@st.composite
def _numeric_runs(draw):
    # An energy report or a 2-3 point sweep with every numeric input drawn:
    # a log-uniform over the double range, b/a within 1e3 either way, the
    # wavelength log-uniform from 0.3 to 300 times the larger side (past 10
    # times it a run carries no confinement warning), z from 1e-12 a to
    # 1e6 a, and optional points, --tail-tol, --max-cutoff and --epsilon.
    a = draw(_log_uniform(1e-300, 1e300))
    b = a * draw(_log_uniform(1e-3, 1e3))
    wavelength = max(a, b) * draw(_log_uniform(0.3, 300.0))
    argv = ["--a", repr(a), "--b", repr(b), "--convention",
            draw(st.sampled_from(["oracle-consistent", "paper-literal"]))]
    for name, length in (("--x1", a), ("--y1", b), ("--x2", a), ("--y2", b)):
        if draw(st.booleans()):
            argv += [name, repr(length * draw(st.floats(0.0, 1.0)))]
    if draw(st.booleans()):
        argv += ["--tail-tol", repr(draw(_log_uniform(1e-300, 1e300)))]
    elif draw(st.booleans()):
        argv += ["--max-cutoff", repr(draw(_log_uniform(1e-2, 1e8)) / a)]
    if draw(st.booleans()):
        argv += ["--epsilon", repr(draw(_log_uniform(1e-300, 1e300)))]
    z = a * draw(_log_uniform(1e-12, 1e6))
    if draw(st.booleans()):
        command = ["energy", "--z", repr(z)]
    else:
        command = ["sweep", "--z-min", repr(z), "--z-max",
                   repr(z * draw(_log_uniform(1.001, 1e6))),
                   "--points", str(draw(st.integers(2, 3)))]
    return command + argv, 2.0 * math.pi / wavelength


class TestNumericInputs:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(run=_numeric_runs())
    def test_exit_code_and_output(self, tmp_path_factory, capsys, run):
        # Any numeric input exits 0, 2, 3 or 4 with no traceback and no
        # RuntimeWarning; an error is one error: line, and exit 0 prints
        # only finite values or carries a warning.
        from wgdisp import cli
        argv, energy = run
        species = tmp_path_factory.mktemp("species") / "one.species"
        species.write_text(f"E={energy!r} d=(1,1,1)\n")
        with warnings.catch_warnings(record=True) as raised:
            warnings.simplefilter("always")
            code = cli.main([*argv, "--species1", str(species)])
        out, err = capsys.readouterr()
        assert [w for w in raised if issubclass(w.category, RuntimeWarning)] == []
        assert code in (0, 2, 3, 4) and "Traceback" not in err
        if code:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        elif argv[0] == "energy":
            _finite_or_warned(out)
        elif any(not math.isfinite(float(cell)) for line in out.splitlines()[1:]
                 for cell in line.split(",")):
            assert "warning: " in err


# Edge doubles for every numeric flag: zeros of both signs, a negative
# value, subnormal, tiny, ordinary, huge and non-finite values.
_EDGE_DOUBLES = ("0", "-0.0", "-1", "1e-320", "1e-300", "1e-12", "0.3", "1", "2.5", "1e12",
                 "1e300", "inf", "-inf", "nan")


@st.composite
def _edge_runs(draw):
    # A modes listing or one coupling, each numeric flag left out or drawn
    # from _EDGE_DOUBLES as --flag=value (so that argparse takes a leading
    # minus as a value), mode indices from zero, negative, small and huge
    # integers, and the coupling with or without the oracle under either
    # scheme and bundle.
    edge = st.sampled_from(_EDGE_DOUBLES)

    def optional(*flags):
        return [f"{flag}={draw(edge)}" for flag in flags if draw(st.booleans())]
    if draw(st.integers(0, 3)) == 0:
        return ["modes", f"--max-cutoff={draw(edge)}", *optional("--a", "--b"),
                *draw(st.sampled_from([[], ["--format", "json"]]))]
    index = st.sampled_from(["0", "-1", "1", "2", "3", "1000000"])
    argv = ["coupling", "--pol", draw(st.sampled_from(["TM", "TE"])), "--m", draw(index),
            "--n", draw(index), "--orient", draw(st.sampled_from([i + j for i in "xyz"
                                                                  for j in "xyz"])),
            f"--z={draw(edge)}", *optional("--a", "--b", "--x1", "--y1", "--x2", "--y2",
                                             "--energy")]
    if draw(st.booleans()):
        argv += ["--check-quadrature", "--scheme",
                 draw(st.sampled_from(["branch-cut-rotated", "real-axis-subtracted"]))]
    return argv + draw(st.sampled_from([[], ["--convention", "paper-literal"]]))


# The count cap on sweep points and oracle cases, and edge counts for
# --points and --top-modes: invalid, small, one past the cap and far past it.
COUNT_CAP = 50_000
_EDGE_COUNTS = ("-1", "0", "1", "3", str(COUNT_CAP + 1), "999999999")


@st.composite
def _edge_pair_runs(draw, command):
    # An energy report or a sweep, each numeric flag left out (three times
    # in four) or drawn from _EDGE_DOUBLES as --flag=value, --points and
    # --top-modes from _EDGE_COUNTS, under either bundle, orientation and
    # spacing; half of the sweeps take their two separations in order.
    edge = st.sampled_from(_EDGE_DOUBLES)

    def optional(*flags):
        return [f"{flag}={draw(edge)}" for flag in flags if draw(st.integers(0, 3)) == 0]
    argv = [command, *optional("--a", "--b", "--x1", "--y1", "--x2", "--y2", "--epsilon",
                               "--tail-tol", "--max-cutoff")]
    if command == "energy":
        argv += [f"--z={draw(edge)}", *optional("--si-a-meters")]
        if draw(st.booleans()):
            argv.append(f"--top-modes={draw(st.sampled_from(_EDGE_COUNTS))}")
    else:
        z_min, z_max = draw(edge), draw(edge)
        if draw(st.booleans()):
            z_min, z_max = sorted((z_min, z_max), key=lambda v: (v == "nan", float(v)))
        argv += [f"--z-min={z_min}", f"--z-max={z_max}",
                 f"--points={draw(st.sampled_from(_EDGE_COUNTS))}",
                 *draw(st.sampled_from([[], ["--spacing", "linear"]]))]
    return argv + draw(st.sampled_from([[], ["--convention", "paper-literal"]])) \
        + draw(st.sampled_from([[], ["--orientation", "fixed-vector"]]))


@st.composite
def _species_lines(draw):
    # One or two transition lines, the energy and each dipole component
    # drawn from _EDGE_DOUBLES or, as often, an ordinary value (an energy
    # at wavelength 100 a, a unit component).
    energy, component = (st.sampled_from(_EDGE_DOUBLES) | st.just(v)
                         for v in ("0.06283185307179587", "1"))
    return [f"E={draw(energy)} d=({draw(component)},{draw(component)},{draw(component)})"
            for _ in range(draw(st.integers(1, 2)))]


# The choices of the config keys read as text, each with a value refused.
_CONFIG_TEXT = {"spacing": ("log", "linear", "cubic"), "format": ("csv", "json", "xml"),
                "orientation": ("fixed-vector", "isotropic-average", "random"),
                "convention": ("oracle-consistent", "paper-literal", "literal")}


# The config keys each command needs, with an ordinary value of each.
_CONFIG_NEEDED = {"modes": {"max_cutoff": "10"}, "energy": {"z": "0.5"},
                  "sweep": {"z_min": "0.1", "z_max": "1", "points": "3"},
                  "oracle-check": {"cases": "2"}}


@st.composite
def _config_runs(draw, species, missing):
    # A modes listing, an energy report, a sweep or an oracle check, with no
    # flag but --config.  A report or a sweep first names a species file
    # that exists.  Each key the command needs is written, and every
    # other option it takes (output paths aside) one time in four: a
    # number from _EDGE_DOUBLES or _EDGE_COUNTS (a double for an integer key,
    # one the parser defaults to an int, is refused) or, as often, an
    # ordinary value; a species path that exists or one that does not; or
    # one of _CONFIG_TEXT.
    from wgdisp import cli
    command = draw(st.sampled_from(sorted(_CONFIG_NEEDED)))
    args = vars(cli._parser().parse_args([command]))
    needed = _CONFIG_NEEDED[command]
    lines = [] if command in ("modes", "oracle-check") else [f"species1 = {species}"]
    for key, default in args.items():
        if key in ("command", "func", "config", "out") or not (
                key in needed or draw(st.integers(0, 3)) == 0):
            continue
        if key in ("species1", "species2"):
            value = draw(st.sampled_from([species, missing]))
        elif key in _CONFIG_TEXT:
            value = draw(st.sampled_from(_CONFIG_TEXT[key]))
        elif isinstance(default, int):
            value = draw(st.sampled_from(_EDGE_COUNTS[:4] + _EDGE_DOUBLES[6:9])
                         | st.just(needed.get(key, "3")))
        else:
            value = draw(st.sampled_from(_EDGE_DOUBLES) | st.just(needed.get(key, "0.3")))
        lines.append(f"{key} = {value}")
    return command, lines


# The figures reproduce takes, and where an --out path points: a file, a
# directory or a file in a missing directory.
FIGURES = ("fig3a", "fig3b", "fig4")
_OUT_PATHS = {"file": "fig.csv", "directory": ".", "missing parent": "missing/fig.csv"}


@functools.cache
def _figure_csv(figure):
    """What ``reproduce figure`` prints to stdout."""
    from wgdisp import cli
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(["reproduce", figure]) == 0
    return buffer.getvalue()


class TestEdgeInputs:
    @settings(max_examples=1500, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=_edge_runs())
    def test_exit_code_and_output(self, capsys, argv):
        self._check(capsys, argv)

    @settings(max_examples=1000, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=_edge_pair_runs("energy"))
    def test_energy(self, species_file, capsys, argv):
        self._check(capsys, [*argv, "--species1", species_file])

    # Most sweeps are refused at once; about one in 250 runs.
    @settings(max_examples=3000, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=_edge_pair_runs("sweep"))
    def test_sweep(self, species_file, capsys, argv):
        # A sweep grid past the count cap fails here instead of allocating.
        with pytest.MonkeyPatch.context() as patch:
            for name in ("geomspace", "linspace"):
                def bounded(start, stop, num, *rest, _space=getattr(np, name), **kwargs):
                    assert num <= COUNT_CAP, "a sweep grid past the count cap"
                    return _space(start, stop, num, *rest, **kwargs)
                patch.setattr(np, name, bounded)
            self._check(capsys, [*argv, "--species1", species_file])

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=_species_lines())
    def test_species_lines(self, tmp_path, capsys, lines):
        path = tmp_path / "edge.species"
        path.write_text("\n".join(lines) + "\n")
        for orientation in ("isotropic-average", "fixed-vector"):
            self._check(capsys, ["energy", "--z", "0.5", "--species1", str(path),
                                 "--orientation", orientation], files=[str(path)])

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_config_lines(self, species_file, tmp_path, capsys, data):
        missing = str(tmp_path / "missing.species")
        command, lines = data.draw(_config_runs(species_file, missing))
        config = tmp_path / "edge.cfg"
        config.write_text("".join(f"{line}\n" for line in lines))
        self._check(capsys, [command, "--config", str(config)],
                    files=[str(config), missing])

    @pytest.mark.parametrize("seed", ["0", "1", str(2 ** 63), str(10 ** 30)])
    @pytest.mark.parametrize("cases", ["-1", "0", "1", str(COUNT_CAP + 1)])
    def test_oracle_check(self, capsys, seed, cases):
        self._check(capsys, ["oracle-check", f"--seed={seed}", f"--cases={cases}"])

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(figure=st.sampled_from([*FIGURES, "fig9", "FIG4", "fig4 ", ""]),
           out=st.sampled_from([None, *_OUT_PATHS]), out_key=st.booleans(),
           config=st.sampled_from([None, [], ["figure = fig4"], ["format = csv"], "missing"]))
    def test_reproduce(self, tmp_path_factory, capsys, figure, out, out_key, config):
        # A figure name, valid or not, with --out left out or naming a file,
        # a directory or a file in a missing directory, given as the flag or
        # as the config file's out key; the config file, if any, is empty,
        # names a key reproduce does not take, or does not exist.  Besides
        # _check's contract: an invalid name is refused by the parser with
        # exit 2, a run that returns writes its figure's CSV, byte for byte,
        # to --out or else to stdout, and a refused run writes no file.
        root = tmp_path_factory.mktemp("reproduce")
        path = None if out is None else root / _OUT_PATHS[out]
        argv, lines, cfg = ["reproduce", figure], [], root / "run.cfg"
        if path is not None and out_key and config not in (None, "missing"):
            lines.append(f"out = {path}")
        elif path is not None:
            argv += ["--out", str(path)]
        if config is not None:
            argv += ["--config", str(cfg)]
            if config != "missing":
                cfg.write_text("".join(f"{line}\n" for line in [*config, *lines]))
        before = sorted(root.rglob("*"))
        code, printed = self._check(capsys, argv, files=[str(cfg)])
        if figure not in FIGURES:
            assert code == 2
        if code:
            assert sorted(root.rglob("*")) == before
        elif path is None:
            assert printed == _figure_csv(figure)
        else:
            assert printed == "" and path.read_text(encoding="utf-8") == _figure_csv(figure)

    @staticmethod
    def _check(capsys, argv, files=()):
        # Exit 0 or 2, 1 only for an uncertified quadrature or an oracle
        # check that fails, 3 only for an error that names a line of one of
        # ``files`` and 4 only for the mode or count cap, with no traceback
        # and no RuntimeWarning; an error is one error: line, and exit 0
        # prints only finite values or carries a warning.  Returns the exit
        # code and stdout.
        from wgdisp import cli
        with warnings.catch_warnings(record=True) as raised:
            warnings.simplefilter("always")
            # Raised as errors, RuntimeWarnings fail here also where a
            # refused run drops the warnings it recorded.
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(argv)
        out, err = capsys.readouterr()
        assert [str(w.message) for w in raised if issubclass(w.category, RuntimeWarning)] == []
        assert code in (0, 1, 2, 3, 4)
        if code == 1 and argv[0] == "oracle-check":  # a full report with a FAIL line
            assert out.splitlines()[-1] == "overall: FAIL" and err == ""
        elif code:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
            assert code != 1 or err.startswith("error: wavenumber integral did not reach")
            assert code != 3 or any(re.match(rf"error: {re.escape(path)}:\d+: ", err)
                                    for path in files)
            assert code != 4 or "exceeding the hard cap" in err
        elif argv[0] == "energy":
            _finite_or_warned(out)
        elif argv[0] == "oracle-check":
            assert out.splitlines()[-1] == "overall: PASS"
        elif argv[0] == "coupling" or "json" in argv or out.startswith("["):
            constants = []
            json.loads(out, parse_constant=constants.append)
            assert not constants or raised
        elif argv[0] == "reproduce":
            rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
            assert all(math.isfinite(float(cell)) for row in rows[1:] for cell in row)
        elif argv[0] == "sweep":
            # The ratio to a free-space energy of exactly 0 (fixed dipoles
            # at the magic angle) prints as nan, as the energy report's
            # prints as null.
            rows = [[float(cell) for cell in line.split(",")] for line in out.splitlines()[1:]]
            assert raised or "warning: " in err or all(
                math.isfinite(v) for row in rows for i, v in enumerate(row)
                if not (i == 4 and row[2] == 0.0))
        else:
            assert all(math.isfinite(float(cell)) for line in out.splitlines()[1:]
                       for cell in line.split(",")[3:])
        return code, out


class TestCountCaps:
    # A sweep's points and an oracle check's cases are refused past the
    # count cap with one error line and exit 4, from the flag or a config
    # file, before anything is allocated for them; the cap itself passes.
    def _refused(self, capsys, argv, message, tmp_path):
        from wgdisp import cli
        key, count = argv[-2].lstrip("-"), argv[-1]
        config = tmp_path / "counts.cfg"
        config.write_text(f"{key} = {count}\n")
        for run in (argv, [*argv[:-2], "--config", str(config)]):
            assert cli.main(run) == 4
            assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("points", ["50001", "999999999"])
    def test_sweep_points(self, species_file, monkeypatch, capsys, tmp_path, points):
        from wgdisp import cli

        def grid(*args):
            raise AssertionError("sweep grid built")
        monkeypatch.setattr(np, "geomspace", grid)
        argv = ["sweep", "--z-min", "0.1", "--z-max", "1", "--species1", species_file]
        self._refused(capsys, [*argv, "--points", points], f"sweep needs {points} points, "
                      "exceeding the hard cap of 50000; use fewer points", tmp_path)
        with pytest.raises(AssertionError, match="sweep grid built"):
            cli.main([*argv, "--points", "50000"])

    @pytest.mark.parametrize("cases", ["50001", "999999999"])
    def test_oracle_cases(self, monkeypatch, capsys, tmp_path, cases):
        from wgdisp import cli, oracle_checks

        def draw(*args):
            raise AssertionError("oracle cases drawn")
        monkeypatch.setattr(oracle_checks, "_draw_cases", draw)
        self._refused(capsys, ["oracle-check", "--cases", cases], f"oracle-check needs {cases} "
                      "cases, exceeding the hard cap of 50000; use fewer cases", tmp_path)
        with pytest.raises(AssertionError, match="oracle cases drawn"):
            cli.main(["oracle-check", "--cases", "50000"])


class TestHugeCutoffs:
    # The mode count is taken in floats: a cutoff whose count passes the
    # largest double needs ~inf modes, and a count past 1e15 prints in
    # exponent form instead of as an integer of up to 300 digits.
    @pytest.mark.parametrize("cutoff, count", [("1e200", "inf"),
                                               ("1e100", "1.59154943091895e+199"),
                                               ("1e5", "1591754524")])
    def test_energy_exit_4(self, species_file, capsys, cutoff, count):
        # The count is that of the listing to the cutoff plus k_11.
        from wgdisp import cli
        assert cli.main(["energy", "--z", "0.5", "--max-cutoff", cutoff,
                         "--species1", species_file]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: the cutoff needs ~{count} modes, "
                                       "exceeding the hard cap of 1000000;")

    def test_listing_to_the_first_shell_meets_the_cap(self, species_file, capsys,
                                                       monkeypatch):
        # --max-cutoff K sums the modes up to K and lists them to K + k_11,
        # the first shell of its tails, and the cap holds that listing.  On
        # a 1 x 1e-3 guide ~999982 modes lie below K = 78271, within the
        # cap, and ~1080824 below K + k_11, refused before any listing.
        from wgdisp import cli, energy

        def unlisted(*args):
            raise AssertionError("listed modes past the cap")
        monkeypatch.setattr(energy, "mode_arrays", unlisted)
        assert cli.main(["energy", "--b", "1e-3", "--z", "0.5", "--max-cutoff", "78271",
                         "--species1", species_file]) == 4
        assert capsys.readouterr() == ("", "error: the cutoff needs ~1080824 modes, exceeding "
                                           "the hard cap of 1000000; use a lower cutoff or, at "
                                           "very small separations, the free-space "
                                           "quasistatic form wgdisp.u_freespace_vdw\n")

    def test_fixed_cutoff_lists_no_split(self, species_file, capsys):
        # On a 1 x 2.6e-6 guide the splits would list ~1007455 modes, past
        # the cap; K = 10 and its first shell list ~988786, within it.
        from wgdisp import cli
        assert cli.main(["energy", "--b", "2.6e-6", "--z", "0.5", "--max-cutoff", "10",
                         "--species1", species_file]) == 0
        assert json.loads(capsys.readouterr().out)["modes_used"] == 3

    def test_mode_count(self):
        from wgdisp.waveguide import Geometry, mode_count
        assert mode_count(Geometry(), 1e5) == 1591613096
        assert mode_count(Geometry(), 1e200) == math.inf


class TestImport:
    def test_cli_import_leaves_quadrature_unloaded(self):
        # Importing scipy.integrate would cost a large share of every CLI
        # start-up; no subcommand needs it.
        code = ("import sys, wgdisp.cli; "
                "print('scipy.integrate' in sys.modules)")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env={"PYTHONPATH": str(SRC),
                                             "PATH": "/usr/bin:/bin"})
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"

    def test_subcommands_load_no_scipy(self, species_file):
        # K0, E1, erfc and erfcx come from wgdisp._special and the wavenumber
        # integrals from double-exponential rules in wgdisp.quadrature: no
        # subcommand imports a scipy module, the quadrature oracle
        # (oracle-check, coupling --check-quadrature) included.
        runs = [["energy", "--z", "0.05", "--species1", species_file],
                ["energy", "--z", "0.8", "--convention", "paper-literal",
                 "--species1", species_file],
                ["sweep", "--z-min", "0.02", "--z-max", "3", "--points", "3",
                 "--species1", species_file],
                ["modes", "--max-cutoff", "9"],
                ["coupling", "--pol", "TE", "--m", "1", "--n", "0", "--orient", "xx",
                 "--z", "0.4", "--energy", "0.06"],
                ["coupling", "--pol", "TM", "--m", "1", "--n", "1", "--orient", "zz",
                 "--z", "0.4"],
                ["oracle-check", "--cases", "2"],
                *(["coupling", "--pol", pol, "--m", "1", "--n", "1", "--orient",
                   "xy", "--z", "0.4", *energy, "--check-quadrature",
                   "--scheme", scheme]
                  for pol, energy in (("TM", []), ("TE", ["--energy", "0.06"]))
                  for scheme in ("branch-cut-rotated", "real-axis-subtracted"))]
        code = ("import contextlib, io, sys, wgdisp.cli\n"
                f"for argv in {runs!r}:\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        assert wgdisp.cli.main(argv) == 0, argv\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env={"PYTHONPATH": str(SRC),
                                             "PATH": "/usr/bin:/bin"})
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"

    def test_commands_load_only_what_they_run(self, species_file):
        # energy and sweep never reach the per-case oracle, the fourth-order
        # oracle, the check suite or fig4, so a launch that runs only them
        # never imports those modules; the commands that use them import them
        # on first use.  Nor do they import numpy.polynomial: the TE split
        # builds its Gauss-Legendre rule with numpy.linalg, which numpy loads.
        oracle_modules = ["wgdisp.quadrature", "wgdisp.fourth_order",
                          "wgdisp.oracle_checks", "wgdisp.asymptotics",
                          "numpy.polynomial"]
        reports = [["energy", "--z", "0.5", "--species1", species_file],
                   ["sweep", "--z-min", "0.05", "--z-max", "0.5", "--points", "8",
                    "--species1", species_file]]
        oracles = [["coupling", "--pol", "TM", "--m", "1", "--n", "1", "--orient", "zz",
                    "--z", "1", "--check-quadrature"],
                   ["reproduce", "fig4"], ["oracle-check", "--seed", "1"]]
        code = ("import contextlib, io, json, sys, wgdisp.cli\n"
                "def run(runs):\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        return [wgdisp.cli.main(argv) for argv in runs]\n"
                f"rcs = run({reports!r})\n"
                f"loaded = [m for m in {oracle_modules!r} if m in sys.modules]\n"
                f"rcs += run({oracles!r})\n"
                "import wgdisp.coupling as coupling, wgdisp.quadrature as quadrature\n"
                "same = [getattr(coupling, n) is getattr(quadrature, n)\n"
                "        for n in ('f_quadrature', 'f_tm_closed', 'f_te_closed')]\n"
                "print(json.dumps([rcs, loaded, same]))")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env={"PYTHONPATH": str(SRC),
                                             "PATH": "/usr/bin:/bin"})
        assert res.returncode == 0, res.stderr
        rcs, loaded, same = json.loads(res.stdout)
        assert rcs == [0] * 5
        assert loaded == []
        assert same == [True] * 3


# Values printed before K0, E1, erfc and erfcx moved from scipy.special to
# wgdisp._special, for a two-level species (the first level that of
# SPECIES_100A, the second at lambda = 60a with d = (0.3, 0.5, 1)): energy's
# total, u_tm_only, u_te_only and tail_estimate at three separations, and
# sweep's z, U, ratio and tail_estimate rows.  The kernels' last bits moved,
# so these are held at a stated 1e-13 relative.  The paper-literal rows were
# pinned again when the paper-literal tensor moved from plain mode sums of
# both polarizations onto the splits, and again when the printed cross terms
# and zero-index modes moved onto the ln t rule, each time within the old
# plus the new tail estimate; PAPER_LITERAL_MODE_SUMS keeps the mode sums'
# rows, which every new value meets within the two tail estimates.
PINNED_RTOL = 1e-13
PINNED_ENERGY = {
    ("oracle-consistent", 0.05): (-34653423.2227955, -34625387.78269559,
                                  -17.03508564937822, 1.0214474531238777e-08),
    ("oracle-consistent", 0.8): (-0.047992557523013936, -0.04867545448747833,
                                 -5.932143065691946e-05, 3.095499662254693e-14),
    ("oracle-consistent", 3.0): (-4.050226347295931e-09, -5.151131273093387e-09,
                                 -7.805741341990751e-11, 1.1949115860122536e-20),
    ("paper-literal", 0.05): (-34643348.984252386, -34625387.78269559,
                              -6.995035720768412, 1.409597652926844e-07),
    ("paper-literal", 0.8): (-0.03381504659704643, -0.03437146318116096,
                             -5.967173759780526e-05, 1.3712691788497138e-14),
    ("paper-literal", 3.0): (-6.422311691991028e-09, -5.1635254237417305e-09,
                             -7.805723005615714e-11, 6.1148466325248114e-21),
}
PINNED_SWEEP = {
    "oracle-consistent": [
        (0.03, -742614456.4574137, 1.0004316287155515, 5.9119306134023376e-08),
        (0.15326188647871059, -41626.48267207586, 0.9969450080100621,
         1.7105189354983695e-10),
        (0.7829735282337724, -1.2871180168802858, 0.5480211631436704,
         5.315766107167112e-14),
        (4.0, -5.049478478479895e-13, 3.822108041554279e-09, 1.5861081518184148e-28)],
    "paper-literal": [
        (0.03, -742469205.5396757, 1.000235950310773, 1.934688061977962e-06),
        (0.15326188647871059, -41605.67749134251, 0.9964467285557, 4.321385814698201e-10),
        (0.7829735282337724, -1.287054017419105, 0.5479939138481925, 3.567119994719335e-14),
        (4.0, -5.0494784335718e-13, 3.822108007561939e-09, 5.0893238025444656e-27)],
}
PAPER_LITERAL_MODE_SUMS = {
    0.05: (-34643346.54345458, -34625385.42824798, -6.994968959889575, 19.276058248057115),
    0.8: (-0.03381504656583204, -0.03437146317367255, -5.9671743674190946e-05,
          1.6236198470591462e-08),
    3.0: (-6.4223080816563105e-09, -5.163522184045426e-09, -7.805723005491385e-11,
          3.7214186702733776e-14),
    "sweep": [
        (0.03, -742469140.4950503, 1.0002358626842798, 1807.1053895308985),
        (0.15326188647871059, -41605.67446740195, 0.9964466561329957,
         0.03440793298116737),
        (0.7829735282337724, -1.2870538951549375, 0.5479938617913102,
         2.6488392801668495e-06),
        (4.0, -5.049478422943166e-13, 3.822107999516793e-09, 3.6220600888996365e-21)],
}
# Per separation: extra flags of the energy runs.
PINNED_GEOMETRY = {
    0.05: [],
    0.8: ["--a", "1", "--b", "0.6", "--x1", "0.2", "--y1", "0.35", "--x2", "0.7",
          "--y2", "0.1"],
    3.0: ["--orientation", "fixed-vector"],
}


class TestPinnedValues:
    @pytest.fixture(scope="class")
    def two_levels(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("species") / "two.species"
        path.write_text("E=0.06283185307179587 d=(1,1,1)\n"
                        "E=0.10471975511965977 d=(0.3,0.5,1)\n")
        return str(path)

    @pytest.mark.parametrize("convention, z", sorted(PINNED_ENERGY))
    def test_energy(self, two_levels, capsys, convention, z):
        from wgdisp import cli
        assert cli.main(["energy", "--z", repr(z), "--convention", convention,
                         "--species1", two_levels, *PINNED_GEOMETRY[z]]) == 0
        report = json.loads(capsys.readouterr().out)
        got = [report[key] for key in ("total", "u_tm_only", "u_te_only",
                                       "tail_estimate")]
        assert got == pytest.approx(PINNED_ENERGY[convention, z], rel=PINNED_RTOL,
                                    abs=0.0)
        if convention == "paper-literal":
            *old, old_tail = PAPER_LITERAL_MODE_SUMS[z]
            for have, want in zip(got, old):
                assert abs(have - want) <= got[3] + old_tail

    @pytest.mark.parametrize("convention", sorted(PINNED_SWEEP))
    def test_sweep(self, two_levels, capsys, convention):
        from wgdisp import cli
        assert cli.main(["sweep", "--z-min", "0.03", "--z-max", "4", "--points", "4",
                         "--convention", convention, "--species1", two_levels]) == 0
        rows = [[float(v) for v in line.split(",")]
                for line in capsys.readouterr().out.splitlines()[1:]]
        got = [(row[0], row[1], row[4], row[5]) for row in rows]
        assert len(got) == 4
        for have, want in zip(got, PINNED_SWEEP[convention]):
            assert have == pytest.approx(want, rel=PINNED_RTOL, abs=0.0)
        if convention == "paper-literal":  # the ratio's tail is U's over |U_vdw|
            for (_, u, ratio, tail), (_, old_u, old_ratio, old_tail) in zip(
                    got, PAPER_LITERAL_MODE_SUMS["sweep"]):
                assert abs(u - old_u) <= tail + old_tail
                assert abs(ratio - old_ratio) <= (tail + old_tail) * abs(ratio / u)


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

    def test_fig4_pinned(self):
        # direct_sum within 1e-10 relative of the frozen lattice sum; every
        # other character, the integral_approx column included, unchanged.
        res = run_cli("reproduce", "fig4")
        assert res.returncode == 0
        got = res.stdout.splitlines()
        want = FIG4_LATTICE_SUM.splitlines()
        assert len(got) == len(want) == 3 + 25
        assert got[:3] == want[:3]
        for line, frozen in zip(got[3:], want[3:]):
            z, direct, approx = line.split(",")
            z0, direct0, approx0 = frozen.split(",")
            assert (z, approx) == (z0, approx0)
            assert float(direct) == pytest.approx(float(direct0), rel=1e-10)

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

    @pytest.mark.parametrize("out", [".", "missing/fig4.csv"])
    def test_unwritable_out_exit_2(self, tmp_path, out):
        # An --out path that cannot be written, a directory or a file in a
        # missing directory, is refused as an argument with one error line,
        # and nothing is created.
        path = tmp_path / out
        res = run_cli("reproduce", "fig4", "--out", str(path))
        assert (res.returncode, res.stdout) == (2, "")
        assert re.fullmatch(rf"error: cannot write the output file: \[Errno \d+\] "
                            rf"[^\n]*: '{re.escape(str(path))}'\n", res.stderr)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", [".", "missing/sweep.csv"])
    def test_unwritable_out_refused_before_the_run(self, tmp_path, capsys, monkeypatch,
                                                   species_file, out):
        # The --out path is checked before the run: a long sweep that could
        # not write its CSV takes no energy.
        from wgdisp import cli

        def unrun(*args, **kwargs):
            raise AssertionError("swept before the --out path was checked")
        monkeypatch.setattr(cli, "dispersion_sweep", unrun)
        path = tmp_path / out
        assert cli.main(["sweep", "--points", "20000", "--z-min", "0.05", "--z-max", "1",
                         "--species1", species_file, "--out", str(path)]) == 2
        printed, err = capsys.readouterr()
        assert printed == "" and re.fullmatch(
            rf"error: cannot write the output file: \[Errno \d+\] [^\n]*: "
            rf"'{re.escape(str(path))}'\n", err)
        assert list(tmp_path.iterdir()) == []


class TestCoupling:
    def test_closed_and_quadrature_agree(self):
        res = run_cli("coupling", "--pol", "TM", "--m", "1", "--n", "1",
                      "--orient", "zz", "--z", "1", "--check-quadrature")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["closed_form"] == pytest.approx(0.6566821187788882,
                                                       rel=1e-12)
        assert payload["rel_difference"] < 1e-9

    @pytest.mark.parametrize("argv, closed, quadrature, rel", [
        (["--pol", "TM", "--m", "1", "--n", "1", "--orient", "zz", "--z", "1e300",
          "--energy", "1"], 0.0, -1.84136305e-316, 1.0),
        (["--pol", "TE", "--m", "1", "--n", "0", "--orient", "yy", "--z", "0.5",
          "--energy", "1e-320"], -7.806e-321, -7.79e-321, 0.0019023462270133164)])
    def test_rel_difference_of_subnormal_quadrature(self, capsys, argv, closed, quadrature,
                                                    rel):
        # The difference is relative to |quadrature| however small it is.
        from wgdisp import cli

        assert cli.main(["coupling", *argv, "--check-quadrature"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
        assert (payload["closed_form"], payload["quadrature"]) == (closed, quadrature)
        assert payload["rel_difference"] == abs(closed - quadrature) / abs(quadrature)
        assert payload["rel_difference"] == pytest.approx(rel, rel=1e-12)

    @pytest.mark.parametrize("argv, rel", [
        (["--pol", "TM", "--m", "1", "--n", "1", "--orient", "zz"], None),
        (["--pol", "TE", "--m", "1", "--n", "0", "--orient", "xx", "--energy", "0.0628"], 0.0)])
    def test_rel_difference_to_zero_quadrature(self, capsys, monkeypatch, argv, rel):
        # At the centre TM11 couples zz and TE10 not xx: against a zero
        # quadrature the first has no finite relative difference (null, as
        # RFC 8259 has no Infinity) and the second none at all.
        from wgdisp import cli, quadrature

        monkeypatch.setattr(quadrature, "f_quadrature", lambda *args, **kwargs: 0.0)
        assert cli.main(["coupling", *argv, "--z", "0.5", "--check-quadrature"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
        assert (payload["closed_form"] != 0.0) == (rel is None)
        assert payload["quadrature"] == 0.0 and payload["rel_difference"] == rel

    def test_index_past_int64_exit_2(self, capsys):
        from wgdisp import cli

        assert cli.main(["coupling", "--pol", "TM", "--m", "100000000000000000000000", "--n",
                         "1", "--orient", "zz", "--z", "0.5"]) == 2
        assert capsys.readouterr() == ("", "error: TM mode index (m, n) = "
                                       "(100000000000000000000000, 1) passes 2**63 - 1, the "
                                       "largest the couplings take\n")

    def test_exact_zero_prints_positive_zero(self):
        # TE10 has no x component on the guide's midline y = b/2.
        res = run_cli("coupling", "--pol", "TE", "--m", "1", "--n", "0",
                      "--orient", "xx", "--z", "0.4", "--energy", "0.0628",
                      "--check-quadrature")
        assert res.returncode == 0
        assert '"closed_form": 0.0,' in res.stdout
        assert '"quadrature": 0.0,' in res.stdout
        assert "-0.0" not in res.stdout

    @pytest.mark.parametrize("energy", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("argv", [
        ["--pol", "TM", "--m", "1", "--n", "1", "--orient", "zz"],
        ["--pol", "TM", "--m", "1", "--n", "1", "--orient", "zz", "--check-quadrature"],
        ["--pol", "TE", "--m", "1", "--n", "0", "--orient", "yy"],
        ["--pol", "TE", "--m", "1", "--n", "0", "--orient", "yy", "--check-quadrature"],
    ])
    def test_non_finite_energy_exit_2(self, capsys, argv, energy):
        # The closed forms and the oracle take a positive and finite
        # energy, as DipoleTransition does; a TM closed form, which does
        # not use it, still echoes it.
        from wgdisp import cli
        assert cli.main(["coupling", *argv, "--z", "1", f"--energy={energy}"]) == 2
        assert capsys.readouterr() == (
            "", f"error: transition energy must be positive and finite, got {energy}\n")

    @pytest.mark.parametrize("argv, message", [
        # (4 pi / A) k_mn overflows, and times e^{-kz} = 0 it is nan.
        (["--pol", "TM", "--m", "3", "--n", "2", "--orient", "zy", "--z", "2.5",
          "--b", "1e-300"],
         "TM32 has no finite coupling in the guide a=1.0, b=1e-300 at z=2.5"),
        # The cutoff k_mn = 2 pi / b overflows: m pi / (a k_mn) is 0 / inf.
        (["--pol", "TE", "--m", "0", "--n", "2", "--orient", "xx", "--z", "1",
          "--b", "1e-308", "--energy", "0.1"],
         "TE02 has no finite coupling in the guide a=1.0, b=1e-308 at z=1.0"),
    ], ids=["overflowing-tm-weight", "overflowing-te-cutoff"])
    def test_overflowing_weight_exit_2(self, capsys, argv, message):
        from wgdisp import cli
        assert cli.main(["coupling", *argv]) == 2
        assert capsys.readouterr() == (
            "", f"error: {message}: a weight of its rows is not a finite double\n")

    def test_negative_energy_exit_2(self, capsys):
        # A TM closed form does not use the energy, and echoed -1 with exit 0.
        from wgdisp import cli
        assert cli.main(["coupling", "--pol", "TM", "--m", "1", "--n", "1", "--orient", "zz",
                         "--z", "1", "--energy", "-1"]) == 2
        assert capsys.readouterr() == (
            "", "error: transition energy must be positive and finite, got -1.0\n")

    def test_overflowing_product_exit_2(self, capsys):
        # Each TE10 row is finite at b = 1e-320, their product is not.
        from wgdisp import cli
        assert cli.main(["coupling", "--pol", "TE", "--m", "1", "--n", "0", "--orient", "yy",
                         "--z", "1", "--b", "1e-320", "--energy", "0.1"]) == 2
        assert capsys.readouterr() == (
            "", "error: the TE10 coupling is not finite: -inf, its terms pass the largest "
                "double\n")

    def test_refused_run_prints_its_error_alone(self):
        # A run's warnings are shown once it returns: a refused run prints
        # its error line alone, and one that returns still warns.
        argv = ["coupling", "--pol", "TE", "--m", "1", "--n", "0", "--orient", "yy",
                "--z", "1", "--energy", "1"]
        refused = run_cli(*argv, "--b", "1e-320")
        assert (refused.returncode, refused.stdout, refused.stderr) == (
            2, "", "error: the TE10 coupling is not finite: -inf, its terms pass the largest "
                   "double\n")
        returned = run_cli(*argv, "--b", "0.5")
        assert returned.returncode == 0 and json.loads(returned.stdout)["closed_form"] < 0.0
        assert "TightConfinementWarning: tight-confinement parameter" in returned.stderr

    @pytest.mark.parametrize("argv, closed, quadrature", [
        (["--pol", "TE", "--m", "1", "--n", "0", "--orient", "yy", "--z", "1",
          "--b", "1e-300", "--energy", "0.1"], -1.1803473452268694e+298, None),
        (["--pol", "TM", "--m", "1", "--n", "1", "--orient", "zz", "--z", "1e-101",
          "--a", "1e-100", "--b", "1e-100"], 3.580327713435236e+301, None),
        (["--pol", "TM", "--m", "1", "--n", "1", "--orient", "zz", "--z", "1e300",
          "--energy", "1", "--check-quadrature"], 0.0, -1.84136305e-316),
    ])
    def test_extreme_finite_couplings_return(self, capsys, argv, closed, quadrature):
        # Guides and separations at the edge of the double range whose
        # couplings are finite print them as before.
        from wgdisp import cli
        assert cli.main(["coupling", *argv]) == 0
        out, err = capsys.readouterr()
        payload = json.loads(out, parse_constant=_refuse_constant)
        assert err == "" and payload["closed_form"] == closed
        assert payload.get("quadrature") == quadrature


ORACLE_CHECK_12345 = {
    "oracle-consistent": """\
oracle-check report (seed=12345, convention=oracle-consistent, cases=20)
[closed-vs-quadrature] max_dev=5.480107e-15 threshold=1.0e-06 -> PASS
[scheme-agreement] max_dev=4.413452e-13 threshold=1.0e-08 -> PASS
[twelve-diagram/dominant-consistency] max_dev=3.045526e-16 threshold=1.0e-06 -> PASS
[twelve-diagram/full-vs-dominant-form] max_dev=7.028322e-04 threshold=5.0e-02 -> PASS (lambda/a=100, modes=TM11, oracle=-3.037045e+00)
[free-space-recovery/components] max_dev=9.771535e-05 threshold=2.0e-02 -> PASS
[free-space-recovery/energy] max_dev=1.320628e-04 threshold=2.0e-02 -> PASS
overall: PASS
""",
    "paper-literal": """\
oracle-check report (seed=12345, convention=paper-literal, cases=20)
[closed-vs-quadrature] max_dev=5.480107e-15 threshold=1.0e-06 -> PASS
[scheme-agreement] max_dev=4.413452e-13 threshold=1.0e-08 -> PASS
[sign-convention] expected-mismatch of printed prefactors vs oracle: max_dev=2.000e+00 (informational)
[twelve-diagram/dominant-consistency] max_dev=3.045526e-16 threshold=1.0e-06 -> PASS
[twelve-diagram/full-vs-dominant-form] max_dev=7.028322e-04 threshold=5.0e-02 -> PASS (lambda/a=100, modes=TM11, oracle=-3.037045e+00)
[free-space-recovery/components] max_dev=9.771535e-05 threshold=2.0e-02 -> PASS
[free-space-recovery/energy] max_dev=1.320628e-04 threshold=2.0e-02 -> PASS
overall: PASS
""",
}


def _uncertify_tm22_yz(monkeypatch, schemes):
    """Make every TM22 yz integral of ``schemes`` in oracle-check's batches
    uncertified; returns the name of the first such case per batch."""
    from wgdisp import oracle_checks
    real = oracle_checks._quadratures
    named = []

    def quadratures(geom, cases, energies, batch_schemes, normalization):
        values, errors, uncertified = real(geom, cases, energies, batch_schemes, normalization)
        hits = np.flatnonzero(~cases.te & (cases.m == 2) & (cases.n == 2)
                              & (cases.i == 1) & (cases.j == 2))
        for s, scheme in enumerate(batch_schemes):
            if scheme in schemes and hits.size:
                named.append(f"TM22 yz z={cases.z[hits[0]]:.6g} scheme={scheme}")
                values[s, hits], errors[s, hits], uncertified[s, hits] = 0.5, 0.25, True
        return values, errors, uncertified

    monkeypatch.setattr(oracle_checks, "_quadratures", quadratures)
    return named


class TestOracleCheck:
    @pytest.mark.parametrize("convention", sorted(ORACLE_CHECK_12345))
    def test_default_seed_report_text(self, convention):
        # Every line is pinned byte for byte except the dominant-diagram
        # consistency: it compares two quadratures of the same integrals,
        # so it reads rounding noise, held at 1e-14.
        res = run_cli("oracle-check", "--seed", "12345", "--convention", convention)
        assert (res.returncode, res.stderr) == (0, "")
        expected = ORACLE_CHECK_12345[convention].splitlines(keepends=True)
        lines = res.stdout.splitlines(keepends=True)
        assert len(lines) == len(expected)
        for line, want in zip(lines, expected):
            if want.startswith("[twelve-diagram/dominant-consistency]"):
                match = re.fullmatch(r"\[twelve-diagram/dominant-consistency\] "
                                     r"max_dev=(\S+) threshold=1\.0e-06 -> PASS\n", line)
                assert match and float(match.group(1)) <= 1e-14, line
            else:
                assert line == want

    @pytest.mark.parametrize("cases", [1, 20, 50])
    def test_case_draw_keeps_the_random_stream(self, cases):
        # One rng.random(5) per case draws what five rng.uniform calls drew.
        from wgdisp import oracle_checks
        from wgdisp.waveguide import (Geometry, ModeIndex, TransversePoint,
                                      cutoff_wavenumber)

        def per_scalar(rng, geom, cases):
            def sample(mode):
                kmn = cutoff_wavenumber(geom, mode)
                p1 = TransversePoint(rng.uniform(0.05, 0.95) * geom.a,
                                     rng.uniform(0.05, 0.95) * geom.b)
                p2 = TransversePoint(rng.uniform(0.05, 0.95) * geom.a,
                                     rng.uniform(0.05, 0.95) * geom.b)
                return p1, p2, rng.uniform(0.5, 8.0) / kmn
            for comp in ("zz", "xx", "yy", "xy", "xz", "yz"):
                for _ in range(cases):
                    mode = ModeIndex("TM", int(rng.integers(1, 4)), int(rng.integers(1, 4)))
                    yield (comp, mode, *sample(mode))
            for _ in range(cases):
                mode = ModeIndex("TE", *[(1, 0), (0, 1), (1, 1), (2, 1)][int(rng.integers(0, 4))])
                case = sample(mode)
                for comp in ("xx", "xy", "yx", "yy"):
                    yield (comp, mode, *case)

        geom = Geometry(1.0, 1.0)
        for seed in (1, 7, 11, 88, 96, 12345):
            drawn = oracle_checks._draw_cases(np.random.default_rng(seed), geom, cases)
            orients, modes, p1, p2, z = zip(*per_scalar(np.random.default_rng(seed), geom,
                                                        cases))
            want = {"te": [mode.polarization == "TE" for mode in modes],
                    "m": [mode.m for mode in modes], "n": [mode.n for mode in modes],
                    "p1.x": [p.x for p in p1], "p1.y": [p.y for p in p1],
                    "p2.x": [p.x for p in p2], "p2.y": [p.y for p in p2], "z": z,
                    "i": ["xyz".index(o[0]) for o in orients],
                    "j": ["xyz".index(o[1]) for o in orients]}
            got = {"te": drawn.te, "m": drawn.m, "n": drawn.n, "p1.x": drawn.p1.x,
                   "p1.y": drawn.p1.y, "p2.x": drawn.p2.x, "p2.y": drawn.p2.y, "z": drawn.z,
                   "i": drawn.i, "j": drawn.j}
            assert {key: value.tolist() for key, value in got.items()} == \
                {key: list(value) for key, value in want.items()}

    @pytest.mark.parametrize("seed", ["11", "88"])
    def test_formerly_uncertified_seeds_pass(self, seed):
        # QUADPACK's Fourier route could not certify one real-axis case on
        # each of these seeds (TM11 xx, TM22 yz); the double-exponential
        # rules certify every case.
        res = run_cli("oracle-check", "--seed", seed)
        assert (res.returncode, res.stderr) == (0, "")
        assert res.stdout.startswith(f"oracle-check report (seed={seed},")
        assert res.stdout.endswith("\noverall: PASS\n")

    @pytest.mark.parametrize("scheme, family", [
        ("branch-cut-rotated", "closed-vs-quadrature"),
        ("real-axis-subtracted", "scheme-agreement"),
    ])
    def test_uncertified_quadrature_is_a_fail_line(self, monkeypatch, scheme, family):
        # An integral that cannot certify its tolerance fails the family of
        # its scheme on a line naming the case; the report prints the rest.
        from wgdisp import oracle_checks
        named = _uncertify_tm22_yz(monkeypatch, [scheme])
        text, ok = oracle_checks.run_oracle_checks(seed=88)
        lines = text.splitlines()
        assert not ok and len(named) == 1
        assert lines[0] == "oracle-check report (seed=88, convention=oracle-consistent, cases=20)"
        failed = [line for line in lines[1:-1] if "-> PASS" not in line]
        assert failed == [line for line in lines if line.startswith(f"[{family}] max_dev=")]
        assert failed[0].endswith(
            f"-> FAIL (uncertified quadrature: {named[0]} achieved error 2.5000e-01)")
        assert [line.split("]")[0] for line in lines[1:-1]] == [
            "[closed-vs-quadrature", "[scheme-agreement",
            "[twelve-diagram/dominant-consistency",
            "[twelve-diagram/full-vs-dominant-form",
            "[free-space-recovery/components", "[free-space-recovery/energy"]
        assert lines[-1] == "overall: FAIL"

    def test_both_schemes_uncertified_fail_both_families(self, monkeypatch):
        from wgdisp import oracle_checks
        named = _uncertify_tm22_yz(monkeypatch, ["branch-cut-rotated", "real-axis-subtracted"])
        text, ok = oracle_checks.run_oracle_checks(seed=88)
        lines = text.splitlines()
        assert not ok and len(named) == 2
        failed = [line for line in lines[1:-1] if "-> PASS" not in line]
        assert [line.split("]")[0] for line in failed] == [
            "[closed-vs-quadrature", "[scheme-agreement"]
        for line, name in zip(failed, named):
            assert line.endswith(
                f"-> FAIL (uncertified quadrature: {name} achieved error 2.5000e-01)")
        assert lines[-1] == "overall: FAIL"

    def test_default_run_passes(self):
        res = run_cli("oracle-check", "--seed", "7", "--cases", "4")
        assert res.returncode == 0
        assert "overall: PASS" in res.stdout

    @pytest.mark.parametrize("cases", ["-1", "0"])
    def test_cases_below_one_exit_2(self, cases):
        res = run_cli("oracle-check", "--cases", cases)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == f"error: cases must be at least 1, got {cases}\n"

    def test_negative_seed_exit_2(self):
        res = run_cli("oracle-check", "--seed", "-1")
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr == "error: seed must be non-negative, got -1\n"

    def test_paper_literal_informational(self):
        res = run_cli("oracle-check", "--seed", "7", "--cases", "4",
                      "--convention", "paper-literal")
        assert res.returncode == 0
        assert "expected-mismatch" in res.stdout


# sha256 of the whole oracle-check stdout, the dominant-diagram consistency
# line included, for each (seed, convention, cases).
ORACLE_CHECK_SHA256 = {
    (1, "oracle-consistent", 20): "fdd15f7d80361c9b60a84d7ebcc86f2ba0a5415baaef3ba6630409276dbead12",
    (1, "paper-literal", 20): "c697fe7bc0afff0b3b76c5f002edfc03ab048cc4bc6189b54b2161acc40fd56b",
    (11, "oracle-consistent", 20): "038fbb34caddce8411f088d166b193434c30b077e8fd2148a165fba1195cdad5",
    (11, "paper-literal", 20): "fb9a0d3b4872ea4622865d097cf35b606a9df47e2af325abc6af2e066d9e5689",
    (42, "oracle-consistent", 20): "72b3f2ecb0dcb214323cdc0a6df34fbc4762c4f506e3bf82a5fc06c708c48a5b",
    (42, "paper-literal", 20): "239be521c94b31a659e00d7803df37f1abbc6d615c2c4744294d79161b11e1b2",
    (88, "oracle-consistent", 20): "2b7355c0cf5c33bf14837bea4781b51d555929917d8ae06ca171dad86c291a3d",
    (88, "paper-literal", 20): "c8fe72723c6086557224488b2f32c70ff4f2f05587dbd59a6e7e8bf19ccc79bb",
    (96, "oracle-consistent", 20): "d60a1e03a31c46b5cb386add742b89766a8f185c51cff82be2bbb6130ede715c",
    (96, "paper-literal", 20): "94913fe3b790ba1780c688b13942844c034749682c9824b85dd53563172f7e25",
    (12345, "oracle-consistent", 20): "aade25941b11e95f1483970fe7e838f1089a3d0ec42f2eea861d282bc4f30376",
    (12345, "paper-literal", 20): "ad4cbde28a4f143a09567df3bc0e059bac74d9391385de5d0e59da4da691af0a",
    (7, "oracle-consistent", 1): "cacc145b2822af6043577e49f2d3e25b73426d3a565251b0affcd463b1406ee5",
    (7, "oracle-consistent", 50): "a96f49fe88a5efb5b05a353efbf551884db41df44f3ed37764793e2df55b9d41",
}


@pytest.mark.parametrize("seed, convention, cases", sorted(ORACLE_CHECK_SHA256))
def test_oracle_check_sha256(capsys, seed, convention, cases):
    import hashlib
    from wgdisp import cli
    assert cli.main(["oracle-check", "--seed", str(seed), "--convention", convention,
                     "--cases", str(cases)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        ORACLE_CHECK_SHA256[seed, convention, cases]


# sha256 of the oracle-check stdout of seeds 1 to 96 in turn (every seed the
# benchmark's oracle workload can draw), default conventions and cases.
ORACLE_CHECK_SEEDS_1_96_SHA256 = \
    "4175da984bb5b8d083d2897282b386ab1e8621667bcc0cf2a740dbf9880d233e"


def test_oracle_check_seeds_1_to_96_sha256(capsys):
    import hashlib
    from wgdisp import cli
    digest = hashlib.sha256()
    for seed in range(1, 97):
        assert cli.main(["oracle-check", "--seed", str(seed)]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == ORACLE_CHECK_SEEDS_1_96_SHA256


class TestIgnoredOptionsRefused:
    """Options a subcommand would only accept and ignore exit 2."""

    @pytest.mark.parametrize("argv", [
        ["modes", "--max-cutoff", "5", "--seed", "1"],
        ["modes", "--max-cutoff", "5", "--convention", "paper-literal"],
        ["coupling", "--pol", "TM", "--m", "1", "--n", "1", "--orient", "zz",
         "--z", "1", "--format", "csv"],
        ["coupling", "--pol", "TM", "--m", "1", "--n", "1", "--orient", "zz",
         "--z", "1", "--seed", "1"],
        ["energy", "--z", "0.5", "--format", "csv"],
        ["energy", "--z", "0.5", "--seed", "1"],
        ["sweep", "--z-min", "1", "--z-max", "2", "--points", "2", "--format", "csv"],
        ["sweep", "--z-min", "1", "--z-max", "2", "--points", "2", "--seed", "1"],
        ["sweep", "--z-min", "1", "--z-max", "2", "--points", "2",
         "--si-a-meters", "1e-6"],
        ["reproduce", "fig4", "--convention", "paper-literal"],
        ["reproduce", "fig4", "--format", "json"],
        ["reproduce", "fig4", "--seed", "1"],
        ["oracle-check", "--format", "json"],
    ])
    def test_exit_2(self, argv, capsys):
        from wgdisp import cli
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    def test_coupling_points(self, capsys):
        from wgdisp import cli
        assert cli.main(["coupling", "--pol", "TM", "--m", "1", "--n", "2",
                         "--orient", "xz", "--z", "0.4", "--x1", "0.3",
                         "--y2", "0.7"]) == 0
        inputs = json.loads(capsys.readouterr().out)["inputs"]
        assert (inputs["p1"], inputs["p2"]) == ([0.3, 0.5], [0.5, 0.7])


class TestConfigKeysPerSubcommand:
    """A config key a subcommand does not take exits 2 and names the key."""

    @pytest.mark.parametrize("argv, key, value", [
        (["energy", "--z", "0.5"], "format", "csv"),
        (["energy", "--z", "0.5"], "seed", "3"),
        (["energy", "--z", "0.5"], "points", "3"),
        (["sweep", "--z-min", "1", "--z-max", "2", "--points", "2"], "top_modes", "3"),
        (["sweep", "--z-min", "1", "--z-max", "2", "--points", "2"], "z", "0.5"),
        (["modes", "--max-cutoff", "5"], "convention", "paper-literal"),
        (["modes", "--max-cutoff", "5"], "species1", "x.txt"),
        (["coupling", "--pol", "TM", "--m", "1", "--n", "1", "--orient", "zz",
          "--z", "1"], "tail_tol", "1e-6"),
        (["reproduce", "fig4"], "a", "2"),
        (["oracle-check", "--cases", "1"], "z", "0.5"),
    ])
    def test_refused(self, argv, key, value, tmp_path, capsys):
        from wgdisp import cli
        conf = tmp_path / "run.conf"
        conf.write_text(f"{key} = {value}\n")
        assert cli.main([*argv, "--config", str(conf)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {conf}:1: config key {key!r} is not an "
                                f"option of {argv[0]}\n")

    @pytest.mark.parametrize("argv, text", [
        (["modes"], "max_cutoff = 5\nformat = json\na = 2\n"),
        (["sweep", "--points", "2"], "z_min = 3\nz_max = 4\nspacing = linear\n"),
        (["oracle-check", "--cases", "1"], "seed = 7\nconvention = paper-literal\n"),
    ])
    def test_own_keys_accepted(self, argv, text, species_file, tmp_path, capsys):
        from wgdisp import cli
        conf = tmp_path / "run.conf"
        conf.write_text(text + (f"species1 = {species_file}\n"
                                if argv[0] == "sweep" else ""))
        assert cli.main([*argv, "--config", str(conf)]) == 0
        assert capsys.readouterr().out

    def test_oracle_check_cases_from_config(self, tmp_path, capsys):
        from wgdisp import cli
        conf = tmp_path / "run.conf"
        conf.write_text("cases = 3\n")
        assert cli.main(["oracle-check", "--seed", "7", "--config", str(conf)]) == 0
        from_config = capsys.readouterr()
        assert from_config.out.startswith(
            "oracle-check report (seed=7, convention=oracle-consistent, cases=3)\n")
        assert cli.main(["oracle-check", "--seed", "7", "--cases", "3"]) == 0
        assert capsys.readouterr() == from_config


class TestOneOptionTable:
    """The parser is the one table of options: a config line is parsed as
    its flag, and the program reads no option the parser does not define."""

    def test_config_choice_refused_with_its_line(self, tmp_path, capsys):
        # A config value meets the flag's choices, where it printed CSV.
        from wgdisp import cli
        conf = tmp_path / "run.conf"
        conf.write_text("max_cutoff = 5\nformat = xml\n")
        assert cli.main(["modes", "--config", str(conf)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {conf}:2: wgdisp modes: argument --format: "
                              f"invalid choice: 'xml'")

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_config_line_is_its_flag(self, species_file, tmp_path, capsys, data):
        # One option of modes, energy, sweep or oracle-check, set to a value
        # from _EDGE_DOUBLES, _EDGE_COUNTS (an integer option) or
        # _CONFIG_TEXT, or a species path that exists or does not, as
        # "key = value" in a config file or as --key=value: both give the
        # same exit code and stdout, and the same error, a config line's
        # parser refusal behind its path:line: prefix.
        from wgdisp import cli
        command = data.draw(st.sampled_from(sorted(_CONFIG_NEEDED)))
        defaults = vars(cli._parser().parse_args([command]))
        key = data.draw(st.sampled_from(
            [k for k in defaults if k not in ("command", "func", "config", "out")]))
        if key in ("species1", "species2"):
            values = [species_file, str(tmp_path / "missing.species")]
        elif key in _CONFIG_TEXT:
            values = _CONFIG_TEXT[key]
        elif isinstance(defaults[key], int):
            values = _EDGE_COUNTS + _EDGE_DOUBLES[6:9]
        else:
            values = _EDGE_DOUBLES
        value = data.draw(st.sampled_from(values))
        flag = f"--{key.replace('_', '-')}"
        argv = [command, *(f"--{k.replace('_', '-')}={v}"
                           for k, v in _CONFIG_NEEDED[command].items() if k != key)]
        if command in ("energy", "sweep") and key != "species1":
            argv += ["--species1", species_file]
        conf = tmp_path / "one.conf"
        conf.write_text(f"{key} = {value}\n")
        runs = []
        for run in ([*argv, f"{flag}={value}"], [*argv, "--config", str(conf)]):
            runs.append((cli.main(run), *capsys.readouterr()))
        (code, out, err), by_line = runs
        assert by_line == (code, out, err.replace("error: wgdisp ", f"error: {conf}:1: wgdisp ", 1))

    def test_every_args_read_is_a_parser_dest(self):
        # Each args.<name> that cli.py reads, and each count it reads by
        # name, is a destination build_parser defines, or one main sets.
        import ast
        from wgdisp import cli
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        reads = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id == "args"}
        reads |= {node.args[1].value for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "_count"}
        required = {"coupling": ["--pol", "TM", "--m", "1", "--n", "1", "--orient", "zz",
                                 "--z", "1"], "reproduce": ["fig4"]}
        dests = set()
        for command in ("modes", "coupling", "energy", "sweep", "reproduce", "oracle-check"):
            dests |= set(vars(cli.build_parser().parse_args([command,
                                                             *required.get(command, [])])))
        assert {"max_cutoff", "points", "cases", "func"} <= reads
        assert reads - dests == {"_raised"}


class TestParserReuse:
    def test_sequence_prints_as_fresh_processes(self, species_file, capsys):
        # main builds its parser once per process; a run of different
        # subcommands, an unknown flag among them, prints what separate
        # processes print.
        from wgdisp import cli
        runs = [["energy", "--z", "0.8", "--species1", species_file],
                ["sweep", "--z-min", "3", "--z-max", "4", "--points", "3",
                 "--species1", species_file],
                ["energy", "--z", "0.8", "--no-such-flag"],
                ["modes", "--max-cutoff", "7"],
                ["energy", "--z", "0.8", "--species1", species_file]]
        for argv in runs:
            code = cli.main(argv)
            captured = capsys.readouterr()
            fresh = run_cli(*argv)
            assert (code, captured.out, captured.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr)
        assert cli.build_parser() is not cli.build_parser()


class TestReach:
    def test_five_thousandths_of_a_returns(self, species_file, capsys):
        # The TM channel no longer needs ~1/z^2 modes; only TE is summed.
        from wgdisp import cli
        assert cli.main(["energy", "--z", "0.005", "--species1", species_file,
                         "--tail-tol", "1e-4"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ratio_to_freespace_vdw"] == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("z", ["0.002", "0.001"])
    def test_paper_literal_off_centre_returns(self, species_file, capsys, z):
        # Off the centre lines the printed cross terms are no longer a sum
        # of ~1/z^2 modes: the ln t rule takes them from 1-D sums.
        from wgdisp import cli
        assert cli.main(["energy", "--z", z, "--species1", species_file,
                         "--convention", "paper-literal",
                         "--x1", "0.3", "--y1", "0.4", "--x2", "0.6", "--y2", "0.55"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert math.isfinite(report["total"]) and report["total"] < 0.0
        assert 0.0 < report["tail_estimate"] <= 1e-6 * abs(report["total"])
        assert report["modes_used"] < 200

    def test_paper_literal_three_thousandths_of_a_returns(self, species_file, capsys):
        # At the centre the cross terms vanish and every other part is a
        # split or a 1-D sum: the report counts only the splits' modes.
        from wgdisp import cli
        assert cli.main(["energy", "--z", "0.003", "--species1", species_file,
                         "--convention", "paper-literal"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ratio_to_freespace_vdw"] == pytest.approx(1.0, abs=1e-4)
        assert report["tail_estimate"] <= 1e-5 * abs(report["total"])
        assert report["modes_used"] == 120

    def test_ten_thousandth_of_a_returns(self, species_file, capsys):
        # Both default channels are splits over a fixed screened mode set,
        # so no separation meets the mode cap.
        from wgdisp import cli
        assert cli.main(["energy", "--z", "1e-4", "--species1", species_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ratio_to_freespace_vdw"] == pytest.approx(1.0, abs=1e-5)
        assert report["modes_used"] < 200


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


# Species files of the golden reports: 2 to 4 levels, lambda from 40a to 200a.
GOLDEN_SPECIES = {
    "four": "E=0.15707963267948966 d=(0.7,0.2,1.1)\nE=0.08975979010256552 d=(1,0.5,0.3)\n"
            "E=0.05235987755982988 d=(0.4,1.3,0.9)\nE=0.031415926535897934 d=(1.2,0.8,0.6)\n",
    "three": "E=0.12566370614359174 d=(0.3,0.9,0.5)\nE=0.06981317007977318 d=(1.1,0.4,0.8)\n"
             "E=0.041887902047863905 d=(0.6,0.6,1.4)\n",
    "two": "E=0.06283185307179587 d=(1,1,1)\nE=0.10471975511965977 d=(0.3,0.5,1)\n",
    "x": "E=0.06283185307179587 d=(1,0,0)\nE=0.10471975511965977 d=(2,0,0)\n",
    "y": "E=0.06283185307179587 d=(0,1,0)\n",
}

# sha256 of the stdout of each command; "@name" stands for the path of
# GOLDEN_SPECIES[name], which the output does not contain.  The off-axis
# reports carry the free-space references at the pair's true separation.
GOLDEN_STDOUT = [
    (["energy", "--z", "0.3", "--species1", "@four", "--tail-tol", "1e-8"],
     "28be22603ba10cc6de6f4323936ec78e2ab2f2ee8d89c9e2ae27470e15c6f62f"),
    (["energy", "--z", "0.45", "--species1", "@three", "--orientation", "fixed-vector",
      "--b", "0.7", "--x1", "0.2", "--y1", "0.3", "--x2", "0.65", "--y2", "0.5"],
     "f627aff220f42f7a3d59b20e94231975987797fb482590057c3df7b1089bae4e"),
    (["energy", "--z", "0.8", "--species1", "@two", "--b", "0.6", "--x1", "0.2",
      "--y1", "0.35", "--x2", "0.7", "--y2", "0.1", "--tail-tol", "1e-8"],
     "7685c8377a7cf7ed32e8814131f0a7733ab973dc231497a28c6d810f894db7aa"),
    (["energy", "--z", "1.3", "--species1", "@four", "--orientation", "fixed-vector",
      "--b", "0.55", "--x1", "0.8", "--y1", "0.1", "--x2", "0.3", "--y2", "0.4",
      "--tail-tol", "1e-8"],
     "78a7f61ba21126c5847755036618f35613b351e0c1c9700dbff0e333d22f93ec"),
    (["energy", "--z", "2.0", "--species1", "@three", "--species2", "@two",
      "--b", "0.9", "--x1", "0.15", "--y1", "0.7", "--x2", "0.5", "--y2", "0.2"],
     "443d83683d2082e68ce9898a92d950a30fe2e84a978c402ffc0ec7e21f22a3e3"),
    (["energy", "--z", "3.5", "--species1", "@two", "--orientation", "fixed-vector",
      "--b", "0.75", "--x1", "0.6", "--y1", "0.6", "--x2", "0.25", "--y2", "0.15",
      "--tail-tol", "1e-8"],
     "1bd1b0257d30c5a82817c216d0f37a9ba8ae16310a66a14c30c3f0d0b95881c7"),
    (["energy", "--z", "5.0", "--species1", "@four", "--b", "0.8", "--x1", "0.45",
      "--y1", "0.2", "--x2", "0.9", "--y2", "0.65", "--top-modes", "12"],
     "d6612c9d9ccc2e0112fbfd3d64c4c04898cd4b709d8a3cc32660eb8389d91c5c"),
    (["energy", "--z", "8.0", "--species1", "@three", "--orientation", "fixed-vector",
      "--b", "0.5", "--x1", "0.3", "--y1", "0.25", "--x2", "0.7", "--y2", "0.3",
      "--tail-tol", "1e-8"],
     "20a0f0224eccb36ee20f81cc0ce5ce31941665ad75626cfa3a0ce525b81f9178"),
    (["energy", "--z", "1.0", "--species1", "@two", "--si-a-meters", "1e-6",
      "--x1", "0.35", "--y1", "0.55"],
     "cf70e4d1795e32d6a7339a648a8ee910ac04b7f52c442202be291e92e676949f"),
    (["energy", "--z", "0.6", "--species1", "@three", "--convention", "paper-literal",
      "--orientation", "fixed-vector", "--b", "0.65", "--x1", "0.25", "--y1", "0.2",
      "--x2", "0.55", "--y2", "0.45", "--tail-tol", "1e-8"],
     "43a948b30d2e6d166ef6dfb425685b3368210209226fc4db7fb067d47b856e90"),
    # A corner dipole and crossed dipoles: zero energy.  Off the axis the
    # crossed dipoles couple in free space, so the ratio is 0.0.
    (["energy", "--z", "0.7", "--species1", "@x", "--species2", "@y",
      "--orientation", "fixed-vector", "--x1", "0", "--y1", "0", "--x2", "0.4",
      "--y2", "0.6"],
     "c957270445555735358c161d9881af48e26bc8360010d4d479b482bc0a932458"),
    (["energy", "--z", "0.35", "--species1", "@four", "--species2", "@three",
      "--orientation", "fixed-vector", "--a", "1.5", "--b", "1", "--x1", "0.9",
      "--y1", "0.3", "--x2", "0.4", "--y2", "0.75", "--top-modes", "0",
      "--epsilon", "1.7"],
     "ebd8b0ad9662cd477b745344751d33e807c459980abbada5fc4528d73a29423f"),
    # The other subcommands that print JSON.
    (["modes", "--max-cutoff", "14", "--a", "1", "--b", "0.7", "--format", "json"],
     "7aa14011ce3b3ea1786b63cdf0bee19fa38acf487ebec7ee828a8d2e5ff40894"),
    (["coupling", "--pol", "TM", "--m", "2", "--n", "1", "--orient", "xz", "--z", "0.7",
      "--b", "0.8", "--x1", "0.3", "--y1", "0.2", "--x2", "0.6", "--y2", "0.5",
      "--check-quadrature"],
     "c8434f6f5e5fb24f258ca23cb5d7345b18c2b93b1be2a6cc9e523a048073b2ea"),
    (["coupling", "--pol", "TE", "--m", "1", "--n", "0", "--orient", "xx", "--z", "0.4",
      "--energy", "0.0628", "--check-quadrature"],
     "20969768c1f6f2e950642e781613b5916b8c38160d0cd4321bcae1ade8a81976"),
    (["coupling", "--pol", "TE", "--m", "1", "--n", "2", "--orient", "yx", "--z", "1.1",
      "--energy", "0.09", "--convention", "paper-literal"],
     "a2ee81145ce0424f4bf72d3499be519afadf3669a00361b905650c1d144c57ca"),
    # Degenerate cutoffs: rows of equal k_mn in the listing's tie order.
    (["modes", "--max-cutoff", "40", "--a", "1", "--b", "0.7"],
     "3be0146754dbe18e841b28c420261fcf6271e174a2210a7205b84a69b7b42aa2"),
]


class TestGoldenStdout:
    """Byte-identical JSON output: the sha256 of each command's stdout."""

    @pytest.fixture(scope="class")
    def species(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("golden")
        paths = {}
        for name, text in GOLDEN_SPECIES.items():
            paths[name] = root / f"{name}.species"
            paths[name].write_text(text)
        return {f"@{name}": str(path) for name, path in paths.items()}

    @pytest.mark.parametrize("argv, digest", GOLDEN_STDOUT,
                             ids=[f"{i:02d}-{argv[0]}" for i, (argv, _) in
                                  enumerate(GOLDEN_STDOUT)])
    def test_stdout_sha256(self, species, capsys, argv, digest):
        import hashlib
        from wgdisp import cli
        assert cli.main([species.get(arg, arg) for arg in argv]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_top_modes_lists_every_mode_asked_for(self, species, capsys):
        # At z = 5a the twelve modes asked for all clear the envelope of the
        # unlisted ones; TM22 and TM31, past the common cutoff 3 pi, rank
        # ahead of TE12.
        from wgdisp import cli
        argv = GOLDEN_STDOUT[6][0]
        assert argv[argv.index("--top-modes") + 1] == "12"
        assert cli.main([species.get(arg, arg) for arg in argv]) == 0
        labels = [entry["mode"] for entry in json.loads(capsys.readouterr().out)["top_modes"]]
        assert len(labels) == 12
        assert labels.index("TM22") < labels.index("TM31") < labels.index("TE12")


# Runs commands through cli.main in one interpreter and prints, as JSON, the
# exit code and stdout sha256 of each; the argv lists come as JSON on stdin.
_DIGEST_RUNNER = """
import contextlib, hashlib, io, json, sys
from wgdisp import cli
digests = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    digests.append([code, hashlib.sha256(out.getvalue().encode()).hexdigest()])
print(json.dumps(digests))
"""


def test_pins_hold_on_one_thread(tmp_path):
    # The benchmark pins BLAS and OpenMP to one thread.  A thread count is
    # read when numpy loads, so the golden and thin-guide pins are checked
    # again in a fresh interpreter started with one thread.
    paths = {}
    for name, text in GOLDEN_SPECIES.items():
        paths[f"@{name}"] = str(tmp_path / f"{name}.species")
        Path(paths[f"@{name}"]).write_text(text)
    cases = [([paths.get(arg, arg) for arg in argv], digest) for argv, digest in GOLDEN_STDOUT]
    thin = tmp_path / "thin.species"
    thin.write_text(f"E={2.0 * math.pi / 100.0!r} d=(1,1,1)\n")
    cases += [(["energy", "--a", "1", "--b", b, "--z", z, "--species1", str(thin)], digest)
              for (b, z), digest in TestExtremeGuides.RETURNED.items()]
    one_thread = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    res = subprocess.run([sys.executable, "-c", _DIGEST_RUNNER],
                         input=json.dumps([argv for argv, _ in cases]), capture_output=True,
                         text=True, env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin",
                                         "PYTHONHASHSEED": "0", **one_thread})
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout)
    assert got == [[0, digest] for _, digest in cases]
