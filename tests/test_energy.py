import ast
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings, strategies as st

from helpers import full_ranking, mode_tensors, near_field_energy, ranked_modes
from wgdisp.conventions import Conventions
from wgdisp.energy import (DipoleSpecies, DipoleTransition, ModeTable,
                           PairConfiguration, _lattice_tail, _mode_sum, dispersion_energy,
                           dispersion_sweep, f_tensor, polarizability,
                           quadratic_contraction, ratio_to_freespace,
                           u_freespace_cp, u_freespace_vdw, u_retarded_closed)
from wgdisp.errors import (InputError, ModeCapError, TightConfinementWarning,
                           ValidityDomainWarning)
from wgdisp.waveguide import Geometry, ModeIndex, TransversePoint, mode_arrays

SQ = Geometry(1.0, 1.0)
CENTER = SQ.center()
E100 = 2.0 * math.pi / 100.0  # wavelength 100 a

ISO = DipoleSpecies.single(E100, (1.0, 1.0, 1.0), "isotropic-average")

# Stated tolerances of the blocked mode sum against a per-mode pairwise
# sum (README, "How the mode sum is truncated"): tensor entries within
# SUM_TOL of the tensor scale, printed energies within ENERGY_TOL of |U|.
SUM_TOL = 1e-10
ENERGY_TOL = 1e-9
# Paper-literal normalization adds each zero-index TE coupling once more to
# the unit one (wgdisp.conventions.apply) instead of building it from the
# printed profile.  Against the printed-profile value a term moves by at
# most 20 unit roundoffs: each profile row takes five rounded products
# under unit normalization and three under printed, and the coupling two
# more on each side.
NORMALIZATION_RTOL = 20 * 2.0 ** -53
# Each bundle's sign S[i][j] of a TM coupling relative to the common positive
# magnitude (4 pi / A) k_mn P_i(p2) P_j(p1) exp(-k_mn z), row i the component
# at p2 and column j the one at p1, and its TE factor, written out: printed
# prefactors keep the transverse-transverse couplings positive and the mixed
# ones symmetric, and the printed TE factor is +1.
TM_SIGNS = {"oracle-consistent": np.array([[-1.0, -1.0, -1.0], [-1.0, -1.0, -1.0],
                                           [1.0, 1.0, 1.0]]),
            "paper-literal": np.array([[1.0, 1.0, -1.0], [1.0, 1.0, -1.0],
                                       [-1.0, -1.0, 1.0]])}
TE_FACTORS = {"oracle-consistent": -2.0, "paper-literal": 1.0}

# mpmath-frozen evaluations of the regime-ratio formulas
RATIO_VDW_10_100 = 1.0718428943712478e-23
RATIO_CP_10_10 = 2.7596518297989975e-21


def _config(z, sp1=ISO, sp2=None, p1=CENTER, p2=CENTER, geom=SQ, **kw):
    return PairConfiguration(geom, p1, p2, z, sp1, sp2 or sp1, **kw)


class TestSpecies:
    def test_wavelength(self):
        t = DipoleTransition(E100, (0, 0, 1))
        assert t.wavelength == pytest.approx(100.0, rel=1e-14)

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            DipoleSpecies(())

    def test_rejects_zero_dipole(self):
        with pytest.raises(InputError):
            DipoleTransition(1.0, (0.0, 0.0, 0.0))

    @pytest.mark.parametrize("d, message", [
        *((d, "three finite components") for d in (
            (math.nan, 0.0, 1.0), (1.0, math.inf, 0.0), (0.0, 0.0, -math.inf),
            ("nan", "1", "0"), (None, 1.0, 0.0), (1.0, 2.0), (1.0, 2.0, 3.0, 4.0), (),
            5.0, "123")),
        ((0.0, -0.0, 0.0), "non-zero"),
        (("0", "-0.0", "0e5"), "non-zero"),
        ((1e300, 0.0, 1.0), "short enough that |d|^2 is finite"),
        ((0.0, -1e155, 1e155), "short enough that |d|^2 is finite"),
    ])
    def test_refuses_bad_dipole(self, d, message):
        # Each dipole is refused with the class and message that numpy's
        # float conversion of it met: NaN, +-inf, None, a wrong length, a
        # number or a string where three components belong, or all zeros;
        # and a dipole whose |d|^2 passes the largest double.
        with pytest.raises(InputError) as refused:
            DipoleTransition(1.0, d)
        assert str(refused.value) == f"dipole vector must be {message}"

    def test_numeric_strings_are_numbers(self):
        t = DipoleTransition(1.0, ("1", "0.5", "-2e-1"))
        assert t.d_squared == DipoleTransition(1.0, (1.0, 0.5, -0.2)).d_squared
        with pytest.raises(ValueError):
            DipoleTransition(1.0, ("x", "0", "1"))

    def test_isotropic_second_moment(self):
        t = DipoleTransition(1.0, (1.0, 2.0, 2.0))
        m, = DipoleSpecies((t,), "isotropic-average").second_moments
        assert np.allclose(m, np.eye(3) * 3.0)

    def test_fixed_second_moment(self):
        t = DipoleTransition(1.0, (0.0, 1.0, 1.0))
        m, = DipoleSpecies((t,), "fixed-vector").second_moments
        assert np.allclose(m, np.outer([0, 1, 1], [0, 1, 1]))


class TestFTensor:
    def test_near_field_components(self):
        cfg = _config(0.01)
        ft = f_tensor(cfg, E100, tail_tol=1e-4)
        z3 = 0.01 ** 3
        assert z3 * ft.tensor[2, 2] == pytest.approx(1.0, abs=0.02)
        assert z3 * ft.tensor[0, 0] == pytest.approx(-0.5, abs=0.01)
        assert z3 * ft.tensor[1, 1] == pytest.approx(-0.5, abs=0.01)
        off = ft.tensor - np.diag(np.diag(ft.tensor))
        assert np.abs(off).max() * z3 < 1e-3

    def test_symmetric_at_center(self):
        cfg = _config(0.8)
        ft = f_tensor(cfg, E100, tail_tol=1e-8)
        assert np.allclose(ft.tensor, ft.tensor.T, atol=1e-12)

    def test_tm_te_decay_rate_gap(self):
        # The axial TM entry decays faster than the transverse TE ones by
        # exp(-(sqrt(2)-1) pi z), modulated by the 1/sqrt(z) radial
        # prefactor of the TE coupling.
        cfg4 = _config(4.0)
        cfg5 = _config(5.0)
        f4 = f_tensor(cfg4, E100, tail_tol=1e-9)
        f5 = f_tensor(cfg5, E100, tail_tol=1e-9)
        ratio4 = abs(f4.tm_tensor[2, 2] / f4.te_tensor[1, 1])
        ratio5 = abs(f5.tm_tensor[2, 2] / f5.te_tensor[1, 1])
        expected = math.exp(-(math.sqrt(2.0) - 1.0) * math.pi) \
            * math.sqrt(5.0 / 4.0)
        assert ratio5 / ratio4 == pytest.approx(expected, rel=0.02)

    def test_truncation_modes_ascending(self):
        cfg = _config(0.5)
        coarse = f_tensor(cfg, E100, max_cutoff=30.0)
        fine = f_tensor(cfg, E100, max_cutoff=60.0)
        # Reported tail bound of the coarse sum must cover the observed
        # refinement for every component.
        observed = np.abs(fine.tensor - coarse.tensor).max()
        assert observed <= coarse.tail_bound

    def test_truncation_honesty_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            z = rng.uniform(0.2, 1.5)
            p1 = TransversePoint(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
            p2 = TransversePoint(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
            cfg = PairConfiguration(SQ, p1, p2, z, ISO, ISO)
            cutoff = rng.uniform(15.0, 40.0)
            coarse = f_tensor(cfg, E100, max_cutoff=cutoff)
            fine = f_tensor(cfg, E100, max_cutoff=2.0 * cutoff)
            observed = np.abs(fine.tensor - coarse.tensor).max()
            assert observed <= coarse.tail_bound

    def test_mode_cap(self):
        # Apart from the screened splits, only a fixed cutoff lists modes:
        # ~1.6e5 TE modes lie below k = 2000.  Under a tail tolerance the
        # paper-literal printed sums list none, off the centre lines and at
        # small separations too.
        cfg = _config(0.002, p1=TransversePoint(0.3, 0.4), p2=TransversePoint(0.6, 0.55),
                      conventions=Conventions("paper-literal"))
        def table():
            return ModeTable(cfg.geom, cfg.p1, cfg.p2, 100_000)
        with pytest.raises(ModeCapError) as err:
            f_tensor(cfg, E100, max_cutoff=2000.0, table=table())
        assert "u_freespace_vdw" in str(err.value)
        for conventions in (Conventions(), Conventions("paper-literal")):
            ft = f_tensor(replace(cfg, conventions=conventions), E100, tail_tol=1e-6,
                          table=table())
            assert ft.modes_used < 200

    def test_table_refuses_every_listing_past_its_cap(self, monkeypatch):
        # The cap is the table's: capped at the splits' own count, it lists
        # the splits, but neither a lattice tail nor the growth behind
        # max_cutoff, each refused before mode_arrays is called.
        from wgdisp import energy as energy_mod
        from wgdisp.coupling import _split_cutoff
        from wgdisp.energy import _lattice_tail
        from wgdisp.waveguide import mode_count
        cfg = _config(0.05, p1=TransversePoint(0.3, 0.4), p2=TransversePoint(0.6, 0.55))
        assert f_tensor(cfg, E100, tail_tol=1e-6).max_cutoff == pytest.approx(351.52)
        K = _split_cutoff(SQ)
        table = ModeTable(SQ, cfg.p1, cfg.p2, mode_count(SQ, K))
        ft = f_tensor(cfg, E100, tail_tol=1e-6, table=table)

        def unlisted(*args):
            raise AssertionError("listed modes past the cap")
        monkeypatch.setattr(energy_mod, "mode_arrays", unlisted)
        for refused in (lambda: _lattice_tail(table, "TE", K, cfg.z), lambda: ft.max_cutoff):
            with pytest.raises(ModeCapError, match="; use a lower cutoff or"):
                refused()
        assert table.cutoff == K

    @pytest.mark.parametrize("b, p1, p2, z, convention, tol", [
        (0.75, (0.4, 0.3), (0.4, 0.3), 0.02, "paper-literal", 1e-6),
        (0.6, (0.31, 0.22), (0.72, 0.41), 0.07, "paper-literal", 1e-6),
        (1.0, (0.5, 0.5), (0.5, 0.5), 0.3, "paper-literal", 1e-8),
        (0.5, (0.12, 0.33), (0.85, 0.07), 1.1, "paper-literal", 1e-10),
        (0.9, (0.63, 0.18), (0.27, 0.71), 5.0, "paper-literal", 1e-9),
        (0.75, (0.4, 0.3), (0.45, 0.28), 0.05, "oracle-consistent", 1e-6),
    ])
    def test_growth_equals_fixed_cutoff_bitwise(self, b, p1, p2, z, convention, tol):
        # The TM tensor is the split under both bundles: under the printed
        # one its seven entries other than xy and yx are the split's,
        # masked, bit for bit, and xy and yx are the printed sums, the same
        # under a fixed cutoff, whose other entries, the mode sum's, lie
        # within both tails of the split's.  The TE tensor is the TE split,
        # under the printed bundle with the zero-index modes added once more.
        from wgdisp.coupling import _printed_sums, _split_cutoff
        geom = Geometry(1.0, b)
        conventions = Conventions(convention)
        cfg = PairConfiguration(geom, TransversePoint(*p1),
                                TransversePoint(*p2), z, ISO, ISO,
                                conventions=conventions)
        grown = f_tensor(cfg, E100, tail_tol=tol)
        table = ModeTable(geom, cfg.p1, cfg.p2)
        split, tm_bound = table.split("TM", z)
        te_unit, te_bound = table.split("TE", z)
        mask = TM_SIGNS[convention] * TM_SIGNS["oracle-consistent"]
        seven = np.ones((3, 3), dtype=bool)
        seven[0, 1] = seven[1, 0] = convention != "paper-literal"
        assert np.array_equal(grown.tm_tensor[seven], (mask * split)[seven])
        assert grown.tm_cutoff == _split_cutoff(geom)
        (xy, yx), (xx, yy), *_ = _printed_sums(geom, cfg.p1, cfg.p2, z, 1_000_000)
        if convention == "paper-literal":
            assert (grown.tm_tensor[0, 1], grown.tm_tensor[1, 0]) == (xy, yx)
            at_fixed = f_tensor(cfg, E100, max_cutoff=30.0)
            assert (at_fixed.tm_tensor[0, 1], at_fixed.tm_tensor[1, 0]) == (xy, yx)
            assert np.abs(grown.tm_tensor - at_fixed.tm_tensor).max() \
                <= grown.tail_bound + at_fixed.tail_bound
        weight = TE_FACTORS[convention] * E100
        want = weight * te_unit
        if conventions.printed:  # the zero-index modes once more
            want[[0, 1], [0, 1]] = [want[0, 0] + weight * xx, want[1, 1] + weight * yy]
            assert want[0, 0] != weight * te_unit[0, 0] and want[1, 1] != weight * te_unit[1, 1]
            assert grown.tail_bound > tm_bound + abs(weight) * te_bound
        else:
            assert grown.tail_bound == tm_bound + abs(weight) * te_bound
        assert np.array_equal(grown.te_tensor, want)
        assert grown.modes_used == grown.tm_modes + grown.te_modes
        assert grown.max_cutoff >= grown.tm_cutoff

    def test_each_mode_kernel_runs_once(self, monkeypatch):
        # The transverse factor rows of each mode are built once per mode
        # table, however often its cutoff grows: here through calls that
        # share one table.
        import wgdisp.coupling as coupling_mod
        calls = []
        for name in ("_tm_rows", "_te_rows"):
            kernel = getattr(coupling_mod, name)

            def counted(geom, m, n, k, *rest, _kernel=kernel):
                calls.append(k.size)
                return _kernel(geom, m, n, k, *rest)
            monkeypatch.setattr(coupling_mod, name, counted)
        cfg = _config(0.05, geom=Geometry(1.0, 0.7), p1=TransversePoint(0.3, 0.2),
                      p2=TransversePoint(0.6, 0.5), conventions=Conventions("paper-literal"))
        table = ModeTable(cfg.geom, cfg.p1, cfg.p2)
        for K in (20.0, 45.0, 90.0, 200.0):
            ft = f_tensor(cfg, E100, max_cutoff=K, table=table)
        assert len(calls) > 4  # the table grew at every call
        assert sum(calls) == ft.modes_used

    @pytest.mark.parametrize("truncation", [
        {"tail_tol": float("nan")}, {"tail_tol": 0.0}, {"tail_tol": -1e-6},
        {"tail_tol": float("inf")}, {"max_cutoff": float("inf")},
        {"max_cutoff": float("nan")}, {"max_cutoff": 0.0},
    ])
    def test_rejects_bad_truncation(self, truncation):
        with pytest.raises(InputError):
            f_tensor(_config(0.5), E100, **truncation)

    def test_vectorized_path_matches_scalar_closed_forms(self):
        # The bulk mode-sum path must agree with the independent per-mode
        # references, under both sign conventions, at off-center points.
        # Its printed parts sum every mode: the cross terms, and the
        # zero-index TE modes taken once more, where the per-mode references
        # take the listed ones twice.
        from wgdisp.coupling import _printed_sums
        p1 = TransversePoint(0.31, 0.67)
        p2 = TransversePoint(0.52, 0.18)
        tables = mode_arrays(SQ, 11.0)
        tm, te = tables["TM"], tables["TE"]
        for name in ("oracle-consistent", "paper-literal"):
            conv = Conventions(name)
            cfg = PairConfiguration(SQ, p1, p2, 0.7, ISO, ISO, conventions=conv)
            bulk = f_tensor(cfg, E100, max_cutoff=11.0)
            table = ModeTable(SQ, p1, p2)
            table.extend(11.0)
            per_mode = mode_tensors(table, table.counts(11.0), 0.7, E100, conv)[3]
            direct_tm = _direct_tm(SQ, tm["m"].astype(float), tm["n"].astype(float),
                                   tm["k"], p1, p2, 0.7, conv).sum(axis=2)
            te_modes = _direct_te(SQ, te["m"].astype(float), te["n"].astype(float),
                                  te["k"], p1, p2, 0.7, E100, conv)
            direct_te = te_modes.sum(axis=2)
            assert per_mode.shape[2] == tm["k"].size + te["k"].size
            assert np.allclose(per_mode.sum(axis=2), direct_tm + direct_te,
                               rtol=1e-11, atol=1e-13)
            if name == "paper-literal":
                cross, (xx, yy), *_ = _printed_sums(SQ, p1, p2, 0.7, 1_000_000)
                assert np.array_equal(bulk.tm_tensor[[0, 1], [1, 0]], cross)
                zero_index = (te["m"] == 0) | (te["n"] == 0)
                direct_te += E100 * np.diag([xx, yy, 0.0]) \
                    - 0.5 * te_modes[:, :, zero_index].sum(axis=2)
            assert np.allclose(bulk.te_tensor, direct_te, rtol=1e-11, atol=1e-13)


# float.hex of default-convention f_tensor results: tensor, tm_tensor and
# te_tensor (row-major), tail_bound, tm_cutoff, max_cutoff, tm_modes and
# te_modes, first under tail_tol and then under max_cutoff at 1.5 times the
# max_cutoff chosen, the reference bench/workloads.py's _certified sums.
# Keyed by (b, p1, p2, z, wavelength, tail_tol) in a guide of width 1.
PINNED_F_TENSOR = {
    (0.7, (0.3, 0.2), (0.6, 0.5), 0.3, 100.0, 1e-08): (
        (
         "0x1.39a37debb7c05p+0 0x1.9aab75d95e751p+1 0x1.66d61d09d9c50p+1"
         " 0x1.c1d7be55d8fdep+1 0x1.74c4f6f1aa40dp+1 0x1.a36192d18afaap+1"
         " 0x1.7d23b722cddfcp+1 0x1.a36192d18afa8p+1 0x1.bbb374e90f774p-1",
         "0x1.432c913054c9cp+0 0x1.9cdae0e26d06cp+1 0x1.66d61d09d9c50p+1"
         " 0x1.c488188a92c5cp+1 0x1.80ad04080a98fp+1 0x1.a36192d18afaap+1"
         " 0x1.7d23b722cddfcp+1 0x1.a36192d18afa8p+1 0x1.bbb374e90f774p-1",
         "-0x1.31226893a12d5p-5 -0x1.17b5848748d48p-6 -0x0.0p+0"
         " -0x1.582d1a5ce3f31p-6 -0x1.7d01a2cc0b03bp-4 -0x0.0p+0"
         " -0x0.0p+0 -0x0.0p+0 -0x0.0p+0",
         '0x1.ff1d483113a69p-43', '0x1.055df689935aap+5', '0x1.30a6921735ee5p+6', 50, 67),
        (
         "0x1.39a37debb6c8ep+0 0x1.9aab75d95eb92p+1 0x1.66d61d09daec3p+1"
         " 0x1.c1d7be55d8b9fp+1 0x1.74c4f6f1aa7eap+1 0x1.a36192d18b8e8p+1"
         " 0x1.7d23b722ce123p+1 0x1.a36192d18b8eap+1 0x1.bbb374e9111f3p-1",
         "0x1.432c913053d25p+0 0x1.9cdae0e26d4adp+1 0x1.66d61d09daec3p+1"
         " 0x1.c488188a9281dp+1 0x1.80ad04080ad6cp+1 0x1.a36192d18b8e8p+1"
         " 0x1.7d23b722ce123p+1 0x1.a36192d18b8eap+1 0x1.bbb374e9111f3p-1",
         "-0x1.31226893a12dap-5 -0x1.17b5848748d56p-6 -0x0.0p+0"
         " -0x1.582d1a5ce3f26p-6 -0x1.7d01a2cc0b047p-4 -0x0.0p+0"
         " -0x0.0p+0 -0x0.0p+0 -0x0.0p+0",
         '0x1.e013efbe68677p-33', '0x1.c8f9db22d0e58p+6', '0x1.c8f9db22d0e58p+6', 699, 760),
    ),
    (0.1, (0.0, 0.03), (0.7, 0.05), 0.05, 100.0, 1e-05): (
        (
         "0x1.38465504d2ea2p-19 0x0.0p+0 0x0.0p+0"
         " 0x1.24f5f198fe09ep-49 0x0.0p+0 0x0.0p+0"
         " 0x1.78373435f21f8p-23 0x0.0p+0 0x0.0p+0",
         "0x1.3b25a8b7c07d4p-19 0x0.0p+0 0x0.0p+0"
         " 0x1.22f2b5e0c9ffep-49 0x0.0p+0 0x0.0p+0"
         " 0x1.78373435f21f8p-23 0x0.0p+0 0x0.0p+0",
         "-0x1.6fa9d976c9904p-26 -0x0.0p+0 -0x0.0p+0"
         " 0x1.019ddc1a04ffbp-56 -0x0.0p+0 -0x0.0p+0"
         " -0x0.0p+0 -0x0.0p+0 -0x0.0p+0",
         '0x1.777136ec89c99p-37', '0x1.9e11de1a1b4fbp+6', '0x1.82250c5eb313ep+9', 70, 105),
        (
         "0x1.3846688c05608p-19 -0x0.0p+0 -0x0.0p+0"
         " -0x1.c989aece00e58p-43 -0x0.0p+0 -0x0.0p+0"
         " 0x1.7836905c5edafp-23 0x0.0p+0 0x0.0p+0",
         "0x1.3b25bc3face40p-19 -0x0.0p+0 -0x0.0p+0"
         " -0x1.c9cbeb6e2abbep-43 -0x0.0p+0 -0x0.0p+0"
         " 0x1.7836905c5edafp-23 0x0.0p+0 0x0.0p+0",
         "-0x1.6fa9d9d3c1bfbp-26 -0x0.0p+0 -0x0.0p+0"
         " 0x1.08f280a75980bp-53 -0x0.0p+0 -0x0.0p+0"
         " -0x0.0p+0 -0x0.0p+0 -0x0.0p+0",
         '0x1.6fa54393570dcp-28', '0x1.219bc947064eep+10', '0x1.219bc947064eep+10', 10466, 10870),
    ),
    (0.8, (0.45, 0.35), (0.52, 0.41), 0.06, 60.0, 1e-06): (
        (
         "0x1.4779e3487c357p+6 0x1.864153b3ab307p+8 0x1.8720bd92fe569p+8"
         " 0x1.861aa22163b48p+8 -0x1.2a713ae30f52ep+5 0x1.4f34589efa05fp+8"
         " 0x1.87285c9b10a4bp+8 0x1.4f5da434ba059p+8 -0x1.3318d09cbc35bp+5",
         "0x1.4e74fe92e62fep+6 0x1.873ec25c00044p+8 0x1.8720bd92fe569p+8"
         " 0x1.87163fe3b09ebp+8 -0x1.1dc681f6d98edp+5 0x1.4f34589efa05fp+8"
         " 0x1.87285c9b10a4bp+8 0x1.4f5da434ba059p+8 -0x1.3318d09cbc35bp+5",
         "-0x1.bec6d29a7e9a7p+0 -0x1.fadd50a9a7aa9p-1 -0x0.0p+0"
         " -0x1.f73b8499d46c0p-1 -0x1.95571d86b8825p+0 -0x0.0p+0"
         " -0x0.0p+0 -0x0.0p+0 -0x0.0p+0",
         '0x1.67cb3cb091fe5p-40', '0x1.e7720a3dbfe89p+4', '0x1.c2aaaaaaaaaabp+7', 51, 67),
        (
         "0x1.4779f56f54623p+6 0x1.864158080bcc9p+8 0x1.8720bd7b87597p+8"
         " 0x1.861aa614a193ap+8 -0x1.2a7120a4b0174p+5 0x1.4f345944862c2p+8"
         " 0x1.87285c931dfa3p+8 0x1.4f5da4d6c855bp+8 -0x1.331910ca6fe66p+5",
         "0x1.4e7510b988b30p+6 0x1.873ec6b06fd33p+8 0x1.8720bd7b87597p+8"
         " 0x1.871643d6fc54cp+8 -0x1.1dc667b8fadaep+5 0x1.4f345944862c2p+8"
         " 0x1.87285c931dfa3p+8 0x1.4f5da4d6c855bp+8 -0x1.331910ca6fe66p+5",
         "-0x1.bec6d28d14347p+0 -0x1.fadd50c80d343p-1 -0x0.0p+0"
         " -0x1.f73b84b5824c8p-1 -0x1.95571d76a78cap+0 -0x0.0p+0"
         " -0x0.0p+0 -0x0.0p+0 -0x0.0p+0",
         '0x1.17af22ff543f3p-7', '0x1.5200000000000p+8', '0x1.5200000000000p+8', 7171, 7364),
    ),
}


class TestPinnedTensors:
    @pytest.mark.parametrize("case", sorted(PINNED_F_TENSOR))
    def test_default_conventions_bitwise(self, case):
        b, p1, p2, z, lam, tol = case
        cfg = PairConfiguration(Geometry(1.0, b), TransversePoint(*p1),
                                TransversePoint(*p2), z, ISO, ISO)
        energy = 2.0 * math.pi / lam
        chosen = f_tensor(cfg, energy, tail_tol=tol)
        ref = f_tensor(cfg, energy, max_cutoff=1.5 * chosen.max_cutoff)
        for f, want in zip((chosen, ref), PINNED_F_TENSOR[case]):
            got = tuple(" ".join(float(v).hex() for v in t.ravel())
                        for t in (f.tensor, f.tm_tensor, f.te_tensor))
            got += (f.tail_bound.hex(), f.tm_cutoff.hex(), f.max_cutoff.hex(),
                    f.tm_modes, f.te_modes)
            assert got == want


def _direct_tm(geom, m, n, k, p1, p2, z, conventions):
    """Reference TM kernel: np.sin/np.cos evaluated per mode."""
    signs = TM_SIGNS[conventions.bundle]
    ax = m * np.pi / geom.a
    ay = n * np.pi / geom.b
    decay = np.exp(-k * z)
    base = (4.0 * np.pi / geom.area) * k * decay

    def factors(p):
        sx, cx = np.sin(ax * p.x), np.cos(ax * p.x)
        sy, cy = np.sin(ay * p.y), np.cos(ay * p.y)
        return np.stack([(ax / k) * cx * sy, (ay / k) * sx * cy, sx * sy])

    f2 = factors(p2)
    f1 = factors(p1)
    out = signs[:, :, None] * base[None, None, :] * f2[:, None, :] * f1[None, :, :]
    if conventions.printed:
        pref = -(np.pi ** 2 / (2.0 * geom.area ** 2 * k)) * 4.0 * decay
        out[0, 1, :] = pref * np.cos(ax * p2.x) * np.sin(ay * p2.y) \
            * np.sin(ax * p1.x) * np.cos(ay * p1.y)
        out[1, 0, :] = pref * np.sin(ax * p2.x) * np.cos(ay * p2.y) \
            * np.cos(ax * p1.x) * np.sin(ay * p1.y)
    return out + 0.0  # exact zeros as 0.0, never -0.0


def _direct_te(geom, m, n, k, p1, p2, z, energy, conventions):
    """Reference TE kernel: np.sin/np.cos evaluated per mode."""
    from wgdisp._special import k0
    ax = m * np.pi / geom.a
    ay = n * np.pi / geom.b
    nf = np.ones_like(k)
    if not conventions.printed:
        nf[(m == 0) | (n == 0)] = 1.0 / math.sqrt(2.0)
    factor = TE_FACTORS[conventions.bundle]
    root_a = 2.0 / math.sqrt(geom.area)

    def profile(p):
        ex = -root_a * nf * (ay / k) * np.cos(ax * p.x) * np.sin(ay * p.y)
        ey = root_a * nf * (ax / k) * np.sin(ax * p.x) * np.cos(ay * p.y)
        return np.stack([ex, ey, np.zeros_like(ex)])

    e2 = profile(p2)
    e1 = profile(p1)
    radial = factor * energy * k0(k * z)
    return radial[None, None, :] * e2[:, None, :] * e1[None, :, :] + 0.0


def _table_rows(table, pol):
    """The factor rows a ModeTable holds for one polarization, in table order,
    one mode per column."""
    return table._rows[pol].T


class TestKernels:
    @pytest.mark.parametrize("convention", ["oracle-consistent", "paper-literal"])
    @pytest.mark.parametrize("b, p1, p2, z, lower", [
        (1.0, (0.5, 0.5), (0.5, 0.5), 0.3, None),
        (0.7, (0.31, 0.22), (0.68, 0.41), 0.05, None),
        (0.55, (0.93, 0.07), (0.12, 0.5), 1.3, 40.0),
        (0.85, (0.0, 0.4), (0.77, 0.85), 0.02, 150.0),
    ])
    def test_match_per_mode_trig_bitwise(self, convention, b, p1, p2, z, lower):
        # Per-mode couplings built from a table's factor rows, whose trig
        # factors come from per-axis tables, must be exactly the per-mode
        # np.sin/np.cos values, also for the modes of a later shell.  Under
        # paper-literal normalization the zero-index TE couplings are held
        # to NORMALIZATION_RTOL of the printed-profile values instead.
        geom = Geometry(1.0, b)
        p1, p2 = TransversePoint(*p1), TransversePoint(*p2)
        conv = Conventions(convention)
        table = ModeTable(geom, p1, p2)
        if lower is not None:
            table.extend(lower)
        table.extend(200.0)
        pol, ms, ns, tensors = mode_tensors(table, table.counts(200.0), z, E100, conv)
        tables = mode_arrays(geom, 200.0)
        start = 0
        for name, direct, extra in (("TM", _direct_tm, ()),
                                    ("TE", _direct_te, (E100,))):
            t = tables[name]
            want = direct(geom, t["m"].astype(float), t["n"].astype(float),
                          t["k"], p1, p2, z, *extra, conv)
            part = slice(start, start + t["k"].size)
            assert np.all(pol[part] == name)
            assert np.array_equal(ms[part], t["m"]) and np.array_equal(ns[part], t["n"])
            got = tensors[:, :, part]
            printed = (name == "TE" and convention == "paper-literal") \
                & ((t["m"] == 0) | (t["n"] == 0))
            assert np.ascontiguousarray(got[:, :, ~printed]).tobytes() \
                == np.ascontiguousarray(want[:, :, ~printed]).tobytes()
            assert np.allclose(got[:, :, printed], want[:, :, printed],
                               rtol=NORMALIZATION_RTOL, atol=0.0)
            assert not np.signbit(got[got == 0.0]).any()
            start = part.stop
        assert pol.size == ms.size == ns.size == tensors.shape[2] == start

    @pytest.mark.parametrize("convention", ["oracle-consistent", "paper-literal"])
    def test_write_into_slice_of_larger_array(self, convention):
        # A table appends the rows of the modes past its last listing to its
        # flat arrays, past the positions at which sums split their
        # contraction.  The rows must be the bits a fresh call on that part
        # of the full listing gives, and rows written earlier must stay as
        # they were, also once a tensor under either convention has read
        # them: the table holds unit-normalized rows alone.
        from wgdisp.coupling import _te_rows, _tm_rows
        geom = Geometry(1.0, 0.7)
        p1, p2 = TransversePoint(0.31, 0.22), TransversePoint(0.68, 0.41)
        conv = Conventions(convention)
        table = ModeTable(geom, p1, p2)
        fresh = {"TM": [], "TE": []}
        for K in (60.0, 400.0, 520.0):
            before = {pol: _table_rows(table, pol).copy() for pol in fresh}
            table.extend(K)
            listing = mode_arrays(geom, K)
            for pol, rows_of in (("TM", _tm_rows), ("TE", _te_rows)):
                new = slice(before[pol].shape[1], None)
                t = {key: listing[pol][key][new] for key in ("m", "n", "k")}
                fresh[pol].append(rows_of(geom, t["m"], t["n"], t["k"], p1, p2))
                held = _table_rows(table, pol)
                assert held.tobytes() == np.concatenate(fresh[pol], axis=1).tobytes()
                assert np.array_equal(held[:, :before[pol].shape[1]], before[pol])
        assert min(table.counts(400.0)) > 8192
        held = {pol: _table_rows(table, pol).tobytes() for pol in fresh}
        f_tensor(PairConfiguration(geom, p1, p2, 0.3, ISO, ISO, conventions=conv), E100,
                 max_cutoff=520.0, table=table)
        assert {pol: _table_rows(table, pol).tobytes() for pol in fresh} == held


# float.hex of the reference mode sum (wgdisp.energy._mode_sum) at z = 0.02
# in the 1 x 0.8 guide, p1 = (0.37, 0.23), p2 = (0.61, 0.44): the TM tensor
# and the unit TE tensor (row-major) over the modes with k <= K.  The first
# two cutoffs are those of the 8192nd and 8193rd TM modes, on both sides of
# the edge at which the TM contraction is split; 1300 lists over 1e5 modes
# per polarization.  No convention changes the mode sum.
PINNED_SUMS = {
    361.0790647332873: (
        "0x1.9060182e881eap+3 0x1.5d1131414b963p+4 -0x1.d6c1ff07de47dp-2"
        " 0x1.f8d334c273cd8p+3 0x1.8695227a257cep+2 -0x1.1efcde979c255p+2"
        " 0x1.4ee1d564109e8p+0 0x1.18274a36eabfdp+2 -0x1.5985073c2adbbp+1",
        "0x1.402c3ab861654p+1 0x1.e2b1259d91f5bp+1 0x0.0p+0"
        " 0x1.91323081a26a8p+1 0x1.43eda114d8351p+1 0x0.0p+0"
        " 0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    361.08162725274553: (
        "0x1.942a431e2652cp+3 0x1.5c399faed2997p+4 -0x1.b617921b5837cp-3"
        " 0x1.dd08ba8972f0fp+3 0x1.9f4867bac4746p+2 -0x1.925ab1716d58ap+2"
        " 0x1.9fe2954d00f7ep+0 0x1.0f27770f55a73p+2 -0x1.057447b851c7ep+1",
        "0x1.4026215093b83p+1 0x1.e2b07307f97c3p+1 0x0.0p+0"
        " 0x1.9126ad91c72fcp+1 0x1.43ec500734617p+1 0x0.0p+0"
        " 0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    1300.0: (
        "0x1.973f772ccf26ep+3 0x1.77b75465c2b83p+4 0x1.0e5b11b5166f3p+1"
        " 0x1.5bd97297a3f31p+4 0x1.1251d07db174ap+3 0x1.ce7db38523151p+0"
        " 0x1.0f02e5ed91eecp+1 0x1.f323d63624727p+0 -0x1.a69c2c8ec7b07p+3",
        "0x1.3fdc5ddd286d5p+1 0x1.e2c6ec867b7e7p+1 0x0.0p+0"
        " 0x1.9180de8d86035p+1 0x1.4380bc1083ed4p+1 0x0.0p+0"
        " 0x0.0p+0 0x0.0p+0 0x0.0p+0"),
}


def _pinned_sums(table, K):
    """The entries PINNED_SUMS holds for K."""
    tm, te, *_ = _mode_sum(table, 0.02, K)
    return tuple(" ".join(float(v).hex() for v in t.ravel()) for t in (tm, te))


class TestSummationOrder:
    def test_block_sum_is_one_array_sum_bitwise(self):
        # The mode sum depends on the modes summed alone: a table filled at
        # once and one filled in random shells, asked in different orders,
        # give the same bits at every cutoff, tails included.
        rng = np.random.default_rng(3)
        geom = Geometry(1.0, 0.8)
        p1, p2 = TransversePoint(0.37, 0.23), TransversePoint(0.61, 0.44)
        whole = ModeTable(geom, p1, p2)
        whole.extend(700.0)
        edges = np.sort(rng.uniform(5.0, 700.0, size=6))
        pieces = ModeTable(geom, p1, p2)
        for z in (0.02, 0.3):
            for K in (*edges, 700.0, *edges[::-1]):
                pieces.extend(K)
                assert pieces.counts(K) == whole.counts(K)
                got = _mode_sum(pieces, z, K)
                want = _mode_sum(whole, z, K)
                for g, w in zip(got, want):
                    assert np.float64(g).tobytes() == np.float64(w).tobytes()

    @pytest.mark.parametrize("convention", ["oracle-consistent", "paper-literal"])
    def test_many_blocks_match_one_kernel_call(self, convention):
        # Over 3 x 8192 modes per polarization: the blocked contraction must
        # agree with the pairwise sum of one per-mode kernel call over the
        # whole cutoff-sorted table to the stated tolerance, and within the
        # mode sum's rounding bound.  The TM sum is the oracle-consistent
        # one, here with the convention's signs (the printed cross terms are
        # no mode sum).  Both TE sums are mapped with the same printed
        # zero-index sum, which is no mode sum either.
        from wgdisp.conventions import apply
        from wgdisp.coupling import _printed_sums
        geom = Geometry(1.0, 0.8)
        p1, p2 = TransversePoint(0.37, 0.23), TransversePoint(0.61, 0.44)
        conv = Conventions(convention)
        K, z = 1300.0, 0.02
        tables = mode_arrays(geom, K)
        assert tables["TM"]["k"].size > 3 * 8192
        tm, te = tables["TM"], tables["TE"]
        want_tm = TM_SIGNS[convention] * TM_SIGNS["oracle-consistent"] * _direct_tm(
            geom, tm["m"].astype(float), tm["n"].astype(float), tm["k"], p1, p2, z,
            Conventions()).sum(axis=2)
        want_te = _direct_te(geom, te["m"].astype(float), te["n"].astype(float),
                             te["k"], p1, p2, z, E100, Conventions()).sum(axis=2)
        tm, te_unit, tm_tail, te_tail = _mode_sum(ModeTable(geom, p1, p2), z, K)
        tm = TM_SIGNS[convention] * TM_SIGNS["oracle-consistent"] * tm
        weight = -2.0 * E100
        _, (xx, yy), *_ = _printed_sums(geom, p1, p2, z, 1_000_000)
        zero = weight * np.diag([xx, yy, 0.0]) if conv.printed else None
        _, want_te = apply(conv, None, want_te, zero=zero)
        _, te = apply(conv, None, weight * te_unit, zero=zero)
        scale = max(np.abs(want_tm).max(), np.abs(want_te).max())
        assert np.abs(tm - want_tm).max() <= min(SUM_TOL * scale, tm_tail)
        assert np.abs(te - want_te).max() <= min(SUM_TOL * scale, abs(weight) * te_tail)

    def test_sums_pinned(self):
        # The order in which the mode sum adds its modes is part of its
        # value: the sums at each cutoff must keep their bits.
        geom = Geometry(1.0, 0.8)
        table = ModeTable(geom, TransversePoint(0.37, 0.23), TransversePoint(0.61, 0.44))
        for K, pinned in PINNED_SUMS.items():
            assert _pinned_sums(table, K) == pinned

    def test_sums_kept_read_only_for_the_batch(self):
        # The levels at a separation share one mode sum, so no caller may
        # write to it; a new batch of splits starts a new set.
        cfg = _config(0.3, p1=TransversePoint(0.3, 0.4), p2=TransversePoint(0.6, 0.55))
        table = ModeTable(cfg.geom, cfg.p1, cfg.p2)
        f_tensor(cfg, E100, max_cutoff=60.0, table=table)
        (key, shared), = table._sums.items()
        tm, te = shared[:2]
        assert not tm.flags.writeable and not te.flags.writeable
        with pytest.raises(ValueError):
            tm[0, 1] = 0.0
        f_tensor(cfg, 2.0 * E100, max_cutoff=60.0, table=table)
        assert table._sums == {key: shared}
        table.compute_splits([0.3])
        assert table._sums == {}
        again = _mode_sum(table, *key)
        assert all(np.float64(g).tobytes() == np.float64(w).tobytes()
                   for g, w in zip(again[:2], shared[:2]))


@st.composite
def _lattice_cases(draw):
    # Guides with b/a in [0.05, 20], z from 0.05 to 3 times sqrt(A) and
    # cutoffs from a third of k_11 to 30 k_11, below and past 1/z.
    from wgdisp.coupling import _k11
    geom = Geometry(1.0, 0.05 * 400.0 ** draw(st.floats(0.0, 1.0)))
    z = math.sqrt(geom.area) * 0.05 * 60.0 ** draw(st.floats(0.0, 1.0))
    return geom, z, _k11(geom) * 90.0 ** draw(st.floats(0.0, 1.0)) / 3.0


@st.composite
def _fixed_cutoff_cases(draw):
    # Guides with b/a in [0.05, 1], interior or wall points, z from 0.05a to
    # 3a and a cutoff from k_11 to 8 / z + 4 k_11.
    from wgdisp.coupling import _k11
    geom = Geometry(1.0, 0.05 * 20.0 ** draw(st.floats(0.0, 1.0)))
    p1, p2 = (TransversePoint(draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)) * geom.b)
              for _ in range(2))
    z = 0.05 * 60.0 ** draw(st.floats(0.0, 1.0))
    k11 = _k11(geom)
    K = k11 + draw(st.floats(0.0, 1.0)) * (8.0 / z + 3.0 * k11)
    return PairConfiguration(geom, p1, p2, z, ISO, ISO), K


# The mode sum of wgdisp.energy._mode_sum over the modes with k <= 1500 in
# the 1 x 0.1 guide, p1 = (0, 0.03), p2 = (0.7, 0.05), z = 0.05, summed by
# mpmath at 40 digits from exact trig factors, exp and K0.  At p1's wall
# x = 0 only the first column (components x at p1) survives: the TM xx, yx
# and zx entries, the unit TE xx and yx, and the xx of its zero-index part,
# whose modes past K add below 1e-30: the printed zero-index sum's xx.
MPMATH_THIN_SUM = {"tm": (2.3480289107599389e-6, 2.0188642397898346e-15,
                          1.7518905947071151e-7),
                   "te": (1.7030240011275887e-7, 8.0953849953643353e-17),
                   "zero": 3.1225055905630538}


class TestReferenceModeSum:
    @settings(max_examples=40, deadline=None)
    @given(case=_lattice_cases())
    def test_lattice_tails_bound_the_summed_envelope(self, case):
        # Each lattice tail bounds its envelope summed over the modes past
        # K: (4 pi / A) k e^{-kz} over the TM modes and (4/A) K0(kz) over
        # the TE modes, here summed up to where the tail left is 1e-3 of it.
        from wgdisp._special import k0
        geom, z, K = case
        table = ModeTable(geom, TransversePoint(0.1, 0.1), TransversePoint(0.2, 0.2))
        for pol in ("TM", "TE"):
            bound = _lattice_tail(table, pol, K, z)
            far = K + 1.0 / z
            while _lattice_tail(table, pol, far, z) > 1e-3 * bound:
                far *= 1.3
            k = mode_arrays(geom, far)[pol]["k"]
            k = k[k > K * (1.0 + 1e-12)]
            envelope = (4.0 * math.pi / geom.area) * k * np.exp(-k * z) if pol == "TM" \
                else (4.0 / geom.area) * k0(k * z)
            assert math.fsum(envelope.tolist()) <= bound

    @settings(max_examples=30, deadline=None)
    @given(case=_fixed_cutoff_cases())
    def test_fixed_cutoff_within_tails_of_the_splits(self, case):
        # The mode sum of both channels below any cutoff lies within its
        # printed tail, truncation and rounding, plus the splits' bounds of
        # the split tensors, entry by entry.
        cfg, K = case
        assume(not (cfg.geom.is_corner(cfg.p1) or cfg.geom.is_corner(cfg.p2)))
        fixed = f_tensor(cfg, E100, max_cutoff=K)
        table = ModeTable(cfg.geom, cfg.p1, cfg.p2)
        tm, tm_bound = table.split("TM", cfg.z)
        te, te_bound = table.split("TE", cfg.z)
        weight = -2.0 * E100
        assert np.abs(fixed.tm_tensor - tm).max() <= fixed.tail_bound + tm_bound
        assert np.abs(fixed.te_tensor - weight * te).max() \
            <= fixed.tail_bound + abs(weight) * te_bound

    def test_thin_guide_tail_covers_rounding(self):
        # Dipoles many short sides apart: the tensor is far smaller than the
        # terms it adds, and the rounding part of the tail, not the
        # truncation part, covers the distance to an exact sum of the same
        # modes.
        from wgdisp.coupling import _printed_sums
        geom = Geometry(1.0, 0.1)
        table = ModeTable(geom, TransversePoint(0.0, 0.03), TransversePoint(0.7, 0.05))
        K, z = 1500.0, 0.05
        tm, te, tm_tail, te_tail = _mode_sum(table, z, K)
        exact = MPMATH_THIN_SUM
        assert not np.any(tm[:, 1:]) and not np.any(te[:, 1:])
        tm_err = np.abs(tm[:, 0] - exact["tm"]).max()
        te_err = np.abs(te[:2, 0] - exact["te"]).max()
        assert _lattice_tail(table, "TM", K, z) < 1e-3 * tm_err
        assert tm_err > 1e-7 * np.abs(tm).max()  # rounding far above truncation
        assert tm_err <= tm_tail and te_err <= te_tail
        _, (xx, _), _, zero_bound = _printed_sums(geom, *table.key[1:], z, 1_000_000)
        assert abs(xx - exact["zero"]) <= zero_bound


def _reference_f_tensor(cfg, energy, tail_tol):
    """f_tensor's rule under tail_tol, with math.fsum sums of listed terms
    for the printed parts (:func:`_listed_printed`).

    The TM tensor is the split of a fresh mode table, its signs masked and
    xy and yx the listed cross terms under the printed bundle; the TE
    tensor is the TE split plus, under the printed bundle, the listed
    zero-index terms, times factor E.  The terms left out of the
    listings add below 1e-3 SUM_TOL of the splits' scale.  The tail adds
    the splits' bounds and the bounds of
    :func:`wgdisp.coupling._printed_sums`, and K_TE grows by 1.3 from
    max(3 pi / max(a, b), 8 / z) until the TM split's bound and
    the TE lattice tail at K_TE fit the budget, tail_tol times the largest
    entry.
    Returns (tm, te, (TM modes, TE modes), (K_TM, K_TE), tail).
    """
    from wgdisp.coupling import _printed_sums, _split_cutoff
    geom, z, conv = cfg.geom, cfg.z, cfg.conventions
    weight = TE_FACTORS[conv.bundle] * energy
    table = ModeTable(geom, cfg.p1, cfg.p2)
    split, tm_tail = table.split("TM", z)
    te_unit, te_tail = table.split("TE", z)
    tm = TM_SIGNS[conv.bundle] * TM_SIGNS["oracle-consistent"] * split
    te = weight * te_unit
    room = 1e-3 * SUM_TOL * max(np.abs(tm).max(), np.abs(te).max())
    cross, zero, _, _ = _listed_printed(geom, cfg.p1, cfg.p2, z, room)
    *_, cross_tail, axis_tail = _printed_sums(geom, cfg.p1, cfg.p2, z, 1_000_000)
    tail = tm_tail
    if conv.printed:
        tm[0, 1], tm[1, 0] = cross
        tail += cross_tail
    tail += abs(weight) * te_tail
    if conv.printed:
        te[0, 0] += weight * zero[0]
        te[1, 1] += weight * zero[1]
        tail += abs(weight) * axis_tail
    budget = tail_tol * max(np.abs(tm).max(), np.abs(te).max())
    K_te = max(3.0 * math.pi / max(geom.a, geom.b), 8.0 / z)
    while tm_tail + abs(weight) * _lattice_tail(table, "TE", K_te, z) > budget:
        K_te *= 1.3
    K_split = _split_cutoff(geom)
    listed = mode_arrays(geom, K_split)
    return tm, te, (listed["TM"]["k"].size, listed["TE"]["k"].size), (K_split, K_te), tail


def _listed_printed(geom, p1, p2, z, room):
    """The printed sums as math.fsum sums of listed terms: the paper-literal
    TM cross terms (xy, yx, :func:`wgdisp.coupling._paper_cross`) over the
    TM modes and the unit zero-index TE terms (xx, yy), (2/A) K0(kz) times
    the sines at both points along each axis, below the least cutoff
    k_11 1.1^j past which the terms' envelopes add at most ``room``.
    Returns the two pairs and an allowance for the error of each entry:
    that envelope plus 8 eps of the sum of the |terms|.

    Each cross term is at most 2 pi^2 e^{-kz} / (A^2 k), and with every
    lattice cell within k_11 below its mode the modes past K add at most
    (pi / A) e^{-(K - k_11) z} / z.  Each zero-index term is at most
    (2/A) K0(kz) < (2/A) sqrt(pi / 2kz) e^{-kz}, so a row spaced by pi / L
    drops at most its first term past K plus L / pi times the integral.
    """
    from wgdisp._special import k0
    from wgdisp.coupling import _paper_cross
    a, b, area = geom.a, geom.b, geom.area
    k11 = math.hypot(math.pi / a, math.pi / b)

    def envelope(K):
        return max(math.pi / area * math.exp(-(K - k11) * z) / z,
                   (2.0 / area) * math.sqrt(math.pi / (2.0 * K * z)) * math.exp(-K * z)
                   * (2.0 + (a + b) / (math.pi * z)))
    K = k11
    while envelope(K) > room:
        K *= 1.1
    tm = mode_arrays(geom, K)["TM"]
    rows = list(_paper_cross(geom, tm["m"], tm["n"], tm["k"], p1, p2, z))
    for length, at2, at1 in ((b, p2.y, p1.y), (a, p2.x, p1.x)):  # xx, then yy
        k = np.arange(1, int(K * length / math.pi) + 1) * (math.pi / length)
        rows.append((2.0 / area) * np.sin(k * at2) * np.sin(k * at1) * k0(k * z))
    values = np.array([math.fsum(row.tolist()) for row in rows])
    allowance = envelope(K) + 8.0 * np.finfo(float).eps * np.array(
        [math.fsum(np.abs(row).tolist()) for row in rows])
    return values[:2], values[2:], allowance[:2], allowance[2:]


def _seeded_cases(n):
    rng = np.random.default_rng(2024)
    for i in range(n):
        b = rng.uniform(0.5, 1.0)
        p1 = TransversePoint(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9) * b)
        p2 = TransversePoint(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9) * b)
        z = 0.02 * 250.0 ** (i / (n - 1))  # log-spaced over [0.02a, 5a]
        # Both bundles, the printed one with parts summed over modes under
        # tail_tol.
        conv = (Conventions(), Conventions("paper-literal"))[i % 2]
        yield PairConfiguration(Geometry(1.0, b), p1, p2, z, ISO, ISO,
                                conventions=conv)


class TestAgainstPairwiseSum:
    @pytest.mark.parametrize("cfg", list(_seeded_cases(8)),
                             ids=lambda cfg: f"z={cfg.z:.3g}")
    def test_same_cutoff_and_sums_within_tolerance(self, cfg):
        tm, te, modes, cutoffs, tail = _reference_f_tensor(cfg, E100, 1e-6)
        ft = f_tensor(cfg, E100, tail_tol=1e-6)
        assert ft.tm_cutoff == cutoffs[0]
        assert (ft.tm_modes, ft.te_modes) == modes
        assert ft.max_cutoff == max(cutoffs) and ft.modes_used == sum(modes)
        assert ft.tail_bound == tail
        scale = max(np.abs(tm).max(), np.abs(te).max())
        assert np.abs(ft.tm_tensor - tm).max() <= SUM_TOL * scale
        assert np.abs(ft.te_tensor - te).max() <= SUM_TOL * scale
        assert np.abs(ft.tensor - (tm + te)).max() <= SUM_TOL * scale
        # The printed energies, assembled as dispersion_energy does.
        u = dispersion_energy(cfg, tail_tol=1e-6)
        p, = ISO.second_moments
        w = -1.0 / (2.0 * math.pi) ** 2 / (2.0 * E100)
        want = {"total": w * quadratic_contraction(p, p, tm + te, tm + te),
                "u_tm_only": w * quadratic_contraction(p, p, tm, tm),
                "u_te_only": w * quadratic_contraction(p, p, te, te)}
        for name, value in want.items():
            assert abs(getattr(u, name) - value) <= ENERGY_TOL * abs(u.total)
        cross = 2.0 * quadratic_contraction(p, p, np.abs(tm + te), np.ones((3, 3)))
        want_tail = abs(w) * (tail * cross + 9.0 * tail * tail * p.trace() ** 2)
        assert abs(u.tail_estimate - want_tail) <= ENERGY_TOL * want_tail


class TestCornerDipole:
    @pytest.mark.parametrize("p1, p2", [
        ((0.0, 0.0), (1.0, 0.6)), ((1.0, 0.0), (0.4, 0.3)),
        ((0.4, 0.3), (0.0, 0.6)),
    ])
    def test_exact_zero_without_growth(self, monkeypatch, p1, p2):
        import wgdisp.energy as energy_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("mode listing at a corner")
        monkeypatch.setattr(energy_mod, "mode_arrays", forbidden)
        geom = Geometry(1.0, 0.6)
        cfg = PairConfiguration(geom, TransversePoint(*p1),
                                TransversePoint(*p2), 0.5, ISO, ISO)
        u = dispersion_energy(cfg, tail_tol=1e-6)
        assert u.total == 0.0 and u.u_tm_only == 0.0 and u.u_te_only == 0.0
        assert u.tail_estimate == 0.0
        assert u.modes_used == 0
        corners = [p for p in (p1, p2) if p[0] in (0.0, 1.0) and p[1] in (0.0, 0.6)]
        assert len(u.warnings) == len(corners)
        for note, (x, y) in zip(u.warnings, corners):
            assert f"corner ({x:g}, {y:g})" in note
        grown = f_tensor(cfg, E100, tail_tol=1e-6)
        assert grown.max_cutoff == grown.tm_cutoff
        fixed = f_tensor(cfg, E100, max_cutoff=5.0)
        assert not np.any(fixed.tensor) and fixed.modes_used == 0
        assert fixed.tm_cutoff == fixed.max_cutoff == 5.0

    def test_edge_is_not_a_corner(self):
        cfg = PairConfiguration(SQ, TransversePoint(0.0, 0.4),
                                TransversePoint(0.6, 0.5), 0.5, ISO, ISO)
        u = dispersion_energy(cfg, tail_tol=1e-6)
        assert u.total < 0.0 and u.modes_used > 0 and u.warnings == []


@st.composite
def _top_mode_cases(draw):
    # Rectangular guides with any two interior points, and square guides
    # with mirrored or diagonal points, where TMmn and TMnm (and TE10 and
    # TE01) can tie in max |F|.
    x, y = draw(st.floats(0.05, 0.95)), draw(st.floats(0.05, 0.95))
    shape = draw(st.sampled_from(["rectangle", "mirrored", "diagonal", "centre"]))
    if shape == "rectangle":
        b = draw(st.floats(0.5, 1.0))
        points = (x, y * b), (draw(st.floats(0.05, 0.95)), draw(st.floats(0.05, 0.95)) * b)
    else:
        b = 1.0
        points = {"mirrored": ((x, y), (y, x)), "diagonal": ((x, x), (y, y)),
                  "centre": ((0.5, 0.5), (0.5, 0.5))}[shape]
    conv = Conventions(draw(st.sampled_from(["oracle-consistent",
                                                       "paper-literal"])))
    z = 0.1 * 50.0 ** draw(st.floats(0.0, 1.0))  # log-uniform in [0.1a, 5a]
    cfg = PairConfiguration(Geometry(1.0, b), TransversePoint(*points[0]),
                            TransversePoint(*points[1]), z, ISO, ISO,
                            conventions=conv)
    truncation = draw(st.sampled_from([
        {"tail_tol": 10.0 ** draw(st.floats(-10.0, -4.0))},
        {"max_cutoff": draw(st.floats(2.0, 40.0))}]))
    return cfg, truncation, draw(st.sampled_from([0, 1, 8, 10 ** 6]))


@st.composite
def _envelope_cases(draw):
    # Guides with b/a in [0.05, 1], z in [0.05a, 8a], and in the square
    # guide mirrored, diagonal or centred points, where peaks tie.
    shape = draw(st.sampled_from(["rectangle", "rectangle", "mirrored", "diagonal",
                                  "centre"]))
    x, y = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    if shape == "rectangle":
        b = draw(st.floats(0.05, 1.0))
        points = (x, y * b), (draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)) * b)
    else:
        b = 1.0
        points = {"mirrored": ((x, y), (y, x)), "diagonal": ((x, x), (y, y)),
                  "centre": ((0.5, 0.5), (0.5, 0.5))}[shape]
    conv = Conventions(draw(st.sampled_from(["oracle-consistent",
                                                       "paper-literal"])))
    z = 0.05 * 160.0 ** draw(st.floats(0.0, 1.0))  # log-uniform in [0.05a, 8a]
    cfg = PairConfiguration(Geometry(1.0, b), TransversePoint(*points[0]),
                            TransversePoint(*points[1]), z, ISO, ISO,
                            conventions=conv)
    energy = 2.0 * math.pi / draw(st.floats(20.0, 200.0))
    truncation = draw(st.sampled_from([
        {"tail_tol": 10.0 ** draw(st.floats(-10.0, -4.0))},
        {"max_cutoff": draw(st.floats(2.0, 40.0))}]))
    n = draw(st.one_of(st.integers(0, 50), st.just(10 ** 6)))
    return cfg, energy, truncation, n


def _assert_same_ranking(got, want):
    assert [(mode, type(peak)) for mode, peak, _ in got] \
        == [(mode, type(peak)) for mode, peak, _ in want]
    for (_, peak, f), (_, ref_peak, ref_f) in zip(got, want):
        assert np.float64(peak).tobytes() == np.float64(ref_peak).tobytes()
        assert f.tobytes() == ref_f.tobytes() and f.tolist() == ref_f.tolist()


def _listed_modes(ft):
    """mode_tensors of the modes top_modes ranks: those the tensor lists."""
    return mode_tensors(ft._table, (ft.tm_modes, ft.te_modes), ft._config.z, ft._energy,
                        ft._config.conventions)


class TestTopModes:
    @settings(max_examples=40, deadline=None)
    @given(case=_top_mode_cases())
    def test_equals_sorted_per_mode(self, case):
        # The ranking of the stacked arrays is, label, peak and tensor bit
        # for bit, a Python sort over the per-mode couplings it ranks.
        cfg, truncation, n = case
        ft = f_tensor(cfg, E100, **truncation)
        got = ft.top_modes(n)
        assert len(got) <= n
        _assert_same_ranking(got, ranked_modes(_listed_modes(ft), len(got)))

    def test_ties_follow_polarization_and_indices(self):
        # Centred in a square guide, TMmn and TMnm, and TE01 and TE10, have
        # the same peak to the bit; the smaller indices rank first.
        ft = f_tensor(_config(0.8), E100, max_cutoff=20.0)
        got = ft.top_modes(10 ** 6)
        _assert_same_ranking(got, ranked_modes(_listed_modes(ft), len(got)))
        labels = [mode.label() for mode, _, _ in got]
        assert labels[:7] == ["TM11", "TM12", "TM21", "TM13", "TM31", "TE01", "TE10"]
        assert got[1][1] == got[2][1] and got[3][1] == got[4][1] \
            and got[5][1] == got[6][1]

    @settings(max_examples=150, deadline=None)
    @given(case=_envelope_cases())
    def test_head_of_full_ranking(self, case):
        # Every mode the tensor takes past its listed ones lies below the
        # envelope the kept modes clear, so the list is, bit for bit, the
        # head of a ranking of every mode up to max(3 K_split, 6/z), or to a
        # max_cutoff, built on a fresh table.
        cfg, energy, truncation, n = case
        try:
            ft = f_tensor(cfg, energy, **truncation)
        except (InputError, ModeCapError):  # tail_tol below the splits' bounds
            reject()
        got = ft.top_modes(n)
        assert len(got) <= n
        full = full_ranking(cfg, energy, truncation.get("max_cutoff"))
        _assert_same_ranking(got, ranked_modes(full, len(got)))

    def test_corner_dipole_lists_nothing(self):
        cfg = _config(0.5, p1=TransversePoint(0.0, 0.0))
        ft = f_tensor(cfg, E100, tail_tol=1e-6)
        assert ft.top_modes(8) == []

    @pytest.mark.parametrize("convention", ["oracle-consistent", "paper-literal"])
    @pytest.mark.parametrize("truncation, b, z, p1, p2", [
        pytest.param("max_cutoff", 0.7, 0.9, (0.3, 0.2), (0.65, 0.5), id="max_cutoff"),
        pytest.param("other batch", 0.7, 0.9, (0.3, 0.2), (0.65, 0.5), id="other batch"),
        *(pytest.param("own batch", b, z, (0.3, 0.2 * b), (0.7, 0.55 * b),
                       id=f"{b}-{z}")
          for b, z in [(1.0, 0.8), (0.6, 3.0), (0.85, 0.3)]),
    ])
    def test_fresh_k0_equals_fresh_ranking(self, monkeypatch, convention, truncation,
                                           b, z, p1, p2):
        # Under a fixed cutoff, at a report's z, which is in its table's
        # last split batch, and at a z whose batch the table has since
        # replaced, the TE couplings take one K0 call over the listed TE
        # modes, and the list is, bit for bit, a ranking of a fresh table's
        # mode_tensors.
        cfg = _config(z, geom=Geometry(1.0, b), p1=TransversePoint(*p1),
                      p2=TransversePoint(*p2), conventions=Conventions(convention))
        if truncation == "max_cutoff":
            ft = dispersion_energy(cfg, max_cutoff=25.0).f_by_level[E100]
        elif truncation == "own batch":
            ft = dispersion_energy(cfg, tail_tol=1e-8).f_by_level[E100]
            assert cfg.z in ft._table._splits["TE"]
        else:
            table = ModeTable(cfg.geom, cfg.p1, cfg.p2)
            ft = f_tensor(cfg, E100, tail_tol=1e-8, table=table)
            f_tensor(replace(cfg, z=1.7), E100, tail_tol=1e-8, table=table)
            assert cfg.z not in table._splits["TE"]
        calls = _count_k0(monkeypatch)
        got = ft.top_modes(10 ** 6)
        assert calls == [ft.te_modes] and ft.te_modes > 0 and len(got) > 0
        _assert_same_ranking(got, _fresh_ranking(cfg, ft, len(got)))


def _count_k0(monkeypatch):
    """The sizes of the arguments of each K0 call the couplings make from now on."""
    import wgdisp.coupling as coupling_mod
    calls = []

    def counted(x, _kernel=coupling_mod.k0):
        calls.append(x.size)
        return _kernel(x)
    monkeypatch.setattr(coupling_mod, "k0", counted)
    return calls


def _fresh_ranking(cfg, ft, n):
    """The n first modes of a Python ranking of the modes ``ft`` lists, with
    their couplings from ``mode_tensors`` on a fresh table listed to its
    ``tm_cutoff`` (the splits' cutoff, or a max_cutoff)."""
    table = ModeTable(cfg.geom, cfg.p1, cfg.p2)
    assert table.extend(ft.tm_cutoff) == (ft.tm_modes, ft.te_modes)
    return ranked_modes(mode_tensors(table, (ft.tm_modes, ft.te_modes), cfg.z, E100,
                                           cfg.conventions), n)


@st.composite
def _bundle_cases(draw):
    # Either bundle, points on or off the centre lines (where entries
    # vanish exactly), and either truncation; the TE modes listed include
    # the zero-index ones.
    conv = Conventions(draw(st.sampled_from(["oracle-consistent", "paper-literal"])))
    b = draw(st.sampled_from([1.0, 0.7, 0.45]))

    def coordinate(length):
        return length * draw(st.one_of(st.just(0.5), st.floats(0.05, 0.95)))
    p1, p2 = (TransversePoint(coordinate(1.0), coordinate(b)) for _ in range(2))
    z = 0.05 * 60.0 ** draw(st.floats(0.0, 1.0))  # log-uniform in [0.05a, 3a]
    truncation = draw(st.sampled_from([{"tail_tol": 1e-7}, {"max_cutoff": 30.0}]))
    return PairConfiguration(Geometry(1.0, b), p1, p2, z, ISO, ISO, conventions=conv), truncation


def _printed_map(conv, tm, te, cross, zero):
    """The four changes that take oracle-consistent TM and TE couplings (3x3,
    or stacks of them along a last axis; either may be None) to ``conv``,
    written out: under the printed bundle xx, yy, zx and zy change sign and
    xy and yx become ``cross``; ``zero`` is added to TE once more; TE is
    scaled by 1 / -2."""
    if tm is not None:
        tm = tm.copy()
        if conv.printed:
            for i, j in ((0, 0), (1, 1), (2, 0), (2, 1)):
                tm[i, j] = -tm[i, j]
            tm[0, 1], tm[1, 0] = cross
        tm = tm + 0.0
    if te is not None:
        if conv.printed:
            te = (te + zero) * (1.0 / -2.0)
        te = te + 0.0
    return tm, te


def _same_bits(got, want):
    assert (np.asarray(got) + 0.0).tobytes() == (np.asarray(want) + 0.0).tobytes()


class TestConventionMap:
    @settings(max_examples=150, deadline=None)
    @given(case=_bundle_cases())
    def test_both_bundles_are_the_map_of_the_oracle_bundle(self, case):
        # Each bundle's tensors are the oracle-consistent ones under the
        # written-out map, bit for bit, with the printed sums as its printed
        # parts under either truncation.  So are the per-mode couplings of
        # every mode the tensor lists, the printed cross terms per mode and
        # the zero-index TE couplings taken twice, and top_modes lists those
        # couplings.  A printed zero-index TE coupling is also within
        # NORMALIZATION_RTOL of the printed profiles' product.
        from wgdisp.coupling import _paper_cross, _printed_sums
        cfg, truncation = case
        conv, geom, z, p1, p2 = cfg.conventions, cfg.geom, cfg.z, cfg.p1, cfg.p2
        try:
            ft = f_tensor(cfg, E100, **truncation)
            oracle = f_tensor(replace(cfg, conventions=Conventions()), E100, **truncation)
        except InputError:  # the tail tolerance below a bound
            reject()
        weight = -2.0 * E100
        (xy, yx), (xx, yy), *_ = _printed_sums(geom, p1, p2, z, 1_000_000)
        table = ModeTable(geom, p1, p2)
        counts = table.extend(ft.tm_cutoff)
        zero = weight * np.diag([xx, yy, 0.0])
        tm, te = _printed_map(conv, oracle.tm_tensor, oracle.te_tensor, (xy, yx), zero)
        _same_bits(ft.tm_tensor, tm)
        _same_bits(ft.te_tensor, te)
        _same_bits(ft.tensor, tm + te)
        assert counts == (ft.tm_modes, ft.te_modes)
        pols, ms, ns, got = mode_tensors(table, counts, z, E100, conv)
        _, _, _, base = mode_tensors(table, counts, z, E100)
        tm_part, te_part = slice(0, counts[0]), slice(counts[0], None)
        k = np.hypot(ms * np.pi / geom.a, ns * np.pi / geom.b)
        cross = _paper_cross(geom, ms[tm_part], ns[tm_part], k[tm_part], p1, p2, z)
        zero_index = (ms[te_part] == 0) | (ns[te_part] == 0)
        assert zero_index.any()
        tm, _ = _printed_map(conv, base[:, :, tm_part], None, cross, None)
        _, te = _printed_map(conv, None, base[:, :, te_part], None,
                             np.where(zero_index, base[:, :, te_part], 0.0))
        _same_bits(got, np.concatenate([tm, te], axis=2))
        if conv.printed:
            printed = _direct_te(geom, ms[te_part].astype(float), ns[te_part].astype(float),
                                 k[te_part], p1, p2, z, E100, conv)
            assert np.allclose(got[:, :, te_part][:, :, zero_index], printed[:, :, zero_index],
                               rtol=NORMALIZATION_RTOL, atol=0.0)
        column = {key: c for c, key in enumerate(zip(pols.tolist(), ms.tolist(), ns.tolist()))}
        for mode, peak, f in ft.top_modes(10 ** 6):
            _same_bits(f, got[:, :, column[mode.polarization, mode.m, mode.n]])
            assert peak == np.abs(f).max()


_ONE_SIGN = st.tuples(st.floats(0.05, 2.0), st.floats(0.0, 2.0),
                      st.floats(0.0, 2.0))


@st.composite
def _tail_cases(draw):
    b = draw(st.floats(0.5, 1.0))
    points = [TransversePoint(draw(st.floats(0.05, 0.95)),
                              draw(st.floats(0.05, 0.95)) * b) for _ in range(2)]
    orientation = draw(st.sampled_from(["isotropic-average", "fixed-vector"]))
    sign = draw(st.sampled_from([1.0, -1.0]))
    levels = draw(st.lists(st.tuples(st.floats(20.0, 200.0), _ONE_SIGN),
                           min_size=1, max_size=3,
                           unique_by=lambda level: level[0]))
    species = DipoleSpecies(tuple(
        DipoleTransition(2.0 * math.pi / lam, tuple(sign * c for c in d))
        for lam, d in levels), orientation)
    z = draw(st.floats(0.05, 5.0))
    return PairConfiguration(Geometry(1.0, b), points[0], points[1], z,
                             species, species)


class TestTailBoundProperty:
    @settings(max_examples=20, deadline=None)
    @given(cfg=_tail_cases())
    def test_tail_bounds_truncation_error(self, cfg):
        # Reference: the mode sum of both channels at twice the largest
        # chosen cutoff, whose own tail, truncation and rounding, is added.
        u = dispersion_energy(cfg, tail_tol=1e-6)
        cutoff = max(f.max_cutoff for f in u.f_by_level.values())
        ref = dispersion_energy(cfg, max_cutoff=2.0 * cutoff)
        assert abs(u.total - ref.total) <= u.tail_estimate + ref.tail_estimate
        # The TM split alone against the TM mode sum at the cutoff the
        # growth starts from, where that sum's tail is largest.
        geom, z = cfg.geom, cfg.z
        table = ModeTable(geom, cfg.p1, cfg.p2)
        split, split_tail = table.split("TM", z)
        K = max(3.0 * math.pi / max(geom.a, geom.b), 8.0 / z)
        tm, _, tm_tail, _ = _mode_sum(table, z, K)
        assert np.abs(tm - split).max() <= tm_tail + split_tail


_TWO_LEVELS = DipoleSpecies(
    (DipoleTransition(E100, (0.3, 1.0, 0.6)),
     DipoleTransition(1.7 * E100, (0.9, 0.2, 0.4))), "fixed-vector")


@st.composite
def _split_cases(draw):
    # Off-centre pairs, p2 offset from p1 by at most the axial separation
    # (and 0.4a) per axis: further apart, the tensor scale falls, and the
    # fixed-cutoff reference's TE listing at the smallest separations grows
    # towards the mode cap.
    b = draw(st.floats(0.5, 1.0))
    z = 0.01 * 500.0 ** draw(st.floats(0.0, 1.0))  # log-uniform in [0.01a, 5a]
    x1, y1 = draw(st.floats(0.1, 0.9)), draw(st.floats(0.1, 0.9)) * b
    dx, dy = (draw(st.floats(0.1, 1.0)) * draw(st.sampled_from([1.0, -1.0]))
              * min(z, 0.4) for _ in range(2))
    p1 = TransversePoint(x1, y1)
    p2 = TransversePoint(min(max(x1 + dx, 0.05), 0.95),
                         min(max(y1 + dy, 0.05 * b), 0.95 * b))
    orientation = draw(st.sampled_from(["isotropic-average", "fixed-vector"]))
    levels = draw(st.lists(st.tuples(st.floats(20.0, 200.0), _ONE_SIGN),
                           min_size=1, max_size=3,
                           unique_by=lambda level: level[0]))
    species = DipoleSpecies(tuple(DipoleTransition(2.0 * math.pi / lam, d)
                                  for lam, d in levels), orientation)
    conv = Conventions(draw(st.sampled_from(["oracle-consistent",
                                                       "paper-literal"])))
    cfg = PairConfiguration(Geometry(1.0, b), p1, p2, z, species, species,
                            conventions=conv)
    return cfg, 10.0 ** draw(st.floats(-8.0, -4.0))


class TestPolarizationCutoffs:
    @settings(max_examples=25, deadline=None)
    @given(case=_split_cases())
    def test_within_tail_of_common_cutoff(self, case):
        # Each level's TE split is held against the cutoff a plain TE sum
        # would need.  Against the mode sum of both channels to that cutoff
        # the energy, and its TM part alone, move by no more than the two
        # tail estimates (the mode sum's with its rounding).
        from wgdisp.energy import _assemble
        cfg, tol = case
        u = dispersion_energy(cfg, tail_tol=tol)
        try:
            fixed, = _assemble([cfg], lambda _, e: f_tensor(
                cfg, e, max_cutoff=u.f_by_level[e].max_cutoff), [])
        except ModeCapError:
            reject()  # the TE listing at that cutoff passes the cap
        assert abs(u.total - fixed.total) <= u.tail_estimate + fixed.tail_estimate
        assert abs(u.u_tm_only - fixed.u_tm_only) <= u.tail_estimate + fixed.tail_estimate

    def test_sweep_builds_rows_to_each_cutoff(self, monkeypatch):
        # Over a sweep each polarization's factor rows are built once, and
        # only as far as the largest count of that polarization summed:
        # under the default conventions only for the screened modes of the
        # two splits, whatever TE cutoff a mode sum would need.
        import wgdisp.coupling as coupling_mod
        built = {"TM": 0, "TE": 0}
        for pol, name in (("TM", "_tm_rows"), ("TE", "_te_rows")):
            kernel = getattr(coupling_mod, name)

            def counted(geom, m, n, k, *rest, _kernel=kernel, _pol=pol):
                built[_pol] += k.size
                return _kernel(geom, m, n, k, *rest)
            monkeypatch.setattr(coupling_mod, name, counted)
        cfg = PairConfiguration(Geometry(1.0, 0.7), TransversePoint(0.31, 0.22),
                                TransversePoint(0.68, 0.41), 0.04, _TWO_LEVELS,
                                _TWO_LEVELS)
        sweep = dispersion_sweep(cfg, np.geomspace(0.04, 0.4, 6).tolist(),
                                 tail_tol=1e-7)
        levels = [f for u in sweep for f in u.f_by_level.values()]
        assert built["TE"] == max(f.te_modes for f in levels)
        assert built["TM"] == max(f.tm_modes for f in levels)
        assert max(f.tm_cutoff for f in levels) < max(f.max_cutoff for f in levels)
        assert built["TM"] < 100 and built["TE"] < 100


def _split_coordinate(draw, length):
    """A wall, a nodal centre line or an inside coordinate along one side."""
    kind = draw(st.sampled_from(["wall", "centre", "inside", "inside"]))
    if kind == "wall":
        return draw(st.sampled_from([0.0, length]))
    if kind == "centre":
        return 0.5 * length
    return draw(st.floats(0.02, 0.98)) * length


@st.composite
def _table_cases(draw):
    # Guides with b/a in [0.05, 20]; each coordinate on a wall, a centre
    # line or inside, so points sit on edges, on centre lines and at
    # corners.  A fixed cutoff from half to three times the splits'.
    from wgdisp.coupling import _split_cutoff
    geom = Geometry(1.0, 0.05 * 400.0 ** draw(st.floats(0.0, 1.0)))
    p1, p2 = (TransversePoint(_split_coordinate(draw, geom.a), _split_coordinate(draw, geom.b))
              for _ in range(2))
    conv = Conventions(draw(st.sampled_from(["oracle-consistent", "paper-literal"])))
    return geom, p1, p2, conv, draw(st.floats(0.5, 3.0)) * _split_cutoff(geom)


def _assert_same_array(got, want):
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


def _assert_same_table(got, want):
    assert got.cutoff == want.cutoff
    for pol in ("TM", "TE"):
        for name in ("_k", "_mn", "_rows"):
            _assert_same_array(getattr(got, name)[pol], getattr(want, name)[pol])


SRC = Path(__file__).resolve().parents[1] / "src" / "wgdisp"


def _privates(cls: str) -> set[str]:
    """The private names of energy.py's class ``cls``: its methods, its
    fields and the attributes its methods set on self, dunders aside."""
    tree = ast.parse((SRC / "energy.py").read_text(encoding="utf-8"))
    body = next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == cls)
    names = {node.name for node in ast.walk(body) if isinstance(node, ast.FunctionDef)}
    names |= {node.target.id for node in body.body
              if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}
    names |= {node.attr for node in ast.walk(body)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"}
    return {name for name in names if name.startswith("_") and not name.endswith("__")}


def private_reads(source: str, private: set[str]) -> list[tuple[int, str]]:
    """(line, name) of each attribute or getattr of a name in ``private`` in
    ``source``, except attributes of a name an import binds to a module."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               or (isinstance(node, ast.ImportFrom) and node.module is None)
               for alias in node.names}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in private and not (
                isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append((node.lineno, f".{node.attr}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant) and node.args[1].value in private):
            found.append((node.lineno, f"getattr {node.args[1].value}"))
    return found


def test_only_energy_reads_the_tables_privates():
    # Outside energy.py the mode table is read through its listing (extend,
    # counts, split, compute_splits and key) alone.
    private = _privates("ModeTable")
    assert {"_k", "_mn", "_rows", "_list", "_split_cutoff", "_images"} <= private
    for read, other in (("k = table._k[pol][:count]", "count = table.counts(K)[1]"),
                        ("rows = getattr(table, '_rows')", "rows = getattr(table, 'key')"),
                        ("x = t._images", "from . import coupling as c\nx = c._split_cutoff")):
        assert private_reads(read, private), read
        assert not private_reads(other, private), other
    reads = {path.name: private_reads(path.read_text(encoding="utf-8"), private)
             for path in sorted(SRC.glob("*.py")) if path.name != "energy.py"}
    assert {"coupling.py", "quadrature.py", "cli.py"} <= reads.keys()
    assert {name: found for name, found in reads.items() if found} == {}


def test_only_energy_reads_the_results_privates():
    # Outside energy.py a level's record is read through its public fields,
    # max_cutoff, modes_used and top_modes alone.
    private = _privates("FTensorResult")
    assert private == {"_table", "_config", "_energy", "_budget", "_tm_tail"}
    assert private_reads("cutoff = ft._config.z", private)
    reads = {path.name: private_reads(path.read_text(encoding="utf-8"), private)
             for path in sorted(SRC.glob("*.py")) if path.name != "energy.py"}
    assert {"fourth_order.py", "cli.py"} <= reads.keys()
    assert {name: found for name, found in reads.items() if found} == {}


def references(source: str, name: str) -> set[str]:
    """Qualified names of the functions of ``source`` that use ``name``, as
    a name or an attribute; a use outside any function is "<module>"."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif name in (getattr(child, "id", None), getattr(child, "attr", None)):
                found.add(scope or "<module>")
            visit(child, inner)
    visit(ast.parse(source), "")
    return found


def test_only_the_listings_call_mode_arrays():
    # The mode cap is held where modes are listed: in src/ only the mode
    # table's listing and the modes command's, enumerate_modes, reach
    # mode_arrays.
    assert references("class T:\n    def f(self):\n        return w.mode_arrays(g, 1)\n"
                      "x = mode_arrays\n", "mode_arrays") == {"T.f", "<module>"}
    assert not references('def f():\n    "mode_arrays"\n', "mode_arrays")
    found = {f"{path.stem}.{scope}" for path in sorted(SRC.glob("*.py"))
             for scope in references(path.read_text(encoding="utf-8"), "mode_arrays")}
    assert found == {"energy.ModeTable._list", "waveguide.enumerate_modes"}


class TestScreenedPass:
    @settings(max_examples=60, deadline=None)
    @given(case=_table_cases())
    def test_equals_incremental_build(self, case):
        # The first split's one pass leaves the table, bit for bit, as a
        # listing to half the splits' cutoff and then to it leave it, and
        # its screened data are those of that table's rows; a fixed cutoff
        # listed afterwards extends both tables alike.
        from wgdisp.coupling import _live, _split_cutoff, _te_rows
        geom, p1, p2, conv, max_cutoff = case
        once = ModeTable(geom, p1, p2)
        K = _split_cutoff(geom)
        once.compute_splits([1.0])
        screened = [(once._k[pol][:count], once._rows[pol][:count],
                     _live(once._rows[pol][:count]))
                    for pol, count in zip(("TM", "TE"), once.counts(K))]
        steps = ModeTable(geom, p1, p2)
        steps.extend(0.5 * K)
        steps.extend(K)
        _assert_same_table(once, steps)
        tm_count, te_count = steps.counts(K)
        rows = steps._rows["TM"][:tm_count]
        want = [(steps._k["TM"][:tm_count], rows, _live(rows))]
        k, (m, n) = steps._k["TE"][:te_count], steps._mn["TE"][:, :te_count]
        rows = steps._rows["TE"][:te_count]
        if conv.printed:
            rows = _te_rows(geom, m, n, k, p1, p2).T
        want.append((k, rows, _live(rows)))
        for got, ref in zip(screened, want):
            for got_array, ref_array in zip(got, ref):
                _assert_same_array(got_array, ref_array)
        once.extend(max_cutoff)
        steps.extend(max_cutoff)
        _assert_same_table(once, steps)


@st.composite
def _split_points(draw):
    # p2 lies within half the shorter side of p1 along each axis: further
    # apart in an elongated guide, the tensor falls below the rounding of
    # the mode sums it is held against.
    geom = Geometry(1.0, 10.0 ** draw(st.floats(-1.0, 1.0)))  # b/a in [0.1, 10]
    short = min(geom.a, geom.b)
    x1, y1 = _split_coordinate(draw, geom.a), _split_coordinate(draw, geom.b)
    x2 = min(max(x1 + draw(st.floats(-0.5, 0.5)) * short, 0.0), geom.a)
    y2 = min(max(y1 + draw(st.floats(-0.5, 0.5)) * short, 0.0), geom.b)
    z = 0.05 * 40.0 ** draw(st.floats(0.0, 1.0))  # log-uniform in [0.05a, 2a]
    p1, p2 = TransversePoint(x1, y1), TransversePoint(x2, y2)
    # At a corner f_tensor returns zero; next to one every profile, and the
    # tensor, is at the rounding floor of the mode sum.
    for p in (p1, p2):
        assume(min(p.x, geom.a - p.x) > 1e-3 * geom.a
               or min(p.y, geom.b - p.y) > 1e-3 * geom.b)
    return geom, p1, p2, z


class TestEwaldSplit:
    @settings(max_examples=25, deadline=None)
    @given(case=_split_points())
    @example(case=(Geometry(1.0, 1.0), TransversePoint(0.5, 0.0),
                   TransversePoint(0.5, 1.1125369292536007e-308), 0.05))
    @example(case=(Geometry(1.0, 10.0), TransversePoint(0.5, 5.0),
                   TransversePoint(0.5, 5.5), 0.05))
    def test_matches_converged_mode_sum(self, case):
        # Against the oracle-consistent TM mode sum grown until its lattice
        # tail is at most 1e-11 of the scale, within 1e-10 of the scale;
        # entries the mode sum gives as exact zeros are exact zeros, and so
        # are the others, except where the mode sum is subnormal: there
        # rounding decides whether the split's value reaches zero (a point
        # 1.1e-308 off the wall gives xy = -1.2e-320 against the split's 0).
        # The reference's listing may pass the default mode cap (~1.6e6
        # modes for b = 10a at z = 0.05a); its table allows four times that.
        geom, p1, p2, z = case
        table = ModeTable(geom, p1, p2, 4_000_000)
        split, _ = table.split("TM", z)
        scale = np.abs(split).max()
        K = max(3.0 * math.pi / max(geom.a, geom.b), 8.0 / z)
        while _lattice_tail(table, "TM", K, z) > 1e-11 * scale:
            K *= 1.3
        summed = _mode_sum(table, z, K)[0]
        assert np.abs(split - summed).max() <= 1e-10 * scale
        normal = (summed == 0.0) | (np.abs(summed) >= sys.float_info.min)
        assert np.array_equal((split == 0.0)[normal], (summed == 0.0)[normal])

    @pytest.mark.parametrize("b, x, y", [(0.7, 0.3, 0.2), (1.0, 0.4, 0.65),
                                         (0.5, 0.55, 0.3), (2.0, 0.35, 1.2)])
    @pytest.mark.parametrize("z, tol", [(1e-3, 1e-6), (1e-4, 1e-9)])
    def test_free_space_recovery_off_centre(self, b, x, y, z, tol):
        # The direct image carries the free-space tensor, so z^3 F tends to
        # diag(-1/2, -1/2, 1) like z^3 at any interior point.
        p = TransversePoint(x, y)
        F, _ = ModeTable(Geometry(1.0, b), p, p).split("TM", z)
        assert np.abs(z ** 3 * F - np.diag([-0.5, -0.5, 1.0])).max() <= tol

    @pytest.mark.parametrize("b, p1, p2, z, truncation, frozen", [
        (0.6, (0.31, 0.22), (0.72, 0.41), 0.07, {"tail_tol": 1e-6},
         ("-5.731113424209e+00", "-6.372521575382e+00", "1.452615117763e-04")),
        (0.5, (0.12, 0.33), (0.85, 0.07), 1.1, {"tail_tol": 1e-10},
         ("-9.540601276506e-06", "-1.367800717614e-05", "4.785186540636e-15")),
        (0.8, (0.0, 0.4), (0.5, 0.5), 0.3, {"max_cutoff": 60.0},
         ("-8.047750636356e+00", "-8.323502304736e+00", "5.170700749988e-03")),
    ])
    def test_paper_literal_keeps_the_mode_sums(self, b, p1, p2, z, truncation,
                                               frozen):
        # Paper-literal energies from the masked split, the cross-term sum
        # and the TE split keep the values frozen from plain mode sums of
        # both polarizations (total, u_tm_only and their tail_estimate)
        # within the two tail estimates.
        cfg = PairConfiguration(Geometry(1.0, b), TransversePoint(*p1),
                                TransversePoint(*p2), z, _TWO_LEVELS, _TWO_LEVELS,
                                conventions=Conventions("paper-literal"))
        u = dispersion_energy(cfg, **truncation)
        total, tm_only, tail = (float(v) for v in frozen)
        assert abs(u.total - total) <= u.tail_estimate + tail
        assert abs(u.u_tm_only - tm_only) <= u.tail_estimate + tail

    def test_reaches_small_separations(self):
        # Neither channel needs ~1/z^2 modes: at 0.005a and 0.001a both are
        # splits over a few dozen screened modes, where a TE mode sum would
        # pass the cap, and the energy tends to the free-space one.
        cfg = _config(0.005, p1=TransversePoint(0.3, 0.2), p2=TransversePoint(0.3, 0.2),
                      geom=Geometry(1.0, 0.7))
        for z in (0.005, 0.001):
            u = dispersion_energy(replace(cfg, z=z), tail_tol=1e-4)
            f = u.f_by_level[E100]
            assert f.tm_modes < 100 and f.te_modes < 100
            assert u.tail_estimate <= 1e-3 * abs(u.total)
            assert u.total / u_freespace_vdw(ISO, ISO, z) \
                == pytest.approx(1.0, abs=0.02)
        # The printed bundle adds the zero-index TE modes once more, as the
        # printed sums of the ln t rule, and the printed TM cross terms.
        u = dispersion_energy(replace(cfg, z=0.001, conventions=Conventions("paper-literal")),
                              tail_tol=1e-4)
        assert u.total / u_freespace_vdw(ISO, ISO, 0.001) \
            == pytest.approx(1.0, abs=0.02)

    def test_tolerance_below_split_accuracy_is_refused(self):
        with pytest.raises(InputError, match="screened TM sum"):
            f_tensor(_config(0.5), E100, tail_tol=1e-17)


def _fsum_entries(per_mode):
    """math.fsum of a (3, 3, N) stack of per-mode couplings over the modes."""
    return np.array([[math.fsum(per_mode[i, j].tolist()) for j in range(3)]
                     for i in range(3)])


class TestPaperLiteral:
    @pytest.mark.parametrize("b, p1, p2, z, tol", [
        # Thin guide, one dipole on the wall: the cross terms are about 1e5
        # times every split entry.
        (0.1, (0.0, 0.03), (0.7, 0.05), 0.05, 1e-5),
        # Centred pair: the cross terms vanish.
        (0.7, (0.5, 0.35), (0.5, 0.35), 0.3, 1e-8),
    ])
    def test_within_tail_of_masked_split_and_cross_sum(self, b, p1, p2, z, tol):
        # Against the masked split plus math.fsum cross terms, and the TE
        # split plus math.fsum zero-index terms, each listed until the terms
        # left out add at most 1e-3 of the printed tail, every entry is
        # within tail_bound and the listed sums' rounding.
        geom, conv = Geometry(1.0, b), Conventions("paper-literal")
        cfg = PairConfiguration(geom, TransversePoint(*p1), TransversePoint(*p2), z,
                                ISO, ISO, conventions=conv)
        ft = f_tensor(cfg, E100, tail_tol=tol)
        weight = TE_FACTORS["paper-literal"] * E100
        cross, zero, cross_err, zero_err = _listed_printed(geom, cfg.p1, cfg.p2, z,
                                                           1e-3 * ft.tail_bound)
        table = ModeTable(geom, cfg.p1, cfg.p2)
        tm = TM_SIGNS["paper-literal"] * TM_SIGNS["oracle-consistent"] * table.split("TM", z)[0]
        tm[0, 1], tm[1, 0] = cross
        te = weight * table.split("TE", z)[0]
        te[0, 0] += weight * zero[0]
        te[1, 1] += weight * zero[1]
        allowed = ft.tail_bound + max(cross_err.max(), abs(weight) * zero_err.max())
        assert np.abs(ft.tm_tensor - tm).max() <= allowed
        assert np.abs(ft.te_tensor - te).max() <= allowed
        assert np.abs(ft.tensor - (tm + te)).max() <= allowed
        cross = abs(tm[0, 1]) + abs(tm[1, 0])
        if b == 0.1:
            assert cross > 1e4 * np.abs(table.split("TM", z)[0]).max()
        else:
            assert cross <= 1e-12 * np.abs(tm).max()

    @pytest.mark.parametrize("b", [1.0, 0.5, 0.1])
    @pytest.mark.parametrize("z", [0.1, 0.4, 1.5])
    def test_tail_constants_bound_the_dropped_terms(self, b, z):
        # The printed sums' bounds hold against math.fsum sums of listed
        # terms, whose own terms left out add at most 1e-3 of the bounds:
        # off the centre lines, with a dipole on a wall and at the centre.
        from wgdisp.coupling import _printed_sums
        geom = Geometry(1.0, b)
        for p1, p2 in (((0.3, 0.2), (0.6, 0.5)), ((0.0, 0.3), (0.45, 0.1)),
                       ((0.5, 0.5), (0.5, 0.5))):
            p1, p2 = TransversePoint(p1[0], p1[1] * b), TransversePoint(p2[0], p2[1] * b)
            cross, zero, cross_bound, zero_bound = _printed_sums(geom, p1, p2, z, 1_000_000)
            want_cross, want_zero, cross_err, zero_err = _listed_printed(
                geom, p1, p2, z, 1e-3 * min(cross_bound, zero_bound))
            assert np.all(np.abs(cross - want_cross) <= cross_bound + cross_err)
            assert np.all(np.abs(zero - want_zero) <= zero_bound + zero_err)

    @settings(max_examples=20, deadline=None)
    @given(b=st.floats(0.3, 1.0), x1=st.floats(0.02, 0.98), y1=st.floats(0.02, 0.98),
           x2=st.floats(0.02, 0.98), y2=st.floats(0.02, 0.98), log_z=st.floats(-1.5, 0.3))
    def test_printed_sums_within_their_bounds(self, b, x1, y1, x2, y2, log_z):
        # The ln t rule against math.fsum sums of the listed terms, over
        # rectangular guides, interior points and z in [0.03a, 2a]: every
        # entry within the derived bound plus the listed sums' rounding.
        from wgdisp.coupling import _printed_sums
        geom, z = Geometry(1.0, b), 10.0 ** log_z
        p1, p2 = TransversePoint(x1, y1 * b), TransversePoint(x2, y2 * b)
        cross, zero, cross_bound, zero_bound = _printed_sums(geom, p1, p2, z, 1_000_000)
        want_cross, want_zero, cross_err, zero_err = _listed_printed(
            geom, p1, p2, z, 1e-3 * min(cross_bound, zero_bound))
        assert np.all(np.abs(cross - want_cross) <= cross_bound + cross_err)
        assert np.all(np.abs(zero - want_zero) <= zero_bound + zero_err)

    @pytest.mark.parametrize("b, p1, p2, z", [
        (0.7, (0.3, 0.2), (0.6, 0.5), 0.3), (1.0, (0.5, 0.5), (0.5, 0.5), 0.8),
        (0.6, (0.0, 0.3), (0.45, 0.1), 0.15),
    ])
    def test_normalization_te_against_plain_sum(self, b, p1, p2, z):
        # The printed bundle: the TE tensor is the unit split plus the
        # zero-index modes once more, times the printed factor; against the
        # math.fsum plain TE mode sum with the printed profiles and factor,
        # whose own tail is at most 1e-3 of the printed tail, it is within
        # tail_bound and the plain sum's rounding.
        geom = Geometry(1.0, b)
        conv = Conventions("paper-literal")
        cfg = PairConfiguration(geom, TransversePoint(*p1), TransversePoint(*p2), z,
                                ISO, ISO, conventions=conv)
        ft = f_tensor(cfg, E100, tail_tol=1e-9)
        table = ModeTable(geom, cfg.p1, cfg.p2)
        K = math.pi
        while 2.0 * E100 * _lattice_tail(table, "TE", K, z) > 1e-3 * ft.tail_bound:
            K *= 1.1
        te = mode_arrays(geom, K)["TE"]
        terms = _direct_te(geom, te["m"].astype(float), te["n"].astype(float),
                           te["k"], cfg.p1, cfg.p2, z, E100, conv)
        rounding = 8.0 * np.finfo(float).eps * _fsum_entries(np.abs(terms)).max()
        plain = _fsum_entries(terms)
        assert np.abs(ft.te_tensor - plain).max() <= ft.tail_bound + rounding
        unit = f_tensor(replace(cfg, conventions=Conventions()), E100, tail_tol=1e-9)
        assert np.abs(ft.te_tensor - unit.te_tensor).max() > 1e3 * ft.tail_bound


@st.composite
def _te_split_points(draw):
    # The TM split's cases, and as many again with p2 = p1 (the direct image
    # then sits on the series branch of the image integrals).
    geom, p1, p2, z = draw(_split_points())
    return geom, p1, p1 if draw(st.booleans()) else p2, z


def _te_screened(geom, p1, p2, K):
    """Cutoffs and unit-normalized TE rows of the modes up to K."""
    table = ModeTable(geom, p1, p2)
    count = table.extend(K)[1]
    return table._k["TE"][:count], table._rows["TE"][:count]


class TestTeSplit:
    @settings(max_examples=25, deadline=None)
    @given(case=_te_split_points())
    # Both dipoles on the wall x = 0 of a thin guide: the split is 8.7e-10
    # of the scale off the converged sum, within the split's own bound.
    @example(case=(Geometry(1.0, 0.1), TransversePoint(0.0, 0.05),
                   TransversePoint(0.0, 0.05), 1.1238494102553085))
    def test_matches_converged_mode_sum(self, case):
        # Against the unit TE mode sum grown until its lattice tail is at
        # most 1e-11 of the scale, within 1e-10 of the scale or within the
        # split's bound plus the sum's tail.  A profile component that
        # vanishes on the wall x = 0 or y = 0 gives exact zeros in both.
        # As for the TM sum, the reference's table allows 4e6 modes.
        geom, p1, p2, z = case
        table = ModeTable(geom, p1, p2, 4_000_000)
        split, split_bound = table.split("TE", z)
        scale = np.abs(split).max()
        K = max(3.0 * math.pi / max(geom.a, geom.b), 8.0 / z)
        while _lattice_tail(table, "TE", K, z) > 1e-11 * scale:
            K *= 1.3
        _, summed, _, tail = _mode_sum(table, z, K)
        assert np.abs(split - summed).max() <= max(1e-10 * scale, split_bound + tail)
        # Row i lives at p2 and column j at p1; e_x vanishes at y = 0 and
        # e_y at x = 0.
        dead2, dead1 = (p2.y == 0.0, p2.x == 0.0), (p1.y == 0.0, p1.x == 0.0)
        for i in range(2):
            for j in range(2):
                if dead2[i] or dead1[j]:
                    assert split[i, j] == 0.0 == summed[i, j]
        assert not np.any(split[2]) and not np.any(split[:, 2])

    @pytest.mark.parametrize("b, p1, p2", [(1.0, (0.3, 0.2), (0.7, 0.55)),
                                           (0.3, (0.12, 0.21), (0.85, 0.07)),
                                           (5.0, (0.6, 1.3), (0.25, 3.9))])
    def test_equals_block_sum_where_images_and_short_times_vanish(self, b, p1, p2):
        # From z = 28 eta on, E1(z^2 / eta^2) and every image term underflow
        # and no short time is summed: each tensor of a batch is, bit for
        # bit, energy._blocks over the screened modes, weighted by K0(k z).
        import wgdisp.coupling as coupling_mod
        from wgdisp._special import k0
        from wgdisp.energy import _blocks
        geom = Geometry(1.0, b)
        table = ModeTable(geom, TransversePoint(*p1), TransversePoint(*p2))
        k, rows = _te_screened(geom, *table.key[1:], coupling_mod._split_cutoff(geom))
        zs = coupling_mod._split_width(geom) * np.geomspace(28.0, 60.0, 9)
        out, _ = coupling_mod._te_split(geom, k, rows, table._images, zs)
        for z, tensor in zip(zs, out):
            summed = np.pad(_blocks(rows, k0(k * z)), (0, 1)) + 0.0
            assert np.abs(summed).max() > 0.0
            assert tensor.tobytes() == summed.tobytes()

    @pytest.mark.parametrize("b, z", [(1.0, 0.05), (0.5, 0.004), (0.7, 0.8),
                                      (0.2, 1e-4)])
    def test_continuous_across_series_switch(self, monkeypatch, b, z):
        # At the rho^2 where images leave the closed forms for the Taylor
        # series, _TE_SERIES min(eta^2, z^2), both branches agree.
        from scipy.special import exp1
        import wgdisp.coupling as coupling_mod
        geom = Geometry(1.0, b)
        switch = coupling_mod._TE_SERIES
        rho2 = switch * min(coupling_mod._split_width(geom) ** 2, z * z)
        d = np.array([[math.sqrt(0.6 * rho2)], [-math.sqrt(0.4 * rho2)]])
        images = (d, np.array([[1.0], [-1.0]]), np.array([rho2]))
        out = []
        u0 = 1.0 / coupling_mod._split_width(geom) ** 2
        e1, e_images = exp1(z * z * u0), exp1((rho2 + z * z) * u0)
        for edge in (switch * (1.0 + 1e-6), switch * (1.0 - 1e-6)):  # series, closed
            monkeypatch.setattr(coupling_mod, "_TE_SERIES", edge)
            out.append(coupling_mod._te_split_images(
                geom, images, np.array([z]), np.array([e1]), np.array([[e_images]]))[0])
        assert np.abs(out[0] - out[1]).max() <= 1e-12 * np.abs(out[0]).max()

    @pytest.mark.parametrize("b, p1, p2, z", [
        (1.0, (0.3, 0.4), (0.55, 0.62), 0.02), (0.5, (0.2, 0.1), (0.2, 0.1), 0.1),
        (0.7, (0.0, 0.3), (0.5, 0.0), 0.3), (0.6, (0.1, 0.5), (0.8, 0.05), 1.0),
        (1.0, (0.5, 0.5), (0.5, 0.5), 2.0),
    ])
    def test_bound_covers_doubled_reach_cutoff_and_nodes(self, monkeypatch, b, p1, p2, z):
        # The split with twice the image reach, twice the screened cutoff and
        # twice the short-time nodes moves by no more than the derived bound.
        import wgdisp.coupling as coupling_mod
        geom = Geometry(1.0, b)
        p1, p2 = TransversePoint(*p1), TransversePoint(*p2)
        K = coupling_mod._split_cutoff(geom)
        k, rows = _te_screened(geom, p1, p2, K)
        base, bound = coupling_mod._te_split(geom, k, rows,
                                             coupling_mod._split_images(geom, p1, p2),
                                             np.array([z]))
        monkeypatch.setattr(coupling_mod, "_SPLIT_REACH", 2.0 * coupling_mod._SPLIT_REACH)
        images = coupling_mod._split_images(geom, p1, p2)
        monkeypatch.undo()
        monkeypatch.setattr(coupling_mod, "_TE_NODES", 2 * coupling_mod._TE_NODES)
        coupling_mod._legendre_rule.cache_clear()
        try:
            wide = coupling_mod._te_split(geom, *_te_screened(geom, p1, p2, 2.0 * K),
                                          images, np.array([z]))[0]
        finally:
            monkeypatch.undo()
            coupling_mod._legendre_rule.cache_clear()
        assert 0.0 < np.abs(wide - base).max() <= bound[0]

    @pytest.mark.parametrize("n", [16, 80, 160])
    def test_rule_equals_leggauss(self, n):
        # The short-time rule's nodes and weights, built without
        # numpy.polynomial, are leggauss's bit for bit.
        from wgdisp.coupling import _gauss_legendre
        for got, want in zip(_gauss_legendre(n), np.polynomial.legendre.leggauss(n)):
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("b", [1.0, 0.1])
    @pytest.mark.parametrize("z", [1e-6, 1e-4, 1e-2, 0.3, 3.0, 10.0])
    def test_short_time_rule_against_quad(self, b, z):
        # (k^2/2) integral_lo^tau e^{-k^2 s} E1(z^2/4s) ds by the fixed rule,
        # against adaptive quadrature, for k up to twice the split's cutoff:
        # within the rule's stated accuracy relative to K0(kz).
        from scipy.integrate import quad
        from scipy.special import exp1, k0
        import wgdisp.coupling as coupling_mod
        geom = Geometry(1.0, b)
        lo, tau = coupling_mod._te_short_times(geom, np.array([z]))
        k = np.geomspace(math.pi, 2.0 * coupling_mod._split_cutoff(geom), 9)
        s, w = coupling_mod._te_short_time_rule(lo[lo < tau], tau)
        rule = coupling_mod._te_short_time_part(k, s, w * exp1(z * z / (4.0 * s)))
        (lo,) = lo
        if lo >= tau:  # no short time is summed
            assert rule.shape == (0, k.size)
            return
        (rule,) = rule
        tol = coupling_mod._TE_RULE_TOL[math.log(tau / lo) > 16.0]
        for kk, got in zip(k, rule):
            def f(v):
                return math.exp(v - kk * kk * math.exp(v)) * exp1(z * z / (4.0 * math.exp(v)))
            edges = sorted({min(max(x, math.log(lo)), math.log(tau))
                            for x in (math.log(z * z / 4.0), -2.0 * math.log(kk))})
            with warnings.catch_warnings():  # quad's own rounding notice
                warnings.simplefilter("ignore")
                want = 0.5 * kk * kk * quad(f, math.log(lo), math.log(tau), points=edges,
                                            epsabs=0.0, epsrel=1.2e-14, limit=500)[0]
            assert abs(got - want) <= tol * k0(kk * z)

    @pytest.mark.parametrize("b, x, y", [(0.7, 0.3, 0.2), (1.0, 0.5, 0.5),
                                         (0.5, 0.55, 0.3), (2.0, 0.35, 1.2)])
    def test_free_space_recovery(self, b, x, y):
        # The direct image carries the free-space TE tensor, so 4 pi z^2 T
        # tends to the transverse identity, about like z^2 ln z.
        p = TransversePoint(x, y)
        table = ModeTable(Geometry(1.0, b), p, p)
        dev = [np.abs(4.0 * math.pi * z * z * table.split("TE", z)[0][:2, :2]
                      - np.eye(2)).max() for z in (1e-3, 1e-4)]
        assert dev[0] <= 1e-3 and dev[1] <= 2e-5 and dev[1] <= dev[0] / 30.0

    @pytest.mark.parametrize("b, p1, p2, z, levels, tol", [
        (0.55, (0.3, 0.4), (0.3, 0.4), 0.03, ((100.0, (0.0, 0.0, 1.0)),), 1e-6),
        (0.9, (0.7, 0.2), (0.7, 0.2), 0.17, ((100.0, (0.0, 0.0, 1.0)),), 1e-6),
        (0.8, (0.2, 0.6), (0.75, 0.3), 0.31, ((60.0, (0.3, 1.2, 0.4)),
                                             (150.0, (1.0, 0.2, 0.7))), 1e-8),
        (0.6, (0.5, 0.1), (0.15, 0.45), 2.4, ((45.0, (1.0, 0.5, 0.1)),
                                             (80.0, (0.2, 0.9, 1.1)),
                                             (190.0, (0.6, 0.6, 0.3))), 1e-8),
    ])
    def test_mode_sum_reference_meets_the_budget(self, b, p1, p2, z, levels, tol):
        # sweep-near and point-far inputs: the TE lattice tail at 1.5 times
        # the reported max_cutoff still meets the run's own budget, and the
        # splits agree with the mode sum there within both tail estimates
        # and the mode sum's rounding.
        species = DipoleSpecies(tuple(DipoleTransition(2.0 * math.pi / lam, d)
                                      for lam, d in levels), "isotropic-average")
        cfg = PairConfiguration(Geometry(1.0, b), TransversePoint(*p1),
                                TransversePoint(*p2), z, species, species)
        u = dispersion_energy(cfg, tail_tol=tol)
        K = 1.5 * max(f.max_cutoff for f in u.f_by_level.values())
        table = ModeTable(cfg.geom, cfg.p1, cfg.p2)
        for e, f in u.f_by_level.items():
            scale = max(np.abs(f.tm_tensor).max(), np.abs(f.te_tensor).max())
            assert 2.0 * e * _lattice_tail(table, "TE", K, z) <= tol * scale
        ref = dispersion_energy(cfg, max_cutoff=K, mode_cap=4_000_000)
        assert abs(u.total - ref.total) <= u.tail_estimate + ref.tail_estimate \
            + 1e-14 * abs(ref.total)


class TestSweep:
    @pytest.mark.parametrize("convention", ["oracle-consistent", "paper-literal"])
    @pytest.mark.parametrize("truncation", [{"tail_tol": 1e-7},
                                            {"max_cutoff": 60.0}])
    def test_points_equal_single_energies_bitwise(self, convention, truncation):
        # A shared table and splits batched over a sweep's separations must
        # not change any number: each point equals a one-point call, in
        # ascending, descending and shuffled z order.  The cases: off-centre
        # points; p1 = p2, where every z sums the direct image as a series;
        # p2 near p1, where that series has no zero term; z on both sides of
        # sqrt(45) eta ~ 3.1a, past which the TE split sums no short time;
        # and a sweep longer than one chunk.
        from wgdisp.coupling import _split_width
        from wgdisp.energy import _SPLIT_CHUNK
        geom = Geometry(1.0, 0.7)
        p1, p2 = TransversePoint(0.31, 0.22), TransversePoint(0.68, 0.41)
        edge = math.sqrt(45.0) * _split_width(geom)
        across = [edge * f for f in (0.5, 0.98, 0.9999, 1.0001, 1.02, 1.5)]
        longer = np.geomspace(0.05, 6.0, _SPLIT_CHUNK + 5).tolist()
        rng = np.random.default_rng(7)
        for second, zs in ((p2, np.geomspace(0.05, 2.0, 5).tolist()),
                           (p1, np.geomspace(0.05, 2.0, 5).tolist()),
                           (TransversePoint(0.33, 0.23), np.geomspace(0.08, 2.0, 9).tolist()),
                           (p2, across), (p1, across), (p2, longer)):
            cfg = PairConfiguration(geom, p1, second, 0.05, _TWO_LEVELS, ISO,
                                    conventions=Conventions(convention))
            ones = {z: dispersion_energy(replace(cfg, z=z), **truncation) for z in zs}
            for order in (zs, zs[::-1], rng.permutation(zs).tolist()):
                for z, u in zip(order, dispersion_sweep(cfg, order, **truncation)):
                    one = ones[z]
                    for name in ("total", "u_tm_only", "u_te_only", "tail_estimate",
                                 "modes_used", "per_level_pair", "warnings"):
                        assert getattr(u, name) == getattr(one, name)
                    assert list(u.f_by_level) == list(one.f_by_level)
                    for e, f in u.f_by_level.items():
                        g = one.f_by_level[e]
                        assert f.tensor.tobytes() == g.tensor.tobytes()
                        assert (f.max_cutoff, f.modes_used) == (g.max_cutoff, g.modes_used)

    @pytest.mark.parametrize("convention", ["oracle-consistent", "paper-literal"])
    @pytest.mark.parametrize("truncation", [{"tail_tol": 1e-7},
                                            {"max_cutoff": 60.0}])
    def test_breakdowns_equal_per_pair_contractions_bitwise(self, convention, truncation):
        # Every breakdown of a sweep, whose level pairs are contracted in one
        # batch over its separations, equals bit for bit the sums a loop in
        # Python floats makes over the level pairs from quadratic_contraction
        # of the tensors f_tensor gives at that z alone.  The cases: species
        # of 1-4 levels each, sharing one level; fixed-vector dipoles with
        # components of both signs, one species isotropic; a dipole at a
        # corner; and a sweep longer than one chunk of the splits.
        from wgdisp.energy import _SPLIT_CHUNK
        rng = np.random.default_rng(30)
        geom, conv = Geometry(1.0, 0.7), Conventions(convention)

        def species(n, orientation, shared=()):
            levels = [*shared, *(2.0 * math.pi / rng.uniform(40.0, 200.0)
                                 for _ in range(n - len(shared)))]
            return DipoleSpecies(tuple(DipoleTransition(e, tuple(rng.uniform(-1.0, 1.0, 3)))
                                       for e in levels), orientation)

        short, longer = np.geomspace(0.05, 2.0, 4).tolist(), \
            np.geomspace(0.05, 6.0, _SPLIT_CHUNK + 3).tolist()
        p1, p2 = TransversePoint(0.31, 0.22), TransversePoint(0.68, 0.41)
        cases = []
        for n1, n2, zs, first in ((1, 1, short, p1), (2, 3, short, p1), (4, 2, longer, p1),
                                  (3, 4, short, p1), (2, 2, short, TransversePoint(0.0, 0.7))):
            sp1 = species(n1, "fixed-vector")
            sp2 = species(n2, ("fixed-vector", "isotropic-average")[n2 % 2],
                          [sp1.transitions[-1].energy])
            cases.append((PairConfiguration(geom, first, p2, zs[0], sp1, sp2,
                                            conventions=conv), zs))
        ones = np.ones((3, 3))
        bits = lambda *xs: [float(x).hex() for x in xs]  # noqa: E731
        for cfg, zs in cases:
            sp1, sp2 = cfg.species1, cfg.species2
            for z, u in zip(zs, dispersion_sweep(cfg, zs, **truncation)):
                point = replace(cfg, z=z)
                table = ModeTable(geom, cfg.p1, cfg.p2)
                fs = {}
                for t1 in sp1.transitions:
                    for t in (t1, *sp2.transitions):
                        if t.energy not in fs:
                            fs[t.energy] = f_tensor(point, t.energy, table=table, **truncation)
                w0 = -1.0 / (2.0 * math.pi) ** 2
                total = tm_only = te_only = tail = 0.0
                pairs = {}
                for i1, t1 in enumerate(sp1.transitions):
                    for i2, t2 in enumerate(sp2.transitions):
                        f1, f2 = fs[t1.energy], fs[t2.energy]
                        P1, P2 = sp1.second_moments[i1], sp2.second_moments[i2]
                        w = w0 / (t1.energy + t2.energy)
                        pairs[i1, i2] = w * quadratic_contraction(P2, P1, f2.tensor,
                                                                  f1.tensor) + 0.0
                        total += pairs[i1, i2]
                        tm_only += w * quadratic_contraction(P2, P1, f2.tm_tensor,
                                                             f1.tm_tensor)
                        te_only += w * quadratic_contraction(P2, P1, f2.te_tensor,
                                                             f1.te_tensor)
                        t_hi = max(f1.tail_bound, f2.tail_bound)
                        A1, A2 = np.abs(P1), np.abs(P2)
                        cross = (quadratic_contraction(A2, A1, np.abs(f2.tensor), ones)
                                 + quadratic_contraction(A2, A1, ones, np.abs(f1.tensor)))
                        tail += abs(w) * (t_hi * cross + 9.0 * t_hi * t_hi
                                          * float(P2.trace()) * float(P1.trace()))
                assert bits(u.total, u.u_tm_only, u.u_te_only, u.tail_estimate) \
                    == bits(total, tm_only, te_only, tail)
                assert list(u.per_level_pair) == list(pairs)
                assert bits(*u.per_level_pair.values()) == bits(*pairs.values())
                assert u.modes_used == max(f.modes_used for f in fs.values())
                assert list(u.f_by_level) == list(fs)
                for e, f in fs.items():
                    g = u.f_by_level[e]
                    assert g.tensor.tobytes() == f.tensor.tobytes()
                    assert bits(g.tail_bound) == bits(f.tail_bound)

    @pytest.mark.parametrize("b", [1.0, 0.1, 1e-4])
    def test_splits_vanish_before_the_far_edge(self, b):
        # compute_splits evaluates every z past 1e6 (a + b) at that edge;
        # below it, where no square overflows, both splits and their bounds
        # are already exact zeros.
        geom = Geometry(1.0, b)
        for p2 in (TransversePoint(0.3, 0.4 * b), TransversePoint(0.8, 0.1 * b)):
            table = ModeTable(geom, TransversePoint(0.3, 0.4 * b), p2)
            edge = 1e6 * (geom.a + geom.b)
            zs = [0.999 * edge, edge, 2.0 * edge, 1e300]
            table.compute_splits(zs)
            for z in zs:
                for split in (table.split("TM", z), table.split("TE", z)):
                    assert not split[0].any() and split[1] == 0.0

    def test_splits_call_each_kernel_once_per_chunk(self, monkeypatch):
        # The default conventions take both channels from the splits; their
        # E1 and K0 values come from one call per chunk of separations.
        import wgdisp.coupling as coupling_mod
        from wgdisp.energy import _SPLIT_CHUNK
        calls = []
        for name in ("exp1", "k0"):
            def counted(x, _kernel=getattr(coupling_mod, name), _name=name):
                calls.append(_name)
                return _kernel(x)
            monkeypatch.setattr(coupling_mod, name, counted)
        cfg = PairConfiguration(Geometry(1.0, 0.7), TransversePoint(0.31, 0.22),
                                TransversePoint(0.68, 0.41), 0.05, _TWO_LEVELS, ISO)
        for n in (1, 5, 2 * _SPLIT_CHUNK + 3):
            calls.clear()
            sweep = dispersion_sweep(cfg, np.geomspace(0.05, 5.0, n).tolist(),
                                     tail_tol=1e-7)
            chunks = -(-n // _SPLIT_CHUNK)
            assert len(sweep) == n
            assert (calls.count("exp1"), calls.count("k0")) == (chunks, chunks)

    def test_records_hold_what_the_kernels_took(self):
        # compute_splits stores each separation's splits whole, as a
        # (tensor, bound) pair per polarization; a TM record's bound is
        # taken at the z the kernel took (the far edge past it).
        from wgdisp.coupling import _tm_split_bound
        from wgdisp.energy import _FAR
        geom = Geometry(1.0, 0.7)
        table = ModeTable(geom, TransversePoint(0.31, 0.22), TransversePoint(0.68, 0.41))
        edge = _FAR * (geom.a + geom.b)
        zs = np.geomspace(0.01, 5.0, 40).tolist() + [edge, 2.0 * edge, 1e300]
        table.compute_splits(zs)
        for z in zs:
            _, bound = table._splits["TM"][z]
            assert float(bound).hex() == _tm_split_bound(geom, min(z, edge)).hex()
            tensor, bound = table._splits["TE"][z]
            assert tensor.shape == (3, 3) and type(bound) is float

    def test_bound_parts_kept_for_one_guide(self):
        # The z-independent parts of both split bounds are taken once per
        # kernel batch, and only the last guide's are kept.
        from wgdisp.coupling import _bound_parts
        _bound_parts.cache_clear()
        for i in range(500):
            table = ModeTable(Geometry(1.0, 0.5 + i / 1000.0),
                              TransversePoint(0.31, 0.22), TransversePoint(0.68, 0.41))
            table.compute_splits([0.1, 0.5, 2.0])
        info = _bound_parts.cache_info()
        assert (info.currsize, info.misses) == (1, 500)

    def test_sweep_builds_each_mode_once(self, monkeypatch):
        from wgdisp.coupling import _k11
        import wgdisp.coupling as coupling_mod
        import wgdisp.energy as energy_mod
        listing = energy_mod.mode_arrays
        cutoffs, tables = [], []
        built = {"TM": 0, "TE": 0}  # modes whose factor rows were built

        def counted(geom, K):
            cutoffs.append(K)
            return listing(geom, K)
        monkeypatch.setattr(energy_mod, "mode_arrays", counted)
        for pol, name in (("TM", "_tm_rows"), ("TE", "_te_rows")):
            def rows(geom, m, *args, _rows=getattr(coupling_mod, name), _pol=pol):
                built[_pol] += m.size
                return _rows(geom, m, *args)
            monkeypatch.setattr(coupling_mod, name, rows)

        class Recorded(energy_mod.ModeTable):
            def __init__(self, *args):
                super().__init__(*args)
                tables.append(self)
        monkeypatch.setattr(energy_mod, "ModeTable", Recorded)
        # Under a fixed cutoff the sweep's one table is listed once, to the
        # cutoff and the first shell of the mode sum's tails, and every mode
        # up to the cutoff gets factor rows once.
        cfg = PairConfiguration(Geometry(1.0, 0.7), TransversePoint(0.31, 0.22),
                                TransversePoint(0.68, 0.41), 0.04, _TWO_LEVELS,
                                _TWO_LEVELS)
        sweep = dispersion_sweep(cfg, np.geomspace(0.04, 0.4, 6).tolist(),
                                 max_cutoff=60.0)
        table, = tables
        assert cutoffs == [60.0 + _k11(cfg.geom)]
        assert {f.max_cutoff for u in sweep for f in u.f_by_level.values()} == {60.0}
        last = listing(cfg.geom, cutoffs[-1])
        for pol, count in zip(("TM", "TE"), table.counts(60.0)):
            assert table._k[pol].tobytes() == last[pol]["k"].tobytes()
            assert table._mn[pol].tolist() == [last[pol]["m"].tolist(), last[pol]["n"].tolist()]
            assert built[pol] == len(table._rows[pol]) == count > 0


class TestUnderflow:
    def test_tail_bound_underflow_is_named(self):
        u = dispersion_energy(_config(60.0), tail_tol=1e-6)
        assert u.total < 0.0 and u.tail_estimate == 0.0
        assert u.warnings == ["tail_estimate underflows at z=60: the truncation "
                              "error bound 0.0 is below the smallest normal double"]

    def test_energy_underflow_is_named(self):
        u = dispersion_energy(_config(200.0), tail_tol=1e-6)
        assert u.total == 0.0 and u.tail_estimate == 0.0
        assert len(u.warnings) == 2
        assert u.warnings[1] == ("total underflows at z=200: the pair energy 0.0 "
                                 "is below the smallest normal double")

    def test_subnormal_energy_is_named(self):
        u = dispersion_energy(_config(115.0), tail_tol=1e-6)
        assert 0.0 < abs(u.total) < sys.float_info.min
        assert u.warnings[1].startswith("total underflows at z=115: the pair "
                                        f"energy {u.total!r}")

    def test_structural_zero_is_not_underflow(self):
        # An axial dipole on a wall couples to no mode: U is exactly zero.
        axial = DipoleSpecies.single(E100, (0.0, 0.0, 1.0), "fixed-vector")
        cfg = PairConfiguration(SQ, TransversePoint(0.0, 0.4),
                                TransversePoint(0.6, 0.5), 0.5, axial, axial)
        u = dispersion_energy(cfg, tail_tol=1e-6)
        assert u.total == 0.0 and u.tail_estimate > 0.0
        assert u.warnings == []

    def test_cutoff_below_every_mode_is_not_underflow(self):
        # k_10 = pi > 1: a cutoff of 1 sums no mode, so U is exactly zero,
        # while the printed sums, which take every zero-index TE mode, still
        # underflow far out.
        u = dispersion_energy(_config(0.5), max_cutoff=1.0)
        assert (u.total, u.modes_used, u.warnings) == (0.0, 0, [])
        assert u.tail_estimate > 0.0
        printed = dispersion_energy(_config(200.0, conventions=Conventions("paper-literal")),
                                    max_cutoff=1.0)
        assert (printed.total, printed.modes_used) == (0.0, 0)
        assert printed.warnings == ["total underflows at z=200: the pair energy 0.0 "
                                    "is below the smallest normal double"]

    def test_no_warning_in_point_far_range(self):
        rng = np.random.default_rng(11)
        for z in (0.3, 0.9, 2.5, 6.0, 8.0):
            b = rng.uniform(0.5, 1.0)
            levels = tuple(DipoleTransition(2.0 * math.pi / rng.uniform(40.0, 200.0),
                                            tuple(np.abs(rng.normal(size=3))))
                           for _ in range(rng.integers(2, 5)))
            for orientation in ("fixed-vector", "isotropic-average"):
                sp = DipoleSpecies(levels, orientation)
                cfg = PairConfiguration(
                    Geometry(1.0, b),
                    TransversePoint(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9) * b),
                    TransversePoint(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9) * b),
                    z, sp, sp)
                assert dispersion_energy(cfg, tail_tol=1e-8).warnings == []


class TestDispersionEnergy:
    def test_free_space_recovery(self):
        cfg = _config(0.01)
        u = dispersion_energy(cfg, tail_tol=1e-4)
        u_fs = u_freespace_vdw(ISO, ISO, 0.01)
        assert u.total / u_fs == pytest.approx(1.0, abs=0.02)

    def test_free_space_recovery_at_z002(self):
        cfg = _config(0.02)
        u = dispersion_energy(cfg, tail_tol=1e-4)
        u_fs = u_freespace_vdw(ISO, ISO, 0.02)
        assert u.total / u_fs == pytest.approx(1.0, abs=0.02)

    def test_negative_for_isotropic(self):
        for z in (0.05, 0.3, 1.0, 3.0):
            assert dispersion_energy(_config(z), tail_tol=1e-7).total < 0.0

    def test_species_swap_symmetry_isotropic(self):
        sp2 = DipoleSpecies.single(1.4 * E100, (0.5, 0.2, 1.0),
                                   "isotropic-average")
        cfg = PairConfiguration(SQ, TransversePoint(0.3, 0.4),
                                TransversePoint(0.7, 0.6), 1.2, ISO, sp2)
        u1 = dispersion_energy(cfg, tail_tol=1e-8).total
        u2 = dispersion_energy(replace(cfg, p1=cfg.p2, p2=cfg.p1, species1=cfg.species2,
                                       species2=cfg.species1), tail_tol=1e-8).total
        assert u1 == pytest.approx(u2, rel=1e-12)

    def test_species_swap_symmetry_fixed_transverse(self):
        # Exact for fixed dipoles without mixed transverse-axial
        # components (the axial-order reversal flips the odd couplings).
        sp1 = DipoleSpecies.single(E100, (1.0, 0.5, 0.0), "fixed-vector")
        sp2 = DipoleSpecies.single(1.2 * E100, (0.3, 1.0, 0.0), "fixed-vector")
        cfg = PairConfiguration(SQ, TransversePoint(0.3, 0.4),
                                TransversePoint(0.7, 0.6), 1.0, sp1, sp2)
        u1 = dispersion_energy(cfg, tail_tol=1e-8).total
        u2 = dispersion_energy(replace(cfg, p1=cfg.p2, p2=cfg.p1, species1=cfg.species2,
                                       species2=cfg.species1), tail_tol=1e-8).total
        assert u1 == pytest.approx(u2, rel=1e-12)

    @pytest.mark.parametrize("b, p1, p2, z, levels", [
        (0.5, (0.62, 0.34), (0.77, 0.16), 0.49,
         [(140.0, (0.76, -1.65, 0.25))]),
        (0.7, (0.64, 0.18), (0.38, 0.37), 0.8,
         [(60.0, (-1.68, -0.54, 1.33)), (97.0, (-1.2, 0.52, 1.02))]),
        (0.53, (0.17, 0.46), (0.70, 0.20), 0.41,
         [(100.0, (0.9, -0.91, -0.63))]),
    ])
    def test_fixed_vector_tail_bounds_mixed_sign(self, b, p1, p2, z, levels):
        # Dipole components of mixed sign give second moments of mixed
        # sign; the tail estimate must still bound the truncation error.
        sp = DipoleSpecies(tuple(DipoleTransition(2.0 * math.pi / lam, d)
                                 for lam, d in levels), "fixed-vector")
        cfg = PairConfiguration(Geometry(1.0, b), TransversePoint(*p1),
                                TransversePoint(*p2), z, sp, sp)
        u = dispersion_energy(cfg, tail_tol=1e-6)
        cutoff = max(f.max_cutoff for f in u.f_by_level.values())
        ref = dispersion_energy(cfg, max_cutoff=2.0 * cutoff)
        assert u.tail_estimate > 0.0
        assert abs(u.total - ref.total) <= u.tail_estimate + ref.tail_estimate

    def test_per_level_pairs_sum_to_total(self):
        sp1 = DipoleSpecies(
            (DipoleTransition(E100, (0, 0, 1)),
             DipoleTransition(1.5 * E100, (1, 0, 0))), "isotropic-average")
        cfg = _config(0.7, sp1=sp1, sp2=ISO)
        u = dispersion_energy(cfg, tail_tol=1e-8)
        assert sum(u.per_level_pair.values()) == pytest.approx(u.total,
                                                               rel=1e-12)

    def test_confinement_error_below_2(self):
        tight = DipoleSpecies.single(2.0 * math.pi / 1.5, (0, 0, 1))
        with pytest.raises(InputError):
            dispersion_energy(_config(0.5, sp1=tight), tail_tol=1e-6)

    def test_confinement_warning_below_10(self):
        sp = DipoleSpecies.single(2.0 * math.pi / 5.0, (0, 0, 1))
        with pytest.warns(TightConfinementWarning):
            out = dispersion_energy(_config(0.5, sp1=sp), tail_tol=1e-6)
        assert out.warnings

    def test_retarded_decay_rate_te_window(self):
        # Beyond the transverse-axial crossover (z/a ~ 5.6 for a
        # wavelength of 100 a) the energy decays as exp(-2 pi z/a)/z;
        # the least-squares slope of ln(z |U|) pins the exponent to 1%.
        zs = np.linspace(7.0, 10.0, 10)
        us = [dispersion_energy(_config(float(z)), tail_tol=1e-8).total
              for z in zs]
        coeffs = np.polyfit(zs, np.log(zs * np.abs(us)), 1)
        assert abs(coeffs[0] + 2.0 * math.pi) / (2.0 * math.pi) < 0.01

    def test_retarded_residual_is_inverse_z_te_window(self):
        # After removing the exponential, the remaining z dependence in
        # the TE-dominated window is the 1/z prefactor.
        zs = np.linspace(7.0, 10.0, 13)
        us = np.array([dispersion_energy(_config(float(z)),
                                         tail_tol=1e-9).total for z in zs])
        residual = np.log(np.abs(us)) + 2.0 * math.pi * zs
        coeffs = np.polyfit(np.log(zs), residual, 1)
        fit = np.polyval(coeffs, np.log(zs))
        r2 = 1.0 - np.sum((residual - fit) ** 2) \
            / np.sum((residual - residual.mean()) ** 2)
        assert coeffs[0] == pytest.approx(-1.0, abs=0.02)
        assert r2 >= 0.999

    def test_te_dominates_past_crossover(self):
        u6 = dispersion_energy(_config(6.0), tail_tol=1e-9)
        assert abs(u6.u_te_only) > 10.0 * abs(u6.u_tm_only)

    def test_tm_te_crossover_moves_with_wavelength(self):
        # With wavelength 10 a the transverse modes dominate already at
        # z = 5 a; with 100 a they do not (weaker coupling to TE modes).
        sp10 = DipoleSpecies.single(2.0 * math.pi / 10.0, (1, 1, 1),
                                    "isotropic-average")
        u_10 = dispersion_energy(_config(5.0, sp1=sp10), tail_tol=1e-9)
        assert abs(u_10.u_te_only) > 10.0 * abs(u_10.u_tm_only)
        u_100 = dispersion_energy(_config(5.0), tail_tol=1e-9)
        assert abs(u_100.u_te_only) < 10.0 * abs(u_100.u_tm_only)


class TestPolarizability:
    def test_static_single_transition(self):
        sp = DipoleSpecies.single(2.0, (0, 0, 3.0))
        assert polarizability(sp, 0.0) == pytest.approx((2.0 / 3.0) * 9.0 / 2.0)

    @given(u1=st.floats(0.0, 50.0), du=st.floats(0.1, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_decreasing(self, u1, du):
        assert polarizability(ISO, u1) > polarizability(ISO, u1 + du)

    def test_vanishes_at_infinity(self):
        assert polarizability(ISO, 1e8) < 1e-12


class TestClosedForms:
    def test_retarded_wall_zero(self):
        wall = TransversePoint(0.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = PairConfiguration(SQ, wall, wall, 5.0, ISO, ISO)
            assert u_retarded_closed(cfg) == pytest.approx(0.0, abs=1e-40)

    def test_retarded_center_transverse_factor_is_one(self):
        # sin^4 factor at the center equals 1: moving the pair from the
        # center to x = a/4 rescales by sin^4(pi/4) = 1/4.
        q = TransversePoint(0.25, 0.25)
        u_center = u_retarded_closed(_config(5.0))
        u_quarter = u_retarded_closed(PairConfiguration(SQ, q, q, 5.0, ISO, ISO))
        assert u_quarter / u_center == pytest.approx(0.25, rel=1e-12)

    def test_retarded_distance_ratio(self):
        u5 = u_retarded_closed(_config(5.0))
        u65 = u_retarded_closed(_config(6.5))
        expected = (5.0 / 6.5) * math.exp(-2.0 * math.pi * 1.5)
        assert u65 / u5 == pytest.approx(expected, rel=1e-12)

    def test_retarded_rejects_rectangular(self):
        cfg = PairConfiguration(Geometry(1.0, 1.3),
                                TransversePoint(0.5, 0.65),
                                TransversePoint(0.5, 0.65), 5.0, ISO, ISO)
        with pytest.raises(InputError):
            u_retarded_closed(cfg)

    def test_retarded_rejects_distinct_points(self):
        cfg = PairConfiguration(SQ, TransversePoint(0.5, 0.5),
                                TransversePoint(0.4, 0.5), 5.0, ISO, ISO)
        with pytest.raises(InputError):
            u_retarded_closed(cfg)

    def test_retarded_warns_close_in(self):
        with pytest.warns(ValidityDomainWarning):
            u_retarded_closed(_config(1.0))

    def test_polarizability_form_matches_discrete_sum(self):
        # The retarded closed form rewritten through alpha(i u): the
        # discrete level sum becomes the full-axis integral of the product
        # of the two polarizabilities.
        from scipy.integrate import quad
        cfg = _config(5.0)
        (t1,), (t2,) = cfg.species1.transitions, cfg.species2.transitions
        half, _ = quad(lambda u: polarizability(cfg.species1, u)
                       * polarizability(cfg.species2, u), 0.0, np.inf, limit=200)
        s4 = 0.5 * (math.sin(math.pi * cfg.p1.x) ** 4
                    + math.sin(math.pi * cfg.p1.y) ** 4)
        form = (-2.0 * math.pi * s4 * 2.0 * half / (t1.wavelength * t2.wavelength)
                * math.exp(-2.0 * math.pi * cfg.z) / cfg.z)
        assert form == pytest.approx(u_retarded_closed(cfg), rel=1e-9)


class TestFreeSpaceReferences:
    def test_vdw_scaling(self):
        u1 = u_freespace_vdw(ISO, ISO, 1.0)
        u2 = u_freespace_vdw(ISO, ISO, 2.0)
        assert u1 / u2 == pytest.approx(64.0, rel=1e-12)

    def test_cp_scaling(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            u1 = u_freespace_cp(ISO, ISO, 1.0)
            u2 = u_freespace_cp(ISO, ISO, 2.0)
        assert u1 / u2 == pytest.approx(128.0, rel=1e-12)

    def test_cp_prefactor(self):
        assert 23.0 / (144.0 * math.pi ** 3) \
            == pytest.approx(5.151286749747141e-3, rel=1e-12)

    def test_cp_single_transition_structure(self):
        sp_a = DipoleSpecies.single(E100, (0, 0, 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            base = u_freespace_cp(ISO, ISO, 500.0)
            quad = u_freespace_cp(sp_a, sp_a, 500.0)
        # proportional to |d1|^2 |d2|^2: (4/3)^2 relative to |d|^2 = 3
        assert quad / base == pytest.approx((4.0 / 3.0) ** 2, rel=1e-12)

    def test_tensor_quadruple_weights(self):
        # Weights of the component quadruples in the near-field form:
        # all-axial 1, all-transverse 1/4, transverse-axial cross -1/2,
        # any mismatched index pair 0.
        m = np.diag([1.0, 1.0, -2.0])
        weight = lambda i, j, l, q: 0.25 * m[i, j] * m[l, q]
        assert weight(2, 2, 2, 2) == pytest.approx(1.0)
        assert weight(0, 0, 0, 0) == pytest.approx(0.25)
        assert weight(0, 0, 2, 2) == pytest.approx(-0.5)
        assert weight(0, 1, 2, 2) == 0.0
        # Dipoles along a transverse axis only, an axial axis only, and
        # the diagonal combination compose those weights.
        z_sp = DipoleSpecies.single(1e-2, (0, 0, 1.0), "fixed-vector")
        x_sp = DipoleSpecies.single(1e-2, (1.0, 0, 0), "fixed-vector")
        xz_sp = DipoleSpecies.single(1e-2, (1.0, 0, 1.0), "fixed-vector")
        pref = -1.0 / (2.0 * math.pi) ** 2 / (2e-2)
        assert u_freespace_vdw(z_sp, z_sp, 1.0) / pref \
            == pytest.approx(1.0, rel=1e-12)
        assert u_freespace_vdw(x_sp, x_sp, 1.0) / pref \
            == pytest.approx(0.25, rel=1e-12)
        # weight sum for d1 = d2 = x+z: (1/4)(M_xx + M_zz)^2 = 1/4
        assert u_freespace_vdw(xz_sp, xz_sp, 1.0) / pref \
            == pytest.approx(0.25, rel=1e-12)
        # mismatched single-axis pair contracts to zero
        assert u_freespace_vdw(x_sp, z_sp, 1.0) == 0.0

    def test_isotropic_equals_tensor_under_averaging(self):
        # The orientation-averaged closed form -sum |d1|^2 |d2|^2 / (E1 + E2)
        # / (24 pi^2 r^6).
        a = -sum(t1.d_squared * t2.d_squared / (t1.energy + t2.energy)
                 for t1 in ISO.transitions for t2 in ISO.transitions) \
            / (24.0 * math.pi ** 2 * 0.37 ** 6)
        b = u_freespace_vdw(ISO, ISO, 0.37)
        assert a == pytest.approx(b, rel=1e-14)

    def test_assembled_equals_tensor_for_arbitrary_dipoles(self):
        sp1 = DipoleSpecies.single(E100, (0.3, -0.2, 0.8), "fixed-vector")
        sp2 = DipoleSpecies.single(1.3 * E100, (-0.5, 0.1, 0.4), "fixed-vector")
        a = near_field_energy(sp1, sp2, 0.37)
        b = u_freespace_vdw(sp1, sp2, 0.37)
        assert a == pytest.approx(b, rel=5e-16)


class TestRatioFormulas:
    def test_vdw_reference_frozen_value(self):
        assert ratio_to_freespace(10.0, 100.0, 1.0, "vdw-reference") \
            == pytest.approx(RATIO_VDW_10_100, rel=1e-3)

    def test_cp_reference_frozen_value(self):
        assert ratio_to_freespace(10.0, 10.0, 1.0, "cp-reference") \
            == pytest.approx(RATIO_CP_10_10, rel=1e-3)

    def test_log_ratio_affine_in_z(self):
        zs = np.linspace(5.0, 20.0, 40)
        r = np.array([ratio_to_freespace(z, 100.0, 1.0, "vdw-reference")
                      for z in zs])
        residual = np.log(r) - 5.0 * np.log(zs)
        slope = np.polyfit(zs, residual, 1)[0]
        assert slope == pytest.approx(-2.0 * math.pi, abs=1e-9)

    def test_rejects_unknown_regime(self):
        with pytest.raises(InputError):
            ratio_to_freespace(1.0, 10.0, 1.0, "other")


# Refusals of the library calls that no command reaches, with their messages.
_REFUSALS = {
    "f_tensor-both-truncations": (
        lambda: f_tensor(_config(0.5), E100, max_cutoff=10.0, tail_tol=1e-6),
        "specify exactly one of max_cutoff or tail_tol"),
    "f_tensor-no-truncation": (
        lambda: f_tensor(_config(0.5), E100),
        "specify exactly one of max_cutoff or tail_tol"),
    "f_tensor-table-of-another-guide": (
        lambda: f_tensor(_config(0.5), E100, tail_tol=1e-6,
                         table=ModeTable(Geometry(1.0, 0.7), CENTER, CENTER)),
        "the mode table belongs to another guide or pair of points"),
    "fourth-order-no-mode": (
        lambda: _fourth_order()(_config(0.5), []),
        "oracle needs at least one mode"),
    "fourth-order-unknown-diagrams": (
        lambda: _fourth_order()(_config(0.5), [ModeIndex("TM", 1, 1)], diagrams="some"),
        "diagrams must be 'all' or 'dominant', got 'some'"),
    "tm-closed-bad-orientation": (
        lambda: _quadrature().f_tm_closed(SQ, ModeIndex("TM", 1, 1), "xw", CENTER, CENTER, 0.5),
        "orientation must be two of 'xyz', got 'xw'"),
    "te-closed-tm-mode": (
        lambda: _quadrature().f_te_closed(SQ, ModeIndex("TM", 1, 1), "xx", CENTER, CENTER,
                                          0.5, E100),
        "f_te_closed requires a TE mode, got TM11"),
    "polarizability-negative-frequency": (
        lambda: polarizability(ISO, -1.0),
        "imaginary-frequency magnitude must be >= 0, got -1.0"),
    "ratio-at-zero-separation": (
        lambda: ratio_to_freespace(0.0, 100.0, 1.0),
        "z, lambda_e and a must all be positive"),
    "vdw-at-zero-separation": (
        lambda: u_freespace_vdw(ISO, ISO, 0.0),
        "separation must be positive, got 0.0"),
    "cp-at-zero-separation": (
        lambda: u_freespace_cp(ISO, ISO, 0.0),
        "separation must be positive, got 0.0"),
    "species-unknown-orientation": (
        lambda: DipoleSpecies(ISO.transitions, "random"),
        "orientation must be 'fixed-vector' or 'isotropic-average', got 'random'"),
    "mode-unknown-polarization": (
        lambda: ModeIndex("XX", 1, 1),
        "polarization must be 'TE' or 'TM', got 'XX'"),
    "tm-closed-index-past-int64": (
        lambda: _quadrature().f_tm_closed(SQ, ModeIndex("TM", 10**23, 1), "zz", CENTER,
                                          CENTER, 0.5),
        "TM mode index (m, n) = (100000000000000000000000, 1) passes 2**63 - 1, the largest "
        "the couplings take"),
    "te-closed-index-past-int64": (
        lambda: _quadrature().f_te_closed(SQ, ModeIndex("TE", 1, 2**63), "xx", CENTER, CENTER,
                                          0.5, E100),
        "TE mode index (m, n) = (1, 9223372036854775808) passes 2**63 - 1, the largest "
        "the couplings take"),
    "quadrature-index-past-int64": (
        lambda: _quadrature().f_quadrature(SQ, ModeIndex("TM", 10**23, 1), "zz", CENTER,
                                           CENTER, 0.5),
        "TM mode index (m, n) = (100000000000000000000000, 1) passes 2**63 - 1, the largest "
        "the couplings take"),
    "fourth-order-index-past-int64": (
        lambda: _fourth_order()(_config(0.5), [ModeIndex("TM", 1, 1), ModeIndex("TE", 2**64, 0)]),
        "TE mode index (m, n) = (18446744073709551616, 0) passes 2**63 - 1, the largest "
        "the couplings take"),
    "retarded-closed-fixed-vectors": (
        lambda: u_retarded_closed(_config(3.0, DipoleSpecies.single(E100, (1.0, 0.0, 0.0),
                                                                    "fixed-vector"))),
        "retarded closed form assumes isotropic orientation"),
}


def _fourth_order():
    from wgdisp.fourth_order import fourth_order_oracle
    return fourth_order_oracle


def _quadrature():
    from wgdisp import quadrature
    return quadrature


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_library_refusals(case):
    call, message = _REFUSALS[case]
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message
