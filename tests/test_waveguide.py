import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wgdisp.errors import InputError
from wgdisp.waveguide import (Geometry, ModeIndex, TransversePoint,
                              cutoff_wavenumber, enumerate_modes,
                              mode_arrays, mode_frequency,
                              normalization_integral, transverse_profile)

SQ = Geometry(1.0, 1.0)


class TestCutoff:
    def test_tm11_square(self):
        assert cutoff_wavenumber(SQ, ModeIndex("TM", 1, 1)) \
            == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-15)

    def test_te01_rectangular(self):
        assert cutoff_wavenumber(Geometry(1.0, 2.0), ModeIndex("TE", 0, 1)) \
            == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_square_symmetry(self):
        assert cutoff_wavenumber(SQ, ModeIndex("TE", 1, 0)) \
            == cutoff_wavenumber(SQ, ModeIndex("TE", 0, 1))

    @given(m=st.integers(1, 8), n=st.integers(1, 8),
           a=st.floats(0.3, 3.0), b=st.floats(0.3, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_indices(self, m, n, a, b):
        g = Geometry(a, b)
        k = cutoff_wavenumber(g, ModeIndex("TM", m, n))
        assert cutoff_wavenumber(g, ModeIndex("TM", m + 1, n)) > k
        assert cutoff_wavenumber(g, ModeIndex("TM", m, n + 1)) > k


class TestModeValidation:
    def test_tm_requires_both_indices(self):
        with pytest.raises(InputError):
            ModeIndex("TM", 0, 1)
        with pytest.raises(InputError):
            ModeIndex("TM", 1, 0)

    def test_te00_rejected(self):
        with pytest.raises(InputError):
            ModeIndex("TE", 0, 0)

    def test_bad_geometry(self):
        with pytest.raises(InputError):
            Geometry(0.0, 1.0)
        with pytest.raises(InputError):
            Geometry(1.0, -2.0)


class TestFrequency:
    def test_on_cutoff(self):
        assert mode_frequency(SQ, ModeIndex("TM", 1, 1), 0.0) \
            == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-15)

    def test_dispersion_value(self):
        assert mode_frequency(SQ, ModeIndex("TM", 1, 1), 3.0) \
            == pytest.approx(math.sqrt(2.0 * math.pi ** 2 + 9.0), rel=1e-15)

    @given(k=st.floats(-20.0, 20.0))
    @settings(max_examples=50, deadline=None)
    def test_even_in_k(self, k):
        mode = ModeIndex("TE", 1, 1)
        assert mode_frequency(SQ, mode, k) == mode_frequency(SQ, mode, -k)


class TestProfiles:
    def test_te10_center_paper_literal(self):
        e = transverse_profile(SQ, ModeIndex("TE", 1, 0), 0.0, SQ.center(),
                               "paper-literal")
        assert np.allclose(e, [0.0, 2.0, 0.0], atol=1e-15)

    def test_tm11_center_on_cutoff(self):
        e = transverse_profile(SQ, ModeIndex("TM", 1, 1), 0.0, SQ.center())
        assert abs(e[2] - 2.0) < 1e-15
        assert abs(e[0]) < 1e-15 and abs(e[1]) < 1e-15

    def test_te_profile_k_independent(self):
        mode = ModeIndex("TE", 2, 1)
        p = TransversePoint(0.3, 0.7)
        a = transverse_profile(SQ, mode, 0.0, p)
        b = transverse_profile(SQ, mode, 17.3, p)
        assert np.array_equal(a, b)

    @given(m=st.integers(1, 5), n=st.integers(1, 5),
           pol=st.sampled_from(["TE", "TM"]),
           k=st.floats(-10.0, 10.0), y=st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_tangential_components_vanish_on_walls(self, m, n, pol, k, y):
        mode = ModeIndex(pol, m, n)
        for wall in (TransversePoint(0.0, y), TransversePoint(1.0, y),
                     TransversePoint(y, 0.0), TransversePoint(y, 1.0)):
            e = transverse_profile(SQ, mode, k, wall)
            if wall.x in (0.0, 1.0):
                tangential = (e[1], e[2])
            else:
                tangential = (e[0], e[2])
            assert max(abs(t) for t in tangential) < 1e-12

    @given(m=st.integers(0, 4), n=st.integers(0, 4),
           x=st.floats(0.0, 1.0), y=st.floats(0.0, 1.0),
           k=st.floats(-5.0, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_ab_swap_maps_profiles(self, m, n, x, y, k):
        if m == 0 and n == 0:
            return
        g1 = Geometry(1.0, 2.0)
        g2 = Geometry(2.0, 1.0)
        for pol in ("TE", "TM"):
            if pol == "TM" and (m == 0 or n == 0):
                continue
            e1 = transverse_profile(g1, ModeIndex(pol, m, n), k,
                                    TransversePoint(x, 2.0 * y))
            e2 = transverse_profile(g2, ModeIndex(pol, n, m), k,
                                    TransversePoint(2.0 * y, x))
            # x<->y swap exchanges the transverse components, up to the
            # gauge sign of the TE profile.
            assert abs(abs(e1[0]) - abs(e2[1])) < 1e-12
            assert abs(abs(e1[1]) - abs(e2[0])) < 1e-12
            assert abs(e1[2] - e2[2]) < 1e-12

    def test_point_outside_rejected(self):
        with pytest.raises(InputError):
            transverse_profile(SQ, ModeIndex("TE", 1, 0), 0.0,
                               TransversePoint(1.5, 0.5))


class TestNormalization:
    def test_tm_unit_for_any_k(self):
        for k in (0.0, 3.7, 20.0):
            val = normalization_integral(SQ, ModeIndex("TM", 1, 1), k)
            assert val == pytest.approx(1.0, abs=1e-9)

    def test_te10_paper_literal_doubles(self):
        val = normalization_integral(SQ, ModeIndex("TE", 1, 0), 0.0,
                                     "paper-literal")
        assert val == pytest.approx(2.0, abs=1e-9)

    def test_te10_unit_normalized(self):
        val = normalization_integral(SQ, ModeIndex("TE", 1, 0), 0.0)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_axial_part_matches_exact_trigonometric_integral(self):
        # The squared axial component alone integrates to k_mn^2/kappa^2
        # (mean square of sin*sin is a quarter of the area).
        from wgdisp.quad2d import integrate2d
        g = Geometry(1.0, 1.4)
        mode = ModeIndex("TM", 2, 3)
        k = 4.2
        kmn = cutoff_wavenumber(g, mode)
        kappa2 = kmn ** 2 + k ** 2

        def ez_squared(x, y):
            e = (4.0 / g.area) * (kmn ** 2 / kappa2) \
                * np.sin(2 * np.pi * x / g.a) ** 2 \
                * np.sin(3 * np.pi * y / g.b) ** 2
            return e

        val, err = integrate2d(ez_squared, 0, g.a, 0, g.b, tol=1e-12,
                               initial=(2, 3))
        assert val == pytest.approx(kmn ** 2 / kappa2, abs=1e-11)
        assert err < 1e-11

    def test_rectangular_guide_all_low_modes_unit(self):
        g = Geometry(1.0, 1.7)
        for mode in (ModeIndex("TM", 2, 1), ModeIndex("TE", 0, 2),
                     ModeIndex("TE", 3, 1)):
            assert normalization_integral(g, mode, 5.5) \
                == pytest.approx(1.0, abs=1e-9)


class TestEnumeration:
    def test_square_below_lowest_tm(self):
        labels = [m.label() for m in enumerate_modes(SQ, 3.2)]
        assert labels == ["TE10", "TE01"]

    def test_square_including_first_tm(self):
        labels = [m.label() for m in enumerate_modes(SQ, 4.5)]
        assert labels == ["TE10", "TE01", "TM11", "TE11"]

    def test_empty_below_cutoff(self):
        g = Geometry(1.0, 2.0)
        assert enumerate_modes(g, 0.9 * math.pi / 2.0) == []

    def test_sorted_by_cutoff(self):
        modes = enumerate_modes(Geometry(1.0, 0.7), 25.0)
        ks = [cutoff_wavenumber(Geometry(1.0, 0.7), m) for m in modes]
        assert ks == sorted(ks)

    def test_mode_arrays_consistent_with_enumeration(self):
        tables = mode_arrays(SQ, 12.0)
        n_total = tables["TM"]["k"].size + tables["TE"]["k"].size
        assert n_total == len(enumerate_modes(SQ, 12.0))


def _box_listing(geom, max_cutoff):
    """Reference table: mask a meshgrid over the whole index box, then sort
    each polarization with its own stable argsort."""
    limit = max_cutoff * (1.0 + 1e-12)
    m = np.arange(0, int(limit * geom.a / math.pi) + 2)
    n = np.arange(0, int(limit * geom.b / math.pi) + 2)
    mm, nn = np.meshgrid(m, n, indexing="ij")
    kk = np.hypot(mm * np.pi / geom.a, nn * np.pi / geom.b)
    inside = kk <= limit
    out = {}
    for name, mask in (("TM", inside & (mm >= 1) & (nn >= 1)),
                       ("TE", inside & ~((mm == 0) & (nn == 0)))):
        order = np.argsort(kk[mask], kind="stable")
        out[name] = {"m": mm[mask][order], "n": nn[mask][order],
                     "k": kk[mask][order]}
    return out


def _loop_enumeration(geom, max_cutoff):
    """Reference enumeration: a double loop with the documented sort key."""
    limit = max_cutoff * (1.0 + 1e-12)
    found = []
    for m in range(0, int(limit * geom.a / math.pi) + 2):
        for n in range(0, int(limit * geom.b / math.pi) + 2):
            if m == 0 and n == 0:
                continue
            kmn = math.hypot(m * math.pi / geom.a, n * math.pi / geom.b)
            if kmn > limit:
                continue
            found.append((kmn, 1, -m, n, ModeIndex("TE", m, n)))
            if m >= 1 and n >= 1:
                found.append((kmn, 0, -m, n, ModeIndex("TM", m, n)))
    found.sort(key=lambda row: row[:4])
    return [row[4] for row in found]


def _assert_tables_equal(got, want):
    for pol in ("TM", "TE"):
        for key in ("m", "n", "k"):
            assert got[pol][key].dtype == want[pol][key].dtype
            assert np.array_equal(got[pol][key], want[pol][key]), (pol, key)


class TestModeShells:
    def test_full_table_matches_box_listing(self):
        for geom, cutoff in ((SQ, 12.0), (Geometry(1.0, 0.7), 40.0),
                             (Geometry(2.3, 0.4), 55.5), (SQ, 3.2)):
            _assert_tables_equal(mode_arrays(geom, cutoff),
                                 _box_listing(geom, cutoff))

    def test_concatenated_shells_equal_one_shot_table(self):
        # Random guides and growing cutoff sequences; every third sequence
        # has its cutoffs placed exactly on lattice points.
        rng = np.random.default_rng(2024)
        for trial in range(60):
            geom = Geometry(float(rng.uniform(0.3, 2.0)),
                            float(rng.uniform(0.3, 2.0)))
            cutoff = float(rng.uniform(0.5, 15.0)) * math.pi / min(geom.a, geom.b)
            cutoffs = [cutoff * 1.3 ** step for step in range(5)]
            if trial % 3 == 0:
                cutoffs = [cutoff_wavenumber(geom, ModeIndex("TE", int(m), int(n)))
                           for m, n in sorted(rng.integers(1, 30, size=(5, 2)),
                                              key=lambda mn: tuple(mn))]
                cutoffs = sorted(set(cutoffs))
            lower = None
            shells = []
            for k in cutoffs:
                shells.append(mode_arrays(geom, k, lower))
                lower = k
            joined = {pol: {key: np.concatenate([s[pol][key] for s in shells])
                            for key in ("m", "n", "k")} for pol in ("TM", "TE")}
            _assert_tables_equal(joined, _box_listing(geom, cutoffs[-1]))

    def test_shell_edges_on_lattice_points(self):
        # TE10 and TM11 of the square guide sit exactly on the edges.
        k10 = cutoff_wavenumber(SQ, ModeIndex("TE", 1, 0))
        k11 = cutoff_wavenumber(SQ, ModeIndex("TM", 1, 1))
        shell = mode_arrays(SQ, k11, k10)
        assert list(zip(shell["TE"]["m"], shell["TE"]["n"])) == [(1, 1)]
        assert list(zip(shell["TM"]["m"], shell["TM"]["n"])) == [(1, 1)]
        assert mode_arrays(SQ, k11, k11)["TE"]["k"].size == 0

    def test_enumeration_matches_loop_reference(self):
        for geom, cutoff in ((SQ, 25.0), (Geometry(1.0, 0.7), 30.0),
                             (Geometry(1.7, 0.9), 21.0)):
            assert enumerate_modes(geom, cutoff) == _loop_enumeration(geom, cutoff)

    @pytest.mark.parametrize("cutoff", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_bad_cutoff(self, cutoff):
        with pytest.raises(InputError, match="positive and finite"):
            mode_arrays(SQ, cutoff)
        with pytest.raises(InputError, match="positive and finite"):
            enumerate_modes(SQ, cutoff)

    @pytest.mark.parametrize("lower", [math.inf, math.nan, -1.0])
    def test_rejects_bad_lower_cutoff(self, lower):
        with pytest.raises(InputError, match="lower_cutoff"):
            mode_arrays(SQ, 10.0, lower)


class TestCorner:
    def test_only_the_four_corners(self):
        g = Geometry(1.0, 0.6)
        corners = [TransversePoint(x, y) for x in (0.0, 1.0) for y in (0.0, 0.6)]
        assert all(g.is_corner(p) for p in corners)
        for p in (TransversePoint(0.0, 0.3), TransversePoint(0.5, 0.6),
                  TransversePoint(0.5, 0.3)):
            assert not g.is_corner(p)
