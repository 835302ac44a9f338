import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import mode_profile, profile_norm
from wgdisp.conventions import Conventions
from wgdisp.coupling import _te_rows
from wgdisp.errors import InputError
from wgdisp.waveguide import (Geometry, ModeIndex, TransversePoint, _cutoffs,
                              cutoff_wavenumber, enumerate_modes,
                              mode_arrays)

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

    def test_k11_is_the_tables_tm11_cutoff(self):
        # The split cutoff, the tails' first shell and the printed sums take
        # k_11 from the one k_mn formula: bit for bit the TM11 k of the mode
        # table, also on guides whose k_11 overflows, with no warning.
        from wgdisp.coupling import _k11
        rng = np.random.default_rng(52)
        guides = [Geometry(float(a), float(b)) for a, b in
                  10.0 ** rng.uniform(-2.0, 2.0, size=(20_000, 2))]
        # Every pair of extreme sides whose area a*b is a double: Geometry
        # refuses one whose area underflows to 0.
        sides = (1e-310, 1e-300, 1e-150, 1.0, 1e150, 1e300)
        guides += [Geometry(a, b) for a in sides for b in sides if a * b > 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for geom in guides:
                assert _k11(geom) == float(_cutoffs(geom, 1, 1))
            with np.errstate(over="ignore"):  # the table's inf past the largest double
                table = [float(_cutoffs(geom, np.array([1]), np.array([1]))[0])
                         for geom in guides]
        assert [_k11(geom) for geom in guides] == table
        assert _k11(Geometry(1e-310, 1.0)) == math.inf


class TestModeValidation:
    def test_tm_requires_both_indices(self):
        with pytest.raises(InputError):
            ModeIndex("TM", 0, 1)
        with pytest.raises(InputError):
            ModeIndex("TM", 1, 0)

    def test_te00_rejected(self):
        with pytest.raises(InputError):
            ModeIndex("TE", 0, 0)

    def test_labels_are_distinct(self):
        # Single-digit indices keep their four-character labels; an index of
        # two or more digits puts "_" between m and n.
        assert [ModeIndex("TM", m, n).label() for m, n in ((1, 2), (9, 9), (1, 11), (11, 1),
                                                           (1, 10), (10, 1))] \
            == ["TM12", "TM99", "TM1_11", "TM11_1", "TM1_10", "TM10_1"]
        labels = {mode.label() for mode in enumerate_modes(SQ, 150.0)}
        assert len(labels) == len(enumerate_modes(SQ, 150.0))
        with pytest.raises(InputError, match="got TM0_10$"):
            ModeIndex("TM", 0, 10)

    def test_bad_geometry(self):
        with pytest.raises(InputError):
            Geometry(0.0, 1.0)
        with pytest.raises(InputError):
            Geometry(1.0, -2.0)


class TestProfiles:
    def test_te10_center_paper_literal(self):
        e = mode_profile(SQ, ModeIndex("TE", 1, 0), 0.0, SQ.center(),
                         Conventions("paper-literal"))
        assert np.allclose(e, [0.0, 2.0, 0.0], atol=1e-15)

    def test_tm11_center_on_cutoff(self):
        e = mode_profile(SQ, ModeIndex("TM", 1, 1), 0.0, SQ.center())
        assert abs(e[2] - 2.0) < 1e-15
        assert abs(e[0]) < 1e-15 and abs(e[1]) < 1e-15

    def test_te_profile_k_independent(self):
        mode = ModeIndex("TE", 2, 1)
        p = TransversePoint(0.3, 0.7)
        a = mode_profile(SQ, mode, 0.0, p)
        b = mode_profile(SQ, mode, 17.3, p)
        assert np.array_equal(a, b)

    @given(m=st.integers(1, 5), n=st.integers(1, 5),
           pol=st.sampled_from(["TE", "TM"]),
           k=st.floats(-10.0, 10.0), y=st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_tangential_components_vanish_on_walls(self, m, n, pol, k, y):
        mode = ModeIndex(pol, m, n)
        for wall in (TransversePoint(0.0, y), TransversePoint(1.0, y),
                     TransversePoint(y, 0.0), TransversePoint(y, 1.0)):
            e = mode_profile(SQ, mode, k, wall)
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
            e1 = mode_profile(g1, ModeIndex(pol, m, n), k,
                              TransversePoint(x, 2.0 * y))
            e2 = mode_profile(g2, ModeIndex(pol, n, m), k,
                              TransversePoint(2.0 * y, x))
            # x<->y swap exchanges the transverse components, up to the
            # gauge sign of the TE profile.
            assert abs(abs(e1[0]) - abs(e2[1])) < 1e-12
            assert abs(abs(e1[1]) - abs(e2[0])) < 1e-12
            assert abs(e1[2] - e2[2]) < 1e-12

    def test_point_outside_rejected(self):
        with pytest.raises(InputError):
            mode_profile(SQ, ModeIndex("TE", 1, 0), 0.0,
                         TransversePoint(1.5, 0.5))

    def test_view_matches_printed_formula(self):
        # The profile formulas of the waveguide module docstring, evaluated
        # here term by term; TE components are the unit factor-row entries,
        # times sqrt(2) for a printed zero-index profile.
        rng = np.random.default_rng(7)
        for _ in range(200):
            g = Geometry(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
            p = TransversePoint(rng.uniform(0.0, g.a), rng.uniform(0.0, g.b))
            m, n = int(rng.integers(0, 6)), int(rng.integers(0, 6))
            k = rng.uniform(-20.0, 20.0)
            ax, ay = m * math.pi / g.a, n * math.pi / g.b
            kmn = math.hypot(ax, ay)
            root_a = 2.0 / math.sqrt(g.area)
            sx, cx = math.sin(ax * p.x), math.cos(ax * p.x)
            sy, cy = math.sin(ay * p.y), math.cos(ay * p.y)
            if m and n:
                kappa = math.hypot(kmn, k)
                tm = [root_a * (1j * k / kappa) * (ax / kmn) * cx * sy,
                      root_a * (1j * k / kappa) * (ay / kmn) * sx * cy,
                      root_a * (kmn / kappa) * sx * sy]
                got = mode_profile(g, ModeIndex("TM", m, n), k, p)
                assert np.abs(got - tm).max() < 1e-14
            if m or n:
                mode = ModeIndex("TE", m, n)
                index = np.array([m]), np.array([n])
                rows = _te_rows(g, *index, _cutoffs(g, *index), p, p)
                for conv, nf in (("paper-literal", 1.0),
                                 ("oracle-consistent",
                                  math.sqrt(0.5) if m * n == 0 else 1.0)):
                    te = [-root_a * nf * (ay / kmn) * cx * sy,
                          root_a * nf * (ax / kmn) * sx * cy, 0.0]
                    got = mode_profile(g, mode, k, p, Conventions(conv))
                    assert np.abs(got - te).max() < 1e-14
                    scale = math.sqrt(2.0) if conv == "paper-literal" and m * n == 0 else 1.0
                    assert got[0].real == rows[0, 0] * scale
                    assert got[1].real == rows[1, 0] * scale


class TestNormalization:
    def test_tm_unit_for_any_k(self):
        for k in (0.0, 3.7, 20.0):
            val = profile_norm(SQ, ModeIndex("TM", 1, 1), k)
            assert val == pytest.approx(1.0, abs=1e-9)

    def test_te10_paper_literal_doubles(self):
        val = profile_norm(SQ, ModeIndex("TE", 1, 0), 0.0, "paper-literal")
        assert val == pytest.approx(2.0, abs=1e-9)

    def test_te10_unit_normalized(self):
        val = profile_norm(SQ, ModeIndex("TE", 1, 0), 0.0)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_axial_part_matches_exact_trigonometric_integral(self):
        # The squared axial component alone integrates to k_mn^2/kappa^2
        # (mean square of sin*sin is a quarter of the area).
        g = Geometry(1.0, 1.4)
        mode = ModeIndex("TM", 2, 3)
        k = 4.2
        kmn = cutoff_wavenumber(g, mode)
        points = 8
        ez2 = sum(abs(mode_profile(g, mode, k, TransversePoint(
            (i + 0.5) * g.a / points, (j + 0.5) * g.b / points))[2]) ** 2
            for i in range(points) for j in range(points))
        val = ez2 * g.area / points ** 2
        assert val == pytest.approx(kmn ** 2 / (kmn ** 2 + k ** 2), abs=1e-14)

    def test_rectangular_guide_all_low_modes_unit(self):
        g = Geometry(1.0, 1.7)
        for mode in (ModeIndex("TM", 2, 1), ModeIndex("TE", 0, 2),
                     ModeIndex("TE", 3, 1)):
            assert profile_norm(g, mode, 5.5) == pytest.approx(1.0, abs=1e-9)


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

    def test_cutoff_is_the_listings_k(self, monkeypatch):
        # cutoff_wavenumber gives mode_arrays' k bit for bit, and the
        # enumeration sorts by that k without asking it mode by mode.
        import wgdisp.waveguide as waveguide
        rng = np.random.default_rng(7)
        for _ in range(40):
            geom = Geometry(float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0)))
            tables = mode_arrays(geom, 30.0 * math.pi / min(geom.a, geom.b))
            for pol in ("TM", "TE"):
                m, n, k = (tables[pol][key].tolist() for key in ("m", "n", "k"))
                assert [cutoff_wavenumber(geom, ModeIndex(pol, *mn))
                        for mn in zip(m, n)] == k
        # Past the largest double the cutoff is inf, as mode_arrays takes
        # it, with no warning; the largest index a mode takes is still a
        # cutoff, and one past int64 is no mode.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cutoff_wavenumber(Geometry(1e-308, 1.0), ModeIndex("TE", 10**10, 0)) \
                == math.inf
            assert cutoff_wavenumber(SQ, ModeIndex("TE", 2**63 - 1, 0)) == 2.0 ** 63 * math.pi
        with pytest.raises(InputError, match="passes 2\\*\\*63 - 1"):
            ModeIndex("TE", 10**20, 0)
        monkeypatch.setattr(waveguide, "cutoff_wavenumber", None)
        assert len(enumerate_modes(SQ, 40.0)) == sum(
            t["k"].size for t in mode_arrays(SQ, 40.0).values())

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
            kmn = float(np.hypot(m * math.pi / geom.a, n * math.pi / geom.b))
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


def _head(listing, head):
    """The first modes of ``listing``, as many per polarization as ``head`` holds."""
    return {pol: {key: listing[pol][key][:head[pol]["k"].size] for key in ("m", "n", "k")}
            for pol in ("TM", "TE")}


def _past(listing, head):
    """The modes of ``listing`` past its first ones, as many as ``head`` holds."""
    return {pol: {key: listing[pol][key][head[pol]["k"].size:] for key in ("m", "n", "k")}
            for pol in ("TM", "TE")}


class TestModeShells:
    def test_full_table_matches_box_listing(self):
        for geom, cutoff in ((SQ, 12.0), (Geometry(1.0, 0.7), 40.0),
                             (Geometry(2.3, 0.4), 55.5), (SQ, 3.2)):
            _assert_tables_equal(mode_arrays(geom, cutoff),
                                 _box_listing(geom, cutoff))

    def test_concatenated_shells_equal_one_shot_table(self):
        # Random guides and growing cutoff sequences; every third sequence
        # has its cutoffs placed exactly on lattice points.  Each listing is,
        # bit for bit, the head of the next, so the shells past each head,
        # concatenated, are the listing at the last cutoff.
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
            listings = [mode_arrays(geom, k) for k in cutoffs]
            shells = [listings[0]]
            for head, listing in zip(listings, listings[1:]):
                _assert_tables_equal(_head(listing, head), head)
                shells.append(_past(listing, head))
            joined = {pol: {key: np.concatenate([s[pol][key] for s in shells])
                            for key in ("m", "n", "k")} for pol in ("TM", "TE")}
            _assert_tables_equal(joined, _box_listing(geom, cutoffs[-1]))

    def test_shell_edges_on_lattice_points(self):
        # TE10 and TM11 of the square guide sit exactly on the cutoffs: the
        # listing at k10 holds TE10 and TE01, and the one at k11 adds just
        # TE11 and TM11 past that head.
        k10 = cutoff_wavenumber(SQ, ModeIndex("TE", 1, 0))
        k11 = cutoff_wavenumber(SQ, ModeIndex("TM", 1, 1))
        low, high = mode_arrays(SQ, k10), mode_arrays(SQ, k11)
        assert list(zip(low["TE"]["m"], low["TE"]["n"])) == [(0, 1), (1, 0)]
        assert low["TM"]["k"].size == 0
        _assert_tables_equal(_head(high, low), low)
        shell = _past(high, low)
        assert list(zip(shell["TE"]["m"], shell["TE"]["n"])) == [(1, 1)]
        assert list(zip(shell["TM"]["m"], shell["TM"]["n"])) == [(1, 1)]

    def test_enumeration_matches_loop_reference(self):
        # The 1 x 1 guide to K = 300 holds equal exact cutoffs whose
        # np.hypot and math.hypot values order differently.
        for geom, cutoff in ((SQ, 25.0), (Geometry(1.0, 0.7), 30.0),
                             (Geometry(1.7, 0.9), 21.0), (SQ, 300.0)):
            assert enumerate_modes(geom, cutoff) == _loop_enumeration(geom, cutoff)

    @pytest.mark.parametrize("geom, cutoff", [(SQ, 1e5), (Geometry(1.0, 1e-6), 1e7),
                                              (Geometry(1.0, 0.5), 1e300)])
    def test_listings_refuse_one_cap_alike(self, monkeypatch, geom, cutoff):
        # The modes command's listing and the mode table's meet one cap check:
        # the same count and cap, before any mode is listed.
        import wgdisp.energy as energy
        import wgdisp.waveguide as waveguide
        from wgdisp.errors import ModeCapError

        def forbidden(*args, **kwargs):
            raise AssertionError("modes listed past the cap")
        for module in (waveguide, energy):
            monkeypatch.setattr(module, "mode_arrays", forbidden)
        with pytest.raises(ModeCapError) as listing:
            enumerate_modes(geom, cutoff)
        with pytest.raises(ModeCapError) as table:
            energy.ModeTable(geom, geom.center(), geom.center()).extend(cutoff)
        assert (listing.value.needed, listing.value.cap) == (table.value.needed, table.value.cap)
        assert listing.value.cap == waveguide.MODE_CAP < listing.value.needed

    @pytest.mark.parametrize("cutoff", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_bad_cutoff(self, cutoff):
        with pytest.raises(InputError, match="positive and finite"):
            mode_arrays(SQ, cutoff)
        with pytest.raises(InputError, match="positive and finite"):
            enumerate_modes(SQ, cutoff)


class TestCorner:
    def test_only_the_four_corners(self):
        g = Geometry(1.0, 0.6)
        corners = [TransversePoint(x, y) for x in (0.0, 1.0) for y in (0.0, 0.6)]
        assert all(g.is_corner(p) for p in corners)
        for p in (TransversePoint(0.0, 0.3), TransversePoint(0.5, 0.6),
                  TransversePoint(0.5, 0.3)):
            assert not g.is_corner(p)
