import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wgdisp.conventions import Conventions
from wgdisp.energy import (DipoleSpecies, DipoleTransition, ModeTable,
                           PairConfiguration, dispersion_energy,
                           dispersion_sweep, f_tensor, polarizability,
                           quadratic_contraction, ratio_to_freespace,
                           u_freespace_cp, u_freespace_vdw,
                           u_near_field_assembled, u_retarded_closed,
                           u_retarded_polarizability_form)
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

    def test_isotropic_second_moment(self):
        t = DipoleTransition(1.0, (1.0, 2.0, 2.0))
        m = DipoleSpecies((t,), "isotropic-average").second_moment(t)
        assert np.allclose(m, np.eye(3) * 3.0)

    def test_fixed_second_moment(self):
        t = DipoleTransition(1.0, (0.0, 1.0, 1.0))
        m = DipoleSpecies((t,), "fixed-vector").second_moment(t)
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
        cfg = _config(0.002)
        with pytest.raises(ModeCapError) as err:
            f_tensor(cfg, E100, tail_tol=1e-6, mode_cap=100_000)
        assert "asymptotics" in str(err.value)

    @pytest.mark.parametrize("b, p1, p2, z, convention, tol", [
        (0.75, (0.4, 0.3), (0.4, 0.3), 0.02, "oracle-consistent", 1e-6),
        (0.6, (0.31, 0.22), (0.72, 0.41), 0.07, "paper-literal", 1e-6),
        (1.0, (0.5, 0.5), (0.5, 0.5), 0.3, "oracle-consistent", 1e-8),
        (0.5, (0.12, 0.33), (0.85, 0.07), 1.1, "paper-literal", 1e-10),
        (0.9, (0.63, 0.18), (0.27, 0.71), 5.0, "oracle-consistent", 1e-9),
    ])
    def test_growth_equals_fixed_cutoff_bitwise(self, b, p1, p2, z,
                                                convention, tol):
        # The cutoff search appends each new shell of modes to the
        # k-sorted arrays; that must be exactly one sum at the final cutoff.
        cfg = PairConfiguration(Geometry(1.0, b), TransversePoint(*p1),
                                TransversePoint(*p2), z, ISO, ISO,
                                conventions=Conventions.from_name(convention))
        grown = f_tensor(cfg, E100, tail_tol=tol)
        fixed = f_tensor(cfg, E100, max_cutoff=grown.max_cutoff)
        for name in ("tensor", "tm_tensor", "te_tensor"):
            assert np.array_equal(getattr(grown, name), getattr(fixed, name))
        assert grown.modes_used == fixed.modes_used
        assert grown.tail_bound == fixed.tail_bound
        if grown.per_mode is None:
            assert fixed.per_mode is None
        else:
            assert list(grown.per_mode) == list(fixed.per_mode)
            for mode, value in grown.per_mode.items():
                assert np.array_equal(value, fixed.per_mode[mode])

    def test_each_mode_kernel_runs_once(self, monkeypatch):
        # The transverse factor rows of each mode are built once per
        # cutoff search, however often the cutoff grows.
        import wgdisp.energy as energy_mod
        calls = []
        for name in ("_tm_rows", "_te_rows"):
            kernel = getattr(energy_mod, name)

            def counted(geom, m, n, k, *rest, _kernel=kernel):
                calls.append(k.size)
                return _kernel(geom, m, n, k, *rest)
            monkeypatch.setattr(energy_mod, name, counted)
        ft = f_tensor(_config(0.05, geom=Geometry(1.0, 0.7)), E100,
                      tail_tol=1e-6)
        assert len(calls) > 2  # the cutoff grew at least once
        assert sum(calls) == ft.modes_used

    @pytest.mark.parametrize("truncation", [
        {"tail_tol": float("nan")}, {"tail_tol": 0.0}, {"tail_tol": -1e-6},
        {"tail_tol": float("inf")}, {"max_cutoff": float("inf")},
        {"max_cutoff": float("nan")}, {"max_cutoff": 0.0},
    ])
    def test_rejects_bad_truncation(self, truncation):
        with pytest.raises(InputError):
            f_tensor(_config(0.5), E100, **truncation)

    def test_per_mode_map_sums_to_total(self):
        cfg = _config(0.8)
        ft = f_tensor(cfg, E100, tail_tol=1e-8)
        assert ft.per_mode is not None
        acc = sum(ft.per_mode.values())
        assert np.allclose(acc, ft.tensor, rtol=1e-12, atol=1e-300)

    def test_vectorized_path_matches_scalar_closed_forms(self):
        # The bulk mode-sum path and the per-mode closed forms must agree
        # exactly, under both sign conventions, at off-center points.
        from wgdisp.energy import f_tensor_from_modes
        from wgdisp.waveguide import enumerate_modes
        p1 = TransversePoint(0.31, 0.67)
        p2 = TransversePoint(0.52, 0.18)
        modes = enumerate_modes(SQ, 11.0)
        for name in ("oracle-consistent", "paper-literal"):
            cfg = PairConfiguration(SQ, p1, p2, 0.7, ISO, ISO,
                                    conventions=Conventions.from_name(name))
            bulk = f_tensor(cfg, E100, max_cutoff=11.0)
            scalar = f_tensor_from_modes(cfg, E100, modes)
            assert bulk.modes_used == len(modes)
            assert np.allclose(bulk.tensor, scalar.tensor,
                               rtol=1e-11, atol=1e-13)


def _direct_tm(geom, m, n, k, p1, p2, z, conventions):
    """Reference TM kernel: np.sin/np.cos evaluated per mode."""
    signs = np.array([[-1.0, -1.0, -1.0], [-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]])
    if conventions.tm_sign == "paper-literal":
        signs = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
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
    if conventions.tm_sign == "paper-literal":
        pref = -(np.pi ** 2 / (2.0 * geom.area ** 2 * k)) * 4.0 * decay
        out[0, 1, :] = pref * np.cos(ax * p2.x) * np.sin(ay * p2.y) \
            * np.sin(ax * p1.x) * np.cos(ay * p1.y)
        out[1, 0, :] = pref * np.sin(ax * p2.x) * np.cos(ay * p2.y) \
            * np.cos(ax * p1.x) * np.sin(ay * p1.y)
    return out


def _direct_te(geom, m, n, k, p1, p2, z, energy, conventions):
    """Reference TE kernel: np.sin/np.cos evaluated per mode."""
    from scipy.special import k0
    ax = m * np.pi / geom.a
    ay = n * np.pi / geom.b
    nf = np.ones_like(k)
    if conventions.normalization == "unit-normalized":
        nf[(m == 0) | (n == 0)] = 1.0 / math.sqrt(2.0)
    factor = -2.0 if conventions.te_factor == "derivation-consistent" else 1.0
    root_a = 2.0 / math.sqrt(geom.area)

    def profile(p):
        ex = -root_a * nf * (ay / k) * np.cos(ax * p.x) * np.sin(ay * p.y)
        ey = root_a * nf * (ax / k) * np.sin(ax * p.x) * np.cos(ay * p.y)
        return np.stack([ex, ey, np.zeros_like(ex)])

    e2 = profile(p2)
    e1 = profile(p1)
    radial = factor * energy * k0(k * z)
    return radial[None, None, :] * e2[:, None, :] * e1[None, :, :]


def _table_rows(table, pol):
    """The factor rows a ModeTable holds for one polarization, in table order."""
    return np.concatenate([block.rows[:used].T for block, used
                           in table._filled(pol, table._size[pol])], axis=1)


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
        # np.sin/np.cos values, also for the modes of a later shell.
        geom = Geometry(1.0, b)
        p1, p2 = TransversePoint(*p1), TransversePoint(*p2)
        conv = Conventions.from_name(convention)
        table = ModeTable(geom, p1, p2, conv)
        if lower is not None:
            table.extend(lower)
        table.extend(200.0)
        per_mode = table.per_mode(table.counts(200.0), z, E100)
        tables = mode_arrays(geom, 200.0)
        keys = []
        for pol, direct, extra in (("TM", _direct_tm, ()),
                                   ("TE", _direct_te, (E100,))):
            t = tables[pol]
            want = direct(geom, t["m"].astype(float), t["n"].astype(float),
                          t["k"], p1, p2, z, *extra, conv)
            modes = [ModeIndex(pol, m, n)
                     for m, n in zip(t["m"].tolist(), t["n"].tolist())]
            got = np.stack([per_mode[mode] for mode in modes], axis=2)
            assert got.tobytes() == want.tobytes()
            keys += modes
        assert list(per_mode) == keys

    @pytest.mark.parametrize("convention", ["oracle-consistent", "paper-literal"])
    def test_write_into_slice_of_larger_array(self, convention):
        # A table writes each shell's rows into fixed blocks at absolute
        # positions, across block boundaries.  The rows must be the bits a
        # fresh call gives, and rows written earlier must stay as they were.
        from wgdisp.energy import _TABLE_BLOCK, _te_rows, _tm_rows
        geom = Geometry(1.0, 0.7)
        p1, p2 = TransversePoint(0.31, 0.22), TransversePoint(0.68, 0.41)
        conv = Conventions.from_name(convention)
        table = ModeTable(geom, p1, p2, conv)
        fresh = {"TM": [], "TE": []}
        lower = None
        for K in (60.0, 400.0, 520.0):
            before = {pol: _table_rows(table, pol).copy() if lower else None
                      for pol in fresh}
            table.extend(K)
            shell = mode_arrays(geom, K, lower)
            for pol, rows_of in (("TM", _tm_rows), ("TE", _te_rows)):
                t = shell[pol]
                fresh[pol].append(rows_of(geom, t["m"], t["n"], t["k"], p1, p2, conv))
                held = _table_rows(table, pol)
                assert held.tobytes() == np.concatenate(fresh[pol], axis=1).tobytes()
                if before[pol] is not None:
                    assert np.array_equal(held[:, :before[pol].shape[1]], before[pol])
            lower = K
        assert min(table.counts(400.0)) > _TABLE_BLOCK


class TestColumnBlocks:
    def test_block_sum_is_one_array_sum_bitwise(self):
        # The sums read from a table depend on the modes summed alone: a
        # table filled at once and one filled in random shells, asked in
        # different orders, give the same bits at every cutoff.
        rng = np.random.default_rng(3)
        geom = Geometry(1.0, 0.8)
        p1, p2 = TransversePoint(0.37, 0.23), TransversePoint(0.61, 0.44)
        for convention in ("oracle-consistent", "paper-literal"):
            conv = Conventions.from_name(convention)
            whole = ModeTable(geom, p1, p2, conv)
            whole.extend(700.0)
            edges = np.sort(rng.uniform(5.0, 700.0, size=6))
            pieces = ModeTable(geom, p1, p2, conv)
            for z in (0.02, 0.3):
                for K in (*edges, 700.0, *edges[::-1]):
                    pieces.extend(K)
                    assert pieces.counts(K) == whole.counts(K)
                    got = pieces.sums(z, pieces.counts(K))
                    want = whole.sums(z, whole.counts(K))
                    for g, w in zip(got, want):
                        assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("convention", ["oracle-consistent", "paper-literal"])
    def test_many_blocks_match_one_kernel_call(self, convention):
        # Over 3 blocks per polarization: the blocked contraction must
        # agree with the pairwise sum of one per-mode kernel call over the
        # whole cutoff-sorted table to the stated tolerance.
        from wgdisp.energy import _TABLE_BLOCK
        geom = Geometry(1.0, 0.8)
        p1, p2 = TransversePoint(0.37, 0.23), TransversePoint(0.61, 0.44)
        conv = Conventions.from_name(convention)
        K, z = 1300.0, 0.02
        tables = mode_arrays(geom, K)
        assert tables["TM"]["k"].size > 3 * _TABLE_BLOCK
        tm, te = tables["TM"], tables["TE"]
        want_tm = _direct_tm(geom, tm["m"].astype(float), tm["n"].astype(float),
                             tm["k"], p1, p2, z, conv).sum(axis=2)
        want_te = _direct_te(geom, te["m"].astype(float), te["n"].astype(float),
                             te["k"], p1, p2, z, E100, conv).sum(axis=2)
        cfg = _config(z, p1=p1, p2=p2, geom=geom, conventions=conv)
        ft = f_tensor(cfg, E100, max_cutoff=K)
        scale = max(np.abs(want_tm).max(), np.abs(want_te).max())
        assert np.abs(ft.tm_tensor - want_tm).max() <= SUM_TOL * scale
        assert np.abs(ft.te_tensor - want_te).max() <= SUM_TOL * scale


def _reference_f_tensor(cfg, energy, tail_tol):
    """Cutoff search with the per-mode pairwise sums of the column-block code.

    Every growth step sums the per-mode couplings of the whole table along
    the mode axis with numpy's pairwise summation, which is bit for bit
    what the earlier column-block implementation of f_tensor returned;
    the stopping rule is f_tensor's.  Returns (tm, te, modes, cutoff, tail).
    """
    from wgdisp.energy import _te_tail_bound, _tm_tail_bound
    geom, z, conv = cfg.geom, cfg.z, cfg.conventions
    K = max(3.0 * math.pi / max(geom.a, geom.b), 8.0 / z)
    while True:
        t = mode_arrays(geom, K)
        tm, te = t["TM"], t["TE"]
        tm_sum = _direct_tm(geom, tm["m"].astype(float), tm["n"].astype(float),
                            tm["k"], cfg.p1, cfg.p2, z, conv).sum(axis=2)
        te_sum = _direct_te(geom, te["m"].astype(float), te["n"].astype(float),
                            te["k"], cfg.p1, cfg.p2, z, energy, conv).sum(axis=2)
        tail = _tm_tail_bound(K, z, geom) + _te_tail_bound(K, z, geom, energy)
        scale = max(np.abs(tm_sum).max(), np.abs(te_sum).max(), 1e-300)
        if tail <= tail_tol * scale:
            return tm_sum, te_sum, tm["k"].size + te["k"].size, K, tail
        K *= 1.3


def _seeded_cases(n):
    rng = np.random.default_rng(2024)
    for i in range(n):
        b = rng.uniform(0.5, 1.0)
        p1 = TransversePoint(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9) * b)
        p2 = TransversePoint(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9) * b)
        z = 0.02 * 250.0 ** (i / (n - 1))  # log-spaced over [0.02a, 5a]
        conv = Conventions.from_name(("oracle-consistent", "paper-literal")[i % 2])
        yield PairConfiguration(Geometry(1.0, b), p1, p2, z, ISO, ISO,
                                conventions=conv)


class TestAgainstPairwiseSum:
    @pytest.mark.parametrize("cfg", list(_seeded_cases(8)),
                             ids=lambda cfg: f"z={cfg.z:.3g}")
    def test_same_cutoff_and_sums_within_tolerance(self, cfg):
        tm, te, modes, K, tail = _reference_f_tensor(cfg, E100, 1e-6)
        ft = f_tensor(cfg, E100, tail_tol=1e-6)
        assert ft.max_cutoff == K and ft.modes_used == modes
        assert ft.tail_bound == tail
        scale = max(np.abs(tm).max(), np.abs(te).max())
        assert np.abs(ft.tm_tensor - tm).max() <= SUM_TOL * scale
        assert np.abs(ft.te_tensor - te).max() <= SUM_TOL * scale
        assert np.abs(ft.tensor - (tm + te)).max() <= SUM_TOL * scale
        # The printed energies, assembled as dispersion_energy does.
        u = dispersion_energy(cfg, tail_tol=1e-6)
        p = ISO.second_moment(ISO.transitions[0])
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
        fixed = f_tensor(cfg, E100, max_cutoff=50.0)
        assert not np.any(fixed.tensor) and fixed.modes_used == 0

    def test_edge_is_not_a_corner(self):
        cfg = PairConfiguration(SQ, TransversePoint(0.0, 0.4),
                                TransversePoint(0.6, 0.5), 0.5, ISO, ISO)
        u = dispersion_energy(cfg, tail_tol=1e-6)
        assert u.total < 0.0 and u.modes_used > 0 and u.warnings == []


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
        # Reference: the same sum at twice the largest chosen cutoff.
        u = dispersion_energy(cfg, tail_tol=1e-6)
        cutoff = max(f.max_cutoff for f in u.f_by_level.values())
        ref = dispersion_energy(cfg, max_cutoff=2.0 * cutoff)
        assert abs(u.total - ref.total) <= u.tail_estimate + ref.tail_estimate


_TWO_LEVELS = DipoleSpecies(
    (DipoleTransition(E100, (0.3, 1.0, 0.6)),
     DipoleTransition(1.7 * E100, (0.9, 0.2, 0.4))), "fixed-vector")


class TestSweep:
    @pytest.mark.parametrize("convention", ["oracle-consistent", "paper-literal"])
    @pytest.mark.parametrize("truncation", [{"tail_tol": 1e-7},
                                            {"max_cutoff": 60.0}])
    def test_points_equal_single_energies_bitwise(self, convention, truncation):
        # A shared table must not change any number: each point equals a
        # one-point call, in ascending and in descending z order.
        cfg = PairConfiguration(Geometry(1.0, 0.7), TransversePoint(0.31, 0.22),
                                TransversePoint(0.68, 0.41), 0.05, _TWO_LEVELS,
                                ISO, conventions=Conventions.from_name(convention))
        zs = np.geomspace(0.05, 2.0, 5).tolist()
        for order in (zs, zs[::-1]):
            for z, u in zip(order, dispersion_sweep(cfg, order, **truncation)):
                one = dispersion_energy(replace(cfg, z=z), **truncation)
                for name in ("total", "u_tm_only", "u_te_only", "tail_estimate",
                             "modes_used", "per_level_pair", "warnings"):
                    assert getattr(u, name) == getattr(one, name)
                assert list(u.f_by_level) == list(one.f_by_level)
                for e, f in u.f_by_level.items():
                    g = one.f_by_level[e]
                    assert f.tensor.tobytes() == g.tensor.tobytes()
                    assert (f.max_cutoff, f.modes_used) == (g.max_cutoff, g.modes_used)

    def test_sweep_lists_each_mode_once(self, monkeypatch):
        import wgdisp.energy as energy_mod
        listing = energy_mod.mode_arrays
        built = []

        def counted(geom, K, lower=None):
            out = listing(geom, K, lower)
            built.append(out["TM"]["k"].size + out["TE"]["k"].size)
            return out
        monkeypatch.setattr(energy_mod, "mode_arrays", counted)
        cfg = PairConfiguration(Geometry(1.0, 0.7), TransversePoint(0.31, 0.22),
                                TransversePoint(0.68, 0.41), 0.04, _TWO_LEVELS,
                                _TWO_LEVELS)
        sweep = dispersion_sweep(cfg, np.geomspace(0.04, 0.4, 6).tolist(),
                                 tail_tol=1e-7)
        largest = max(f.max_cutoff for u in sweep for f in u.f_by_level.values())
        table = listing(cfg.geom, largest)
        assert len(built) > 2  # the first point grew the table in shells
        assert sum(built) == table["TM"]["k"].size + table["TE"]["k"].size


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
        u_fs = u_freespace_vdw(ISO, ISO, 0.01, form="tensor")
        assert u.total / u_fs == pytest.approx(1.0, abs=0.02)

    def test_free_space_recovery_at_z002(self):
        cfg = _config(0.02)
        u = dispersion_energy(cfg, tail_tol=1e-4)
        u_fs = u_freespace_vdw(ISO, ISO, 0.02, form="tensor")
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
        u2 = dispersion_energy(cfg.swapped(), tail_tol=1e-8).total
        assert u1 == pytest.approx(u2, rel=1e-12)

    def test_species_swap_symmetry_fixed_transverse(self):
        # Exact for fixed dipoles without mixed transverse-axial
        # components (the axial-order reversal flips the odd couplings).
        sp1 = DipoleSpecies.single(E100, (1.0, 0.5, 0.0), "fixed-vector")
        sp2 = DipoleSpecies.single(1.2 * E100, (0.3, 1.0, 0.0), "fixed-vector")
        cfg = PairConfiguration(SQ, TransversePoint(0.3, 0.4),
                                TransversePoint(0.7, 0.6), 1.0, sp1, sp2)
        u1 = dispersion_energy(cfg, tail_tol=1e-8).total
        u2 = dispersion_energy(cfg.swapped(), tail_tol=1e-8).total
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
        cfg = _config(5.0)
        assert u_retarded_polarizability_form(cfg) \
            == pytest.approx(u_retarded_closed(cfg), rel=1e-9)


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
        assert u_freespace_vdw(z_sp, z_sp, 1.0, form="tensor") / pref \
            == pytest.approx(1.0, rel=1e-12)
        assert u_freespace_vdw(x_sp, x_sp, 1.0, form="tensor") / pref \
            == pytest.approx(0.25, rel=1e-12)
        # weight sum for d1 = d2 = x+z: (1/4)(M_xx + M_zz)^2 = 1/4
        assert u_freespace_vdw(xz_sp, xz_sp, 1.0, form="tensor") / pref \
            == pytest.approx(0.25, rel=1e-12)
        # mismatched single-axis pair contracts to zero
        assert u_freespace_vdw(x_sp, z_sp, 1.0, form="tensor") == 0.0

    def test_isotropic_equals_tensor_under_averaging(self):
        a = u_freespace_vdw(ISO, ISO, 0.37, form="isotropic")
        b = u_freespace_vdw(ISO, ISO, 0.37, form="tensor")
        assert a == pytest.approx(b, rel=1e-14)

    def test_assembled_equals_tensor_for_arbitrary_dipoles(self):
        sp1 = DipoleSpecies.single(E100, (0.3, -0.2, 0.8), "fixed-vector")
        sp2 = DipoleSpecies.single(1.3 * E100, (-0.5, 0.1, 0.4), "fixed-vector")
        a = u_near_field_assembled(sp1, sp2, 0.37)
        b = u_freespace_vdw(sp1, sp2, 0.37, form="tensor")
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
