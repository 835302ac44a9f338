import math

import numpy as np
import pytest
from scipy.special import k0

from helpers import k0_small_argument
from wgdisp.asymptotics import reduced_zz_sum_direct, reduced_zz_sum_integral
from wgdisp.bessel import bessel_k0
from wgdisp.cli import FIGURE_GRIDS
from wgdisp.energy import DipoleSpecies, PairConfiguration, f_tensor
from wgdisp.errors import InputError
from wgdisp.waveguide import Geometry, cutoff_wavenumber, enumerate_modes

# mpmath-frozen direct sums
SUM_AT_1 = 0.016948660836466332
SUM_AT_01 = 25.361973553235171
INTEGRAL_AT_01 = 25.330295910584443

# The `reproduce fig4` grid and its direct sums, as float.hex.
FIG4_GRID = np.geomspace(*FIGURE_GRIDS["fig4"])
FIG4_DIRECT_HEX = [
    "0x1.8bc9514edb760p+14", "0x1.bd2271fa1ed9ep+13", "0x1.f4a2d25d4cf42p+12",
    "0x1.19877c2ecfcbbp+12", "0x1.3ca204374b29bp+11", "0x1.641d7a783e150p+10",
    "0x1.90861828ac170p+9", "0x1.c27a073be4b35p+8", "0x1.faac110d9f4f8p+7",
    "0x1.1cf3878b0d477p+7", "0x1.40894bca84fbcp+6", "0x1.689cde8bea888p+5",
    "0x1.95caa4c7d2978p+4", "0x1.c8cdca3c0642ep+3", "0x1.01461841db72bp+3",
    "0x1.22133d73919ebp+2", "0x1.4783659c89f30p+1", "0x1.726ba1a936341p+0",
    "0x1.a38ee949d1bc9p-1", "0x1.daf42127fdaf9p-2", "0x1.0b2689be6a976p-2",
    "0x1.2712f81a4e750p-3", "0x1.3979249473712p-4", "0x1.36f975fe81241p-5",
    "0x1.15afd6003b4acp-6",
]


class TestDirectSum:
    def test_value_at_unit_separation(self):
        assert reduced_zz_sum_direct(1.0) \
            == pytest.approx(SUM_AT_1, rel=1e-10)

    def test_leading_term_dominates_at_unit_separation(self):
        lead = math.sqrt(2.0) * math.exp(-math.sqrt(2.0) * math.pi)
        assert lead == pytest.approx(0.016634, abs=2e-6)
        assert SUM_AT_1 > lead

    def test_value_at_tenth(self):
        assert reduced_zz_sum_direct(0.1) \
            == pytest.approx(SUM_AT_01, rel=1e-10)
        assert reduced_zz_sum_direct(0.1) \
            == pytest.approx(reduced_zz_sum_integral(0.1), rel=0.05)

    def test_strictly_decreasing_in_z(self):
        values = [reduced_zz_sum_direct(z)
                  for z in (0.3, 0.5, 0.8, 1.3)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_fig4_grid_pinned(self):
        # The direct sums `reproduce fig4` prints, bit for bit.
        got = [reduced_zz_sum_direct(float(z)).hex() for z in FIG4_GRID]
        assert got == FIG4_DIRECT_HEX


class TestBatch:
    def test_array_equals_float_calls_bit_for_bit(self):
        # Unsorted, with a repeat and a separation far past the guide.
        zs = np.concatenate([FIG4_GRID[::-1], [0.3, 0.3, 2.5, 1e7]])
        batch = reduced_zz_sum_direct(zs)
        assert isinstance(batch, np.ndarray) and batch.shape == zs.shape
        singles = [reduced_zz_sum_direct(float(z)) for z in zs]
        assert [v.hex() for v in batch.tolist()] == [v.hex() for v in singles]

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_bad_element_refused_as_its_float_is(self, bad):
        with pytest.raises(InputError) as alone:
            reduced_zz_sum_direct(bad)
        with pytest.raises(InputError) as batch:
            reduced_zz_sum_direct(np.array([0.5, bad, 0.2]))
        assert str(batch.value) == str(alone.value)

    def test_reproduce_fig4_is_one_split_batch(self, monkeypatch, capsys):
        # Every run takes the whole grid's splits in one kernel call, the
        # second too, although the first left them in the table.
        import wgdisp.coupling as coupling
        from wgdisp.cli import main
        sizes = []
        split = coupling._tm_split

        def counted(geom, k, rows, images, z):
            sizes.append(z.size)
            return split(geom, k, rows, images, z)

        monkeypatch.setattr(coupling, "_tm_split", counted)
        for _ in range(2):
            sizes.clear()
            assert main(["reproduce", "fig4"]) == 0
            assert sizes == [FIG4_GRID.size]
        capsys.readouterr()


class TestIntegralApproximation:
    def test_value_at_tenth(self):
        assert reduced_zz_sum_integral(0.1) \
            == pytest.approx(INTEGRAL_AT_01, rel=1e-12)

    def test_value_at_hundredth(self):
        assert reduced_zz_sum_integral(0.01) \
            == pytest.approx(2.5330295910584442e4, rel=1e-12)

    def test_agreement_improves_towards_zero(self):
        devs = []
        for z in (0.1, 0.05, 0.02, 0.01):
            direct = reduced_zz_sum_direct(z)
            devs.append(abs(direct / reduced_zz_sum_integral(z) - 1.0))
        assert all(d <= 0.05 for d in devs)
        assert all(a > b for a, b in zip(devs, devs[1:]))


class TestConsistencyWithCouplings:
    def test_reduced_sum_equals_coupling_mode_sum(self):
        # The reduced sum times 4 pi^2 / a^3 is the axial-axial TM mode
        # sum at the center of a square guide.
        from wgdisp.quadrature import f_tm_closed
        from wgdisp.waveguide import ModeIndex
        geom = Geometry(1.0, 1.0)
        center = geom.center()
        z = 0.6
        acc = 0.0
        for m in range(1, 26):
            for n in range(1, 26):
                acc += f_tm_closed(geom, ModeIndex("TM", m, n), "zz",
                                   center, center, z)
        reduced = reduced_zz_sum_direct(z)
        assert acc / (4.0 * math.pi ** 2) == pytest.approx(reduced, abs=1e-10)

    def test_even_parity_terms_vanish_at_center(self):
        from wgdisp.quadrature import f_tm_closed
        from wgdisp.waveguide import ModeIndex
        geom = Geometry(1.0, 1.0)
        center = geom.center()
        for m, n in ((2, 1), (1, 2), (2, 2), (4, 3)):
            val = f_tm_closed(geom, ModeIndex("TM", m, n), "zz",
                              center, center, 0.4)
            assert abs(val) < 1e-12

    def test_transverse_parity_sums_match_table(self):
        # Transverse components assemble to -1/(2 z^3) through the same
        # sum-to-integral route.
        geom = Geometry(1.0, 1.0)
        iso = DipoleSpecies.single(2 * math.pi / 100.0, (1, 1, 1))
        cfg = PairConfiguration(geom, geom.center(), geom.center(), 0.01,
                                iso, iso)
        ft = f_tensor(cfg, 2 * math.pi / 100.0, tail_tol=1e-4)
        assert 0.01 ** 3 * ft.tm_tensor[0, 0] == pytest.approx(-0.5, rel=0.05)


def _te_aggregate_xx(z_over_a, max_index, energy):
    """xx TE mode sum at the center of a square guide (a = 1).

    Center parity keeps m even (including 0) and n odd; the
    unit-normalized zero-index factor 1/2 and the contour factor -2 are
    included.
    """
    n = np.arange(1.0, max_index + 1, 2.0)
    total = 0.0
    for start in range(0, max_index + 1, 512):  # 256 rows of m at a time
        m = np.arange(start, min(start + 512, max_index + 1), 2.0)[:, None]
        k2 = m * m + n * n
        total += float(np.sum(np.where(m == 0, 0.5, 1.0) * (n * n / k2)
                              * k0(np.pi * z_over_a * np.sqrt(k2))))
    return -8.0 * energy * total


class TestTeNearField:
    def test_per_mode_expansion_accuracy(self):
        z_over_a = 0.01 / math.pi
        geom = Geometry(1.0, 1.0)
        mode = enumerate_modes(geom, 4.0)[0]
        assert mode.label() in ("TE01", "TE10")
        # Lowest mode has k_mn z = 0.01; frozen remainder 1.43e-4.
        x = cutoff_wavenumber(geom, mode) * z_over_a
        assert x == pytest.approx(0.01, rel=1e-14)
        diff = abs(bessel_k0(x) - k0_small_argument(x))
        assert diff == pytest.approx(1.4302851459114829e-4, rel=1e-5)

    def test_local_exponent_far_from_free_space(self):
        # The measured aggregate exponent is -2 (the per-mode logarithm
        # integrates away over the 2-D mode lattice); the load-bearing
        # claim is that it is far weaker than the 1/z^3 axial divergence.
        step = 1.12
        lo = _te_aggregate_xx(0.003 / step, 3000, 0.0628)
        hi = _te_aggregate_xx(0.003 * step, 3000, 0.0628)
        local_exponent = math.log(hi / lo) / (2.0 * math.log(step))
        assert local_exponent == pytest.approx(-2.0, abs=0.05)
        assert abs(local_exponent + 3.0) > 0.5

    def test_tm_dominates_te_energy_scale(self):
        # Isotropic contraction weighs each channel by sum_ij F_ij^2.
        geom = Geometry(1.0, 1.0)
        iso = DipoleSpecies.single(0.0628, (1, 1, 1))
        cfg = PairConfiguration(geom, geom.center(), geom.center(), 0.01,
                                iso, iso)
        ft = f_tensor(cfg, 0.0628, tail_tol=1e-4)
        assert np.sum(ft.tm_tensor ** 2) / np.sum(ft.te_tensor ** 2) >= 100.0


@pytest.mark.parametrize("fn", [reduced_zz_sum_direct, reduced_zz_sum_integral])
@pytest.mark.parametrize("z_over_a", [0.0, -1.0, math.nan, math.inf])
def test_refuses_nonpositive_or_nonfinite(fn, z_over_a):
    with pytest.raises(InputError):
        fn(z_over_a)
