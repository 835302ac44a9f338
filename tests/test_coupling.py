"""Closed-form couplings against the wavenumber-integral oracle.

Frozen values computed with mpmath at 40 digits.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import mode_tensors
from wgdisp.conventions import Conventions
from wgdisp.coupling import ORIENTATIONS
from wgdisp.energy import ModeTable
from wgdisp.errors import InputError, QuadratureError, TightConfinementWarning
from wgdisp.quadrature import (_CASE_NODES, _REL_TOL, SCHEMES, _case_batch, _closed_forms,
                               _kernel_integrals, _quadratures, f_quadrature, f_te_closed,
                               f_tm_closed)
from wgdisp.waveguide import Geometry, ModeIndex, TransversePoint

SQ = Geometry(1.0, 1.0)
CENTER = SQ.center()
TM11 = ModeIndex("TM", 1, 1)
TE10 = ModeIndex("TE", 1, 0)

TM11_ZZ_CENTER_Z1 = 0.6566821187788882
TE10_YY_PAPER = 1.1803473452268697e-3
TE10_YY_DERIVATION = -2.3606946904537394e-3

# Closed-form values of an earlier implementation of this package (its own
# K0: ascending series below 2, trapezoid rule above; cutoffs from
# math.hypot), in a 1 x 0.7 guide at p1 = (0.31, 0.22), p2 = (0.68, 0.41),
# TE at E = 0.0628.  The one-mode views of the factor rows moved such values
# by at most 1.5e-14 relative over 9,000 random cases per polarization (an
# ulp of k_mn scaled by k_mn z); the stated tolerance is CLOSED_FORM_TOL.
CLOSED_FORM_TOL = 1e-13
CLOSED_FORM_FROZEN = [  # (mode, orientation, z, convention bundle, value)
    (("TE", 1, 0), "yy", 0.05, "oracle-consistent", -0.4975077030605675),
    (("TE", 0, 1), "xx", 0.4, "paper-literal", 0.042384473223851325),
    (("TE", 2, 1), "xy", 0.9, "oracle-consistent", -3.200483614244671e-05),
    (("TE", 1, 3), "yx", 0.25, "paper-literal", -0.00010016308852500555),
    (("TE", 3, 2), "yy", 1.7, "oracle-consistent", -2.2627629567676096e-13),
    (("TE", 2, 0), "yy", 2.5, "oracle-consistent", 1.4276814303236094e-08),
    (("TM", 2, 1), "xy", 0.3, "paper-literal", 0.10817266900669568),
    (("TM", 1, 3), "yx", 0.45, "paper-literal", -0.0003544659948238439),
    (("TM", 3, 2), "xz", 0.8, "oracle-consistent", 0.0005192188825321425),
    (("TM", 2, 5), "zy", 1.3, "oracle-consistent", -1.170436112813242e-12),
]


def _kernel(kind, weighted, u_e, zeta, scheme="branch-cut-rotated"):
    """One kernel integral of a class and its error."""
    value, err = _kernel_integrals(kind, weighted, np.array([u_e]), np.array([zeta]), scheme)
    return value[0], err[0]


def _rand_point(rng, geom):
    return TransversePoint(rng.uniform(0.05, 0.95) * geom.a,
                           rng.uniform(0.05, 0.95) * geom.b)


class TestTmClosed:
    def test_zz_center_value(self):
        v = f_tm_closed(SQ, TM11, "zz", CENTER, CENTER, 1.0)
        assert v == pytest.approx(TM11_ZZ_CENTER_Z1, rel=1e-14)

    def test_zz_vanishes_on_wall(self):
        p = TransversePoint(0.0, 0.3)
        assert f_tm_closed(SQ, ModeIndex("TM", 2, 3), "zz", p, p, 0.7) == 0.0

    def test_xy_vanishes_at_center(self):
        # cos(pi/2) is ~6e-17 in floating point, not exactly zero.
        assert abs(f_tm_closed(SQ, TM11, "xy", CENTER, CENTER, 1.0)) < 1e-30

    def test_xx_vanishes_at_center(self):
        assert abs(f_tm_closed(SQ, TM11, "xx", CENTER, CENTER, 1.0)) < 1e-30

    def test_rejects_nonpositive_z(self):
        with pytest.raises(InputError):
            f_tm_closed(SQ, TM11, "zz", CENTER, CENTER, 0.0)

    def test_rejects_te_mode(self):
        with pytest.raises(InputError):
            f_tm_closed(SQ, TE10, "zz", CENTER, CENTER, 1.0)

    def test_paper_literal_flips_transverse_sign(self):
        p = TransversePoint(0.2, 0.3)
        oracle = f_tm_closed(SQ, TM11, "xx", p, p, 0.5, Conventions())
        lit = f_tm_closed(SQ, TM11, "xx", p, p, 0.5, Conventions("paper-literal"))
        assert lit == pytest.approx(-oracle, rel=1e-14)

    def test_paper_literal_xy_prefactor(self):
        # Printed double-angle form for coincident points.
        p = TransversePoint(0.23, 0.41)
        mode = ModeIndex("TM", 2, 1)
        kmn = math.pi * math.sqrt(5.0)
        expected = -(math.pi ** 2 / (2.0 * kmn)) \
            * math.sin(2 * 2 * math.pi * p.x) * math.sin(2 * math.pi * p.y) \
            * math.exp(-kmn * 0.6)
        got = f_tm_closed(SQ, mode, "xy", p, p, 0.6, Conventions("paper-literal"))
        assert got == pytest.approx(expected, rel=1e-12)

    @given(z1=st.floats(0.2, 1.0), dz=st.floats(0.1, 1.0),
           m=st.integers(1, 3), n=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_exponential_decay_law(self, z1, dz, m, n):
        mode = ModeIndex("TM", m, n)
        kmn = math.hypot(m * math.pi, n * math.pi)
        p = TransversePoint(0.3, 0.8)
        q = TransversePoint(0.6, 0.2)
        f1 = f_tm_closed(SQ, mode, "zz", p, q, z1)
        f2 = f_tm_closed(SQ, mode, "zz", p, q, z1 + dz)
        assert math.log(abs(f2)) - math.log(abs(f1)) \
            == pytest.approx(-kmn * dz, abs=1e-9)

    @given(m=st.integers(1, 3), n=st.integers(1, 3),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_index_point_exchange_relations(self, m, n, data):
        # In-plane pairs are symmetric under (swap indices, swap points);
        # pairs mixing an axial index are antisymmetric (the integrand is
        # odd in the axial wavenumber).
        mode = ModeIndex("TM", m, n)
        x1 = data.draw(st.floats(0.05, 0.95))
        y1 = data.draw(st.floats(0.05, 0.95))
        x2 = data.draw(st.floats(0.05, 0.95))
        y2 = data.draw(st.floats(0.05, 0.95))
        p1, p2 = TransversePoint(x1, y1), TransversePoint(x2, y2)
        z = 0.8
        for o12, o21, sign in (("xy", "yx", 1.0), ("xx", "xx", 1.0),
                               ("zz", "zz", 1.0), ("xz", "zx", -1.0),
                               ("yz", "zy", -1.0)):
            a = f_tm_closed(SQ, mode, o12, p1, p2, z)
            b = f_tm_closed(SQ, mode, o21, p2, p1, z)
            assert a == pytest.approx(sign * b, rel=1e-12, abs=1e-15)


class TestTeClosed:
    def test_te10_xx_is_zero(self):
        v = f_te_closed(SQ, TE10, "xx", CENTER, CENTER, 1.0, 0.01)
        assert v == 0.0

    def test_axial_orientations_zero(self):
        for orient in ("xz", "zx", "zy", "zz"):
            v = f_te_closed(SQ, TE10, orient, CENTER, CENTER, 1.0, 0.01)
            assert v == 0.0

    def test_yy_paper_literal_value(self):
        v = f_te_closed(SQ, TE10, "yy", CENTER, CENTER, 1.0, 0.01,
                        Conventions("paper-literal"))
        assert v == pytest.approx(TE10_YY_PAPER, rel=1e-12)

    def test_yy_derivation_consistent_value(self):
        # The factor -2 with the unit-normalized profiles, which halve the
        # printed TE10 product.
        v = f_te_closed(SQ, TE10, "yy", CENTER, CENTER, 1.0, 0.01, Conventions())
        assert v == pytest.approx(TE10_YY_DERIVATION / 2.0, rel=1e-12)

    def test_warns_outside_tight_confinement(self):
        with pytest.warns(TightConfinementWarning):
            f_te_closed(SQ, TE10, "yy", CENTER, CENTER, 1.0, 0.5)

    def test_rejects_bad_energy(self):
        with pytest.raises(InputError):
            f_te_closed(SQ, TE10, "yy", CENTER, CENTER, 1.0, -0.1)


class TestOneModeViews:
    """The closed forms are one-mode views of the mode-table factor rows."""

    @pytest.mark.parametrize("convention", ["oracle-consistent", "paper-literal"])
    @pytest.mark.parametrize("b, p1, p2", [
        (0.7, (0.31, 0.22), (0.68, 0.41)),
        (1.6, (0.12, 1.05), (0.83, 0.3)),
        (1.0, (0.5, 0.5), (0.5, 0.5)),   # centred: many exact zeros
        (1.0, (0.0, 0.37), (0.5, 0.5)),  # p1 on a wall
    ])
    def test_equal_mode_table_entries_bitwise(self, convention, b, p1, p2):
        geom = Geometry(1.0, b)
        p1, p2 = TransversePoint(*p1), TransversePoint(*p2)
        conv = Conventions(convention)
        z, energy, K = 0.37, 0.0628, 20.0
        table = ModeTable(geom, p1, p2)
        table.extend(K)
        pol, ms, ns, tensors = mode_tensors(table, table.counts(K), z, energy, conv)
        assert set(pol.tolist()) == {"TM", "TE"}
        modes = map(ModeIndex, pol.tolist(), ms.tolist(), ns.tolist())
        for mode, tensor in zip(modes, np.moveaxis(tensors, 2, 0)):
            # An exact zero prints as 0.0, never as -0.0.
            assert not np.signbit(tensor[tensor == 0.0]).any(), mode
            for orient in ORIENTATIONS:
                want = tensor["xyz".index(orient[0]), "xyz".index(orient[1])]
                if mode.polarization == "TM":
                    got = f_tm_closed(geom, mode, orient, p1, p2, z, conv)
                else:
                    got = f_te_closed(geom, mode, orient, p1, p2, z, energy, conv)
                assert np.float64(got).tobytes() == want.tobytes(), (mode, orient)

    @pytest.mark.parametrize("mode, orient, z, convention, value",
                             CLOSED_FORM_FROZEN)
    def test_earlier_values_within_tolerance(self, mode, orient, z, convention,
                                             value):
        geom = Geometry(1.0, 0.7)
        p1, p2 = TransversePoint(0.31, 0.22), TransversePoint(0.68, 0.41)
        conv = Conventions(convention)
        mode = ModeIndex(*mode)
        if mode.polarization == "TM":
            got = f_tm_closed(geom, mode, orient, p1, p2, z, conv)
        else:
            got = f_te_closed(geom, mode, orient, p1, p2, z, 0.0628, conv)
        assert got == pytest.approx(value, rel=CLOSED_FORM_TOL, abs=0.0)


class TestQuadratureOracle:
    def test_tm_closed_matches_quadrature_randomized(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for comp in ("zz", "xx", "yy", "xy", "xz", "yz"):
            for _ in range(20):
                m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
                mode = ModeIndex("TM", m, n)
                kmn = math.hypot(m * math.pi, n * math.pi)
                p1, p2 = _rand_point(rng, SQ), _rand_point(rng, SQ)
                z = rng.uniform(0.5, 8.0) / kmn
                cl = f_tm_closed(SQ, mode, comp, p1, p2, z)
                qd = f_quadrature(SQ, mode, comp, p1, p2, z)
                if qd != 0.0:
                    worst = max(worst, abs(cl - qd) / abs(qd))
        assert worst <= 1e-6

    def test_te_closed_matches_quadrature_randomized(self):
        rng = np.random.default_rng(2025)
        energy = 2.0 * math.pi / 100.0
        worst = 0.0
        for _ in range(20):
            mn = [(1, 0), (0, 1), (1, 1), (2, 1)][int(rng.integers(0, 4))]
            mode = ModeIndex("TE", *mn)
            kmn = math.hypot(mn[0] * math.pi, mn[1] * math.pi)
            p1, p2 = _rand_point(rng, SQ), _rand_point(rng, SQ)
            z = rng.uniform(0.5, 8.0) / kmn
            for comp in ("xx", "xy", "yx", "yy"):
                cl = f_te_closed(SQ, mode, comp, p1, p2, z, energy)
                qd = f_quadrature(SQ, mode, comp, p1, p2, z, energy=energy)
                if qd != 0.0:
                    worst = max(worst, abs(cl - qd) / abs(qd))
        assert worst <= 1e-6

    def test_schemes_agree(self):
        rng = np.random.default_rng(11)
        bc, ra = "branch-cut-rotated", "real-axis-subtracted"
        worst = 0.0
        for _ in range(10):
            m, n = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            mode = ModeIndex("TM", m, n)
            kmn = math.hypot(m * math.pi, n * math.pi)
            p1, p2 = _rand_point(rng, SQ), _rand_point(rng, SQ)
            z = rng.uniform(0.5, 7.0) / kmn
            for comp in ("zz", "xx", "xz"):
                a = f_quadrature(SQ, mode, comp, p1, p2, z, scheme=bc)
                b = f_quadrature(SQ, mode, comp, p1, p2, z, scheme=ra)
                if b != 0.0:
                    worst = max(worst, abs(a - b) / abs(b))
        assert worst <= 10.0 * _REL_TOL

    def test_te_no_weight_is_exactly_zero(self):
        v = f_quadrature(SQ, TE10, "yy", CENTER, CENTER, 0.7)
        assert v == 0.0

    def test_uncertifiable_tolerance_raises_with_best_estimate(self):
        # Far down the exponential tail the cancellation floor of double
        # precision exceeds the requested relative tolerance; the oracle
        # must refuse rather than silently return, carrying its best
        # estimate.
        from wgdisp.errors import QuadratureError
        p = TransversePoint(0.3, 0.4)
        mode = ModeIndex("TM", 3, 3)
        kmn = math.hypot(3 * math.pi, 3 * math.pi)
        z = 25.0 / kmn
        with pytest.raises(QuadratureError) as err:
            f_quadrature(SQ, mode, "zz", p, p, z)
        truth = f_tm_closed(SQ, mode, "zz", p, p, z)
        assert err.value.best_estimate == pytest.approx(truth, rel=1e-4)
        assert err.value.achieved_error > 0.0

    def test_lorentzian_kernel_short_distance_limit(self):
        val, _ = _kernel("zz", False, 0.0, 1e-8)
        assert val == pytest.approx(math.pi, rel=1e-7)

    def test_weighted_converges_to_unweighted(self):
        base, _ = _kernel("zz", False, 0.0, 2.0)
        prev = None
        for u_e in (1e-3, 1e-4):
            w, _ = _kernel("zz", True, u_e, 2.0)
            rel = abs(w - base) / abs(base)
            assert rel < 2.0 * u_e
            assert rel > 0.1 * u_e
            if prev is not None:
                assert rel < prev
            prev = rel

    def test_te_branch_cut_matches_bessel_form(self):
        # Both evaluation paths must agree with -2 u_e K0(zeta) times the
        # profile product and the wavenumber scale.
        from wgdisp.bessel import bessel_k0
        energy = 0.01 * math.pi  # u_e = 0.01 at the lowest TE cutoff
        zeta = 3.0
        z = zeta / math.pi
        qd = f_quadrature(SQ, TE10, "yy", CENTER, CENTER, z, energy=energy,
                          scheme="branch-cut-rotated")
        e_y2 = 2.0  # unit-normalized profile squared at the center
        expected = -2.0 * (energy / math.pi) * bessel_k0(zeta) * e_y2 * math.pi
        assert qd == pytest.approx(expected, rel=1e-6)



def _quadpack(f, split=None, **weight):
    """scipy's QUADPACK integral_0^inf f and its error estimate, as the
    integrals up to ``split`` and beyond it where a split is given.

    A Fourier integral is QAWO over its first four periods plus QAWF beyond:
    QAWF from 0 misses the odd weighted kernel (twice a sine transform) near
    zeta = 0.5 by 0.0235 while reporting an error near 1e-13 (zeta = 0.5 with
    u_e = 3/32, zeta = 0.55 with u_e = 1e-3)."""
    from scipy.integrate import quad
    options = {"epsabs": 1e-15, "epsrel": 1e-12, "limit": 400}
    tail_options = {}
    with warnings.catch_warnings():  # QUADPACK's roundoff notices
        warnings.simplefilter("ignore")
        if weight:
            split, tail_options = 8.0 * math.pi / weight["wvar"], {"limlst": 400}
        elif split is None:
            return quad(f, 0.0, np.inf, **options)
        head, head_err = quad(f, 0.0, split, **options, **weight)
        tail, tail_err = quad(f, split, np.inf, **tail_options, **options, **weight)
        return head + tail, head_err + tail_err


def _quadpack_kernel(kind, u_e, zeta, scheme):
    """A kernel integral of the oracle by QUADPACK on the same contour: QAWF
    on the real axis, QAGI along the 45-degree ray or the TE cut.

    The ray integral is split at t = 40 / zeta, where its decay factor is
    e^{-28}: QAGI over the whole ray misses the weighted zz kernel at
    zeta = 2.6875, u_e = 0.0103 by 1.2e-13 while reporting 5.8e-14, and
    split it is within 1e-16 of an mpmath sum."""
    rot = complex(math.cos(math.pi / 4.0), math.sin(math.pi / 4.0))

    def g(u):
        if not u_e:
            den = u * u + 1.0
            return {"zz": 1.0 / den, "odd": u / den, "tt": -1.0 / den}[kind]
        om = np.sqrt(u * u + 1.0)
        den = om * (om + u_e)
        return {"zz": 1.0 / den, "odd": u / den, "tt": -(1.0 + om * u_e) / den}[kind]

    real_axis = scheme == "real-axis-subtracted"
    if kind == "te":
        if real_axis:
            value, err = _quadpack(lambda u: 1.0 / math.sqrt(u * u + 1.0),
                                   weight="cos", wvar=zeta)
        else:
            value, err = _quadpack(lambda v: 2.0 * math.exp(-zeta * (1.0 + v * v))
                                   / math.sqrt(v * v + 2.0))
        return -2.0 * u_e * value, 2.0 * u_e * err
    if real_axis:
        value, err = _quadpack(g, weight="sin" if kind == "odd" else "cos", wvar=zeta)
    else:
        part = (lambda w: w.imag) if kind == "odd" else (lambda w: w.real)
        value, err = _quadpack(lambda t: part(rot * g(rot * t) * np.exp(1j * zeta * rot * t)),
                               split=40.0 / zeta)
    return 2.0 * value, 2.0 * err


class TestDoubleExponentialRules:
    """The kernel integrals' double-exponential rules against QUADPACK."""

    @given(kind=st.sampled_from(["zz", "tt", "odd", "te"]), weighted=st.booleans(),
           scheme=st.sampled_from(SCHEMES), zeta=st.floats(0.5, 8.0),
           u_e=st.floats(1e-4, 0.1))
    @example(kind="zz", weighted=True, scheme="branch-cut-rotated", zeta=2.6875,
             u_e=0.010329621394685268)
    @settings(max_examples=200, deadline=None)
    def test_agree_with_quadpack_within_both_errors(self, kind, weighted, scheme,
                                                    zeta, u_e):
        # TE kernels always carry the weight; zx is the odd class with sign +.
        weighted = weighted or kind == "te"
        u_e = u_e if weighted else 0.0
        value, err = _kernel(kind, weighted, u_e, zeta, scheme)
        want, want_err = _quadpack_kernel(kind, u_e, zeta, scheme)
        assert abs(value - want) <= err + want_err
        # zeta <= 8 lies inside the range the default tolerance certifies.
        assert err <= _REL_TOL * abs(value)


_BATCH_MODES = [("TM", m, n) for m in (1, 2, 3) for n in (1, 2, 3)] + [
    ("TE", 1, 0), ("TE", 0, 1), ("TE", 1, 1), ("TE", 2, 1), ("TE", 0, 2)]


def _bits(value):
    """The bits of a value, or the message and figures of its error."""
    if isinstance(value, QuadratureError):
        return ("error", value.best_estimate, value.achieved_error)
    return np.float64(value).tobytes()


def _batch_bits(geom, cases, energies, scheme, conventions):
    """:func:`_bits` of each value of one batch of ``cases`` (tuples as
    :func:`_batch_cases` draws them), with the figures of an uncertified one."""
    values, errors, uncertified = (row[0] for row in _quadratures(
        geom, _record(geom, cases), energies, [scheme], conventions))
    return [("error", value, error) if bad else _bits(value)
            for value, error, bad in zip(values.tolist(), errors.tolist(), uncertified)]


def _record(geom, cases):
    """The batch record of (orient, mode, p1, p2, z) cases."""
    orients, modes, p1, p2, z = zip(*cases)

    def points(ps):
        return TransversePoint(np.array([p.x for p in ps]), np.array([p.y for p in ps]))

    return _case_batch(geom, np.array([mode.polarization == "TE" for mode in modes]),
                       np.array([mode.m for mode in modes]), np.array([mode.n for mode in modes]),
                       points(p1), points(p2), np.array(z), orients)


@st.composite
def _batch_cases(draw, geom):
    """(orient, mode, p1, p2, z) cases with k_mn z in [0.5, 8], ends included."""
    size = draw(st.sampled_from([1, 2, 7, 40]))
    cases = []
    for _ in range(size):
        mode = ModeIndex(*draw(st.sampled_from(_BATCH_MODES)))
        kmn = math.hypot(mode.m * math.pi / geom.a, mode.n * math.pi / geom.b)
        points = [TransversePoint(draw(st.floats(0.0, 1.0)) * geom.a,
                                  draw(st.floats(0.0, 1.0)) * geom.b) for _ in range(2)]
        zeta = draw(st.one_of(st.sampled_from([0.5, 8.0]), st.floats(0.5, 8.0)))
        cases.append((draw(st.sampled_from(ORIENTATIONS)), mode, *points, zeta / kmn))
    return cases


# f_quadrature values of the per-case code before batching, as float.hex,
# in the order of TestBatchedOracle.test_values_pinned_bitwise: both schemes,
# seven mode/orientation pairs, six k_mn z each, in a 1 x 0.8 guide.  A
# batch must keep their last bits (numpy's complex division of the ray's
# rotation, for one, moves two of them).
QUADRATURE_BITS = [
    "0x1.82ed5bbdb8c0ap+4", "0x1.e7a795cff7c0dp+2", "0x1.2735161f3e62ep+1",
    "0x1.04ebe7312be22p+0", "0x1.ac7d5f1f5b678p-3", "0x1.e421d7543cfc6p-7",
    "-0x1.700be35453945p+2", "-0x1.d1507ad056fa7p+0", "-0x1.18cd5fcfd4b0dp-1",
    "-0x1.f45f3dfc98283p-3", "-0x1.9794b4534f8f1p-5", "-0x1.d5ddfe760eac5p-9",
    "0x1.8b4b26b8b4866p+3", "0x1.f3df960585c07p+1", "0x1.2d972ca3250bep+0",
    "0x1.0cfe614c31718p-1", "0x1.b5c13aba0f30fp-4", "0x1.fa8ad3a84e79ep-8",
    "-0x1.bf33cc6206cd3p+0", "-0x1.1aa6761686825p-1", "-0x1.5531ca9ff0a6cp-3",
    "-0x1.305c7782fe50bp-4", "-0x1.ef3d4d8d5039cp-7", "-0x1.1f4ac23642e79p-10",
    "0x1.434cb57d161f1p-1", "0x1.98b06c967560ep-3", "0x1.ed53371a167ecp-5",
    "0x1.b81df28b05b85p-6", "0x1.66070b65c0871p-8", "0x1.9f89429c9659bp-12",
    "-0x1.6b38d5395bcd2p-4", "-0x1.7ab3a210e3055p-7", "-0x1.0bc57a93964b0p-8",
    "-0x1.65ac4d484575ap-9", "-0x1.2411be6e194b6p-12", "-0x1.065f1232d263ap-14",
    "-0x1.23e0b55c52cbdp-5", "-0x1.3051222f8b3a0p-8", "-0x1.ae59ea85e9e72p-10",
    "-0x1.1f6b32e3b1f63p-10", "-0x1.d566df17cbde3p-14", "-0x1.a5ac2ac085250p-16",
    "0x1.82ed5bbdb8c0ap+4", "0x1.e7a795cff7c0cp+2", "0x1.2735161f3e62fp+1",
    "0x1.04ebe7312be25p+0", "0x1.ac7d5f1f5b6bcp-3", "0x1.e421d7543d531p-7",
    "-0x1.700be35453945p+2", "-0x1.d1507ad056fa8p+0", "-0x1.18cd5fcfd4b0ep-1",
    "-0x1.f45f3dfc98289p-3", "-0x1.9794b4534f932p-5", "-0x1.d5ddfe760f1e9p-9",
    "0x1.8b4b26b8b4866p+3", "0x1.f3df960585c07p+1", "0x1.2d972ca3250bfp+0",
    "0x1.0cfe614c3171bp-1", "0x1.b5c13aba0f355p-4", "0x1.fa8ad3a84ee1cp-8",
    "-0x1.bf33cc6206cd4p+0", "-0x1.1aa6761686826p-1", "-0x1.5531ca9ff0a70p-3",
    "-0x1.305c7782fe509p-4", "-0x1.ef3d4d8d503edp-7", "-0x1.1f4ac23642daep-10",
    "0x1.434cb57d161f2p-1", "0x1.98b06c967560ep-3", "0x1.ed53371a167f1p-5",
    "0x1.b81df28b05b7bp-6", "0x1.66070b65c08acp-8", "0x1.9f89429c96791p-12",
    "-0x1.6b38d5395bcd2p-4", "-0x1.7ab3a210e304fp-7", "-0x1.0bc57a93964afp-8",
    "-0x1.65ac4d4845743p-9", "-0x1.2411be6e1948ep-12", "-0x1.065f1232d1de3p-14",
    "-0x1.23e0b55c52cbdp-5", "-0x1.3051222f8b3a0p-8", "-0x1.ae59ea85e9e71p-10",
    "-0x1.1f6b32e3b1f5ap-10", "-0x1.d566df17cbda3p-14", "-0x1.a5ac2ac0844e8p-16",
]


class TestBatchedOracle:
    """The batched integrals and closed forms equal one-case calls bit for
    bit, whatever cases share a batch."""

    @given(data=st.data(), b=st.sampled_from([1.0, 0.7]),
           scheme=st.sampled_from(SCHEMES), weighted=st.booleans(),
           convention=st.sampled_from(["oracle-consistent", "paper-literal"]),
           energy=st.floats(1e-3, 0.3))
    @settings(max_examples=80, deadline=None)
    def test_batch_equals_one_case_calls(self, data, b, scheme, weighted, convention,
                                         energy):
        geom = Geometry(1.0, b)
        cases = data.draw(_batch_cases(geom))
        conv = Conventions(convention)
        got = _batch_bits(geom, cases, [energy if weighted else 0.0] * len(cases), scheme, conv)
        closed = _closed_forms(geom, _record(geom, cases), energy, conv)
        for value, shut, (orient, mode, p1, p2, z) in zip(got, closed, cases):
            try:
                want = f_quadrature(geom, mode, orient, p1, p2, z,
                                    energy=energy if weighted else None, scheme=scheme,
                                    conventions=conv)
            except QuadratureError as exc:
                want = exc
            assert value == _bits(want), (orient, mode, z)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TightConfinementWarning)
                one = (f_tm_closed(geom, mode, orient, p1, p2, z, conv)
                       if mode.polarization == "TM" else
                       f_te_closed(geom, mode, orient, p1, p2, z, energy, conv))
            assert _bits(shut) == _bits(one), (orient, mode, z)

    @pytest.mark.parametrize("convention", ["oracle-consistent", "paper-literal"])
    def test_one_case_calls_equal_an_oracle_check_batch(self, convention):
        # Each of the 200 cases of oracle-check's default report: its
        # f_quadrature under either scheme and its closed form equal its
        # entries in the one batch the report takes.
        from wgdisp.oracle_checks import _draw_cases
        geom, energy = Geometry(1.0, 1.0), 2.0 * math.pi / 100.0
        conv = Conventions(convention)
        drawn = _draw_cases(np.random.default_rng(12345), geom, 20)
        values, _, uncertified = _quadratures(geom, drawn, np.where(drawn.te, energy, 0.0),
                                              SCHEMES, conv)
        closed = _closed_forms(geom, drawn, energy, conv)
        assert drawn.z.size == 200 and not uncertified.any()
        for c in range(drawn.z.size):
            mode = ModeIndex("TE" if drawn.te[c] else "TM", int(drawn.m[c]), int(drawn.n[c]))
            orient = ORIENTATIONS[3 * drawn.i[c] + drawn.j[c]]
            p1, p2 = (TransversePoint(float(p.x[c]), float(p.y[c])) for p in (drawn.p1, drawn.p2))
            z = float(drawn.z[c])
            for scheme, value in zip(SCHEMES, values[:, c].tolist()):
                one = f_quadrature(geom, mode, orient, p1, p2, z,
                                   energy=energy if drawn.te[c] else None, scheme=scheme,
                                   conventions=conv)
                assert one.hex() == value.hex(), (c, scheme)
            one = (f_te_closed(geom, mode, orient, p1, p2, z, energy, conv) if drawn.te[c] else
                   f_tm_closed(geom, mode, orient, p1, p2, z, conv))
            assert one.hex() == float(closed[c]).hex(), c

    def test_values_pinned_bitwise(self):
        geom = Geometry(1.0, 0.8)
        p1, p2 = TransversePoint(0.31, 0.22), TransversePoint(0.68, 0.41)
        got = []
        for scheme in SCHEMES:
            for label, orient in (("TM11", "zz"), ("TM21", "xx"), ("TM12", "yx"), ("TM22", "xz"),
                                  ("TM31", "zy"), ("TE10", "yy"), ("TE11", "xy")):
                mode = ModeIndex(label[:2], int(label[2]), int(label[3]))
                kmn = math.hypot(mode.m * math.pi / geom.a, mode.n * math.pi / geom.b)
                for zeta, energy in ((0.55, 0.0), (1.7, 0.02), (2.9, 0.0), (3.7, 0.05),
                                     (5.3, 0.0), (7.9, 0.11)):
                    energy = energy or (0.03 if mode.polarization == "TE" else 0.0)
                    got.append(f_quadrature(geom, mode, orient, p1, p2, zeta / kmn,
                                            energy=energy or None, scheme=scheme).hex())
        assert got == QUADRATURE_BITS

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("kind, weighted", [
        ("zz", False), ("tt", False), ("odd", False),
        ("zz", True), ("tt", True), ("odd", True), ("te", True)])
    def test_kernels_over_several_blocks(self, scheme, kind, weighted):
        rng = np.random.default_rng(7)
        size = 3 * _CASE_NODES // 300 + 3  # several passes of about 300 nodes
        zeta = np.r_[0.5, 8.0, rng.uniform(0.5, 8.0, size - 2)]
        u_e = rng.uniform(1e-4, 0.1, size) if weighted else np.zeros(size)
        values, errors = _kernel_integrals(kind, weighted, u_e, zeta, scheme)
        for c in range(size):
            one = _kernel(kind, weighted, u_e[c], zeta[c], scheme)
            assert (values[c].tobytes(), errors[c].tobytes()) == \
                (one[0].tobytes(), one[1].tobytes())


class TestConventions:
    def test_bundles(self):
        assert Conventions("paper-literal").printed
        assert not Conventions("oracle-consistent").printed
        assert Conventions() == Conventions("oracle-consistent")
        assert Conventions().choices == {"tm_sign": "oracle-consistent",
                                         "te_factor": "derivation-consistent",
                                         "normalization": "unit-normalized"}
        assert Conventions("paper-literal").choices == dict.fromkeys(
            ("tm_sign", "te_factor", "normalization"), "paper-literal")
        # Only the two bundle names: no field's own choice, nothing else.
        for name in ("bogus", "unit-normalized", "derivation-consistent", "Paper-Literal", ""):
            with pytest.raises(InputError, match="unknown convention bundle"):
                Conventions(name)

    def test_spec_validation(self):
        with pytest.raises(InputError):
            f_quadrature(SQ, TM11, "zz", CENTER, CENTER, 1.0, scheme="imaginary")
