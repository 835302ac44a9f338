import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from wgdisp.conventions import Conventions
from wgdisp.energy import DipoleSpecies, DipoleTransition, PairConfiguration
from wgdisp.errors import InputError
from wgdisp.fourth_order import (Diagram, _photon_integrals,
                                 closed_form_reference_energy,
                                 enumerate_diagrams, fourth_order_oracle,
                                 weighted_reference_energy)
from wgdisp.waveguide import Geometry, ModeIndex, TransversePoint, _cutoffs

SQ = Geometry(1.0, 1.0)
CENTER = SQ.center()
E100 = 2.0 * math.pi / 100.0
TM11 = [ModeIndex("TM", 1, 1)]

AXIAL = DipoleSpecies.single(E100, (0.0, 0.0, 1.0), "fixed-vector")
ISO = DipoleSpecies.single(E100, (1.0, 1.0, 1.0), "isotropic-average")


def _cfg(z=0.6, sp=AXIAL):
    return PairConfiguration(SQ, CENTER, CENTER, z, sp, sp)


def _cutoff(geom, mode):
    """k_mn of ``mode`` as the factor rows and the oracle take it."""
    return float(_cutoffs(geom, np.array([mode.m]), np.array([mode.n]))[0])


class TestDiagramGenerator:
    def test_twelve_orderings(self):
        diags = enumerate_diagrams()
        assert len(diags) == 12

    def test_new_list_on_every_call(self):
        # The oracle reads diagrams built once; what a caller does to its
        # list does not reach them.
        mine = enumerate_diagrams()
        mine.clear()
        first, second = enumerate_diagrams(), enumerate_diagrams()
        assert len(first) == 12 and first == second and first is not second
        value = fourth_order_oracle(_cfg(), TM11, diagrams="dominant")
        assert value.hex() == "-0x1.754a9553e61dep+1"

    def test_four_dominant(self):
        assert sum(d.is_dominant for d in enumerate_diagrams()) == 4

    def test_reference_denominators_present(self):
        # The two textbook orderings: middle state with both atoms
        # excited and no photons, and middle state with both photons in
        # flight and both atoms in the ground state.
        denoms = {d.denominators for d in enumerate_diagrams()}
        d_a = ((1, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 1))
        d_b = ((1, 0, 1, 0), (1, 1, 0, 0), (0, 1, 0, 1))
        assert d_a in denoms
        assert d_b in denoms

    def test_outer_denominators_single_photon_single_atom(self):
        for d in enumerate_diagrams():
            first, middle, last = d.denominators
            for outer in (first, last):
                assert outer[0] + outer[1] == 1
                assert outer[2] + outer[3] == 1

    def test_middle_denominator_families(self):
        mids = sorted(set(d.middle for d in enumerate_diagrams()))
        assert mids == [(0, 0, 1, 1), (1, 1, 0, 0), (1, 1, 1, 1)]
        counts = [sum(1 for d in enumerate_diagrams() if d.middle == m)
                  for m in mids]
        assert counts == [4, 4, 4]

    def test_each_photon_connects_both_atoms(self):
        for d in enumerate_diagrams():
            for emitter, absorber in d.photon_atoms.values():
                assert {emitter, absorber} == {1, 2}


def _split_quad(kmn, z, Ws, tau, weight, epsabs=1e-13):
    """2 int_0^w_max dw / kappa weight(w, kappa) e^{-z kappa}
    Re[e^{i w tau} / prod_r (W_r - i w)] by scipy's quad, with breakpoints
    at powers of two of the narrowest energy from 1/16 to 16 times it and
    at every half period of e^{i w tau}."""
    from scipy.integrate import quad
    w_max = kmn * math.sinh(math.acosh(1.0 + 46.0 / (kmn * z)))

    def integrand(w):
        kappa = math.hypot(kmn, w)
        lorentz = np.exp(1j * w * tau)
        for W in Ws:
            lorentz /= W - 1j * w
        return weight(w, kappa) * math.exp(-z * kappa) / kappa * lorentz.real

    points = [min(Ws) * 2.0 ** k for k in range(-4, 5)]
    if tau > 0.0:
        points += list(np.arange(1, math.ceil(w_max * tau / math.pi)) * math.pi / tau)
    points = sorted(p for p in points if p < w_max)
    value, _ = quad(integrand, 0.0, w_max, points=points, limit=len(points) + 200,
                    epsabs=epsabs, epsrel=1e-12)
    return 2.0 * value


class TestPhotonTable:
    def test_rotated_integral_matches_adaptive_quadrature(self):
        # Independent evaluation of the damped, denominator-weighted
        # photon integral on the rotated contour.
        from scipy.integrate import quad
        mode = ModeIndex("TM", 1, 1)
        kmn = math.pi * math.sqrt(2.0)
        z, W = 0.6, E100
        for tau in (0.0, 0.4, 2.0):
            table = _photon_integrals(_cutoff(SQ, mode), z, [(W,)], np.array([tau]), False)[0]

            def integrand(psi):
                w = kmn * math.sinh(psi)
                damp = math.exp(-kmn * z * math.cosh(psi))
                den = (np.exp(1j * w * tau) / (W - 1j * w)).real
                return damp * den

            ref, _ = quad(integrand, 0.0, math.acosh(1.0 + 46.0 / (kmn * z)),
                          limit=400, epsabs=1e-14, epsrel=1e-12)
            assert table[0, 0] == pytest.approx(2.0 * ref, rel=1e-9)

    def test_zero_energy_limit_reproduces_unweighted_lorentzian(self):
        # As the attached energy vanishes the weighted axial integral
        # approaches pi exp(-zeta)/k_mn.
        mode = ModeIndex("TM", 1, 1)
        kmn = math.pi * math.sqrt(2.0)
        z = 0.8
        table = _photon_integrals(_cutoff(SQ, mode), z, [(1e-7,)], np.array([0.0]), False)[0]
        expected = math.pi * math.exp(-kmn * z) / kmn
        assert table[0, 0] == pytest.approx(expected, rel=1e-5)

    WEIGHTS = {"r0": lambda w, kappa: 1.0, "r1": lambda w, kappa: kappa,
               "r2": lambda w, kappa: kappa * kappa, "rh": lambda w, kappa: -w * w}

    @pytest.mark.parametrize("energies", [(E100,), (E100, 2.0 * math.pi / 60.0)],
                             ids=["one-energy", "two-energies"])
    @pytest.mark.parametrize("polarization", ["TM", "TE"])
    def test_every_tau_matches_split_quadrature(self, polarization, energies):
        # The oracle-check geometry (z = 0.6a, k_mn = pi sqrt 2 / a): tau = 0 and
        # the 48-point Laguerre grid over 2 k_mn, as fourth_order_oracle
        # scales it when the middle denominator carries no energy, which
        # reaches tau = 19.5a, where the tail is nearly every node.
        mode = ModeIndex(polarization, 1, 1)
        kmn = math.pi * math.sqrt(2.0)
        z = 0.6
        lag_x = np.polynomial.laguerre.laggauss(48)[0]
        names = ("rh",) if polarization == "TE" else ("r0", "r1", "r2")
        for taus in (np.array([0.0]), lag_x / (2.0 * kmn)):
            table = _photon_integrals(_cutoff(SQ, mode), z, [energies], taus,
                                      polarization == "TE")[0]
            for column, name in enumerate(names):
                ref = np.array([_split_quad(kmn, z, energies, tau, self.WEIGHTS[name])
                                for tau in taus])
                err = np.max(np.abs(table[:, column] - ref))
                assert err <= 1e-10 * np.max(np.abs(ref)), (name, taus.size)

    @pytest.mark.parametrize("energies", [(E100,), (5.0,)], ids=["narrow", "wide"])
    @pytest.mark.parametrize("polarization", ["TM", "TE"])
    def test_tail_at_large_cutoff_times_separation(self, polarization, energies):
        # At k_mn z = 90 the damping e^{-z kappa} is nearly Gaussian in w over
        # |w| < k_mn, and much slower there than along the rays far out, so
        # each ray's rule is scaled by the decay rate at its start.
        kmn, z = 30.0, 3.0
        taus = np.polynomial.laguerre.laggauss(48)[0] / (2.0 * kmn)
        names = ("rh",) if polarization == "TE" else ("r0", "r1", "r2")
        table = _photon_integrals(kmn, z, [energies], taus, polarization == "TE")[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # quad's roundoff notes at epsabs = 0
            ref = np.array([[_split_quad(kmn, z, energies, tau, self.WEIGHTS[name], epsabs=0.0)
                             for name in names] for tau in taus])
        assert _relative(table, ref) <= 1e-13

    def test_table_evaluated_in_blocks(self):
        # The heaviest call of an oracle-check run: TM11 at z = 0.6a on the
        # 48-point grid over 2 k_mn, with the three sets of energies its
        # diagrams take: a head of 224 nodes, and a ray of 101 nodes for each
        # of 45 taus; its traced peak is about 0.8 MB.
        import tracemalloc
        kmn = math.pi * math.sqrt(2.0)
        taus = np.polynomial.laguerre.laggauss(48)[0] / (2.0 * kmn)
        sets = [(E100,), (E100, E100), ()]
        _photon_integrals(kmn, 0.6, sets, taus, False)
        tracemalloc.start()
        try:
            _photon_integrals(kmn, 0.6, sets, taus, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


GUIDE = Geometry(1.0, 0.8)
E60 = 2.0 * math.pi / 60.0
SHARED_MODES = [ModeIndex("TM", 1, 1), ModeIndex("TM", 2, 1), ModeIndex("TE", 1, 0),
                ModeIndex("TE", 1, 1)]


def _grid(mode, n_tau):
    """k_mn of ``mode`` in GUIDE and the n_tau-point Laguerre grid over 2 k_mn."""
    kmn = _cutoff(GUIDE, mode)
    return kmn, np.polynomial.laguerre.laggauss(n_tau)[0] / (2.0 * kmn)


def _relative(got, want):
    """Largest deviation per entry, relative to the entry's table scale (the
    largest |want| over the taus)."""
    return np.max(np.abs(got - want) / np.abs(want).max(axis=0))


class TestSharedMesh:
    """Tables that share a call share one head, from the narrowest energy of
    every set; each tau's tail is a ray of its own.  A set alone gets its own
    head, and with it another start for each ray (a set with no energy, the
    coarsest head, starts some rays at w = 0).  Both agree with the shared
    mesh to rounding, in the classes that tools/check_photon_table.py
    sweeps, on 48- and 96-point grids."""

    @pytest.mark.parametrize("n_tau", [48, 96])
    @pytest.mark.parametrize("z", [0.3, 0.6])
    @pytest.mark.parametrize("energies", [(E100,), (E100, E60)],
                             ids=["one-energy", "two-energies"])
    @pytest.mark.parametrize("mode", SHARED_MODES, ids=lambda mode: mode.label())
    def test_tau_alone_matches_grid(self, mode, energies, z, n_tau):
        # 2e-14 of the table scale, the bound the real-axis panel tails needed
        # (their shared tail grid depended on the largest tau); a ray depends
        # on its own tau alone, and the two now differ by at most 4.6e-15,
        # the rounding of the head's blocks.
        kmn, taus = _grid(mode, n_tau)
        te = mode.polarization == "TE"
        grid = _photon_integrals(kmn, z, [energies], taus, te)[0]
        alone = np.array([_photon_integrals(kmn, z, [energies], taus[i:i + 1], te)[0][0]
                          for i in range(n_tau)])
        assert _relative(alone, grid) <= 2e-14

    @pytest.mark.parametrize("n_tau", [48, 96])
    @pytest.mark.parametrize("z", [0.3, 0.6])
    @pytest.mark.parametrize("mode", SHARED_MODES, ids=lambda mode: mode.label())
    def test_set_alone_matches_batch(self, mode, z, n_tau):
        kmn, taus = _grid(mode, n_tau)
        te = mode.polarization == "TE"
        sets = [(E100,), (E100, E100), (), (E100, E60)]
        batch = _photon_integrals(kmn, z, sets, taus, te)
        for energies, batched in zip(sets, batch):
            alone = _photon_integrals(kmn, z, [energies], taus, te)[0]
            assert _relative(batched, alone) <= 1e-14, energies


class TestPanelTailFixture:
    """The tables of oracle-check's heaviest call, TM11 at z = 0.6a on both of
    its 48-point grids with the energy sets (E,), (E, E) and (), as the
    real-axis panel tails built them (tests/data/photon_tables_tm11.json;
    those were within 7.5e-15 of the scale of a 30-digit reference).  The
    ray tails must stay within 1e-14 of each table's scale, entry by entry."""

    FIXTURE = Path(__file__).with_name("data") / "photon_tables_tm11.json"

    def test_ray_tails_match_panel_tails(self):
        doc = json.loads(self.FIXTURE.read_text())
        kmn = float.fromhex(doc["kmn"])
        sets = [tuple(map(float.fromhex, energies)) for energies in doc["energies"]]
        assert kmn == _cutoff(SQ, TM11[0]) and sets == [(E100,), (E100, E100), ()]
        for grid in doc["grids"]:
            taus = np.array([float.fromhex(tau) for tau in grid["taus"]])
            tables = _photon_integrals(kmn, doc["z"], sets, taus, False)
            for table, want in zip(tables, grid["tables"]):
                want = np.array([[float.fromhex(v) for v in row] for row in want])
                assert _relative(table, want) <= 1e-14


class TestFrequencyMixingKernel:
    def test_schwinger_route_matches_brute_2d_quadrature(self):
        # Independent validation of the frequency-mixing denominator
        # machinery: the kernel
        #   J = iint dk dk' e^{i(k+k')z} / (w w' (w+E)(w+w')(w'+E))
        # is absolutely convergent and can be brute-forced with nested
        # cosine-weighted quadrature, bypassing both the Schwinger
        # parameter and the rotated contour.
        import warnings
        from scipy.integrate import quad

        kmn = math.pi * math.sqrt(2.0)
        z, energy = 0.6, E100

        def inner(k):
            om = math.hypot(k, kmn)

            def f(kp):
                omp = math.hypot(kp, kmn)
                return 1.0 / (om * omp * (om + energy) * (om + omp)
                              * (omp + energy))

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                val, _ = quad(f, 0, np.inf, weight="cos", wvar=z,
                              epsabs=1e-13, limit=200, limlst=100)
            return val

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            brute, _ = quad(inner, 0, np.inf, weight="cos", wvar=z,
                            epsabs=1e-12, limit=200, limlst=100)
        brute *= 4.0

        lam = 2.0 * kmn
        lag_x, lag_w = np.polynomial.laguerre.laggauss(48)
        table = _photon_integrals(_cutoff(SQ, ModeIndex("TM", 1, 1)), z, [(energy,)],
                                  lag_x / lam, False)[0]
        mach = float(np.sum(lag_w * np.exp(lag_x) * table[:, 0] ** 2) / lam)
        assert mach == pytest.approx(brute, rel=1e-8)


class TestOracle:
    def test_dominant_subset_reproduces_weighted_form(self):
        cfg = _cfg()
        dom = fourth_order_oracle(cfg, TM11, diagrams="dominant")
        ref = weighted_reference_energy(cfg, TM11)
        assert dom == pytest.approx(ref, rel=1e-7)

    def test_dominant_subset_two_modes(self):
        modes = [ModeIndex("TM", 1, 1), ModeIndex("TM", 3, 1)]
        cfg = _cfg()
        dom = fourth_order_oracle(cfg, modes, diagrams="dominant")
        ref = weighted_reference_energy(cfg, modes)
        assert dom == pytest.approx(ref, rel=1e-7)

    def test_dominant_subset_off_center_mixed_components(self):
        # Off-center points with a mixed transverse/axial dipole exercise
        # the sign structure of the odd cross couplings.
        from wgdisp.waveguide import TransversePoint
        sp = DipoleSpecies.single(E100, (0.7, 0.2, 1.0), "fixed-vector")
        cfg = PairConfiguration(SQ, TransversePoint(0.3, 0.62),
                                TransversePoint(0.55, 0.2), 0.6, sp, sp)
        modes = [ModeIndex("TM", 1, 1), ModeIndex("TM", 2, 1)]
        dom = fourth_order_oracle(cfg, modes, diagrams="dominant")
        ref = weighted_reference_energy(cfg, modes)
        assert dom == pytest.approx(ref, rel=1e-9)

    def test_full_sum_close_at_tight_confinement(self):
        cfg = _cfg()
        full = fourth_order_oracle(cfg, TM11, diagrams="all")
        closed = closed_form_reference_energy(cfg, TM11)
        assert abs(full - closed) / abs(full) <= 0.05

    def test_discrepancy_shrinks_with_wavelength(self):
        devs = []
        for lam in (10.0, 100.0, 1000.0):
            sp = DipoleSpecies.single(2.0 * math.pi / lam, (0, 0, 1.0),
                                      "fixed-vector")
            cfg = _cfg(sp=sp)
            full = fourth_order_oracle(cfg, TM11, diagrams="all")
            closed = closed_form_reference_energy(cfg, TM11)
            devs.append(abs(full - closed) / abs(full))
        assert devs[0] > devs[1] > devs[2]

    def test_tau_grid_converged(self, monkeypatch):
        import wgdisp.fourth_order as fo
        cfg = _cfg()
        monkeypatch.setattr(fo, "_N_TAU", 48)
        a = fourth_order_oracle(cfg, TM11, diagrams="all")
        monkeypatch.setattr(fo, "_N_TAU", 96)
        b = fourth_order_oracle(cfg, TM11, diagrams="all")
        assert a == pytest.approx(b, rel=1e-8)

    def test_isotropic_species_supported(self):
        cfg = PairConfiguration(SQ, CENTER, CENTER, 0.6, ISO, ISO)
        full = fourth_order_oracle(cfg, TM11, diagrams="all")
        closed = closed_form_reference_energy(cfg, TM11)
        assert abs(full - closed) / abs(full) <= 0.05

    def test_mode_cap_enforced(self):
        modes = [ModeIndex("TM", m, n) for m in (1, 2, 3) for n in (1, 2, 3)]
        with pytest.raises(InputError):
            fourth_order_oracle(_cfg(), modes)

    def test_attractive(self):
        assert fourth_order_oracle(_cfg(), TM11, diagrams="all") < 0.0

    @pytest.mark.parametrize("reference", [closed_form_reference_energy,
                                           weighted_reference_energy])
    def test_reference_over_no_mode_is_zero(self, reference):
        # An empty mode set is an empty batch of cases.
        assert reference(_cfg(), []) == 0.0


class TestGoldenValues:
    """Pinned values on an off-centre pair in a rectangular guide, with two
    levels at atom 1 (so the diagrams see E1 != E2) and a TE mode between
    two TM modes: the photon tables, their tensors and the level-pair
    assembly must keep them to 1e-13.  Their last bits are rounding noise
    of the quadratures, so they are not pinned bit for bit."""

    SPECIES1 = DipoleSpecies((DipoleTransition(2.0 * math.pi / 100.0, (0.3, 0.4, 1.0)),
                              DipoleTransition(2.0 * math.pi / 60.0, (1.0, 0.2, 0.5))),
                             "fixed-vector")
    SPECIES2 = DipoleSpecies.single(2.0 * math.pi / 80.0, (1.0, 1.0, 1.0))
    MODES = [ModeIndex("TM", 1, 1), ModeIndex("TE", 1, 0), ModeIndex("TM", 2, 1)]
    VALUES = {
        "oracle-consistent": {"dominant": -5.795726996742624,
                              "all": -5.989609020339344,
                              "closed": -6.0248928613521615,
                              "weighted": -5.796959797813196},
        "paper-literal": {"dominant": -5.8268814067903225,
                          "all": -5.990815987278593,
                          "closed": -3.778892037122964,
                          "weighted": -5.829401618223201},
    }

    def _config(self, convention):
        return PairConfiguration(Geometry(1.0, 0.8), TransversePoint(0.3, 0.5),
                                 TransversePoint(0.62, 0.21), 0.45, self.SPECIES1,
                                 self.SPECIES2,
                                 conventions=Conventions(convention))

    @pytest.mark.parametrize("convention", ["oracle-consistent", "paper-literal"])
    @pytest.mark.parametrize("diagrams", ["dominant", "all"])
    def test_fourth_order_oracle(self, convention, diagrams):
        value = fourth_order_oracle(self._config(convention), self.MODES,
                                    diagrams=diagrams)
        assert value == pytest.approx(self.VALUES[convention][diagrams], rel=1e-13)

    # The top eight modes of a whole report: 1 x 0.7 guide, p1 = (0.3, 0.2),
    # p2 = (0.62, 0.45), z = a, one isotropic level at lambda = 100a.
    REPORT_MODES = [ModeIndex(*mode) for mode in (
        ("TM", 1, 1), ("TM", 2, 1), ("TE", 1, 0), ("TM", 1, 2), ("TM", 3, 1),
        ("TM", 2, 2), ("TE", 0, 1), ("TE", 2, 0))]
    REPORT_VALUES = {"oracle-consistent": -0.0157599090106546,
                     "paper-literal": -0.01575471522851648}

    @pytest.mark.parametrize("convention", ["oracle-consistent", "paper-literal"])
    def test_whole_report_all_diagrams(self, convention):
        species = DipoleSpecies.single(2.0 * math.pi / 100.0, (1.0, 1.0, 1.0))
        config = PairConfiguration(Geometry(1.0, 0.7), TransversePoint(0.3, 0.2),
                                   TransversePoint(0.62, 0.45), 1.0, species, species,
                                   conventions=Conventions(convention))
        value = fourth_order_oracle(config, self.REPORT_MODES, diagrams="all")
        assert value == pytest.approx(self.REPORT_VALUES[convention], rel=1e-13)

    @pytest.mark.parametrize("convention", ["oracle-consistent", "paper-literal"])
    def test_reference_energies(self, convention):
        config = self._config(convention)
        expected = self.VALUES[convention]
        assert closed_form_reference_energy(config, self.MODES) == pytest.approx(
            expected["closed"], rel=1e-13)
        assert weighted_reference_energy(config, self.MODES) == pytest.approx(
            expected["weighted"], rel=1e-13)

    @pytest.mark.parametrize("reference, couplings", [
        (closed_form_reference_energy, "_closed_forms"),
        (weighted_reference_energy, "_quadratures")])
    def test_reference_energy_takes_one_batch(self, monkeypatch, reference, couplings):
        # Every mode of a call is one batch of cases, built once, and each of
        # the three levels evaluates the whole batch in one call.
        from wgdisp import fourth_order
        built, evaluated = [], []

        def spy(name, record):
            original = getattr(fourth_order, name)

            def wrapper(*args):
                record.append(args)
                return original(*args)
            monkeypatch.setattr(fourth_order, name, wrapper)

        spy("_mode_cases", built)
        spy(couplings, evaluated)
        reference(self._config("oracle-consistent"), self.MODES)
        assert [args[1] for args in built] == [self.MODES]
        assert len(evaluated) == 3
        assert all(args[1].k.size == 9 * len(self.MODES) for args in evaluated)


class TestPinnedBits:
    """Values pinned bit for bit: tau = 0 tables of one energy set have no
    tail, so they keep the head's operations exactly, and so does the
    dominant-diagram value of oracle-check's axial configuration, which
    reads only such tables."""

    def test_tau_zero_table(self):
        table = _photon_integrals(_cutoff(SQ, TM11[0]), 0.6, [(E100,)], np.array([0.0]),
                                  False)[0]
        assert [table[0, 0].hex(), table[0, 1].hex(), table[0, 2].hex()] == [
            "0x1.8aa482b11d251p-5", "0x1.b7ac9273db80bp-3", "0x1.ea1292476c31cp-1"]

    @pytest.mark.parametrize("convention", ["oracle-consistent", "paper-literal"])
    def test_oracle_check_dominant_value(self, convention):
        config = PairConfiguration(SQ, CENTER, CENTER, 0.6, AXIAL, AXIAL,
                                   conventions=Conventions(convention))
        value = fourth_order_oracle(config, TM11, diagrams="dominant")
        assert value.hex() == "-0x1.754a9553e61dep+1"


class TestLaguerreRule:
    def test_nodes_built_once_per_count(self, monkeypatch):
        # The Gauss-Laguerre rule depends on its point count alone: every
        # oracle call with the same _N_TAU shares one read-only pair of arrays.
        import wgdisp.fourth_order as fo
        calls = []
        laggauss = np.polynomial.laguerre.laggauss

        def counted(n):
            calls.append(n)
            return laggauss(n)

        monkeypatch.setattr(np.polynomial.laguerre, "laggauss", counted)
        monkeypatch.setattr(fo, "_N_TAU", 40)
        fo._laguerre_rule.cache_clear()
        try:
            first = fourth_order_oracle(_cfg(), TM11, diagrams="all")
            assert fourth_order_oracle(_cfg(), TM11, diagrams="all") == first
            assert calls == [40]
            nodes, weights = fo._laguerre_rule(40)
            assert not nodes.flags.writeable and not weights.flags.writeable
            want_nodes, want_weights = laggauss(40)
            assert nodes.tobytes() == want_nodes.tobytes()
            assert weights.tobytes() == want_weights.tobytes()
        finally:
            fo._laguerre_rule.cache_clear()
