import hashlib
import json
import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowosc import tables, verify
from shadowosc.algebra import Mat2C, max_diff
from shadowosc.classifier import CaseTag, classify
from shadowosc.cli import main
from shadowosc.errors import NonFinite, OutOfRange, UnknownIntegrator
from shadowosc.flow import continuous_state, discrete_orbit, flow_matrix, sample_times
from shadowosc.integrators import custom, euler, make, vp
from shadowosc.shadow import (
    CaseIIParams,
    Generator,
    ShadowHamiltonian,
    generators_for,
    hamiltonian_from_generator,
)
from shadowosc.verify import (
    check_coincidence,
    check_conservation,
    check_exponential,
    check_regime_map,
    full_suite,
    locate_vp_critical_tau,
    report_table,
    series_exp,
    taylor_exp,
)

from conftest import no_child_left


def branch_generator(r, m):
    return generators_for(r, [m]).generators[0]


def corrupt(g, eps=1e-3):
    z = g.matrix
    return Generator(Mat2C(z.e11 + eps, z.e12, z.e21, z.e22), g.branch, g.tau, g.case)


def coincidence(g, r, *args, **kwargs):
    """The coincidence report of the single generator g."""
    (report,) = check_coincidence([g], r, *args, **kwargs)
    return report


class TestSeriesExp:
    def test_matches_raw_series_at_small_scale(self):
        z = Mat2C(0.1, 0.4, -0.4, -0.1)
        assert max_diff(series_exp(z), taylor_exp(z, 40)) <= 1e-15

    def test_handles_large_branch_generators(self):
        r = euler(1.95)
        g = branch_generator(r, 3)
        assert g.matrix.max_abs() > 50.0
        assert max_diff(series_exp(g.matrix), r.as_mat2c()) <= 1e-9


class TestCheckExponential:
    @pytest.mark.parametrize("index", range(4))
    def test_nan_in_any_entry_fails(self, monkeypatch, index):
        r = euler(0.66)
        entries = list(r.as_mat2c().entries())
        entries[index] = complex(math.nan, 0.0)
        monkeypatch.setattr(verify, "series_exp", lambda z: Mat2C(*entries))
        report = check_exponential(branch_generator(r, 0), r)
        assert math.isnan(report.checks[0].residual)
        assert not report.checks[0].passed

    def test_trivial(self):
        ident = custom(1.0, 0.0, 0.0, 1.0, 1.0)
        g = branch_generator(ident, 0)
        report = check_exponential(g, ident)
        assert report.passed
        assert report.checks[0].residual == 0.0

    def test_euler_branch_zero(self):
        r = euler(1.0)
        assert check_exponential(branch_generator(r, 0), r).passed

    def test_negative_control(self):
        r = euler(1.0)
        report = check_exponential(corrupt(branch_generator(r, 0)), r)
        assert not report.passed
        assert report.checks[0].residual > 1e-4


class TestCheckCoincidence:
    @pytest.mark.parametrize("m", range(-2, 3))
    def test_euler_small_tau(self, m):
        r = euler(0.66)
        assert coincidence(branch_generator(r, m), r).passed

    def test_complex_hamiltonian_real_discrete_points(self):
        r = euler(3.0)
        assert coincidence(branch_generator(r, 0), r).passed

    def test_negative_control(self):
        r = euler(0.66)
        assert not coincidence(corrupt(branch_generator(r, 0)), r).passed

    def test_deterministic_under_seed(self):
        r = euler(0.9)
        g = branch_generator(r, 1)
        assert coincidence(g, r, seed=7) == coincidence(g, r, seed=7)

    def test_one_report_per_generator_in_order(self):
        r = euler(0.66)
        family = generators_for(r, range(-2, 3)).generators
        reports = check_coincidence(family, r, 3, 11)
        assert reports == tuple(coincidence(g, r, 3, 11) for g in family)
        assert [rep.subject for rep in reports] == [
            f"euler tau=0.66 m={m}" for m in range(-2, 3)]
        assert check_coincidence([], r) == ()

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_checked_before_any_work(self, trials):
        class Unread:
            def __iter__(self):
                raise AssertionError("generators read before trials was checked")

        with pytest.raises(ValueError, match="trials"):
            check_coincidence(Unread(), euler(0.66), trials)

    @pytest.mark.parametrize("eps", [100.0, 1e10, 1e308, -1e308])
    def test_flow_out_of_double_range_fails_with_inf(self, eps):
        r = euler(0.66)
        report = coincidence(corrupt(branch_generator(r, 0), eps), r, 2)
        assert report.checks[0].residual == math.inf
        assert not report.passed


class TestCheckConservation:
    def test_zero_hamiltonian_has_zero_drift(self):
        ident = custom(1.0, 0.0, 0.0, 1.0, 1.0)
        g = branch_generator(ident, 0)
        report = check_conservation(hamiltonian_from_generator(g), g)
        assert report.checks[0].residual == 0.0

    @pytest.mark.parametrize("name,tau,m", [("euler", 0.66, 1),
                                            ("velocity-verlet", 1.5, 0)])
    def test_bounded_flows(self, name, tau, m):
        r = make(name, tau)
        g = branch_generator(r, m)
        assert check_conservation(hamiltonian_from_generator(g), g).passed

    def test_negative_control(self):
        r = euler(0.66)
        g = corrupt(branch_generator(r, 1))
        z = g.matrix
        from shadowosc.shadow import ShadowHamiltonian

        h = ShadowHamiltonian(z.e12 / (2 * g.tau), -z.e21 / (2 * g.tau),
                              z.e11 / g.tau, g.tau, g.branch, g.case, False)
        assert not check_conservation(h, g).passed

    def test_flow_out_of_double_range_fails_with_inf(self):
        r = euler(0.66)
        g = branch_generator(r, 0)
        report = check_conservation(hamiltonian_from_generator(g), corrupt(g, 1e3), 2)
        assert report.checks[0].residual == math.inf
        assert not report.passed


def out_of_range_is_inf(residual):
    """The oracles' rule: a flow that leaves double range scores inf.

    Past double range cmath raises OverflowError, or ValueError once an
    overflowed intermediate meets another; a state gone NaN gives a NaN
    residual, which the wrapped loop returns as inf.
    """
    def checked(*args):
        try:
            return residual(*args)
        except (OverflowError, ValueError):
            return math.inf
    return checked


@out_of_range_is_inf
def reference_coincidence(g, r, trials, seed):
    """The coincidence residual from one continuous_state call per state.

    The distance after n steps is read over |E(t)|*|x_0| + n*|R|*|x_n|,
    E(t) = flow_matrix(g, t), |.| the largest entry modulus of a matrix and
    hypot(q, p) of a state; a zero distance is skipped.
    """
    rng = random.Random(seed)
    r_scale = r.as_mat2c().max_abs()
    worst = 0.0
    for _ in range(trials):
        q0 = rng.uniform(-2.0, 2.0)
        p0 = rng.uniform(-2.0, 2.0)
        for n, ref in enumerate(discrete_orbit(r, q0, p0, 20).states):
            deviation = continuous_state(g, q0, p0, ref.t).distance(ref)
            if deviation == 0.0:
                continue
            scale = (flow_matrix(g, ref.t).max_abs() * math.hypot(q0, p0)
                     + n * r_scale * math.hypot(abs(ref.q), abs(ref.p)))
            relative = deviation / scale
            if math.isnan(relative):
                return math.inf
            worst = max(worst, relative)
    return worst


@out_of_range_is_inf
def reference_conservation(h, g, trials, seed):
    """The conservation residual from one continuous_state call per state.

    The drift is read over sum|terms(t)| + ||H||*|x_0|**2
    + ||H||*|x_0|*|E(t)|*|x(t)|, with ||H|| = |c_pp| + |c_qq| + |c_pq| and
    |x| = |q| + |p|; a zero drift is skipped.
    """
    rng = random.Random(seed)
    h_norm = abs(h.c_pp) + abs(h.c_qq) + abs(h.c_pq)
    worst = 0.0
    for _ in range(trials):
        q0 = rng.uniform(-2.0, 2.0)
        p0 = rng.uniform(-2.0, 2.0)
        h0 = h.evaluate(q0, p0)
        x0 = abs(q0) + abs(p0)
        for t in sample_times(10.0 * g.tau, g.tau / 20.0):
            s = continuous_state(g, q0, p0, t)
            drift = abs(h.evaluate(s.q, s.p) - h0)
            if drift == 0.0:
                continue
            scale = (abs(h.c_pp * s.p * s.p) + abs(h.c_qq * s.q * s.q)
                     + abs(h.c_pq * s.p * s.q) + h_norm * x0 * x0
                     + h_norm * x0 * flow_matrix(g, t).max_abs() * (abs(s.q) + abs(s.p)))
            relative = drift / scale
            if math.isnan(relative):
                return math.inf
            worst = max(worst, relative)
    return worst


# diagonal shifts: none, the negative control's, and --perturb's out-of-range
# ones, whose flows go inf or NaN and score inf
shifts = st.sampled_from([0.0, 1e-3, -1e-9, 1e3, 1e300])


def _built_in(case):
    (name, tau), m, eps = case
    r = make(name, tau)
    g = branch_generator(r, m)
    return g if eps == 0.0 else corrupt(g, eps), r


def _edge(case):
    (r, m, preset), eps = case
    (g,) = generators_for(r, [m], preset).generators
    return g if eps == 0.0 else corrupt(g, eps), r


# (map, branch, preset) at the edges of the oracles' float and complex kernels
EDGES = [
    (make("double-euler", 4.0), 0, None),  # iii-a: delta = 0
    (make("double-euler", 4.8), 0, None),  # i-b: real propagators
    (make("double-euler", 4.8), 1, None),  # i-b: complex propagators
    *((custom(-1.0, 0.0, 0.0, -1.0, 1.0, label="-1*identity"), m, CaseIIParams.real_rotation())
      for m in range(-1, 2)),  # ii(-)
    *((custom(1.0, 0.0, 0.0, 1.0, 1.0, label="+1*identity"), m, CaseIIParams.default())
      for m in range(-1, 2)),  # ii(+)
]

entries = st.builds(complex, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
# (generator, map) pairs: built-in branches of every case, some with a
# shifted diagonal as full_suite's negative control and --perturb make them,
# the kernels' edges, and generic traceless generators checked against the
# Euler map of their tau
subjects = st.one_of(
    st.tuples(st.sampled_from([("euler", 0.66), ("euler", 3.0), ("velocity-verlet", 1.5),
                               ("position-verlet", 1.0), ("double-euler", 2.0),
                               ("double-euler", 4.0), ("double-euler", 4.8), ("vp", 5.0)]),
              st.integers(-2, 2), shifts).map(_built_in),
    st.tuples(st.sampled_from(EDGES), shifts).map(_edge),
    st.builds(lambda a, b, c, tau: (Generator(Mat2C(a, b, c, -a), 0, tau, CaseTag.IA),
                                    euler(tau)),
              entries, entries, entries, st.floats(0.05, 3.0)),
)


def bits(x):
    return struct.pack("<d", x)


class TestOraclesApplyOnePropagatorPerTime:
    """The hoisted oracles equal the per-state continuous_state loop bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(subjects, st.integers(1, 4), st.integers(0, 2 ** 32))
    def test_coincidence(self, subject, trials, seed):
        g, r = subject
        got = coincidence(g, r, trials, seed).checks[0].residual
        assert bits(got) == bits(reference_coincidence(g, r, trials, seed))

    @settings(max_examples=80, deadline=None)
    @given(subjects, st.integers(1, 3), st.integers(0, 2 ** 32))
    def test_conservation(self, subject, trials, seed):
        g, _ = subject
        z = g.matrix
        # read c_pq off the (possibly shifted) diagonal, as full_suite does
        h = hamiltonian_from_generator(Generator(Mat2C(z.e11, z.e12, z.e21, -z.e11),
                                                 g.branch, g.tau, g.case))
        h = ShadowHamiltonian(h.c_pp, h.c_qq, z.e11 / g.tau, h.tau, h.branch, h.case,
                              h.real_valued, h.rate)
        got = check_conservation(h, g, trials, seed).checks[0].residual
        assert bits(got) == bits(reference_conservation(h, g, trials, seed))


def _family(case):
    """A built-in map or a +-I scalar map with its preset, and its generators shifted by eps."""
    subject, eps = case
    if subject[0] == "scalar":
        sign, preset = subject[1:]
        r = custom(sign, 0.0, 0.0, sign, 1.0, label=f"{sign:+g}*identity")
        family = generators_for(r, range(-1, 2), preset).generators
    else:
        r = make(*subject)
        family = generators_for(r, range(-2, 3)).generators
    return [g if eps == 0.0 else corrupt(g, eps) for g in family], r


# every branch generator full_suite checks for one map, shifted as its
# negative control shifts them, and as --perturb shifts them out of range
families = st.tuples(
    st.sampled_from([("euler", 0.66), ("euler", 1.0), ("euler", 3.0), ("velocity-verlet", 1.5),
                     ("position-verlet", 1.0), ("double-euler", 2.0), ("double-euler", 4.0),
                     ("double-euler", 4.8), ("vp", 5.0),
                     ("scalar", 1.0, CaseIIParams.default()),
                     ("scalar", -1.0, CaseIIParams.real_rotation())]),
    st.sampled_from([0.0, 1e-3, -1e-9, 100.0, -1e308]),
).map(_family)


class TestBatchedCoincidence:
    """One set of reference orbits per map gives every generator its per-state residual."""

    @settings(max_examples=40, deadline=None)
    @given(families, st.integers(1, 4), st.integers(0, 2 ** 32))
    def test_each_residual_equals_per_state_loop(self, family, trials, seed):
        generators, r = family
        reports = check_coincidence(generators, r, trials, seed)
        assert len(reports) == len(generators)
        for g, report in zip(generators, reports):
            assert report.subject == f"{r.label} tau={r.tau:g} m={g.branch}"
            assert report.checks[0].name == "discrete/continuous coincidence"
            assert report.checks[0].tolerance == verify.BOUND
            assert bits(report.checks[0].residual) == bits(
                reference_coincidence(g, r, trials, seed))


class TestRegimeMap:
    def test_euler_small_grid(self):
        assert check_regime_map("euler", [0.5, 1.0, 1.9]).passed

    def test_double_euler_transitions(self):
        report = check_regime_map("double-euler", [2.0 * math.sqrt(2.0), 4.0, 4.5])
        assert report.passed

    def test_vp_critical_point(self):
        report = check_regime_map("vp", [])
        assert report.passed
        assert "2.47213595" in report.checks[0].name

    def test_unknown_name(self):
        with pytest.raises(UnknownIntegrator):
            check_regime_map("rk4", [1.0])


class TestVpCriticalTau:
    def test_bisection_hits_trace_minus_two(self):
        critical = locate_vp_critical_tau()
        assert 2.0 < critical < 3.0
        assert abs(vp(critical).trace() + 2.0) <= 1e-9
        assert classify(vp(critical))[0] is CaseTag.IIIB

    def test_rejects_bad_bracket(self):
        with pytest.raises(ValueError):
            locate_vp_critical_tau(0.5, 1.0)


class TestFullSuite:
    def test_default_run_passes(self):
        reports = full_suite(trials=5)
        failed = [r.subject for r in reports if not r.passed]
        assert failed == []

    def test_perturbation_is_detected(self):
        # every exp, trace, coincidence and conservation check fails, down to
        # a 1e-9 shift of each generator's diagonal
        for perturb in (1e-3, 1e-9):
            checks = [c for r in full_suite(trials=3, perturb=perturb)[5:] for c in r.checks]
            assert len(checks) == 2 * 42 + 42 + 5
            assert [c.name for c in checks if c.passed] == []

    def test_perturbed_generator_recomputes_its_log(self):
        # the shifted Z has other eigenvalues; inheriting the unperturbed log
        # would read its flow as the unperturbed one's
        g = generators_for(euler(0.66), [1]).generators[0]
        shifted = verify._perturbed(g, 1e-9)
        assert g.log is not None and shifted.log is None
        assert flow_matrix(shifted, g.tau) != flow_matrix(g, g.tau)

    def test_no_false_failures_over_seeds(self):
        # before the residuals were read against their rounding, about one
        # suite in five failed H conservation of flow<i-c> tau=3 m=0
        rng = random.Random(20261019)
        for seed in [rng.randrange(1, 1 << 30) for _ in range(60)]:
            failed = [(r.subject, c.name) for r in full_suite(seed=seed)
                      for c in r.checks if not c.passed]
            assert failed == [], seed

    def test_pinned_seed_passes(self, capsys):
        # read 8.04e-9 against an absolute 1e-9 before the error model
        assert main(["verify", "--seed", "726298983"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_seeded_runs_identical(self):
        assert full_suite(seed=7, trials=3) == full_suite(seed=7, trials=3)

    def test_subjects_and_checks_unchanged(self):
        reports = full_suite(trials=1)
        lines = [f"{r.subject}\t{c.name}" for r in reports for c in r.checks]
        # each generator's exponential report, then its coincidence report
        generator_reports = reports[5:-5]
        assert len(generator_reports) == 2 * 42
        for exp, coincidence in zip(generator_reports[::2], generator_reports[1::2]):
            assert exp.subject == coincidence.subject
            assert [c.name for c in exp.checks] == ["exp(Z)=R (series oracle)", "traceless Z"]
            assert [c.name for c in coincidence.checks] == ["discrete/continuous coincidence"]
        # digest of the 152 (subject, check name) lines before the oracles were batched
        assert len(lines) == 152
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "ecbb4259fd63386920f931fdcb84a4bf630bca55b18fd6fe125ee8ec40c0d4d6")

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_rejected_before_any_check(self, monkeypatch, trials):
        def unreachable(*args):
            raise AssertionError("a check ran")

        monkeypatch.setattr(verify, "check_regime_map", unreachable)
        monkeypatch.setattr(verify, "locate_vp_critical_tau", unreachable)
        with pytest.raises(ValueError, match="trials"):
            full_suite(trials=trials)

    @pytest.mark.parametrize("args", [
        {"seed": 7}, {"seed": 1729}, {"seed": 99, "trials": 1}, {"seed": 123456, "trials": 3},
        {"seed": 7, "perturb": 1e-3}, {"seed": 1729, "perturb": -1e-9},
        {"seed": 7, "perturb": 1e300}], ids=str)
    def test_split_suite_equals_one_pass(self, split_into, child_claims_first, args):
        split_into(1)
        single = full_suite(**args)
        split_into(2)
        assert tables.splits(20, 1)
        split = full_suite(**args)
        no_child_left()
        # as text: a perturbed exponential's residual may be NaN
        assert report_table(split) == report_table(single)
        assert (json.dumps([r.to_json_dict() for r in split])
                == json.dumps([r.to_json_dict() for r in single]))
        # the negative controls still fail
        assert all(r.passed for r in split) == ("perturb" not in args)

    def test_subject_failing_in_a_later_chunk_reads_as_one_pass(self, split_into,
                                                                child_claims_first,
                                                                monkeypatch):
        # every conservation case raises, in chunks 15 to 19: the first one's
        # error is raised, whichever process ran it
        def failing(h, g, trials, seed):
            raise OutOfRange(f"flow<{h.case}> tau={h.tau:g} m={h.branch} fails")

        monkeypatch.setattr(verify, "check_conservation", failing)
        for k in (1, 2):
            split_into(k)
            with pytest.raises(OutOfRange, match=r"^flow<i-a> tau=0.66 m=-1 fails$"):
                full_suite(trials=2)
            no_child_left()

    @pytest.mark.parametrize("perturb", [math.nan, math.inf, -math.inf])
    def test_non_finite_perturb_rejected_before_any_check(self, monkeypatch, perturb):
        def unreachable(*args):
            raise AssertionError("a check ran")

        monkeypatch.setattr(verify, "check_regime_map", unreachable)
        with pytest.raises(NonFinite):
            full_suite(perturb=perturb)
