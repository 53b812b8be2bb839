import cmath
import math
import statistics
import time

import numpy as np
import pytest
from oracles import normalize_round_robin, solve_for_triple, states_close

from trimoduli import concomitants as con
from trimoduli import form_problem as fp
from trimoduli import slocc_normalize as sn
from trimoduli.qutrit_state import (
    LocalTransform,
    State,
    apply_local,
    normal_form_state,
    random_local_transform,
    random_parameter_triple,
    random_state,
    reduced_density,
)

PRODUCT_111 = np.zeros((3, 3, 3), dtype=complex)
PRODUCT_111[0, 0, 0] = 1.0
W_STATE = np.zeros((3, 3, 3), dtype=complex)
W_STATE[0, 0, 1] = W_STATE[0, 1, 0] = W_STATE[1, 0, 0] = 1.0
# one point each of the 27-, 72- and 216-point strata
STRATUM_POINTS = ((0, 1, -1), (1, 0, 0), (1, 1, 0))
MACHINE_EPS = np.finfo(float).eps
MACHINE_TINY = np.finfo(float).tiny


def scrambled_normal_form(seed):
    t = random_parameter_triple(seed)
    g = random_local_transform(seed + 500)
    return apply_local(normal_form_state(t), g), t


class TestNormalizeSlocc:
    def test_normal_form_is_fixed_point(self):
        limit, trace = sn.normalize_slocc(normal_form_state((1, 1, -1)))
        assert trace.status == sn.CONVERGED
        assert len(trace.steps) == 1  # converged before any filter step
        assert states_close(limit, normal_form_state((1, 1, -1)), tol=1e-12)

    def test_scrambled_normal_form_converges(self):
        s, t = scrambled_normal_form(7)
        limit, trace = sn.normalize_slocc(s)
        assert trace.status == sn.CONVERGED
        norms = [st.norm_sq for st in trace.steps]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))
        for party in (1, 2, 3):
            rho = reduced_density(limit, party)
            dev = np.linalg.norm(rho - rho.trace() / 3 * np.eye(3), "fro") / rho.trace().real
            assert dev < 1e-10
        inv_in = con.invariants(s)
        inv_out = con.invariants(limit)
        for a, b in zip(inv_in[:3], inv_out[:3]):
            assert abs(a - b) <= 1e-6 * max(abs(a), 1e-12)

    def test_limit_norm_not_larger(self):
        s, _ = scrambled_normal_form(8)
        limit, _ = sn.normalize_slocc(s)
        assert limit.norm_sq <= s.norm_sq * (1 + 1e-12)

    def test_product_state_unstable(self):
        limit, trace = sn.normalize_slocc(State(PRODUCT_111))
        assert trace.status == sn.UNSTABLE
        assert math.sqrt(limit.norm_sq) < 1e-12
        assert len(trace.steps) == 1

    def test_determinism(self):
        s, _ = scrambled_normal_form(9)
        limit1, trace1 = sn.normalize_slocc(s)
        limit2, trace2 = sn.normalize_slocc(s)
        assert states_close(limit1, limit2, tol=0.0)
        assert [st.norm_sq for st in trace1.steps] == [st.norm_sq for st in trace2.steps]

    def test_limit_is_fixed_point_of_another_sweep(self):
        s, _ = scrambled_normal_form(10)
        limit, _ = sn.normalize_slocc(s)
        again, trace = sn.normalize_slocc(limit)
        assert trace.status == sn.CONVERGED
        assert len(trace.steps) == 1

    def test_non_fixed_point_needs_steps(self):
        s = random_state(11)
        _, trace = sn.normalize_slocc(s)
        assert len(trace.steps) > 1

    def test_max_iterations_status(self):
        s = random_state(12)
        _, trace = sn.normalize_slocc(s, tol=1e-10, max_iter=2)
        assert trace.status == sn.MAX_ITERATIONS

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            sn.normalize_slocc(State(np.zeros((3, 3, 3), dtype=complex)))

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError):
            sn.normalize_slocc(random_state(1), tol=0.0)

    def test_scrambled_distinguished_point(self):
        # g . N(1,1,-1): the classic maximal-dimension orbit representative
        g = random_local_transform(18)
        s = apply_local(normal_form_state((1, 1, -1)), g)
        inv_in = con.invariants(s)
        limit, trace = sn.normalize_slocc(s)
        assert trace.status == sn.CONVERGED
        assert limit.norm_sq <= s.norm_sq * (1 + 1e-12)
        inv_out = con.invariants(limit)
        for a, b in ((inv_in.i6, inv_out.i6), (inv_in.i12, inv_out.i12)):
            assert abs(a - b) <= 1e-6 * abs(a)
        sol = fp.solve(fp.FormProblemInput(inv_in.i6, inv_in.i12, inv_in.i18,
                                           i9=inv_in.i9))
        assert sn.verify_vinberg(limit, sol)["ok"]


def _expm_hermitian(h):
    w, v = np.linalg.eigh(h)
    return (v * np.exp(w)) @ v.conj().T


def _kempf_ness(s, x):
    """log ||(exp X1 x exp X2 x exp X3) psi||^2 for X_p = sum_a x[p, a] lambda_a."""
    mats = [_expm_hermitian(np.einsum("a,aij->ij", xp, sn.GELL_MANN)) for xp in x.reshape(3, 8)]
    return math.log(apply_local(s, LocalTransform(*mats)).norm_sq)


def _corpus_states(seed, n):
    """The first n scrambled normal forms of the benchmark's normal-form
    corpus: parameters from the fixed PCG64 stream [0, 3], transforms from
    the stream [seed, 3], each state scaled to unit norm."""
    params = np.random.Generator(np.random.PCG64([0, 3]))
    transforms = np.random.Generator(np.random.PCG64([seed, 3]))
    out = []
    for _ in range(n):
        triple = random_parameter_triple(int(params.integers(0, 2**31)))
        g = random_local_transform(int(transforms.integers(0, 2**31)))
        s = apply_local(normal_form_state(triple), g)
        out.append(s.scaled(1.0 / math.sqrt(s.norm_sq)))
    return out


class TestNewtonIteration:
    def test_round_robin_reaches_the_same_minimal_norm(self):
        # Kempf-Ness: the minimal norm on an orbit is unique, so the first-order
        # round-robin filter and the Newton steps must agree on it
        for seed in range(20):
            s, _ = scrambled_normal_form(3000 + seed)
            reference, _, converged = normalize_round_robin(s)
            assert converged, seed
            limit, trace = sn.normalize_slocc(s)
            assert trace.status == sn.CONVERGED, seed
            assert abs(limit.norm_sq - reference.norm_sq) <= 1e-9 * reference.norm_sq, seed

    def test_gradient_and_hessian_match_finite_differences(self):
        rng = np.random.default_rng(5)
        h = 1e-4
        for seed in (1, 2, 3):
            s = random_state(seed)
            grad, hess = sn._derivatives(s.amplitudes)
            f0 = _kempf_ness(s, np.zeros(24))
            for _ in range(4):
                d, e = rng.standard_normal((2, 24))
                fd1 = (_kempf_ness(s, h * d) - _kempf_ness(s, -h * d)) / (2 * h)
                assert abs(fd1 - grad @ d) <= 1e-6 * max(1.0, abs(grad @ d))
                fd2 = (_kempf_ness(s, h * d) - 2 * f0 + _kempf_ness(s, -h * d)) / h ** 2
                assert abs(fd2 - d @ hess @ d) <= 1e-5 * max(1.0, abs(d @ hess @ d))
                mixed = (_kempf_ness(s, h * (d + e)) - _kempf_ness(s, h * (d - e))
                         - _kempf_ness(s, h * (e - d)) + _kempf_ness(s, -h * (d + e))) / (4 * h * h)
                assert abs(mixed - d @ hess @ e) <= 1e-5 * max(1.0, abs(d @ hess @ e))

    def test_step_counts_and_limits(self):
        states = [random_state(seed) for seed in range(200)] + _corpus_states(11, 96)
        steps = []
        for s in states:
            limit, trace = sn.normalize_slocc(s)
            assert trace.status == sn.CONVERGED
            steps.append(len(trace.steps) - 1)
            inv = con.invariants(s)
            sol = fp.solve(fp.FormProblemInput(inv.i6, inv.i12, inv.i18, i9=inv.i9))
            assert sn.verify_vinberg(limit, sol)["ok"]
        assert statistics.median(steps) <= 30
        assert max(steps) <= 100

    def test_full_newton_steps_near_the_minimum(self):
        # close to the minimum the Armijo test drowns in the rounding of log N;
        # taking the full step there keeps the convergence quadratic
        for seed in range(40):
            _, trace = sn.normalize_slocc(random_state(seed), tol=1e-13, max_iter=60)
            assert trace.status == sn.CONVERGED
            devs = [st.max_rel_deviation for st in trace.steps]
            near = next(k for k, dev in enumerate(devs) if dev < 1e-4)
            assert len(devs) - 1 - near <= 3, seed

    def test_gradient_fallback_when_newton_fails(self, monkeypatch):
        def no_direction(a, b, rcond=None):
            return np.full_like(b, np.nan), None, None, None

        s, _ = scrambled_normal_form(23)
        # both routes of the Newton system give no direction
        monkeypatch.setattr(sn.np.linalg, "lstsq", no_direction)
        monkeypatch.setattr(sn.np.linalg, "solve", lambda a, b: no_direction(a, b)[0])
        _, trace = sn.normalize_slocc(s, max_iter=5)
        assert trace.floor_events == [1, 2, 3, 4, 5]
        norms = [st.norm_sq for st in trace.steps]
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_newton_system_route(self, monkeypatch):
        # a solve wherever the Cholesky factor shows a well-conditioned Hessian,
        # least squares elsewhere: on every step of a generic state, and only
        # on the ill-conditioned steps next to W
        routes = []
        for name in ("solve", "lstsq"):
            def spy(hess, grad, _real=getattr(np.linalg, name), _name=name, **kw):
                routes.append((_name, hess))
                return _real(hess, grad, **kw)
            monkeypatch.setattr(sn.np.linalg, name, spy)
        _, trace = sn.normalize_slocc(random_state(3))
        assert [name for name, _ in routes] == ["solve"] * (len(trace.steps) - 1)
        for k in range(3):
            routes.clear()
            a = W_STATE + 1e-12 * random_state(k).amplitudes
            _, trace = sn.normalize_slocc(State(a))
            assert trace.status == sn.CONVERGED
            assert "lstsq" in [name for name, _ in routes], k
            for name, hess in routes:
                try:
                    diag = np.diagonal(np.linalg.cholesky(hess))
                    well = (diag.min() / diag.max()) ** 2 >= sn.CHOLESKY_MIN_RATIO
                except np.linalg.LinAlgError:
                    well = False
                assert well == (name == "solve"), k

    def test_least_squares_route_agrees(self, monkeypatch):
        # with the Cholesky route shut, least squares takes every step: the
        # same steps and fallbacks, and the same limit within rounding
        states = [random_state(seed) for seed in range(40)]
        default = [sn.normalize_slocc(s) for s in states]

        def not_positive_definite(hess):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(sn.np.linalg, "cholesky", not_positive_definite)
        for seed, (s, (limit, trace)) in enumerate(zip(states, default)):
            oracle, oracle_trace = sn.normalize_slocc(s)
            assert len(oracle_trace.steps) == len(trace.steps), seed
            assert oracle_trace.floor_events == trace.floor_events, seed
            scale = np.max(np.abs(oracle.amplitudes))
            assert np.max(np.abs(limit.amplitudes - oracle.amplitudes)) <= 1e-12 * scale, seed

    @pytest.mark.parametrize("base", [W_STATE, PRODUCT_111], ids=["w", "product"])
    def test_converges_next_to_the_null_cone(self, base):
        # next to W the Hessian's condition number reaches 1e16 and the least
        # squares Newton direction loses the gradient; the gradient fallback
        # keeps each of these stable states converging
        for k in (1, 2, 5):
            for d in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
                a = base + d * random_state(k).amplitudes
                s = State(a / np.linalg.norm(a))
                limit, trace = sn.normalize_slocc(s, max_iter=40)
                assert trace.status == sn.CONVERGED, (k, d)
                i6 = con.invariants(s).i6
                assert abs(con.invariants(limit).i6 - i6) <= 1e-12 * abs(i6), (k, d)

    @pytest.mark.parametrize("k", [-664, -532, -100, -40, 0, 40, 100, 532, 664])
    def test_scale_by_power_of_two(self, k):
        for s in (scrambled_normal_form(21)[0], apply_local(State(W_STATE), random_local_transform(22))):
            limit, trace = sn.normalize_slocc(s)
            scaled_limit, scaled_trace = sn.normalize_slocc(s.scaled(2.0 ** k))
            assert scaled_trace.status == trace.status
            assert len(scaled_trace.steps) == len(trace.steps)
            assert np.array_equal(scaled_limit.amplitudes, limit.amplitudes * 2.0 ** k)
            # the input's invariants, scaled back from the trace, are bit for
            # bit those computed on the input wherever the latter are finite
            # and clear of the subnormal range, whose rounding the scaled-back
            # values do not share; where the input's overflow, they raise
            try:
                want = con.invariants(s.scaled(2.0 ** k))
            except OverflowError:
                want = None
            if want is None or not all(map(cmath.isfinite, want)):
                with pytest.raises(OverflowError):
                    scaled_trace.input_invariants()
                continue
            for g, w in zip(scaled_trace.input_invariants(), want):
                if abs(w) >= MACHINE_TINY * 2.0 ** 53:
                    assert g == w, (k, g, w)


class TestNullCone:
    def test_null_cone_states_stop_at_once(self):
        rng = np.random.default_rng(31)
        legs = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        float_product = State(np.einsum("i,j,k->ijk", *legs))
        states = [State(PRODUCT_111), State(W_STATE)]
        for base in (State(W_STATE), float_product):
            states += [apply_local(base, random_local_transform(700 + i)) for i in range(50)]
        sn.normalize_slocc(states[0])  # warm
        for s in states:
            start = time.perf_counter()
            limit, trace = sn.normalize_slocc(s)
            elapsed = time.perf_counter() - start
            assert trace.status == sn.UNSTABLE
            assert len(trace.steps) == 1
            assert not np.any(limit.amplitudes)
            assert elapsed < 0.05

    def test_invariant_bounds_are_sound(self):
        # the rounding error of I6, I9, I12 against the closed formulas stays
        # within eps times the forward bound, on degenerate strata and generic
        # states scrambled by det-1 transforms
        rng = np.random.default_rng(41)
        triples = []
        for point in STRATUM_POINTS:
            for _ in range(40):
                z = complex(*rng.standard_normal(2))
                triples.append(tuple(z * c for c in point))
        triples += [random_parameter_triple(4100 + i) for i in range(40)]
        for n, triple in enumerate(triples):
            s = apply_local(normal_form_state(triple), random_local_transform(4200 + n))
            inv = con.invariants(s)
            cv = con.c_formulas(*(complex(c) for c in triple))
            bounds = con.invariant_bounds(s.amplitudes)
            for got, want, bound in zip((inv.i6, inv.i9, inv.i12), (cv.c6, cv.c9, cv.c12), bounds):
                assert abs(got - want) <= MACHINE_EPS * bound, (n, got, want, bound)
            # off the null cone, some invariant stands far above its bound
            assert max(abs(v) / (MACHINE_EPS * b) for v, b in
                       zip((inv.i6, inv.i9, inv.i12), bounds)) > 1e4 * con.NULL_CONE_ULPS, n


class TestVerifyVinberg:
    def test_positive(self):
        s, t = scrambled_normal_form(14)
        limit, _ = sn.normalize_slocc(s)
        inv = con.invariants(s)
        sol = fp.solve(fp.FormProblemInput(inv.i6, inv.i12, inv.i18, i9=inv.i9))
        report = sn.verify_vinberg(limit, sol)
        assert report["ok"]
        assert report["norm_rel_error"] < 1e-5
        assert report["candidate_count"] == 648
        # the original parameters appear among the candidates
        assert min(max(abs(a - b) for a, b in zip(tr, t)) for tr in sol.triples) < 1e-6

    def test_negative_control(self):
        s, _ = scrambled_normal_form(15)
        limit, _ = sn.normalize_slocc(s)
        other = con.invariants(random_state(999))
        wrong = fp.solve(fp.FormProblemInput(other.i6, other.i12, other.i18, i9=other.i9))
        report = sn.verify_vinberg(limit, wrong)
        assert not report["ok"]

    def test_already_normal(self):
        t = random_parameter_triple(16)
        s = normal_form_state(t)
        limit, trace = sn.normalize_slocc(s)
        assert trace.status == sn.CONVERGED
        sol = solve_for_triple(t)
        report = sn.verify_vinberg(limit, sol)
        assert report["ok"]

    def test_empty_candidates(self):
        s, _ = scrambled_normal_form(17)
        limit, _ = sn.normalize_slocc(s)
        report = sn.verify_vinberg(limit, [])
        assert not report["ok"]
