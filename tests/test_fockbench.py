import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply
from scipy.special import gammaln, jv

from mesoweyl import fockbench, specfun, twomode, verify
from mesoweyl.exceptions import TruncationError
from mesoweyl.states import (
    CoherentState,
    ModeParams,
    NumberState,
    SqueezedState,
    ThermalState,
    TwoModeFactorizable,
    TwoModeProductSuperposition,
    TwoModeSeparableMixture,
    matched_states,
    number_displacement_element,
)


def test_density_number_state():
    rho = fockbench.density_matrix(NumberState(2), 8)
    expect = np.zeros((8, 8), dtype=complex)
    expect[2, 2] = 1.0
    assert np.allclose(rho, expect, atol=0.0)


def test_density_coherent_diagonal_is_poisson():
    rho = fockbench.density_matrix(CoherentState(1.0 + 0j), 64)
    for n in range(12):
        assert rho[n, n].real == pytest.approx(math.exp(-1.0) / math.factorial(n), rel=1e-12)


def test_density_thermal_geometric():
    rho = fockbench.density_matrix(ThermalState(1.0), 64)
    ratio = rho[5, 5].real / rho[4, 4].real
    assert ratio == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "state",
    [
        NumberState(3),
        CoherentState(1.2 - 0.4j),
        SqueezedState(0.6 + 0.2j, 1.4, 0.9),
        ThermalState(0.8),
    ],
)
def test_density_matrices_hermitian_normalized_positive(state):
    dim = 160
    rho = fockbench.density_matrix(state, dim)
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
    assert fockbench.trace_deficit(rho) <= 1e-10
    eigs = np.linalg.eigvalsh(rho)
    assert eigs.min() >= -1e-10


def test_displacement_zero_is_identity():
    assert np.array_equal(fockbench.displacement_matrix(0j, 6), np.eye(6))


def test_displacement_vacuum_element():
    for z in (0.4 + 0.2j, -1.1j, 2.0):
        d = fockbench.displacement_matrix(z, 32)
        assert d[0, 0] == pytest.approx(math.exp(-abs(z) ** 2 / 2.0), rel=1e-13)


@pytest.mark.parametrize("z", [0.5, 0.8 + 0.6j, -1.5j, 2.0 * cmath.exp(0.3j)])
def test_displacement_inverse_and_unitarity(z):
    dim = 256
    d = fockbench.displacement_matrix(z, dim)
    dm = fockbench.displacement_matrix(-z, dim)
    inner = slice(0, 128)  # top rows/columns feel the truncation edge
    prod = (d @ dm)[inner, inner]
    assert np.max(np.abs(prod - np.eye(128))) <= 1e-8
    col_norms = np.linalg.norm(d[:, inner], axis=0)
    assert np.max(np.abs(col_norms - 1.0)) <= 1e-8


def test_displacement_matches_expm_and_closed_form():
    dim = 48
    z = 0.7 - 0.3j
    a = fockbench.ladder(dim).toarray()
    ref = expm(z * a.conj().T - z.conjugate() * a)
    d = fockbench.displacement_matrix(z, dim)
    inner = slice(0, 24)
    assert np.max(np.abs((d - ref)[inner, inner])) <= 1e-10
    for m, n in ((0, 0), (3, 1), (1, 4), (7, 7)):
        assert d[m, n] == pytest.approx(number_displacement_element(m, z, n), abs=1e-13)


def test_weyl_numeric_basics():
    assert fockbench.weyl_numeric(NumberState(1), 0j) == pytest.approx(1.0)
    val = fockbench.weyl_numeric(NumberState(1), cmath.exp(0.7j))
    assert abs(val) <= 1e-10
    for z in (0.5, 1.5j, 2.5 * cmath.exp(1.1j)):
        assert abs(fockbench.weyl_numeric(CoherentState(0.9j), z)) <= 1.0 + 1e-12


def test_weyl_numeric_pure_path_equals_dense_trace():
    state = SqueezedState(0.5, 1.0, 0.3)
    z = 0.8 * cmath.exp(0.5j)
    dim = 96
    vec = fockbench.state_vector(state, dim)
    rho = np.outer(vec, vec.conj())
    dense = fockbench.expectation(rho, fockbench.displacement_matrix(z, dim))
    fast, _ = fockbench._weyl_value(state, z, dim)
    assert abs(dense - fast) <= 1e-10


ARRAY_STATES = [
    NumberState(3),
    CoherentState(1.2 - 0.4j),
    SqueezedState(0.6 + 0.2j, 1.4, 0.9),
    ThermalState(0.8),
]


def _z_array():
    """A 2-D z array: every radius (z = 0 among them) at every angle
    (negative ones among them), each point twice."""
    radii = np.array([0.0, 0.3, 1.1, 2.5])
    angles = np.array([-2.9, -0.4, 0.0, 1.2, 3.1])
    z = radii[:, None] * np.exp(1j * angles)
    return np.vstack([z, z[::-1]])


@pytest.mark.parametrize("state", ARRAY_STATES)
def test_weyl_value_on_an_array_equals_the_dense_trace(state):
    dim = 96
    z = _z_array()
    rho = fockbench.density_matrix(state, dim)
    vals, _ = fockbench._weyl_value(state, z, dim)
    assert vals.shape == z.shape
    for w, point in zip(vals.ravel().tolist(), z.ravel().tolist()):
        dense = fockbench.expectation(rho, fockbench.displacement_matrix(point, dim))
        assert abs(w - dense) <= 1e-12


def test_weyl_numeric_keeps_the_shape_of_z():
    state = SqueezedState(0.6 + 0.2j, 1.4, 0.9)
    z = _z_array()
    vals = fockbench.weyl_numeric(state, z)
    assert isinstance(vals, np.ndarray) and vals.shape == z.shape
    assert fockbench.weyl_numeric(state, z[:, :1]).shape == (8, 1)
    assert fockbench.weyl_numeric(state, list(z[0])).shape == (5,)
    for point in (z[2, 3], complex(z[2, 3]), np.array(z[2, 3])):
        val = fockbench.weyl_numeric(state, point)
        assert type(val) is complex
        assert abs(val - vals[2, 3]) <= 1e-10


@pytest.mark.parametrize("state", ARRAY_STATES)
def test_an_array_converges_at_the_largest_dim_its_points_need(state):
    z = _z_array()
    vals, info = fockbench.weyl_numeric_report(state, z)
    per_z = [fockbench.weyl_numeric_report(state, point) for point in z.ravel().tolist()]
    assert info.dim >= max(i.dim for _, i in per_z)
    assert info.delta < fockbench.TOL
    assert np.max(np.abs(vals.ravel() - [w for w, _ in per_z])) <= 1e-10


def _three_term_weyl(vec, z):
    """<vec|D(z)|vec> by the plain Chebyshev recurrence, one moment
    <w|T_k(H/b)|w> per step: the reference for fockbench._pure_weyl, which
    takes two moments per step."""
    dim = vec.shape[0]
    radii, at_r = np.unique(np.abs(z.ravel()), return_inverse=True)
    angles, at_t = np.unique(np.angle(z.ravel()), return_inverse=True)
    b = 2.0 * math.sqrt(dim)
    coeff = fockbench._jacobi_anger(tuple(radii * b))
    w = vec[:, None] * np.exp(-1j * np.outer(np.arange(dim), angles))
    a = fockbench.ladder(dim)
    step = (-2j / b) * (a.conj().T - a).tocsr()
    mu = np.empty((angles.size, coeff.shape[1]), dtype=complex)
    prev, cur = w, 0.5 * (step @ w)
    mu[:, 0] = np.einsum("ij,ij->j", w.conj(), w)
    for k in range(1, coeff.shape[1]):
        mu[:, k] = np.einsum("ij,ij->j", w.conj(), cur)
        prev, cur = cur, step @ cur - prev
    return np.einsum("ij,ij->i", coeff[at_r], mu[at_t]).reshape(z.shape)


def _assert_pure_weyl_matches_the_three_term_recurrence(vec, z):
    got = fockbench._pure_weyl(vec, z)
    assert got.shape == z.shape
    assert np.max(np.abs(got - _three_term_weyl(vec, z))) <= 1e-13 * np.vdot(vec, vec).real


@given(dim=st.integers(8, 256), points=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 1e3))
def test_pure_weyl_equals_the_three_term_recurrence_on_random_vectors(dim, points, seed, scale):
    rng = np.random.default_rng(seed)
    vec = scale * (rng.normal(size=dim) + 1j * rng.normal(size=dim))
    z = rng.uniform(0.0, 3.0, points) * np.exp(1j * rng.uniform(-math.pi, math.pi, points))
    _assert_pure_weyl_matches_the_three_term_recurrence(vec, np.append(z, [0j, z[0]]))


@pytest.mark.parametrize("state", ARRAY_STATES)
def test_pure_weyl_equals_the_three_term_recurrence_on_the_array_states(state):
    # the thermal state has no vector; the square roots of its weights are one
    dim = 96
    if isinstance(state, ThermalState):
        vec = np.sqrt(fockbench.thermal_weights(state, dim)).astype(complex)
    else:
        vec = fockbench.state_vector(state, dim)
    _assert_pure_weyl_matches_the_three_term_recurrence(vec, _z_array())


def _counted_jv(monkeypatch):
    """Patch the oracle's jv to count the values it evaluates."""
    count = [0]

    def counted(k, s):
        out = jv(k, s)
        count[0] += out.size
        return out
    monkeypatch.setattr(fockbench, "jv", counted)
    return count


def test_jacobi_anger_rows_stop_at_their_own_order_bound(monkeypatch):
    args = (0.0, 0.3, 4.0, 37.5, 263.0)
    count = _counted_jv(monkeypatch)
    fockbench._jacobi_anger.cache_clear()
    table = fockbench._jacobi_anger(args)
    assert fockbench._jacobi_anger(args) is table
    with pytest.raises(ValueError):
        table[0, 0] = 2.0
    # one jv value per row and order up to the row's cutoff, zeros past it
    bounds = [int(specfun.order_cutoff(s)) + 1 for s in args]
    assert count[0] == sum(bounds)
    assert bounds[-1] >= table.shape[1] > bounds[-2]
    for bound, row in zip(bounds, table):
        assert not row[bound:].any()
    # every order up to a wider bound, (s/2)^k / k! < 1e-18 there, past the
    # table's end too
    ks = np.arange(int(1.5 * args[-1] + 13.0 * args[-1] ** (1.0 / 3.0)) + 21)
    full = np.where(ks, 2.0, 1.0) * 1j ** (ks % 4) * jv(ks, np.array(args)[:, None])
    full[:, : table.shape[1]] -= table
    assert np.max(np.abs(full)) <= 1e-18


def test_the_verify_grid_evaluates_one_jv_per_row_and_order_of_each_table(monkeypatch):
    # 5 tables (one per pure state and dim: number 60, 120; coherent 240;
    # squeezed 960, 1920) of 11 radii each
    count = _counted_jv(monkeypatch)
    tables, cached = [], fockbench._jacobi_anger
    monkeypatch.setattr(fockbench, "_jacobi_anger", lambda args: tables.append(args) or cached(args))
    cached.cache_clear()
    assert verify.run_suite("weyl-oracle")["passed"]
    distinct = set(tables)
    assert [len(args) for args in distinct] == [11] * 5
    assert count[0] == sum(int(np.sum(specfun.order_cutoff(np.array(args)) + 1)) for args in distinct) == 6320


def test_weyl_oracle_dims_on_the_verify_grid():
    # the oracle's speed must not come from converging at a smaller dim
    grid = np.array(verify.weyl_z_grid())
    dims = {fam: fockbench.weyl_numeric_report(state, grid)[1].dim for fam, state in matched_states().items()}
    assert dims == {"number": 120, "coherent": 240, "squeezed": 1920, "thermal": 960}


def test_one_weyl_oracle_run_evaluates_each_state_from_its_start(monkeypatch):
    # number and coherent start at their mean-photon width 60; the squeezed
    # state drops 8.2e-8 of its trace at 480 and the thermal state 1.1e-6 at
    # 240, so they start at 960 and 480
    pure, diagonal = [], []
    real_pure, real_diagonal = fockbench._pure_weyl, fockbench.displacement_diagonal
    monkeypatch.setattr(fockbench, "_pure_weyl", lambda vec, z: pure.append(vec.shape[0]) or real_pure(vec, z))
    monkeypatch.setattr(fockbench, "displacement_diagonal",
                        lambda z, dim: diagonal.append(dim) or real_diagonal(z, dim))
    assert verify.run_suite("weyl-oracle")["passed"]
    assert pure == [60, 120, 60, 120, 240, 960, 1920]
    assert diagonal == [480, 960]


HEAVY_TAILED = [
    SqueezedState(0j, 4.2),
    SqueezedState(2.0 * cmath.exp(0.4j), 3.5, 0.4),
    SqueezedState(7.0, 4.0, 0.4),
    ThermalState(0.02),
    ThermalState(0.05),
]


@pytest.mark.parametrize("state", HEAVY_TAILED)
def test_the_start_converges_where_a_loop_from_the_mean_photon_width_does(state):
    # a cap below twice the mean-photon width leaves the start at that width
    grid = np.array(verify.weyl_z_grid())
    base = fockbench.default_dim(state, 1)
    start = fockbench.default_dim(state, fockbench.DIM_CAP)
    assert start in [base << k for k in range(1, 8)]
    assert fockbench._lost_trace(state, start) < fockbench.TOL <= fockbench._lost_trace(state, start // 2)
    (old, _), old_dim, _ = fockbench.converge(
        lambda dim: fockbench._weyl_value(state, grid, dim), base, fockbench.DIM_CAP, "probe",
        lambda new, old: fockbench._max_change(new[0], old[0]),
    )
    new, info = fockbench.weyl_numeric_report(state, grid)
    assert info.dim == old_dim
    assert np.array_equal(new, old)


def test_the_start_doubles_only_while_the_next_doubling_stays_within_the_cap():
    # the matched squeezed state drops at least TOL of its trace up to dim 480
    caps = (1, 100, 479, 480, 959, 960, fockbench.DIM_CAP)
    state = matched_states()["squeezed"]
    assert [fockbench.default_dim(state, cap) for cap in caps] == [60, 60, 240, 480, 480, 960, 960]


def test_weyl_numeric_raises_when_capped():
    # the state starts at a dim above the cap, so its first doubling passes it
    with pytest.raises(TruncationError, match="weyl_numeric did not converge below dim cap 16"):
        fockbench.weyl_numeric(SqueezedState(0j, 4.2), 0.5, 16)


@pytest.mark.parametrize("state", [CoherentState(40.0), SqueezedState(60.0, 1.0)], ids=["coherent", "squeezed"])
def test_weyl_numeric_raises_when_the_vacuum_amplitude_underflows(state):
    # exp(-|alpha|^2/2) is 0.0 here: the vector would be empty and its Weyl
    # value would converge at once to 0 (the closed form has modulus near one)
    with pytest.raises(TruncationError, match="n = 0 amplitude"):
        fockbench.weyl_numeric(state, 0.1)


def test_the_vacuum_amplitude_guard_sits_at_the_smallest_normal_double():
    # exp(-|alpha|^2/2) = 2.2e-308 at |alpha| = 37.64
    assert fockbench.state_vector(CoherentState(37.6), 32)[0] >= np.finfo(float).tiny
    with pytest.raises(TruncationError):
        fockbench.state_vector(CoherentState(37.7), 32)


def test_flux_matrix_elements_and_vacuum_variance():
    mode = ModeParams(1.0, xi=1.0)
    m = fockbench.flux_matrix(mode, 0.0, 16)
    for n in range(15):
        assert m[n, n + 1] == pytest.approx(math.sqrt(n + 1) / math.sqrt(2.0))
    assert np.max(np.abs(m - m.conj().T)) <= 1e-14
    rho = fockbench.density_matrix(NumberState(0), 16)
    assert fockbench.expectation(rho, m @ m).real == pytest.approx(0.5, rel=1e-14)


def test_expectation_of_a_sparse_operator_is_the_trace():
    # with a sparse *matrix*, rho * obs.T would be a matrix product
    mode = ModeParams(1.0, xi=1.0)
    dim = 40
    rho = fockbench.density_matrix(CoherentState(0.8 + 0.3j), dim)
    op = fockbench.flux_matrix(mode, 0.3, dim)
    assert sparse.issparse(op)
    dense = complex(np.trace(rho @ op.toarray()))
    assert dense == pytest.approx(1.2062, abs=1e-4)
    for obs in (op, sparse.csr_matrix(op), op.toarray()):
        assert fockbench.expectation(rho, obs) == pytest.approx(dense, abs=1e-13)


def test_converge_doubles_until_the_change_is_below_tol():
    seen = []

    def evaluate(dim):
        seen.append(dim)
        return 2.0 ** (-3 * dim)

    # the changes are 2^-12 - 2^-24, 2^-24 - 2^-48 and 2^-48 - 2^-96: only
    # the last is below the tolerance
    assert 2.0 ** -24 - 2.0 ** -48 > fockbench.TOL > 2.0 ** -48 - 2.0 ** -96
    val, dim, delta = fockbench.converge(evaluate, 4, 32, "probe")
    assert seen == [4, 8, 16, 32] and dim == 32
    assert val == 2.0 ** -96 and delta == 2.0 ** -48 - 2.0 ** -96
    with pytest.raises(TruncationError, match="probe did not converge below dim cap 16"):
        fockbench.converge(evaluate, 4, 16, "probe")


def test_converge_refuses_a_start_above_the_cap_before_evaluating_it():
    seen = []
    with pytest.raises(TruncationError, match="probe did not converge below dim cap 8$"):
        fockbench.converge(seen.append, 60, 8, "probe")
    assert seen == []


def test_expectation_examples():
    dim = 96
    rho = fockbench.density_matrix(ThermalState(1.0), dim)
    assert fockbench.expectation(rho, np.eye(dim)).real == pytest.approx(1.0, abs=1e-10)
    a = fockbench.ladder(dim)
    nbar = fockbench.expectation(rho, a.conj().T @ a).real
    assert nbar == pytest.approx(1.0 / (math.e - 1.0), abs=1e-10)
    rho5 = fockbench.density_matrix(NumberState(5), dim)
    assert fockbench.expectation(rho5, a.conj().T @ a).real == pytest.approx(5.0)
    with pytest.raises(ValueError):
        fockbench.expectation(rho, np.eye(dim + 1))


# ---------------------------------------------------------------------------
# two-mode

def test_two_mode_separable_number_pair_layout():
    state = TwoModeSeparableMixture(
        ((0.5, NumberState(0), NumberState(0)), (0.5, NumberState(1), NumberState(1)))
    )
    rho = fockbench.two_mode_density(state, 4, 4)
    # mode-A-major: |00> -> 0, |11> -> 1*4 + 1 = 5
    assert rho[0, 0] == pytest.approx(0.5)
    assert rho[5, 5] == pytest.approx(0.5)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.count_nonzero(np.abs(rho) > 1e-15) == 2


def test_entangled_coherent_pair_degenerates_at_equal_amplitudes():
    a = 0.9 + 0.1j
    norm = (2.0 + 2.0) ** -0.5
    assert norm == pytest.approx(0.5)
    state = TwoModeProductSuperposition(
        ((norm, CoherentState(a), CoherentState(a)), (norm, CoherentState(a), CoherentState(a)))
    )
    rho = fockbench.two_mode_density(state, 24, 24)
    prod = fockbench.two_mode_density(TwoModeFactorizable(CoherentState(a), CoherentState(a)), 24, 24)
    assert np.max(np.abs(rho - prod)) <= 1e-12


def test_partial_trace_factorizable_and_number_pairs():
    sa, sb = CoherentState(0.7), ThermalState(1.3)
    rho = fockbench.two_mode_density(TwoModeFactorizable(sa, sb), 24, 24)
    assert np.max(np.abs(fockbench.partial_trace(rho, (24, 24), "A") - fockbench.density_matrix(sa, 24))) <= 1e-12
    assert np.max(np.abs(fockbench.partial_trace(rho, (24, 24), "B") - fockbench.density_matrix(sb, 24))) <= 1e-12

    half = 1.0 / math.sqrt(2.0)
    sep = TwoModeSeparableMixture(
        ((0.5, NumberState(1), NumberState(3)), (0.5, NumberState(3), NumberState(1)))
    )
    ent = TwoModeProductSuperposition(
        ((half, NumberState(1), NumberState(3)), (half, NumberState(3), NumberState(1)))
    )
    expect = np.zeros((8, 8), dtype=complex)
    expect[1, 1] = expect[3, 3] = 0.5
    for state in (sep, ent):
        rho = fockbench.two_mode_density(state, 8, 8)
        for keep in ("A", "B"):
            red = fockbench.partial_trace(rho, (8, 8), keep)
            assert np.max(np.abs(red - expect)) <= 1e-12


def test_partial_trace_entangled_coherent_reduction():
    a1, a2 = 0.8, 1.1j
    norm = (2.0 + 2.0 * math.exp(-abs(a1 - a2) ** 2)) ** -0.5
    state = TwoModeProductSuperposition(
        ((norm, CoherentState(a1), CoherentState(a2)), (norm, CoherentState(a2), CoherentState(a1)))
    )
    dim = 32
    red = fockbench.partial_trace(fockbench.two_mode_density(state, dim, dim), (dim, dim), "A")
    v1 = fockbench.state_vector(CoherentState(a1), dim)
    v2 = fockbench.state_vector(CoherentState(a2), dim)
    chi = complex(np.vdot(v1, v2))
    ref = norm ** 2 * (
        np.outer(v1, v1.conj()) + np.outer(v2, v2.conj())
        + chi * np.outer(v1, v2.conj()) + chi.conjugate() * np.outer(v2, v1.conj())
    )
    assert np.max(np.abs(red - ref)) <= 1e-8


def test_partial_trace_shape_validation():
    with pytest.raises(ValueError):
        fockbench.partial_trace(np.eye(12, dtype=complex), (3, 5), "A")


def test_two_mode_expectation_matches_kron_trace():
    rng = np.random.default_rng(3)
    dim = 12
    op_a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    op_b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    states = [
        TwoModeFactorizable(ThermalState(0.9), CoherentState(0.5)),
        TwoModeSeparableMixture(
            ((0.3, NumberState(0), NumberState(2)), (0.7, NumberState(2), NumberState(0)))
        ),
        TwoModeProductSuperposition(
            ((1 / math.sqrt(2), NumberState(0), NumberState(1)),
             (1 / math.sqrt(2), NumberState(1), NumberState(0)))
        ),
    ]
    for state in states:
        rho = fockbench.two_mode_density(state, dim, dim)
        ref = complex(np.trace(rho @ np.kron(op_a, op_b)))
        val = fockbench.two_mode_expectation(state, op_a, op_b)
        assert abs(val - ref) <= 1e-10 * max(1.0, abs(ref))


def test_converged_two_mode_expectation_reports_dim():
    state = TwoModeFactorizable(CoherentState(1.0), CoherentState(0.5))
    val, info = fockbench.converged_two_mode_expectation(
        state, lambda d: [(np.eye(d, dtype=complex), np.eye(d, dtype=complex))]
    )
    assert val[0].real == pytest.approx(1.0, abs=1e-10)
    assert info.dim >= 64
    assert info.trace_deficit <= 1e-10


def test_a_list_of_pairs_converges_at_the_largest_dim_its_pairs_need():
    # from the start 41, <n_A> = 1 converges at 82 and <n_B^2> = 90 only at 164
    state = TwoModeFactorizable(CoherentState(1.0), CoherentState(3.0))

    def pairs(d):
        eye, n = np.eye(d, dtype=complex), np.diag(np.arange(d, dtype=complex))
        return [(n, eye), (eye, n @ n)]
    vals, info = fockbench.converged_two_mode_expectation(state, pairs)
    alone = [fockbench.converged_two_mode_expectation(state, lambda d, k=k: [pairs(d)[k]])
             for k in range(2)]
    assert [i.dim for _, i in alone] == [82, 164]
    assert info.dim >= max(i.dim for _, i in alone)
    assert info.delta < fockbench.TOL
    assert np.max(np.abs(vals - [v[0] for v, _ in alone])) <= 1e-10
    assert vals.real == pytest.approx([1.0, 90.0], rel=1e-10)


def _counted_converge(monkeypatch):
    """Patch fockbench.converge to record the ``what`` of every loop."""
    loops, converge = [], fockbench.converge

    def counted(evaluate, dim, dim_cap, what, *args):
        loops.append(what)
        return converge(evaluate, dim, dim_cap, what, *args)
    monkeypatch.setattr(fockbench, "converge", counted)
    return loops


@pytest.mark.parametrize("entangled", [False, True])
def test_the_ring_oracle_converges_its_six_moments_in_one_loop(monkeypatch, entangled):
    loops = _counted_converge(monkeypatch)
    fockbench.two_squid_moments(
        twomode.number_pair_crossed(1, 3, entangled), 0.5, 1.2e-4, 1.0e-4, 1.2e-4, 1.0e-4, 3.0e3
    )
    assert loops == ["two-mode expectation"]


def test_the_ring_oracle_builds_one_density_per_component_per_dim(monkeypatch):
    built, density = [], fockbench.density_matrix

    def counted(state, dim):
        built.append((state, dim))
        return density(state, dim)
    monkeypatch.setattr(fockbench, "density_matrix", counted)
    state2 = twomode.number_pair_crossed(1, 3, False)
    fockbench.two_squid_moments(state2, 0.5, 1.2e-4, 1.0e-4, 1.2e-4, 1.0e-4, 3.0e3)
    dims = sorted({dim for _, dim in built})
    comps = [s for _, sa, sb in state2.terms for s in (sa, sb)]
    assert len(dims) >= 2
    assert built == [(s, dim) for dim in dims for s in comps]


def test_the_twomode_suite_converges_each_field_in_one_loop(monkeypatch):
    loops = _counted_converge(monkeypatch)
    report = verify.run_suite("twomode")
    fields = [c for c in report["checks"] if c["name"].startswith("joint-intensity-vs-oracle-")]
    assert report["passed"] and len(fields) == 4
    assert loops == ["two-mode expectation"] * 4


def test_the_window_oracle_converges_once_per_state(monkeypatch):
    loops = _counted_converge(monkeypatch)
    report = verify.run_suite("autocorr")
    windows = [c for c in report["checks"] if c["name"].startswith("quantum-gamma-vs-window-oracle-")]
    assert all(c["passed"] for c in windows)
    assert loops == [f"{c['name'].rsplit('oracle-', 1)[1]} window oracle" for c in windows]


# ---------------------------------------------------------------------------
# caching, read-only vectors and reproducibility

def _per_diagonal_displacement(z, dim):
    """Reference D(z): the band recurrence one row at a time, then the matrix
    filled one diagonal offset at a time."""
    z = complex(z)
    absz, x = abs(z), abs(z) ** 2
    ds = np.arange(dim, dtype=float)
    band = np.zeros((dim, dim))
    with np.errstate(under="ignore"):
        band[0, :] = np.exp(-x / 2.0 + ds * math.log(absz) - 0.5 * gammaln(ds + 1.0))
    if dim > 1:
        band[1, :] = band[0, :] * (1.0 + ds - x) / np.sqrt(1.0 + ds)
    for k in range(1, dim - 1):
        r1 = np.sqrt((k + 1.0) / (k + 1.0 + ds))
        r2 = np.sqrt((k + 1.0) * k / ((k + 1.0 + ds) * (k + ds)))
        band[k + 1, :] = (
            (2.0 * k + 1.0 + ds - x) * r1 * band[k, :] - (k + ds) * r2 * band[k - 1, :]
        ) / (k + 1.0)
    arg = cmath.phase(z)
    out = np.zeros((dim, dim), dtype=complex)
    for d in range(dim):
        vals = band[: dim - d, d]
        ph = cmath.exp(1j * d * arg)
        idx = np.arange(dim - d)
        out[idx + d, idx] = vals * ph
        if d > 0:
            sign = -1.0 if d & 1 else 1.0
            out[idx, idx + d] = vals * sign * np.conj(ph)
    return out


@pytest.mark.parametrize("dim", [1, 2, 3, 48, 64, 256])
def test_displacement_matrix_equals_per_diagonal_reference(dim):
    fockbench._signed_band.cache_clear()
    for z in (0.5, 0.8 + 0.6j, -1.5j, 2.0 * cmath.exp(0.3j), 0.37j * cmath.exp(2.1j), -3.3 + 0.1j):
        # cold and warm band cache, then the same |z| at another phase;
        # equal values, where a zero may come out with the other sign
        for w in (z, z, z * cmath.exp(1.3j)):
            assert np.array_equal(fockbench.displacement_matrix(w, dim), _per_diagonal_displacement(w, dim))


def test_cached_displacement_band_equals_a_fresh_build():
    cached = fockbench._signed_band(0.2143, 48)
    assert fockbench._signed_band(0.2143, 48) is cached
    with pytest.raises(ValueError):
        cached[0, 0] = 2.0
    fockbench._signed_band.cache_clear()
    fresh = fockbench._signed_band(0.2143, 48)
    assert fresh is not cached
    assert fresh.tobytes() == cached.tobytes()


def test_writing_into_a_displacement_matrix_leaves_the_next_call_alone():
    z = 0.7 * cmath.exp(0.4j)
    first = fockbench.displacement_matrix(z, 16)
    expect = first.copy()
    first[:] = 5.0
    assert fockbench.displacement_matrix(z, 16).tobytes() == expect.tobytes()
    assert np.array_equal(fockbench.displacement_matrix(-z, 16), _per_diagonal_displacement(-z, 16))


def test_cached_state_vector_equals_a_fresh_build():
    state = SqueezedState(0.6 + 0.2j, 1.4, 0.9)
    cached = fockbench.state_vector(state, 160)
    assert fockbench.state_vector(state, 160) is cached
    fockbench._pure_vector.cache_clear()
    fresh = fockbench.state_vector(state, 160)
    assert fresh is not cached
    assert fresh.tobytes() == cached.tobytes()


@pytest.mark.parametrize("state", [NumberState(3), CoherentState(1.2 - 0.4j), SqueezedState(0.5, 1.0, 0.3)])
def test_state_vector_is_read_only(state):
    vec = fockbench.state_vector(state, 32)
    with pytest.raises(ValueError):
        vec[0] = 2.0
    with pytest.raises(ValueError):
        vec *= 2.0
    assert fockbench.state_vector(state, 32)[0] == vec[0]


def test_state_vectors_of_distinct_states_do_not_alias():
    dim = 64
    base = fockbench.state_vector(SqueezedState(0.5, 1.0, 0.3), dim)
    for other in (SqueezedState(0.5, 1.1, 0.3), SqueezedState(0.5, 1.0, 0.4)):
        vec = fockbench.state_vector(other, dim)
        assert vec is not base
        assert not np.array_equal(vec, base)
    assert fockbench.state_vector(SqueezedState(0.5, 1.0, 0.3), 2 * dim).shape == (2 * dim,)


def test_squeezed_vector_is_reproducible_and_leaves_the_global_rng_alone():
    # the amplitude recurrence draws no random numbers, so the bits must not
    # depend on the global seed, and the global RNG state must not move
    state = SqueezedState(0j, 4.2)
    built = []
    for seed in (1, 2):
        fockbench._pure_vector.cache_clear()
        np.random.seed(seed)
        before = np.random.get_state()
        built.append(fockbench.state_vector(state, 1920).tobytes())
        after = np.random.get_state()
        assert before[0] == after[0]
        assert np.array_equal(before[1], after[1])
        assert before[2:] == after[2:]
    assert built[0] == built[1]


@functools.lru_cache(maxsize=1)
def _squeezed_vacuum_by_expm_multiply(r, dim):
    # scipy's Taylor-based action of the truncated squeeze generator on the
    # vacuum; the truncation moves the amplitudes near its edge (3.0e-3 off at
    # n < 240 when truncated at 240), so it is taken at dim and only a prefix
    # well inside is compared
    a = fockbench.ladder(dim)
    gen = (-(r / 4.0)) * (a.conj().T @ a.conj().T).tocsc() + (r / 4.0) * (a @ a).tocsc()
    return expm_multiply(gen, fockbench.state_vector(CoherentState(0j), dim))


@pytest.mark.parametrize("dim", [240, 480, 960, 1920])
def test_squeezed_vector_matches_expm_multiply(dim):
    # the acceptance r = 4.2 vector against an independent propagator, taken
    # at twice the largest dim (worst seen 2.7e-15)
    ref = _squeezed_vacuum_by_expm_multiply(4.2, 3840)[:dim]
    vec = fockbench.state_vector(SqueezedState(0j, 4.2), dim)
    assert np.max(np.abs(vec - ref)) <= 1e-12


@pytest.mark.parametrize("state", [
    SqueezedState(0j, 4.2),
    SqueezedState(3.0, 4.2, 1.0),
    SqueezedState(0.5j, 4.2),
    SqueezedState(0.6 + 0.2j, 1.4, 0.9),
    SqueezedState(7.4158, 4.2),
], ids=["0-r4.2", "3-r4.2-phi1.0", "0.5i-r4.2", "0.6+0.2i-r1.4-phi0.9", "7.4158-r4.2"])
def test_squeezed_vector_matches_the_mpmath_hermite_amplitudes(state, hermite_amplitudes):
    # worst seen 5.0e-16; the truncation must not move the amplitudes it keeps
    ref = hermite_amplitudes(state, 600)
    vec = fockbench.state_vector(state, 600)
    assert np.max(np.abs(vec - ref)) <= 1e-14
    assert fockbench.state_vector(state, 240).tobytes() == vec[:240].tobytes()
