"""Ensemble, block-sum and equivalent-construction tests."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import pwtraffic.models as models
from pwtraffic.cli import resolve_ensemble
from pwtraffic.graphs import moment_cycle, single_edge
from pwtraffic.hermite import expect_scaled, gaussian_moment, hermite, monomial
from pwtraffic.models import (
    EntryLaw,
    ProfiledEnsemble,
    StepProfile,
    decompose,
    distinct_labels,
    equivalent_lin,
    equivalent_sampler,
    equivalent_sum,
    model_sampler,
    ones_and_pairs,
    per_matrix,
    inclusion_exclusion_terms,
    power_sums,
    pw_matrix,
    triple_and_pairs,
    z_lambda,
)
from pwtraffic.partitions import IntegerPartition
from pwtraffic.traffic import BlockLayout
import decompose_oracle
from hermite_oracle import hermite_coeffs
from models_oracle import equivalent_def, equivalent_per, per_noise_family, unit_skewed_law
from partitions_oracle import count_of_type, enumerate_set_partitions, integer_partitions

RNG = np.random.default_rng(52)


def const_ensemble(n0, n1, n2, law=None):
    law = law or EntryLaw.gaussian()
    return ProfiledEnsemble(
        BlockLayout(n0, n1, n2), law, law, StepProfile.constant(), StepProfile.constant()
    )


# -- entry laws ---------------------------------------------------------------


def test_skewed_two_point_moments():
    law = unit_skewed_law()
    assert law.moment(1) == 0
    assert law.moment(2) == 1
    assert law.m3 == Fraction(3, 2)


def test_law_validation():
    with pytest.raises(ValueError):
        EntryLaw.skewed_two_point(2, Fraction(-1, 2), Fraction(1, 4))  # not centered
    with pytest.raises(ValueError):
        EntryLaw.skewed_two_point(1, -1, Fraction(1, 3))  # centered only at p=1/2
    assert EntryLaw.rademacher().m3 == 0
    assert EntryLaw.gaussian().m3 == 0


def test_law_sampling_statistics():
    rng = np.random.default_rng(11)
    for law in (EntryLaw.gaussian(), EntryLaw.rademacher(), unit_skewed_law()):
        x = law.sample(rng, (400, 400))
        n = x.size
        assert abs(x.mean()) < 4 / math.sqrt(n)
        assert abs((x**2).mean() - 1) < 6 / math.sqrt(n)
        assert abs((x**3).mean() - float(law.m3)) < 8 / math.sqrt(n)


def law_of(spec):
    """``spec`` read as law_w of an ensemble config."""
    section = {"N0": 1, "N1": 1, "N2": 1, "law_w": spec, "law_x": {"kind": "gaussian"}, "profile_w": [[1]], "profile_x": [[1]]}
    return resolve_ensemble({"ensemble": section}).law_w


def test_law_json_round_trip():
    assert law_of({"kind": "gaussian"}) == EntryLaw.gaussian()
    assert law_of({"kind": "rademacher"}) == EntryLaw.rademacher()
    skewed = {"kind": "skewed_two_point", "a": "2", "b": "-1/2", "p": "1/5"}
    assert law_of(skewed) == unit_skewed_law()
    with pytest.raises(ValueError):
        law_of({"kind": "cauchy"})


# -- profiles -----------------------------------------------------------------


def test_step_profile_realize():
    p = StepProfile.of([[1, 2], [3, 4]])
    mat = p.realize(4, 4)
    assert (mat[:2, :2] == 1).all() and (mat[:2, 2:] == 2).all()
    assert (mat[2:, :2] == 3).all() and (mat[2:, 2:] == 4).all()
    # non-divisible sizes follow the ceiling rule: rows 1, 2, 3 of 3 in cells 1, 2, 2
    mat = p.realize(3, 2)
    assert mat[:, 0].tolist() == [1, 3, 3]


def test_step_profile_validation():
    with pytest.raises(ValueError):
        StepProfile.of([[1, -1]])
    with pytest.raises(ValueError):
        StepProfile.of([[1, 2], [3]])


def test_sample_deterministic_and_profiled():
    ens = const_ensemble(8, 6, 7)
    w1, x1 = ens.sample(3)
    w2, x2 = ens.sample(3)
    assert (w1 == w2).all() and (x1 == x2).all()
    assert w1.shape == (6, 8) and x1.shape == (8, 7)
    zero = ProfiledEnsemble(
        ens.layout, ens.law_w, ens.law_x, StepProfile.constant(0), StepProfile.constant(0)
    )
    wz, xz = zero.sample(3)
    assert not wz.any() and not xz.any()


def test_sample_moments():
    ens = const_ensemble(120, 120, 120)
    w, x = ens.sample(17)
    n = w.size
    assert abs(w.mean()) < 4 / math.sqrt(n)
    assert abs((w**2).mean() - 1) < 6 / math.sqrt(n)


# -- the model matrix ----------------------------------------------------------


def test_pw_matrix_examples():
    lay = BlockLayout(3, 2, 2)
    w, x = RNG.standard_normal((2, 3)), RNG.standard_normal((3, 2))
    from pwtraffic.hermite import Polynomial

    assert not pw_matrix(Polynomial.zero(), w, x, lay).any()
    y1 = pw_matrix(monomial(1), w, x, lay)
    expect = (math.sqrt(lay.N0) / lay.N) * (w @ x) / math.sqrt(lay.N0)
    assert np.allclose(y1, expect)
    # linearity in the polynomial
    h3, h5 = monomial(3), monomial(5)
    combo = Fraction(2) * h3 + Fraction(-3) * h5
    lhs = pw_matrix(combo, w, x, lay)
    rhs = 2 * pw_matrix(h3, w, x, lay) - 3 * pw_matrix(h5, w, x, lay)
    assert np.allclose(lhs, rhs)


def test_pw_matrix_shape_check():
    lay = BlockLayout(3, 2, 2)
    with pytest.raises(ValueError):
        pw_matrix(monomial(1), np.zeros((2, 4)), np.zeros((4, 2)), lay)


# -- distinct-index block sums ---------------------------------------------------


def brute_z(parts, w, x):
    out = np.zeros((w.shape[0], x.shape[1]), dtype=object)
    for i in range(w.shape[0]):
        for j in range(x.shape[1]):
            acc = 0
            for d in itertools.permutations(range(w.shape[1]), len(parts)):
                term = 1
                for dk, p in zip(d, parts):
                    term *= (int(w[i, dk]) * int(x[dk, j])) ** p
                acc += term
            out[i, j] = acc
    return out


def z_lambda_oracle(lam, w, x):
    """Ungrouped inclusion-exclusion: one product per set partition of the parts."""
    parts = lam.parts
    w = np.asarray(w)
    x = np.asarray(x)
    exact = np.issubdtype(w.dtype, np.integer) and np.issubdtype(x.dtype, np.integer)
    if exact:
        w = w.astype(object)
        x = x.astype(object)
    powers = {}

    def u(m):
        if m not in powers:
            powers[m] = (w**m) @ (x**m)
        return powers[m]

    total = np.zeros((w.shape[0], x.shape[1]), dtype=object if exact else float)
    for sigma in enumerate_set_partitions(len(parts)):
        weight = 1
        term = None
        for block in sigma.blocks:
            weight *= (-1) ** (len(block) - 1) * math.factorial(len(block) - 1)
            piece = u(sum(parts[k - 1] for k in block))
            term = piece if term is None else term * piece
        total = total + weight * term
    return total


def test_z_lambda_single_part_is_product():
    w, x = RNG.integers(-3, 4, (3, 4)), RNG.integers(-3, 4, (4, 3))
    assert (z_lambda(IntegerPartition.of([1]), power_sums(w, x, 1)) == w @ x).all()


def test_z_lambda_power_sum():
    w, x = RNG.integers(-3, 4, (1, 3)), RNG.integers(-3, 4, (3, 1))
    val = z_lambda(IntegerPartition.of([2]), power_sums(w, x, 2))[0, 0]
    direct = sum(int(w[0, d]) ** 2 * int(x[d, 0]) ** 2 for d in range(3))
    assert val == direct


def test_z_lambda_two_singletons_pattern():
    w, x = RNG.integers(-3, 4, (3, 4)), RNG.integers(-3, 4, (4, 3))
    got = z_lambda(IntegerPartition.of([1, 1]), power_sums(w, x, 2))
    pattern = (w @ x) * (w @ x) - (w**2) @ (x**2)
    assert (got == pattern).all()
    assert (got == brute_z((1, 1), w, x)).all()


def test_z_lambda_matches_brute_force():
    for n in range(1, 5):
        for lam in integer_partitions(n):
            w = RNG.integers(-3, 4, (2, 5))
            x = RNG.integers(-3, 4, (5, 2))
            assert (z_lambda(lam, power_sums(w, x, lam.total)) == brute_z(lam.parts, w, x)).all()


def test_z_lambda_part_guard():
    w, x = RNG.integers(-3, 4, (4, 4)), RNG.integers(-3, 4, (4, 4))
    with pytest.raises(ValueError):
        z_lambda(IntegerPartition.of([1] * 9), power_sums(w, x, 9))


def partitions_up_to_parts(max_parts, max_total):
    return [lam for n in range(1, max_total + 1) for lam in integer_partitions(n) if len(lam.parts) <= max_parts]


def test_z_lambda_matches_oracle_exactly():
    w, x = RNG.integers(-3, 4, (3, 6)), RNG.integers(-3, 4, (6, 2))
    sums = power_sums(w, x, 9)
    for lam in partitions_up_to_parts(7, 9):
        oracle = z_lambda_oracle(lam, w, x)
        assert (z_lambda(lam, power_sums(w, x, lam.total)) == oracle).all(), lam
        assert (z_lambda(lam, sums) == oracle).all(), lam


def expansion_scale(lam, w, x):
    """Largest entry of sum |coefficient| * prod |u(m)|, the size of the
    summands that cancel in the expansion; float error is relative to it."""
    bound = power_sums(np.abs(w), np.abs(x), lam.total)
    out = 0
    for coeff, block_sums in inclusion_exclusion_terms(lam.parts):
        out = out + abs(coeff) * np.prod([bound[m] for m in block_sums], axis=0)
    return out.max()


def test_z_lambda_matches_oracle_on_floats():
    w, x = RNG.standard_normal((5, 12)), RNG.standard_normal((12, 4))
    sums = power_sums(w, x, 7)
    for lam in partitions_up_to_parts(7, 7):
        oracle = z_lambda_oracle(lam, w, x)
        scale = expansion_scale(lam, w, x)
        for got in (z_lambda(lam, power_sums(w, x, lam.total)), z_lambda(lam, sums)):
            assert np.abs(got - oracle).max() <= 1e-12 * scale, lam


def test_power_sums_table():
    w, x = RNG.integers(-3, 4, (3, 4)), RNG.integers(-3, 4, (4, 2))
    table = power_sums(w, x, 4)
    assert sorted(table) == [1, 2, 3, 4]
    for m, u in table.items():
        assert u.dtype == object
        assert (u == (w.astype(object) ** m) @ (x.astype(object) ** m)).all()
    with pytest.raises(ValueError):
        z_lambda(IntegerPartition.of([3, 2]), table)


def test_inclusion_exclusion_terms_match_the_set_partition_oracle():
    # the restricted-growth form equals the SetPartition one, term order included
    for lam in partitions_up_to_parts(7, 9):
        assert inclusion_exclusion_terms(lam.parts) == decompose_oracle.inclusion_exclusion_terms_oracle(lam.parts), lam


def test_grouped_coefficients_are_signed_cycle_type_counts():
    # For b unit parts the merged coefficient of block type lam is the signed
    # number of permutations of [b] with cycle type lam: (-1)^(b-l) b!/z_lam.
    for b in range(1, 9):
        terms = dict((key, c) for c, key in inclusion_exclusion_terms((1,) * b))
        assert sorted(terms) == sorted(lam.parts for lam in integer_partitions(b))
        for lam in integer_partitions(b):
            z = 1
            for size in set(lam.parts):
                mult = lam.parts.count(size)
                z *= size**mult * math.factorial(mult)
            assert terms[lam.parts] == (-1) ** (b - len(lam.parts)) * math.factorial(b) // z
    assert len(inclusion_exclusion_terms((1,) * 5)) == 7
    assert len(inclusion_exclusion_terms((1,) * 7)) == 15


def test_named_partition_families():
    assert ones_and_pairs(5, 1).parts == (2, 2, 1)
    assert ones_and_pairs(5, 3).parts == (2, 1, 1, 1)
    assert ones_and_pairs(5, 5).parts == (1, 1, 1, 1, 1)
    assert triple_and_pairs(7).parts == (3, 2, 2)
    with pytest.raises(ValueError):
        ones_and_pairs(5, 2)
    with pytest.raises(ValueError):
        triple_and_pairs(2)


# -- the four-way decomposition --------------------------------------------------


def test_decompose_h1():
    lay = BlockLayout(10, 8, 9)
    w, x = RNG.standard_normal((8, 10)), RNG.standard_normal((10, 9))
    d = decompose(monomial(1), power_sums(w, x, 1), lay)
    assert np.allclose(d.lin, pw_matrix(monomial(1), w, x, lay))
    assert d.per == {}
    assert not d.deformation.any() and np.allclose(d.eps, 0)


def test_decompose_h3_exact_cover():
    lay = BlockLayout(10, 8, 9)
    w, x = RNG.standard_normal((8, 10)), RNG.standard_normal((10, 9))
    d = decompose(monomial(3), power_sums(w, x, 3), lay)
    assert np.abs(d.eps).max() < 1e-12
    assert set(d.per) == {3}


def test_decompose_h5_remainder_is_lambda_sum():
    lay = BlockLayout(8, 6, 7)
    w, x = RNG.standard_normal((6, 8)), RNG.standard_normal((8, 7))
    d = decompose(monomial(5), power_sums(w, x, 5), lay)
    gamma = math.sqrt(lay.N0) / lay.N
    oracle = np.zeros((lay.N1, lay.N2))
    for parts in [(5,), (4, 1), (3, 1, 1)]:
        lam = IntegerPartition(parts)
        oracle += count_of_type(lam) * gamma * lay.N0**-2.5 * z_lambda(lam, power_sums(w, x, lam.total)).astype(float)
    assert np.allclose(d.eps, oracle)


def test_decompose_reassembles_exactly():
    lay = BlockLayout(20, 18, 22)
    w, x = RNG.standard_normal((18, 20)), RNG.standard_normal((20, 22))
    for p in (monomial(1), monomial(3), monomial(5), hermite(3), hermite(5)):
        d = decompose(p, power_sums(w, x, p.degree), lay)
        y = pw_matrix(p, w, x, lay)
        assert np.abs(d.reassembled() - y).max() < 1e-10 * max(1.0, np.abs(y).max())


def test_decompose_g7_matches_oracle_decomposition(monkeypatch):
    import pwtraffic.models as models

    lay = BlockLayout(20, 18, 22)
    w, x = RNG.standard_normal((18, 20)), RNG.standard_normal((20, 22))
    g7 = hermite(7)
    d = decompose(g7, power_sums(w, x, 7), lay)
    monkeypatch.setattr(models, "z_lambda", lambda lam, _sums: z_lambda_oracle(lam, w, x))
    ref = models.decompose(g7, power_sums(w, x, 7), lay)
    assert set(d.per) == set(ref.per)
    pairs = [(d.lin, ref.lin), (d.deformation, ref.deformation), (d.eps, ref.eps)]
    pairs += [(d.per[m], ref.per[m]) for m in ref.per]
    # Errors are relative to the matrix the components split.
    scale = np.linalg.norm(pw_matrix(g7, w, x, lay))
    for got, want in pairs:
        assert np.linalg.norm(got - want) <= 1e-12 * scale


def test_decompose_rejects_even_and_large():
    lay = BlockLayout(4, 4, 4)
    w, x = np.ones((4, 4)), np.ones((4, 4))
    with pytest.raises(ValueError):
        decompose(monomial(2), power_sums(w, x, 2), lay)
    with pytest.raises(ValueError):
        decompose(monomial(9), power_sums(w, x, 9), lay)


# -- profile matrices -------------------------------------------------------------


def lambda_ell(profile_w, profile_x, layout, ell):
    """Oracle: N^{-1} (Gamma_w ^ o ell) (Gamma_x ^ o ell) as a realized N1 x N2 matrix."""
    if ell not in (2, 3):
        raise ValueError("lambda_ell supports ell in {2, 3}")
    kernels = models.cell_kernels(profile_w, profile_x, layout.N0)
    table = kernels.k2 if ell == 2 else kernels.k3
    cells = kernels.rows({rc: k * Fraction(layout.N0, layout.N) for rc, k in table.items()})
    return models._broadcast_cells(cells, (layout.N1, layout.N2))


def second_moment_cells(ensemble):
    """Oracle: cellwise squared scale mu^2 = (1/N0) sum_d gamma_w^2 gamma_x^2.

    Equals 1 on every cell for constant unit profiles; the entrywise square
    root of the N-normalized lambda_2 matrix rescaled by 1/psi0.
    """
    kernels = models.cell_kernels(ensemble.profile_w, ensemble.profile_x, ensemble.layout.N0)
    return [list(row) for row in kernels.rows(kernels.k2)]


def second_moment_profile(ensemble):
    """Oracle: realized entrywise scale matrix (square root of second_moment_cells)."""
    root = [[math.sqrt(float(v)) for v in row] for row in second_moment_cells(ensemble)]
    return models._broadcast_cells(root, (ensemble.layout.N1, ensemble.layout.N2))


def test_lambda_ell_constant_profile():
    lay = BlockLayout(4, 3, 5)
    lam2 = lambda_ell(StepProfile.constant(), StepProfile.constant(), lay, 2)
    assert np.allclose(lam2, lay.N0 / lay.N)
    zero = lambda_ell(StepProfile.constant(0), StepProfile.constant(), lay, 2)
    assert not zero.any()
    with pytest.raises(ValueError):
        lambda_ell(StepProfile.constant(), StepProfile.constant(), lay, 4)


def test_lambda_ell_step_grid_matches_dense_product():
    lay = BlockLayout(4, 4, 4)
    pw_grid = StepProfile.of([[1, Fraction(1, 2)], [Fraction(3, 2), 1]])
    px_grid = StepProfile.of([[2, 1], [1, Fraction(1, 2)]])
    for ell in (2, 3):
        got = lambda_ell(pw_grid, px_grid, lay, ell)
        gw, gx = pw_grid.realize(4, 4), px_grid.realize(4, 4)
        dense = (gw**ell) @ (gx**ell) / lay.N
        assert np.allclose(got, dense)


def test_second_moment_profile_is_one_for_constant():
    ens = const_ensemble(6, 5, 4)
    assert np.allclose(second_moment_profile(ens), 1.0)
    cells = second_moment_cells(ens)
    assert cells == [[Fraction(1)]]


def test_second_moment_profile_scales_with_lambda2():
    lay = BlockLayout(4, 4, 4)
    pw_grid = StepProfile.of([[1, Fraction(1, 2)], [Fraction(3, 2), 1]])
    px_grid = StepProfile.of([[2, 1], [1, Fraction(1, 2)]])
    ens = ProfiledEnsemble(lay, EntryLaw.gaussian(), EntryLaw.gaussian(), pw_grid, px_grid)
    m2 = second_moment_profile(ens)
    lam2 = lambda_ell(pw_grid, px_grid, lay, 2)
    # the equivalents use the inner-normalized scale: psi0 * m2^2 = lambda2
    assert np.allclose((lay.N0 / lay.N) * m2**2, lam2)


# -- the Gaussian equivalents ------------------------------------------------------


def test_equivalent_lin_h1_reduces_to_wishart_factor():
    ens = const_ensemble(6, 5, 4)
    lay = ens.layout
    got = equivalent_lin(monomial(1), ens, seed=12)
    from pwtraffic.models import STREAM_LIN_W, STREAM_LIN_X

    w = np.random.default_rng([12, STREAM_LIN_W]).standard_normal((lay.N1, lay.N0))
    x = np.random.default_rng([12, STREAM_LIN_X]).standard_normal((lay.N0, lay.N2))
    assert np.allclose(got, w @ x / lay.N)


def test_equivalent_lin_hermite_coefficient_vanishes_at_constant_profile():
    # E[g_n'(xi mu)] = 0 iff mu = 1 for n >= 2; constant unit profiles give mu = 1
    ens = const_ensemble(6, 5, 4)
    for n in (3, 5):
        assert not equivalent_lin(hermite(n), ens, seed=1).any()
    stepped = ProfiledEnsemble(
        ens.layout,
        ens.law_w,
        ens.law_x,
        StepProfile.of([[1, 2]]),
        StepProfile.constant(),
    )
    assert equivalent_lin(hermite(3), stepped, seed=1).any()


def test_equivalent_lin_coefficient_symbolic():
    # coefficient for degree-n monomials: n mu^{n-1} E[xi^{n-1}]
    for n in range(1, 8):
        mu_sq = Fraction(4, 9)
        got = expect_scaled(monomial(n).derivative(1), mu_sq)
        want = n * Fraction(2, 3) ** (n - 1) * gaussian_moment(n - 1)
        assert got == want


def test_equivalent_per_zero_cases():
    ens = const_ensemble(6, 5, 4)
    assert not equivalent_per(monomial(1), ens, m=2, seed=2).any()  # degree < m
    assert not equivalent_per(monomial(3), ens, m=2, seed=2).any()  # odd Gaussian moment
    with pytest.raises(ValueError):
        equivalent_per(monomial(3), ens, m=1, seed=2)


def test_per_noise_family_normalization():
    ens = const_ensemble(6, 5, 4)
    lay = ens.layout
    fam = per_noise_family(ens, seed=4, max_order=5)
    assert set(fam) == {2, 3, 4, 5}
    psi0 = lay.N0 / lay.N
    from pwtraffic.models import STREAM_PER

    for n, mat in fam.items():
        g = np.random.default_rng([4, STREAM_PER, n]).standard_normal((lay.N1, lay.N2))
        assert np.allclose(mat, math.sqrt(psi0 * math.factorial(n) / lay.N) * g)


def test_per_matrix_constant_profile_matches_hermite_assembly():
    # for constant profiles the chaos part is the Hermite-coefficient sum
    ens = const_ensemble(6, 5, 4)
    fam = per_noise_family(ens, seed=8, max_order=5)
    for p in (monomial(3), monomial(5), hermite(3), hermite(5)):
        assembled = sum(
            (float(c) * fam[n] for n, c in enumerate(hermite_coeffs(p)) if n >= 2 and c != 0),
            np.zeros((5, 4)),
        )
        assert np.allclose(per_matrix(p, ens, seed=8), assembled)


def test_per_matrix_example_weights():
    # chaos of x^3 is sqrt(6) times a variance-psi0/N noise; x^5 mixes orders
    ens = const_ensemble(6, 5, 4)
    fam = per_noise_family(ens, seed=3, max_order=5)
    z1 = fam[3] / math.sqrt(math.factorial(3))
    z2 = fam[5] / math.sqrt(math.factorial(5))
    assert np.allclose(per_matrix(monomial(3), ens, seed=3), math.sqrt(6) * z1)
    assert np.allclose(
        per_matrix(monomial(5), ens, seed=3), 10 * math.sqrt(6) * z1 + 2 * math.sqrt(30) * z2
    )


def test_equivalent_def_examples():
    ens = const_ensemble(6, 5, 4, law=EntryLaw.rademacher())
    assert not equivalent_def(monomial(3), ens).any()
    mixed = ProfiledEnsemble(
        ens.layout, unit_skewed_law(), EntryLaw.gaussian(), StepProfile.constant(), StepProfile.constant()
    )
    assert not equivalent_def(monomial(3), mixed).any()  # m3_w * m3_x = 0
    skew = const_ensemble(6, 5, 4, law=unit_skewed_law())
    got = equivalent_def(monomial(3), skew)
    want = float(Fraction(3, 2) ** 2) / skew.layout.N
    assert np.allclose(got, want)
    assert not equivalent_def(monomial(1), skew).any()


def test_coefficient_cells_past_the_float_range_are_refused_by_cell():
    # w-row cell 1 of 1e300: K_2 about 1e600 and K_3 about 1e900 in cell
    # (1, 0), exact as rationals but past the float range; cell (0, 0) fits
    law = unit_skewed_law()
    ens = ProfiledEnsemble(BlockLayout(6, 5, 4), law, law, StepProfile.of([["1"], ["1e300"]]), StepProfile.constant())
    h3 = monomial(3)
    for cells in (
        lambda: models._lin_coefficient_cells(h3, ens),
        lambda: models._per_coefficient_cells(h3, ens, 3),
        lambda: models._def_cells(h3, ens),
    ):
        with pytest.raises(ValueError, match=r"profile cell \(1, 0\) does not fit a float"):
            cells()


def test_equivalent_sum_assembles():
    ens = const_ensemble(6, 5, 4, law=unit_skewed_law())
    h3 = monomial(3)
    total = equivalent_sum(h3, ens, seed=5)
    parts = (
        equivalent_lin(h3, ens, 5) + per_matrix(h3, ens, 5) + equivalent_def(h3, ens)
    )
    assert np.allclose(total, parts)


def test_equivalents_deterministic_per_seed():
    ens = const_ensemble(6, 5, 4, law=unit_skewed_law())
    h3 = monomial(3)
    a = equivalent_sum(h3, ens, seed=77)
    b = equivalent_sum(h3, ens, seed=77)
    assert (a == b).all()
    c = equivalent_sum(h3, ens, seed=78)
    assert not np.allclose(a, c)
    fam1 = per_noise_family(ens, seed=77, max_order=4)
    fam2 = per_noise_family(ens, seed=77, max_order=4)
    assert all((fam1[n] == fam2[n]).all() for n in fam1)


# -- cached cells, in-place profiles and the per-trial samplers ---------------------


STEPPED_W = StepProfile.of([[1, Fraction(1, 2), 3], [Fraction(3, 2), 1, 0]])
STEPPED_X = StepProfile.of([[2, 1], [1, Fraction(1, 2)]])


def stepped_ensemble(n0, n1, n2):
    return ProfiledEnsemble(BlockLayout(n0, n1, n2), EntryLaw.gaussian(), unit_skewed_law(), STEPPED_W, STEPPED_X)


def test_profile_apply_matches_realize_bit_for_bit():
    for rows, cols in [(1, 1), (2, 5), (7, 3), (9, 11)]:
        for profile in (STEPPED_W, STEPPED_X, StepProfile.constant(), StepProfile.constant(Fraction(1, 3))):
            a = RNG.standard_normal((rows, cols))
            want = profile.realize(rows, cols) * a
            got = profile.apply(a.copy())
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    # cell blocks follow the ceiling rule, also with more cells than rows:
    # 0-based row i of `total` lies in cell ceil((i + 1) k / total) - 1
    for total in range(1, 12):
        for k in range(1, 5):
            slices = models._cell_slices(total, k)
            want = [-(-(i + 1) * k // total) - 1 for i in range(total)]
            assert [r for r, rows in enumerate(slices) for _ in range(rows.start, rows.stop)] == want


THREE_BY_ONE = StepProfile.of([[1], [2], [Fraction(1, 3)]])


def position_kernel(profile_w, profile_x, n0, ell):
    """Oracle: the finite K_ell per (w-row, x-column) cell, summed over the n0
    inner positions one at a time, each in its ceiling-rule cell."""
    kw, kx = profile_w.n_col_cells, profile_x.n_row_cells
    cells = [(-(-(d + 1) * kw // n0) - 1, -(-(d + 1) * kx // n0) - 1) for d in range(n0)]
    return {
        (r, c): sum(Fraction(1, n0) * profile_w.value(r, cw) ** ell * profile_x.value(rx, c) ** ell for cw, rx in cells)
        for r in range(profile_w.n_row_cells)
        for c in range(profile_x.n_col_cells)
    }


def interval_refinement(kw, kx):
    """Oracle: (measure, w-column cell, x-row cell) per interval of the joint
    refinement of two uniform grids on [0, 1], cells read at the midpoint."""
    pts = sorted({Fraction(i, kw) for i in range(kw + 1)} | {Fraction(j, kx) for j in range(kx + 1)})
    return [(hi - lo, int((lo + hi) / 2 * kw), int((lo + hi) / 2 * kx)) for lo, hi in zip(pts, pts[1:])]


def interval_kernel(profile_w, profile_x, ell):
    """Oracle: the limit K_ell per cell, integrated over the refined intervals."""
    inner = interval_refinement(profile_w.n_col_cells, profile_x.n_row_cells)
    return {
        (r, c): sum(m * profile_w.value(r, cw) ** ell * profile_x.value(rx, c) ** ell for m, cw, rx in inner)
        for r in range(profile_w.n_row_cells)
        for c in range(profile_x.n_col_cells)
    }


@pytest.mark.parametrize(
    "profile_w, profile_x",
    [
        (STEPPED_W, STEPPED_X),
        (STEPPED_X, THREE_BY_ONE),
        (THREE_BY_ONE, STEPPED_X),
        (StepProfile.constant(), THREE_BY_ONE),
        (StepProfile.constant(2), StepProfile.constant()),
    ],
)
def test_finite_kernels_at_multiples_of_lcm_are_the_limit_kernels(profile_w, profile_x):
    kw, kx = profile_w.n_col_cells, profile_x.n_row_cells
    lcm = math.lcm(kw, kx)
    # the overlap table at lcm positions is the interval refinement, in order
    runs = models.cell_overlaps(lcm, kw, kx)
    assert [(Fraction(n, lcm), cw, rx) for n, (cw, rx) in runs] == interval_refinement(kw, kx)
    for n0 in range(1, 8):
        kernels = models.cell_kernels(profile_w, profile_x, n0)
        assert kernels.k2 == position_kernel(profile_w, profile_x, n0, 2), n0
        assert kernels.k3 == position_kernel(profile_w, profile_x, n0, 3), n0
    for n0 in (lcm, 2 * lcm, 5 * lcm):
        kernels = models.cell_kernels(profile_w, profile_x, n0)
        assert kernels.k2 == position_kernel(profile_w, profile_x, n0, 2) == interval_kernel(profile_w, profile_x, 2)
        assert kernels.k3 == position_kernel(profile_w, profile_x, n0, 3) == interval_kernel(profile_w, profile_x, 3)


def test_draw_and_sample_match_realized_profiles():
    ens = stepped_ensemble(7, 5, 6)
    lay = ens.layout
    gw, gx = ens.realized_profiles()
    w, x = ens.draw(np.random.default_rng([3, 1]))
    rng = np.random.default_rng([3, 1])
    assert np.array_equal(w, gw * ens.law_w.sample(rng, (lay.N1, lay.N0)))
    assert np.array_equal(x, gx * ens.law_x.sample(rng, (lay.N0, lay.N2)))
    w, x = ens.sample(9)
    assert np.array_equal(w, gw * ens.law_w.sample(np.random.default_rng([9, models.STREAM_W]), (lay.N1, lay.N0)))
    assert np.array_equal(x, gx * ens.law_x.sample(np.random.default_rng([9, models.STREAM_X]), (lay.N0, lay.N2)))


def test_equivalents_match_broadcast_coefficients():
    # the dense formulas the cached cells replace, built from realized matrices
    ens = stepped_ensemble(7, 5, 6)
    lay = ens.layout
    h = monomial(3) + 2 * monomial(5)
    gw, gx = ens.realized_profiles()
    mu_sq = second_moment_cells(ens)
    lin_coeff = models._broadcast_cells([[expect_scaled(h.derivative(1), v) for v in row] for row in mu_sq], (5, 6))
    w = gw * np.random.default_rng([4, models.STREAM_LIN_W]).standard_normal((lay.N1, lay.N0))
    x = gx * np.random.default_rng([4, models.STREAM_LIN_X]).standard_normal((lay.N0, lay.N2))
    assert np.array_equal(equivalent_lin(h, ens, 4), lin_coeff * (w @ x) / lay.N)
    for m in (2, 3, 4, 5):
        coeff = models._broadcast_cells(models._per_coefficient_cells(h, ens, m), (5, 6))
        z = np.random.default_rng([4, models.STREAM_PER, m]).standard_normal((5, 6))
        assert np.array_equal(equivalent_per(h, ens, m, 4), coeff * z / math.sqrt(lay.N))
    # cached cell values are immutable and shared between calls
    cells = models._lin_coefficient_cells(h, ens)
    assert isinstance(cells, tuple) and all(isinstance(row, tuple) for row in cells)
    assert models._lin_coefficient_cells(h, stepped_ensemble(7, 5, 6)) is cells


def test_samplers_draw_order():
    ens = stepped_ensemble(7, 5, 6)
    lay = ens.layout
    h3, g3 = monomial(3), hermite(3)
    fam = model_sampler(ens, [h3, g3])(np.random.default_rng([8, 2]))
    w, x = ens.draw(np.random.default_rng([8, 2]))
    assert np.array_equal(fam[h3].matrix, pw_matrix(h3, w, x, lay))
    assert np.array_equal(fam[g3].matrix, pw_matrix(g3, w, x, lay))
    fam = equivalent_sampler(ens, [h3])(np.random.default_rng([8, 2]))
    seed = int(np.random.default_rng([8, 2]).integers(0, 2**63 - 1))
    assert np.array_equal(fam[h3].matrix, equivalent_sum(h3, ens, seed))
    assert distinct_labels([moment_cycle(2, h3), single_edge(g3), single_edge(h3)]) == [h3, g3]


def test_decompose_refuses_a_short_or_misshapen_table():
    lay = BlockLayout(4, 3, 5)
    w, x = np.ones((3, 4)), np.ones((4, 5))
    for sums in (power_sums(w, x, 4), power_sums(x.T, w.T, 5)):  # stops below 5; N2 x N1
        with pytest.raises(ValueError, match="power-sum table"):
            decompose(monomial(5), sums, lay)


def test_decompose_hands_back_the_total():
    lay = BlockLayout(6, 4, 5)
    w, x = RNG.standard_normal((4, 6)), RNG.standard_normal((6, 5))
    parts = decompose(monomial(5), power_sums(w, x, 5), lay)
    assert np.array_equal(parts.total, pw_matrix(monomial(5), w, x, lay))


# -- the in-place decomposition against its allocating oracle ------------------------

DECOMPOSE_LABELS = [monomial(1), monomial(3), monomial(5), monomial(7), hermite(5), hermite(7)]


def assert_same_components(got, want):
    assert set(got.per) == set(want.per)
    pairs = [(got.lin, want.lin), (got.deformation, want.deformation), (got.eps, want.eps), (got.total, want.total)]
    pairs += [(got.per[m], want.per[m]) for m in want.per]
    for a, b in pairs:
        assert a.dtype == b.dtype and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_decompose_equals_the_allocating_oracle():
    # N1 = 17 fills one short row tile of z_lambda; 2 tiles + 5 rows ends on a short one
    for ens in (stepped_ensemble(19, 17, 21), stepped_ensemble(19, 2 * models._ROW_TILE + 5, 21)):
        for seed in (0, 7, 301):
            w, x = ens.sample(seed)
            for h in DECOMPOSE_LABELS:
                got = decompose(h, power_sums(w, x, h.degree), ens.layout)
                want = decompose_oracle.decompose(h, w, x, ens.layout)
                assert_same_components(got, want)
                # the allocating reassembly: ((lin + def) + eps) + per orders
                assert np.array_equal(got.reassembled(), sum(want.per.values(), want.lin + want.deformation + want.eps))


def test_decompose_equals_the_allocating_oracle_on_integers():
    lay = BlockLayout(7, 5, 6)
    w, x = RNG.integers(-3, 4, (5, 7)), RNG.integers(-3, 4, (7, 6))
    for h in DECOMPOSE_LABELS:
        assert_same_components(decompose(h, power_sums(w, x, h.degree), lay), decompose_oracle.decompose(h, w, x, lay))
    sums = power_sums(w, x, 7)
    for lam in partitions_up_to_parts(7, 7):
        got = z_lambda(lam, sums)
        want = decompose_oracle.z_lambda(lam, decompose_oracle.power_sums(w, x, lam.total))
        assert got.dtype == object and (got == want).all(), lam


def test_z_lambda_stays_exact_across_row_tiles():
    # two full row tiles and a short one, on integer inputs: object arrays,
    # equal to the allocating oracle in every row
    rng = np.random.default_rng(22)
    lay = BlockLayout(6, 2 * models._ROW_TILE + 5, 4)
    w, x = rng.integers(-3, 4, (lay.N1, lay.N0)), rng.integers(-3, 4, (lay.N0, lay.N2))
    sums = power_sums(w, x, 7)
    for lam in partitions_up_to_parts(7, 7):
        want = decompose_oracle.z_lambda(lam, decompose_oracle.power_sums(w, x, lam.total))
        for got in (z_lambda(lam, power_sums(w, x, lam.total)), z_lambda(lam, sums)):
            assert got.dtype == object and (got == want).all(), lam
    for h in DECOMPOSE_LABELS:
        assert_same_components(decompose(h, power_sums(w, x, h.degree), lay), decompose_oracle.decompose(h, w, x, lay))


def test_in_place_steps_leave_their_inputs_alone():
    lay = BlockLayout(9, 8, 7)
    cases = [(RNG.standard_normal((8, 9)), RNG.standard_normal((9, 7))), (RNG.integers(-3, 4, (8, 9)), RNG.integers(-3, 4, (9, 7)))]
    for w, x in cases:
        w0, x0 = w.copy(), x.copy()
        sums = power_sums(w, x, 7)
        table0 = {m: u.copy() for m, u in sums.items()}
        for lam in partitions_up_to_parts(7, 7):
            z_lambda(lam, power_sums(w, x, lam.total))
            z_lambda(lam, sums)
        for h in DECOMPOSE_LABELS:
            decompose(h, sums, lay)
            pw_matrix(h, w, x, lay)
        assert w.tobytes() == w0.tobytes() and x.tobytes() == x0.tobytes()
        for m, u in sums.items():
            assert u.dtype == table0[m].dtype and np.array_equal(u, table0[m]), m
            if u.dtype != object:
                assert u.tobytes() == table0[m].tobytes()


def test_two_point_sample_is_the_where_form():
    for law in (EntryLaw.rademacher(), unit_skewed_law()):
        for seed in (0, 5):
            u = np.random.default_rng(seed).random((13, 11))
            want = np.where(u < float(law.p), float(law.a), float(law.b))
            got = law.sample(np.random.default_rng(seed), (13, 11))
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_equivalent_sum_adds_no_zero_deformation(monkeypatch):
    gauss = ProfiledEnsemble(BlockLayout(7, 5, 6), EntryLaw.gaussian(), EntryLaw.gaussian(), STEPPED_W, STEPPED_X)
    h = hermite(5) + monomial(3)
    want = equivalent_lin(h, gauss, 4)
    want += per_matrix_every_order(h, gauss, 4)
    monkeypatch.setattr(models, "_deformation_term", lambda *args: pytest.fail("zero deformation built"))
    assert models._def_cells(h, gauss) is None
    assert np.array_equal(equivalent_sum(h, gauss, 4), want)


# -- no draws for vanishing chaos orders --------------------------------------------


def per_matrix_every_order(h, ensemble, seed):
    """Oracle: every chaos order 2..deg h drawn and added, vanishing or not."""
    lay = ensemble.layout
    out = np.zeros((lay.N1, lay.N2))
    for m in range(2, h.degree + 1):
        z_m = np.random.default_rng([seed, models.STREAM_PER, m]).standard_normal((lay.N1, lay.N2))
        term = models._scale_cells(z_m, models._per_coefficient_cells(h, ensemble, m))
        term /= math.sqrt(lay.N)
        out += term
    return out


def recorded_streams(monkeypatch):
    """Patch the generator factory to record every seed it is given."""
    seeds = []
    real = np.random.default_rng

    def recording(seed):
        seeds.append(tuple(seed))
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    return seeds


def test_skipped_chaos_orders_change_nothing():
    ens = stepped_ensemble(7, 5, 6)
    for h in (monomial(3), monomial(5), hermite(5) + monomial(3)):
        for seed in (0, 4, 91):
            want = per_matrix_every_order(h, ens, seed)
            got = per_matrix(h, ens, seed)
            assert got.tobytes() == want.tobytes()
            full = equivalent_lin(h, ens, seed)
            full += want
            full += equivalent_def(h, ens)
            assert equivalent_sum(h, ens, seed).tobytes() == full.tobytes()


def test_only_vanishing_orders_are_skipped(monkeypatch):
    ens = stepped_ensemble(7, 5, 6)
    odd, mixed = hermite(5) + monomial(3), monomial(3) + monomial(2)
    seeds = recorded_streams(monkeypatch)
    per_matrix(odd, ens, 4)
    assert seeds == [(4, models.STREAM_PER, 3), (4, models.STREAM_PER, 5)]
    seeds.clear()
    assert not equivalent_per(odd, ens, 2, 4).any() and seeds == []
    got = per_matrix(mixed, ens, 4)
    assert seeds == [(4, models.STREAM_PER, 2), (4, models.STREAM_PER, 3)]
    monkeypatch.undo()
    assert got.tobytes() == per_matrix_every_order(mixed, ens, 4).tobytes()
    assert equivalent_per(mixed, ens, 2, 4).all()
