import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimoduli import form_problem as fp
from trimoduli import reflection_group as rg
from trimoduli.qutrit_state import random_parameter_triple

from oracles import (
    EPS,
    IDENTITY_ROWS,
    Cyclo,
    cluster_labels_brute,
    conjugate_transpose_rows,
    element_complex,
    element_order,
    element_rows,
    exact_rows,
    inverse_rows,
    is_abelian,
    is_pseudo_reflection,
    matrix_stack,
    mul_rows,
    orbit_exact,
    orbit_stack,
    pairs,
    set_distance,
    solve_for_triple,
    sort_rows,
    stabilizer_exact,
    stabilizer_stack,
    stabilizer_type_exact,
)

IDENTITY = pairs(IDENTITY_ROWS)
# from a subnormal 2**-1070 to 2**1000
BINARY_SCALES = tuple(2.0 ** k for k in (-1070, -1000, -600, 600, 1000))


def product(g, h) -> tuple:
    """The 18 ints of g @ h, by exact products of `Cyclo` rows."""
    return pairs(mul_rows(exact_rows(g), exact_rows(h)))


def contains(group, g) -> bool:
    return bool((group.ints == np.array(g)).all(axis=1).any())


class TestGenerators:
    def test_fourier_prefactor_is_exact(self):
        # (eps - eps^2)^2 = -3, so 1/(i sqrt 3) = (eps^2 - eps)/3 in Q(eps)
        diff = EPS - EPS * EPS
        assert diff * diff == Cyclo(-3)

    def test_e_squared_is_minus_swap(self):
        g = rg.generators()
        minus_b = pairs(tuple(tuple(-x for x in row) for row in exact_rows(g["B"])))
        assert product(g["E"], g["E"]) == minus_b

    def test_cycle_has_order_three(self):
        a = rg.generators()["A"]
        assert product(product(a, a), a) == IDENTITY
        assert element_order(exact_rows(a)) == 3

    def test_generators_equal_their_cyclo_rows(self):
        # the table of 3 * entry against the matrices written in Q(eps)
        e, e2 = EPS, EPS * EPS
        pref = (e2 - e) / 3  # equals 1/(i*sqrt(3)); its square is -1/3
        want = {
            "A": pairs(((0, 1, 0), (0, 0, 1), (1, 0, 0))),
            "B": pairs(((1, 0, 0), (0, 0, 1), (0, 1, 0))),
            "C": pairs(((1, 0, 0), (0, e, 0), (0, 0, e2))),
            "D": pairs(((1, 0, 0), (0, e, 0), (0, 0, e))),
            "E": pairs(((pref, pref, pref), (pref, pref * e, pref * e2),
                        (pref, pref * e2, pref * e))),
        }
        assert rg.generators() == want

    def test_generators_are_unitary(self):
        # the cyclic group of g holds g, and is unitary exactly when g is
        for name, g in rg.generators().items():
            assert rg.is_unitary(rg.generate_closure((g,))), name


INTS = st.integers(min_value=-10 ** 6, max_value=10 ** 6)


class TestEisenstein:
    @settings(max_examples=200, deadline=None)
    @given(INTS, INTS, INTS, INTS, INTS)
    def test_agrees_with_cyclo(self, a, b, c, d, n):
        x, y = rg.Eisenstein(a, b), rg.Eisenstein(c, d)
        ox, oy = Cyclo(a, b), Cyclo(c, d)
        for got, want in ((x + y, ox + oy), (x - y, ox - oy), (x * y, ox * oy), (-x, -ox),
                          (x + n, ox + n), (n + x, n + ox), (x - n, ox - n),
                          (x * n, ox * n), (n * x, n * ox),
                          (x * Fraction(n, 7), ox * Fraction(n, 7)), (x, ox)):
            assert Cyclo(got.a, got.b) == want
            assert bool(got) == bool(want)
            assert complex(got) == want.to_complex() == complex(want)
            assert abs(got) == abs(want.to_complex())

    def test_zero_and_scalars(self):
        assert not rg.Eisenstein(0, 0) and rg.Eisenstein(0, 1) and rg.Eisenstein(-1, 0)
        assert rg.Eisenstein(2, 3).__mul__(0.5) is NotImplemented
        assert complex(rg.Eisenstein(0, 1)) == rg.EPS_COMPLEX == EPS.to_complex()


def _cyclo_closure(gens):
    """Breadth-first closure of 3x3 `Cyclo` row tuples, sorted by entry: the
    oracle for the integer-encoded closure of `generate_closure`."""
    seen, frontier = {IDENTITY_ROWS}, [IDENTITY_ROWS]
    while frontier:
        new = []
        for g in frontier:
            for h in gens:
                prod = mul_rows(g, h)
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
        frontier = new
    return sorted(seen, key=lambda m: tuple((e.a, e.b) for row in m for e in row))


class TestIntegerEncoding:
    def test_from_rows_rejects_entries_outside_third_integers(self):
        with pytest.raises(ValueError, match=r"\(1/3\)Z\[eps\]"):
            pairs(((Fraction(1, 2), 0, 0), (0, 1, 0), (0, 0, 1)))

    def test_inverse_rejects_non_unit_scaling(self):
        # the inverse of a non-unit scaling has an entry 1/2
        with pytest.raises(ValueError):
            pairs(inverse_rows(exact_rows(pairs(((2, 0, 0), (0, 1, 0), (0, 0, 1))))))

    def test_product_leaving_third_integers_raises(self):
        third = pairs(((Fraction(1, 3), 0, 0), (0, 1, 0), (0, 0, 1)))
        with pytest.raises(ArithmeticError):
            rg.generate_closure((third,))

    def test_rows_round_trip(self):
        for g in rg.generators().values():
            assert pairs(exact_rows(g)) == g
            assert all(isinstance(e, Cyclo) for row in exact_rows(g) for e in row)

    def test_complex_entries_match_cyclo(self, group_k):
        for grp in (group_k, rg.group_h()):
            want = np.array([element_complex(g) for g in element_rows(grp)])
            assert grp.matrices.dtype == np.complex128
            assert np.array_equal(grp.matrices.view(np.uint64), want.view(np.uint64))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1295), st.integers(0, 1295)),
                    min_size=1, max_size=8))
    def test_product_matches_cyclo_oracle(self, index_pairs):
        # 9 * (g @ h) on rows of the order-1296 group, one batched call on
        # int64 rows and one on rows of Python ints
        ints = rg.group_h().ints
        i, j = np.array(index_pairs).T
        want = [[3 * v for v in product(g, h)]
                for g, h in zip(ints[i].tolist(), ints[j].tolist())]
        for dtype in (np.int64, object):
            got = rg._product(ints[i].astype(dtype), ints[j].astype(dtype))
            assert got.dtype == dtype and got.tolist() == want

    def test_closure_matches_cyclo_oracle(self, group_k):
        for grp in (group_k, rg.group_h()):
            assert grp.ints.dtype == np.int64 and grp.ints.shape == (grp.order, 18)
            oracle = _cyclo_closure([exact_rows(g) for g in grp.gens])
            assert element_rows(grp) == oracle


class TestClosure:
    def test_orders(self, group_k):
        assert group_k.order == 648
        assert rg.group_h().order == 1296

    def test_identity_closure(self):
        assert rg.generate_closure(()).order == 1
        assert rg.generate_closure((IDENTITY,)).order == 1

    def test_coset_union_equals_closure(self):
        # group_h is K together with K.B; the closure of all five generators
        # gives the same group, row for row and bit for bit
        g = rg.generators()
        closed = rg.generate_closure(tuple(g[name] for name in "ABCDE"))
        h = rg.group_h()
        assert h.gens == closed.gens
        assert h.ints.dtype == closed.ints.dtype == np.int64
        assert np.array_equal(h.ints.view(np.uint64), closed.ints.view(np.uint64))
        assert np.array_equal(h.matrices.view(np.uint64), closed.matrices.view(np.uint64))

    def test_index_two(self, group_k):
        h = rg.group_h()
        b = rg.generators()["B"]
        assert contains(h, b)
        assert not contains(group_k, b)
        assert all(contains(h, g) for g in group_k.ints[:20])

    def test_rounds_on_int64_or_python_ints(self, group_k, monkeypatch):
        # K's rounds run on int64; K conjugated by a shear with entry 2**20
        # has entries near 3 * 2**41, so its rounds run on Python ints
        n = 2 ** 20
        shear = np.array(pairs(((1, n, 0), (0, 1, 0), (0, 0, 1))), dtype=object)
        inverse = np.array(pairs(((1, -n, 0), (0, 1, 0), (0, 0, 1))), dtype=object)

        def conjugate(ints):
            return rg._product(rg._product(shear, ints.astype(object)) // 3, inverse) // 3

        gens = list(map(tuple, conjugate(np.array(group_k.gens)).tolist()))
        want = sorted(map(tuple, conjugate(group_k.ints).tolist()))
        assert max(max(map(abs, g)) for g in want) > 2 ** 40
        dtypes = []
        product = rg._product
        monkeypatch.setattr(rg, "_product", lambda x, y: dtypes.append(x.dtype) or product(x, y))
        assert np.array_equal(rg.generate_closure(group_k.gens).ints, group_k.ints)
        assert set(dtypes) == {np.dtype(np.int64)}
        dtypes.clear()
        assert np.array_equal(rg.generate_closure(gens).ints, np.array(want, dtype=np.int64))
        assert set(dtypes) == {np.dtype(object)}

    def test_cap_exceeded(self, monkeypatch):
        # a non-unit scaling generates an infinite group
        bad = pairs(((2, 0, 0), (0, 1, 0), (0, 0, 1)))
        monkeypatch.setattr(rg, "CLOSURE_CAP", 64)
        with pytest.raises(RuntimeError, match="cap"):
            rg.generate_closure((bad,))

    def test_all_unitary(self, group_k):
        assert rg.is_unitary(group_k)
        assert rg.is_unitary(rg.group_h())

    def test_changed_entry_is_not_unitary(self, group_k):
        # one entry 1 of one element becomes 2 (3 * entry from 3 to 6)
        row, col = np.argwhere(group_k.ints == 3)[0]
        ints = group_k.ints.copy()
        ints[row, col] = 6
        assert not rg.is_unitary(rg.MatrixGroup(ints, group_k.gens, *rg._row_table(ints)))

    def test_closure_properties(self, group_k):
        assert contains(group_k, IDENTITY)
        sample = group_k.ints[::97].tolist()
        for g in sample:
            rows = exact_rows(g)
            # unitary, so the inverse is the conjugate transpose
            assert conjugate_transpose_rows(rows) == inverse_rows(rows)
            assert contains(group_k, pairs(conjugate_transpose_rows(rows)))
            for h in sample:
                assert contains(group_k, product(g, h))


class TestOrbits:
    def test_orbit_of_zero_is_one_row_without_clustering(self, group_k, monkeypatch):
        def refuse(*args):
            raise AssertionError("cluster_points reached")

        monkeypatch.setattr(rg, "cluster_points", refuse)
        for zero in ((0, 0, 0), (0j, -0.0, complex(-0.0, -0.0)), np.zeros(3)):
            orb = rg.orbit(group_k, zero)
            assert orb.dtype == np.complex128 and orb.shape == (1, 3)
            assert np.array_equal(orb.view(np.uint64), np.zeros((1, 6), dtype=np.uint64))

    def test_mirror_point_orbit(self, group_k):
        orb = rg.orbit(group_k, (1, -1, 0))
        assert len(orb) == 27
        stab = rg.stabilizer(group_k, (1, -1, 0))
        assert stab.order == 24
        assert len(orb) * stab.order == group_k.order

    def test_orbit_float_matches_exact(self, group_k):
        # a generic integer triple and one point of each degenerate stratum,
        # given as ints, Fractions, `Cyclo` values and complex numbers
        elements = element_rows(group_k)
        for triple in ((1, 2, 5), (1, 1, 0), (1, 0, 0), (1, -1, 0), (0, 0, 0),
                       (Fraction(1, 3), EPS, -1)):
            exact = orbit_exact(elements, triple)
            exact_pts = [tuple(x.to_complex() for x in p) for p in exact]
            for given in (triple, tuple(Cyclo.coerce(c) for c in triple),
                          tuple(Cyclo.coerce(c).to_complex() for c in triple)):
                flo = rg.orbit(group_k, given)
                assert flo.dtype == np.complex128 and flo.shape == (len(exact), 3)
                assert np.array_equal(flo.view(np.uint64), sort_rows(flo).view(np.uint64))
                assert set_distance(exact_pts, flo) < 1e-12

    def test_sort_rows_matches_six_float_keys(self, group_k):
        # numpy orders complex keys as (Re, Im) pairs: shuffled orbits of a
        # generic triple and of each degenerate stratum, whose rows tie in
        # many coordinates, plus repeated rows and a signed zero
        rng = np.random.default_rng(812)
        for triple in (random_parameter_triple(81), (0, 1, -1), (1, 0, 0), (1, 1, 0)):
            orb = rg.orbit(group_k, triple)
            pts = np.concatenate([orb, orb[:5], orb[:1] * -1.0])
            pts[-1, np.abs(pts[-1]) == 0] = complex(-0.0, -0.0)
            pts = pts[rng.permutation(len(pts))]
            want = pts[np.lexsort(pts.view(float)[:, ::-1].T)]
            assert np.array_equal(sort_rows(pts).view(np.uint64), want.view(np.uint64))
            # and so does a stable sort of the key of `image_keys`, on the images
            vals, key = rg.image_keys(group_k, rg.unit_size(triple)[0])
            got = vals[group_k.rows[np.argsort(key, kind="stable")]]
            want = got[np.lexsort(got.view(float)[:, ::-1].T)]
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_float_stabilizer_matches_exact(self, group_k):
        elements = element_rows(group_k)
        for triple in ((1, -1, 0), (0, 1, -1), (1, 0, 0), (1, 1, 0), (1, 2, 5), (0, 0, 0),
                       (Fraction(1, 3), EPS, -1)):
            exact = stabilizer_exact(elements, triple)
            members = [i for i, g in enumerate(elements) if g in exact]
            for given in (triple, tuple(Cyclo.coerce(c).to_complex() for c in triple)):
                flo = rg.stabilizer(group_k, given)
                assert element_rows(flo) == exact, triple
                assert np.array_equal(flo.ints, group_k.ints[members])
                assert np.array_equal(flo.matrices.view(np.uint64),
                                      group_k.matrices[members].view(np.uint64))

    def test_origin(self, group_k):
        orb = rg.orbit(group_k, (0, 0, 0))
        assert len(orb) == 1
        stab = rg.stabilizer(group_k, (0, 0, 0))
        assert stab.order == 648
        assert rg.stabilizer_type(stab) == "full"

    def test_generic_orbit(self, group_k):
        t = random_parameter_triple(7)
        orb = rg.orbit(group_k, tuple(t))
        assert len(orb) == 648
        stab = rg.stabilizer(group_k, tuple(t))
        assert stab.order == 1
        assert rg.stabilizer_type(stab) == "trivial"

    def test_orbit_size_does_not_depend_on_scale(self, group_k):
        # a generic triple and one point of the 216-, 72- and 27-point strata,
        # down to a subnormal triple and up to one whose unscaled images have
        # squared distances beyond the float range
        points = (((0.3 + 0.1j, -0.7j, 1.1), 648), ((1, 1, 0), 216), ((1, 0, 0), 72),
                  ((0, 1, -1), 27), ((0, 0, 0), 1))
        for point, size in points:
            for scale in (1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, *BINARY_SCALES):
                triple = tuple(complex(c) * scale for c in point)
                assert len(rg.orbit(group_k, triple)) == size, (point, scale)
            # a power of two with a normal result scales the orbit bit for bit
            for k in (-600, 600, 1000):
                triple = tuple(complex(c) * 2.0 ** k for c in point)
                assert np.array_equal(rg.orbit(group_k, triple),
                                      rg.ldexp(rg.orbit(group_k, point), k)), (point, k)


def _planted_cloud(seed, radius):
    """Random rows plus planted neighbours: offsets just inside and just
    outside radius and exactly radius (on dyadic rows, radius a power of
    two), chains of steps within radius, exact repeats, and rows that share
    all but one coordinate or project to the same value."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((40, 6))
    rows = [base]
    for factor in (0.3, 0.999, 1.001, 3.0):
        step = rng.standard_normal((40, 6))
        step *= factor * radius / np.linalg.norm(step, axis=1)[:, None]
        rows.append(base + step)
    chain = np.cumsum(np.full((12, 6), 0.9 * radius / np.sqrt(6)), axis=0)
    rows.append(base[0] + chain)
    rows.append(np.repeat(base[:5], 8, axis=0))
    shared = np.repeat(base[5:10], 6, axis=0)
    shared[:, 5] += np.tile(np.arange(6) * 0.6 * radius, 5)
    rows.append(shared)
    normal = np.ones(6) - rg._PROJECTION * rg._PROJECTION.sum()
    normal /= np.linalg.norm(normal)
    rows.append(base[10:15] + 2 * radius * normal)
    dyadic = np.round(base[15:21] * 64) / 64
    rows.extend([dyadic, dyadic + radius * np.eye(6)])
    cloud = np.concatenate(rows)
    return cloud[rng.permutation(len(cloud))]


def _pair_union_calls(monkeypatch):
    """A list that grows by one entry at each call of `_pair_labels`, the
    pair union of `cluster_points`."""
    calls = []
    pair_labels = rg._pair_labels
    monkeypatch.setattr(rg, "_pair_labels",
                        lambda *args: calls.append(len(args[0])) or pair_labels(*args))
    return calls


class TestClusterPoints:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force(self, seed, monkeypatch):
        radius = 2.0 ** -(3 * seed + 10)
        cloud = _planted_cloud(seed, radius)
        calls = _pair_union_calls(monkeypatch)
        labels = rg.cluster_points(cloud, radius)
        assert np.array_equal(labels, cluster_labels_brute(cloud, radius))
        assert len(np.unique(labels)) < len(cloud)
        assert calls == [len(cloud)]

    def test_orbits_take_the_run_path(self, group_k, monkeypatch):
        # the images that `orbit` clusters, of a generic point, of one point
        # of the 27- and 72-point strata, and of an edge point and a mirror
        # point of the 216-point stratum: every run of projections is a
        # star of images within the radius of its first, so the labels come
        # from the runs and the pair union never runs
        calls = _pair_union_calls(monkeypatch)
        points = ((random_parameter_triple(81), 648), ((0, 1, -1), 27), ((1, 0, 0), 72),
                  ((1, 1, 0), 216), ((0, 0.4 - 0.8j, 1.3 + 0.2j), 216))
        for point, size in points:
            t, _ = rg.unit_size(point)
            pts = sort_rows(group_k.matrices @ t)
            flat = np.column_stack([pts.real, pts.imag])
            radius = 1e-9 * float(np.max(np.abs(flat)))
            labels = rg.cluster_points(flat, radius)
            assert np.array_equal(labels, cluster_labels_brute(flat, radius)), point
            assert len(np.unique(labels)) == size
        assert calls == []

    def test_stratum_rows_sharing_coordinates(self, group_k):
        # the 27-point orbit of each of the 648 rows, as solve meets it on
        # a degenerate stratum: many rows equal or equal up to rounding
        pts = group_k.matrices @ np.array([1.0, -1.0, 0j])
        flat = np.column_stack([pts.real, pts.imag])
        for radius in (1e-12, 1e-9, 1e-3, 0.9, 1.8):
            labels = rg.cluster_points(flat, radius)
            assert np.array_equal(labels, cluster_labels_brute(flat, radius)), radius
        assert len(np.unique(rg.cluster_points(flat, 1e-9))) == 27
        assert np.array_equal(rg.cluster_points(np.zeros((648, 6)), 1e-12), np.zeros(648))

    @pytest.mark.parametrize("seed", range(3))
    def test_noisy_stratum_orbits_match_brute_force(self, group_k, seed, monkeypatch):
        # the 648 images of a complex multiple of a stratum point, each moved
        # by noise of length up to the radius, so that runs are no stars
        calls = _pair_union_calls(monkeypatch)
        rng = np.random.default_rng(seed)
        for point in ((0.3 + 0.1j, -0.7j, 1.1), (1, 1, 0), (1, 0, 0), (0, 1, -1)):
            t = np.array([complex(c) for c in point]) * complex(*rng.standard_normal(2))
            pts = group_k.matrices @ t
            flat = np.column_stack([pts.real, pts.imag])
            for radius in (1e-9, 1e-6, 1e-2):
                noise = rng.standard_normal(flat.shape)
                noise *= rng.uniform(0, radius, (len(flat), 1)) / np.linalg.norm(noise, axis=1)[:, None]
                noisy = flat + noise
                for rows in (flat, noisy, noisy[:40]):
                    labels = rg.cluster_points(rows, radius)
                    assert np.array_equal(labels, cluster_labels_brute(rows, radius)), (point, radius)
        assert calls

    def test_small_inputs(self):
        flat = np.array([[0.0, 1, 2, 3, 4, 5], [0.0, 1, 2, 3, 4, 5 + 1e-10]])
        for rows, radius in ((flat[:0], 1.0), (flat[:1], 1.0), (flat, 1e-9), (flat, 1e-11)):
            labels = rg.cluster_points(rows, radius)
            assert np.array_equal(labels, cluster_labels_brute(rows, radius)), (len(rows), radius)
        assert rg.cluster_points(flat, 1e-9).tolist() == [0, 0]
        assert rg.cluster_points(flat, 1e-11).tolist() == [0, 1]

    def test_float_orbit_keeps_lowest_index_point(self, group_k):
        t = np.array([1.0 + 0j, -1.0 + 0j, 0j])
        pts = group_k.matrices @ t
        labels = rg.cluster_points(np.column_stack([pts.real, pts.imag]), 1e-9)
        orb = rg.orbit(group_k, tuple(t))
        assert sorted(map(tuple, pts[np.unique(labels)].view(np.uint64))) \
            == sorted(map(tuple, orb.view(np.uint64)))


def _row_table_inputs() -> list:
    """Triples for the row-table checks: 2,000 random complex triples over
    twenty decades, some with a zero or a real entry; multiples of a point of
    each degenerate stratum and of a mirror point, moved by group elements;
    the zero triple and signed zeros; and power-of-two scales from a
    subnormal 2**-1070 to 2**1000."""
    rng = np.random.default_rng(33)
    z = rng.standard_normal((2000, 3)) + 1j * rng.standard_normal((2000, 3))
    z *= 10.0 ** rng.uniform(-10, 10, (2000, 1))
    z[::7, 1] = 0
    z[::11] = z[::11].real
    triples = [tuple(t) for t in z]
    k = rg.group_k()
    strata = ((0, 1, -1), (1, 0, 0), (1, 1, 0), (1, -1, 0), (0, 0.4 - 0.8j, 1.3 + 0.2j))
    for point in strata:
        for c in (1, -1, 1j, 0.3 - 0.4j, 1e-7, 3e5 + 1j):
            t = np.array([complex(x) * c for x in point])
            triples += [tuple(t)] + [tuple(g @ t) for g in k.matrices[rng.integers(648, size=4)]]
    triples += [(0, 0, 0), (0j, -0.0, complex(-0.0, -0.0)), (-0.0, 0.0, -0.0), (0, 1, -0.0)]
    for point in ((1, 2, 5), (0.3 + 0.1j, -0.7j, 1.1)) + strata:
        triples += [tuple(complex(x) * 2.0 ** p for x in point)
                    for p in (*range(-1070, 1000, 83), 1000)]
    return triples


class TestRowTable:
    def test_72_distinct_rows_rebuild_the_stack(self, group_k):
        for grp in (group_k, rg.group_h()):
            assert grp.forms.shape == (72, 3) and grp.rows.shape == (grp.order, 3)
            assert len(np.unique(grp.forms.view(np.uint64), axis=0)) == 72
            stack = matrix_stack(grp.ints)
            assert np.array_equal(grp.forms[grp.rows].view(np.uint64), stack.view(np.uint64))
            assert np.array_equal(grp.matrices.view(np.uint64), stack.view(np.uint64))

    def test_orbit_and_stabilizer_match_the_stack(self, group_k):
        # bit for bit against the product with the whole matrix stack, its
        # six-key lexsort and its clustering
        triples = _row_table_inputs()
        assert len(triples) > 2000
        for grp in (group_k, rg.group_h()):
            stack = matrix_stack(grp.ints)
            for t in triples:
                got, want = rg.orbit(grp, t), orbit_stack(stack, t)
                assert got.shape == want.shape, t
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), t
                stab = rg.stabilizer(grp, t)
                members = stabilizer_stack(stack, t)
                assert np.array_equal(stab.ints, grp.ints[members]), t
                assert stab.forms is grp.forms and np.array_equal(stab.rows, grp.rows[members])

    def test_orbit_beyond_float_range_raises(self, group_k):
        # images of (1.7e308,) * 3 reach about 2.9e308 when scaled back; the
        # largest images of (1.7e308, 0, 0) stay at its own size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for triple in ((1.7e308,) * 3, (1.7e308, 1.7e308j, 0)):
                with pytest.raises(OverflowError, match="float range"):
                    rg.orbit(group_k, triple)
            orb = rg.orbit(group_k, (1.7e308, 0, 0))
        assert len(orb) == 72 and np.isfinite(orb).all()


class TestStabilizerTypes:
    def test_mirror_point_is_g4(self, group_k):
        stab = rg.stabilizer(group_k, (1, -1, 0))
        assert rg.stabilizer_type(stab) == "G4"
        assert not is_abelian(element_rows(stab))
        assert any(is_pseudo_reflection(g) and element_order(g) == 3 for g in element_rows(stab))

    def test_72_stratum_is_c3xc3(self, group_k):
        sol = fp.solve(fp.FormProblemInput(1, 1, 1, i9=0))
        stab = rg.stabilizer(group_k, sol.triples[0], tol=1e-6)
        assert stab.order == 9
        assert rg.stabilizer_type(stab) == "C3xC3"
        assert is_abelian(element_rows(stab))
        assert all(element_order(g) == 3 for g in element_rows(stab) if g != IDENTITY_ROWS)

    def test_216_stratum_is_c3(self, group_k):
        sol = fp.solve(fp.FormProblemInput(1, 0.25, -0.125, i9=0))
        stab = rg.stabilizer(group_k, sol.triples[0], tol=1e-6)
        assert stab.order == 3
        assert rg.stabilizer_type(stab) == "C3"

    def test_order_does_not_depend_on_scale(self, group_k):
        # a generic triple and one point of the 216-, 72- and 27-point strata
        points = ((tuple(random_parameter_triple(32)), 1), ((1, 1, 0), 3),
                  ((1, 0, 0), 9), ((0, 1, -1), 24), ((0, 1.7j, -1.7j), 24))
        for point, order in points:
            for scale in (1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3, *BINARY_SCALES):
                triple = tuple(complex(c) * scale for c in point)
                assert rg.stabilizer(group_k, triple, tol=1e-6).order == order, (point, scale)

    def test_float_selection_matches_elementwise_loop(self, group_k):
        # the per-element test that the one batched product replaced
        points = (tuple(random_parameter_triple(33)), (1, 1, 0), (1, 0, 0), (0, 1, -1))
        for point in points:
            t = np.array([complex(c) for c in point]) * (0.3 - 0.4j)
            bound = 1e-6 * np.max(np.abs(t))
            want = [g for g in element_rows(group_k)
                    if np.max(np.abs(element_complex(g) @ t - t)) <= bound]
            assert element_rows(rg.stabilizer(group_k, tuple(t), tol=1e-6)) == want

    def test_unexpected_order_label(self):
        sub = rg.generate_closure((rg.generators()["B"],))
        assert sub.order == 2
        assert rg.stabilizer_type(sub).startswith("unclassified")

    @pytest.mark.parametrize("point, order", [((1, 1, 0), 3), ((1, 0, 0), 9), ((0, 1, -1), 24)])
    def test_labels_match_exact_probes_on_stratum_orbits(self, group_k, point, order):
        # the stabilizer of every point of the orbit, as the solver meets it:
        # a complex multiple of the stratum point moved by the group
        label = {3: "C3", 9: "C3xC3", 24: "G4"}[order]
        points = rg.orbit(group_k, tuple(complex(c) * (0.3 - 0.4j) for c in point))
        assert len(points) * order == 648
        for p in points:
            stab = rg.stabilizer(group_k, p, tol=1e-6)
            assert stab.order == order
            assert rg.stabilizer_type(stab) == stabilizer_type_exact(element_rows(stab)) == label

    def test_labels_match_exact_probes_on_built_sets(self, group_k):
        # sets that reach every branch of stabilizer_type, with elements of
        # the order-1296 group and diagonal matrices
        def diagonal(y, z):
            return pairs(((1, 0, 0), (0, y, 0), (0, 0, z)))

        def built(elements):
            ints = np.array(sorted(map(tuple, elements)), dtype=np.int64).reshape(-1, 18)
            return rg.MatrixGroup(ints, (), *rg._row_table(ints))

        e, e2 = EPS, EPS * EPS
        one = IDENTITY
        gens = rg.generators()
        a, b = gens["A"], gens["B"]
        aa = product(a, a)
        sixth_roots = (1, -1, e, e2, -e, -e2)
        no_reflection3 = [g for g, rows in zip(group_k.ints.tolist(), element_rows(group_k))
                          if not (is_pseudo_reflection(rows) and element_order(rows) == 3)]
        # trace 2 + eps, but its cube is not the identity
        false_reflection = pairs(((1, 0, 0), (0, 1 + e, 0), (0, 0, 0)))
        cases = (
            ([one, a, aa], "C3"),
            ([one, a, b], "unclassified(order=3,nonabelian)"),
            ([diagonal(y, z) for y in (1, e, e2) for z in (1, e, e2)], "C3xC3"),
            ([diagonal(y, z) for y in (1, -1, e) for z in (1, -1, e)],
             "unclassified(order=9,structure)"),
            ([one] * 9, "unclassified(order=9,structure)"),
            ([one, a, aa, b, product(a, b), product(aa, b), gens["C"], gens["D"], gens["E"]],
             "unclassified(order=9,structure)"),
            (rg.stabilizer(group_k, (1, -1, 0)).ints.tolist(), "G4"),
            ([diagonal(y, z) for y in sixth_roots for z in sixth_roots][:24],
             "unclassified(order=24,structure)"),
            (no_reflection3[:24], "unclassified(order=24,structure)"),
            (no_reflection3[:23] + [false_reflection], "unclassified(order=24,structure)"),
            (group_k.ints[:5].tolist(), "unclassified(order=5)"),
        )
        for elements, label in cases:
            sub = built(elements)
            assert rg.stabilizer_type(sub) == stabilizer_type_exact(element_rows(sub)) == label, label


class TestInvariance:
    def test_exact_invariance_of_generators(self, group_k):
        report = rg.verify_invariance(group_k)
        assert len(report) == 4
        for entry in report.values():
            assert entry == {"C6": 0, "C9": 0, "C12": 0}

    def test_swap_flips_alternating_invariant(self):
        from trimoduli.concomitants import c_formulas, c_polynomials
        from trimoduli.poly_engine import Poly

        _, c9, _ = c_polynomials()
        x1, x2, x3 = (Poly.variable(i) for i in (1, 2, 3))
        assert (c_formulas(x1, x3, x2).c9 + c9).is_zero()

    def test_proof_reports_the_swap_residual(self):
        # the bare swap B (generator 1 of H) flips the sign of C9, so the
        # difference C9(B.x) - C9 is -2 C9, whose largest coefficient is 2
        report = rg.verify_invariance(rg.group_h())
        assert len(report) == 5
        for name, entry in report.items():
            want = {"C6": 0, "C9": 2 if name == "generator_1" else 0, "C12": 0}
            assert entry == want, name

    def test_orbit_shares_hermitian_norm(self, group_k):
        t = random_parameter_triple(31)
        orb = rg.orbit(group_k, tuple(t))
        norms = [sum(abs(z) ** 2 for z in p) for p in orb]
        assert max(norms) - min(norms) < 1e-9 * max(norms)


class TestFormProblemAgreement:
    def test_orbit_equals_solution_set(self, group_k):
        for seed in (41, 42):
            t = random_parameter_triple(seed)
            sol = solve_for_triple(t)
            orb = rg.orbit(group_k, tuple(t))
            assert len(orb) == sol.filtered_count == 648
            assert set_distance(orb, sol.triples) < 1e-6
