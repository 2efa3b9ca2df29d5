"""Modular lattice engine: membership, label columns and solve, canonical
reduction, factors."""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random

import numpy as np
import pytest
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

import helpers
from groupflow import cli, groupleak
from groupflow.groupleak import build_delta, is_leakproof_group, witness_flow_from_kernel
from groupflow.groups import standard_group
from groupflow.howell import HowellForm, invariant_factors
from helpers import (
    DenseHowellForm,
    _divisor_chain,
    dense_row,
    form_invariant_factors,
    invariant_factors_by_diagonalization,
)


def _sparse(v) -> dict:
    """A dense vector as {column: value}, zeros kept: the form drops them."""
    return dict(enumerate(v))


def _sparse_nonzero(v) -> dict:
    """A dense vector as {column: value} without its zeros."""
    return {j: int(a) for j, a in enumerate(v) if a}


def _labelled(k: int, m: int, rows, form_class=HowellForm, **options):
    """A form over k coordinates with one label column per row, holding the
    rows, row t with a 1 in label column k + t."""
    form = form_class(k, m, labels=len(rows), **options)
    for t, r in enumerate(rows):
        form.add_row({**dict(enumerate(r)), k + t: 1})
    return form


def test_identity_matrix_spans_everything():
    form = _labelled(2, 6, [[1, 0], [0, 1]])
    for v in itertools.product(range(6), repeat=2):
        assert form.contains(_sparse(v))
        sol = form.solve(_sparse(v))
        assert sol is not None and tuple(dense_row(sol, 2).tolist()) == v


def test_zero_matrix_spans_nothing():
    form = _labelled(2, 4, [[0, 0], [0, 0]])
    assert form.contains({})
    assert form.contains({0: 0, 1: 0})
    assert not form.contains({0: 1})
    assert not form.contains({1: 2})
    assert form.reduce({1: 2}) == {1: 2}


def test_two_by_two_example():
    form = _labelled(2, 4, [[2, 0], [0, 2]])
    assert not form.contains({0: 1})
    assert form.contains({0: 2, 1: 2})
    assert form.solve({0: 2, 1: 2}) == {0: 1, 1: 1}
    # reducing took away row 0 + row 1: minus that is left in the labels
    assert form.reduce({0: 3, 1: 2}) == {0: 1, 2: 3, 3: 3}


def test_membership_matches_exhaustive_span():
    rng = random.Random(3)
    for _ in range(120):
        m = rng.choice([2, 3, 4, 6, 8, 12])
        k = rng.randint(1, 3)
        nrows = rng.randint(0, 4)
        rows = [[rng.randrange(m) for _ in range(k)] for _ in range(nrows)]
        form = _labelled(k, m, rows)
        span = set()
        for coeffs in itertools.product(range(m), repeat=nrows):
            span.add(tuple(sum(c * r[i] for c, r in zip(coeffs, rows)) % m
                           for i in range(k)))
        for v in itertools.product(range(m), repeat=k):
            assert form.contains(_sparse(v)) == (v in span)
        assert form.quotient_order() * len(span) == m ** k


def test_solve_reproduces_vector():
    rng = random.Random(5)
    for _ in range(60):
        m = rng.choice([4, 6, 12])
        k = rng.randint(1, 4)
        nrows = rng.randint(1, 5)
        rows = [[rng.randrange(m) for _ in range(k)] for _ in range(nrows)]
        form = _labelled(k, m, rows)
        coeffs = [rng.randrange(m) for _ in range(nrows)]
        v = [sum(c * r[i] for c, r in zip(coeffs, rows)) % m for i in range(k)]
        sol = form.solve(_sparse(v))
        assert sol is not None and all(0 <= t < nrows and 0 < c < m for t, c in sol.items())
        rebuilt = [sum(c * rows[t][i] for t, c in sol.items()) % m for i in range(k)]
        assert rebuilt == v


def test_reduce_is_constant_on_cosets():
    """Members of the same coset share a canonical representative; the
    representative map is linear on the span (v, w in span => v+w in span).
    A labelled form's representatives have the same coordinates."""
    rng = random.Random(7)
    for _ in range(40):
        m = rng.choice([4, 6, 8])
        k = rng.randint(1, 3)
        rows = [[rng.randrange(m) for _ in range(k)] for _ in range(rng.randint(1, 3))]
        form = HowellForm(k, m)
        for r in rows:
            form.add_row(dict(enumerate(r)))
        labelled = _labelled(k, m, rows)
        members = [v for v in itertools.product(range(m), repeat=k)
                   if form.contains(_sparse(v))]
        for v, w in itertools.islice(itertools.product(members, repeat=2), 60):
            s = [(a + b) % m for a, b in zip(v, w)]
            assert form.contains(_sparse(s))
        for v in itertools.islice(itertools.product(range(m), repeat=k), 30):
            for s in members[:5]:
                shifted = [(a + b) % m for a, b in zip(v, s)]
                assert form.reduce(_sparse(v)) == form.reduce(_sparse(shifted))
            assert form.reduce(_sparse(v)) == {
                j: a for j, a in labelled.reduce(_sparse(v)).items() if j < k}


def test_quaternion_delta_lattice_factors():
    """Relation lattice of the three C4 subgroups glued along the centre."""
    rows = [(4, 0, 0), (0, 4, 0), (0, 0, 4), (2, -2, 0), (2, 0, -2)]
    form = _labelled(3, 4, rows)
    snf = smith_normal_form(Matrix([list(r) for r in rows]))
    expected = _divisor_chain([int(snf[i, i]) for i in range(3) if int(snf[i, i]) > 1])
    assert expected == [2, 2, 4]          # confirm the oracle first
    assert form_invariant_factors(form) == [2, 2, 4]


def test_invariant_factors_vs_sympy_snf():
    rng = random.Random(11)
    for _ in range(60):
        m = rng.choice([2, 4, 6, 12, 60])
        k = rng.randint(1, 4)
        rows = [[rng.randrange(-6, 7) for _ in range(k)] for _ in range(rng.randint(1, 5))]
        full = rows + [[m if i == j else 0 for i in range(k)] for j in range(k)]
        form = HowellForm(k, m)
        for r in full:
            form.add_row(dict(enumerate(r)))
        snf = smith_normal_form(Matrix(full))
        expected = _divisor_chain([int(snf[i, i]) for i in range(k) if int(snf[i, i]) > 1])
        assert form_invariant_factors(form) == expected


def _snf_factors(rows, m, k):
    """Invariant factors of Z^k / (rows + m Z^k), by sympy's Smith form."""
    full = [list(r) for r in rows] + [[m if i == j else 0 for i in range(k)] for j in range(k)]
    snf = smith_normal_form(Matrix(full))
    return _divisor_chain([abs(int(snf[i, i])) for i in range(k)])


# the 12 benchmark specs, then m = 1 and three with 3^2 or 2^3 in the exponent,
# so the j >= 2 levels run
DELTA_SPECS = ("es:2", "centprod:quaternion,dihedral:4", "product:es:2,cyclic:2",
               "product:quaternion,quaternion", "es:3", "dihedral:6", "product:sym:3,sym:3",
               "sym:4", "alt:5", "sym:5", "alt:6", "sym:6", "cyclic:1", "cyclic:9",
               "product:cyclic:9,cyclic:3", "product:cyclic:4,product:cyclic:2,cyclic:8")


def test_invariant_factors_match_diagonalization_oracle():
    """The prime-power orders give the factors the row-and-column
    diagonalisation gives, and sympy's Smith form agrees, on random row
    sets (zero rows and wide matrices included) and on the glued groups."""
    rng = random.Random(360)
    moduli = (2, 4, 8, 9, 16, 27, 36, 60, 72, 360, 420)
    seen = set()
    for t in range(330):
        m = moduli[t % len(moduli)]
        k = rng.randint(1, 6)
        nrows = rng.randint(0, k + 1)
        rows = [[rng.randrange(m) * (rng.random() < 0.7) for _ in range(k)]
                for _ in range(nrows)]
        if rows and rng.random() < 0.3:
            rows[rng.randrange(nrows)] = [0] * k
        # rows of multiples of d, so the p^j levels with j >= 2 carry factors
        rows += [[d * rng.randrange(m) % m for _ in range(k)]
                 for d in (2, 3, 4, 8, 9) if m % d == 0 and rng.random() < 0.5]
        if t % 2:
            form = HowellForm(k, m)
            for r in rows:
                form.add_row(dict(enumerate(r)))
        else:
            form = _labelled(k, m, rows)
        factors = form_invariant_factors(form)
        assert factors == invariant_factors_by_diagonalization(form) == _snf_factors(rows, m, k)
        seen.add(tuple(factors))
    assert len(seen) > 100
    for spec in DELTA_SPECS:
        G = standard_group(spec)
        D = build_delta(G)
        U = helpers.unscaled_delta(helpers.chain_delta(G))
        factors = D.invariant_factors()
        assert factors == invariant_factors_by_diagonalization(U.canonical), spec
        if U.ncols <= 12:
            rows = [dense_row(row, U.ncols) for row, _tag in U.relation_rows()]
            assert factors == _snf_factors(rows, U.modulus, U.ncols), spec


def test_invariant_factors_of_column_orders_match_snf():
    """Factors of Q = (Z/o_0 + ... + Z/o_(k-1)) / span(rows), given |Q|,
    equal sympy's Smith form of the rows together with the order rows
    o_c e_c, on random column orders and rows."""
    rng = random.Random(361)
    for _ in range(200):
        k = rng.randint(1, 6)
        orders = [rng.choice((1, 2, 3, 4, 6, 8, 9, 12, 36)) for _ in range(k)]
        rows = [[rng.randrange(o) * (rng.random() < 0.6) for o in orders]
                for _ in range(rng.randint(0, k + 1))]
        order_rows = [[o if i == c else 0 for i in range(k)] for c, o in enumerate(orders)]
        m = math.lcm(*orders)
        expected = _snf_factors(rows + order_rows, m, k)
        order = math.prod(expected)         # |Q|, from the Smith form
        assert invariant_factors(orders, [dict(enumerate(r)) for r in rows], order) == expected


def test_modulus_one_degenerates():
    form = HowellForm(3, 1)
    form.add_row({0: 0, 1: 0, 2: 0})
    assert form.contains({0: 0, 1: 0, 2: 0})
    assert form.reduce({0: 5, 2: -1}) == {}
    assert form_invariant_factors(form) == []


def test_row_width_checked():
    """A row or a query vector may name only the columns 0 .. ncols - 1,
    even with a zero value there."""
    for form in (HowellForm(3, 4), DenseHowellForm(3, 4)):
        for row in ({3: 1}, {-1: 1}, {0: 1, 5: 2}):
            with pytest.raises(ValueError):
                form.add_row(row)
    form = HowellForm(3, 4)
    form.add_row({0: 1})
    for query in (form.reduce, form.contains):
        for vector in ({3: 1}, {-1: 2}, {0: 1, 7: 0}):
            with pytest.raises(ValueError, match="out of range"):
                query(vector)


def test_label_width_checked():
    """With labels, a row or a query vector may name the columns 0 ..
    ncols + labels - 1 and no others, even with a zero value there."""
    for form in (HowellForm(3, 4, labels=2), DenseHowellForm(3, 4, labels=2)):
        form.add_row({0: 1, 3: 1, 4: 3})
        for row in ({5: 1}, {-1: 1}, {0: 1, 7: 0}):
            with pytest.raises(ValueError):
                form.add_row(row)
        for query in (form.reduce, form.contains, form.solve):
            for vector in ({5: 1}, {-1: 2}, {0: 1, 6: 0}):
                with pytest.raises(ValueError, match="out of range"):
                    query(vector)


def test_labels_keyword_only():
    """labels is keyword-only: a positional third argument fails rather
    than becoming one label column."""
    for form_class in (HowellForm, DenseHowellForm):
        with pytest.raises(TypeError):
            form_class(3, 4, True)
        with pytest.raises(TypeError):
            form_class(3, 4, 1)


def test_solve_needs_labels():
    form = HowellForm(2, 4)
    form.add_row({0: 2})
    with pytest.raises(ValueError, match="label"):
        form.solve({0: 2})


def test_labels_leave_coordinates_as_they_are():
    """Label columns never hold a pivot and never steer the elimination:
    a labelled form's pivot rows, cut to the coordinate columns, are the
    unlabelled form's pivot rows, and its quotient order is the same; each
    pivot row's labels combine the input rows into its coordinates."""
    rng = random.Random(1986)
    moduli = (2, 4, 8, 9, 12, 36, 60, 72, 360)
    for t in range(300):
        m = moduli[t % len(moduli)]
        k = rng.randint(1, 6)
        rows = [[rng.randrange(m) * (rng.random() < 0.6) for _ in range(k)]
                for _ in range(rng.randint(0, k + 3))]
        plain = HowellForm(k, m)
        for r in rows:
            plain.add_row(dict(enumerate(r)))
        labelled = _labelled(k, m, rows)
        pivot_rows = labelled.pivot_rows()
        assert [{j: a for j, a in r.items() if j < k} for r in pivot_rows] == plain.pivot_rows()
        assert labelled.quotient_order() == plain.quotient_order()
        A = np.array(rows, dtype=np.int64).reshape(len(rows), k)
        for r in pivot_rows:
            combo = dense_row({j - k: a for j, a in r.items() if j >= k}, len(rows))
            assert np.array_equal((combo @ A) % m, dense_row(r, k + len(rows))[:k])


def test_query_values_taken_mod_m():
    """reduce, contains and solve read query values modulo m, and their
    results hold residues in 1 .. m - 1 only."""
    rng = random.Random(87)
    for m in (4, 12, 60):
        for _ in range(30):
            k = rng.randint(1, 5)
            rows = [{j: rng.randrange(m) for j in rng.sample(range(k), rng.randint(0, k))}
                    for _ in range(rng.randint(1, 4))]
            form = HowellForm(k, m, labels=len(rows))
            for t, row in enumerate(rows):
                form.add_row({**row, k + t: 1})
            raw = {j: rng.randrange(-3 * m, 3 * m) for j in rng.sample(range(k), rng.randint(0, k))}
            residues = {j: a % m for j, a in raw.items() if a % m}
            reduced = form.reduce(raw)
            assert reduced == form.reduce(residues)
            assert all(0 < a < m for a in reduced.values())
            assert form.contains(raw) == form.contains(residues) == all(j >= k for j in reduced)
            sol = form.solve(raw)
            assert sol == form.solve(residues)
            assert sol is None or all(0 < c < m for c in sol.values())


def test_sparse_row_values_taken_mod_m():
    """Values of a sparse row are read modulo m: zeros, negative values
    and values of m or more give the form of their residues."""
    rng = random.Random(86)
    for m in (4, 12, 60):
        for _ in range(30):
            k = rng.randint(1, 5)
            rows = [{j: rng.randrange(-3 * m, 3 * m) for j in rng.sample(range(k), rng.randint(0, k))}
                    for _ in range(rng.randint(1, 4))]
            raw, residues = HowellForm(k, m), HowellForm(k, m)
            for row in rows:
                raw.add_row(row)
                residues.add_row({j: a % m for j, a in row.items() if a % m})
            assert np.array_equal(raw.pivot_matrix(), residues.pivot_matrix())


def _argwhere_pivot(A, m):
    """The pivot choice by a Python min over every nonzero position, kept as
    the oracle of the vectorised choice."""
    return min(
        (tuple(int(x) for x in idx) for idx in np.argwhere(A != 0)),
        key=lambda idx: (math.gcd(int(A[idx[0], idx[1]]), m), idx),
    )


@pytest.mark.parametrize("m", [4, 12, 60])
def test_pivot_choice_matches_argwhere_oracle(m, monkeypatch):
    rng = np.random.default_rng(m)
    for _ in range(40):
        shape = (int(rng.integers(1, 8)), int(rng.integers(1, 8)))
        A = rng.integers(0, m, size=shape)
        A[rng.random(shape) < 0.4] = 0
        if A.any():
            assert helpers._pivot(A, m) == _argwhere_pivot(A, m)
        diags = helpers._diagonalize_mod(A.copy(), m)
        with monkeypatch.context() as patched:
            patched.setattr(helpers, "_pivot", _argwhere_pivot)
            assert helpers._diagonalize_mod(A.copy(), m) == diags


@pytest.mark.parametrize("m", [12, 60])
def test_tracked_solve_many_rows(m):
    """Over 300 labelled rows, most of them dependent, solve still combines
    the input rows back into v."""
    rng = np.random.default_rng(m + 1)
    rows = rng.integers(0, m, size=(300, 10))
    rows[rng.random(rows.shape) < 0.5] = 0
    form = _labelled(10, m, rows)
    for _ in range(20):
        v = (rng.integers(0, m, size=len(rows)) @ rows) % m
        sol = form.solve(_sparse(v.tolist()))
        assert sol is not None and all(0 <= t < len(rows) for t in sol)
        assert np.array_equal((dense_row(sol, len(rows)) @ rows) % m, v)
    for r in rows[:: 37]:
        sol = dense_row(form.solve(_sparse(r.tolist())), len(rows))
        assert np.array_equal((sol @ rows) % m, r % m)


def _assert_same_form(sparse, dense, probes, rows, m):
    """The same pivot rows and reductions, label parts included; on a
    labelled pair, the label split equals the dense form's tracked
    coefficients and combines the rows back into the probe."""
    assert np.array_equal(sparse.pivot_matrix(), dense.pivot_matrix())
    pivot_rows = sparse.pivot_rows()
    assert pivot_rows == dense.pivot_rows()
    assert [_sparse_nonzero(r) for r in sparse.pivot_matrix()] == pivot_rows
    for r in pivot_rows:            # copies: changing one leaves the form as it was
        r.clear()
    assert sparse.pivot_rows() == dense.pivot_rows()
    for v in probes:
        assert sparse.reduce(v) == dense.reduce(v)
        assert sparse.contains(v) == dense.contains(v)
        if sparse.labels:
            a = sparse.solve(v)
            assert a == dense.solve(v) == dense.tracked_solve(v)
            if a is not None:
                A = np.array(rows, dtype=np.int64).reshape(len(rows), sparse.ncols)
                assert np.array_equal((dense_row(a, len(rows)) @ A) % m,
                                      dense_row(v, sparse.ncols) % m)


def test_sparse_rows_match_dense_oracle():
    """The sparse rows give the dense elimination's pivot rows, reductions
    and solutions, on random row sets (zero rows and pairs of rows
    whose leading entries do not divide each other, so the egcd branch
    runs) and on the glued groups."""
    rng = random.Random(1998)
    moduli = (2, 4, 8, 9, 12, 36, 60, 72, 360, 420)
    egcd_steps = 0
    for t in range(400):
        m = moduli[t % len(moduli)]
        k = rng.randint(1, 7)
        rows = [[rng.randrange(m) * (rng.random() < 0.6) for _ in range(k)]
                for _ in range(rng.randint(0, k + 2))]
        if rows and rng.random() < 0.3:
            rows[rng.randrange(len(rows))] = [0] * k
        divisors = [d for d in range(2, m) if m % d == 0]
        if len(divisors) >= 2 and rng.random() < 0.5:
            a, b = rng.sample(divisors, 2)
            col = rng.randrange(k)
            for d in (a, b):
                rows.append([0] * col + [d] + [rng.randrange(m) for _ in range(k - col - 1)])
            egcd_steps += a % b != 0 and b % a != 0
        if t % 2:
            sparse, dense = HowellForm(k, m), DenseHowellForm(k, m)
            for r in rows:
                sparse.add_row(dict(enumerate(r)))
                dense.add_row(dict(enumerate(r)))
        else:
            sparse = _labelled(k, m, rows)
            dense = _labelled(k, m, rows, DenseHowellForm, track=True)
        probes = [_sparse(rng.randrange(m) for _ in range(k)) for _ in range(4)]
        probes += [_sparse(sum(rng.randrange(m) * r[i] for r in rows) % m for i in range(k))
                   for _ in range(3)]
        _assert_same_form(sparse, dense, probes, rows, m)
        assert sparse.quotient_order() == dense.quotient_order()
    assert egcd_steps > 20
    for spec in DELTA_SPECS:
        D = build_delta(standard_group(spec))
        rows = [D.relation_row(tag) for tag in D.pair_rows]
        dense_rows = [dense_row(row, D.ncols) for row in rows]
        # labels leave the coordinates as they are, so one labelled pair checks all three
        sparse = HowellForm(D.ncols, D.modulus, labels=len(rows))
        dense = DenseHowellForm(D.ncols, D.modulus, labels=len(rows), track=True)
        for t, r in enumerate(rows):
            sparse.add_row({**r, D.ncols + t: 1})
            dense.add_row({**r, D.ncols + t: 1})
        assert np.array_equal(sparse.pivot_matrix()[:, : D.ncols], D.canonical.pivot_matrix())
        probes = [D.embed(g) for g in itertools.islice(D.group.elements(), 40)]
        _assert_same_form(sparse, dense, probes, dense_rows, D.modulus)


@pytest.mark.parametrize("spec", DELTA_SPECS)
def test_group_outputs_match_dense_oracle(spec, monkeypatch):
    """The group-leakproof and group-binary-leakproof CLI bytes, the
    witness flow's values and every reduction groupleak makes, label parts
    included, are the same when groupleak uses the dense form.  Each side
    builds its glued group once for its four CLI runs."""
    def recording(form_class, log):
        class Recording(form_class):
            def reduce(self, v):
                out = super().reduce(v)
                log.append(out)
                return out
        return Recording

    def outputs(form_class):
        log = []
        monkeypatch.setattr(groupleak, "HowellForm", recording(form_class, log))
        delta = build_delta(standard_group(spec))
        runs = []
        with monkeypatch.context() as patched:
            patched.setattr(cli, "build_delta", lambda _G, max_order: delta)
            for command in ("group-leakproof", "group-binary-leakproof"):
                for fmt in ("json", "text"):
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        code = cli.run([command, spec, "--format", fmt])
                    runs.append((code, buf.getvalue()))
        verdict = is_leakproof_group(delta.group, delta=delta)
        if not verdict.leakproof:
            _graph, flow = witness_flow_from_kernel(delta, verdict.witness)
            runs.append(sorted(flow.values.items()))
        return runs, log

    expected = outputs(HowellForm)
    assert outputs(DenseHowellForm) == expected
