"""Group-core: table validation, constructions, subgroup machinery."""

from __future__ import annotations

import copy
import itertools
import math
import os
import random
import re
import time
import tracemalloc
import warnings

import networkx as nx
import numpy as np
import pytest

from groupflow.errors import (
    CentreMismatch,
    DuplicateName,
    InternalInvariantError,
    NoInverse,
    NotAbelian,
    NotAssociative,
    NotMember,
    ParseError,
    TooLarge,
)
from groupflow import groupleak, groups
from groupflow.groups import (
    Subgroup,
    abelian_basis,
    conjugacy_class_id,
    designated_central_involution,
    discrete_log,
    es_group,
    group_from_cayley,
    maximal_abelian_subgroups,
    standard_group,
)

from helpers import (
    abelian_basis_by_numpy,
    associative_by_exhaustion,
    central_product_by_cosets,
    centralizer,
    closure,
    dihedral_by_loop,
    direct_product_by_int64,
    es_by_element_law,
    es_decode,
    light_mismatch_by_full_arrays,
    maximal_abelian_oracle,
    maximal_cliques_by_recursion,
    orders_modulo,
    perm_names_by_cycle_walk,
    perm_table_by_searchsorted,
    quaternion_by_dictionary,
)


# -- group_from_cayley ---------------------------------------------------------


def test_c2_table():
    g = group_from_cayley([[0, 1], [1, 0]], ["1", "t"])
    assert g.order == 2
    assert g.identity == 0


def test_no_inverse_table():
    with pytest.raises(NoInverse):
        group_from_cayley([[0, 1], [1, 1]], ["1", "t"])


def test_not_associative_table():
    with pytest.raises(NotAssociative):
        group_from_cayley([[0, 1, 2], [1, 0, 2], [2, 2, 0]], list("abc"))


_BUILTIN_SPECS_UP_TO_720 = (
    "cyclic:1", "cyclic:2", "cyclic:12", "cyclic:97", "dihedral:1", "dihedral:6",
    "dihedral:30", "quaternion", "sym:1", "sym:3", "sym:4", "sym:5", "sym:6",
    "alt:2", "alt:4", "alt:5", "alt:6", "es:1", "es:2", "es:3",
    "product:es:2,cyclic:2", "product:quaternion,quaternion", "product:sym:3,alt:4",
    "centprod:quaternion,dihedral:4", "centprod:dihedral:4,dihedral:4",
)


@pytest.mark.parametrize("spec", _BUILTIN_SPECS_UP_TO_720)
def test_builtin_tables_pass_light_and_exhaustive_checks(spec):
    """Also with a hint of only the identity, with duplicates, or of an
    element x that generates a proper subgroup: the generating set still
    reaches every element, and it starts with x once."""
    G = standard_group(spec)
    assert G.order <= 720
    G._check_associativity()
    assert associative_by_exhaustion(G.table)
    assert G.is_abelian == bool(np.array_equal(G.table, G.table.T))
    e, orders = G.identity, G.element_orders()
    x = min(G.elements(), key=lambda g: (orders[g] == 1, orders[g]))   # least order above 1
    assert closure(G, [x]).order < G.order or G.order in (1, 2, 97)
    greedy = G._generating_set()
    for hint in ((), (e,), (x, e, x, x), (x,)):
        gens = G._generating_set(hint)
        if x in hint and x != e:
            assert gens[0] == x and gens.count(x) == 1
        else:
            assert gens == greedy
        reached, frontier = {G.identity}, [G.identity]
        while frontier:
            a = frontier.pop()
            for g in gens:
                b = G.mul(a, g)
                if b not in reached:
                    reached.add(b)
                    frontier.append(b)
        assert reached == set(G.elements())


def test_light_check_raises_exactly_on_non_associative_perturbations():
    """Relabelled tables of orders 4-60, some with entries changed away from
    and to non-identity values, so identity and inverses survive."""
    rng = random.Random(1)
    bases = [standard_group(s) for s in (
        "cyclic:4", "product:cyclic:2,cyclic:2", "dihedral:3", "quaternion", "alt:4",
        "dihedral:10", "es:2", "sym:4", "product:cyclic:3,alt:4", "alt:5", "cyclic:60")]
    hint_rng = random.Random(2)
    raised = kept = 0
    for _ in range(300):
        G = rng.choice(bases)
        n = G.order
        perm = list(range(n))
        rng.shuffle(perm)
        T = np.empty_like(G.table)
        T[np.ix_(perm, perm)] = np.asarray(perm)[G.table]
        e = perm[G.identity]
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            a, b = rng.choice([(a, b) for a in range(n) for b in range(n)
                               if e not in (a, b, T[a, b])])
            T[a, b] = rng.choice([c for c in range(n) if c not in (e, T[a, b])])
        names = [f"g{i}" for i in range(n)]
        hint = [hint_rng.randrange(n) for _ in range(hint_rng.choice((1, 2, 3)))]
        builds = (lambda: group_from_cayley(T, names),
                  lambda: groups.FiniteGroup(T, names, generators=hint))
        if associative_by_exhaustion(T):
            assert all(build().identity == e for build in builds)
            kept += 1
            continue
        for build in builds:
            with pytest.raises(NotAssociative) as info:
                build()
            a, g, b = (names.index(x) for x in info.value.triple)
            assert T[T[a, g], b] != T[a, T[g, b]]
        raised += 1
    assert raised >= 100 and kept >= 30


@pytest.mark.parametrize("hint", [[6], [-1], [True], [np.bool_(False)], [1.0], [1, 2, 99]])
def test_generator_hint_must_be_element_indices(hint):
    G = standard_group("sym:3")
    with pytest.raises(ValueError):
        groups.FiniteGroup(G.table, G.names, generators=hint)


def test_light_check_in_blocks_reports_the_full_array_triple(monkeypatch):
    """Whatever the block size, the triple raised is the first row-major
    mismatch of the first failing generator, as on whole arrays."""
    rng = random.Random(5)
    bases = [standard_group(s) for s in ("dihedral:3", "quaternion", "alt:4", "dihedral:10",
                                         "product:cyclic:3,alt:4", "cyclic:60")]
    tables = []
    while len(tables) < 40:
        G = rng.choice(bases)
        n, e = G.order, G.identity
        T = np.array(G.table)
        for _ in range(rng.choice((1, 2, 3))):
            a, b = rng.choice([(a, b) for a in range(n) for b in range(n)
                               if e not in (a, b, T[a, b])])
            T[a, b] = rng.choice([c for c in range(n) if c not in (e, T[a, b])])
        triple = light_mismatch_by_full_arrays(T, e)
        if triple is not None:
            tables.append((T, triple))
    for block_bytes in (1, 100, 1000, groups._ASSOCIATIVITY_BLOCK_BYTES):
        monkeypatch.setattr(groups, "_ASSOCIATIVITY_BLOCK_BYTES", block_bytes)
        for T, (a, g, b) in tables:
            names = [f"g{i}" for i in range(len(T))]
            with pytest.raises(NotAssociative) as info:
                group_from_cayley(T, names)
            assert info.value.triple == (names[a], names[g], names[b])


@pytest.mark.parametrize("spec", ("cyclic:1600", "product:cyclic:40,cyclic:40"))
def test_table_validation_peaks_within_the_table_bytes(spec):
    """The inverse search and Light's test both take rows in blocks, so
    validating a table allocates well under the table itself."""
    G = standard_group(spec)
    table, names = np.array(G.table), list(G.names)
    tracemalloc.start()
    try:
        group_from_cayley(table, names)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.4 * table.nbytes


def test_inverse_search_in_blocks_names_the_first_element_without_one(monkeypatch):
    """Whatever the block size, NoInverse names the least element with no
    two-sided inverse, and the inverses found are those of the table."""
    rng = random.Random(7)
    bases = [standard_group(s) for s in ("dihedral:3", "quaternion", "alt:4", "cyclic:60")]
    tables = []
    for _ in range(30):
        G = rng.choice(bases)
        T = np.array(G.table)
        for a in rng.sample([a for a in range(G.order) if a != G.identity], rng.choice((1, 2))):
            T[a, G.inverse[a]] = rng.choice([c for c in range(G.order) if c != G.identity])
        first = next(a for a in range(G.order)
                     if not any(T[a, b] == T[b, a] == G.identity for b in range(G.order)))
        tables.append((T, first))
    for block_bytes in (1, 100, 1000, groups._ASSOCIATIVITY_BLOCK_BYTES):
        monkeypatch.setattr(groups, "_ASSOCIATIVITY_BLOCK_BYTES", block_bytes)
        for T, first in tables:
            names = [f"g{i}" for i in range(len(T))]
            with pytest.raises(NoInverse) as info:
                group_from_cayley(T, names)
            assert info.value.element == names[first]
        for G in bases:
            assert np.array_equal(group_from_cayley(G.table, G.names).inverse, G.inverse)


@pytest.mark.parametrize("table", ([[0, 1], [1, 0.7]], [[False, True], [True, False]],
                                   [[0, 1], [1, True]], [[0, 1.0], [1, 0]],
                                   [["0", "1"], ["1", "0"]],
                                   np.array([[0, 1], [1, 0]], dtype=float)))
def test_non_integer_table_entries_are_refused(table):
    with pytest.raises(ParseError, match="table entries must be integers"):
        group_from_cayley(table, ["a", "b"])


def test_table_entry_beyond_int32_is_out_of_range():
    """Also in an int64 or uint64 array, a list of its rows or a list of
    lists of its entries, whose cast to int32 would wrap these entries to 1
    and 0, the table of cyclic:2."""
    wide = (np.array([[0, 2**32 + 1], [1, 0]], dtype=np.int64),
            np.array([[2**33, 1], [1, 0]], dtype=np.uint64))
    for table in ([[0, 10**12], [1, 0]], *wide, *(list(t) for t in wide),
                  *([list(row) for row in t] for t in wide)):
        with pytest.raises(ParseError, match="table entries out of range"):
            group_from_cayley(table, ["a", "b"])


def test_duplicate_names():
    for names in (["x", "x"], [1, "1"]):          # names are compared as strings
        with pytest.raises(DuplicateName):
            group_from_cayley([[0, 1], [1, 0]], names)


def test_quaternion_table_roundtrip():
    q = standard_group("quaternion")
    g2 = group_from_cayley(q.table.tolist(), q.names)
    orders = sorted(g2.element_orders().tolist())
    assert orders.count(2) == 1          # -1 is the only involution
    assert g2.order == 8


def test_group_axioms_exhaustive_small():
    for spec in ("cyclic:7", "dihedral:5", "quaternion", "sym:4", "es:2",
                 "product:cyclic:2,cyclic:4", "centprod:dihedral:4,dihedral:4"):
        G = standard_group(spec)
        assert G.order <= 200
        T = G.table
        for a in G.elements():
            assert np.array_equal(T[T[a, :], :], T[a, T])   # (ab)c == a(bc)
            assert T[a, G.identity] == a
            assert T[a, G.inv(a)] == G.identity
        assert len(set(G.names)) == G.order


# -- es groups -------------------------------------------------------------------


def test_es1_order():
    assert es_group(1).order == 8


def test_es_element_law_matches_table():
    G = es_group(2)
    for i, j in itertools.product(range(G.order), repeat=2):
        a, b = es_decode(2, i), es_decode(2, j)
        c = a.mul(b)
        assert c.eps | (c.u << 1) | (c.v << 3) == G.mul(i, j)


def test_es2_defining_relations():
    """All generator relations of the semidirect-product definition."""
    n = 2
    G = es_group(n)
    z = G.index_of("z")
    xs = [G.index_of(f"x{i}") for i in range(1, 2 * n + 1)]
    assert G.mul(z, z) == G.identity
    for x in xs:
        assert G.mul(x, x) == G.identity
        assert G.commutes(z, x)
    for i, j in itertools.product(range(n), repeat=2):
        # x_{n+i} x_j x_{n+i}^-1 = x_j z^(i==j)
        conj = G.mul(G.mul(xs[n + i], xs[j]), G.inv(xs[n + i]))
        expected = G.mul(xs[j], z) if i == j else xs[j]
        assert conj == expected
        assert G.commutes(xs[i], xs[j])              # N-part is abelian
        assert G.commutes(xs[n + i], xs[n + j])      # G-part is abelian


def test_es2_z_central_exhaustive():
    G = es_group(2)
    z = G.index_of("z")
    assert all(G.commutes(z, g) for g in G.elements())


def test_es_element_orders_at_most_four():
    G = es_group(2)
    assert set(G.element_orders().tolist()) <= {1, 2, 4}


def test_es_too_large():
    with pytest.raises(TooLarge):
        es_group(6)


# -- standard_group ----------------------------------------------------------------


def test_sym3_order():
    assert standard_group("sym:3").order == 6


def test_alt4_orders():
    G = standard_group("alt:4")
    assert G.order == 12
    assert 6 not in set(G.element_orders().tolist())


def test_centprod_d4_d4_matches_es2_profile():
    G = standard_group("centprod:dihedral:4,dihedral:4")
    E = es_group(2)
    assert G.order == 32
    assert int(np.lcm.reduce(G.element_orders())) == 4
    assert len(G.center()) == 2
    profile = lambda H: sorted(H.element_orders().tolist())
    assert profile(G) == profile(E)


def test_centprod_needs_central_involution():
    with pytest.raises(CentreMismatch):
        standard_group("centprod:cyclic:3,cyclic:3")


def test_centprod_order():
    G = standard_group("centprod:quaternion,dihedral:4")
    assert G.order == 8 * 8 // 2


def test_product_nested_parse():
    G = standard_group("product:cyclic:2,product:cyclic:3,cyclic:5")
    assert G.order == 30
    assert G.is_abelian


def test_deeply_nested_product_parses_in_linear_time():
    """Splitting product: arguments scans each spec once, so 40 nested
    levels (each doubled the time of a try-every-comma split) take well
    under a second, left- or right-nested."""
    left, right = "cyclic:1", "cyclic:2"
    for _ in range(40):
        left, right = f"product:{left},cyclic:1", f"centprod:cyclic:2,{right}"
    start = time.perf_counter()
    assert standard_group(left).order == 1
    assert standard_group(right).order == 2
    assert time.perf_counter() - start < 1.0


def test_product_split_reads_each_argument_once():
    def split(args):
        end = groups._spec_end(args, 0)
        return args[:end], args[end + 1:]

    assert split("product:cyclic:2,quaternion,sym:3") == ("product:cyclic:2,quaternion", "sym:3")
    assert split("cayley:a,b,cyclic:2") == ("cayley:a", "b,cyclic:2")
    for bad in ("cyclic:2", "", ",cyclic:2", "cyclic:2x,cyclic:2", "cayley:,cyclic:2",
                "product:cyclic:2,cyclic:3", "product:cyclic:2xcyclic:3,cyclic:2"):
        end = groups._spec_end(bad, 0)
        assert end is None or bad[end:end + 1] != ","
        with pytest.raises(ParseError, match="cannot split"):
            standard_group(f"product:{bad}")


def test_too_many_products_is_parse_error():
    spec = "cyclic:1"
    for _ in range(65):
        spec = f"product:{spec},cyclic:1"
    with pytest.raises(ParseError, match="more than 64"):
        standard_group(spec)
    chain = "cyclic:2"
    for _ in range(64):
        chain = f"centprod:cyclic:2,{chain}"
    assert standard_group(chain).order == 2
    with pytest.raises(ParseError, match="more than 64"):
        standard_group(f"centprod:cyclic:2,{chain}")


def test_parse_errors():
    for bad in ("", "nonsense", "cyclic:x", "sym:", "quaternion:3", "quaternion:",
                "product:quaternion:,cyclic:2"):
        with pytest.raises(ParseError):
            standard_group(bad)


def test_too_large_group():
    with pytest.raises(TooLarge):
        standard_group("sym:8")


@pytest.mark.parametrize("spec, builder", [
    ("cyclic:50000", "_cyclic"),
    ("dihedral:25000", "_dihedral"),
    ("sym:9", "_perm_group"),
    ("alt:9", "_perm_group"),
    ("es:8", "_es_group_impl"),
    ("product:cyclic:200,cyclic:200", "_direct_product"),
    ("centprod:dihedral:100,dihedral:100", "_central_product"),
    ("cayley:big.txt", "group_from_cayley"),
])
def test_table_memory_bound_checked_before_allocation(tmp_path, monkeypatch, spec, builder):
    """Inside a generous order bound, a group whose builder would allocate
    an array above MAX_TABLE_BYTES is refused before the builder runs."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.txt").write_text("50000\n")
    monkeypatch.setattr(groups, builder, None)
    with pytest.raises(TooLarge, match="table-memory bound"):
        standard_group(spec, max_order=10 ** 6)


def test_orders_decided_without_building_them():
    """Orders too large to compute or to write out are refused, with a
    short message, before n! or 2^(2n+1) is multiplied out."""
    for spec, order in (("sym:300000", "above 10^5"), ("sym:1000", "1000!"),
                        ("alt:1800", "1800!/2"), ("es:8000", "2^16001"),
                        ("cyclic:" + "9" * 5000, "above 10^4999"), ("sym:8", "40320")):
        with pytest.raises(TooLarge, match=rf"^order {re.escape(order)} exceeds"):
            standard_group(spec)
    assert standard_group("alt:2", max_order=1).order == 1
    assert standard_group("cyclic:" + "0" * 5000 + "5").order == 5
    assert standard_group("es:5", max_order=2048).order == 2048
    with pytest.raises(TooLarge):
        standard_group("es:5", max_order=2047)


@pytest.mark.parametrize("spec, order", [
    ("product:sym:7,cyclic:2", 10080), ("product:sym:7,sym:7", 25401600),
    ("centprod:cyclic:4,product:sym:7,cyclic:2", 10080), ("product:cayley:c4.txt,sym:7", 20160)])
def test_product_order_bounded_before_its_factors(tmp_path, monkeypatch, spec, order):
    """A product's order is read from its spec, a cayley: factor's from the
    file's first line, so a product above the bound is refused, with the
    message that names its order (a nested product's, when that is above
    the bound), before any factor's table is built: the peak traced memory
    stays below 1 MiB (sym:7's table alone is 97 MiB).  The cayley: file
    holds its order line only, which is all that is read."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c4.txt").write_text("4\n")
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match=rf"^order {order} exceeds the configured bound 5040$"):
            standard_group(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_cayley_file(tmp_path):
    q = standard_group("quaternion")
    lines = ["8", " ".join(q.names)]
    lines += [" ".join(map(str, row)) for row in q.table.tolist()]
    path = tmp_path / "q.cayley"
    path.write_text("\n".join(lines) + "\n")
    G = standard_group(f"cayley:{path}")
    assert G.order == 8
    assert np.array_equal(G.table, q.table)


def test_cayley_path_keeps_its_spaces(tmp_path, monkeypatch):
    """Spaces inside a cayley: path belong to the file name, at top level
    and inside product:; those at the path's ends and in the rest of the
    spec are dropped, and a missing file is named as it was written."""
    monkeypatch.chdir(tmp_path)
    q = standard_group("quaternion")
    lines = ["8", " ".join(q.names)] + [" ".join(map(str, row)) for row in q.table.tolist()]
    (tmp_path / "my table.txt").write_text("\n".join(lines) + "\n")
    G = standard_group("cayley: my table.txt ")
    assert G.spec == "cayley:my table.txt" and np.array_equal(G.table, q.table)
    P = standard_group("product: cayley:my table.txt , cyclic: 2")
    assert P.spec == "product:cayley:my table.txt,cyclic:2" and P.order == 16
    with pytest.raises(ParseError, match="^cannot read cayley file my  table.txt: "):
        standard_group("product:cayley:my  table.txt,cyclic:2")


def test_cayley_file_order_bound_checked_before_rows(tmp_path):
    G = standard_group("cyclic:12")
    path = tmp_path / "c12.txt"
    path.write_text("\n".join(["12", " ".join(G.names)]
                              + [" ".join(map(str, r)) for r in G.table.tolist()]) + "\n")
    with pytest.raises(TooLarge):
        standard_group(f"cayley:{path}", max_order=5)
    assert standard_group(f"cayley:{path}", max_order=12).order == 12
    path.write_text("12\n")        # truncated: the bound is checked first
    with pytest.raises(TooLarge):
        standard_group(f"cayley:{path}", max_order=5)


_CENTPROD_SPECS = (
    "centprod:quaternion,quaternion", "centprod:quaternion,dihedral:4",
    "centprod:dihedral:4,dihedral:4", "centprod:cyclic:4,quaternion",
    "centprod:es:1,es:2", "centprod:dihedral:6,cyclic:2",
    "centprod:product:cyclic:4,cyclic:3,quaternion",
    "centprod:quaternion,centprod:dihedral:4,quaternion",
    "centprod:centprod:quaternion,quaternion,product:cyclic:3,cyclic:4",
    "centprod:es:2,es:2",
)


_PRODUCT_SPECS = (
    "product:cyclic:2,cyclic:2", "product:cyclic:5,dihedral:3", "product:quaternion,sym:3",
    "product:es:2,cyclic:2", "product:product:cyclic:2,cyclic:3,alt:4",
    "product:centprod:quaternion,dihedral:4,cyclic:3", "product:cyclic:70,cyclic:7",
)


def test_direct_product_table_is_its_only_order_squared_array(monkeypatch):
    """The int32 table is built in place: the builder's peak traced memory
    stays within one 4-byte entry per table cell, plus a little."""
    A, B = standard_group("cyclic:40"), standard_group("dihedral:20")
    monkeypatch.setattr(groups, "FiniteGroup", lambda table, names, spec=None: table)
    tracemalloc.start()
    try:
        table = groups._direct_product(A, B, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    order = A.order * B.order
    assert table.dtype == np.int32 and table.shape == (order, order)
    assert 4 * order * order <= peak < 4.5 * order * order
    assert np.array_equal(table, direct_product_by_int64(A, B, None).table)


@pytest.mark.parametrize("n, even_only", [(6, False), (7, True)])
def test_perm_table_is_its_only_order_squared_array(monkeypatch, n, even_only):
    """The walk gathers rows a block at a time: the builder's peak traced
    memory stays within the table plus 3 MiB.  alt:7 has levels larger than
    a block, so there the blocks are what keeps it within the bound."""
    monkeypatch.setattr(groups, "FiniteGroup", lambda table, names, spec=None, **kwargs: table)
    tracemalloc.start()
    try:
        table = groups._perm_group(n, even_only, "perm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.dtype == np.int32
    assert table.nbytes <= peak < table.nbytes + 3 * 2 ** 20
    assert np.array_equal(table, perm_table_by_searchsorted(n, even_only))


def test_central_product_table_is_its_only_order_squared_array(monkeypatch):
    """No direct product is built: the representatives' products are
    gathered from the factors' tables a block at a time, so the builder's
    peak traced memory stays within the table plus 3 MiB."""
    A, B = standard_group("dihedral:4"), standard_group("cyclic:360")
    monkeypatch.setattr(groups, "FiniteGroup", lambda table, names, spec=None: table)
    tracemalloc.start()
    try:
        table = groups._central_product(A, B, "centprod")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.dtype == np.int32 and table.shape == (1440, 1440)
    assert table.nbytes <= peak < table.nbytes + 3 * 2 ** 20


def test_cayley_table_is_its_only_order_squared_array(monkeypatch, tmp_path):
    """The rows go into the int32 table a block at a time, with no list of
    lines and no Python int per entry: the reader's peak traced memory,
    with the table's own validation, stays within the table plus 3 MiB."""
    G = standard_group("dihedral:360")
    path = tmp_path / "d360.txt"
    with open(path, "w") as f:
        f.write(f"{G.order}\n{' '.join(G.names)}\n")
        np.savetxt(f, G.table, fmt="%d")
    monkeypatch.setattr(groups, "FiniteGroup",
                        lambda table, names, spec=None: groups._square_table(table))
    tracemalloc.start()
    try:
        table = groups._parse_cayley_file(str(path), groups.DEFAULT_MAX_ORDER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.dtype == np.int32
    assert table.nbytes <= peak < table.nbytes + 3 * 2 ** 20
    assert np.array_equal(table, G.table)


def test_es_table_is_its_only_order_squared_array(monkeypatch):
    """es:5's table is filled a block of rows at a time: the builder's peak
    traced memory stays within the 16 MiB table plus 3 MiB, and the table
    is the one a single block gives."""
    monkeypatch.setattr(groups, "FiniteGroup", lambda table, names, spec=None: table)
    tracemalloc.start()
    try:
        table = groups._es_group_impl(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.dtype == np.int32 and table.shape == (2048, 2048)
    assert table.nbytes <= peak < table.nbytes + 3 * 2 ** 20
    monkeypatch.setattr(groups, "_ASSOCIATIVITY_BLOCK_BYTES", table.nbytes)
    assert np.array_equal(table, groups._es_group_impl(5))


def test_center_reads_the_commuting_bitsets():
    """center() allocates no order ** 2 array: on cyclic:4900, whose table
    takes 92 MiB, its peak traced memory stays within 4 MiB.  It is the set
    of elements that commute with every element."""
    for spec in ("sym:4", "quaternion", "es:2", "dihedral:6", "product:sym:3,cyclic:2"):
        G = standard_group(spec)
        assert G.center() == tuple(a for a in G.elements()
                                   if all(G.commutes(a, b) for b in G.elements()))
    G = standard_group("cyclic:4900")
    tracemalloc.start()
    try:
        center = G.center()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert center == tuple(range(4900))
    assert peak <= 4 * 2 ** 20


def test_dropped_groups_are_not_retained():
    """standard_group keeps no built group: ten dihedral groups of order
    about 1,000, each dropped once built, leave less than one table
    allocated."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(500, 510):
            standard_group(f"dihedral:{n}")
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 4 * 1000 * 1000


@pytest.mark.parametrize("block_bytes", [1, 100, groups._ASSOCIATIVITY_BLOCK_BYTES])
def test_cayley_file_in_blocks_names_each_defect(tmp_path, monkeypatch, block_bytes):
    """Read one row, four rows or the whole table at a time, a file with
    blank lines anywhere reads back to its table, and a defect in any row
    raises the message that names it: 1_000 and a non-ASCII digit are not
    integers, and 10^12 and 10^30 are out of range."""
    monkeypatch.setattr(groups, "_ASSOCIATIVITY_BLOCK_BYTES", block_bytes)
    G = standard_group("dihedral:3")
    rows = [" ".join(map(str, row)) for row in G.table.tolist()]
    path = tmp_path / "d3.txt"

    def read(lines):
        path.write_text("\n".join(lines) + "\n")
        return standard_group(f"cayley:{path}")

    head = ["6", " ".join(G.names)]
    G2 = read(["", head[0], " ", head[1], *rows[:4], "\t", *rows[4:], ""])
    assert np.array_equal(G2.table, G.table) and G2.names == G.names
    for k in (0, 3, 4, 5):
        with pytest.raises(ParseError, match="^cayley file: truncated$"):
            read(head + rows[:k])
    width, integers = "cayley file: row width mismatch", "cayley file: table entries must be integers"
    last_entry = {"": width, "0 0": width,
                  **dict.fromkeys(("x", "1.5", "0x1", "1_000", "\u0661"), integers),
                  **dict.fromkeys(("6", "-1", str(10 ** 12), str(10 ** 30)),
                                  "table entries out of range")}
    for entry, message in last_entry.items():
        for i in (0, 3, 5):
            bad = rows[:i] + [rows[i].rsplit(" ", 1)[0] + " " + entry] + rows[i + 1:]
            with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
                read(head + bad)


def test_cayley_file_refuses_float_entries_that_loadtxt_only_warns_on(tmp_path, monkeypatch):
    """numpy 1.23 to 1.26 read 1.0, 1e0 or 1.5 into an integer column through
    a float, with only a DeprecationWarning; a loadtxt that does the same
    stands in for them here, and each entry is still not an integer."""
    real_loadtxt = np.loadtxt

    def loadtxt_with_float_fallback(lines, dtype, **kwargs):
        rows = [ln.split() for ln in lines]
        if not all(re.fullmatch(r"[+-]?[0-9]+", t) for row in rows for t in row):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
            lines = [" ".join(str(int(float(t))) for t in row) for row in rows]
        return real_loadtxt(lines, dtype=dtype, **kwargs)

    monkeypatch.setattr(np, "loadtxt", loadtxt_with_float_fallback)
    path = tmp_path / "c2.txt"
    for entry in ("1.0", "1e0", "1.5"):
        path.write_text(f"2\na b\n0 1\n{entry} 0\n")
        with pytest.raises(ParseError, match="^cayley file: table entries must be integers$"):
            groups._parse_cayley_file(str(path), groups.DEFAULT_MAX_ORDER)


@pytest.mark.parametrize("block_bytes", [1, 5000])
def test_central_product_in_blocks_matches_oracle(monkeypatch, block_bytes):
    monkeypatch.setattr(groups, "_ASSOCIATIVITY_BLOCK_BYTES", block_bytes)
    for a, b in (("quaternion", "dihedral:4"), ("dihedral:6", "cyclic:2"), ("es:1", "es:2")):
        A, B = standard_group(a), standard_group(b)
        G, O = groups._central_product(A, B, "c"), central_product_by_cosets(A, B, "c")
        assert np.array_equal(G.table, O.table) and G.names == O.names


def test_central_product_is_held_to_its_own_table_bytes(monkeypatch):
    """Order 10,000 needs a 400 MB table, so a large bound admits it, though
    its direct product's table would take 1.6 GB."""
    monkeypatch.setattr(groups, "_central_product", lambda A, B, spec: (A.order, B.order))
    order, build = groups._plan("centprod:dihedral:100,dihedral:50", 10 ** 6)
    assert order == 10_000 and build() == (200, 100)


@pytest.mark.parametrize("block_bytes", [1, 5000])
def test_perm_table_in_blocks_matches_oracle(monkeypatch, block_bytes):
    monkeypatch.setattr(groups, "_ASSOCIATIVITY_BLOCK_BYTES", block_bytes)
    for n, even_only in ((5, False), (6, True)):
        G = groups._perm_group(n, even_only, "perm")
        assert np.array_equal(G.table, perm_table_by_searchsorted(n, even_only))


@pytest.mark.parametrize("spec", [f"sym:{n}" for n in range(2, 7)]
                         + [f"alt:{n}" for n in range(3, 8)])
def test_light_check_runs_on_the_perm_builders_generators(monkeypatch, spec):
    """sym:n is checked on (1 2) and (1 2 ... n); alt:n on (1 2 3) and
    (1 2 ... n) or, for even n, (2 3 ... n)."""
    head, n = spec.split(":")
    n = int(n)
    checked = []
    check = groups.FiniteGroup._check_associativity

    def recording_check(self, hint=()):
        checked.append(check(self, hint))
        return checked[-1]

    monkeypatch.setattr(groups.FiniteGroup, "_check_associativity", recording_check)
    G = groups._plan(spec, groups.DEFAULT_MAX_ORDER)[1]()
    cycles = (["(1 2)", "(" + " ".join(map(str, range(1, n + 1))) + ")"] if head == "sym" else
              ["(1 2 3)", "(" + " ".join(map(str, range(1 + (n % 2 == 0), n + 1))) + ")"])
    assert [G.name(g) for g in checked[-1]] == list(dict.fromkeys(cycles))


def test_perm_builder_names_a_walk_that_misses_elements(monkeypatch):
    monkeypatch.setattr(groups, "_perm_generators", lambda n, even_only: [(1, 0, 2, 3)])
    message = "table build: the generators of sym:4 reach 2 of its 24 permutations"
    with pytest.raises(InternalInvariantError, match=message):
        groups._plan("sym:4", groups.DEFAULT_MAX_ORDER)[1]()


def _oracle_group(spec: str):
    """The table and names of spec from the builders' former constructions."""
    head, _, rest = spec.partition(":")
    if head == "dihedral":
        G = dihedral_by_loop(int(rest))
    elif head == "quaternion":
        G = quaternion_by_dictionary()
    elif head in ("sym", "alt"):
        return (perm_table_by_searchsorted(int(rest), head == "alt"),
                perm_names_by_cycle_walk(int(rest), head == "alt"))
    elif head == "es":
        return es_by_element_law(int(rest))
    elif head == "product":
        end = groups._spec_end(rest, 0)
        G = direct_product_by_int64(standard_group(rest[:end]), standard_group(rest[end + 1:]),
                                    spec)
    else:
        end = groups._spec_end(rest, 0)
        G = central_product_by_cosets(standard_group(rest[:end]), standard_group(rest[end + 1:]),
                                      spec)
    return G.table, list(G.names)


@pytest.mark.parametrize("spec", [f"dihedral:{n}" for n in range(1, 81)] + ["quaternion"]
                         + list(_CENTPROD_SPECS) + [f"{h}:{n}" for h in ("sym", "alt")
                                                    for n in range(1, 7)]
                         + ["alt:7"] + [f"es:{n}" for n in (1, 2, 3)] + list(_PRODUCT_SPECS))
def test_builders_match_their_former_constructions(spec):
    G = standard_group(spec)
    table, names = _oracle_group(spec)
    assert G.table.dtype == np.int32
    assert np.array_equal(G.table, table)
    assert list(G.names) == names


@pytest.mark.skipif(os.environ.get("GROUPFLOW_SKIP_SLOW") == "1",
                    reason="GROUPFLOW_SKIP_SLOW=1 skips sym:7")
def test_builders_match_their_former_constructions_slow():
    """sym:7, the largest permutation group within DEFAULT_MAX_ORDER."""
    G = standard_group("sym:7")
    table, names = _oracle_group("sym:7")
    assert np.array_equal(G.table, table)
    assert list(G.names) == names


@pytest.mark.parametrize("n", [1, 2, 12, 60])
def test_cyclic_table_is_int32_addition_mod_n(n):
    idx = np.arange(n)
    T = standard_group(f"cyclic:{n}").table
    assert T.dtype == np.int32
    assert np.array_equal(T, (idx[:, None] + idx[None, :]) % n)


def test_nested_cayley_spec_rereads_file(tmp_path):
    path = tmp_path / "c.txt"

    def write_cyclic(n):
        G = standard_group(f"cyclic:{n}")
        lines = [str(n), " ".join(G.names)] + [" ".join(map(str, r)) for r in G.table.tolist()]
        path.write_text("\n".join(lines) + "\n")

    spec = f"product:cayley:{path},cyclic:2"
    write_cyclic(3)
    assert standard_group(spec).order == 6
    write_cyclic(5)
    assert standard_group(spec).order == 10
    assert standard_group(f"centprod:product:cayley:{path},cyclic:2,quaternion").order == 40


# -- centralizer ---------------------------------------------------------------------


def test_centralizer_identity_is_whole_group():
    G = standard_group("sym:4")
    assert centralizer(G, [G.identity]).order == G.order


def test_centralizer_of_z_in_es2():
    G = es_group(2)
    assert centralizer(G, [G.index_of("z")]).order == G.order


def test_centralizer_transposition_sym3():
    G = standard_group("sym:3")
    sub = centralizer(G, [G.index_of("(1 2)")])
    assert sub.members == tuple(sorted((G.identity, G.index_of("(1 2)"))))


def test_centralizer_closed():
    G = standard_group("sym:4")
    sub = centralizer(G, [G.index_of("(1 2 3 4)")])
    members = set(sub.members)
    for a, b in itertools.product(sub.members, repeat=2):
        assert G.mul(a, b) in members


# -- maximal abelian subgroups ----------------------------------------------------------


def test_maximal_abelian_abelian_group():
    G = standard_group("cyclic:12")
    subs = maximal_abelian_subgroups(G)
    assert len(subs) == 1 and subs[0].order == 12


def test_maximal_abelian_quaternion():
    G = standard_group("quaternion")
    subs = maximal_abelian_subgroups(G)
    assert len(subs) == 3
    assert all(s.order == 4 for s in subs)
    center = set(G.center())
    for a, b in itertools.combinations(subs, 2):
        assert set(a.members) & set(b.members) == center


def test_maximal_abelian_sym3():
    G = standard_group("sym:3")
    subs = maximal_abelian_subgroups(G)
    assert sorted(s.order for s in subs) == [2, 2, 2, 3]


@pytest.mark.parametrize("spec", [
    "sym:3", "quaternion", "dihedral:4", "alt:4", "dihedral:6",
    "sym:4", "es:2", "product:cyclic:2,quaternion", "centprod:quaternion,dihedral:4",
])
def test_maximal_abelian_properties_and_cover(spec):
    G = standard_group(spec)
    subs = maximal_abelian_subgroups(G)
    covered = set()
    for H in subs:
        assert H.is_abelian
        assert centralizer(G, H.members).members == H.members
        covered |= set(H.members)
    assert covered == set(G.elements())


@pytest.mark.parametrize("spec", ["sym:3", "quaternion", "dihedral:4", "alt:4", "sym:4"])
def test_maximal_abelian_vs_lattice_oracle(spec):
    G = standard_group(spec)
    got = {s.members for s in maximal_abelian_subgroups(G)}
    assert got == maximal_abelian_oracle(G)


@pytest.mark.parametrize("spec", ["es:2", "dihedral:6", "product:cyclic:2,quaternion",
                                  "centprod:quaternion,dihedral:4", "sym:4"])
def test_maximal_abelian_vs_clique_oracle(spec):
    """Independent route: maximal cliques of the commuting graph, via networkx."""
    G = standard_group(spec)
    assert G.order <= 64
    graph = nx.Graph()
    graph.add_nodes_from(G.elements())
    for a, b in itertools.combinations(G.elements(), 2):
        if G.commutes(a, b):
            graph.add_edge(a, b)
    cliques = {tuple(sorted(c)) for c in nx.find_cliques(graph)}
    got = {s.members for s in maximal_abelian_subgroups(G)}
    assert got == cliques


@pytest.mark.parametrize("block_bytes", [1, 100, 1 << 20])
def test_commuting_bitsets_in_blocks_match_each_pair(monkeypatch, block_bytes):
    """Bit b of a's bitset is set exactly when ab = ba and b != a, however
    many rows each packed block holds (one, a few, all)."""
    monkeypatch.setattr(groups, "_ASSOCIATIVITY_BLOCK_BYTES", block_bytes)
    for spec in ("sym:4", "es:2", "dihedral:5", "product:cyclic:2,cyclic:3"):
        G = standard_group(spec)
        assert groups._commuting_bitsets(G) == [
            sum(1 << b for b in G.elements() if b != a and G.commutes(a, b)) for a in G.elements()]


def _cliques_match_recursive_oracle(G):
    neigh = groups._commuting_bitsets(G)
    cliques = groups._maximal_cliques(neigh, G.order)
    assert cliques == maximal_cliques_by_recursion(neigh, G.order)
    if not G.is_abelian:
        expected = sorted(tuple(groups._bits(c)) for c in cliques)
        assert [s.members for s in maximal_abelian_subgroups(G)] == expected


def test_maximal_cliques_match_recursive_oracle_benchmark_specs():
    for spec in BENCHMARK_GROUPS + ["alt:7"]:
        _cliques_match_recursive_oracle(standard_group(spec))


def test_maximal_cliques_match_recursive_oracle_dihedral_up_to_200():
    for n in range(1, 101):
        _cliques_match_recursive_oracle(standard_group(f"dihedral:{n}"))


@pytest.mark.parametrize("spec", [f"sym:{n}" for n in range(1, 7)]
                         + [f"alt:{n}" for n in range(3, 8)])
def test_perm_table_matches_searchsorted_oracle(spec):
    head, n = spec.split(":")
    G = standard_group(spec)
    assert np.array_equal(G.table, perm_table_by_searchsorted(int(n), head == "alt"))


# -- abelian basis and discrete log -------------------------------------------------------


def test_abelian_basis_trivial():
    G = standard_group("sym:3")
    basis = abelian_basis(Subgroup(G, (G.identity,)))
    assert basis.gens == () and basis.orders == ()


def test_abelian_basis_cyclic6():
    G = standard_group("cyclic:6")
    basis = abelian_basis(Subgroup(G, tuple(G.elements())))
    assert basis.orders == (6,)


def test_abelian_basis_klein_four():
    G = standard_group("sym:4")
    klein = closure(G, [G.index_of("(1 2)(3 4)"), G.index_of("(1 3)(2 4)")])
    basis = abelian_basis(klein)
    assert basis.orders == (2, 2)


def test_abelian_basis_rejects_nonabelian():
    G = standard_group("sym:3")
    with pytest.raises(NotAbelian):
        abelian_basis(Subgroup(G, tuple(G.elements())))


@pytest.mark.parametrize("spec,members_of", [
    ("cyclic:12", "all"),
    ("product:cyclic:2,cyclic:4", "all"),
    ("product:cyclic:6,cyclic:10", "all"),
    ("es:2", "center"),
])
def test_abelian_basis_roundtrip(spec, members_of):
    G = standard_group(spec)
    members = tuple(G.elements()) if members_of == "all" else tuple(G.center())
    H = Subgroup(G, members)
    basis = abelian_basis(H)
    assert math.prod(basis.orders) == H.order
    for d1, d2 in zip(basis.orders, basis.orders[1:]):
        assert d2 % d1 == 0
    for g in H.members:
        vec = discrete_log(basis, g)
        rebuilt = G.identity
        for gen, a in zip(basis.gens, vec):
            rebuilt = G.mul(rebuilt, G.power(gen, a))
        assert rebuilt == g


def test_subgroup_member_set_is_cached_without_changing_equality():
    G = standard_group("sym:3")
    H, K = Subgroup(G, (3, 0)), Subgroup(G, (0, 3))
    assert 3 in H and 1 not in H
    assert H._member_set is H._member_set == frozenset({0, 3})
    assert H == K and hash(H) == hash(K) and len({H, K}) == 1
    assert H != Subgroup(G, (0,))


BENCHMARK_GROUPS = [
    "es:2", "centprod:quaternion,dihedral:4", "product:es:2,cyclic:2",
    "product:quaternion,quaternion", "es:3", "dihedral:6", "product:sym:3,sym:3", "sym:4",
    "alt:5", "sym:5", "alt:6", "sym:6",
]


def _relabelled(G, seed):
    """G with its element indices shuffled, so that the least element of an
    order does not follow the factors' order."""
    perm = list(range(G.order))
    random.Random(seed).shuffle(perm)
    inv = np.argsort(perm)
    table = [[perm[G.table[inv[a], inv[b]]] for b in range(G.order)] for a in range(G.order)]
    return group_from_cayley(table, [G.names[inv[a]] for a in range(G.order)])


BASIS_SPECS = [(spec, None) for spec in BENCHMARK_GROUPS + [
    "cyclic:12", "product:cyclic:6,cyclic:10", "product:cyclic:4,product:cyclic:2,cyclic:8",
]] + [(spec, seed) for spec in ("product:cyclic:2,cyclic:4", "product:cyclic:4,cyclic:8",
                                "product:cyclic:6,product:cyclic:2,cyclic:12") for seed in (1, 2, 3)]


@pytest.mark.parametrize("spec,seed", BASIS_SPECS)
def test_abelian_basis_matches_order_count_oracle(spec, seed):
    """On every maximal abelian subgroup H: the orders form a divisor chain
    with product |H|; each generator has its order, so the basis map is a
    homomorphism; the dlog table inverts it on all of H; and for every k
    dividing |H| (so every k dividing the exponent), Z/d_1 + ... + Z/d_k
    has as many solutions of h^k = 1 as H has, counted by powering in G.
    Relabelled abelian groups make the greedy lift's correction step run."""
    G = standard_group(spec) if seed is None else _relabelled(standard_group(spec), seed)
    for H in maximal_abelian_subgroups(G):
        basis = abelian_basis(H)
        assert math.prod(basis.orders) == H.order
        assert all(d > 1 for d in basis.orders)
        assert all(b % a == 0 for a, b in zip(basis.orders, basis.orders[1:]))
        assert [closure(G, [g]).order for g in basis.gens] == list(basis.orders)
        assert set(basis.dlog) == set(H.members)
        for h in H.members:
            vec = discrete_log(basis, h)
            assert all(0 <= a < d for a, d in zip(vec, basis.orders))
            assert G.prod(G.power(g, a) for g, a in zip(basis.gens, vec)) == h
        for k in range(1, H.order + 1):
            if H.order % k == 0:
                solutions = sum(G.power(h, k) == G.identity for h in H.members)
                assert solutions == math.prod(math.gcd(k, d) for d in basis.orders), (H.members, k)


@pytest.mark.parametrize("spec,seed", BASIS_SPECS + [("alt:7", None)])
def test_abelian_basis_matches_numpy_oracle(spec, seed):
    """The basis found on H's own table is the former loop's on G's whole
    table: the same generators, orders and discrete logs on every maximal
    abelian subgroup."""
    G = standard_group(spec) if seed is None else _relabelled(standard_group(spec), seed)
    for H in maximal_abelian_subgroups(G):
        basis, oracle = abelian_basis(H), abelian_basis_by_numpy(H)
        assert (basis.gens, basis.orders) == (oracle.gens, oracle.orders), H.members
        assert basis.dlog == oracle.dlog


def test_discrete_log_identity_and_unit():
    G = standard_group("cyclic:6")
    basis = abelian_basis(Subgroup(G, tuple(G.elements())))
    assert discrete_log(basis, G.identity) == (0,)
    gen = basis.gens[0]
    assert discrete_log(basis, gen) == (1,)
    assert discrete_log(basis, G.power(gen, 4)) == (4,)


def test_discrete_log_not_member():
    G = standard_group("sym:3")
    rotations = closure(G, [G.index_of("(1 2 3)")])
    basis = abelian_basis(rotations)
    with pytest.raises(NotMember):
        discrete_log(basis, G.index_of("(1 2)"))


# -- conjugacy classes ------------------------------------------------------------------


def test_identity_class_is_singleton():
    G = standard_group("sym:4")
    cid = conjugacy_class_id(G, G.identity)
    assert cid == G.identity
    others = [g for g in G.elements() if conjugacy_class_id(G, g) == cid]
    assert others == [G.identity]


def test_sym3_transpositions_conjugate():
    G = standard_group("sym:3")
    assert conjugacy_class_id(G, G.index_of("(1 2)")) == conjugacy_class_id(G, G.index_of("(1 3)"))


def test_conjugation_invariance():
    rng = random.Random(5)
    G = standard_group("sym:4")
    for _ in range(200):
        g = rng.randrange(G.order)
        h = rng.randrange(G.order)
        assert conjugacy_class_id(G, g) == conjugacy_class_id(G, G.mul(G.mul(h, g), G.inv(h)))


@pytest.mark.parametrize("spec", ("sym:4", "es:2", "quaternion", "dihedral:6"))
def test_conjugacy_class_id_is_the_least_conjugate_and_leaves_the_group_as_it_was(spec):
    G = standard_group(spec)
    before = {k: copy.copy(v) for k, v in vars(G).items()}
    for g in G.elements():
        assert conjugacy_class_id(G, g) == min(G.mul(G.mul(h, g), G.inv(h))
                                               for h in G.elements())
    after = vars(G)
    assert after.keys() == before.keys()
    for k, v in before.items():
        assert (np.array_equal(v, after[k]) if isinstance(v, np.ndarray) else v == after[k]), k


def test_designated_central_involution():
    assert designated_central_involution(standard_group("quaternion")) is not None
    assert designated_central_involution(standard_group("sym:3")) is None
    d4 = standard_group("dihedral:4")
    z = designated_central_involution(d4)
    assert d4.names[z] == "r2"


def _orders_by_powers(G, members, in_K):
    """Least k >= 1 with h^k in K, by multiplying h in one element at a time."""
    out = []
    for h in members:
        x, k = h, 1
        while not in_K[x]:
            x, k = G.mul(x, h), k + 1
        out.append(k)
    return out


@pytest.mark.parametrize("spec", ["cyclic:5040", "cyclic:360", "dihedral:6", "quaternion",
                                  "es:3", "sym:5", "alt:6", "product:cyclic:9,cyclic:3"])
def test_element_orders_match_power_oracle(spec):
    """Orders come out the same when only the members whose order is still
    unknown take the next power; also modulo a subgroup K."""
    G = standard_group(spec)
    every = np.arange(G.order)
    orders = G.element_orders().tolist()
    if spec.startswith("cyclic:"):
        assert orders == [G.order // math.gcd(i, G.order) for i in range(G.order)]
    else:
        assert orders == _orders_by_powers(G, every, every == G.identity)
    rng = random.Random(spec)
    members = np.array(sorted(rng.sample(range(G.order), min(G.order, 200))))
    K = closure(G, [rng.randrange(G.order)])
    in_K = np.zeros(G.order, dtype=bool)
    in_K[list(K.members)] = True
    assert (orders_modulo(G.table, members, in_K).tolist()
            == _orders_by_powers(G, members, in_K))


@pytest.mark.parametrize("spec", ["cyclic:1", "cyclic:2", "cyclic:5040", "cyclic:97", "dihedral:1",
                                  "dihedral:30", "quaternion", "sym:1", "sym:5", "alt:6", "es:1",
                                  "es:3", "product:cyclic:12,dihedral:5",
                                  "product:product:cyclic:8,cyclic:9,cyclic:25",
                                  "centprod:quaternion,dihedral:4", "cayley"])
def test_element_orders_match_orders_modulo(spec, tmp_path):
    """The orders from the p-parts of |G| equal the least k with x^k = 1,
    found one power at a time by orders_modulo, on every family, on
    products and on a relabelled table read from a file."""
    if spec == "cayley":
        H = _relabelled(standard_group("product:sym:3,cyclic:4"), 5)
        lines = ([str(H.order), " ".join(f"g{i}" for i in range(H.order))]
                 + [" ".join(map(str, r)) for r in H.table.tolist()])
        (tmp_path / "h.txt").write_text("\n".join(lines) + "\n")
        spec = f"cayley:{tmp_path / 'h.txt'}"
    G = standard_group(spec)
    every = np.arange(G.order)
    assert (G.element_orders().tolist()
            == orders_modulo(G.table, every, every == G.identity).tolist())


@pytest.mark.parametrize("spec", ["sym:4", "es:2", "product:cyclic:4,cyclic:6", "quaternion"])
def test_group_unchanged_by_the_group_leak_decision(spec):
    """A built group may be shared by every caller that holds it, so no
    query may write into it: its attributes are the same objects before and
    after the orders, the commutativity flag, the maximal abelian
    subgroups and the glued group are read."""
    G = standard_group(spec)
    before = dict(vars(G))
    assert not G.element_orders().flags.writeable
    G.is_abelian
    maximal_abelian_subgroups(G)
    groupleak.build_delta(G)
    assert vars(G).keys() == before.keys()
    assert all(vars(G)[k] is v for k, v in before.items())


@pytest.mark.parametrize("spec", ["cyclic:12", "product:cyclic:4,cyclic:6", "sym:4", "es:2"])
def test_whole_group_subgroup_reads_cached_is_abelian(spec, monkeypatch):
    G = standard_group(spec)
    whole = Subgroup(G, tuple(range(G.order)))
    assert whole.is_abelian == G.is_abelian == bool(np.array_equal(G.table, G.table.T))
    for H in maximal_abelian_subgroups(G):
        assert H.is_abelian
    with monkeypatch.context() as patched:
        patched.setattr(groups.np, "ix_", None)        # no sub-table is built
        assert whole.is_abelian == G.is_abelian
