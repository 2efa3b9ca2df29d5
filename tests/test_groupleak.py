"""Group-leak decisions: Delta on the cyclic p-subgroups, the chain presentation
it replaced (kept as the oracle), phi, verdicts, witnesses."""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import re
import tracemalloc

import pytest

from groupflow import groupleak, groups
from groupflow.errors import InternalInvariantError, NotInKernel
from groupflow.flows import GroupFlow, LeakVerdict, detect_leak, is_tractable
from groupflow.graphs import edge_key, graph_from
from groupflow.groupleak import (
    DeltaPresentation,
    build_delta,
    is_binary_leakproof_group,
    is_leakproof_group,
    phi,
    witness_flow_from_kernel,
)
from groupflow.groups import (
    Subgroup,
    designated_central_involution,
    discrete_log,
    es_group,
    group_from_cayley,
    maximal_abelian_subgroups,
    standard_group,
)
from groupflow.howell import HowellForm, _prime_powers

import numpy as np

import helpers
from helpers import (
    DELTA_SPECS,
    ChainDelta,
    DenseHowellForm,
    chain_delta,
    chain_tags_element_major,
    chain_witness_flow,
    commuting_pair_fibres,
    every_pair_form,
    former_relation_pairs,
    former_sorted_rows,
    phi_fibres,
    closure,
    column_orders,
    dense_row,
    form_invariant_factors,
    pairwise_relation_rows,
    psi,
    unpruned_chain_tags,
    unscaled_delta,
    witness_values_two_forms,
)


# -- Delta, and the chain presentation kept as its oracle ---------------------------


def test_abelian_delta_is_the_group_itself():
    G = standard_group("product:cyclic:2,cyclic:4")
    D = chain_delta(G)
    assert len(D.subgroups) == 1
    assert D.invariant_factors() == [2, 4]
    v = is_leakproof_group(G, delta=D)
    assert v.leakproof
    assert build_delta(G).invariant_factors() == [2, 4]
    assert is_leakproof_group(G).leakproof


def test_quaternion_delta_factors():
    D = build_delta(standard_group("quaternion"))
    factors = D.invariant_factors()
    assert factors == [2, 2, 4]
    assert math.prod(factors) == 16


def test_sym3_phi_injective_by_exhaustion():
    """Independent check: enumerate the relation span and test every phi
    difference by brute force."""
    G = standard_group("sym:3")
    D = build_delta(G)
    m, k = D.modulus, D.ncols
    rows = [tuple(int(x) % m for x in dense_row(D.relation_row(tag), k)) for tag in D.pair_rows]
    span = {tuple([0] * k)}
    frontier = [tuple([0] * k)]
    while frontier:
        base = frontier.pop()
        for row in rows:
            nxt = tuple((a + b) % m for a, b in zip(base, row))
            if nxt not in span:
                span.add(nxt)
                frontier.append(nxt)
    images = {}
    for g in G.elements():
        vec = tuple(dense_row(D.embed(g), k).tolist())
        for other, ovec in images.items():
            diff = tuple((a - b) % m for a, b in zip(vec, ovec))
            assert (diff in span) == (phi(D, g) == phi(D, other))
        images[g] = vec
    assert is_binary_leakproof_group(G, delta=D).injective


def test_home_and_orders_index_the_blocks():
    """home[g] is the first maximal abelian subgroup that contains g, and
    orders[c] the order of column c's basis generator."""
    for spec in ("quaternion", "es:2", "sym:4"):
        G = standard_group(spec)
        D = chain_delta(G)
        assert D.home == tuple(next(i for i, H in enumerate(D.subgroups) if g in H)
                               for g in G.elements())
        assert list(D.orders) == column_orders(D) and D.ncols == len(D.orders)


def test_embed_and_phi_scans_search_no_subgroup(monkeypatch):
    """Once alt:6's Delta is built, embedding every element and both phi
    scans read each element's home and test no subgroup membership."""
    G = standard_group("alt:6")
    D = chain_delta(G)
    calls = []
    contains = Subgroup.__contains__
    monkeypatch.setattr(Subgroup, "__contains__", lambda H, g: calls.append(g) or contains(H, g))
    for g in G.elements():
        assert bool(D.embed(g)) == (g != G.identity)
    assert is_leakproof_group(G, delta=D).leakproof
    assert is_binary_leakproof_group(G, delta=D).injective
    assert calls == []
    assert G.identity in D.subgroups[0] and calls == [G.identity]


@pytest.mark.parametrize("spec", ["sym:3", None])
def test_build_delta_names_an_element_outside_every_subgroup(monkeypatch, spec):
    """An element that no maximal abelian subgroup holds stops chain_delta,
    which names its stage, the element and the group; a group given by its
    table alone has no spec."""
    S3 = standard_group("sym:3")
    G = group_from_cayley(S3.table, S3.names, spec=spec)
    kept = maximal_abelian_subgroups(G)[:-1]
    monkeypatch.setattr(helpers, "maximal_abelian_subgroups", lambda _G: kept)
    lost = min(set(G.elements()) - {g for H in kept for g in H.members})
    label = spec or "a table group"
    with pytest.raises(InternalInvariantError,
                       match=rf"^build_delta: element {re.escape(G.name(lost))} of {label} "
                             r"lies in no maximal abelian subgroup$"):
        chain_delta(G)


def test_relation_rows_recompute_mod_m():
    """One chain row per tag, each equal modulo m to its integer
    recomputation from the bases scaled by m / d_c at column c; every
    relation row, every embedded element and every pivot row lies in the
    image of psi: entry c is a multiple of m / d_c."""
    for spec in ("es:2", "sym:4"):
        D = chain_delta(standard_group(spec))
        m = D.modulus
        orders = column_orders(D)
        assert any(m // d > 1 for d in orders), spec      # the scaling is not the identity
        rows = list(D.relation_rows())
        assert [tag for _row, tag in rows] == list(D.pair_rows)
        for row, _tag in rows:
            assert all(0 < a < m for a in row.values())
        for row, (pair, g) in rows:
            expected = [0] * D.ncols
            for side, sign in zip(pair, (1, -1)):
                for t, a in enumerate(discrete_log(D.bases[side], g)):
                    col = D.offsets[side] + t
                    expected[col] += sign * a * (m // orders[col])
            assert [int(x) for x in dense_row(row, D.ncols)] == [a % m for a in expected]
        embedded = [D.embed(h, i) for i, H in enumerate(D.subgroups) for h in H.members]
        for vector in [row for row, _tag in rows] + embedded + D.canonical.pivot_rows():
            assert all(a % (m // orders[c]) == 0 for c, a in vector.items())


def test_pair_rows_identify_same_element():
    """Re-multiplying each logged generator inside the group reproduces it
    on both sides of the relation."""
    G = standard_group("quaternion")
    D = chain_delta(G)
    assert D.pair_rows
    for pair, g in D.pair_rows:
        for side in pair:
            vec = discrete_log(D.bases[side], g)
            rebuilt = G.identity
            for gen, a in zip(D.bases[side].gens, vec):
                rebuilt = G.mul(rebuilt, G.power(gen, a))
            assert rebuilt == g


@pytest.mark.parametrize("spec", ["quaternion", "es:2", "sym:4"])
def test_pair_rows_chain_each_cyclic_subgroup_once(spec):
    """One tagged generator per cyclic subgroup, its least-index one,
    chained through all the maximal abelian subgroups that contain it in
    index order.  A cyclic subgroup <g> in two or more of them is chained
    exactly when the lattice lacks it: when g is not generated by the
    elements h of I_g, the intersection of the subgroups containing g, that
    lie outside <g> and whose own cyclic subgroup's least generator comes
    before g."""
    G = standard_group(spec)
    D = chain_delta(G)
    pairs_of = {}
    for pair, g in D.pair_rows:
        pairs_of.setdefault(g, []).append(pair)
    cyclic_of = {g: closure(G, [g]).members for g in G.elements()}
    least_of = {g: min(h for h in cyclic_of[g] if cyclic_of[h] == cyclic_of[g])
                for g in G.elements()}
    for g, pairs in pairs_of.items():
        assert g == least_of[g]
        chain = [i for i, H in enumerate(D.subgroups) if g in H]
        assert pairs == list(zip(chain, chain[1:]))
    skipped = 0
    for g in G.elements():
        containing = [H for H in D.subgroups if g in H]
        if len(containing) < 2 or g != least_of[g] or g == G.identity:
            continue
        inside = set.intersection(*(set(H.members) for H in containing))
        earlier = [h for h in inside if h not in cyclic_of[g] and least_of[h] < g]
        generated = g in closure(G, earlier)
        assert (g in pairs_of) != generated, G.name(g)
        skipped += generated
    assert skipped == {"quaternion": 0, "es:2": 9, "sym:4": 0}[spec]


PAIRWISE_ORACLE_SPECS = [
    "quaternion", "es:2", "centprod:quaternion,dihedral:4", "product:es:2,cyclic:2",
    "product:quaternion,quaternion", "dihedral:6", "sym:3", "sym:4", "alt:5", "sym:5",
    "alt:6", "sym:6",
]


@pytest.mark.parametrize("spec", PAIRWISE_ORACLE_SPECS)
def test_chain_rows_match_pairwise_oracle(spec):
    """Chain rows span the lattice of the pair-by-pair gluing: the scaled
    pairwise rows give the same canonical reduction of every element as
    ``D.canonical``, the unscaled ones with their order rows the same
    invariant factors, and the verdict and witness agree."""
    G = standard_group(spec)
    D = chain_delta(G)
    oracle = HowellForm(D.ncols, D.modulus)
    for row, _tag in pairwise_relation_rows(D):
        oracle.add_row(row)
    # inclusion both ways: the lattices are equal
    for row, _tag in D.relation_rows():
        assert oracle.contains(row)
    for row in oracle.pivot_rows():
        assert D.canonical.contains(row)
    unscaled = HowellForm(D.ncols, D.modulus)
    for row, _tag in pairwise_relation_rows(unscaled_delta(D)):
        unscaled.add_row(row)
    assert D.invariant_factors() == form_invariant_factors(unscaled)
    kernel = None
    for g in G.elements():
        image = oracle.reduce(D.embed(g))
        assert dict(phi(D, g)) == image == D.canonical.reduce(D.embed(g))
        if kernel is None and g != G.identity and not image:
            kernel = g
    verdict = is_leakproof_group(G, delta=D)
    assert verdict.leakproof == (kernel is None)
    assert verdict.witness == kernel


def _element_major_delta(D):
    """D with its own chain rows absorbed in element order, each
    generator's whole chain before the next generator's: the tag order
    the chain presentation used before it absorbed the rows pair by pair."""
    tags = chain_tags_element_major(D)
    assert sorted(tags) == sorted(D.pair_rows)
    E = dataclasses.replace(D, pair_rows=tuple(tags), canonical=HowellForm(D.ncols, D.modulus))
    for row, _tag in E.relation_rows():
        E.canonical.add_row(row)
    return E


@pytest.mark.parametrize("spec", PAIRWISE_ORACLE_SPECS + ["es:3"])
def test_pair_major_rows_match_element_major_oracle(spec):
    """Absorbing the chain rows pair by pair gives the same canonical form
    as absorbing them element by element: the same reduction of every
    element, invariant factors, leak witness, binary collision and
    witness-flow values."""
    G = standard_group(spec)
    D = chain_delta(G)
    E = _element_major_delta(D)
    for g in G.elements():
        assert D.canonical.reduce(D.embed(g)) == E.canonical.reduce(E.embed(g))
    assert D.invariant_factors() == E.invariant_factors()
    leak = is_leakproof_group(G, delta=D)
    assert leak.witness == is_leakproof_group(G, delta=E).witness
    assert (is_binary_leakproof_group(G, delta=D).collision
            == is_binary_leakproof_group(G, delta=E).collision)
    if not leak.leakproof:
        assert (chain_witness_flow(D, leak.witness)[1].values
                == chain_witness_flow(E, leak.witness)[1].values)


def _unpruned_delta(D):
    """D with a chain for every cyclic subgroup that two maximal abelian
    subgroups share: the tags chain_delta took before it skipped the chains
    the lattice already has."""
    tags = unpruned_chain_tags(D.group, D.subgroups)
    assert set(D.pair_rows) <= set(tags)
    U = dataclasses.replace(D, pair_rows=tuple(tags), canonical=HowellForm(D.ncols, D.modulus))
    for row, _tag in U.relation_rows():
        U.canonical.add_row(row)
    return U


@pytest.mark.parametrize("spec", PAIRWISE_ORACLE_SPECS + [
    "es:3", "product:dihedral:4,cyclic:4", "product:dihedral:6,cyclic:10"])
def test_pruned_chains_span_the_unpruned_lattice(spec):
    """The pruned chain rows span the lattice of every chain: each Howell
    form contains the other's pivot rows, and the two give the same
    invariant factors, phi (so the same kernel and fibres), leak witness
    and binary collision.  The witness flow built on either set of rows
    leaks the witness (chain_witness_flow re-certifies it).  In the
    two products, a rule that took every element of an earlier cyclic
    subgroup, not only its generators, would skip a chain the lattice
    lacks."""
    G = standard_group(spec)
    D = chain_delta(G)
    U = _unpruned_delta(D)
    assert all(U.canonical.contains(row) for row in D.canonical.pivot_rows())
    assert all(D.canonical.contains(row) for row in U.canonical.pivot_rows())
    assert D.invariant_factors() == U.invariant_factors()
    assert all(phi(D, g) == phi(U, g) for g in G.elements())
    leak = is_leakproof_group(G, delta=D)
    assert leak.witness == is_leakproof_group(G, delta=U).witness
    assert (is_binary_leakproof_group(G, delta=D).collision
            == is_binary_leakproof_group(G, delta=U).collision)
    if not leak.leakproof:
        for X in (D, U):
            verdict = detect_leak(chain_witness_flow(X, leak.witness)[1])
            assert (verdict.kind, verdict.value) == (LeakVerdict.LEAKS_AT, leak.witness)


def _assert_matches_unscaled_oracle(spec):
    """The chain presentation, scaled, against its former unscaled one,
    with order rows and the unpruned chain rows: the same kernel and
    phi-fibres, invariant factors, leak witness and binary collision.  The
    witness flow has the values of the unscaled two-form solve over D's
    own rows, and the two-form solve over the unpruned rows leaks the
    witness too."""
    G = standard_group(spec)
    D = chain_delta(G)
    U = unscaled_delta(D)
    fibres, oracle_fibres = {}, {}
    for g in G.elements():
        fibres.setdefault(phi(D, g), []).append(g)
        oracle_fibres.setdefault(phi(U, g), []).append(g)
    assert fibres[()] == oracle_fibres[()]
    assert sorted(fibres.values()) == sorted(oracle_fibres.values())
    assert D.invariant_factors() == U.invariant_factors()
    leak = is_leakproof_group(G, delta=D)
    assert leak.witness == is_leakproof_group(G, delta=U).witness
    assert (is_binary_leakproof_group(G, delta=D).collision
            == is_binary_leakproof_group(G, delta=U).collision)
    if not leak.leakproof:
        pruned = dataclasses.replace(U, pair_rows=D.pair_rows)     # its canonical is unread
        assert (chain_witness_flow(D, leak.witness)[1].values
                == witness_values_two_forms(pruned, leak.witness))
        values = witness_values_two_forms(U, leak.witness)
        verdict = detect_leak(GroupFlow(graph_from(range(1, len(U.subgroups) + 1), values),
                                        G, values))
        assert (verdict.kind, verdict.vertex, verdict.value) == (
            LeakVerdict.LEAKS_AT, U.home[leak.witness] + 1, leak.witness)


@pytest.mark.parametrize("spec", PAIRWISE_ORACLE_SPECS + ["es:3"])
def test_scaled_delta_matches_unscaled_oracle(spec):
    _assert_matches_unscaled_oracle(spec)


@pytest.mark.skipif(os.environ.get("GROUPFLOW_SKIP_SLOW") == "1",
                    reason="GROUPFLOW_SKIP_SLOW=1 skips alt:7 and es:4")
@pytest.mark.parametrize("spec", ["alt:7", "es:4"])
def test_scaled_delta_matches_unscaled_oracle_slow(spec):
    _assert_matches_unscaled_oracle(spec)


# -- Delta on the cyclic p-subgroups against its oracles ------------------------------


def _assert_matches_chain_oracle(spec):
    """build_delta against the chain presentation it replaced: the same
    phi-fibres, invariant factors, first kernel element and first
    collision."""
    G = standard_group(spec)
    D, C = build_delta(G), chain_delta(G)
    assert phi_fibres(G, lambda g: phi(D, g)) == phi_fibres(G, lambda g: phi(C, g))
    assert D.invariant_factors() == C.invariant_factors()
    assert is_leakproof_group(G, delta=D) == is_leakproof_group(G, delta=C)
    assert is_binary_leakproof_group(G, delta=D) == is_binary_leakproof_group(G, delta=C)


@pytest.mark.parametrize("spec", PAIRWISE_ORACLE_SPECS + ["alt:7", "sym:7"])
def test_delta_matches_chain_oracle(spec):
    _assert_matches_chain_oracle(spec)


@pytest.mark.skipif(os.environ.get("GROUPFLOW_SKIP_SLOW") == "1",
                    reason="GROUPFLOW_SKIP_SLOW=1 skips es:4")
def test_delta_matches_chain_oracle_slow():
    _assert_matches_chain_oracle("es:4")


@pytest.mark.skipif(os.environ.get("GROUPFLOW_SKIP_SLOW") == "1",
                    reason="GROUPFLOW_SKIP_SLOW=1 skips es:5")
def test_es5_leaks_exactly_at_z_slow():
    """es:5, of order 2,048, within the default bound: phi's kernel is
    exactly {1, z}, the first collision is (1, z), and Delta's invariant
    factors are eleven 2s."""
    G = standard_group("es:5")
    D = build_delta(G)
    assert [G.name(g) for g in G.elements() if not phi(D, g)] == ["1", "z"]
    assert [G.name(g) for g in is_binary_leakproof_group(G, delta=D).collision] == ["1", "z"]
    assert D.invariant_factors() == [2] * 11


@pytest.mark.parametrize("spec", [
    "quaternion", "sym:3", "dihedral:6", "cyclic:12", "alt:4", "sym:4", "es:2",
    "centprod:quaternion,dihedral:4", "product:es:2,cyclic:2", "product:alt:4,cyclic:6"])
def test_commuting_pair_presentation_gives_the_same_fibres(spec):
    """The theorem: Delta presented on every element and every commuting
    pair of G, with one modulus, has the fibres of the sum of the p-parts
    on the cyclic p-subgroups."""
    G = standard_group(spec)
    D = build_delta(G)
    assert commuting_pair_fibres(G) == phi_fibres(G, lambda g: phi(D, g))


@pytest.mark.parametrize("spec", PAIRWISE_ORACLE_SPECS + ["es:3"])
def test_central_reduction_keeps_the_fibres(spec):
    """R(g, y) for every column generator g and every p-element y in C(g),
    with no central rows and no choice of cosets, spans what build_delta's
    rows span: each form contains the other's pivot rows, and the fibres
    agree."""
    G = standard_group(spec)
    D = build_delta(G)
    every = every_pair_form(D)
    assert all(every.contains(row) for row in D.canonical.pivot_rows())
    assert all(D.canonical.contains(row) for row in every.pivot_rows())
    assert (phi_fibres(G, lambda g: tuple(sorted(every.reduce(D.embed(g)).items())))
            == phi_fibres(G, lambda g: phi(D, g)))


def _row_pass_inputs(G):
    """What build_delta hands its pair and row passes: m, column, value,
    the column generators and their orders."""
    m = int(np.lcm.reduce(G.element_orders()))
    column, value, generators = groupleak._cyclic_columns(G, m)
    orders = tuple(int(G.element_orders()[g]) for g in generators)
    return (m, np.array(column, dtype=np.int32), np.array(value, dtype=np.int32),
            generators, orders)


# groups whose centres have p-parts of order 4 to 27, so that the cosets of
# Z_p take more than one generator's powers
_CENTRE_SPECS = ("product:dihedral:4,cyclic:8", "product:sym:3,cyclic:27",
                 "centprod:dihedral:4,cyclic:12", "product:quaternion,product:cyclic:2,cyclic:2")


@pytest.mark.parametrize("spec", DELTA_SPECS + ("es:4",) + _CENTRE_SPECS)
def test_row_passes_match_their_former_passes(spec):
    """The whole-array pair pass gives the former pass's xs and ys, and
    the row pass, on them, the former one's cols, vals, xs and ys: the same
    rows, before pruning, in the same order."""
    G = standard_group(spec)
    m, column, value, generators, orders = _row_pass_inputs(G)
    pairs = groupleak._relation_pairs(G, column, generators, orders)
    former = former_relation_pairs(G, column, generators, orders)
    assert len(pairs) == len(former) == 2
    assert all(np.array_equal(a, b) for a, b in zip(pairs, former))
    rows = groupleak._sorted_rows(G, m, column, value, *pairs)
    former_rows = former_sorted_rows(G, m, column, value, *former)
    assert len(rows) == len(former_rows) == 4
    assert all(np.array_equal(a, b) for a, b in zip(rows, former_rows))


@pytest.mark.parametrize("spec", DELTA_SPECS + _CENTRE_SPECS)
def test_pair_rows_are_the_rows_that_change_the_form(spec):
    """Absorbing every row of the row pass, add_row returns False exactly
    when the form already contained the row, and pair_rows are the tags of
    the others, in order.  A form rebuilt from pair_rows alone contains
    every pivot row of canonical, and canonical every pivot row of it."""
    G = standard_group(spec)
    D = build_delta(G)
    m, column, value, generators, orders = _row_pass_inputs(G)
    cols, vals, xs, ys = groupleak._sorted_rows(
        G, m, column, value, *groupleak._relation_pairs(G, column, generators, orders))
    form, kept = HowellForm(D.ncols, m), []
    for row_cols, row_vals, x, y in zip(cols.tolist(), vals.tolist(), xs.tolist(), ys.tolist()):
        row = {c: a for c, a in zip(row_cols, row_vals) if a}
        assert row == D.relation_row((x, y))
        held = form.contains(row)
        assert form.add_row(row) is (not held)
        if not held:
            kept.append((x, y))
    assert tuple(kept) == D.pair_rows
    rebuilt = HowellForm(D.ncols, m)
    for tag in D.pair_rows:
        rebuilt.add_row(D.relation_row(tag))
    assert all(rebuilt.contains(row) for row in D.canonical.pivot_rows())
    assert all(D.canonical.contains(row) for row in rebuilt.pivot_rows())


@pytest.mark.parametrize("spec, bound_mib", [("es:4", 9.0), ("alt:7", 1.45)])
def test_build_delta_peaks_below_its_former_passes(spec, bound_mib):
    """build_delta's peak traced memory stays below that of the former
    pair and row passes: 9.1 MiB on es:4 and 1.5 MiB on alt:7, measured
    as here, after one build of es:2 that keeps numpy's first-call
    allocations out of the peak.  The group is built before tracing."""
    build_delta(standard_group("es:2"))
    G = standard_group(spec)
    tracemalloc.start()
    try:
        D = build_delta(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert D.pair_rows
    assert peak <= bound_mib * 2 ** 20


def test_build_delta_searches_no_subgroup(monkeypatch):
    """Delta needs no maximal abelian subgroup, basis or discrete log."""
    def refuse(*_args):
        raise AssertionError("called")

    for name in ("maximal_abelian_subgroups", "abelian_basis", "discrete_log"):
        assert not hasattr(groupleak, name)
        monkeypatch.setattr(groups, name, refuse)
    G = standard_group("sym:4")
    D = build_delta(G)
    assert is_leakproof_group(G, delta=D).leakproof
    assert D.invariant_factors() == [2, 2, 6, 6, 12, 12]


def test_columns_are_the_cyclic_p_subgroups():
    """One column per cyclic p-subgroup, held by its least-index generator,
    with that generator's order; each p-element x = g^k has the single
    coordinate k * m / ord(g), and every element's vector is the sum of its
    p-parts'."""
    for spec in ("sym:4", "dihedral:6", "product:alt:4,cyclic:6"):
        G = standard_group(spec)
        D = build_delta(G)
        orders = G.element_orders()
        cyclic = {}
        for x in G.elements():
            if len({p for p, _ in _prime_powers(int(orders[x]))}) == 1:
                cyclic.setdefault(frozenset(G.power(x, k) for k in range(orders[x])), []).append(x)
        assert sorted(D.generators) == sorted(min(gens) for gens in cyclic.values())
        assert list(D.orders) == [int(orders[g]) for g in D.generators]
        assert D.modulus == math.lcm(*orders.tolist())
        for c, g in enumerate(D.generators):
            for k in range(1, D.orders[c]):
                if math.gcd(k, D.orders[c]) == 1:
                    assert D.embed(G.power(g, k)) == {c: k * D.modulus // D.orders[c]}
        for x in G.elements():
            n, vector = int(orders[x]), {}
            for p, a in _prime_powers(n):           # x's p-part is x^u
                q = p ** a
                vector.update(D.embed(G.power(x, n // q * pow(n // q, -1, q))))
            assert D.embed(x) == vector


# -- phi -------------------------------------------------------------------------


def test_phi_identity_is_zero():
    D = build_delta(standard_group("sym:3"))
    assert phi(D, D.group.identity) == ()


@pytest.mark.parametrize("spec", PAIRWISE_ORACLE_SPECS)
def test_phi_empty_exactly_on_kernel(spec):
    """phi(gamma) is () exactly when gamma's coordinates lie in the lattice
    of the pairwise gluing, tested by the dense elimination; any other
    image is its sorted nonzero (column, residue) pairs."""
    G = standard_group(spec)
    D = chain_delta(G)
    oracle = DenseHowellForm(D.ncols, D.modulus)
    for row, _tag in pairwise_relation_rows(D):
        oracle.add_row(row)
    kernel = 0
    for g in G.elements():
        image = phi(D, g)
        assert (image == ()) == oracle.contains(D.embed(g))
        assert list(image) == sorted(image)
        assert all(0 <= c < D.ncols and 0 < a < D.modulus for c, a in image)
        kernel += image == ()
    assert (kernel == 1) == is_leakproof_group(G, delta=D).leakproof


def test_phi_independent_of_containing_subgroup():
    G = es_group(2)
    D = chain_delta(G)
    z = G.index_of("z")
    canon = D.canonical
    forms = set()
    for i, H in enumerate(D.subgroups):
        assert z in H          # the centre sits inside every maximal abelian
        assert D.embed(z, subgroup_index=i)
        forms.add(tuple(sorted(canon.reduce(D.embed(z, subgroup_index=i)).items())))
    assert forms == {phi(D, z)}


def test_phi_choice_independent_for_every_element():
    G = standard_group("sym:4")
    D = chain_delta(G)
    for g in G.elements():
        forms = {
            tuple(sorted(D.canonical.reduce(D.embed(g, subgroup_index=i)).items()))
            for i, H in enumerate(D.subgroups)
            if g in H
        }
        assert forms == {phi(D, g)}


def test_lattice_contains_modulus_times_units():
    """psi loses nothing and needs no order rows: a_c * m / d_c is nonzero
    mod m for every 0 < a_c < d_c, and m * e_j, zero mod m, is in the
    span.  The unscaled oracle needs its order rows to hold d_c * e_c."""
    for spec in ("quaternion", "sym:3", "es:2"):
        D = chain_delta(standard_group(spec))
        U = unscaled_delta(D)
        for j, d in enumerate(column_orders(D)):
            assert D.canonical.contains({j: D.modulus})
            assert all(psi(D, {j: a}) == {j: a * (D.modulus // d)} for a in range(1, d))
            assert U.canonical.contains({j: d})


def test_phi_z_is_zero_in_es2():
    G = es_group(2)
    D = build_delta(G)
    assert phi(D, G.index_of("z")) == ()


def test_phi_additive_on_commuting_pairs():
    G = standard_group("sym:4")
    D = build_delta(G)
    count = 0
    for H in maximal_abelian_subgroups(G):
        for a, b in itertools.islice(itertools.product(H.members, repeat=2), 40):
            lhs = phi(D, G.mul(a, b))
            total = dense_row(dict(phi(D, a)), D.ncols) + dense_row(dict(phi(D, b)), D.ncols)
            rhs = D.canonical.reduce(dict(enumerate(total.tolist())))
            assert lhs == tuple(sorted(rhs.items()))
            count += 1
    assert count > 50


# -- verdicts -----------------------------------------------------------------------


@pytest.mark.parametrize("spec", ["cyclic:12", "product:cyclic:2,cyclic:2",
                                  "product:cyclic:4,cyclic:8", "cyclic:31"])
def test_abelian_groups_leakproof(spec):
    G = standard_group(spec)
    assert is_leakproof_group(G).leakproof
    assert is_binary_leakproof_group(G).injective


@pytest.mark.parametrize("spec", ["quaternion", "dihedral:4", "sym:3", "sym:4", "alt:4",
                                  "dihedral:6", "product:cyclic:3,sym:3"])
def test_small_nonabelian_leakproof(spec):
    assert is_leakproof_group(standard_group(spec)).leakproof


@pytest.mark.parametrize("spec", ["es:2", "es:3", "centprod:quaternion,dihedral:4",
                                  "centprod:dihedral:4,dihedral:4"])
def test_extraspecial_style_groups_leak_at_z(spec):
    G = standard_group(spec)
    v = is_leakproof_group(G)
    assert not v.leakproof
    assert v.witness == designated_central_involution(G)


def test_es2_not_binary_leakproof():
    G = es_group(2)
    v = is_binary_leakproof_group(G)
    assert not v.injective
    assert set(v.collision) == {G.identity, G.index_of("z")}


def test_sym3_binary_leakproof():
    assert is_binary_leakproof_group(standard_group("sym:3")).injective


def test_product_with_leaking_factor_leaks():
    """A group with a leaking subgroup leaks."""
    G = standard_group("product:cyclic:2,es:2")
    assert not is_leakproof_group(G).leakproof


# -- witness extraction ----------------------------------------------------------------


def test_witness_identity_rejected():
    G = es_group(2)
    D = build_delta(G)
    with pytest.raises(NotInKernel):
        witness_flow_from_kernel(D, G.identity)


def test_witness_accepts_bare_group():
    G = es_group(2)
    _, flow = witness_flow_from_kernel(G, G.index_of("z"))
    assert detect_leak(flow).kind == LeakVerdict.LEAKS_AT


def test_witness_nonkernel_rejected():
    G = es_group(2)
    D = build_delta(G)
    with pytest.raises(NotInKernel):
        witness_flow_from_kernel(D, G.index_of("x1"))


@pytest.mark.parametrize("spec", ["es:2", "es:3", "centprod:quaternion,dihedral:4"])
def test_witness_closes_the_loop(spec):
    G = standard_group(spec)
    D = chain_delta(G)
    v = is_leakproof_group(G, delta=D)
    assert not v.leakproof
    graph, flow = chain_witness_flow(D, v.witness)
    assert graph.n == len(D.subgroups)
    verdict = detect_leak(flow)
    assert verdict.kind == LeakVerdict.LEAKS_AT
    assert verdict.value == v.witness


@pytest.mark.parametrize("spec", ["es:2", "es:3", "centprod:quaternion,dihedral:4",
                                  "product:es:2,cyclic:2", "sym:6"])
def test_witness_flow_matches_two_form_oracle(spec):
    G = standard_group(spec)
    D = chain_delta(G)
    v = is_leakproof_group(G, delta=D)
    assert not v.leakproof
    _graph, flow = chain_witness_flow(D, v.witness)
    assert flow.values == witness_values_two_forms(D, v.witness)


def test_witness_names_a_flow_that_fails_recertification(monkeypatch):
    G = es_group(2)
    D = build_delta(G)
    monkeypatch.setattr(groupleak, "detect_leak",
                        lambda flow: LeakVerdict(LeakVerdict.CONSERVING))
    with pytest.raises(InternalInvariantError,
                       match=r"^witness_flow_from_kernel: the flow for z in es:2 "
                             r"failed re-certification$"):
        witness_flow_from_kernel(D, G.index_of("z"))


def test_witness_names_a_member_the_rows_do_not_express(monkeypatch):
    """An element outside the kernel that gets past the kernel test is
    expressed by no family of relation rows; the error names the stage, the
    group and the element."""
    G = standard_group("sym:4")
    D = build_delta(G)
    gamma = next(g for g in G.elements() if phi(D, g))
    monkeypatch.setattr(HowellForm, "contains", lambda form, row: True)
    with pytest.raises(InternalInvariantError,
                       match=rf"^witness_flow_from_kernel: the relation rows of sym:4 do not "
                             rf"express {re.escape(G.name(gamma))}, a kernel member$"):
        witness_flow_from_kernel(D, gamma)


def test_witness_builds_only_the_rows_it_absorbs(monkeypatch):
    """On es:3 the witness builds the 86 relation rows of the subgroups it
    glues, not all 1,016 of the glued group."""
    G = standard_group("es:3")
    D = chain_delta(G)
    v = is_leakproof_group(G, delta=D)
    built = []
    relation_row = ChainDelta.relation_row

    def counted(self, tag):
        built.append(tag)
        return relation_row(self, tag)

    monkeypatch.setattr(ChainDelta, "relation_row", counted)
    chain_witness_flow(D, v.witness)
    assert len(D.pair_rows) == 1016
    assert len(built) == len(set(built)) == 86


@pytest.mark.parametrize("spec", ["es:2", "es:3", "centprod:quaternion,dihedral:4",
                                  "product:es:2,cyclic:2", "sym:6"])
def test_witness_graph_is_the_flow_support(spec):
    G = standard_group(spec)
    D = chain_delta(G)
    v = is_leakproof_group(G, delta=D)
    graph, flow = chain_witness_flow(D, v.witness)
    assert graph.n == len(D.subgroups)
    assert graph.vertices == tuple(range(1, len(D.subgroups) + 1))
    assert graph.edges == {edge_key(u, w) for u, w in flow.support_pairs()}
    assert flow.graph is graph


def test_witness_values_live_in_the_column_subgroup():
    G = es_group(2)
    D = chain_delta(G)
    v = is_leakproof_group(G, delta=D)
    graph, flow = chain_witness_flow(D, v.witness)
    ok, _ = is_tractable(flow)
    assert ok
    for (u, w), g in flow.values.items():
        target = D.subgroups[w - 1]       # vertex labels are 1-based subgroup ids
        assert g in target


@pytest.mark.parametrize("spec, size", [("es:2", 1), ("es:3", 1), ("sym:6", 45),
                                        ("product:es:2,cyclic:2", 1)])
def test_witness_for_every_kernel_element(spec, size):
    """Every kernel element, not only the first, gets a flow that leaks it
    at vertex 0.  The graph is the flow's support and bipartite: each edge
    joins a column vertex c + 1 to a row vertex or to vertex 0, every value
    a column vertex receives lies in its cyclic subgroup, and the flow is
    tractable."""
    G = standard_group(spec)
    D = build_delta(G)
    kernel = [g for g in G.elements() if g != G.identity and not phi(D, g)]
    assert len(kernel) == size
    for gamma in kernel:
        graph, flow = witness_flow_from_kernel(D, gamma)
        verdict = detect_leak(flow)
        assert (verdict.kind, verdict.vertex, verdict.value) == (LeakVerdict.LEAKS_AT, 0, gamma)
        assert graph.edges == {edge_key(u, w) for u, w in flow.support_pairs()}
        assert is_tractable(flow)[0]
        for (u, w), g in flow.values.items():
            assert (1 <= u <= D.ncols) != (1 <= w <= D.ncols)
            if 1 <= w <= D.ncols:
                generator = D.generators[w - 1]
                assert g in {G.power(generator, k) for k in range(D.orders[w - 1])}


# -- bounded direct search on small groups ------------------------------------------------


def _bounded_leak_search(G, limit=200000):
    """Enumerate flows on the complete graph over the maximal abelian
    subgroups, with values restricted to pairwise intersections; return True
    when some flow leaks.  Exact whenever the enumeration fits the budget."""
    subs = maximal_abelian_subgroups(G)
    pairs = []
    for i, j in itertools.combinations(range(len(subs)), 2):
        inter = sorted(set(subs[i].members) & set(subs[j].members))
        if len(inter) > 1:
            pairs.append(((i, j), inter))
    total = 1
    for _, inter in pairs:
        total *= len(inter)
        if total > limit:
            raise AssertionError("enumeration exceeds the budget")
    n = len(subs)
    vertices = list(range(1, n + 1))
    graph = graph_from(vertices, itertools.combinations(vertices, 2))
    for choice in itertools.product(*[inter for _, inter in pairs]):
        values = {}
        for ((i, j), _), g in zip(pairs, choice):
            values[(i + 1, j + 1)] = g
            values[(j + 1, i + 1)] = G.inv(g)
        flow = GroupFlow(graph, G, values)
        ok, _ = is_tractable(flow)
        if not ok:
            continue
        if detect_leak(flow).kind == LeakVerdict.LEAKS_AT:
            return True
    return False


@pytest.mark.parametrize("spec", ["sym:3", "quaternion", "dihedral:4", "alt:4",
                                  "sym:4", "cyclic:12", "dihedral:6"])
def test_bounded_search_agrees_with_decision(spec):
    G = standard_group(spec)
    assert G.order <= 24
    found = _bounded_leak_search(G)
    assert found == (not is_leakproof_group(G).leakproof)
