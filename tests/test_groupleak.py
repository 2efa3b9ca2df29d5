"""Group-leak decisions: the glued abelian group, phi, verdicts, witnesses."""

from __future__ import annotations

import dataclasses
import itertools
import math
import os

import pytest

from groupflow.errors import NotInKernel
from groupflow.flows import GroupFlow, LeakVerdict, detect_leak, is_tractable
from groupflow.graphs import edge_key
from groupflow.groupleak import (
    build_delta,
    is_binary_leakproof_group,
    is_leakproof_group,
    phi,
    witness_flow_from_kernel,
)
from groupflow.groups import (
    designated_central_involution,
    discrete_log,
    es_group,
    maximal_abelian_subgroups,
    standard_group,
)
from groupflow.howell import HowellForm

from helpers import (
    DenseHowellForm,
    chain_tags_element_major,
    closure,
    column_orders,
    dense_row,
    pairwise_relation_rows,
    psi,
    unscaled_delta,
    witness_values_two_forms,
)


# -- build_delta ----------------------------------------------------------------


def test_abelian_delta_is_the_group_itself():
    G = standard_group("product:cyclic:2,cyclic:4")
    D = build_delta(G)
    assert len(D.subgroups) == 1
    assert D.invariant_factors() == [2, 4]
    v = is_leakproof_group(G, delta=D)
    assert v.leakproof


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
    rows = [tuple(int(x) % m for x in dense_row(row, k)) for row, _tag in D.relation_rows()]
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


def test_relation_rows_recompute_mod_m():
    """One chain row per tag, each equal modulo m to its integer
    recomputation from the bases scaled by m / d_c at column c; every
    relation row, every embedded element and every pivot row lies in the
    image of psi: entry c is a multiple of m / d_c."""
    for spec in ("es:2", "sym:4"):
        D = build_delta(standard_group(spec))
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
    D = build_delta(G)
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
    """One tagged generator per cyclic subgroup in two or more maximal
    abelian subgroups, chained through all of them in index order."""
    G = standard_group(spec)
    D = build_delta(G)
    pairs_of = {}
    for pair, g in D.pair_rows:
        pairs_of.setdefault(g, []).append(pair)
    cyclic_seen = set()
    for g, pairs in pairs_of.items():
        cyclic = closure(G, [g]).members
        assert cyclic not in cyclic_seen
        cyclic_seen.add(cyclic)
        chain = [i for i, H in enumerate(D.subgroups) if g in H]
        assert pairs == list(zip(chain, chain[1:]))
    for g in G.elements():
        if sum(g in H for H in D.subgroups) >= 2 and g != G.identity:
            assert closure(G, [g]).members in cyclic_seen


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
    D = build_delta(G)
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
    assert D.invariant_factors() == unscaled.invariant_factors()
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
    """D with its chain rows absorbed in element order, each generator's
    whole chain before the next generator's: the tag order build_delta
    used before it absorbed the rows pair by pair."""
    tags = chain_tags_element_major(D.group, D.subgroups)
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
    D = build_delta(G)
    E = _element_major_delta(D)
    for g in G.elements():
        assert D.canonical.reduce(D.embed(g)) == E.canonical.reduce(E.embed(g))
    assert D.invariant_factors() == E.invariant_factors()
    leak = is_leakproof_group(G, delta=D)
    assert leak.witness == is_leakproof_group(G, delta=E).witness
    assert (is_binary_leakproof_group(G, delta=D).collision
            == is_binary_leakproof_group(G, delta=E).collision)
    if not leak.leakproof:
        assert (witness_flow_from_kernel(D, leak.witness)[1].values
                == witness_flow_from_kernel(E, leak.witness)[1].values)


def _assert_matches_unscaled_oracle(spec):
    """build_delta's scaled presentation against its former unscaled one,
    with order rows: the same kernel and phi-fibres, invariant factors,
    leak witness, binary collision and witness-flow values."""
    G = standard_group(spec)
    D = build_delta(G)
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
        assert (witness_flow_from_kernel(D, leak.witness)[1].values
                == witness_values_two_forms(U, leak.witness))


@pytest.mark.parametrize("spec", PAIRWISE_ORACLE_SPECS + ["es:3"])
def test_scaled_delta_matches_unscaled_oracle(spec):
    _assert_matches_unscaled_oracle(spec)


@pytest.mark.skipif(os.environ.get("GROUPFLOW_SKIP_SLOW") == "1",
                    reason="GROUPFLOW_SKIP_SLOW=1 skips alt:7 and es:4")
@pytest.mark.parametrize("spec", ["alt:7", "es:4"])
def test_scaled_delta_matches_unscaled_oracle_slow(spec):
    _assert_matches_unscaled_oracle(spec)


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
    D = build_delta(G)
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
    D = build_delta(G)
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
    D = build_delta(G)
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
        D = build_delta(standard_group(spec))
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
    for H in D.subgroups:
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
    D = build_delta(G)
    v = is_leakproof_group(G, delta=D)
    assert not v.leakproof
    graph, flow = witness_flow_from_kernel(D, v.witness)
    assert graph.n == len(D.subgroups)
    verdict = detect_leak(flow)
    assert verdict.kind == LeakVerdict.LEAKS_AT
    assert verdict.value == v.witness


@pytest.mark.parametrize("spec", ["es:2", "es:3", "centprod:quaternion,dihedral:4",
                                  "product:es:2,cyclic:2", "sym:6"])
def test_witness_flow_matches_two_form_oracle(spec):
    G = standard_group(spec)
    D = build_delta(G)
    v = is_leakproof_group(G, delta=D)
    assert not v.leakproof
    _graph, flow = witness_flow_from_kernel(D, v.witness)
    assert flow.values == witness_values_two_forms(D, v.witness)


@pytest.mark.parametrize("spec", ["es:2", "es:3", "centprod:quaternion,dihedral:4",
                                  "product:es:2,cyclic:2", "sym:6"])
def test_witness_graph_is_the_flow_support(spec):
    G = standard_group(spec)
    D = build_delta(G)
    v = is_leakproof_group(G, delta=D)
    graph, flow = witness_flow_from_kernel(D, v.witness)
    assert graph.n == len(D.subgroups)
    assert graph.vertices == tuple(range(1, len(D.subgroups) + 1))
    assert graph.edges == {edge_key(u, w) for u, w in flow.support_pairs()}
    assert flow.graph is graph


def test_witness_values_live_in_the_column_subgroup():
    G = es_group(2)
    D = build_delta(G)
    v = is_leakproof_group(G, delta=D)
    graph, flow = witness_flow_from_kernel(D, v.witness)
    ok, _ = is_tractable(flow)
    assert ok
    for (u, w), g in flow.values.items():
        target = D.subgroups[w - 1]       # vertex labels are 1-based subgroup ids
        assert g in target


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
    from groupflow.graphs import graph_from
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
