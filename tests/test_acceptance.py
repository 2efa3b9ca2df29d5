"""Acceptance criteria.

One test per criterion; each prints a PASS line with its measured runtime
(visible under ``pytest -s``).  Criterion 10 is the non-gating stretch
batch; set GROUPFLOW_SKIP_SLOW=1 to skip its alt:7 and es:4 part.
"""

from __future__ import annotations

import itertools
import os
import random
import time

from groupflow.flows import (
    GroupFlow,
    LeakVerdict,
    conjugate_along_walk,
    detect_binary_leak,
    detect_leak,
    example_flow_k33,
    example_flow_k33_minus,
    example_flow_k5,
    excess_map,
    is_tractable,
    round_flow,
    solve_tree_flow,
    synthesize_leaking_flow,
    validate_flow,
)
from groupflow.graphs import (
    find_minor,
    graph_from,
    named_graph,
    verify_minor,
)
from groupflow.groupleak import build_delta, is_leakproof_group, witness_flow_from_kernel
from groupflow.groups import designated_central_involution, es_group, standard_group
from groupflow.planar import (
    RotationSystem,
    euler_planar_check,
    extra_planar,
)
from groupflow.planar import test_planarity as planarity_certificate

from helpers import (
    all_labeled_graphs,
    bridge_oracle,
    minor_oracle,
    random_connected_planar_graph,
    random_flow,
    random_graph,
    random_spanning_tree,
    two_root_tree_flow,
)


def _report(number: int, started: float, budget: float, detail: str) -> None:
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s) - {detail}")


def test_criterion_1_k33_example():
    t0 = time.time()
    graph, flow = example_flow_k33()
    group = flow.group
    assert group.spec == "es:2"
    assert validate_flow(flow) is None
    assert is_tractable(flow) == (True, None)
    exc = excess_map(flow)
    for v in (1, 2, 3, 4, 5):
        assert exc[v] == group.identity
    assert exc[6] == group.index_of("z")
    _report(1, t0, 1.0, "K3,3 flow: conserving at 1..5, excess(6) = z")


def test_criterion_2_k5_example():
    t0 = time.time()
    graph, flow = example_flow_k5()
    group = flow.group
    assert group.spec == "es:3"
    assert is_tractable(flow) == (True, None)
    exc = excess_map(flow)
    for v in (1, 2, 3, 4):
        assert exc[v] == group.identity
    assert exc[5] == group.index_of("z")
    _report(2, t0, 1.0, "K5 flow: conserving at 1..4, excess(5) = z")


def test_criterion_3_planarity_dichotomy():
    t0 = time.time()
    k5 = named_graph("complete:5")
    k33 = named_graph("complete_bipartite:3,3")

    def check(G):
        result = planarity_certificate(G)
        oracle_nonplanar = minor_oracle(G, k5) or minor_oracle(G, k33)
        if isinstance(result, RotationSystem):
            assert euler_planar_check(result)
            assert not oracle_nonplanar
        else:
            assert verify_minor(G, result)
            assert result.model.n in (5, 6)
            assert oracle_nonplanar

    count = 0
    for G in all_labeled_graphs(5):
        check(G)
        count += 1
    assert count == 1024
    rng = random.Random(2024)
    sampled = 0
    while sampled < 500:
        n = rng.choice([6, 7])
        check(random_graph(rng, n, rng.uniform(0.25, 0.95)))
        sampled += 1
    _report(3, t0, 300.0, f"{count} exhaustive + {sampled} sampled certified dichotomies")


def test_criterion_4_extra_kuratowski(sweep_up_to_6_vertices):
    """extra_planar's verdicts come from the checked sweep that the planar
    tests share, in the order of all_labeled_graphs."""
    t0 = time.time()
    k5m = named_graph("k5minus")
    k33m = named_graph("k33minus")
    graphs = (G for n in range(1, 7) for G in all_labeled_graphs(n))
    checked = 0
    for G, extra in zip(graphs, sweep_up_to_6_vertices[2], strict=True):
        minor_free = find_minor(G, k5m) is None and find_minor(G, k33m) is None
        assert extra == minor_free, G
        checked += 1
    assert checked == 1 + 2 + 8 + 64 + 1024 + 32768
    _report(4, t0, 600.0, f"{checked} graphs: extra-planar iff no K5-/K3,3- minor")


def test_criterion_5_leak_synthesis():
    t0 = time.time()
    k33 = named_graph("complete_bipartite:3,3")
    next_vertex = 7
    vertices = list(k33.vertices)
    edges = []
    for (u, v) in k33.sorted_edges():
        edges += [(u, next_vertex), (next_vertex, v)]
        vertices.append(next_vertex)
        next_vertex += 1
    subdivided_k33 = graph_from(vertices, edges)
    targets = [
        named_graph("complete:5"),
        k33,
        named_graph("complete:6"),
        named_graph("petersen"),
        subdivided_k33,
    ]
    for G in targets:
        flow = synthesize_leaking_flow(G)
        verdict = detect_leak(flow)
        assert verdict.kind == LeakVerdict.LEAKS_AT
        assert verdict.value != flow.group.identity
        assert flow.group.spec in ("es:2", "es:3")
    _report(5, t0, 10.0, "K5, K3,3, K6, Petersen, subdivided K3,3 all leak")


def test_criterion_6_planar_leak_proofness():
    t0 = time.time()
    rng = random.Random(777)
    groups = [es_group(2), es_group(3)]
    accepted = 0
    attempts = 0
    while accepted < 1000:
        attempts += 1
        assert attempts < 100000, "rejection sampling is not converging"
        G = random_connected_planar_graph(rng, rng.randint(3, 10), rng.randint(0, 3))
        T = random_spanning_tree(rng, G)
        group = groups[attempts % 2]
        chords = [e for e in G.sorted_edges() if e not in T.edges]
        boundary = {e: rng.randrange(group.order) for e in chords}
        root = rng.choice(G.vertices)
        flow, _bad = solve_tree_flow(G, T, root, boundary, group)
        if flow is None:
            continue
        accepted += 1
        exc = excess_map(flow)
        assert exc[root] == group.identity
        assert all(v == group.identity for v in exc.values())
    # exhaustive restricted search: triangle, quaternion values from a
    # fixed 4-element generating set
    q = standard_group("quaternion")
    gen_set = [q.index_of(nm) for nm in ("i", "j", "k", "-1")]
    tri = named_graph("cycle:3")
    leaks_found = 0
    for a, b, c in itertools.product(gen_set, repeat=3):
        flow = GroupFlow.skew(tri, q, {(1, 2): a, (1, 3): b, (2, 3): c})
        if detect_leak(flow).kind == LeakVerdict.LEAKS_AT:
            leaks_found += 1
    assert leaks_found == 0
    _report(6, t0, 120.0,
            f"{accepted} tractable tree flows conserve at the root "
            f"({attempts} sampled); 64 restricted triangle flows never leak")


def test_criterion_7_conjugation_transform():
    t0 = time.time()
    rng = random.Random(4242)
    groups = [es_group(2), standard_group("quaternion"), standard_group("sym:3")]
    done = 0
    while done < 200:
        G = random_connected_planar_graph(rng, rng.randint(3, 9), rng.randint(1, 3))
        non_bridges = [e for e in G.sorted_edges() if e not in bridge_oracle(G)]
        if not non_bridges:
            continue
        R = planarity_certificate(G)
        assert isinstance(R, RotationSystem)
        flow = random_flow(rng, G, rng.choice(groups))
        edge = non_bridges[rng.randrange(len(non_bridges))]
        out = conjugate_along_walk(flow, R, edge)
        assert out.value(*edge) == flow.group.identity
        for v in G.vertices:
            assert round_flow(flow, R, v) == round_flow(out, R, v)
        done += 1
    _report(7, t0, 60.0, f"{done} flows: chosen edge zeroed, round-flow classes kept")


def test_criterion_8_binary_leak():
    t0 = time.time()
    _, fminus = example_flow_k33_minus()
    value = detect_binary_leak(fminus, 3, 6)
    assert value is not None
    assert value != fminus.group.identity
    assert value == fminus.group.index_of("z")
    rng = random.Random(9182)
    verified = 0
    while verified < 100:
        G = random_connected_planar_graph(rng, rng.randint(4, 8), rng.randint(0, 2))
        if G.n < 3 or not extra_planar(G).extra_planar:
            continue
        T = random_spanning_tree(rng, G)
        group = es_group(2)
        chords = [e for e in G.sorted_edges() if e not in T.edges]
        boundary = {e: rng.randrange(group.order) for e in chords}
        root, free = rng.sample(list(G.vertices), 2)
        flow = two_root_tree_flow(rng, G, T, group, root, free, boundary)
        if flow is None:
            continue
        result = detect_binary_leak(flow, root, free)
        assert result is not None
        assert result == group.identity      # extra-planar: no binary leak
        verified += 1
    _report(8, t0, 60.0,
            f"K3,3 minus {{3,6}} leaks z at (3,6); {verified} extra-planar "
            "two-root flows have e(u)e(v) = 1")


def _abelian_group_specs_up_to(bound):
    """One spec per isomorphism class of abelian groups of order <= bound."""

    def partitions(n):
        if n == 0:
            yield ()
            return
        for first in range(n, 0, -1):
            for rest in partitions(n - first):
                if not rest or first >= rest[0]:
                    yield (first,) + rest

    def prime_factorization(n):
        out = []
        d = 2
        while d * d <= n:
            if n % d == 0:
                e = 0
                while n % d == 0:
                    n //= d
                    e += 1
                out.append((d, e))
            d += 1
        if n > 1:
            out.append((n, 1))
        return out

    specs = []
    for n in range(1, bound + 1):
        factorization = prime_factorization(n)
        choices = [list(partitions(e)) for _, e in factorization]
        for combo in itertools.product(*choices):
            cyclic_orders = []
            for (p, _e), part in zip(factorization, combo):
                cyclic_orders.extend(p ** a for a in part)
            cyclic_orders.sort()
            spec = f"cyclic:{cyclic_orders[0]}" if cyclic_orders else "cyclic:1"
            for extra in cyclic_orders[1:]:
                spec = f"product:cyclic:{extra},{spec}"
            specs.append(spec)
    return specs


def test_criterion_9_group_decisions():
    t0 = time.time()
    leakproof_specs = _abelian_group_specs_up_to(32)
    leakproof_specs += ["dihedral:4", "quaternion", "sym:4", "sym:5"]
    for spec in leakproof_specs:
        G = standard_group(spec)
        assert is_leakproof_group(G).leakproof, spec
    leaking_specs = ["es:2", "es:3", "centprod:quaternion,dihedral:4"]
    for spec in leaking_specs:
        G = standard_group(spec)
        D = build_delta(G)
        verdict = is_leakproof_group(G, delta=D)
        assert not verdict.leakproof, spec
        z = designated_central_involution(G)
        assert verdict.witness == z, spec
        graph, flow = witness_flow_from_kernel(D, verdict.witness)
        closed = detect_leak(flow)
        assert closed.kind == LeakVerdict.LEAKS_AT
        assert closed.value == verdict.witness
    _report(9, t0, 120.0,
            f"{len(leakproof_specs)} leak-proof groups confirmed; "
            "es:2, es:3, centprod:quaternion,dihedral:4 leak at z with closed witnesses")


def test_criterion_10_stretch_groups():
    t0 = time.time()
    G = standard_group("sym:6")
    assert not is_leakproof_group(G).leakproof
    assert is_leakproof_group(standard_group("alt:6")).leakproof
    assert is_leakproof_group(standard_group("sym:5")).leakproof
    detail = "sym:6 leaks; alt:6 and sym:5 leak-proof"
    if os.environ.get("GROUPFLOW_SKIP_SLOW") != "1":
        assert not is_leakproof_group(standard_group("alt:7")).leakproof
        G = es_group(4)
        D = build_delta(G)
        verdict = is_leakproof_group(G, delta=D)
        z = designated_central_involution(G)
        assert z is not None and verdict.witness == z
        closed = detect_leak(witness_flow_from_kernel(D, verdict.witness)[1])
        assert closed.kind == LeakVerdict.LEAKS_AT and closed.value == verdict.witness
        detail += "; alt:7 leaks; es:4 leaks at z with a closed witness"
    _report(10, t0, 900.0, detail)


def test_criterion_11_abelian_conservation():
    t0 = time.time()
    rng = random.Random(555)
    specs = ["cyclic:6", "cyclic:7", "product:cyclic:2,cyclic:4",
             "product:cyclic:3,cyclic:9", "cyclic:12"]
    groups = [standard_group(s) for s in specs]
    for trial in range(1000):
        group = groups[trial % len(groups)]
        G = random_connected_planar_graph(rng, rng.randint(3, 10), rng.randint(0, 4))
        T = random_spanning_tree(rng, G)
        chords = [e for e in G.sorted_edges() if e not in T.edges]
        boundary = {e: rng.randrange(group.order) for e in chords}
        root = rng.choice(G.vertices)
        flow, bad = solve_tree_flow(G, T, root, boundary, group)
        assert bad is None                      # abelian flows are always tractable
        exc = excess_map(flow)
        assert exc[root] == group.identity      # conserving off root forces the root
        assert all(v == group.identity for v in exc.values())
    _report(11, t0, 30.0, "1000 abelian tree flows conserve everywhere")
