"""CLI: exit codes, JSON outputs, and certificate round-trips."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import groupflow
from groupflow import cli, groups, jsonio, planar
from groupflow.cli import run
from groupflow.flows import detect_leak, example_flow_k33
from groupflow.graphs import Graph, add_edge, graph_from, named_graph, verify_minor
from groupflow.groups import group_from_cayley, standard_group
from groupflow.planar import RotationSystem, euler_planar_check, extra_planar
from groupflow.planar import test_planarity as planarity_certificate

from helpers import (
    all_labeled_graphs,
    extra_planar_by_lr,
    extra_planar_text_by_payload,
    random_connected_planar_graph,
    random_flow,
    random_graph,
)


def invoke(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, buf.getvalue(), err.getvalue()


def write_graph(tmp_path, name, graph):
    path = tmp_path / name
    path.write_text(jsonio.dumps(jsonio.graph_to_json(graph)))
    return str(path)


# -- planar ----------------------------------------------------------------------


def test_planar_k4_code0_and_verified(tmp_path):
    path = write_graph(tmp_path, "k4.json", named_graph("complete:4"))
    code, out, _ = invoke(["planar", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["planar"] is True
    R = jsonio.rotation_from_json(payload, named_graph("complete:4"))
    assert euler_planar_check(R)


def test_planar_k5_code1_and_verified(tmp_path):
    k5 = named_graph("complete:5")
    path = write_graph(tmp_path, "k5.json", k5)
    code, out, _ = invoke(["planar", path])
    assert code == 1
    witness = jsonio.witness_from_json(json.loads(out)["witness"])
    assert verify_minor(k5, witness)


# -- extra-planar ------------------------------------------------------------------


def test_extra_planar_roundtrip(tmp_path):
    g = named_graph("k5minus")
    path = write_graph(tmp_path, "k5m.json", g)
    code, out, _ = invoke(["extra-planar", path])
    assert code == 1
    payload = json.loads(out)
    u, v = payload["pair"]
    witness = jsonio.witness_from_json(payload["witness"])
    assert verify_minor(add_edge(g, int(u), int(v)), witness)


def test_extra_planar_positive_embeddings_verify(tmp_path):
    g = named_graph("path:4")
    path = write_graph(tmp_path, "p4.json", g)
    code, out, _ = invoke(["extra-planar", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["extra_planar"] is True
    for entry in payload["embeddings"]:
        u, v = (jsonio._vertex_token(x) for x in entry["pair"])
        host = add_edge(g, u, v)
        R = jsonio.rotation_from_json(entry, host)
        assert euler_planar_check(R)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("graph", [
    named_graph("k5minus"),
    named_graph("k33minus"),
    named_graph("petersen"),
    # planar, with pairs before the failing one that share a face
    graph_from(range(1, 8), [(1, 4), (1, 5), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6),
                             (6, 7)]),
])
def test_extra_planar_negative_output_matches_lr_oracle(tmp_path, monkeypatch, fmt, graph):
    import groupflow.cli as cli

    path = write_graph(tmp_path, "g.json", graph)
    code, out, _ = invoke(["extra-planar", path, "-f", fmt])
    monkeypatch.setattr(cli, "extra_planar", extra_planar_by_lr)
    assert code == 1
    assert (code, out) == invoke(["extra-planar", path, "-f", fmt])[:2]


# -- fresh interpreters ------------------------------------------------------------


def _fresh_python(args, hash_seed=0, stdout=subprocess.PIPE):
    """Run ``python args`` in a new interpreter on this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(Path(groupflow.__file__).parents[1]),
               PYTHONHASHSEED=str(hash_seed))
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, check=False)


def test_cli_import_leaves_networkx_out():
    proc = _fresh_python(["-c", "import sys, groupflow.cli; print('networkx' in sys.modules)"])
    assert proc.returncode == 0 and proc.stdout.strip() == "False", proc.stderr


def test_planar_outputs_do_not_depend_on_hash_seed(tmp_path):
    """String labels hash differently per process; the certificates must
    not change with them."""
    cases = [
        ("planar", [("va", "vb"), ("va", "vd"), ("va", "vf"), ("va", "vg"), ("vb", "vd"),
                    ("vb", "ve"), ("vc", "vd"), ("vd", "ve"), ("vf", "vg")]),
        ("extra-planar", [("wa", "wb"), ("wb", "wc"), ("wc", "wd"), ("wc", "we"), ("wc", "wg"),
                          ("wc", "wi"), ("wd", "wf"), ("wf", "wh"), ("wg", "wh")]),
    ]
    for command, edges in cases:
        path = write_graph(tmp_path, f"{command}.json",
                           graph_from({v for e in edges for v in e}, edges))
        runs = [_fresh_python(["-m", "groupflow.cli", command, path], seed) for seed in range(4)]
        assert all(proc.returncode == 0 for proc in runs), runs[0].stderr
        assert len({proc.stdout for proc in runs}) == 1, command


# -- minor -------------------------------------------------------------------------


def test_minor_found(tmp_path):
    pet = named_graph("petersen")
    path = write_graph(tmp_path, "pet.json", pet)
    code, out, _ = invoke(["minor", path, "--model", "k5"])
    assert code == 0
    witness = jsonio.witness_from_json(json.loads(out)["witness"])
    assert verify_minor(pet, witness)


def test_minor_absent(tmp_path):
    path = write_graph(tmp_path, "k4.json", named_graph("complete:4"))
    code, out, _ = invoke(["minor", path, "--model", "k33"])
    assert code == 1
    assert json.loads(out)["minor"] is False


@pytest.mark.parametrize("model", ["k5", "k33", "k5minus", "k33minus"])
def test_minor_planar_host_output_matches_full_search(tmp_path, monkeypatch, model):
    """A planar host answers "no minor" for a non-planar model without the
    branch-set search; the bytes are those of the search, which still runs
    for planar models and non-planar hosts."""
    rng = random.Random(187)
    hosts = [random_connected_planar_graph(rng, n, extra) for n, extra in
             [(5, 5), (6, 9), (7, 6), (8, 12), (8, 3)]]
    hosts += [named_graph(name) for name in ("complete:4", "k5minus", "k33minus",
                                              "complete:5", "complete_bipartite:3,3")]
    runs = []
    for i, host in enumerate(hosts):
        path = write_graph(tmp_path, f"h{i}.json", host)
        for fmt in ("json", "text"):
            runs.append(["minor", path, "--model", model, "--format", fmt])
    shortcut = [invoke(argv) for argv in runs]
    with monkeypatch.context() as patched:
        patched.setattr(cli, "test_planarity", lambda _G: None)   # always search
        assert [invoke(argv) for argv in runs] == shortcut


def test_minor_model_planarity_table_matches_lr_test():
    """The fixed planarity of each --model is what the LR test finds."""
    assert sorted(cli._MODELS) == ["k33", "k33minus", "k5", "k5minus"]
    for name, planar in cli._MODELS.values():
        assert isinstance(planarity_certificate(named_graph(name)), RotationSystem) == planar, name


def test_minor_host_bound_checked_before_planarity(tmp_path, monkeypatch):
    path = write_graph(tmp_path, "k4.json", named_graph("complete:4"))
    monkeypatch.setattr(cli, "test_planarity", None)
    code, _, err = invoke(["minor", path, "--model", "k5", "--max-size", "3"])
    assert code == 2 and "above the bound 3" in err


# -- faces --------------------------------------------------------------------------


def test_faces_roundtrip(tmp_path):
    g = named_graph("complete:4")
    gpath = write_graph(tmp_path, "k4.json", g)
    code, out, _ = invoke(["planar", gpath])
    rpath = tmp_path / "rot.json"
    rpath.write_text(out)
    code, out, _ = invoke(["faces", gpath, str(rpath)])
    assert code == 0
    payload = json.loads(out)
    assert payload["euler_planar"] is True
    assert len(payload["faces"]) == 4
    total = sum(len(f) - 1 for f in payload["faces"])
    assert total == 2 * g.m


def test_faces_walks_once(tmp_path, monkeypatch):
    """faces lists the walks and Euler-checks the rotation from one walk."""
    g = named_graph("complete:4")
    gpath = write_graph(tmp_path, "k4.json", g)
    rpath = tmp_path / "rot.json"
    rpath.write_text(invoke(["planar", gpath])[1])
    walked = []
    walk = planar._face_orbits
    monkeypatch.setattr(planar, "_face_orbits", lambda R: walked.append(R) or walk(R))
    code, out, _ = invoke(["faces", gpath, str(rpath)])
    assert code == 0 and json.loads(out)["euler_planar"] is True
    assert len(walked) == 1


# -- check-flow ------------------------------------------------------------------------


def test_check_flow_k33_example(tmp_path):
    code, out, _ = invoke(["examples", "k33"])
    assert code == 0
    fpath = tmp_path / "k33flow.json"
    fpath.write_text(out)
    code, out, _ = invoke(["check-flow", str(fpath)])
    assert code == 1
    payload = json.loads(out)
    assert payload == {"kind": "LeaksAt", "vertex": "6", "value": "z"}


def test_check_flow_conserving(tmp_path):
    g = named_graph("complete:4")
    fpath = tmp_path / "f.json"
    fpath.write_text(jsonio.dumps({
        "group": "cyclic:4",
        "graph": jsonio.graph_to_json(g),
        "values": [],
    }))
    code, out, _ = invoke(["check-flow", str(fpath)])
    assert code == 0
    assert json.loads(out)["kind"] == "ConservingEverywhere"


def test_check_flow_reads_an_element_named_1_as_that_element(tmp_path):
    """In a cayley: group of Z/4 named 0 1 2 3, the word 1 is the generator,
    not the identity: the path 1-2-3 carrying it leaks at both ends."""
    (tmp_path / "z4.txt").write_text(
        "4\n0 1 2 3\n" + "".join(" ".join(str((a + b) % 4) for b in range(4)) + "\n"
                                for a in range(4)))
    fpath = tmp_path / "f.json"
    fpath.write_text(jsonio.dumps({
        "group": f"cayley:{tmp_path / 'z4.txt'}",
        "graph": jsonio.graph_to_json(named_graph("path:3")),
        "values": [["1", "2", "1"], ["2", "3", "1"]],
    }))
    code, out, _ = invoke(["check-flow", str(fpath)])
    assert code == 1
    assert json.loads(out) == {"kind": "MultipleNonConserving", "vertices": ["1", "3"]}


def test_check_flow_binary(tmp_path):
    code, out, _ = invoke(["examples", "k33minus"])
    fpath = tmp_path / "fm.json"
    fpath.write_text(out)
    code, out, _ = invoke(["check-flow", str(fpath), "--binary", "3", "6"])
    assert code == 1
    payload = json.loads(out)
    assert payload["kind"] == "BinaryLeakAt" and payload["value"] == "z"
    code, out, _ = invoke(["check-flow", str(fpath), "--binary", "1", "2"])
    assert code == 0


def test_check_flow_binary_reads_labels_as_spelled(tmp_path):
    """--binary names a vertex "03" as the flow file spells it, and 3 is
    then not a vertex of the graph."""
    code, out, _ = invoke(["examples", "k33minus"])
    fpath = tmp_path / "fm.json"
    fpath.write_text(out.replace('"3"', '"03"'))
    code, out, _ = invoke(["check-flow", str(fpath), "--binary", "03", "6"])
    assert code == 1 and json.loads(out)["pair"] == ["03", "6"]
    code, out, err = invoke(["check-flow", str(fpath), "--binary", "3", "6"])
    assert (code, out) == (2, "") and "not both vertices" in err


def test_digit_labels_keep_their_spelling(tmp_path):
    """Labels that differ only in spelling stay apart in the certificate,
    each written back byte for byte."""
    path = tmp_path / "g.txt"
    path.write_text("01 2\n1 3\n-0 0\n-12 \u0661\n", encoding="utf-8")
    code, out, _ = invoke(["planar", str(path)])
    assert code == 0
    rotation = json.loads(out)["rotation"]
    assert set(rotation) == {"01", "2", "1", "3", "-0", "0", "-12", "\u0661"}
    assert rotation["01"] == ["2"] and rotation["1"] == ["3"] and rotation["-0"] == ["0"]


# -- leak-witness ------------------------------------------------------------------------


def test_leak_witness_roundtrip(tmp_path):
    pet = named_graph("petersen")
    path = write_graph(tmp_path, "pet.json", pet)
    code, out, _ = invoke(["leak-witness", path])
    assert code == 0
    payload = json.loads(out)
    flow = jsonio.flow_from_json(payload)
    verdict = detect_leak(flow)
    assert verdict.kind == "LeaksAt"
    assert payload["verdict"]["kind"] == "LeaksAt"


def test_leak_witness_planar(tmp_path):
    path = write_graph(tmp_path, "c4.json", named_graph("cycle:4"))
    code, out, _ = invoke(["leak-witness", path])
    assert code == 1
    assert json.loads(out)["kind"] == "GraphIsPlanar"


# -- group verdicts ------------------------------------------------------------------------


def test_group_leakproof_cyclic():
    code, out, _ = invoke(["group-leakproof", "cyclic:12"])
    assert code == 0
    payload = json.loads(out)
    assert payload["leakproof"] is True
    assert payload["delta_invariant_factors"] == [12]


def test_group_leakproof_es2():
    code, out, _ = invoke(["group-leakproof", "es:2"])
    assert code == 1
    payload = json.loads(out)
    assert payload["leakproof"] is False and payload["witness"] == "z"


def test_group_binary_leakproof():
    code, out, _ = invoke(["group-binary-leakproof", "sym:3"])
    assert code == 0
    code, out, _ = invoke(["group-binary-leakproof", "es:2"])
    assert code == 1
    assert json.loads(out)["collision"] == ["1", "z"]


# -- error paths -------------------------------------------------------------------------------


def test_missing_file_is_usage_error():
    code, _, err = invoke(["planar", "/no/such/file.json"])
    assert code == 2
    assert "cannot read" in err


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": [1,]')
    code, _, err = invoke(["planar", str(path)])
    assert code == 2
    assert "line" in err and "column" in err


@pytest.mark.parametrize("text", [
    '{"vertices": ["1", "2"], "edges": [5]}',
    '{"vertices": ["1", "2"], "edges": "12"}',
    '{"vertices": "12", "edges": []}',
    '{"vertices": ["1", "2"], "edges": [{"1": "2"}]}',
])
def test_malformed_graph_shape_is_usage_error(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = invoke(["planar", str(path)])
    assert code == 2
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("text", [
    '{"rotation": [["1", "2"]]}',
    '{"rotation": {"1": 5}}',
])
def test_malformed_rotation_shape_is_usage_error(tmp_path, text):
    gpath = write_graph(tmp_path, "k4.json", named_graph("complete:4"))
    rpath = tmp_path / "bad.json"
    rpath.write_text(text)
    code, out, err = invoke(["faces", gpath, str(rpath)])
    assert code == 2
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("values", [[5], 5, [{"1": "2", "3": "4", "5": "6"}]])
def test_malformed_flow_shape_is_usage_error(tmp_path, values):
    fpath = tmp_path / "bad.json"
    fpath.write_text(json.dumps({
        "group": "cyclic:4",
        "graph": jsonio.graph_to_json(named_graph("complete:4")),
        "values": values,
    }))
    code, out, err = invoke(["check-flow", str(fpath)])
    assert code == 2
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["planar", "{bad}"], ["extra-planar", "{bad}"], ["minor", "{bad}", "--model", "k5"],
    ["leak-witness", "{bad}"], ["faces", "{k4}", "{bad}"], ["check-flow", "{bad}"],
    ["group-leakproof", "cayley:{bad}"],
], ids=["planar", "extra-planar", "minor", "leak-witness", "faces", "check-flow", "cayley"])
def test_non_utf8_file_is_usage_error(tmp_path, argv):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00{")
    k4 = write_graph(tmp_path, "k4.json", named_graph("complete:4"))
    code, out, err = invoke([arg.format(bad=bad, k4=k4) for arg in argv])
    assert code == 2
    assert out == "" and err.startswith("error:") and str(bad) in err


@pytest.mark.parametrize("text", ["[1, 2]", '  [["1", "2"]]\n', "[]"])
def test_json_array_graph_is_usage_error(tmp_path, text):
    path = tmp_path / "array.json"
    path.write_text(text)
    for command in ("planar", "extra-planar"):
        code, out, err = invoke([command, str(path)])
        assert code == 2
        assert out == "" and err.startswith("error:")


def _json_paths(data, path=()):
    """The key path of every value inside parsed JSON, the root included."""
    yield path
    if isinstance(data, dict):
        for key, value in data.items():
            yield from _json_paths(value, path + (key,))
    elif isinstance(data, list):
        for i, value in enumerate(data):
            yield from _json_paths(value, path + (i,))


def _replace_at(data, path, value):
    if not path:
        return value
    data = copy.deepcopy(data)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return data


def _random_json_value(rng):
    kind = rng.choice(("int", "str", "list", "dict", "null"))
    if kind == "int":
        return rng.randint(-2, 40)
    if kind == "str":
        return rng.choice(("", "x", "1", "7", "-1", "z*z", "cyclic:2", "{}"))
    if kind == "list":
        return rng.choice(([], [1], ["1", "2"], [[]], [None, 3, "x"]))
    if kind == "dict":
        return rng.choice(({}, {"1": "2"}, {"rotation": {}}, {"vertices": []}))
    return None


def test_cli_mutation_fuzz_keeps_exit_contract(tmp_path):
    """Valid graph, rotation and flow files with one random sub-value
    replaced must give a verdict or a usage error, never a traceback."""
    rng = random.Random(20211)
    k4 = named_graph("complete:4")
    k33 = named_graph("complete_bipartite:3,3")
    quaternion = standard_group("quaternion")
    table_flow = jsonio.flow_to_json(random_flow(
        rng, k33, group_from_cayley(quaternion.table.tolist(), quaternion.names)))
    valid = {
        "graph": jsonio.graph_to_json(k4),
        "rotation": jsonio.rotation_to_json(planarity_certificate(k4)),
        "spec_flow": jsonio.flow_to_json(example_flow_k33()[1]),
        "table_flow": table_flow,
    }
    assert "group_table" in table_flow
    paths = {name: list(_json_paths(data)) for name, data in valid.items()}
    files = {name: tmp_path / f"{name}.json" for name in valid}
    for name, data in valid.items():
        files[name].write_text(json.dumps(data))
    mutant = tmp_path / "mutant.json"
    commands = {
        "graph": (["planar", str(mutant)], ["faces", str(mutant), str(files["rotation"])]),
        "rotation": (["faces", str(files["graph"]), str(mutant)],),
        "spec_flow": (["check-flow", str(mutant)],),
        "table_flow": (["check-flow", str(mutant)],),
    }
    codes = []

    def check(name, mutated):
        for argv in commands[name]:
            try:
                code, _, _ = invoke(argv)
            except Exception as exc:   # any exception that escapes is the failure
                pytest.fail(f"{argv[0]} on {mutated!r} raised {exc!r}")
            assert code in (0, 1, 2), (argv[0], mutated, code)
            codes.append(code)

    for i in range(300):
        name = ("graph", "rotation", "spec_flow", "table_flow")[i % 4]
        path = rng.choice(paths[name])
        mutated = _replace_at(valid[name], path, _random_json_value(rng))
        mutant.write_text(json.dumps(mutated))
        check(name, mutated)
    # the mutations reach both verdicts and the usage-error path
    assert {0, 1, 2} <= set(codes)
    # byte-level damage (truncation, a NUL byte, invalid UTF-8) and JSON
    # roots that are not objects
    for name, data in valid.items():
        raw = json.dumps(data).encode()
        blobs = [b"[1, 2]", b"[]", b'[["1", "2"]]', b"5", b'"x"', b"\xff\xfe\x00{",
                 json.dumps(data).encode("utf-16")]
        for cut in sorted(rng.sample(range(1, len(raw)), 3)):
            blobs += [raw[:cut], raw[:cut] + b"\x00" + raw[cut:], raw[:cut] + b"\xff" + raw[cut:]]
        for blob in blobs:
            mutant.write_bytes(blob)
            check(name, blob)


def _mutate_cayley_text(rng, n, names, rows):
    """A cayley file for the given table with one random defect, or none."""
    names, rows = list(names), [list(r) for r in rows]
    order_line = str(n)
    kind = rng.choice(("short_row", "long_row", "non_integer", "out_of_range", "names",
                       "truncated", "order_line", "swap", "duplicate_name", "none"))
    i, j = rng.randrange(n), rng.randrange(n)
    if kind == "short_row":
        del rows[i][j]
    elif kind == "long_row":
        rows[i].append(str(j))
    elif kind == "non_integer":
        rows[i][j] = rng.choice(("x", "1.5", "", "--1", "0x1"))
    elif kind == "out_of_range":
        rows[i][j] = rng.choice((str(n), "-1", str(10 ** 12), str(-10 ** 12)))
    elif kind == "names":
        names = names[:-1] if rng.random() < 0.5 else names + ["extra"]
    elif kind == "truncated":
        rows = rows[:-1]
    elif kind == "order_line":
        order_line = rng.choice(("x", "0", "-1", str(n - 1), str(n + 1), str(10 ** 9), ""))
    elif kind == "swap":
        rows[i][j], rows[j][i] = rows[j][i], rows[i][j]
        rows[0][i], rows[0][j] = rows[0][j], rows[0][i]
    elif kind == "duplicate_name":
        names[i] = names[j - 1 if j else 1]
    lines = [order_line, " ".join(names)] + [" ".join(r) for r in rows]
    return "\n".join(lines) + "\n"


def test_group_spec_mutation_fuzz_keeps_exit_contract(tmp_path):
    """group-leakproof on nested product:/centprod: specs and on cayley:
    files with one random defect gives a verdict or a usage error."""
    rng = random.Random(20212)
    bases = {name: standard_group(name) for name in ("quaternion", "dihedral:4", "cyclic:4")}
    cayley = tmp_path / "table.txt"
    templates = [
        "cayley:{p}", "product:cayley:{p},cyclic:2", "product:cyclic:3,cayley:{p}",
        "centprod:cayley:{p},quaternion", "centprod:dihedral:4,cayley:{p}",
        "product:product:cyclic:2,cayley:{p},cyclic:2", "centprod:product:cayley:{p},cyclic:3,quaternion",
        "product:cayley:{p},cayley:{p}",
    ]
    fixed = [
        "cayley:", "product:cayley:,cyclic:2", "centprod:quaternion,cayley:",
        "product:product:cyclic:2,cyclic:2,cyclic:3", "product:cyclic:2,product:cyclic:2,cyclic:2",
        "centprod:quaternion,centprod:quaternion,quaternion", "centprod:quaternion,product:cyclic:2,cyclic:2",
        "centprod:product:quaternion,cyclic:2,dihedral:4", "centprod:cyclic:3,quaternion",
        "product:cyclic:2", "product:", "centprod:,", "product:,cyclic:2", "product:cyclic:x,cyclic:2",
        "product:cyclic:2,,cyclic:2", "product:cayley,cyclic:2", "centprod:cyclic:0,quaternion",
        "product:cayley:" + str(tmp_path / "missing.txt") + ",cyclic:2",
    ]
    runs = [(spec, None) for spec in fixed]
    for _ in range(200):
        G = bases[rng.choice(sorted(bases))]
        text = _mutate_cayley_text(rng, G.order, G.names,
                                   [[str(x) for x in row] for row in G.table.tolist()])
        runs.append((rng.choice(templates).format(p=cayley), text))
    codes = []
    for spec, text in runs:
        if text is not None:
            cayley.write_text(text)
        try:
            code, _, err = invoke(["group-leakproof", spec])
        except Exception as exc:   # any exception that escapes is the failure
            pytest.fail(f"group-leakproof {spec!r} on {text!r} raised {exc!r}")
        assert code in (0, 1, 2), (spec, text, code, err)
        codes.append(code)
    assert {0, 1, 2} <= set(codes)


def test_unknown_subcommand():
    code, _, _ = invoke(["no-such-command"])
    assert code == 2


def test_bad_group_spec():
    code, _, err = invoke(["group-leakproof", "klein-bottle:7"])
    assert code == 2


def test_non_decimal_digits_are_not_integers(tmp_path):
    """A superscript digit passes str.isdigit but not int(), and an
    Arabic-Indic one passes both: a group spec holding either is a usage
    error, and a vertex labelled with one is a name."""
    for spec in ("cyclic:\u00b2", "product:cyclic:2,sym:\u00b3", "product:cyclic:\u00b2,cyclic:2",
                 "cyclic:\u0663", "es:\u0662"):
        code, out, err = invoke(["group-leakproof", spec])
        assert (code, out) == (2, "") and err.startswith("error:"), (spec, err)
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"vertices": ["1", "\u00b2"], "edges": [["1", "\u00b2"]]}))
    code, out, _ = invoke(["planar", str(path)])
    assert code == 0 and json.loads(out)["planar"] is True


def test_bad_cayley_file_is_usage_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1 t\n0 1\n1 x\n")
    for spec in (f"cayley:{tmp_path / 'missing.txt'}", f"product:cayley:{bad},cyclic:2"):
        code, out, err = invoke(["group-leakproof", spec])
        assert code == 2
        assert out == "" and err.startswith("error:")


def test_cayley_entry_beyond_int32_is_out_of_range(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("2\na b\n0 1000000000000\n1 0\n")
    code, out, err = invoke(["group-leakproof", f"cayley:{path}"])
    assert (code, out, err) == (2, "", "error: table entries out of range\n")


@pytest.mark.parametrize("table", ([[0, 1], [1, 0.7]], [[False, True], [True, False]]))
def test_non_integer_group_table_entries_are_usage_errors(tmp_path, table):
    """A float is not truncated and a bool is not read as 0 or 1."""
    path = tmp_path / "flow.json"
    path.write_text(json.dumps({"group_table": {"names": ["1", "t"], "table": table},
                                "graph": {"vertices": [1, 2], "edges": [[1, 2]]},
                                "values": []}))
    code, out, err = invoke(["check-flow", str(path)])
    assert (code, out, err) == (2, "", "error: table entries must be integers\n")


def test_cayley_order_over_max_size_is_usage_error(tmp_path):
    G = standard_group("cyclic:12")
    path = tmp_path / "c12.txt"
    path.write_text("\n".join(["12", " ".join(G.names)]
                              + [" ".join(map(str, r)) for r in G.table.tolist()]) + "\n")
    code, out, err = invoke(["group-leakproof", f"cayley:{path}", "--max-size", "5"])
    assert code == 2
    assert out == "" and err.startswith("error:") and "12" in err


def test_unexpected_exception_is_code_3_naming_command(tmp_path, monkeypatch):
    import groupflow.cli as cli

    def broken(_graph):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli, "test_planarity", broken)
    path = write_graph(tmp_path, "k4.json", named_graph("complete:4"))
    code, out, err = invoke(["planar", path])
    assert code == 3
    assert out == ""
    assert "planar" in err and "RuntimeError" in err and "Traceback" not in err


def test_internal_invariant_violation_is_code_3(tmp_path, monkeypatch):
    import groupflow.cli as cli
    from groupflow.errors import InternalInvariantError

    def broken(_graph):
        raise InternalInvariantError("synthetic failure")

    monkeypatch.setattr(cli, "synthesize_leaking_flow", broken)
    path = write_graph(tmp_path, "k5.json", named_graph("complete:5"))
    code, _, err = invoke(["leak-witness", path])
    assert code == 3
    assert "internal invariant violation" in err


def test_invalid_minor_witness_is_code_3(tmp_path, monkeypatch):
    import groupflow.graphs as graphs

    monkeypatch.setattr(graphs, "verify_minor", lambda _G, _w: False)
    path = write_graph(tmp_path, "pet.json", named_graph("petersen"))
    code, _, err = invoke(["minor", path, "--model", "k5"])
    assert code == 3
    assert "internal invariant violation" in err and "find_minor" in err


def test_output_file_and_text_mode(tmp_path):
    g = named_graph("complete:4")
    gpath = write_graph(tmp_path, "k4.json", g)
    out_path = tmp_path / "out.txt"
    code, out, _ = invoke(["--format", "text", "--output", str(out_path), "planar", gpath])
    assert code == 0
    assert out == ""
    assert out_path.read_text().strip() == "planar"


def test_common_flags_after_subcommand(tmp_path):
    gpath = write_graph(tmp_path, "k4.json", named_graph("complete:4"))
    out_path = tmp_path / "out2.txt"
    code, out, _ = invoke(["planar", gpath, "-f", "text", "-o", str(out_path)])
    assert code == 0
    assert out_path.read_text().strip() == "planar"
    # a flag before the subcommand must survive the subparser's defaults
    code, out, _ = invoke(["-f", "text", "planar", gpath])
    assert code == 0
    assert out.strip() == "planar"


# -- one parser ------------------------------------------------------------------


def _parser_argvs(g, rot, flow):
    bad = {"planar": [g, "extra"], "extra-planar": [g, "--model", "k5"],
           "minor": [g, "--model", "k7"], "faces": [g], "check-flow": [flow, "--binary", "1"],
           "leak-witness": [g, g], "group-leakproof": ["cyclic:4", "--max-size", "x"],
           "group-binary-leakproof": ["cyclic:4", "-f", "xml"], "examples": ["k99"]}
    good = {"planar": [g], "extra-planar": [g], "minor": [g, "--model", "k33"],
            "faces": [g, rot], "check-flow": [flow, "--binary", "1", "2"], "leak-witness": [g],
            "group-leakproof": ["cyclic:4"], "group-binary-leakproof": ["dihedral:3"],
            "examples": ["k5"]}
    for name, *_ in cli._COMMANDS:
        yield [name, "-h"]
        yield [name]
        yield [name, *bad[name]]
        yield [name, *good[name]]
        yield ["-f", "text", name, *good[name]]
        yield [name, *good[name], "-f", "text", "--max-size", "9"]
        yield ["--max-size", "nine", name, *good[name]]
        yield ["--form", "text", name, *good[name]]
    yield from ([], ["-h"], ["--help"], ["-f", "text"], ["plnar", g],
                ["-o", "planar", "extra-planar", g], ["--out", "planar", "extra-planar", g],
                ["--max-size", "planar", "extra-planar", g], ["-f", "planar", "planar", g],
                ["--output=planar", "extra-planar", g], ["-oplanar", "extra-planar", g])


def test_module_parser_reuse_matches_fresh_parser(tmp_path, monkeypatch):
    """run parses every argv with the parser built at import; two calls in a
    row print, write and exit as a freshly built parser does."""
    monkeypatch.chdir(tmp_path)
    k4 = named_graph("complete:4")
    g = write_graph(tmp_path, "g.json", k4)
    (tmp_path / "rot.json").write_text(jsonio.dumps(jsonio.rotation_to_json(
        planarity_certificate(k4))))
    (tmp_path / "flow.json").write_text(jsonio.dumps(jsonio.flow_to_json(example_flow_k33()[1])))
    written = 0
    module_parser = cli._PARSER
    out = tmp_path / "planar"     # the -o target of the argvs that name it
    for argv in _parser_argvs(g, "rot.json", "flow.json"):
        results = []
        for parser in (module_parser, module_parser, cli.build_parser()):
            monkeypatch.setattr(cli, "_PARSER", parser)
            out.unlink(missing_ok=True)
            results.append((invoke(argv), out.exists() and out.read_text()))
        assert results[0] == results[1] == results[2], argv
        written += bool(results[0][1])
    assert written >= 3


def test_help_lists_subcommands_in_order():
    names = [name for name, *_ in cli._COMMANDS]
    assert list({a.dest: a for a in cli._PARSER._actions}["command"].choices) == names
    code, out, _ = invoke(["--help"])
    assert code == 0 and "{" + ",".join(names) + "}" in out


# -- extra-planar JSON writer ------------------------------------------------------


def _tree_plus_chords(rng: random.Random, n: int, chords: int, isolated: int) -> Graph:
    """A random tree plus ``chords`` chords on n - ``isolated`` vertices,
    relabelled at random among 1..n: the sparse shape of the extra-planar
    benchmark, with isolated vertices besides."""
    core = random_connected_planar_graph(rng, n - isolated, chords)
    label = dict(zip(core.vertices, rng.sample(range(1, n + 1), n)))
    return graph_from(range(1, n + 1), [(label[u], label[v]) for u, v in core.edges])


def _writer_graphs():
    for n in range(0, 6):
        yield from all_labeled_graphs(n)
    rng = random.Random(67)
    for _ in range(60):
        yield random_graph(rng, rng.randint(6, 12), rng.uniform(0.05, 0.3))
    for n in range(8, 17):
        for chords in range(3):
            yield _tree_plus_chords(rng, n, chords, isolated=(n + chords) % 3)
    yield graph_from(["a", "b", "c", "d"], [("a", "b"), ("b", "c")])
    yield graph_from([9, 10, 11, "x", "y"], [(9, 10), (10, "x"), (11, "y")])
    yield graph_from(list(range(1, 13)), [(9, 10), (10, 11), (1, 12)])
    yield graph_from(['q"uote', "été", "tab\\"], [('q"uote', "été")])


def test_extra_planar_json_matches_payload_dumps(tmp_path):
    """Every positive verdict's JSON equals dumps of the payload dict: every
    graph on at most 5 vertices (and the empty graph), seeded sparse 6-12
    vertex graphs, seeded 8-16 vertex trees plus at most two chords, some
    with isolated vertices, string and mixed labels ("10" sorts before "9"
    as a key) and labels that JSON escapes."""
    positive = 0
    for i, G in enumerate(_writer_graphs()):
        path = tmp_path / "g.json"
        path.write_text(jsonio.dumps(jsonio.graph_to_json(G)))
        code, out, err = invoke(["extra-planar", str(path)])
        verdict = extra_planar(G)
        assert code == (0 if verdict.extra_planar else 1), (G, err)
        if verdict.extra_planar:
            positive += 1
            assert out == extra_planar_text_by_payload(verdict.embeddings), G
    assert positive >= 900


def test_group_leakproof_dihedral_1000_gets_a_verdict():
    """The rotation subgroup of order 1000 is an abelian subgroup as deep as
    the clique search goes; it must not reach the recursion limit."""
    code, out, err = invoke(["group-leakproof", "dihedral:1000"])
    assert code in (0, 1), err
    assert json.loads(out)["group"] == "dihedral:1000"


# -- numbers too large to build or to write out -----------------------------------

_BIG = "9" * 5000


@pytest.mark.parametrize("argv", [
    ["group-leakproof", "sym:1600"],
    ["group-leakproof", "alt:1800"],
    ["group-leakproof", "es:8000"],
    ["group-leakproof", "product:sym:1800,cyclic:2"],
    ["group-leakproof", "cyclic:" + _BIG],
    ["group-leakproof", "sym:1000"],
    ["group-leakproof", "sym:300000"],
    ["--max-size", "100000", "group-leakproof", "cyclic:50000"],
    ["planar", "edges.txt"],
    ["planar", "string.json"],
    ["planar", "number.json"],
], ids=["sym", "alt", "es", "product", "cyclic", "sym1000", "sym300000", "table-memory",
        "edge-list-label", "json-string-label", "json-number-label"])
def test_huge_numbers_are_short_usage_errors(tmp_path, monkeypatch, argv):
    """Orders and labels past Python's int-to-text limit, or too large to
    build, exit 2 at once with a short message; no group table is built."""
    for builder in ("_cyclic", "_dihedral", "_perm_group", "_es_group_impl",
                    "_direct_product", "_central_product"):
        monkeypatch.setattr(groups, builder, None)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "edges.txt").write_text(f"1 2\n2 {_BIG}\n")
    (tmp_path / "string.json").write_text(json.dumps({"vertices": ["1", _BIG],
                                                      "edges": [["1", _BIG]]}))
    (tmp_path / "number.json").write_text(f'{{"vertices": [1, {_BIG}], "edges": [[1, {_BIG}]]}}')
    start = time.perf_counter()
    code, out, err = invoke(argv)
    assert (code, out) == (2, "") and err.startswith("error:"), err[:300]
    assert len(err) <= 200
    assert time.perf_counter() - start < 0.5


_LONG = "x" * 100_000


@pytest.mark.parametrize("spec", [
    "product:" + _LONG, "cyclic:" + _LONG, _LONG, "cayley:{order}", "cayley:" + _LONG,
], ids=["product", "cyclic", "unknown", "cayley-order-line", "cayley-path"])
def test_long_user_input_gives_a_short_usage_error(tmp_path, spec):
    """A message quotes at most a short prefix of the spec, and a cayley
    order line longer than the bound is refused before it is read."""
    order = tmp_path / "order.txt"
    order.write_text("7" * 4000 + "\n")
    code, out, err = invoke(["group-leakproof", spec.format(order=order)])
    assert (code, out) == (2, "") and err.startswith("error:"), err[:300]
    assert len(err.encode()) < 300


def _long_input_argv(tmp_path, kind: str) -> list:
    name = "x" * 100_000
    if kind == "path":
        return ["planar", str(tmp_path / name)]
    if kind == "duplicate-name":
        path = tmp_path / "dup.txt"
        path.write_text(f"2\n{name} {name}\n0 1\n1 0\n")
        return ["group-leakproof", f"cayley:{path}"]
    graph = graph_from([name, "a", "b"], [(name, "a"), (name, "b")])
    rotation = tmp_path / "rot.json"
    rotation.write_text(json.dumps({"rotation": {name: ["a"], "a": [name], "b": [name]}}))
    return ["faces", write_graph(tmp_path, "g.json", graph), str(rotation)]


@pytest.mark.parametrize("kind", ["path", "duplicate-name", "rotation-vertex"])
def test_messages_quote_100000_character_input_briefly(tmp_path, kind):
    """A path that cannot be read, a duplicate element name and a vertex
    whose rotation is wrong are each quoted once, cut to 100 characters."""
    code, out, err = invoke(_long_input_argv(tmp_path, kind))
    assert (code, out) == (2, "") and err.startswith("error:"), err[:300]
    assert len(err.encode()) < 400 and err.count("...") == 1, err[:300]


@pytest.mark.parametrize("target", ["missing-directory", "directory", "long-path"])
@pytest.mark.parametrize("command", ["planar", "extra-planar", "group-leakproof"])
def test_unwritable_output_is_usage_error(tmp_path, command, target):
    """An --output that cannot be written, for a missing directory, a
    directory or a 100,000-character name, is one short usage error: one
    line on stderr, so no traceback."""
    output = {"missing-directory": tmp_path / "missing" / "out.json", "directory": tmp_path,
              "long-path": tmp_path / ("x" * 100_000)}[target]
    source = ("es:2" if command == "group-leakproof"
              else write_graph(tmp_path, "k4.json", named_graph("complete:4")))
    code, out, err = invoke([command, source, "-o", str(output)])
    assert (code, out) == (2, "") and err.startswith("error: cannot write "), err[:300]
    assert err.count("\n") == 1 and len(err.encode()) < 400, err[:300]


@pytest.mark.parametrize("command", ["planar", "group-leakproof"])
def test_closed_stdout_pipe_is_usage_error(tmp_path, command):
    """A reader that has gone before the verdict is written (as with
    ``| head -c 0``): exit 2 and one error line, with no traceback and no
    message at shutdown."""
    source = ("sym:4" if command == "group-leakproof"
              else write_graph(tmp_path, "k4.json", named_graph("complete:4")))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _fresh_python(["-m", "groupflow.cli", command, source], stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: cannot write standard output: Broken pipe\n"


@pytest.mark.parametrize("argv", [["planar", "{path}"], ["check-flow", "{path}"]])
def test_deeply_nested_json_is_usage_error(tmp_path, argv):
    nested = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "nested.json"
    if argv[0] == "planar":
        path.write_text(f'{{"vertices": {nested}, "edges": []}}')
    else:
        path.write_text(f'{{"group": "es:2", "graph": {{"vertices": [], "edges": []}}, '
                        f'"values": {nested}}}')
    code, out, err = invoke([arg.format(path=path) for arg in argv])
    assert (code, out) == (2, "") and err.startswith("error:"), err


def test_inline_group_table_obeys_max_size(tmp_path):
    """An inline group_table is held to --max-size as a cayley: file is."""
    G = standard_group("cyclic:600")
    path = tmp_path / "flow.json"
    path.write_text(json.dumps({
        "group_table": {"names": list(G.names), "table": G.table.tolist()},
        "graph": jsonio.graph_to_json(named_graph("complete:4")),
        "values": [],
    }))
    code, out, err = invoke(["check-flow", "--max-size", "10", str(path)])
    assert (code, out) == (2, ""), err
    assert "order 600 exceeds the configured bound 10" in err
    assert invoke(["check-flow", str(path)])[0] == 0


def test_product_above_the_bound_is_refused_before_its_factors():
    """product:sym:7,cyclic:2 exits 2 with the product's order, read from
    the spec before sym:7 is built."""
    code, out, err = invoke(["group-leakproof", "product:sym:7,cyclic:2"])
    assert (code, out) == (2, "")
    assert "order 10080 exceeds the configured bound 5040" in err


def test_long_centprod_chain_is_usage_error():
    """1,200 centprod: terms are refused by the 64-term bound, before a walk
    over the spec could reach Python's recursion limit."""
    spec = "cyclic:2"
    for _ in range(1200):
        spec = f"centprod:cyclic:2,{spec}"
    code, out, err = invoke(["group-leakproof", spec])
    assert (code, out) == (2, "")
    assert "more than 64 product: or centprod: terms" in err and "Traceback" not in err


def test_cayley_path_ending_before_the_spec_does_is_usage_error(tmp_path):
    """A cayley: path ends at its comma, so the rest of the spec is refused
    (exit 2), though a file is named after it."""
    G = standard_group("cyclic:3")
    text = "\n".join(["3", " ".join(G.names)] + [" ".join(map(str, r)) for r in G.table.tolist()])
    for name in ("c3.txt", "c3.txt,cyclic:2"):
        (tmp_path / name).write_text(text + "\n")
    path = tmp_path / "c3.txt"
    for spec in (f"cayley:{path},cyclic:2", f"product:cyclic:2,cayley:{path},cyclic:2"):
        code, out, err = invoke(["group-leakproof", spec])
        assert (code, out) == (2, "")
        assert "unexpected ',cyclic:2' after the group spec" in err and "Traceback" not in err


def test_rotation_naming_a_vertex_the_graph_lacks_is_usage_error(tmp_path):
    gpath = write_graph(tmp_path, "path.json", graph_from([1, 2, 3], [(1, 2), (2, 3)]))
    rpath = tmp_path / "rot.json"
    rotation = {"1": ["2"], "2": ["1", "3"], "3": ["2"]}
    rpath.write_text(json.dumps({"rotation": rotation}))
    assert invoke(["faces", gpath, str(rpath)])[0] == 0
    rpath.write_text(json.dumps({"rotation": {**rotation, "9": []}}))
    code, out, err = invoke(["faces", gpath, str(rpath)])
    assert (code, out) == (2, "") and "'9'" in err, err


@pytest.mark.parametrize("argv", [["--max-size", "0"], ["--max-size", "-1"], ["--max-size=-1"]])
def test_max_size_must_be_positive(tmp_path, argv):
    path = write_graph(tmp_path, "k4.json", named_graph("complete:4"))
    for full in ([*argv, "minor", path, "--model", "k5"], ["minor", path, "--model", "k5", *argv]):
        code, out, err = invoke(full)
        assert (code, out) == (2, "") and "--max-size: needs a positive integer" in err
