import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from equisyz.cli import (
    COMMANDS, main, run, render_text, EXIT_PASS, EXIT_FAIL, EXIT_INPUT,
    EXIT_INTERNAL,
)

from equisyz import cli
from helpers import module_3028, reference_parser, triangle_graph

DATA = os.path.join(os.path.dirname(__file__), "..", "data")
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench"))
import gen  # noqa: E402  (the benchmark's GKM graph generators)


def data_path(name):
    return os.path.join(DATA, name)


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_module_analyze_koszul2():
    code, report = run(["module-analyze", data_path("koszul2.json"), "--seed", "7"])
    assert code == EXIT_PASS
    s = report["summary"]
    assert s["betti"] == [[0, 0, 1], [1, 2, 2], [2, 4, 1]]
    assert s["depth"] == 0 and s["dimension"] == 0
    assert s["cohen_macaulay"] == "cm"
    assert s["syzygy_order"] == 0


def test_gkm_sphere_checks():
    code, report = run(["gkm", data_path("s2.json"), "--check", "cs,pairing"])
    assert code == EXIT_PASS
    assert report["summary"]["kernel_free"] and report["summary"]["kernel_rank"] == 2
    names = {c["name"]: c["verdict"] for c in report["checks"]}
    assert names["poincare-pairing-perfection"] == "pass"


def test_gkm_descend():
    code, report = run(["gkm", data_path("s2.json"), "--check", "descend"])
    assert code == EXIT_PASS
    assert report["summary"]["invariants_betti"] == [[0, 0, 1], [0, 2, 1]]


def test_gkm_builds_the_kernel_once(monkeypatch):
    # cs, pairing and descend all read the kernel cached on the graph
    from equisyz import equivtop
    graphs = []
    build = equivtop.chang_skjelbred
    monkeypatch.setattr(equivtop, "chang_skjelbred",
                        lambda graph: graphs.append(graph) or build(graph))
    code, _ = run(["gkm", data_path("s2.json"), "--check", "cs,pairing,descend"])
    assert code == EXIT_PASS and len(graphs) == 1


def test_gkm_computes_biduality_once_per_module(monkeypatch, tmp_path):
    # cs and pairing share the kernel's biduality, and so do cs and
    # syzygy_order on a non-free kernel (a triangle in rank 3); counted by
    # the results built, which the free and the general path both make
    from equisyz import gradmod
    calls = []
    real = gradmod.BidualityResult
    monkeypatch.setattr(gradmod, "BidualityResult",
                        lambda *args: calls.append(1) or real(*args))
    code, _ = run(["gkm", data_path("s2xs2.json"), "--check", "cs,pairing"])
    assert code == EXIT_PASS and len(calls) == 1
    calls.clear()
    path = write_json(tmp_path, "triangle.json", triangle_graph())
    code, report = run(["gkm", path, "--check", "cs"])
    assert code == EXIT_PASS and not report["summary"]["kernel_free"]
    assert len(calls) == 1


def test_each_derived_result_is_computed_once(monkeypatch):
    # the kernel's syzygy order serves cs and descent, and the invariants'
    # is the other; the augmentation's serves partial and gap, the AB
    # cohomology the summary and partial, and the plain complex computes
    # only its H^0 (they used to take 3 and 2 orders and 9 homologies)
    from equisyz import equivtop, gradmod
    calls = []
    order, homology = gradmod.SyzygyOrderResult, gradmod.homology
    monkeypatch.setattr(gradmod, "SyzygyOrderResult",
                        lambda *args: calls.append("order") or order(*args))

    def counted(*args, **kwargs):
        calls.append("homology")
        return homology(*args, **kwargs)
    monkeypatch.setattr(gradmod, "homology", counted)
    monkeypatch.setattr(equivtop, "homology", counted)
    for argv, orders, homologies in ((["gkm", data_path("s2.json")], 2, 3),
                                     (["filtration-verify", data_path("s2_filtration.json")],
                                      1, 5)):
        calls.clear()
        assert run(argv)[0] == EXIT_PASS
        assert (calls.count("order"), calls.count("homology")) == (orders, homologies), argv


def test_exit_two_on_symmetry_inconsistent_with_the_group_law(tmp_path):
    # two generators that are one element, t -> -t, one fixing the poles
    # and one swapping them: cs and pairing used to pass, as only descent
    # replayed the closure; the graph now checks it when it is read
    path = write_json(tmp_path, "inconsistent.json", _edited(
        "s2.json",
        lambda g: g["symmetry"]["group"].update(generators=[[["-1"]], [["-1"]]]),
        lambda g: g["symmetry"].update(vertex_maps=[{"N": "N", "S": "S"},
                                                    {"N": "S", "S": "N"}])))
    for check in ("cs", "pairing", "descend"):
        code, report = run(["gkm", path, "--check", check])
        assert code == EXIT_INPUT, check
        assert "action is inconsistent with the group law" in report["error"]


def test_not_applicable_items_give_a_reason_under_their_checks_tag(tmp_path):
    # every command on every shipped input and on the inputs that make the
    # ext, partial, gap, ses and uct checks not applicable: each NA item
    # says why, a check keeps one tag, and its NA item is reported under
    # the name and tag of its verdicts
    from equisyz.cartan import GStarModule
    with open(data_path("s2_filtration.json")) as fh:
        s2_filtration = json.load(fh)
    paths = [data_path(name) for name in sorted(os.listdir(DATA))] + [
        write_json(tmp_path, "bare.json", {
            k: v for k, v in s2_filtration.items()
            if k not in ("augmentation", "homology_module", "truncations")}),
        write_json(tmp_path, "no_duality.json", dict(s2_filtration, poincare_duality=False)),
        write_json(tmp_path, "point_plus_circle.json", dict(GStarModule(
            (0, 0, 1), [[0] * 3] * 3, [[[0, 0, 0], [0, 0, 1], [0, 0, 0]]]).to_json(), rank=1))]
    tags, verdicts, not_applicable = {}, set(), []
    for path in paths:
        for command in COMMANDS:
            options = ["--klass", '["t", "0"]'] if command == "integrate" else []
            for item in run([command, path] + options)[1].get("checks", []):
                tags.setdefault(item["name"], set()).add(item["theorem"])
                if item["verdict"] == "not applicable":
                    assert item["details"].get("reason"), (command, path, item)
                    not_applicable.append((item["name"], item["theorem"]))
                else:
                    verdicts.add((item["name"], item["theorem"]))
    assert {name for name, _ in not_applicable} == {
        "ext-duality", "partial-exactness-vs-syzygy-order", "syzygy-gap-bound",
        "homology-truncation-additivity", "universal-coefficient collapse",
        "descent-syzygy-invariance", "descent-base-change-hilbert"}
    assert {name: t for name, t in tags.items() if len(t) > 1} == {}
    assert set(not_applicable) <= verdicts


def test_weyl_verify_groups():
    for name, order in [("z2_group.json", 2), ("a2_group.json", 6),
                        ("b2_group.json", 8)]:
        code, report = run(["weyl-verify", data_path(name)])
        assert code == EXIT_PASS
        assert report["summary"]["order"] == order


def test_weyl_verify_rejects_bad_invariant(tmp_path):
    path = write_json(tmp_path, "bad.json", {
        "rank": 1, "generators": [[[-1]]], "invariants": ["t1^3"]})
    code, report = run(["weyl-verify", path])
    assert code == EXIT_FAIL


def test_cartan_circle():
    code, report = run(["cartan", data_path("circle_model.json")])
    assert code == EXIT_PASS
    assert report["summary"]["cohomology_betti"] == [[0, 0, 1], [1, 2, 1]]
    names = {c["name"]: c["verdict"] for c in report["checks"]}
    assert names["universal-coefficient collapse"] == "pass"


def test_cartan_command_builds_each_complex_once(monkeypatch):
    # one Cartan complex for the cohomology and one for the homology over
    # the model's ring, which the collapse check reuses, and one over Q0 for
    # each of the two nonequivariant cohomologies the restriction compares
    from equisyz.cartan import CartanComplex, Q0
    builds = []
    real_init = CartanComplex.__init__

    def counted_init(self, *args, **kwargs):
        builds.append(args)
        real_init(self, *args, **kwargs)
    monkeypatch.setattr(CartanComplex, "__init__", counted_init)
    code, report = run(["cartan", data_path("circle_model.json")])
    assert code == EXIT_PASS
    names = {c["name"]: c["verdict"] for c in report["checks"]}
    assert names["universal-coefficient collapse"] == "pass"
    assert [ring for ring, _ in builds].count(Q0) == 2
    assert len(builds) == 4 and builds[0][0] == builds[1][0] != Q0


def test_filtration_verify_all_data():
    for name in ["s2_filtration.json", "s2xs2_filtration.json",
                 "free_circle.json", "su2_g_filtration.json"]:
        code, report = run(["filtration-verify", data_path(name)])
        assert code == EXIT_PASS, (name, report)
        assert report["status"] == "pass"


def test_integrate_command():
    code, report = run(["integrate", data_path("s2.json"),
                        "--klass", json.dumps(["t", "0"])])
    assert code == EXIT_PASS
    assert report["summary"]["value"] == "1"


def test_integrate_rejects_a_class_of_the_wrong_length():
    for klass in (["t"], ["t", "0", "0"]):
        code, report = run(["integrate", data_path("s2.json"),
                            "--klass", json.dumps(klass)])
        assert code == EXIT_INPUT
        assert report["error"] == "class needs one component per vertex"


def test_integrate_rejects_non_member():
    code, report = run(["integrate", data_path("s2.json"),
                        "--klass", json.dumps(["1", "0"])])
    assert code == EXIT_INPUT


def test_exit_two_on_bad_euler_data(tmp_path):
    # a zero weight, weights of the wrong length, and an unknown vertex
    cases = [({"N": [[0]], "S": [[-1]]}, "nonzero vectors of length 1"),
             ({"N": [[1, 0, 0]], "S": [[-1]]}, "nonzero vectors of length 1"),
             ({"N": [[0, 1]], "S": [[-1]]}, "nonzero vectors of length 1"),
             ({"N": [[1]], "S": [[-1]], "X": [[1]]}, "unknown vertex X")]
    for euler, message in cases:
        path = write_json(tmp_path, "bad_euler.json", {
            "rank": 1, "vars": ["t"], "vertices": ["N", "S"],
            "edges": [{"v": "N", "w": "S", "weight": [1]}], "euler": euler})
        for argv in (["gkm", path], ["integrate", path, "--klass", '["t", "0"]']):
            code, report = run(argv)
            assert code == EXIT_INPUT, (argv, euler)
            assert message in report["error"], report["error"]


def test_exit_two_on_non_list_euler_value(tmp_path):
    # iterating the 5 used to end in "'int' object is not iterable"
    path = write_json(tmp_path, "euler_int.json", {
        "rank": 1, "vars": ["t"], "vertices": ["N", "S"],
        "edges": [{"v": "N", "w": "S", "weight": [1]}],
        "euler": {"N": 5, "S": [[-1]]}})
    for argv in (["gkm", path], ["integrate", path, "--klass", '["t", "0"]']):
        code, report = run(argv)
        assert code == EXIT_INPUT, argv
        assert "Euler data must map vertices to weight lists" in report["error"]


def test_exit_two_on_json_booleans_as_numbers(tmp_path):
    # true and false are not numbers; each of these used to read as 1 or 0
    with open(data_path("s2xs2.json")) as fh:
        s2xs2 = json.load(fh)
    weight = json.loads(json.dumps(s2xs2))
    weight["edges"][0]["weight"] = [True, 0]
    euler = json.loads(json.dumps(s2xs2))
    euler["euler"] = {v: [[True, 0], [0, 1]] for v in s2xs2["vertices"]}
    cases = [
        ("gkm", weight, "weight entries must be integers, got [True, 0]"),
        ("gkm", euler, "weight entries must be integers, got [True, 0]"),
        ("gkm", dict(s2xs2, rank=True), "rank must be integers, got [True]"),
        ("module-analyze", _module_input([{"coeff": "1", "exps": [True, 0]}]),
         "exponents must be integers, got [True, 0]"),
        ("module-analyze", _module_input([{"coeff": True, "exps": [1, 0]}]),
         "not an exact rational: True"),
        ("module-analyze", _module_input(True), "unrecognized polynomial JSON: True"),
        ("module-analyze", dict(_module_input("x"), col_degrees=[False]),
         "col_degrees must be integers, got [False]"),
    ]
    for command, obj, message in cases:
        code, report = run([command, write_json(tmp_path, "bools.json", obj)])
        assert code == EXIT_INPUT, (command, obj, report)
        assert message in report["error"], report["error"]


def test_exit_two_on_fractional_gkm_data(tmp_path):
    # int() used to truncate these: weight [1.5] with Euler [[1.7]] at N
    # integrated (1, 1) to a passing report
    one = [{"v": "N", "w": "S", "weight": [1]}]
    cases = [([{"v": "N", "w": "S", "weight": [1.5]}],
              {"N": [[1.7]], "S": [[-1]]}, "got [1.5]"),
             (one, {"N": [[1.7]], "S": [[-1]]}, "got [1.7]"),
             (one, {"N": [["1/2"]], "S": [[-1]]}, "got ['1/2']")]
    for edges, euler, message in cases:
        path = write_json(tmp_path, "fractional.json", {
            "rank": 1, "vars": ["t"], "vertices": ["N", "S"],
            "edges": edges, "euler": euler})
        for argv in (["gkm", path], ["integrate", path, "--klass", '["1", "1"]']):
            code, report = run(argv)
            assert code == EXIT_INPUT, (argv, edges, euler)
            assert message in report["error"], report["error"]


def test_integer_strings_accepted_in_gkm_data(tmp_path):
    path = write_json(tmp_path, "strings.json", {
        "rank": 1, "vars": ["t"], "vertices": ["N", "S"],
        "edges": [{"v": "N", "w": "S", "weight": ["1"]}],
        "euler": {"N": [["1"]], "S": [["-1"]]}})
    code, report = run(["integrate", path, "--klass", '["1", "1"]'])
    assert code == EXIT_PASS and report["summary"]["value"] == "0"


def test_exit_two_on_symmetry_with_fractional_weight_image(tmp_path):
    # the order-2 matrix [[1, 1/2], [0, -1]] sends the weight (0, 1) to
    # (1/2, -1), which int() used to truncate to -(0, 1)
    path = write_json(tmp_path, "fractional_symmetry.json", {
        "rank": 2, "vars": ["t1", "t2"], "vertices": ["A", "B"],
        "edges": [{"v": "A", "w": "B", "weight": [0, 1]}],
        "symmetry": {"group": {"rank": 2,
                               "generators": [[["1", "1/2"], ["0", "-1"]]],
                               "invariants": ["t1^2", "t2^2-1/2*t1*t2+1/16*t1^2"]},
                     "vertex_maps": [{"A": "A", "B": "B"}]}})
    for argv in (["gkm", path, "--check", "cs"],
                 ["integrate", path, "--klass", '["1", "1"]']):
        code, report = run(argv)
        assert code == EXIT_INPUT, argv
        assert "does not respect the weights" in report["error"]


def test_exit_two_on_symmetry_invariants_that_are_not_invariant(tmp_path):
    # symmetric P^3 with its fourth invariant t1*t2*t3*t4 replaced by t1^4
    # or t1^3*t2: the ideal is still zero-dimensional with 24 standard
    # monomials, and descend used to pass with invariants_betti
    # [[0, 0, 1], [0, 2, 1], [0, 4, 1], [0, 6, 1]]
    for invariant in ("t1^4", "t1^3*t2"):
        obj = gen.projective_space(3, "0", symmetric=True)
        obj["symmetry"]["group"]["invariants"][3] = invariant
        path = write_json(tmp_path, "not_invariant.json", obj)
        code, report = run(["gkm", path, "--check", "descend"])
        assert code == EXIT_INPUT, invariant
        assert "does not fix invariant 4" in report["error"], report


def test_exit_two_on_singular_group_generator(tmp_path):
    # the matrix (0) closes to the monoid {1, 0}, which is not a group
    singular = {"rank": 1, "generators": [[["0"]]], "invariants": ["t1^2"]}
    group_path = write_json(tmp_path, "singular_group.json", singular)
    graph_path = write_json(tmp_path, "singular_symmetry.json", {
        "rank": 1, "vertices": ["N", "S"],
        "edges": [{"v": "N", "w": "S", "weight": [1]}],
        "symmetry": {"group": singular,
                     "vertex_maps": [{"N": "S", "S": "N"}]}})
    for argv in (["weyl-verify", group_path],
                 ["gkm", graph_path],
                 ["gkm", graph_path, "--check", "descend"]):
        code, report = run(argv)
        assert code == EXIT_INPUT, (argv, report)
        assert "group generators must be invertible" in report["error"]


def test_exit_two_on_malformed_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, report = run(["module-analyze", str(p)])
    assert code == EXIT_INPUT and "error" in report


def test_exit_two_on_deeply_nested_json(tmp_path, capsys):
    # nesting past the JSON parser's recursion limit is unreadable input,
    # as the input file of every command and as integrate's --klass
    deep = "[" * 5000 + "]" * 5000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    runs = [[command, str(path)] for command in COMMANDS]
    runs.append(["integrate", data_path("s2.json"), "--klass", deep])
    for argv in runs:
        assert main(argv) == EXIT_INPUT, argv
        out, err = capsys.readouterr()
        expected = "invalid input" if "--klass" in argv else "cannot read"
        assert out.startswith("error: " + expected), out
        assert "Traceback" not in err


def test_exit_two_on_missing_file():
    code, _ = run(["module-analyze", "/nonexistent/input.json"])
    assert code == EXIT_INPUT


def test_exit_two_on_broken_complex(tmp_path):
    # delta1 after delta0 nonzero: structural violation -> input error
    obj = {
        "ring": {"vars": ["t1", "t2"], "degrees": [2, 2]},
        "modules": [
            {"row_degrees": [0], "col_degrees": [], "matrix": [[]]},
            {"row_degrees": [0], "col_degrees": [], "matrix": [[]]},
            {"row_degrees": [0], "col_degrees": [], "matrix": [[]]},
        ],
        "maps": [[["1"]], [["1"]]],
    }
    path = write_json(tmp_path, "bad_complex.json", obj)
    code, report = run(["filtration-verify", path])
    assert code == EXIT_INPUT


def test_exit_two_on_bad_filtration_maps(tmp_path):
    # rank-1 complex R/(t) -> R: a map entry of the wrong degree, and a map
    # that sends the relation t to a nonzero element
    def datum(entry):
        return {
            "ring": {"vars": ["t"], "degrees": [2]},
            "modules": [
                {"row_degrees": [0], "col_degrees": [2], "matrix": [["t"]]},
                {"row_degrees": [0], "col_degrees": [], "matrix": [[]]},
            ],
            "maps": [[[entry]]],
        }
    for entry, message in (("t", "degree"), ("1", "respect the relations")):
        path = write_json(tmp_path, "bad_map.json", datum(entry))
        code, report = run(["filtration-verify", path])
        assert code == EXIT_INPUT
        assert message in report["error"]
    # more maps than modules used to raise IndexError (exit 3)
    with open(data_path("s2_filtration.json")) as fh:
        doubled = json.load(fh)
    doubled["maps"] *= 2
    code, report = run(["filtration-verify",
                        write_json(tmp_path, "doubled.json", doubled)])
    assert code == EXIT_INPUT and "need maps" in report["error"]


def test_exit_two_on_malformed_matrices(tmp_path):
    # a matrix that is not a list of rows used to end in a message of
    # Python's own ("'int' object is not iterable", "invalid input:
    # 'matrix'"); it names its field now
    with open(data_path("koszul2.json")) as fh:
        module = json.load(fh)
    with open(data_path("s2_filtration.json")) as fh:
        datum = json.load(fh)
    aug = datum["augmentation"]
    cases = [
        ("module-analyze", dict(module, matrix=3), "matrix must be a list of rows"),
        ("module-analyze", dict(module, matrix=[3]), "matrix must be a list of rows"),
        ("module-analyze", {k: v for k, v in module.items() if k != "matrix"},
         "matrix must be a list of rows"),
        ("filtration-verify", dict(datum, maps=3), "maps must be a list of matrices"),
        ("filtration-verify", dict(datum, maps=[3]), "maps[0] must be a list of rows"),
        ("filtration-verify", dict(datum, maps=[[3]]), "maps[0] must be a list of rows"),
        ("filtration-verify", dict(datum, augmentation=dict(aug, map=3)),
         "augmentation map must be a list of rows"),
        ("filtration-verify", dict(datum, augmentation=dict(aug, map=[[0, 1], 1])),
         "augmentation map must be a list of rows"),
    ]
    for command, obj, message in cases:
        code, report = run([command, write_json(tmp_path, "bad.json", obj)])
        assert code == EXIT_INPUT, (command, obj, report)
        assert message in report["error"], (command, obj, report)


def test_exit_two_on_non_object_input(tmp_path):
    path = write_json(tmp_path, "list.json", [1, 2])
    for command in ("module-analyze", "gkm", "weyl-verify", "cartan",
                    "filtration-verify", "integrate"):
        code, report = run([command, path, "--klass", "[]"] if command == "integrate"
                           else [command, path])
        assert code == EXIT_INPUT, command
        assert report["error"] == "input must be a JSON object"
    # a "ring" that is not an object used to end in an AttributeError, exit 3
    for command, name in (("module-analyze", "koszul2.json"),
                          ("filtration-verify", "su2_g_filtration.json")):
        with open(data_path(name)) as fh:
            obj = json.load(fh)
        for ring in (["x"], "x", 1.5):
            path = write_json(tmp_path, "ring.json", dict(obj, ring=ring))
            code, report = run([command, path])
            assert code == EXIT_INPUT, (command, ring, report)
            assert "ring must be a JSON object" in report["error"]


def test_help_exits_zero(capsys):
    # --help of equisyz and of each command prints the usage and exits 0,
    # in process and as a program; a missing input still exits 2
    for argv in [["--help"], ["-h"]] + [[name, "--help"] for name in COMMANDS]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr().out
        assert exc.value.code == 0 and out.startswith("usage: equisyz"), argv
        assert "error" not in out
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"), os.environ.get("PYTHONPATH", "")]))
    for argv, code in ((["--help"], 0), (["gkm", "--help"], 0), (["gkm"], EXIT_INPUT),
                       (["gkm", "in.json", "--bogus"], EXIT_INPUT)):
        proc = subprocess.run([sys.executable, "-m", "equisyz.cli"] + argv,
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == code, (argv, proc)
        assert ("usage: equisyz" in proc.stdout) == (code == 0), (argv, proc)


def test_help_of_a_command_describes_its_check_names(capsys, monkeypatch):
    # README: a command's --help lists the names its --check accepts
    monkeypatch.setenv("COLUMNS", "200")
    for name, (_, known) in COMMANDS.items():
        with pytest.raises(SystemExit):
            main([name, "--help"])
        out = capsys.readouterr().out
        assert cli._check_help(name) in out, name
        assert all(check in out for check in known), name


def test_exit_two_on_negative_max_degree():
    code, report = run(["module-analyze", data_path("koszul2.json"),
                        "--max-degree", "-3"])
    assert code == EXIT_INPUT and "error" in report


def test_exit_two_on_max_degree_above_the_limit(capsys):
    # the printed series list grows with --max-degree: 10^12 once ended in a
    # MemoryError and a traceback (exit 3)
    for degree in (cli.MAX_DEGREE_LIMIT + 1, 10 ** 12):
        argv = ["module-analyze", data_path("koszul2.json"), "--max-degree", str(degree)]
        assert main(argv) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "error: --max-degree must be in 0..%d\n" % cli.MAX_DEGREE_LIMIT
        assert "Traceback" not in err
    code, _ = run(["weyl-verify", data_path("b2_group.json"),
                   "--max-degree", str(cli.MAX_DEGREE_LIMIT)])
    assert code == EXIT_PASS


def _edited(name, *edits):
    """The shipped input name, loaded and changed in place by each edit."""
    with open(data_path(name)) as fh:
        obj = json.load(fh)
    for edit in edits:
        edit(obj)
    return obj


def _wrong_truncation(obj):
    # Hilb(sub) + Hilb(quotient) - Hilb(total) = (q^4 - q^2)/(1 - q^2) = -q^2:
    # the coefficients first differ in degree 2
    obj["truncations"] = [{
        "index": 0,
        "sub": {"row_degrees": [0, 4], "col_degrees": [], "matrix": [[], []]},
        "quotient": {"row_degrees": [-2], "col_degrees": [2], "matrix": [["t^2"]]}}]


def test_series_checks_fail_at_every_max_degree(tmp_path):
    # each input's two Hilbert series agree in degree 0 and differ in degree
    # 2, so a comparison truncated at 2 * --max-degree passed at --max-degree 0;
    # the sign group's Molien series 1/(1 - q^4) and the series 1/(1 - q^8)
    # of the invariant t1^4 first differ in degree 4, past --max-degree 1
    cases = [
        ("weyl-verify", "", "Molien series matches the invariant degrees",
         _edited("z2_group.json", lambda g: g.update(invariants=["t1^4"]))),
        ("gkm", "descend", "descent-base-change-hilbert", _edited(
            "s2.json", lambda g: g["symmetry"].update(vertex_maps=[{"N": "N", "S": "S"}]))),
        ("filtration-verify", "ses", "homology-truncation-additivity",
         _edited("s2_filtration.json", _wrong_truncation)),
    ]
    for command, check, name, obj in cases:
        path = write_json(tmp_path, "wrong.json", obj)
        for degree in ("0", "1", "20"):
            code, report = run([command, path, "--check", check, "--max-degree", degree])
            verdicts = {c["name"]: c["verdict"] for c in report["checks"]}
            assert code == EXIT_FAIL and verdicts[name] == "fail", (command, degree)


def _isolated(*names):
    """Add vertices without edges to the sphere's graph."""
    def edit(graph):
        graph["vertices"] += list(names)
    return edit


def _gstar(degrees, d, iotas):
    """A G*-module input from row-major matrices given by their unit entries."""
    n = len(degrees)

    def cols(entries):
        return [[str(int((i, j) in entries)) for i in range(n)] for j in range(n)]
    return {"degrees": list(degrees), "d": cols(d), "iota": [cols(m) for m in iotas],
            "rank": len(iotas)}


def _input_error_cases():
    """(command, extra options, input, message) for inputs each structural
    check rejects; the four G*-relation messages are those the operator
    matrix products gave before the relations were read off D^2."""
    def vertex_maps(*maps):
        return lambda g: g["symmetry"].update(vertex_maps=list(maps))

    def filtration(edit):
        return _edited("s2_filtration.json", edit)
    return [
        ("gkm", [], _edited("s2.json", lambda g: g.update(vertices=["N", "N"])),
         "vertex names must be distinct"),
        ("gkm", [], _edited("s2.json", lambda g: g["symmetry"]["group"].update(
            vars=["s"], invariants=["s^2"])), "symmetry group must act on the graph's ring"),
        ("gkm", [], _edited("s2.json", vertex_maps()),
         "need one permutation per group generator"),
        ("gkm", [], _edited("s2.json", vertex_maps({"N": "S"})),
         "permutation must be a bijection of the index set"),
        ("integrate", ["--klass", '["1", "1", "1"]'], _edited(
            "s2.json", _isolated("X"), lambda g: g.pop("symmetry")),
         "vertex X has no incident edges and no Euler data"),
        ("gkm", ["--check", "descend"], _edited(
            "s2.json", _isolated("X"), vertex_maps({"N": "S", "S": "N", "X": "S"})),
         "permutation must be a bijection of the index set"),
        ("gkm", ["--check", "descend"], _edited(
            "s2.json", _isolated("X", "Y", "Z"),
            vertex_maps({"N": "S", "S": "N", "X": "Y", "Y": "Z", "Z": "X"})),
         "action is inconsistent with the group law"),
        ("filtration-verify", [], filtration(lambda f: f.update(
            modules=f["modules"] + f["modules"][-1:])), "need modules AB^0..AB^r (r = 1)"),
        ("filtration-verify", [], filtration(lambda f: f.update(maps=[])),
         "need maps delta_0..delta_{r-1}"),
        ("filtration-verify", [], filtration(lambda f: f["augmentation"].update(
            map=[["0", "1"], ["t", "0"]])), "delta_0 after the augmentation is nonzero"),
        ("cartan", [], _gstar((0, 1, 2), {(1, 0), (2, 1)}, []),
         "differential does not square to zero"),
        ("cartan", [], _gstar((0, 1, 2), set(), [{(1, 2), (0, 1)}]),
         "contractions 1, 1 do not anticommute"),
        ("cartan", [], _gstar((0, 1, 2), set(), [{(1, 2)}, {(0, 1)}]),
         "contractions 1, 2 do not anticommute"),
        ("cartan", [], _gstar((0, 1), {(1, 0)}, [{(0, 1)}]),
         "contraction 1 does not anticommute with d"),
    ]


def test_exit_two_on_each_structural_violation(tmp_path, capsys):
    for command, options, obj, message in _input_error_cases():
        path = write_json(tmp_path, "bad.json", obj)
        assert main([command, path] + options) == EXIT_INPUT, message
        out, err = capsys.readouterr()
        assert out.startswith("error: ") and message in out, (message, out)
        assert "Traceback" not in err


def test_exit_one_on_failed_theorem_check(tmp_path):
    # AB^1 free of dimension 1 over a rank-1 ring: CM check must fail
    obj = {
        "ring": {"vars": ["t"], "degrees": [2]},
        "modules": [
            {"row_degrees": [0], "col_degrees": [], "matrix": [[]]},
            {"row_degrees": [0], "col_degrees": [], "matrix": [[]]},
        ],
        "maps": [[["0"]]],
    }
    path = write_json(tmp_path, "bad_cm.json", obj)
    code, report = run(["filtration-verify", path, "--check", "cm"])
    assert code == EXIT_FAIL
    assert report["status"] == "fail"


def test_report_roundtrip_byte_for_byte(tmp_path):
    for args in (
        ["module-analyze", data_path("koszul2.json"), "--seed", "3"],
        ["gkm", data_path("s2.json"), "--check", "cs,pairing,descend"],
        ["filtration-verify", data_path("s2_filtration.json")],
        ["weyl-verify", data_path("z2_group.json")],
        ["cartan", data_path("circle_model.json")],
    ):
        code1, report1 = run(args)
        echo_path = write_json(tmp_path, "echo.json", report1["inputs_echo"])
        code2, report2 = run([args[0], echo_path] + args[2:])
        assert code1 == code2
        blob1 = json.dumps({"checks": report1["checks"],
                            "summary": report1["summary"],
                            "status": report1["status"]}, sort_keys=True)
        blob2 = json.dumps({"checks": report2["checks"],
                            "summary": report2["summary"],
                            "status": report2["status"]}, sort_keys=True)
        assert blob1 == blob2


def test_render_text_smoke():
    code, report = run(["gkm", data_path("s2.json"), "--check", "cs"])
    text = render_text(report)
    assert "gkm: pass" in text
    assert "[pass]" in text


def test_json_report_is_serializable():
    code, report = run(["filtration-verify", data_path("free_circle.json")])
    blob = json.dumps(report, sort_keys=True)
    assert json.loads(blob)["status"] == "pass"


def test_main_format_json_both_spellings(capsys):
    path = data_path("s2.json")
    for argv in (["gkm", path, "--format", "json"], ["gkm", path, "--format=json"]):
        assert main(argv) == EXIT_PASS
        assert json.loads(capsys.readouterr().out) == run(argv)[1]
    assert main(["gkm", path]) == EXIT_PASS
    assert capsys.readouterr().out.startswith("gkm: pass")


def test_unknown_check_name_rejected():
    code, report = run(["gkm", data_path("s2.json"), "--check", "bogus"])
    assert code == EXIT_INPUT


# argv drawn for the parser tests: a first token, then up to eight of the
# input, '-', '--', each option name shortened to each of its prefixes,
# options joined to values by '=', and values that argparse reads in
# different ways (a choice, a negative number, an int() spelling, JSON)
_OPTION_TOKENS = ("-h",) + tuple(sorted({
    name[:k] for name in ("--help", "--format", "--check", "--max-degree", "--seed",
                          "--klass", "--class") for k in range(3, len(name) + 1)}))
_VALUES = ("json", "text", "xml", "cs,pairing", "3", "-3", "+3", "1.5", "x", "[]", "")


def _argvs(st):
    options, values = st.sampled_from(_OPTION_TOKENS), st.sampled_from(_VALUES)
    one = st.one_of(st.sampled_from(("in.json", "-", "--")), options, values,
                    st.builds("{}={}".format, options, values))
    # an option and a value drawn together make more argv valid
    tokens = st.lists(st.one_of(st.tuples(one), st.tuples(options, values)), max_size=4)
    first = st.sampled_from(tuple(COMMANDS) + ("-h", "--help", "nope", "in.json"))
    return st.builds(lambda head, tail: [head] + [t for group in tail for t in group],
                     first, tokens)


def _outcome(parse, argv):
    """(vars() of parse(argv), or "help" when it exits 0 and None when it
    rejects argv; its stdout; its stderr)."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            got = parse(list(argv))
            got = None if got is None else vars(got)
        except SystemExit as exc:
            got = "help" if exc.code == 0 else None
    return got, out.getvalue(), err.getvalue()


def test_parse_accepts_and_reads_argv_as_argparse_does():
    # argparse, kept in the tests as the oracle, accepts exactly the argv
    # that cli._parse accepts and reads them to the same arguments, on
    # listed argv and on drawn ones; the messages may differ
    oracle = reference_parser()

    def parses_as_argparse(argv):
        got, out, err = _outcome(cli._parse, argv)
        assert got == _outcome(oracle.parse_args, argv)[0], argv
        if got == "help":
            assert out.startswith("usage: equisyz") and not err, argv
        elif got is None:
            assert not out and err.startswith("usage: equisyz"), argv
            assert err.splitlines()[1].startswith("equisyz: error: "), argv
    argvs = [[name, "in.json"] for name in COMMANDS] + [
        ["gkm", "in.json", "--check", "cs,descend", "--format=json", "--seed", "3"],
        ["integrate", "in.json", "--class", "[]", "--max-degree", "4"],
        ["gkm", "in.json", "--klass", "[]"], ["gkm"], ["gkm", "in.json", "extra"],
        ["gkm", "--format", "xml", "in.json"], ["cartan", "in.json", "--seed", "x"],
        ["gkm", "-h"], ["nope", "in.json"], ["in.json"], [], ["-h"], ["--format", "json"],
        ["gkm", "--max", "3", "in.json", "--form=json", "--s=-3"], ["gkm", "in.json", "--he"],
        ["integrate", "in.json", "--c", "x"], ["integrate", "-h", "--c"],
        ["gkm", "in.json", "--seed", "+3", "--max-degree", " 3 "],
        ["gkm", "in.json", "--max-degree", "3_000"], ["gkm", "-3", "--seed", "-3"],
        ["gkm", "in.json", "--check", "-x"], ["gkm", "in.json", "--seed", "-3.5"],
        ["gkm", "in.json", "--check", "-"], ["gkm", "--", "-h"], ["gkm", "--", "--"],
        ["gkm", "in.json", "--"], ["gkm", "in.json", "--check", "cs", "--"],
        ["gkm", "--check", "cs", "--", "in.json"], ["gkm", "--bogus", "-h"],
        ["gkm", "in.json", "--help=x"], ["gkm", "in.json", "-h=x"], ["--", "-h"],
        ["gkm", "in.json", "-hh"], ["gkm", "-h=h"], ["-hh"], ["--bogus", "-h"],
    ]
    for argv in argvs:
        parses_as_argparse(argv)
    hypothesis = pytest.importorskip("hypothesis")
    hypothesis.settings(derandomize=True, max_examples=600, deadline=None, database=None)(
        hypothesis.given(_argvs(hypothesis.strategies))(parses_as_argparse))()


def test_every_argv_keeps_the_exit_code_contract(capsys):
    # the drawn argv, their input data/s2.json, end in 0, 1 or 2 or print
    # the help and exit 0: never exit 3 and never a traceback
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @hypothesis.given(_argvs(hypothesis.strategies))
    def check(argv):
        argv = [data_path("s2.json") if token == "in.json" else token for token in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 0 and capsys.readouterr().out.startswith("usage: equisyz")
            return
        err = capsys.readouterr().err
        assert code in (EXIT_PASS, EXIT_FAIL, EXIT_INPUT) and "Traceback" not in err, argv
    check()


def test_read_declines_every_argv_but_the_canonical_one():
    # _read takes COMMAND INPUT and then exact long names, each with a value
    # that does not start with '-' and that the option reads; argparse reads
    # every other argv, so _read must decline it
    assert vars(cli._read(["integrate", "in.json", "--class", "[]", "--seed", "3"])) == {
        "command": "integrate", "input": "in.json", "format": "text", "check": None,
        "max_degree": 20, "seed": 3, "klass": "[]"}
    for argv in (["gkm", "in.json", "--max", "3"], ["gkm", "in.json", "--seed=3"],
                 ["gkm", "in.json", "--seed", "-3"], ["gkm", "--", "in.json"],
                 ["gkm", "in.json", "--", "x"], ["gkm", "-h"], ["gkm", "in.json", "-h", "x"],
                 ["gkm", "--seed", "3", "in.json"], ["gkm", "in.json", "--seed", "3", "x"],
                 ["gkm", "in.json", "--format", "xml"], ["gkm", "in.json", "--max-degree", "x"],
                 ["gkm", "in.json", "--klass", "[]"], ["nope", "in.json"], ["gkm"], []):
        assert cli._read(argv) is None, argv


def test_a_command_imports_neither_argparse_nor_locale():
    # argparse's first message lookup imports gettext and locale, paid by
    # every command in a fresh process; the canonical argv of every command
    # is read without it.  Which modules are loaded does not depend on the
    # machine's speed
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"), os.environ.get("PYTHONPATH", "")]))
    argvs = [
        ["module-analyze", data_path("koszul2.json"), "--format", "json", "--max-degree", "3",
         "--seed", "1"],
        ["weyl-verify", data_path("z2_group.json")],
        ["cartan", data_path("circle_model.json"), "--check", "uct"],
        ["gkm", data_path("s2.json"), "--check", "cs"],
        ["filtration-verify", data_path("s2_filtration.json"), "--format", "text"],
        ["integrate", data_path("s2.json"), "--klass", json.dumps(["t", "0"])],
    ]
    assert sorted(argv[0] for argv in argvs) == sorted(COMMANDS)
    script = ("import sys; from equisyz import cli; "
              "print([cli.run(argv)[0] for argv in %r], "
              "sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))" % argvs)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.stdout.splitlines() == ["%s []" % ([EXIT_PASS] * len(argvs))], proc


def _module_input(entry, col_degree=2):
    return {"ring": {"vars": ["x", "y"], "degrees": [2, 2]},
            "row_degrees": [0], "col_degrees": [col_degree],
            "matrix": [[entry]]}


def test_exit_two_on_zero_denominators(tmp_path):
    with open(data_path("circle_model.json")) as fh:
        bad_iota = json.load(fh)
    bad_iota["iota"][0][1][0] = "1/0"
    zero = "zero denominator"
    # operator matrices of the wrong shape used to raise IndexError (exit 3)
    square = "operator matrices must be square of the basis size"
    cases = [
        ("module-analyze", _module_input("1/0*x"), zero),
        ("module-analyze", _module_input([{"coeff": "1/0", "exps": [1, 0]}]),
         zero),
        ("weyl-verify", {"rank": 1, "generators": [[["1/0"]]],
                         "invariants": ["t1^2"]}, zero),
        ("weyl-verify", {"rank": 1, "generators": [[[-1]]],
                         "invariants": ["1/0*t1^2"]}, zero),
        ("cartan", bad_iota, zero),
        ("cartan", dict(bad_iota, iota=[[["0", "0"], ["1", "0"]]],
                        degrees=[0, 1, 2]), square),
        ("cartan", dict(bad_iota, iota=[[["0", "0"], ["1", "0"]]],
                        d=[["0", "0"]]), square),
    ]
    for command, obj, message in cases:
        path = write_json(tmp_path, "zero_denominator.json", obj)
        code, report = run([command, path])
        assert code == EXIT_INPUT, (command, obj, report)
        assert message in report["error"]


def test_exit_two_on_bad_exponent_vectors(tmp_path):
    # x*y^-1 has weighted degree 0; x alone as [1] has the wrong length;
    # int() used to truncate x^1.5 to x
    for entry, col_degree, message in (
            ([{"coeff": "1", "exps": [1, -1]}], 0, "bad exponent vector"),
            ([{"coeff": "1", "exps": [1]}], 2, "bad exponent vector"),
            ([{"coeff": "1", "exps": [1.5, 0]}], 2,
             "exponents must be integers, got [1.5, 0]")):
        path = write_json(tmp_path, "bad_exps.json",
                          _module_input(entry, col_degree))
        code, report = run(["module-analyze", path])
        assert code == EXIT_INPUT, (entry, report)
        assert message in report["error"]


def test_exit_two_on_fractional_integer_fields(tmp_path):
    # int() used to truncate each of these and the run passed
    with open(data_path("circle_model.json")) as fh:
        model = json.load(fh)
    module = _module_input("x")
    cases = [
        ("module-analyze", dict(module, ring={"vars": ["x", "y"],
                                              "degrees": [2.5, 2]}),
         "degrees must be integers, got [2.5, 2]"),
        ("module-analyze", dict(module, row_degrees=[0.5]),
         "row_degrees must be integers, got [0.5]"),
        ("module-analyze", dict(module, col_degrees=[2.5]),
         "col_degrees must be integers, got [2.5]"),
        ("cartan", dict(model, degrees=[0.5, 1]),
         "degrees must be integers, got [0.5, 1]"),
        ("cartan", dict(model, rank=1.5), "rank must be integers, got [1.5]"),
        ("weyl-verify", {"rank": 1.5, "generators": [[[-1]]],
                         "invariants": ["t1^2"]},
         "rank must be integers, got [1.5]"),
        ("weyl-verify", {"rank": 1, "generators": [[[-1]]],
                         "invariants": ["t1^2"], "max_order": 2.5},
         "max_order must be integers, got [2.5]"),
    ]
    with open(data_path("s2.json")) as fh:
        cases.append(("gkm", dict(json.load(fh), rank=1.5),
                      "rank must be integers, got [1.5]"))
    with open(data_path("s2_filtration.json")) as fh:
        datum = json.load(fh)
    datum["truncations"][0]["index"] = 0.5
    cases.append(("filtration-verify", datum, "index must be integers, got [0.5]"))
    for command, obj, message in cases:
        code, report = run([command, write_json(tmp_path, "fractional.json", obj)])
        assert code == EXIT_INPUT, (command, obj, report)
        assert message in report["error"], report["error"]


def test_exit_two_on_a_huge_rank(tmp_path):
    # rank 10**30 used to end in exit 3 (an OverflowError from the degree
    # tuple) or a MemoryError from the name list; each format now checks
    # the rank against its own data before it builds either
    huge = 10 ** 30

    def loaded(name, **changes):
        with open(data_path(name)) as fh:
            obj = json.load(fh)
        obj.update(changes)
        return {k: v for k, v in obj.items() if v is not None}

    flag3 = loaded("flag3.json", rank=huge)
    unnamed = loaded("flag3.json", rank=huge, vars=None)
    edgeless = {"rank": huge, "vertices": ["A"], "edges": [], "euler": {"A": []}}
    klass = ["--klass", json.dumps(["0"] * 6)]
    cases = [
        (["gkm"], flag3, "does not match the edge weight length, 3"),
        (["gkm"], unnamed, "does not match the edge weight length, 3"),
        (["gkm"], edgeless, "is outside 0..4096"),
        (["integrate"] + klass, flag3, "does not match the edge weight length, 3"),
        (["integrate"] + klass, unnamed, "does not match the edge weight length, 3"),
        (["weyl-verify"], loaded("a2_group.json", rank=huge),
         "does not match the generator size, 2"),
        (["weyl-verify"], loaded("a2_group.json", rank=huge, vars=None),
         "does not match the generator size, 2"),
        (["cartan"], loaded("circle_model.json", rank=huge),
         "does not match the contraction count, 1"),
    ]
    for argv, obj, message in cases:
        path = write_json(tmp_path, "huge_rank.json", obj)
        code, report = run(argv[:1] + [path] + argv[1:])
        assert code == EXIT_INPUT, (argv, report)
        assert "rank %d " % huge in report["error"] and message in report["error"], report


def test_exit_two_on_bad_variable_names(tmp_path):
    # "xy" used to become the ring Q[x, y], and [1, 2] and {"x": 1} rings
    # with names no polynomial text can refer to; each run passed
    def load(name):
        with open(data_path(name)) as fh:
            return json.load(fh)

    model = load("circle_model.json")
    model2 = dict(model, rank=2, iota=model["iota"] * 2)
    by_rank = {
        "module-analyze": lambda n: {
            "ring": {"vars": None, "degrees": [2] * n},
            "row_degrees": [0], "col_degrees": [2],
            "matrix": [[[{"coeff": "1", "exps": [1] + [0] * (n - 1)}]]]},
        "gkm": lambda n: dict({k: v for k, v in load(
            "s2xs2.json" if n == 2 else "s2.json").items() if k != "symmetry"}),
        "cartan": lambda n: dict(model2 if n == 2 else model),
    }
    for command, make in by_rank.items():
        for names in ("xy", [1, 2], {"x": 1}):
            obj = make(len(names))
            if command == "module-analyze":
                obj["ring"]["vars"] = names
            else:
                obj["vars"] = names
            code, report = run([command, write_json(tmp_path, "names.json", obj)])
            assert code == EXIT_INPUT, (command, names, report)
            assert "variable names" in report["error"]


def test_module_analyze_3028_module_finishes(tmp_path):
    # its Groebner bases grow large coefficients: about 18 s of CPU on a
    # 2-core x86 VM while reductions ran on Fractions, 2.5-3.3 s on
    # primitive integer forms
    path = write_json(tmp_path, "m3028.json", module_3028().to_json())
    start = time.process_time()
    code, report = run(["module-analyze", path, "--seed", "5"])
    elapsed = time.process_time() - start
    assert code == EXIT_PASS, report
    assert elapsed < 10, elapsed


def test_exit_three_on_internal_error(monkeypatch, capsys):
    import equisyz.cli as cli

    def broken(obj, checks, nmax, seed):
        raise AssertionError("invariant violated")

    monkeypatch.setitem(cli.COMMANDS, "module-analyze", (broken, ("betti",)))
    code, report = run(["module-analyze", data_path("koszul2.json")])
    assert code == EXIT_INTERNAL
    assert report["error"] == ("internal error: AssertionError: "
                               "invariant violated")
    assert main(["module-analyze", data_path("koszul2.json"),
                 "--format", "json"]) == EXIT_INTERNAL
    out = capsys.readouterr()
    assert json.loads(out.out)["error"].startswith("internal error")
    assert "AssertionError" in out.err


def test_exit_two_past_the_exponent_limit(tmp_path, capsys):
    # the Groebner core holds exponents up to 32767; past that a run stops
    # with the limit in its message, whether the exponent is in the input or
    # first appears in a reduction, never with a failed check or a traceback
    with open(data_path("s2.json")) as fh:
        graph = json.load(fh)
    graph["symmetry"]["group"]["invariants"] = ["t^40000"]
    mid = {"ring": {"vars": ["x", "y"], "degrees": [2, 2]},
           "row_degrees": [0], "col_degrees": [40000, 80000],
           "matrix": [["x^20000 - y^20000", "x^20000*y^20000"]]}
    cases = [("module-analyze", _module_input("x^40000", 80000), "exponent 40000 of x"),
             ("module-analyze", mid, "exponent 40000 of y"),
             ("gkm", graph, "exponent 40000 of t"),
             ("weyl-verify", graph["symmetry"]["group"], "exponent 40000 of t")]
    for command, obj, message in cases:
        path = write_json(tmp_path, "big.json", obj)
        assert main([command, path]) == EXIT_INPUT, command
        out, err = capsys.readouterr()
        assert message + " exceeds the limit 32767" in out, out
        assert "Traceback" not in err


def test_exit_two_at_once_on_group_invariants_past_the_exponent_limit(tmp_path, capsys):
    # an invariant holding x1^40000 is rejected when it is parsed: before,
    # weyl-verify on the A2 group (not signed permutations) went on to act
    # on it by substitution, and gkm checks that never use the symmetry
    # passed.  A CPU timer, as in test_golden_reports._digest, stops a
    # runaway, which the CLI reports as an internal error
    with open(data_path("a2_group.json")) as fh:
        group = json.load(fh)
    group["invariants"] = ["x1^40000 + x2^40000", "-x1^2*x2 - x1*x2^2"]
    with open(data_path("s2.json")) as fh:
        graph = json.load(fh)
    graph["symmetry"]["group"]["invariants"] = ["t^40000"]
    cases = [(["weyl-verify", write_json(tmp_path, "a2.json", group)], "of x1"),
             (["gkm", write_json(tmp_path, "s2.json", graph), "--check", "cs"], "of t")]

    def expire(signum, frame):
        raise TimeoutError("over 5 s of CPU")
    for argv, name in cases:
        previous = signal.signal(signal.SIGPROF, expire)
        signal.setitimer(signal.ITIMER_PROF, 5)
        try:
            code = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
        out, err = capsys.readouterr()
        assert code == EXIT_INPUT, (argv[0], out)
        assert "exponent 40000 %s exceeds the limit 32767 of the Groebner core" % name in out
        assert "Traceback" not in err


def test_exit_two_when_a_localized_product_passes_the_exponent_limit(tmp_path, capsys):
    # P^2 under T^3 and the class t1^32766 * e_3 supported at vertex 3: each
    # input exponent is within the limit, but the localization multiplies
    # f_3 by L / e_3, a multiple of t1 - t2, which reaches t1^32768
    graph = {"rank": 3, "vars": ["t1", "t2", "t3"], "vertices": ["1", "2", "3"],
             "edges": [{"v": "1", "w": "2", "weight": [1, -1, 0]},
                       {"v": "1", "w": "3", "weight": [1, 0, -1]},
                       {"v": "2", "w": "3", "weight": [0, 1, -1]}]}
    thom = "t1^32766*t3^2 - t1^32766*t2*t3 - t1^32767*t3 + t1^32767*t2"
    path = write_json(tmp_path, "p2.json", graph)
    argv = ["integrate", path, "--klass", json.dumps(["0", "0", thom])]
    assert main(argv) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert "exponent 32768 of t1 exceeds the limit 32767" in out, out
    assert "Traceback" not in err
    # one power lower the integral is t1^32765, within the limit
    thom = thom.replace("32766", "32765").replace("32767", "32766")
    code, report = run(["integrate", path, "--klass", json.dumps(["0", "0", thom])])
    assert code == EXIT_PASS, report
    assert "t1^32765" in json.dumps(report)
