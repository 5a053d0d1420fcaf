import copy
import hashlib
import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncupper import cli
from ncupper.algebra import word_str
from ncupper.cli import main
from ncupper.problems import (bundled_problem_path, parse_problem,
                              parse_problem_dict, parse_word_tokens,
                              serialize_problem)
from ncupper.errors import InputError
from ncupper.states import (CanonicalTrace, Combination, FreeProductState,
                            HaarTrace, TensorProductState, evaluate_state,
                            make_increasing)

from conftest import run_cli

BUNDLED = ["chsh", "reflection", "free-unitaries", "commutator-example"]

_BUNDLED_DICTS = {name: json.loads(bundled_problem_path(name).read_text())
                  for name in BUNDLED}

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from(["x", "1/0", "0", "-1", "haar", "haar-increasing",
                       "combination", "tensor", "free-product",
                       "canonical-trace", "unitary", "b1"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "dims", "terms", "weight",
                                       "state", "factors", "components",
                                       "generators", "id", "gen"]),
                      inner, max_size=3),
    max_leaves=6)


# the chsh algebra has two tensor factors, so a haar declaration there is
# one Haar state per factor
_HAAR_1 = TensorProductState(((0, HaarTrace(1)), (1, HaarTrace(1))))
_PSI_12 = make_increasing([HaarTrace(1), HaarTrace(2)])[-1]
# four hermitian-unitary generators in one tensor factor
_FREE_PAIRS = {
    "algebra": {"generators": [{"id": g, "kind": "hermitian-unitary"}
                               for g in ("b1", "b2", "c1", "c2")]},
    "objective": [{"coefficient": "1", "word": [{"gen": "b1"}]}]}


def _field_paths(node, path=()):
    """Key/index path of every value nested in node, node's own () first."""
    paths = [path]
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, child in items:
        paths += _field_paths(child, path + (key,))
    return paths


class TestParsing:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_round_trip(self, name):
        p = parse_problem(bundled_problem_path(name))
        again = parse_problem_dict(serialize_problem(p))
        assert serialize_problem(again) == serialize_problem(p)
        assert again.objective == p.objective
        assert again.algebra == p.algebra

    def test_chsh_shape(self):
        p = parse_problem(bundled_problem_path("chsh"))
        kinds = {g.kind for g in p.algebra.generators}
        assert kinds == {"hermitian-unitary"}
        assert p.algebra.factor_tags == (0, 1)
        assert len(p.objective.terms) == 5  # four correlators + offset

    def test_non_self_adjoint_rejected(self):
        data = {
            "algebra": {"generators": [
                {"id": "b1", "kind": "hermitian-unitary"},
                {"id": "b2", "kind": "hermitian-unitary"}]},
            "objective": [{"coefficient": "1",
                           "word": [{"gen": "b1"}, {"gen": "b2"}]}],
        }
        with pytest.raises(InputError, match="f = f\\*"):
            parse_problem_dict(data)

    def test_unknown_kind_rejected(self):
        data = {
            "algebra": {"generators": [{"id": "x", "kind": "projector"}]},
            "objective": [],
        }
        with pytest.raises(InputError):
            parse_problem_dict(data)

    @pytest.mark.parametrize("state, message", [
        ("haar", "state declaration must be an object with a 'kind'"),
        ({"dims": [1]}, "state declaration must be an object with a 'kind'"),
        ({"kind": "haar-increasing", "dims": []},
         "haar-increasing dims must be positive"),
        ({"kind": "haar-sequence", "dims": [2, 0]},
         "haar-sequence dims must be positive"),
        ({"kind": "combination", "terms": [
            {"weight": "1", "state": {"kind": "nope"}}]},
         "unknown state kind 'nope'"),
        ({"kind": "haar", "dims": []}, "haar dims must be positive"),
        ({"kind": "haar", "dims": [0]}, "haar dims must be positive"),
        ({"kind": "haar-increasing", "dims": [0]},
         "haar-increasing dims must be positive"),
        ({"kind": "combination", "terms": [
            {"weight": "1", "state": {"kind": "haar", "dims": [2, -1]}}]},
         "haar dims must be positive"),
        ({"kind": "combination", "terms": [
            {"weight": "1", "state": {"kind": "haar-increasing"}}]},
         "haar-increasing depends on the order, so it may only be the "
         "top-level state"),
        ({"kind": "tensor", "factors": {
            "0": {"kind": "haar-sequence"}, "1": {"kind": "canonical-trace"}}},
         "haar-sequence depends on the order, so it may only be the "
         "top-level state"),
        ({"kind": "free-product", "components": [
            {"generators": ["b1", "b2", "c1", "c2"],
             "state": {"kind": "haar-sequence", "dims": [2]}}]},
         "haar-sequence depends on the order, so it may only be the "
         "top-level state")])
    def test_malformed_state_rejected(self, state, message):
        data = dict(_BUNDLED_DICTS["chsh"], state=state)
        with pytest.raises(InputError) as exc:
            parse_problem_dict(data)
        assert str(exc.value) == message

    @pytest.mark.parametrize("kind, dims, override, expected", [
        ("haar-sequence", None, None, [[1], [2], [3]]),
        ("haar-sequence", [2, 5], None, [[2], [5], [5]]),
        ("haar-sequence", [2, 5], [4], [[4], [4], [4]]),
        ("haar-increasing", None, None, [[1], [1, 2], [1, 2, 3]]),
        ("haar-increasing", [2, 5], None, [[2], [2, 5], [2, 5]]),
        ("haar-increasing", None, [3, 1], [[3], [3, 1], [3, 1]])])
    def test_order_dependent_state_family(self, kind, dims, override,
                                          expected):
        decl = {"kind": kind} if dims is None else {"kind": kind,
                                                     "dims": dims}
        p = parse_problem_dict(dict(_BUNDLED_DICTS["reflection"],
                                    state=decl))
        family = p.state_family(override)
        for d, pool in enumerate(expected, start=1):
            states = [HaarTrace(x) for x in pool]
            if kind == "haar-increasing":
                states = make_increasing(states)
            assert family(d) == states[-1]

    @pytest.mark.parametrize("problem, decl, expected, word, value", [
        ("chsh", {"kind": "haar", "dims": [1, 2]},
         TensorProductState(((0, _PSI_12), (1, _PSI_12))),
         "b1 b2 b1 b2 c1 c2 c1 c2", Fraction(121, 2025)),
        ("chsh", {"kind": "combination", "terms": [
            {"weight": "1/2", "state": {"kind": "haar", "dims": [1]}},
            {"weight": "1/2", "state": {"kind": "canonical-trace"}}]},
         Combination(((Fraction(1, 2), _HAAR_1),
                      (Fraction(1, 2), CanonicalTrace()))),
         "b1 b2 b1 b2", Fraction(-1, 6)),
        ("chsh", {"kind": "tensor", "factors": {
            "0": {"kind": "haar", "dims": [1]},
            "1": {"kind": "canonical-trace"}}},
         TensorProductState(((0, _HAAR_1), (1, CanonicalTrace()))),
         "b1 b2 b1 b2", Fraction(-1, 3)),
        (_FREE_PAIRS, {"kind": "free-product", "components": [
            {"generators": ["b1", "b2"], "state": {"kind": "haar"}},
            {"generators": ["c1", "c2"], "state": {"kind": "haar"}}]},
         FreeProductState(((frozenset({"b1", "b2"}), HaarTrace(1)),
                           (frozenset({"c1", "c2"}), HaarTrace(1)))),
         "b1 b2 b1 b2 c1 c2 c1 c2 b2 b1 b2 b1 c2 c1 c2 c1",
         Fraction(17, 81))],
        ids=["haar", "combination", "tensor", "free-product"])
    def test_fixed_state_kinds(self, tmp_path, problem, decl, expected, word,
                               value):
        data = _BUNDLED_DICTS[problem] if isinstance(problem, str) else problem
        path = tmp_path / "state.problem"
        path.write_text(json.dumps(dict(data, state=decl)))
        p = parse_problem(path)
        state = p.state_family()(1)
        assert state == expected
        assert evaluate_state(state, parse_word_tokens(word, p.algebra),
                              p.algebra) == value

    def test_huge_factor_tag_rejected(self):
        # the contiguity check must not build range(factor + 1)
        data = copy.deepcopy(_BUNDLED_DICTS["chsh"])
        data["algebra"]["generators"][0]["factor"] = 15541571038
        with pytest.raises(InputError, match="contiguous range"):
            parse_problem_dict(data)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_mutated_field_raises_only_input_error(self, data):
        name = data.draw(st.sampled_from(BUNDLED))
        holder = {"problem": copy.deepcopy(_BUNDLED_DICTS[name])}
        path = data.draw(st.sampled_from(_field_paths(holder)[1:]))
        parent = holder
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = data.draw(_JSON_VALUES)
        try:
            parse_problem_dict(holder["problem"])
        except InputError:
            pass

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(orders="31"),
        lambda d: d.update(subset="b1"),
        lambda d: d.update(state={"kind": "haar-increasing", "dims": "12"}),
        lambda d: d.update(state={"kind": "free-product", "components": [
            {"generators": "b1", "state": {"kind": "canonical-trace"}},
            {"generators": ["b2", "c1", "c2"],
             "state": {"kind": "canonical-trace"}}]}),
    ], ids=["orders", "subset", "dims", "free-product-generators"])
    def test_string_for_list_rejected(self, edit):
        data = copy.deepcopy(_BUNDLED_DICTS["chsh"])
        edit(data)
        with pytest.raises(InputError, match="must be a JSON list"):
            parse_problem_dict(data)

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(orders=[2.5]),
        lambda d: d.update(orders=["2"]),
        lambda d: d.update(orders=[True]),
        lambda d: d.update(state={"kind": "haar-increasing",
                                  "dims": [1.9, 2]}),
        lambda d: d.update(state={"kind": "haar", "dims": [2.0]}),
        lambda d: d["algebra"]["generators"][2].update(factor=0.7),
    ], ids=["orders-float", "orders-string", "orders-bool", "dims-float",
            "haar-dims-float", "factor-float"])
    def test_non_integer_rejected(self, edit):
        # int() would truncate or coerce each of these without an error
        data = copy.deepcopy(_BUNDLED_DICTS["chsh"])
        edit(data)
        with pytest.raises(InputError, match="takes integers only"):
            parse_problem_dict(data)

    def test_word_tokens(self):
        p = parse_problem(bundled_problem_path("free-unitaries"))
        w = parse_word_tokens("u1 u2* u1", p.algebra)
        assert word_str(w) == "u1 u2* u1"
        assert parse_word_tokens("1", p.algebra) == ()
        with pytest.raises(InputError):
            parse_word_tokens("nope", p.algebra)

    def test_serialized_terms_sort_on_word_text(self):
        # the term order feeds input_hash: terms sort on each word's problem
        # syntax ("1" for the unit), so "u1" precedes "u1 u2"
        words = ["u2* u1*", "u1*", "u1 u2", "u1", "1"]
        data = {"algebra": {"generators": [{"id": "u1", "kind": "unitary"},
                                           {"id": "u2", "kind": "unitary"}]},
                "objective": [{"coefficient": "1", "word": [
                    {"gen": t.rstrip("*"), "star": t.endswith("*")}
                    for t in w.split() if t != "1"]} for w in words]}
        terms = serialize_problem(parse_problem_dict(data))["objective"]
        assert [" ".join(l["gen"] + "*" * l["star"] for l in t["word"]) or "1"
                for t in terms] == ["1", "u1", "u1 u2", "u1*", "u2* u1*"]


class TestSolveCommand:
    def test_reflection_both(self, tmp_path):
        out = tmp_path / "r.json"
        r = run_cli("solve", str(bundled_problem_path("reflection")),
                    "--order", "1", "--out", str(out))
        assert r.returncode == 0
        rec = json.loads(out.read_text())
        assert rec["orders"][0]["lambda"]["value"] == "-1"
        assert rec["orders"][0]["eta"]["value"] == "-1"

    def test_chsh_lambda(self, tmp_path):
        out = tmp_path / "c.json"
        r = run_cli("solve", str(bundled_problem_path("chsh")),
                    "--hierarchy", "lambda", "--order", "2",
                    "--out", str(out), "--format", "machine")
        assert r.returncode == 0
        rec = json.loads(out.read_text())
        vals = [float(row["lambda"]["value"]) for row in rec["orders"]]
        assert vals[0] == pytest.approx(0.146, abs=0.005)
        assert vals[1] == pytest.approx(-0.016, abs=0.005)

    def test_chsh_eta(self, tmp_path):
        out = tmp_path / "c.json"
        r = run_cli("solve", str(bundled_problem_path("chsh")),
                    "--hierarchy", "eta", "--order", "2", "--out", str(out))
        assert r.returncode == 0
        rec = json.loads(out.read_text())
        vals = [float(row["eta"]["value"]) for row in rec["orders"]]
        assert vals[0] == pytest.approx(0.0, abs=0.005)
        assert vals[1] == pytest.approx(-0.066, abs=0.005)

    def test_missing_file_exit_2(self):
        r = run_cli("solve", "/nonexistent.problem")
        assert r.returncode == 2

    def test_malformed_orders_exit_2(self, tmp_path):
        data = json.loads(bundled_problem_path("chsh").read_text())
        data["orders"] = ["a"]
        path = tmp_path / "bad.problem"
        path.write_text(json.dumps(data))
        r = run_cli("solve", str(path), "--order", "1")
        assert r.returncode == 2
        assert len(r.stderr.splitlines()) == 1

    def test_non_integer_dims_exit_2(self, tmp_path, capsys):
        data = json.loads(bundled_problem_path("chsh").read_text())
        data["state"] = {"kind": "haar-increasing", "dims": [1.9, 2]}
        path = tmp_path / "bad.problem"
        path.write_text(json.dumps(data))
        assert main(["solve", str(path), "--order", "1"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: dims takes integers only, not 1.9"]

    @pytest.mark.parametrize("kind", ["not-utf8", "directory", "huge-int",
                                      "deep-nesting"])
    def test_unreadable_problem_exit_2(self, tmp_path, capsys, kind):
        path = tmp_path / "bad.problem"
        if kind == "directory":
            path.mkdir()
        elif kind == "huge-int":  # over Python's 4,300-digit int limit
            path.write_text('{"orders": [' + "1" * 4301 + "]}")
        elif kind == "deep-nesting":
            path.write_text("[" * 100_000 + "]" * 100_000)
        else:
            path.write_bytes(b"\xff\xfe{}")
        assert main(["solve", str(path), "--order", "1"]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("field, value", [
        ("coefficient", True), ("weight", True),
        ("coefficient", "1e100000000"), ("coefficient", "1e10000000"),
        ("weight", "1E0")])
    def test_bool_or_exponent_rational_exit_2(self, tmp_path, capsys,
                                              field, value):
        # true would read as 1, and Fraction("1e100000000") runs for more
        # than 30 s before it fails
        data = json.loads(bundled_problem_path("reflection").read_text())
        if field == "coefficient":
            data["objective"][0]["coefficient"] = value
        else:
            data["state"] = {"kind": "combination", "terms": [
                {"weight": value, "state": {"kind": "canonical-trace"}}]}
        path = tmp_path / "bad.problem"
        path.write_text(json.dumps(data))
        start = time.monotonic()
        assert main(["solve", str(path), "--order", "1"]) == 2
        assert time.monotonic() - start < 1
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("kind", ["missing-dir", "directory",
                                      "file-as-dir", "write-fails"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, monkeypatch,
                                   kind):
        out = {"missing-dir": tmp_path / "nope" / "out.json",
               "directory": tmp_path,
               "file-as-dir": tmp_path / "file" / "out.json",
               "write-fails": tmp_path / "out.json"}[kind]
        (tmp_path / "file").write_text("")
        if kind == "write-fails":
            def refuse(*args, **kwargs):
                raise PermissionError(13, "Permission denied")
            monkeypatch.setattr(cli, "open", refuse, raising=False)
        assert main(["solve", str(bundled_problem_path("reflection")),
                     "--order", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(out) in err[0]

    @pytest.mark.parametrize("flag", [("--threads", "2"), ("--samples", "5")])
    def test_removed_solve_flags_exit_2(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(bundled_problem_path("chsh")), "--order", "1",
                  *flag])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [["solve"], ["eval-state", "b1"]])
    def test_order_zero_exit_2(self, capsys, command):
        argv = [command[0], str(bundled_problem_path("chsh")), *command[1:],
                "--order", "0"]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --order must be >= 1"]

    @pytest.mark.parametrize("argv", [
        ["solve", "chsh", "--order", "2", "--budget", "1"],
        # p(100)^2 pairs: refused once 1,001 partitions are listed
        ["weingarten", "--n", "100", "--d", "2"],
        # p(22)^2 = 1,004,004 pairs, over the table's cap of 10^6
        ["weingarten", "--n", "22", "--d", "2"],
        # 20,000 samples of two 60 x 60 unitaries: refused before drawing
        ["mc-check", "free-unitaries", "u1 u2 u1* u2*", "--dim", "60"]],
        ids=["solve", "weingarten", "weingarten-22", "mc-check"])
    def test_budget_exit_3(self, capsys, argv):
        argv = [str(bundled_problem_path(a))
                if a in ("chsh", "free-unitaries") else a for a in argv]
        start = time.monotonic()
        assert main(argv) == 3
        assert time.monotonic() - start < 1
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("kind, word", [
        # u: k = 2, v: k = 1 -> (2!)^2 (1!)^2 configurations
        ("unitary", "u u v u* u* v*"),
        # two block symbols with k = 2 -> 2! 2! configurations
        ("hermitian-unitary", "u v u v")])
    def test_budget_counts_a_class_once_for_all_dims(self, tmp_path, capsys,
                                                      kind, word):
        data = {"algebra": {"generators": [{"id": "u", "kind": kind},
                                           {"id": "v", "kind": kind}]},
                "objective": [{"coefficient": "1", "word": [{"gen": "u"}]}],
                "state": {"kind": "haar-increasing"}, "subset": ["u", "v"]}
        if kind == "unitary":
            data["objective"].append(
                {"coefficient": "1", "word": [{"gen": "u", "star": True}]})
        path = tmp_path / "budget.problem"
        path.write_text(json.dumps(data))
        argv = ["eval-state", str(path), word, "--order", "3"]
        assert main([*argv, "--budget", "3"]) == 3
        assert "needs 4 configurations" in capsys.readouterr().err
        # the same count covers the three Haar dims of the order-3 state
        assert main([*argv, "--budget", "4"]) == 0
        assert capsys.readouterr().err == ""

    def test_budget_honoured_after_cached_solve(self, capsys):
        # the moments of the first run die with its evaluator; the second
        # run must be refused under its smaller budget
        chsh = str(bundled_problem_path("chsh"))
        assert main(["solve", chsh, "--order", "2"]) == 0
        assert main(["solve", chsh, "--order", "2", "--budget", "1"]) == 3

    @pytest.mark.parametrize("flag, env", [
        (["--tol", "-1"], {}), (["--tol", "nan"], {}),
        ([], {"NCUPPER_TOL": "inf"})])
    def test_bad_tol_exit_2(self, capsys, monkeypatch, flag, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        argv = ["solve", str(bundled_problem_path("chsh")), "--order", "1",
                *flag]
        assert main(argv) == 2
        want = {"-1": "error: --tol must be >= 0",
                "nan": "error: bad value for --tol: 'nan'",
                "inf": "error: bad value for NCUPPER_TOL: 'inf'"}
        raw = flag[1] if flag else env["NCUPPER_TOL"]
        assert capsys.readouterr().err.splitlines() == [want[raw]]

    @pytest.mark.parametrize("argv, env, line", [
        (["--tol=-inf"], {}, "error: bad value for --tol: '-inf'"),
        ([], {"NCUPPER_TOL": "-1e-3"}, "error: NCUPPER_TOL must be >= 0")],
        ids=["flag", "variable"])
    def test_bad_tol_refused_before_any_work(self, capsys, monkeypatch,
                                             argv, env, line):
        def parsed(path):
            raise AssertionError("the problem was read")

        monkeypatch.setattr(cli, "parse_problem", parsed)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert main(["solve", str(bundled_problem_path("chsh")), *argv]) == 2
        assert capsys.readouterr().err.splitlines() == [line]

    def test_solve_negative_seed_exit_2(self, capsys):
        argv = ["solve", str(bundled_problem_path("chsh")), "--seed", "-1"]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --seed must be >= 0"]

    @pytest.mark.parametrize("command, env", [
        (["solve", "--budget", "-1"], {}),
        (["eval-state", "b1", "--budget", "-3"], {}),
        (["mc-check", "b1", "--dim", "2", "--budget", "-1"], {}),
        (["solve"], {"NCUPPER_BUDGET": "-1"}),
        (["mc-check", "b1", "--dim", "2"], {"NCUPPER_BUDGET": "-1"})])
    def test_negative_budget_exit_2(self, capsys, monkeypatch, command, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        argv = [command[0], str(bundled_problem_path("chsh")), *command[1:]]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""  # refused before any work
        err = err.splitlines()
        source = next(iter(env), "--budget")
        assert len(err) == 1 and f"{source} must be >= 0" in err[0]

    @pytest.mark.parametrize("command, env", [
        (["solve", "--dims", ","], {}),
        (["eval-state", "b1", "--dims", ","], {}),
        (["solve"], {"NCUPPER_DIMS": ","}),
        # order 1 uses only the first dim, but every dim is checked, as in
        # a problem file
        (["solve", "--order", "1", "--dims", "2,0"], {})])
    def test_empty_or_nonpositive_dims_exit_2(self, capsys, monkeypatch,
                                              command, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        argv = [command[0], str(bundled_problem_path("chsh")), *command[1:]]
        assert main(argv) == 2
        source = next(iter(env), "--dims")
        expected = ("error: --dims must be >= 1" if command[-1] == "2,0"
                    else f"error: bad value for {source}: ','")
        assert capsys.readouterr().err.splitlines() == [expected]

    def test_dims_on_fixed_state_names_the_haar_kinds(self, tmp_path, capsys):
        data = dict(_BUNDLED_DICTS["chsh"], state={"kind": "canonical-trace"})
        path = tmp_path / "fixed.problem"
        path.write_text(json.dumps(data))
        assert main(["solve", str(path), "--order", "1", "--dims", "2"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --dims only applies to haar, haar-sequence and "
            "haar-increasing states"]

    @pytest.mark.parametrize("command", [["solve", "--order", "1"],
                                         ["eval-state", "b1"]])
    def test_overlapping_free_product_exit_2(self, tmp_path, capsys, command):
        data = dict(_FREE_PAIRS, state={"kind": "free-product", "components": [
            {"generators": ["b1", "b2"], "state": {"kind": "canonical-trace"}},
            {"generators": ["b2", "c1", "c2"],
             "state": {"kind": "canonical-trace"}}]})
        path = tmp_path / "overlap.problem"
        path.write_text(json.dumps(data))
        assert main([command[0], str(path), *command[1:]]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: free-product components must be disjoint"]

    def test_zero_tol_solves(self, capsys):
        assert main(["solve", str(bundled_problem_path("chsh")),
                     "--order", "2", "--tol", "0"]) == 0

    @pytest.mark.parametrize("flag, env, source", [
        ([], {"NCUPPER_ORDER": "x"}, "NCUPPER_ORDER: 'x'"),
        ([], {"NCUPPER_HIERARCHY": "foo"}, "NCUPPER_HIERARCHY: 'foo'"),
        ([], {"NCUPPER_FORMAT": "xml"}, "NCUPPER_FORMAT: 'xml'"),
        (["--order", "x"], {}, "--order: 'x'"),
        (["--hierarchy", "foo"], {}, "--hierarchy: 'foo'")],
        ids=["order-env", "hierarchy-env", "format-env", "order-flag",
             "hierarchy-flag"])
    def test_env_parse_error_exit_2(self, flag, env, source):
        r = run_cli("solve", str(bundled_problem_path("chsh")), *flag,
                    env_extra=env)
        assert r.returncode == 2
        assert r.stderr.splitlines() == [f"error: bad value for {source}"]

    def test_chsh_order4_both(self, tmp_path):
        out = tmp_path / "c4.json"
        r = run_cli("solve", str(bundled_problem_path("chsh")),
                    "--order", "4", "--hierarchy", "both", "--out", str(out))
        assert r.returncode == 0
        rec = json.loads(out.read_text())
        tsirelson = 0.5 - 2 ** 0.5 / 2  # true minimum of the objective
        for key in ("lambda", "eta"):
            vals = [float(row[key]["value"]) for row in rec["orders"]]
            assert len(vals) == 4
            assert all(b <= a for a, b in zip(vals, vals[1:]))
            assert all(v >= tsirelson for v in vals)

    @pytest.mark.parametrize("argv, env", [
        (["solve", "reflection", "--order", "1"], {"NCUPPER_SAMPLES": "x"}),
        (["weingarten", "--n", "2", "--d", "2"], {"NCUPPER_DIMS": "x"})])
    def test_other_subcommands_variables_ignored(self, argv, env):
        argv = [str(bundled_problem_path(a)) if a == "reflection" else a
                for a in argv]
        r = run_cli(*argv, env_extra=env)
        assert r.returncode == 0, r.stderr
        assert r.stderr == ""

    @pytest.mark.parametrize("argv, env, source", [
        (["mc-check", "reflection", "b", "--dim", "2"],
         {"NCUPPER_SAMPLES": "x"}, "NCUPPER_SAMPLES: 'x'"),
        (["mc-check", "reflection", "b", "--dim", "2", "--samples", "x"], {},
         "--samples: 'x'"),
        (["eval-state", "reflection", "b"], {"NCUPPER_ORDER": "x"},
         "NCUPPER_ORDER: 'x'"),
        (["eval-state", "reflection", "b", "--order", "x"], {},
         "--order: 'x'"),
        # a set variable is parsed even when its flag wins
        (["solve", "reflection", "--order", "1", "--format", "machine"],
         {"NCUPPER_FORMAT": "xml"}, "NCUPPER_FORMAT: 'xml'")],
        ids=["samples-env", "samples-flag", "eval-order-env",
             "eval-order-flag", "format-env-under-flag"])
    def test_own_bad_variable_exit_2(self, argv, env, source):
        argv = [str(bundled_problem_path(a)) if a == "reflection" else a
                for a in argv]
        r = run_cli(*argv, env_extra=env)
        assert r.returncode == 2
        assert r.stderr.splitlines() == [f"error: bad value for {source}"]

    def test_env_var_mirroring(self, tmp_path):
        out = tmp_path / "e.json"
        r = run_cli("solve", str(bundled_problem_path("reflection")),
                    "--out", str(out),
                    env_extra={"NCUPPER_ORDER": "1",
                               "NCUPPER_HIERARCHY": "eta"})
        assert r.returncode == 0
        rec = json.loads(out.read_text())
        assert len(rec["orders"]) == 1
        assert "lambda" not in rec["orders"][0]

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        # flags, then variables, then neither, in one process: each call
        # prints what a fresh process prints (the table less its timings)
        problem = str(bundled_problem_path("reflection"))
        calls = [
            (["--order", "1", "--hierarchy", "eta", "--format", "machine"],
             {}),
            ([], {"NCUPPER_ORDER": "3", "NCUPPER_HIERARCHY": "lambda",
                  "NCUPPER_FORMAT": "machine"}),
            ([], {})]
        for flags, env in calls:
            for name in ("NCUPPER_ORDER", "NCUPPER_HIERARCHY",
                         "NCUPPER_FORMAT"):
                monkeypatch.delenv(name, raising=False)
            for name, value in env.items():
                monkeypatch.setenv(name, value)
            assert main(["solve", problem, *flags]) == 0
            got = capsys.readouterr().out.splitlines()
            fresh = run_cli("solve", problem, *flags, env_extra=env)
            assert fresh.returncode == 0
            want = fresh.stdout.splitlines()
            if not env and not flags:  # table: drop the time_s column
                got, want = ([line.rsplit(None, 1)[0] for line in lines]
                             for lines in (got, want))
            assert got == want

    def test_flag_beats_env(self, tmp_path):
        out = tmp_path / "e.json"
        r = run_cli("solve", str(bundled_problem_path("reflection")),
                    "--order", "2", "--out", str(out),
                    env_extra={"NCUPPER_ORDER": "1"})
        assert r.returncode == 0
        rec = json.loads(out.read_text())
        assert len(rec["orders"]) == 2


class TestDeterminism:
    @pytest.mark.parametrize("name", ["chsh", "reflection"])
    def test_byte_identical_reruns(self, tmp_path, name):
        outs = []
        for i in (0, 1):
            out = tmp_path / f"{name}{i}.json"
            r = run_cli("solve", str(bundled_problem_path(name)),
                        "--order", "2", "--seed", "0", "--out", str(out))
            assert r.returncode == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestOtherCommands:
    def test_weingarten_table(self):
        r = run_cli("weingarten", "--n", "2", "--d", "3")
        assert r.returncode == 0
        assert "(1, 1) -> 1/8" in r.stdout
        assert "(2,) -> -1/24" in r.stdout

    def test_weingarten_tables_are_pinned(self, capsys):
        # sha256 of every table for 1 <= d <= n <= 12, in that order, as
        # printed when each row summed its own lam factors
        digest = hashlib.sha256()
        for n in range(1, 13):
            for d in range(1, n + 1):
                assert main(["weingarten", "--n", str(n), "--d", str(d)]) == 0
                digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == ("ef1b388a59db0e8c3935a4d2978a026e"
                                      "7c9e79a17fe7f4a5128a785bf3dc4284")

    def test_mc_check(self):
        r = run_cli("mc-check", str(bundled_problem_path("free-unitaries")),
                    "u1 u2 u1* u2*", "--dim", "2", "--samples", "20000",
                    "--seed", "1")
        assert r.returncode == 0
        assert "exact      : 1/2" in r.stdout

    def test_mc_check_herm(self):
        r = run_cli("mc-check", str(bundled_problem_path("chsh")),
                    "b1 b2", "--dim", "2", "--samples", "5000")
        assert r.returncode == 0

    def test_mc_check_conjugate_word_is_exact(self, capsys):
        # b1 b2 b1 is conjugate to b2, whose trace tr D is 0 at dim 2 on
        # every sample, so its estimate carries no round-off
        assert main(["mc-check", str(bundled_problem_path("chsh")),
                     "b1 b2 b1", "--dim", "2", "--samples", "1000"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[2] == "monte-carlo: 0 +- 0 (1000 samples, seed 0)"
        assert out[3] == "deviation  : 0 (0 sigma)"

    def test_mc_check_and_state_share_trace_atoms(self, capsys):
        # chsh's order-2 state is HaarTrace(2) on each factor, whose letters
        # are 4 x 4 conjugated signatures: its value is the dim-4 trace / 4
        chsh = str(bundled_problem_path("chsh"))
        word = "b1 b2 b1 b2"
        assert main(["mc-check", chsh, word, "--dim", "4",
                     "--samples", "100"]) == 0
        exact = capsys.readouterr().out.splitlines()[1].split()[2]
        assert main(["eval-state", chsh, word, "--order", "2"]) == 0
        value = capsys.readouterr().out.split()[0]
        assert Fraction(exact) == 4 * Fraction(value) != 0

    def test_mc_check_general_kind_exit_2(self, tmp_path, capsys):
        data = {"algebra": {"generators": [{"id": "x", "kind": "general"}]},
                "objective": [{"coefficient": "1", "word": [{"gen": "x"}]},
                              {"coefficient": "1",
                               "word": [{"gen": "x", "star": True}]}],
                "state": {"kind": "canonical-trace"}}
        path = tmp_path / "general.problem"
        path.write_text(json.dumps(data))
        assert main(["mc-check", str(path), "x x*", "--dim", "2"]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_mc_check_negative_seed_exit_2(self, capsys, monkeypatch, via):
        argv = ["mc-check", str(bundled_problem_path("free-unitaries")),
                "u1", "--dim", "2"]
        if via == "flag":
            argv += ["--seed", "-1"]
        else:
            monkeypatch.setenv("NCUPPER_SEED", "-1")
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {'--seed' if via == 'flag' else 'NCUPPER_SEED'} "
            f"must be >= 0"]

    @pytest.mark.parametrize("source, value, low", [
        ("--seed", "-1", 0), ("NCUPPER_SEED", "-1", 0),
        ("--samples", "1", 2), ("NCUPPER_SAMPLES", "1", 2)])
    def test_mc_check_bad_seed_or_samples_refused_before_work(
            self, capsys, monkeypatch, source, value, low):
        def engine(*args, **kwargs):
            raise AssertionError("the exact engine ran")
        monkeypatch.setattr("ncupper.cli.exact_trace_moment", engine)
        # about 3 s of exact engine at dim 3 if the value were checked late
        word = " ".join(["u1"] * 4 + ["u2"] * 4 + ["u1*"] * 4 + ["u2*"] * 4)
        argv = ["mc-check", str(bundled_problem_path("free-unitaries")), word,
                "--dim", "3"]
        if source.startswith("--"):
            argv += [source, value]
        else:
            monkeypatch.setenv(source, value)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [
            f"error: {source} must be >= {low}"]

    def test_eval_state_unit(self):
        r = run_cli("eval-state", str(bundled_problem_path("chsh")), "1")
        assert r.returncode == 0
        assert r.stdout.strip().startswith("1 =")

    def test_eval_state_single_letter(self):
        r = run_cli("eval-state", str(bundled_problem_path("chsh")), "b1")
        assert r.returncode == 0
        assert r.stdout.strip().startswith("0 =")

    def test_eval_state_budgets_the_class(self, capsys):
        # u2 (u1 u2 u1* u2*) u2* needs 4 configurations as written, but its
        # tracial class, the commutator, needs 1
        problem = str(bundled_problem_path("free-unitaries"))
        outs = []
        for word in ("u2 u1 u2 u1* u2* u2*", "u1 u2 u1* u2*"):
            assert main(["eval-state", problem, word, "--order", "2",
                         "--budget", "2"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == "3/4 = 0.75\n"

    def test_eval_state_parse_failure(self):
        r = run_cli("eval-state", str(bundled_problem_path("chsh")), "zz")
        assert r.returncode == 2
