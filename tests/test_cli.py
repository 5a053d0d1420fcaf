import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from ncupper.cli import main
from ncupper.problems import (bundled_problem_path, parse_problem,
                              parse_problem_dict, parse_word_tokens,
                              serialize_problem)
from ncupper.errors import InputError

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

    def test_word_tokens(self):
        p = parse_problem(bundled_problem_path("free-unitaries"))
        w = parse_word_tokens("u1 u2* u1", p.algebra)
        assert str(w) == "u1 u2* u1"
        assert parse_word_tokens("1", p.algebra).is_identity
        with pytest.raises(InputError):
            parse_word_tokens("nope", p.algebra)


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

    @pytest.mark.parametrize("kind", ["not-utf8", "directory"])
    def test_unreadable_problem_exit_2(self, tmp_path, capsys, kind):
        path = tmp_path / "bad.problem"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe{}")
        assert main(["solve", str(path), "--order", "1"]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

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

    def test_budget_exit_3(self):
        r = run_cli("solve", str(bundled_problem_path("chsh")),
                    "--order", "2", "--budget", "1")
        assert r.returncode == 3

    def test_budget_honoured_after_cached_solve(self, capsys):
        # the moments of the first run are memoized; the second run must
        # still be refused under its smaller budget
        chsh = str(bundled_problem_path("chsh"))
        assert main(["solve", chsh, "--order", "2"]) == 0
        assert main(["solve", chsh, "--order", "2", "--budget", "1"]) == 3

    def test_env_parse_error_exit_2(self):
        r = run_cli("solve", str(bundled_problem_path("chsh")),
                    env_extra={"NCUPPER_ORDER": "x"})
        assert r.returncode == 2
        assert r.stderr.splitlines() == [
            "error: bad value for NCUPPER_ORDER: 'x'"]

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
            "error: seed must be >= 0"]

    def test_eval_state_unit(self):
        r = run_cli("eval-state", str(bundled_problem_path("chsh")), "1")
        assert r.returncode == 0
        assert r.stdout.strip().startswith("1 =")

    def test_eval_state_single_letter(self):
        r = run_cli("eval-state", str(bundled_problem_path("chsh")), "b1")
        assert r.returncode == 0
        assert r.stdout.strip().startswith("0 =")

    def test_eval_state_parse_failure(self):
        r = run_cli("eval-state", str(bundled_problem_path("chsh")), "zz")
        assert r.returncode == 2
