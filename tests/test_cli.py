"""Command-line tests: every subcommand, both output formats, all three
input channels, and the exit-code contract."""

import io
import json
import random
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import pytest

from interlacepoly import _limits, cli, eulerian, interlace, verify
from interlacepoly.graph import SimpleGraph

P3_TEXT = "3 2\n0 1\n1 2\n"
TWO_LOOP_TEXT = "1 2\n0 0\n0 0\n"


@pytest.fixture
def p3_file(tmp_path):
    p = tmp_path / "p3.txt"
    p.write_text(P3_TEXT)
    return str(p)


def run_ok(capsys, argv):
    assert cli.run(argv) == 0
    return capsys.readouterr().out


def run_err(capsys, argv, code=1):
    assert cli.run(argv) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    return captured.err


class TestInputChannels:
    def test_file_path(self, capsys, p3_file):
        assert run_ok(capsys, ["qn", p3_file]) == "x^2 + 2*x\n"

    def test_inline_literal(self, capsys):
        assert run_ok(capsys, ["qn", "3 2 0 1 1 2"]) == "x^2 + 2*x\n"

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(P3_TEXT))
        assert run_ok(capsys, ["qn", "-"]) == "x^2 + 2*x\n"

    def test_missing_file(self, capsys):
        err = run_err(capsys, ["qn", "no-such-file.txt"])
        assert "no such file" in err


class TestQn:
    def test_all_methods_are_byte_identical(self, capsys, p3_file):
        outputs = {run_ok(capsys, ["qn", p3_file, "--method", m])
                   for m in ("recursive", "closed", "bouchet", "avdh",
                             "isotropic")}
        assert outputs == {"x^2 + 2*x\n"}

    @pytest.mark.parametrize("method", ["recursive", "bouchet"])
    def test_a_matching_on_2048_vertices(self, capsys, tmp_path, method):
        # 1,024 components of one edge, qn(K2) = 2*x each, whose product
        # the recursions multiply pairwise.
        f = tmp_path / "m2048.txt"
        f.write_text(SimpleGraph.from_edges(
            2048, [(v, v + 1) for v in range(0, 2048, 2)]).to_text())
        out = run_ok(capsys, ["qn", str(f), "--method", method])
        assert out == f"{2 ** 1024}*x^1024\n"

    def test_json_output(self, capsys, p3_file):
        out = run_ok(capsys, ["qn", p3_file, "--output", "json"])
        assert out == '{"var": "x", "coeffs": [0, 2, 1]}\n'

    def test_unknown_method_is_an_input_error(self, capsys, p3_file):
        run_err(capsys, ["qn", p3_file, "--method", "magic"])

    def test_loopy_graph_is_an_input_error(self, capsys):
        err = run_err(capsys, ["qn", "1 1 0 0"])
        assert "loopless" in err

    @pytest.mark.parametrize("n", [3, 30])
    def test_every_method_rejects_a_loop_alike(self, capsys, n):
        # At n=30 too the loop check comes before any walk or recursion
        # starts.
        text = SimpleGraph.from_edges(n, [(0, 0), (1, 2)], loops_allowed=True).to_text()
        errors = {run_err(capsys, ["qn", text, "--method", m]) for m in cli.QN_METHODS}
        assert errors == {"error: qn is defined for loopless graphs only\n"}


class TestQ2:
    def test_closed(self, capsys):
        assert run_ok(capsys, ["q2", "2 1 0 1"]) == "x^2 - 2*x + 2*y\n"

    def test_reduction_matches(self, capsys):
        a = run_ok(capsys, ["q2", "2 1 0 1"])
        b = run_ok(capsys, ["q2", "2 1 0 1", "--method", "reduction"])
        assert a == b

    def test_accepts_loops(self, capsys):
        assert run_ok(capsys, ["q2", "1 1 0 0"]) == "x\n"

    def test_json_output(self, capsys):
        out = run_ok(capsys, ["q2", "2 1 0 1", "--output", "json"])
        assert json.loads(out) == {"vars": ["x", "y"],
                                   "terms": [[0, 1, 2], [1, 0, -2], [2, 0, 1]]}


class TestTutteMartin:
    def test_default_presentation(self, capsys):
        assert run_ok(capsys, ["tm", "2 1 0 1"]) == "2*x\n"
        assert run_ok(capsys, ["tm", "1 0"]) == "x\n"
        assert run_ok(capsys, ["tm", "0 0"]) == "1\n"

    def test_custom_presentation(self, capsys):
        out = run_ok(capsys, ["tm", "2 1 0 1", "--A", "xx", "--B", "zz"])
        assert out == "2*x\n"

    def test_word_length_must_match(self, capsys):
        run_err(capsys, ["tm", "2 1 0 1", "--A", "x"])

    def test_word_rejects_zero(self, capsys):
        err = run_err(capsys, ["tm", "2 1 0 1", "--A", "x0"])
        assert "nonzero" in err

    def test_word_rejects_other_letters(self, capsys):
        err = run_err(capsys, ["tm", "2 1 0 1", "--A", "xq"])
        assert "x, y, z" in err

    def test_presentations_must_differ(self, capsys):
        err = run_err(capsys, ["tm", "2 1 0 1", "--A", "xy", "--B", "zy"])
        assert "differ" in err


class TestDigraphCommands:
    def test_cpp(self, capsys, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text(TWO_LOOP_TEXT)
        assert run_ok(capsys, ["cpp", str(f)]) == "x^2 + x\n"

    def test_cpp_inline(self, capsys):
        assert run_ok(capsys, ["cpp", "2 4 0 1 0 1 1 0 1 0"]) == "2*x^2 + 2*x\n"

    def test_martin(self, capsys):
        assert run_ok(capsys, ["martin", "1 2 0 0 0 0"]) == "x\n"
        assert run_ok(capsys, ["martin", "2 4 0 1 0 1 1 0 1 0"]) == "2*x\n"

    def test_invalid_digraph_is_an_input_error(self, capsys):
        err = run_err(capsys, ["cpp", "2 2 0 1 1 0"])
        assert "in-degree" in err

    @pytest.mark.parametrize("command", ["cpp", "martin"])
    def test_disconnected_digraph_is_an_input_error(self, capsys, command):
        err = run_err(capsys, [command, "2 4  0 0  0 0  1 1  1 1"])
        assert err == "error: digraph is not connected\n"

    def test_martin_cap_is_an_input_error(self, capsys, monkeypatch):
        monkeypatch.setattr(_limits, "MEMO_BUDGET_BYTES", 1000)
        d = eulerian.random_eulerian_digraph(16, 0)
        err = run_err(capsys, ["martin", d.to_text()])
        assert err.count("\n") == 1 and "memo budget" in err

    def test_circle_from_digraph(self, capsys):
        out = run_ok(capsys, ["circle", "2 4 0 1 0 1 1 0 1 0"])
        assert out == "2 1\n0 1\n"

    def test_circle_from_word(self, capsys):
        assert run_ok(capsys, ["circle", "0 1 2 0 1 2"]) == "3 3\n0 1\n0 2\n1 2\n"

    def test_circle_json(self, capsys):
        out = run_ok(capsys, ["circle", "0 1 0 1", "--output", "json"])
        assert json.loads(out) == {"n": 2, "edges": [[0, 1]]}

    def test_circle_bad_word(self, capsys):
        err = run_err(capsys, ["circle", "0 1 0"])
        assert err.count("\n") == 1

    @pytest.mark.parametrize("word, out", [("1 1 0 0", "2 0\n"),
                                           ("2 2 0 1 1 0", "3 0\n")])
    def test_circle_word_that_reads_as_an_invalid_digraph(self, capsys, word, out):
        # Both parse as digraph text, 'n m' then pairs, whose vertex 0
        # has in- and out-degree 1; as chord words their chords do not
        # cross.
        assert run_ok(capsys, ["circle", word]) == out

    def test_circle_reads_a_text_of_several_lines_as_a_digraph(self, capsys):
        # The directed triangle, whose vertices have in- and out-degree
        # 1; its tokens would pair up as a chord word.
        err = run_err(capsys, ["circle", "3 3\n0 1\n1 2\n2 0"])
        assert err.count("\n") == 1 and "in-degree" in err

    def test_circle_keeps_the_digraph_error(self, capsys):
        # Neither a 2-in-2-out digraph nor a chord word.
        err = run_err(capsys, ["circle", "2 1 0 1"])
        assert err.count("\n") == 1 and "in-degree" in err

    @pytest.mark.parametrize("channel", ["inline", "file", "stdin"])
    def test_circle_blank_text_is_an_empty_input(self, capsys, monkeypatch,
                                                 tmp_path, channel):
        # Not the empty chord word: cpp and qn reject the same text.
        token = " "
        if channel == "file":
            token = str(tmp_path / "empty.txt")
            (tmp_path / "empty.txt").write_text("")
        elif channel == "stdin":
            monkeypatch.setattr(sys, "stdin", io.StringIO(""))
            token = "-"
        assert run_err(capsys, ["circle", token]) == "error: empty digraph input\n"


class TestGraphTransforms:
    def test_pivot(self, capsys):
        out = run_ok(capsys, ["pivot", "4 3 0 1 1 2 2 3", "1", "2"])
        assert out == "4 4\n0 1\n0 3\n1 2\n2 3\n"

    def test_pivot_json(self, capsys):
        out = run_ok(capsys, ["pivot", "3 2 0 1 1 2", "0", "1",
                              "--output", "json"])
        assert json.loads(out) == {"n": 3, "edges": [[0, 1], [1, 2]]}

    def test_pivot_non_edge_is_an_input_error(self, capsys):
        err = run_err(capsys, ["pivot", "3 2 0 1 1 2", "0", "2"])
        assert "not an edge" in err

    def test_lc(self, capsys):
        out = run_ok(capsys, ["lc", "3 2 0 1 1 2", "1"])
        assert out == "3 3\n0 1\n0 2\n1 2\n"

    @pytest.mark.parametrize("argv,vertex", [
        (["pivot", "3 2 0 1 1 2", "0", "5"], 5),
        (["pivot", "3 2 0 1 1 2", "-1", "0"], -1),
        (["lc", "3 2 0 1 1 2", "3"], 3),
    ], ids=["pivot-high", "pivot-negative", "lc-high"])
    def test_vertex_out_of_range_is_an_input_error(self, capsys, argv, vertex):
        err = run_err(capsys, argv)
        assert err == f"error: vertex {vertex} out of range for n=3\n"


class TestVerifyCommand:
    def test_reports_and_succeeds(self, capsys):
        assert cli.run(["verify", "--max-n", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 13
        assert all(line.startswith("PASS") for line in lines)

    def test_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "run_verification",
                            lambda max_n, seed: False)
        assert cli.run(["verify"]) == 2

    def test_out_of_range_bound_is_an_input_error(self, capsys):
        run_err(capsys, ["verify", "--max-n", "9"])


class TestParserContract:
    def test_no_arguments_is_an_input_error(self, capsys):
        assert cli.run([]) == 1

    def test_unknown_subcommand_is_an_input_error(self, capsys):
        run_err(capsys, ["frobnicate", "2 1 0 1"])

    def test_main_reads_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["interlacepoly", "qn", "2 1 0 1"])
        assert cli.main() == 0
        assert capsys.readouterr().out == "2*x\n"

    P3 = "3 2 0 1 1 2"
    ARGVS = ([["--help"], ["-h", "qn"]]
             + [[name, "--help"] for name in ("qn", "q2", "tm", "cpp", "martin",
                                              "circle", "pivot", "lc", "verify")]
             + [[], ["nosuch"], ["qn"], ["qn", P3, "--method", "magic"],
                ["qn", P3, "--output", "xml"], ["qn", P3, "--bogus"],
                ["--foo", "qn", P3], ["--"], ["--", "qn", P3],
                ["pivot", P3, "a", "1"], ["lc", P3, "x"], ["qn", P3]])

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = cli.run(argv)
        except SystemExit as exit:  # --help
            code = exit.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_the_command_parser_acts_as_the_full_one(self, capsys, monkeypatch,
                                                     argv):
        got = self.outcome(capsys, argv)
        full = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
        assert got == self.outcome(capsys, argv)

    @pytest.mark.parametrize("argv, command", [
        (["qn", "2 1 0 1"], "qn"), (["--foo", "lc", "2 1 0 1", "0"], "lc"),
        (["--", "pivot", "2 1 0 1", "0", "1"], "pivot"), (["--help"], None),
        ([], None)])
    def test_each_call_builds_one_parser_for_its_command(self, capsys, monkeypatch,
                                                         argv, command):
        # run(None) reads sys.argv[1:], as the console script's main() does.
        monkeypatch.setattr(sys, "argv", ["interlacepoly"] + argv)
        calls = []
        full = cli.build_parser

        def build(name=None):
            calls.append(name)
            return full(name)
        monkeypatch.setattr(cli, "build_parser", build)
        self.outcome(capsys, None)
        assert calls == [command]

    @pytest.mark.parametrize("exc", [BrokenProcessPool("a worker died"),
                                     KeyboardInterrupt()],
                             ids=["worker-crash", "interrupt"])
    def test_failure_is_one_error_line(self, capsys, monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc
        monkeypatch.setattr(interlace, "qn_closed", fail)
        err = run_err(capsys, ["qn", P3_TEXT])
        assert err.count("\n") == 1

    def test_other_runtime_errors_propagate(self, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("a bug")
        monkeypatch.setattr(interlace, "qn_closed", fail)
        with pytest.raises(RuntimeError, match="a bug"):
            cli.run(["qn", P3_TEXT])

    @pytest.mark.parametrize("exc, message", [
        (RecursionError("maximum recursion depth exceeded"), "recursion depth"),
        (MemoryError(), "out of memory")], ids=["recursion", "memory"])
    def test_exhaustion_is_one_error_line(self, capsys, monkeypatch, exc, message):
        def fail(*args, **kwargs):
            raise exc
        monkeypatch.setattr(interlace, "qn_recursive", fail)
        err = run_err(capsys, ["martin", TWO_LOOP_TEXT])
        assert err.count("\n") == 1 and message in err

    def test_console_script_round_trip(self):
        proc = subprocess.run(
            [sys.executable, "-m", "interlacepoly", "qn", "-"],
            input="3 2\n0 1\n1 2\n", capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "x^2 + 2*x\n"


class TestResourceRules:
    """Every route past its resource bound (see _limits) exits 1 with one
    error line that names the bound."""

    WALKS = [("qn", "closed"), ("qn", "avdh"), ("qn", "isotropic"),
             ("q2", "closed"), ("tm", None)]
    MEMOIZED = [("qn", "recursive"), ("qn", "bouchet"), ("q2", "reduction"),
                ("cpp", None), ("martin", None)]
    CHOICE_WALKS = [("qn", "avdh"), ("qn", "isotropic"), ("tm", None)]
    GRAPH = verify.random_simple_graph(12, random.Random(1)).to_text()
    DIGRAPH = eulerian.random_eulerian_digraph(16, 1).to_text()
    SPARSE_30 = SimpleGraph.from_edges(30, random.Random(1).sample(
        [(u, v) for u in range(30) for v in range(u + 1, 30)], 40)).to_text()

    @staticmethod
    def argv(command, method, text):
        return [command, text] + (["--method", method] if method else [])

    @pytest.mark.parametrize("command, method", WALKS,
                             ids=["-".join(filter(None, r)) for r in WALKS])
    def test_a_walk_runs_past_n_24(self, capsys, command, method):
        # No enumeration bound holds the walks; their memo budget does,
        # and the states of a sparse graph fit it.
        power = "y^25\n" if command == "q2" else "x^25\n"
        assert run_ok(capsys, self.argv(command, method, "25 0")) == power
        want = (["q2", self.SPARSE_30, "--method", "reduction"] if command == "q2"
                else ["qn", self.SPARSE_30, "--method", "recursive"])
        assert run_ok(capsys, self.argv(command, method, self.SPARSE_30)) == run_ok(capsys, want)

    def test_tm_checks_the_presentation_past_n_24(self, capsys):
        err = run_err(capsys, ["tm", "25 0", "--A", "x"])
        assert err.count("\n") == 1 and "presentation" in err

    @pytest.mark.parametrize("command, method", MEMOIZED,
                             ids=["-".join(filter(None, r)) for r in MEMOIZED])
    def test_memo_budget(self, capsys, monkeypatch, pin_cpus, command, method):
        pin_cpus(1)
        text = self.DIGRAPH if command in ("cpp", "martin") else self.GRAPH
        assert cli.run(self.argv(command, method, text)) == 0
        capsys.readouterr()
        monkeypatch.setattr(_limits, "MEMO_BUDGET_BYTES", 1000)
        err = run_err(capsys, self.argv(command, method, text))
        assert err.count("\n") == 1 and "memo budget" in err

    @pytest.mark.parametrize("command, method", CHOICE_WALKS,
                             ids=["-".join(filter(None, r)) for r in CHOICE_WALKS])
    def test_choice_walk_memo_budget(self, capsys, monkeypatch, command, method):
        # The choice walk charges its tables to the memo budget, which
        # a dense 14-vertex graph passes at the default and spends at
        # 1000 bytes.
        text = verify.random_simple_graph(14, random.Random(1)).to_text()
        assert cli.run(self.argv(command, method, text)) == 0
        capsys.readouterr()
        monkeypatch.setattr(_limits, "MEMO_BUDGET_BYTES", 1000)
        err = run_err(capsys, self.argv(command, method, text))
        assert err.count("\n") == 1 and "memo budget" in err

    def test_profile_bound(self, capsys):
        # 1,024 disjoint looped edges: the reduction's final profile
        # would be 2049**3 bits, about 1.1 GB.
        n = 2048
        text = SimpleGraph.from_edges(
            n, [(v, v) for v in range(0, n, 2)] + [(v, v + 1) for v in range(0, n, 2)],
            loops_allowed=True).to_text()
        err = run_err(capsys, ["q2", text, "--method", "reduction"])
        assert err.count("\n") == 1 and "profile bound" in err

    POOLED = [("cpp", None), ("tm", None), ("qn", "avdh"), ("qn", "closed"),
              ("q2", "closed")]

    @pytest.mark.parametrize("command, method", POOLED,
                             ids=["-".join(filter(None, r)) for r in POOLED])
    def test_memo_budget_of_a_pool_worker(self, capsys, monkeypatch, pin_cpus,
                                          command, method):
        # Each process of the pool has a budget of its own and raises in
        # the worker; the error crosses the pool as one line.
        pin_cpus(2)
        monkeypatch.setattr(_limits, "MEMO_BUDGET_BYTES", 1000)
        text = (self.DIGRAPH if command == "cpp"
                else verify.random_simple_graph(16, random.Random(1)).to_text())
        err = run_err(capsys, self.argv(command, method, text))
        assert err.count("\n") == 1 and "memo budget" in err
