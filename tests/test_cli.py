"""End-to-end tests for the command-line interface."""
import json
from fractions import Fraction

import pytest

from tropdiv import ChainOfLoops, Divisor, cli, default_generic_chain
from tropdiv.chainbn import Tableau, enumerate_tableaux
from tropdiv.cli import main
from tropdiv.errors import GraphError, ReductionCapError, SearchCapError
from tropdiv.graph import _rat, canonical_divisor
from tropdiv.independence import verify_independence
from tropdiv.reduce import v_reduce
from tropdiv import serialize as sz

from .conftest import rho_zero_family, table_certificate, tie_psi_columns


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _chain_file(tmp_path, chain, name="chain.json"):
    return _write(tmp_path / name, sz.chain_to_json(chain))


def _divisor_file(tmp_path, graph, D, name="div.json"):
    return _write(tmp_path / name, sz.divisor_to_json(graph, D))


class TestChainNew:
    def test_default_lengths(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(["chain-new", "--g", "3", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["g"] == 3 and obj["generic"] is True
        assert len(obj["graph"]["edges"]) == 3 * 3 - 1

    def test_require_generic_rejects(self, tmp_path):
        chain = ChainOfLoops(2, [Fraction(1)] * 2, [Fraction(1)] * 2,
                             [Fraction(1)])
        path = _chain_file(tmp_path, chain)
        code = main(["chain-new", "--g", "2", "--lengths", path,
                     "--require-generic"])
        assert code == 2

    def test_stdout_when_no_out(self, capsys):
        assert main(["chain-new", "--g", "2"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["g"] == 2

    def test_genus_must_match_the_lengths_file(self, tmp_path, capsys):
        path = _chain_file(tmp_path, default_generic_chain(3))
        out = tmp_path / "out.json"
        assert main(["chain-new", "--g", "7", "--lengths", path, "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "--g 7" in err and "genus 3" in err
        assert main(["chain-new", "--g", "3", "--lengths", path, "--out", str(out)]) == 0


class TestReduce:
    def test_matches_library(self, tmp_path):
        chain = default_generic_chain(2)
        G = chain.graph
        D = canonical_divisor(G)
        gpath = _chain_file(tmp_path, chain)
        dpath = _divisor_file(tmp_path, G, D)
        out = tmp_path / "red.json"
        assert main(["reduce", gpath, dpath, "--base", "w2",
                     "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        got = sz.divisor_from_json(G, obj["reduced"])
        want = v_reduce(G, D, G.vertex_point("w2")).reduced
        assert got == want

    def test_interior_base_point(self, tmp_path, capsys):
        chain = default_generic_chain(2)
        G = chain.graph
        gpath = _chain_file(tmp_path, chain)
        dpath = _divisor_file(tmp_path, G, Divisor({G.vertex_point("v1"): 2}))
        assert main(["reduce", gpath, dpath, "--base", "0:1/2"]) == 0
        obj = json.loads(capsys.readouterr().out)
        base = sz.point_from_json(G, obj["base"])
        assert base == G.point(0, Fraction(1, 2))

    @pytest.mark.parametrize("base", [" 2:1/2", "02:1/2", "+2:1/2", "1_0:1/2", "2 :1/2",
                                      ":1/2"])
    def test_base_edge_index_is_read_as_json_reads_it(self, tmp_path, capsys, base):
        # digits without a leading zero, as an edge key of a PL function;
        # int() read these as edges 2 and, on this genus-4 chain, 10
        chain = default_generic_chain(4)
        G = chain.graph
        gpath = _chain_file(tmp_path, chain)
        dpath = _divisor_file(tmp_path, G, Divisor({G.vertex_point("v1"): 2}))
        out = tmp_path / "red.json"
        assert main(["reduce", gpath, dpath, "--base", base, "--out", str(out)]) == 2
        assert not out.exists()
        assert "edge" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["reduce", str(tmp_path / "nope.json"),
                     str(tmp_path / "nope2.json"), "--base", "v1"]) == 2

    def test_malformed_edge_exits_2_with_the_graph_error(self, tmp_path, capsys):
        gpath = _write(tmp_path / "graph.json",
                       {"vertices": ["a", "b"], "edges": [["a", "b"]]})
        dpath = _write(tmp_path / "div.json", [{"point": {"vertex": "a"}, "coeff": 1}])
        out = tmp_path / "red.json"
        assert main(["reduce", gpath, dpath, "--base", "a", "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "two ends and a length" in err and "unpack" not in err

    def test_float_coefficient_exits_2_without_output(self, tmp_path, capsys):
        gpath = _chain_file(tmp_path, default_generic_chain(2))
        dpath = _write(tmp_path / "div.json",
                       [{"point": {"vertex": "w2"}, "coeff": 3.9}])
        out = tmp_path / "red.json"
        assert main(["reduce", gpath, dpath, "--base", "v1", "--out", str(out)]) == 2
        assert not out.exists()
        assert "3.9" in capsys.readouterr().err

    @pytest.mark.parametrize("s,q", [
        ("1/2", Fraction(1, 2)), (" 3/4 ", Fraction(3, 4)), ("2/4", Fraction(1, 2)),
        ("-1/-2", Fraction(1, 2)), ("1 / 2", Fraction(1, 2)), ("1_0/40", Fraction(1, 4)),
        ("3", 3), ("1.5", None), ("1e0", None), ("1/0", None), ("abc", None), ("", None),
        ("1/2/3", None), ("nan", None)])
    def test_offset_strings_read_alike_everywhere(self, tmp_path, s, q):
        # _rat, G.point, point_from_json and --base e:s accept the same
        # strings, "p" or "p/q" as int() reads each part, on every Python
        chain = default_generic_chain(2)
        G = chain.graph

        def read(f):
            try:
                return f()
            except GraphError:
                return None
        assert read(lambda: _rat(s)) == q
        want = None if q is None else G.point(0, q)
        assert read(lambda: G.point(0, s)) == want
        assert read(lambda: sz.point_from_json(G, {"edge": 0, "offset": s})) == want
        gpath = _chain_file(tmp_path, chain)
        dpath = _divisor_file(tmp_path, G, Divisor({G.vertex_point("v1"): 2}))
        out = tmp_path / "red.json"
        code = main(["reduce", gpath, dpath, "--base", f"0:{s}", "--out", str(out)])
        assert code == (2 if q is None else 0)
        if q is None:
            assert not out.exists()
        else:
            assert sz.point_from_json(G, json.loads(out.read_text())["base"]) == want


class TestRRCheck:
    def test_small_run_passes(self, tmp_path):
        chain = default_generic_chain(2)
        gpath = _chain_file(tmp_path, chain)
        out = tmp_path / "rr.json"
        assert main(["rr-check", gpath, "--trials", "3", "--seed", "7",
                     "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["passed"] is True and obj["failures"] == []

    def test_zero_trials_warns(self, tmp_path, capsys):
        gpath = _chain_file(tmp_path, default_generic_chain(2))
        assert main(["rr-check", gpath, "--trials", "0"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert "warning" in obj

    def test_negative_trials_is_usage_error(self, tmp_path, capsys):
        gpath = _chain_file(tmp_path, default_generic_chain(2))
        assert main(["rr-check", gpath, "--trials", "-3"]) == 2
        assert capsys.readouterr().out == ""

    def test_mismatch_is_recorded_and_exits_1(self, tmp_path, monkeypatch):
        # a check reporting a mismatch on trial 1 of 3 stands for a
        # divisor that falsifies Riemann-Roch
        calls = []

        def mismatch_on_trial_1(graph, D):
            calls.append(D)
            return len(calls) != 2, 1, 2

        monkeypatch.setattr(cli, "riemann_roch_check", mismatch_on_trial_1)
        chain = default_generic_chain(2)
        out = tmp_path / "rr.json"
        assert main(["rr-check", _chain_file(tmp_path, chain), "--trials", "3",
                     "--out", str(out)]) == 1
        obj = json.loads(out.read_text())
        assert obj["passed"] is False
        assert obj["failures"] == [{"trial": 1, "rank": 1, "rank_adjoint": 2,
                                    "divisor": sz.divisor_to_json(chain.graph, calls[1])}]


class TestShape:
    def test_canonical_profile(self, tmp_path, capsys):
        chain = default_generic_chain(2)
        G = chain.graph
        gpath = _chain_file(tmp_path, chain)
        dpath = _divisor_file(tmp_path, G, canonical_divisor(G))
        assert main(["shape", gpath, dpath]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert sum(obj["cells"]) + sum(obj["bridges"]) + obj["wg_coeff"] == 2


class TestGP0:
    def test_single_tableau_independent(self, tmp_path):
        out = tmp_path / "gp.json"
        code = main(["gp0", "--g", "4", "--r", "1", "--d", "3",
                     "--tableau", "0", "--out", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        (rep,) = obj["reports"]
        assert rep["verdict"] == "independent"
        assert sorted(rep["empty_cells"].values()) == [1, 2, 3, 4]

    def test_certificate_reloads_and_reverifies(self, tmp_path):
        chain_path = _chain_file(tmp_path, default_generic_chain(4))
        out = tmp_path / "gp.json"
        assert main(["gp0", "--g", "4", "--r", "1", "--d", "3",
                     "--lengths", chain_path, "--out", str(out)]) == 0
        reports = json.loads(out.read_text())["reports"]
        assert len(reports) == 2
        with open(chain_path) as fh:
            chain = sz.chain_from_json(json.load(fh))
        for rep in reports:
            assert rep["verdict"] == "independent"
            T = Tableau(tuple(tuple(row) for row in rep["tableau"]))
            cert = sz.independence_certificate_from_json(chain.graph,
                                                         rep["certificate"])
            assert cert == table_certificate(T, chain)
            assert verify_independence(rho_zero_family(T, chain), cert)

    def test_failed_certificate_exits_1_without_report(
            self, tmp_path, monkeypatch, capsys):
        # tableau 0 comes first, so "all" stops there as well
        tie_psi_columns(monkeypatch, next(enumerate_tableaux(2, 2)),
                        default_generic_chain(4))
        out = tmp_path / "gp.json"
        for tableau in ("0", "all"):
            assert main(["gp0", "--g", "4", "--r", "1", "--d", "3",
                         "--tableau", tableau, "--out", str(out)]) == 1
            assert not out.exists()
            err = capsys.readouterr().err
            assert err.startswith("falsified: tableau ((1, 2), (3, 4))")
            assert "tau = (" in err and err.count("\n") == 1

    def test_failure_after_a_written_report_leaves_no_file(
            self, tmp_path, monkeypatch, capsys):
        # the sweep writes tableau 0's report before tableau 1 fails; the
        # command must leave neither the output nor its partial file
        second = list(enumerate_tableaux(2, 2))[1]
        experiment = cli.gp_rho_zero_experiment

        def doctored(T, chain):
            # patched only now: the first tableau's D_1 has the chips of
            # the second's E_1
            if T == second:
                tie_psi_columns(monkeypatch, T, chain)
            return experiment(T, chain)

        monkeypatch.setattr(cli, "gp_rho_zero_experiment", doctored)
        out = tmp_path / "gp.json"
        assert main(["gp0", "--g", "4", "--r", "1", "--d", "3",
                     "--tableau", "all", "--out", str(out)]) == 1
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().err.startswith(
            f"falsified: tableau {second.entries}")

    @pytest.mark.parametrize("exc,code", [(ReductionCapError, 3),
                                          (SearchCapError, 4)])
    def test_only_the_reduction_cap_exits_3(self, monkeypatch, capsys,
                                            exc, code):
        # gp0 no longer searches for dependences, so a search cap
        # reaching the command line would be a bug
        import tropdiv.cli as cli

        def capped(T, chain):
            raise exc(1)

        monkeypatch.setattr(cli, "gp_rho_zero_experiment", capped)
        assert main(["gp0", "--g", "4", "--r", "1", "--d", "3",
                     "--tableau", "0"]) == code
        assert capsys.readouterr().out == ""

    def test_genus_16_family_of_16_is_independent(self, capsys):
        assert main(["gp0", "--g", "16", "--r", "3", "--d", "15",
                     "--tableau", "0"]) == 0
        (rep,) = json.loads(capsys.readouterr().out)["reports"]
        assert rep["verdict"] == "independent"
        assert len(rep["certificate"]["points"]) == 16

    def test_genus_36_tableau_0_is_streamed(self, capsys):
        # 6x6 has about 1.7e15 tableaux: index 0 is the first one the
        # enumeration yields, the row-filled tableau, and nothing more
        assert main(["gp0", "--g", "36", "--r", "5", "--d", "35",
                     "--tableau", "0"]) == 0
        (rep,) = json.loads(capsys.readouterr().out)["reports"]
        assert rep["verdict"] == "independent"
        assert rep["tableau"] == [list(range(6 * r + 1, 6 * r + 7)) for r in range(6)]

    def test_tableau_index_follows_the_sweep(self, capsys):
        # (9, 2, 8) has the 42 tableaux of shape 3x3
        argv = ["gp0", "--g", "9", "--r", "2", "--d", "8"]
        assert main(argv) == 0
        sweep = [rep["tableau"] for rep in json.loads(capsys.readouterr().out)["reports"]]
        assert len(sweep) == 42
        for index in (0, 17, 41):
            assert main(argv + ["--tableau", str(index)]) == 0
            (rep,) = json.loads(capsys.readouterr().out)["reports"]
            assert rep["tableau"] == sweep[index]

    def test_nonzero_rho_is_usage_error(self):
        assert main(["gp0", "--g", "6", "--r", "3", "--d", "5"]) == 2

    @pytest.mark.parametrize("g,r,d,match", [("0", "0", "0", "shape is empty"),
                                             ("-4", "1", "3", "nonnegative")])
    def test_empty_or_negative_shape_is_usage_error(self, tmp_path, capsys,
                                                    g, r, d, match):
        # --lengths gives the chain, so g reaches only the shape
        lengths = _chain_file(tmp_path, default_generic_chain(4))
        assert main(["gp0", "--g", g, "--r", r, "--d", d, "--lengths", lengths]) == 2
        assert match in capsys.readouterr().err

    def test_bad_tableau_index_is_usage_error(self):
        for index in ("9", "x"):
            assert main(["gp0", "--g", "4", "--r", "1", "--d", "3",
                         "--tableau", index]) == 2

    def test_out_of_range_tableau_index_names_the_shape(self, capsys):
        # (4, 1, 3) has the two tableaux of shape 2x2
        assert main(["gp0", "--g", "4", "--r", "1", "--d", "3",
                     "--tableau", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: tableau index 7 is out of range: "
                                "shape 2x2 has 2 tableaux\n")

    def test_negative_tableau_index_is_usage_error(self, capsys):
        for index in ("-1", "-2"):
            assert main(["gp0", "--g", "4", "--r", "1", "--d", "3",
                         "--tableau", index]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("exc", [KeyError, RuntimeError])
    def test_internal_error_exits_4(self, monkeypatch, capsys, exc):
        import tropdiv.cli as cli

        def broken(T, chain):
            raise exc("broken")

        monkeypatch.setattr(cli, "gp_rho_zero_experiment", broken)
        assert main(["gp0", "--g", "4", "--r", "1", "--d", "3",
                     "--tableau", "0"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("internal error: ") and err.count("\n") == 1

    def test_seed_flag_removed(self):
        assert main(["gp0", "--g", "4", "--r", "1", "--d", "3",
                     "--seed", "0"]) == 2


class TestUsage:
    def test_no_subcommand(self):
        assert main([]) == 2

    def test_unknown_flag(self):
        assert main(["chain-new", "--g", "2", "--frob"]) == 2

    # json.load raises ValueError on bad syntax, bad UTF-8 and an integer
    # past Python's 4,300-digit limit, and RecursionError on deep nesting
    @pytest.mark.parametrize("text", [
        "{not json", "[" * 100000 + "]" * 100000, b"\xff\xfe", "1" * 5000,
    ], ids=["syntax", "nested", "utf-8", "digits"])
    def test_bad_json(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        (bad.write_bytes if isinstance(text, bytes) else bad.write_text)(text)
        assert main(["rr-check", str(bad)]) == 2

    _chain3 = sz.chain_to_json(default_generic_chain(3))
    _w3 = [{"point": {"vertex": "w3"}, "coeff": 1}]

    @pytest.mark.parametrize("cmd,graph,divisor", [
        ("reduce", [], _w3),
        ("reduce", {"vertices": 5, "edges": []}, _w3),
        ("reduce", {"vertices": ["a", "b"], "edges": 5}, _w3),
        ("reduce", {"vertices": ["a", "b"], "edges": [["a", ["b"], "1"]]}, _w3),
        ("chain-new", {**_chain3, "ell": 5}, None),
        ("gp0", {**_chain3, "g": 4, "ell": ["7"] * 4, "m": ["1"] * 4,
                 "beta": ["1"] * 3, "extended": True, "pendant": 5}, None),
        ("reduce", _chain3, [5]),
        ("reduce", _chain3, [{"point": 5, "coeff": 1}]),
        ("reduce", _chain3, [{"point": {"vertex": ["w3"]}, "coeff": 1}]),
        ("reduce", _chain3, {}),
        ("reduce", _chain3, [{"point": {"edge": True, "offset": "1/2"}, "coeff": 1}]),
        ("reduce", _chain3, [{"point": {"vertex": "w3"}, "coeff": True}]),
        # a string where a list belongs, which would read as its characters
        ("chain-new", {**_chain3, "ell": "777"}, None),
        ("reduce", {"vertices": "ab", "edges": [["a", "b", "1"]]}, _w3),
        ("reduce", {"vertices": ["a", "b"], "edges": ["ab1"]}, _w3),
        # a graph with no edge, where a point has no edge to be named by
        ("reduce", {"vertices": ["a"], "edges": []}, _w3),
        ("rr-check", {"vertices": ["a"], "edges": []}, None),
    ])
    def test_malformed_json_is_usage_error(self, tmp_path, capsys, cmd, graph, divisor):
        # each input exits 2 with one "error:" line and no output file
        gpath = _write(tmp_path / "graph.json", graph)
        out = tmp_path / "out.json"
        argv = {"reduce": ["reduce", gpath, _write(tmp_path / "div.json", divisor),
                           "--base", "w3"],
                "chain-new": ["chain-new", "--g", "3", "--lengths", gpath],
                "rr-check": ["rr-check", gpath],
                "gp0": ["gp0", "--g", "4", "--r", "1", "--d", "3", "--lengths", gpath,
                        "--tableau", "0"]}[cmd]
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_string_vertex_name_is_usage_error(self, tmp_path, capsys):
        # names must be strings: a vertex 1 and a vertex "a" have no order
        gpath = _write(tmp_path / "graph.json",
                       {"vertices": [1, "a"], "edges": [[1, "a", "1"]]})
        dpath = _write(tmp_path / "div.json", [{"point": {"vertex": 1}, "coeff": 1},
                                               {"point": {"vertex": "a"}, "coeff": 1}])
        out = tmp_path / "out.json"
        assert main(["reduce", gpath, dpath, "--base", "a", "--out", str(out)]) == 2
        assert not out.exists()
        assert "not a string" in capsys.readouterr().err

    def test_repeated_calls_match_fresh_ones(self, tmp_path, capsys):
        # main keeps one parser per process; a call after others, usage
        # errors and --help among them, must act as the first call would
        chain = default_generic_chain(3)
        gpath = _chain_file(tmp_path, chain)
        dpath = _divisor_file(tmp_path, chain.graph, canonical_divisor(chain.graph))
        calls = [["chain-new", "--g", "2"],
                 ["reduce", gpath, dpath, "--base", "2:1/2"],
                 ["chain-new", "--g", "2", "--frob"],
                 ["gp0", "--g", "4", "--r", "1", "--d", "3", "--tableau", "1"],
                 ["--help"],
                 ["rr-check", gpath, "--trials", "2"],
                 ["reduce", gpath, dpath, "--base", "2:1/2"]]

        def run(argv):
            code = main(argv)
            out, err = capsys.readouterr()
            return code, out, err

        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(run(argv))
        assert [run(argv) for argv in calls] == fresh
        assert [code for code, _out, _err in fresh] == [0, 0, 2, 0, 0, 0, 0]
        assert all(out for code, out, _err in fresh if code == 0)
