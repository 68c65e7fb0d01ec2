import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from itertools import count, islice
from pathlib import Path

import pytest

from etarho._ntheory import is_prime
from etarho.cli import UsageError, build_parser, main, run
from etarho.verify import verify_all


def run_json(argv):
    report, rendered, code = run(argv)
    return json.loads(rendered), code


class TestChars:
    def test_cyclic5_plus(self):
        payload, code = run_json(["chars", "--group", "cyclic:5", "--basis", "plus"])
        assert code == 0
        results = payload["results"]
        assert results["rank_plus"] == 2
        assert results["rank_minus"] == 2
        assert len(results["basis"]) == 2

    def test_table_input(self, tmp_path):
        table = {"elements": ["e", "a"], "table": [[0, 1], [1, 0]]}
        path = tmp_path / "c2.json"
        path.write_text(json.dumps(table))
        payload, code = run_json(["chars", "--group", f"table:{path}"])
        assert code == 0
        assert payload["results"]["rank_plus"] == 1

    def test_include_identity_flag(self):
        a, _ = run_json(["chars", "--group", "cyclic:5"])
        b, _ = run_json(["chars", "--group", "cyclic:5", "--include-identity"])
        assert b["results"]["rank_plus"] == a["results"]["rank_plus"] + 1


class TestLens:
    def test_l3_table_values(self):
        payload, code = run_json(["lens", "--n", "3", "--weights", "1,1"])
        assert code == 0
        results = payload["results"]
        assert results["table"][1]["value"]["exact"] == "-1/9"
        assert results["rho2"]["exact"] == "2/9"
        assert results["parity_holds"] is True
        assert results["rho2_in_ring"] is True

    def test_antisymmetric_case_has_imaginary_floats(self):
        payload, _ = run_json(["lens", "--n", "5", "--weights", "1"])
        entry = payload["results"]["table"][1]["value"]
        assert entry["float"]["re"] == "0.0"

    def test_defect_scale(self):
        payload, _ = run_json(["lens", "--n", "3", "--weights", "1,1",
                               "--defect-scale", "3"])
        assert payload["results"]["table"][1]["value"]["exact"] == "-1/3"


class TestCircle:
    def test_divergent_ap(self):
        payload, code = run_json(["circle", "--subset", "ap:1,1", "--terms", "100"])
        assert code == 0
        assert payload["results"]["verdict"]["kind"] == "divergent"

    def test_finite_exact(self):
        payload, _ = run_json(["circle", "--subset", "finite:1,2,3"])
        assert payload["results"]["exact"]["rational_coeff"] == "11/6"

    def test_ahat_scaling(self):
        payload, _ = run_json(["circle", "--subset", "geo:2", "--terms", "10",
                               "--ahat", "3"])
        assert payload["results"]["verdict"]["exact"]["rational_coeff"] == "6"

    def test_audit_small(self):
        payload, _ = run_json(["circle", "--subset", "finite:1,2", "--audit"])
        errors = [float(e) for e in payload["results"]["per_term_errors"]]
        assert all(e < 1e-9 for e in errors)

    @pytest.mark.parametrize("subset, family", [("finite:3,1", "finite:{1,3}"),
                                                ("ap:2,3", "ap:2,3"), ("geo:3", "geo:3"),
                                                ("primes", "primes")])
    def test_subset_syntax(self, subset, family):
        payload, code = run_json(["circle", "--subset", subset, "--terms", "2"])
        assert code == 0 and payload["results"]["family"] == family

    @pytest.mark.parametrize("subset", ["finite:", "finite:1,,2", "ap:1", "ap:1,2,3",
                                        "geo:", "geo:2.5", "primes:3", "primes:", "fib:1"])
    def test_malformed_subset_is_a_usage_error(self, subset, capsys):
        assert main(["circle", "--subset", subset, "--terms", "3"]) == 1
        err = capsys.readouterr().err
        first = err.splitlines()[0]
        assert first.startswith("usage error: ") and repr(subset) in first
        assert "(use finite:n1,n2,..., ap:a,d, geo:b or primes)" in first
        assert "Traceback" not in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
    def test_bad_tolerance_exits_1_before_any_quadrature(self, tol, capsys, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr("mpmath.quad", no_quadrature)
        argv = ["circle", "--subset", "finite:1,2,3,4,5", "--audit", f"--tol={tol}"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: abs_tol must be positive and finite")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("tol", ["-1e-9", "-inf"])
    def test_negative_tolerance_as_a_separate_argument(self, tol, capsys, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr("mpmath.quad", no_quadrature)
        argv = ["circle", "--subset", "finite:1,2,3,4,5", "--audit", "--tol", tol]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: abs_tol must be positive and finite")
        assert err.count("\n") == 1


class TestNegativeValues:
    """A negative number after a value-taking option is its value, as with '='."""

    @pytest.mark.parametrize("argv", [
        ["circle", "--subset", "geo:2", "--terms", "10", "--ahat", "-1/2"],
        ["circle", "--subset", "geo:2", "--terms", "10", "--ahat", "-2.5"],
        ["circle", "--subset", "geo:2", "--terms", "10", "--ahat", "-1E1"],
        ["ringcheck", "--orders", "3,5", "--value", "-7/15"],
        ["lens", "--n", "5", "--weights", "1,2", "--defect-scale", "-1/2"],
        ["lens", "--n", "5", "--weights", "1,2", "--defect-scale", "-3"],
    ], ids=" ".join)
    def test_same_as_the_equals_form(self, argv):
        joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
        _, rendered, code = run(argv)
        assert code == 0 and (rendered, code) == run(joined)[1:]

    @pytest.mark.parametrize("token", ["-x", "--", "-1/", "-e5", "-nan"])
    def test_other_dash_tokens_are_still_options(self, token, capsys):
        assert main(["ringcheck", "--orders", "3", "--value", token]) == 1
        assert "expected one argument" in capsys.readouterr().err

    def test_normalize_dash_still_reads_stdin(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("t e:0 t^-1\n\nq:1\n"))
        payload, code = run_json(["zoo", "--group", "hnn", "--normalize", "-"])
        assert code == 0
        assert [f["normal_form"] for f in payload["results"]["normal_forms"]] == [
            "(q=0 | e[1]^1)", "(q=1 | -)"]


class TestZooAndGrowth:
    def test_normalize(self):
        payload, _ = run_json(["zoo", "--group", "hnn", "--normalize", "t e:0 t^-1"])
        assert payload["results"]["normal_forms"][0]["normal_form"] == "(q=0 | e[1]^1)"

    def test_intersect_integers(self):
        payload, _ = run_json(["zoo", "--group", "hnn", "--intersect-integers",
                               "--radius", "6"])
        ints = payload["results"]["class_integers"]["integers"]
        assert 1 in ints and 2 in ints
        assert payload["results"]["class_integers"]["all_positive"] is True

    def test_class_of(self):
        payload, _ = run_json(["zoo", "--group", "qsemi", "--class-of", "q:1",
                               "--radius", "6"])
        assert payload["results"]["class_ball"]["all_in_positive_rationals"] is True

    def test_growth(self):
        payload, _ = run_json(["growth", "--group", "lamplighter:2",
                               "--element", "lamp:0", "--max-radius", "8"])
        assert payload["results"]["kind"] == "polynomial"

    def test_growth_of_qsemi_identity_is_constant(self):
        payload, _ = run_json(["growth", "--group", "qsemi", "--element", "q:0",
                               "--max-radius", "6"])
        assert payload["results"]["counts"] == [1] * 7

    def test_ball_json_agrees_with_tsv(self):
        payload, code = run_json(["zoo", "--group", "lamplighter:2", "--ball", "2"])
        assert code == 0
        ball = payload["results"]["word_ball"]
        _, tsv, _ = run(["zoo", "--group", "lamplighter:2", "--ball", "2",
                         "--format", "tsv"])
        rows = dict(line.split("\t", 1) for line in tsv.splitlines())
        assert ball["sizes_by_radius"] == [
            int(rows[f"word_ball.sizes_by_radius[{i}]"]) for i in range(3)]
        assert ball["sizes_by_radius"][-1] == len(ball["elements"])


class TestRingcheck:
    def test_member(self):
        payload, _ = run_json(["ringcheck", "--orders", "3,5", "--value", "7/15"])
        assert payload["results"]["contained"] is True

    def test_nonmember(self):
        payload, _ = run_json(["ringcheck", "--orders", "3,5", "--value", "1/2"])
        assert payload["results"]["contained"] is False

    def test_infinite_order(self):
        payload, _ = run_json(["ringcheck", "--orders", "inf", "--value", "5"])
        assert payload["results"]["ring"] == "Z"


class TestInduce:
    def test_cyclic_example(self):
        payload, code = run_json(["induce", "--sub", "cyclic:2", "--target",
                                  "cyclic:4", "--map", "0,2", "--rho", "5,7"])
        assert code == 0
        exacts = [v["exact"] for v in payload["results"]["values"]]
        assert exacts == ["5", "0", "7", "0"]

    def test_zoo_target(self):
        payload, code = run_json(["induce", "--sub", "cyclic:2", "--target",
                                  "lamplighter:2", "--map", ";lamp:0",
                                  "--rho", "4,1/3"])
        assert code == 0
        values = payload["results"]["values"]
        assert values[0]["value"]["exact"] == "4"
        assert values[1]["value"]["exact"] == "1/3"

    def test_rho_from_json_file(self, tmp_path):
        from etarho.cyclotomic import CyclotomicValue
        vals = [CyclotomicValue.zero(3), CyclotomicValue.root_of_unity(3),
                CyclotomicValue.root_of_unity(3, 2)]
        path = tmp_path / "rho.json"
        path.write_text(json.dumps({"values": [v.to_json() for v in vals]}))
        payload, code = run_json(["induce", "--sub", "cyclic:3", "--target",
                                  "cyclic:3", "--map", "0,1,2",
                                  "--rho", f"@{path}"])
        assert code == 0
        assert payload["results"]["values"][1]["exact"] == {
            "order": 3, "coefficients": ["0", "1"]}


class TestCliBehavior:
    def test_python_dash_m_runs_from_a_checkout(self, capsys):
        argv = ["circle", "--subset", "finite:1,2,3", "--terms", "3"]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-m", "etarho", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert main(argv) == 0
        assert proc.stdout == capsys.readouterr().out
        bad = subprocess.run([sys.executable, "-m", "etarho", "frobnicate"], env=env,
                             capture_output=True, text=True, timeout=120)
        assert bad.returncode == 1 and bad.stderr.startswith("usage error: ")

    def test_closed_stdout_exits_1_without_a_traceback(self):
        # the read end is closed before the child starts, so its first write
        # to stdout meets a broken pipe
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "etarho", "growth", "--group",
                                   "hnn", "--element", "t", "--max-radius", "3"],
                                  env=env, stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["lens", "--does-not-exist"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_subcommand_exits_1(self, capsys):
        assert main([]) == 1

    def test_validation_error_exits_1(self, capsys):
        assert main(["lens", "--n", "4", "--weights", "1"]) == 1

    @pytest.mark.parametrize("radius", ["0", "-1"])
    def test_growth_without_a_radius_exits_1(self, radius, capsys):
        assert main(["growth", "--group", "lamplighter:2", "--element", "lamp:0",
                     "--max-radius", radius]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: max_radius must be >= 1")

    @pytest.mark.parametrize("argv", [
        ["ringcheck", "--orders", "3,5", "--value", "1/0"],
        ["lens", "--n", "3", "--weights", "1,1", "--defect-scale", "1/0"],
        ["circle", "--subset", "ap:1,1", "--terms", "10", "--ahat", "1/0"],
        ["induce", "--sub", "cyclic:2", "--target", "cyclic:4", "--map", "0,2",
         "--rho", "1,1/0"],
        ["zoo", "--group", "qsemi", "--class-of", "q:1/0"],
    ])
    def test_zero_denominator_exits_1(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_unprintable_exact_sum_exits_1(self, capsys):
        # 1/p summed over 500 primes above 10^9 has about 4500 digits on
        # each side, past the default limit of str() on an int
        big = list(islice((n for n in count(10 ** 9) if is_prime(n)), 500))
        assert main(["circle", "--subset", "finite:" + ",".join(map(str, big)),
                     "--terms", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: the exact sum over the subset has a ")
        assert "-digit numerator" in captured.err
        assert "set_int_max_str_digits" not in captured.err
        assert main(["circle", "--subset", "finite:" + ",".join(map(str, range(1, 2001))),
                     "--terms", "3"]) == 0

    @pytest.mark.parametrize("argv, allowed", [
        (["lens", "--n", "129", "--weights", "1"], False),
        (["lens", "--n", "3", "--weights", ",".join(["1"] * 9)], False),
        (["lens", "--n", "3", "--weights", ",".join(["1"] * 8)], True),
        (["circle", "--subset", "ap:1,1", "--terms", "1000001"], False),
        (["circle", "--subset", "finite:1,2", "--terms", "1000000"], True),
        (["circle", "--subset", "ap:1,1", "--terms", "65", "--audit"], False),
        (["circle", "--subset", f"finite:{','.join(map(str, range(1, 66)))}", "--audit"],
         False),
        (["chars", "--group", "cyclic:257"], False),
        (["chars", "--group", "cyclic:256"], True),
        (["induce", "--sub", "cyclic:2", "--target", "cyclic:257", "--map", "0,2",
          "--rho", "5,7"], False),
        (["chars", "--group", "table:{z257}"], False),
    ])
    def test_input_caps(self, argv, allowed, capsys, tmp_path):
        z257 = tmp_path / "z257.json"
        z257.write_text(json.dumps({"elements": list(range(257)),
                                    "table": [[(a + b) % 257 for b in range(257)]
                                              for a in range(257)]}))
        argv = [arg.format(z257=z257) for arg in argv]
        assert main(argv) == (0 if allowed else 1)
        err = capsys.readouterr().err
        if allowed:
            assert err == ""
        else:
            assert err.startswith("error: ") and "above the cap of" in err
            assert err.count("\n") == 1

    @pytest.mark.parametrize("table", [
        [1, 2], {"elements": 3}, "cyclic:3",
        {"elements": [0, 1], "table": 5},
        {"elements": [0, 1], "table": [[0, 1], [1]]},
        {"elements": [0, 1], "table": [[0, "1"], [1, 0]]}])
    def test_malformed_group_table_exits_1(self, table, tmp_path, capsys):
        path = tmp_path / "group.json"
        path.write_text(json.dumps(table))
        assert main(["chars", "--group", f"table:{path}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_word_ball_above_cap_exits_2(self, capsys):
        assert main(["zoo", "--group", "hnn", "--ball", "13"]) == 2
        assert "desk-scale cap" in capsys.readouterr().err

    @pytest.mark.parametrize("radius", ["100000000", "1" * 20])
    def test_growth_radius_above_cap_exits_2_at_once(self, radius):
        # the cap is checked before anything is sized by the radius; the child
        # runs under its own 1 GB address-space limit, so a list of radius + 1
        # entries would end in a MemoryError rather than take the machine
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run([sys.executable, "-m", "etarho", "growth", "--group", "hnn",
                               "--element", "q:1", "--max-radius", radius], env=env,
                              preexec_fn=limit_memory, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"computation failed: radius {radius} above desk-scale cap 12\n"

    def test_hnn_word_ball_stops_at_node_budget_in_bounded_memory(self, tmp_path):
        # radius 12 is under the cap; the node budget stops it at radius 8
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        out, err = tmp_path / "out", tmp_path / "err"
        with out.open("w") as fout, err.open("w") as ferr:
            proc = subprocess.Popen([sys.executable, "-m", "etarho", "zoo", "--group", "hnn",
                                     "--ball", "12"], env=env, stdout=fout, stderr=ferr)
            _, status, usage = os.wait4(proc.pid, 0)  # the child's own peak RSS
            proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 2 and out.read_text() == ""
        message = err.read_text()
        assert message.count("\n") == 1 and "node budget 100000 at radius 8" in message
        assert usage.ru_maxrss < 300 * 1024  # KiB

    def test_huge_t_power_exits_1_at_once(self, tmp_path):
        # one syllable per unit of power: without the cap this runs for minutes
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-m", "etarho", "zoo", "--group", "hnn",
                               "--normalize", "t^99999999"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "above the cap of" in proc.stderr

    @pytest.mark.parametrize("word", ["e:0^99999999 q:1", "e:99999999"])
    def test_huge_e_letter_exits_1_at_once(self, word):
        # without the cap: 2^99999999, or the 10^8-th prime
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-m", "etarho", "zoo", "--group", "qsemi",
                               "--normalize", word], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "above the cap of" in proc.stderr

    def test_huge_ringcheck_order_exits_1_at_once(self):
        # trial division of an 82-digit order would not finish
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        huge = "1" + "0" * 80 + "7"
        proc = subprocess.run([sys.executable, "-m", "etarho", "ringcheck", "--orders",
                               f"{huge},3", "--value", "1/3"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "above the cap of 1000000000000" in proc.stderr

    @pytest.mark.parametrize("orders, ring", [
        ("1000000000000", "Z[1/10]"),
        ("999999999989,inf", "Z[1/999999999989]"),  # the largest prime under the cap
    ])
    def test_ringcheck_orders_at_the_cap(self, orders, ring):
        payload, code = run_json(["ringcheck", "--orders", orders, "--value", "1/5"])
        assert code == 0 and payload["results"]["ring"] == ring
        assert main(["ringcheck", "--orders", "1000000000001", "--value", "1/5"]) == 1

    @pytest.mark.parametrize("argv, digest", [
        (["zoo", "--group", "hnn", "--class-of", "q:1/2 t", "--radius", "6"],
         "76345d379dd8738f92f4b912966b4eecd36440f96ca086b143850045f468cadf"),
        (["zoo", "--group", "hnn", "--ball", "6", "--format", "tsv"],
         "7c34f6dd06d08ef09fcfecd67233938611a9db8cd2f2d0111377d5e3b5eea55b"),
        (["zoo", "--group", "qsemi", "--class-of", "e:0 e:1", "--radius", "6"],
         "804ef1f0f87337875b731945624d80d84573266c21ae51de069e23055539d997"),
        # taken before the HnnShift conjugate BFS used closed-form conjugators;
        # the growth counts are 1, 5, 25, 115, 529, 2395, 10765
        (["growth", "--group", "hnn", "--element", "t", "--max-radius", "6"],
         "ec9ab977b18c35c47f07ce62e0f071cd9658ef9199821c5add133f866a48c9ae"),
        (["zoo", "--group", "hnn", "--class-of", "q:1/2 t", "--radius", "5"],
         "b4d0f25136bee98ffe3dabd142154f1e6f59a967e3d47972672a02554270391a"),
        (["zoo", "--group", "qsemi", "--class-of", "e:0 e:1", "--radius", "5"],
         "4240ef5c5d274d88fe69c42c216f5389846e5387da514fb10811c4f814f9eaf3"),
        (["zoo", "--group", "lamplighter:3", "--ball", "5", "--format", "tsv"],
         "a68b3af2ace6e8b8fced3c0ff03af4c554de182e4d369a204dbe62e8a32df3ee"),
    ])
    def test_zoo_stdout_pinned(self, argv, digest, capsys):
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    # sha256 of stdout, taken while the primes came from sympy.nextprime
    @pytest.mark.parametrize("terms, digest", [
        (3000, "034c0ec94623fa55f8ed99120317ac4b92cedd666a39dcf29f2e39a82f75ea6a"),
        (100000, "ece505caa939bc2f7c83ff8a36575fc801f1e4a4723f9b674fd9bf81c49d08ba"),
    ])
    def test_circle_primes_stdout_pinned(self, terms, digest, capsys):
        assert main(["circle", "--subset", "primes", "--terms", str(terms)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_determinism_byte_identical(self):
        a = run(["lens", "--n", "7", "--weights", "1,2,3"])[1]
        b = run(["lens", "--n", "7", "--weights", "1,2,3"])[1]
        assert a == b

    def test_meta_block_only_on_request(self):
        payload, _ = run_json(["ringcheck", "--orders", "2", "--value", "1"])
        assert "meta" not in payload
        report, rendered, _ = run(["--meta", "ringcheck", "--orders", "2",
                                   "--value", "1"])
        assert "meta" in json.loads(rendered)

    def test_tsv_and_pretty_render(self):
        _, tsv, _ = run(["--format", "tsv", "ringcheck", "--orders", "2",
                         "--value", "1/2"])
        assert "contained\tTrue" in tsv
        _, pretty, _ = run(["--format", "pretty", "ringcheck", "--orders", "2",
                            "--value", "1/2"])
        assert "ringcheck" in pretty

    def test_config_file_defaults_and_override(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("format=tsv\n")
        _, out, _ = run(["--config", str(cfg), "ringcheck", "--orders", "2",
                         "--value", "1"])
        assert out.startswith("ring\t")
        _, out2, _ = run(["--config", str(cfg), "--format", "json", "ringcheck",
                          "--orders", "2", "--value", "1"])
        json.loads(out2)

    def test_config_equals_form(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("format=tsv\n")
        _, out, _ = run(["ringcheck", "--orders", "2", "--value", "1",
                         f"--config={cfg}"])
        assert out.startswith("ring\t")

    def test_config_without_value_exits_1(self, capsys):
        assert main(["ringcheck", "--orders", "2", "--value", "1", "--config"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: argument --config")
        assert "Traceback" not in err

    def test_config_rejects_unknown_keys(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("frobnicate=1\n")
        with pytest.raises(UsageError):
            run(["--config", str(cfg), "ringcheck", "--orders", "2", "--value", "1"])

    @pytest.mark.parametrize("line, message", [
        ("command=lens", "unknown config key 'command' (a config file sets only format and meta)"),
        ("format=xml", "config format='xml': expected one of json, tsv, pretty"),
        ("meta=maybe", "config meta='maybe': expected one of 1, true, yes, 0, false, no"),
    ], ids=["subcommand-key", "format-value", "meta-value"])
    def test_config_bad_key_or_value_exits_1(self, tmp_path, capsys, line, message):
        # a config sets format and meta only; the first line once crashed
        # with an AttributeError, the other two quietly gave pretty / no meta
        cfg = tmp_path / "cfg"
        cfg.write_text(line + "\n")
        assert main(["--config", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[0] == f"usage error: {message}"
        assert "Traceback" not in err

    def test_config_meta_values(self, tmp_path):
        cfg = tmp_path / "cfg"
        for value, meta in [("YES", True), ("1", True), ("no", False), ("0", False)]:
            cfg.write_text(f"meta={value}\n")
            _, out, _ = run(["--config", str(cfg), "ringcheck", "--orders", "2",
                             "--value", "1"])
            assert ("meta" in json.loads(out)) is meta

    def test_verify_single_suite(self):
        payload, code = run_json(["verify", "--suite", "2"])
        assert code == 0
        assert payload["results"]["all_passed"] is True
        assert payload["results"]["suites"][0]["criterion"] == 2

    @pytest.mark.parametrize("suite", ["", " "])
    def test_verify_empty_suite_list_is_a_usage_error(self, capsys, suite):
        # "" once ran all ten suites and exited 0
        assert main(["verify", "--suite", suite]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[0] == "usage error: --suite needs a comma list of suite numbers"

    def test_verify_all_refuses_an_empty_selection(self):
        # [] once ran all ten suites, as None does
        with pytest.raises(ValueError, match="no suites selected"):
            verify_all([])

    def test_report_envelope_schema(self):
        payload, _ = run_json(["ringcheck", "--orders", "3", "--value", "1/3"])
        assert set(payload) == {"command", "inputs", "results", "diagnostics",
                                "exit_code"}

    def test_parser_help_lists_subcommands(self):
        helptext = build_parser().format_help()
        for name in ("chars", "induce", "lens", "circle", "growth", "zoo",
                     "ringcheck", "verify"):
            assert name in helptext
